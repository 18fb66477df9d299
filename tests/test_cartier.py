"""Tests for presented modules with a p^{-1}-linear operator.

The top-form module has a classical closed form which serves as the
independent oracle throughout: kappa(x^E dx) is x^{(E+1)/p - 1} dx when
every component of E is congruent to p-1 mod p, and zero otherwise.
"""

import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from cartier_lab import kernels
from cartier_lab.cartier import (
    _finite_length,
    _hom_blocks,
    _max_nil_finite,
    CartierModule,
    CartierMorphism,
    FiniteModel,
    cokernel,
    direct_sum,
    hom_cartier,
    image,
    image_chain,
    is_nilpotent,
    jordan_block_module,
    kernel,
    max_nilpotent_submodule,
    omega_module,
    point_module,
    quotient_module,
    stable_image,
    submodule_module,
    to_semilinear,
)
from cartier_lab.errors import InvariantViolation, ValidationError
from cartier_lab.fields import (
    P_LINEAR,
    Fq,
    SemilinearMap,
    fixed_points_dimension,
    fq_rref,
    is_nilpotent_semilinear,
)
from cartier_lab.poly import PolyRing
from cartier_lab.submodules import hnf_extend, vec_add, vec_scale, zero_vector

SEED = 91

POINT_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]


def ring(p, e=1, nvars=1):
    return PolyRing(Fq(p, e), tuple("xy"[:nvars]))


def top_form_oracle(ring_, exponents):
    """Independent closed form for the trace operator on top forms."""
    p = ring_.ctx.p
    if all(ei % p == p - 1 for ei in exponents):
        target = tuple((ei + 1) // p - 1 for ei in exponents)
        return (ring_.monomial(target),)
    return (ring_.zero,)


# --------------------------------------------------------- operator oracle


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("nvars", [1, 2])
def test_top_form_operator_matches_closed_form(p, nvars):
    R = ring(p, nvars=nvars)
    om = omega_module(R)
    degrees = range(0, 3 * p + 1)
    if nvars == 1:
        exps = [(d,) for d in degrees]
    else:
        exps = [
            (a, b)
            for a in degrees
            for b in degrees
            if a + b <= 3 * p
        ]
    for E in exps:
        got = om.apply_kappa((R.monomial(E),))
        assert got == top_form_oracle(R, E), f"E={E}"


@pytest.mark.parametrize(
    "p,exp,expected",
    [
        (2, 5, "x^2"),
        (3, 5, "x"),
        (2, 4, "0"),
        (3, 8, "x^2"),
        (2, 1, "1"),
    ],
)
def test_top_form_worked_examples(p, exp, expected):
    R = ring(p)
    om = omega_module(R)
    (got,) = om.apply_kappa((R.monomial((exp,)),))
    assert str(got) == expected


def test_top_form_on_sums():
    R = ring(2)
    om = omega_module(R)
    (got,) = om.apply_kappa((R.parse("x^3+x"),))
    assert str(got) == "x+1"


# ----------------------------------------------------------- semilinearity


@pytest.mark.parametrize("p,e", POINT_FIELDS)
def test_semilinearity_point_operator(p, e):
    pt = point_module(Fq(p, e))
    rng = random.Random(SEED + p + e)
    assert pt.semilinearity_check(rng, trials=30)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("nvars", [1, 2])
def test_semilinearity_top_forms(p, nvars):
    R = ring(p, nvars=nvars)
    om = omega_module(R)
    rng = random.Random(SEED + 10 * p + nvars)
    assert om.semilinearity_check(rng, trials=30)
    # the defining law, checked explicitly: kappa(f^p v) = f kappa(v)
    for _ in range(10):
        f = R.random_poly(rng, max_degree=2)
        v = tuple(R.random_poly(rng, max_degree=4) for _ in range(om.rank))
        left = om.apply_kappa(vec_scale(v, f.pth_power()))
        right = vec_scale(om.apply_kappa(v), f)
        assert left == om.normal_form(right)


def test_random_point_tables_are_semilinear():
    """Over F_q any generator assignment extends to a valid operator on a
    free module; the induced map must satisfy the twisted law."""
    for p, e in POINT_FIELDS:
        ctx = Fq(p, e)
        R = PolyRing(ctx, ())
        rng = random.Random(SEED + p * e)
        for _ in range(5):
            rank = rng.randrange(1, 4)
            table = {
                ((), j): tuple(R.scalar(ctx.random_element(rng)) for _ in range(rank))
                for j in range(rank)
            }
            mod = CartierModule(R, rank, table)
            assert mod.semilinearity_check(rng, trials=15)


# ----------------------------------------------------- validation contract


def test_wrong_length_elements_are_rejected():
    om = omega_module(ring(2))
    with pytest.raises(ValidationError):
        om.apply_kappa((om.ring.one, om.ring.one))


def test_incomplete_tables_are_rejected():
    R = ring(2)
    with pytest.raises(ValidationError):
        CartierModule(R, 1, {((0,), 0): (R.one,)})  # missing a=(1,)


def test_operator_must_respect_relations():
    """A table sending a relation outside the relation span is refused."""
    ctx = Fq(2, 1)
    R = PolyRing(ctx, ("x",))
    x = R.parse("x")
    table = {
        ((0,), 0): (R.one,),
        ((1,), 0): (R.zero,),
    }
    # R/(x^2) with kappa(e) = e: kappa(x^2 e) = x e is not in <x^2 e>
    with pytest.raises(ValidationError):
        CartierModule(R, 1, table, relations=[(x * x,)])
    # kappa(e) = x e is fine: kappa(x^2 f e) = x kappa(f e) stays inside
    ok = CartierModule(
        R, 1, {((0,), 0): (x,), ((1,), 0): (R.zero,)}, relations=[(x * x,)]
    )
    assert ok.rank == 1


# ----------------------------------------------------- chains / nilpotency


def test_top_form_chain_is_already_stable():
    om = omega_module(ring(2))
    chain = image_chain(om)
    assert len(chain) == 1
    assert is_nilpotent(om) == (False, None)


def test_jordan_block_chain_descends_to_zero():
    j2 = jordan_block_module(Fq(2, 1), 2)
    chain = image_chain(j2)
    assert [len(m) for m in chain] == [2, 1, 0]
    assert is_nilpotent(j2) == (True, 2)
    j3 = jordan_block_module(Fq(3, 1), 3)
    assert is_nilpotent(j3) == (True, 3)


def test_point_module_is_not_nilpotent():
    assert is_nilpotent(point_module(Fq(3, 1))) == (False, None)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_random_nilpotency_matches_brute_force(p, e):
    """Over F_q, iterate the operator on every basis vector; additivity
    makes basis vanishing equivalent to global vanishing."""
    ctx = Fq(p, e)
    R = PolyRing(ctx, ())
    rng = random.Random(SEED + 31 * p + e)
    for _ in range(12):
        rank = rng.randrange(1, 3)
        table = {
            ((), j): tuple(R.scalar(ctx.random_element(rng)) for _ in range(rank))
            for j in range(rank)
        }
        mod = CartierModule(R, rank, table)
        bound = 2 * e * rank + 1
        units = [
            tuple(R.one if i == j else R.zero for i in range(rank))
            for j in range(rank)
        ]
        brute = None
        for order in range(bound + 1):
            if all(
                all(c.is_zero() for c in mod.kappa_power(order, u))
                for u in units
            ):
                brute = order
                break
        nil, order = is_nilpotent(mod)
        assert nil == (brute is not None)
        if nil:
            assert order == brute


def test_stable_image_of_mixed_module_is_the_unit_root_part():
    """point + jordan: the chain shrinks away the nilpotent part and
    stabilizes on the rank-1 point summand."""
    pt = point_module(Fq(2, 1))
    j2 = jordan_block_module(Fq(2, 1), 2)
    total, _, _ = direct_sum(pt, j2)
    sub, inclusion, chain = stable_image(total)
    assert FiniteModel(sub).dimension == 1
    assert len(chain) >= 2
    assert inclusion.source is sub and inclusion.target is total


# ------------------------------------------------------------- submodules


def test_max_nilpotent_submodule_of_mixed_sum():
    pt = point_module(Fq(2, 1))
    j2 = jordan_block_module(Fq(2, 1), 2)
    total, _, _ = direct_sum(pt, j2)
    info = max_nilpotent_submodule(total)
    assert FiniteModel(info["module"]).dimension == 2
    assert info["order"] == 2
    assert not info["partial"]
    nil, _ = is_nilpotent(info["module"])
    assert nil


def test_max_nilpotent_submodule_of_unit_root_module_is_zero():
    info = max_nilpotent_submodule(point_module(Fq(3, 1)))
    assert FiniteModel(info["module"]).dimension == 0


def test_max_nilpotent_submodule_of_nilpotent_module_is_the_module():
    """When kappa^d vanishes on all of a finite-length module, the answer
    is the module itself, with is_nilpotent's order."""
    modules = [jordan_block_module(Fq(2, 1), 2),
               jordan_block_module(Fq(3, 1), 3)]
    rng = random.Random(SEED + 5)
    while len(modules) < 4:
        small = torsion_line_module(rng, 2, len(modules) - 1)
        if is_nilpotent(small)[0]:
            modules.append(small)
    for module in modules:
        info = max_nilpotent_submodule(module)
        assert info["module"] is module and not info["partial"]
        assert info["order"] == is_nilpotent(module)[1] > 0
        assert info["inclusion"].images == CartierMorphism.identity(module).images


def test_quotient_by_stable_span():
    """jordan2 / <e1> is a rank-1 module with the zero operator."""
    j2 = jordan_block_module(Fq(2, 1), 2)
    R = j2.ring
    quot, proj = quotient_module(j2, [(R.one, R.zero)])
    assert quot.rank == 2
    assert FiniteModel(quot).dimension == 1
    nil, order = is_nilpotent(quot)
    assert nil and order == 1
    # projection commutes by construction
    assert proj.source is j2 and proj.target is quot


def test_submodule_inclusion_roundtrip():
    j2 = jordan_block_module(Fq(2, 1), 2)
    R = j2.ring
    sub, incl = submodule_module(j2, [(R.one, R.zero)])
    assert sub.rank == 1
    img = incl.apply((R.one,))
    assert img == (R.one, R.zero)


# -------------------------------------------------------------- morphisms


def test_identity_and_zero_morphisms_validate():
    j2 = jordan_block_module(Fq(2, 1), 2)
    R = j2.ring
    ident = CartierMorphism(
        j2, j2, [(R.one, R.zero), (R.zero, R.one)]
    )
    zero = CartierMorphism(
        j2, j2, [tuple(zero_vector(R, 2))] * 2
    )
    v = (R.one, R.one)
    assert ident.apply(v) == v
    assert zero.apply(v) == tuple(zero_vector(R, 2))


def test_non_commuting_map_is_rejected():
    """e -> e2 from a zero-operator line into jordan2 breaks the
    intertwining: kappa(e2) = e1 but the source kappa image is 0."""
    ctx = Fq(2, 1)
    R = PolyRing(ctx, ())
    line = CartierModule(R, 1, {((), 0): (R.zero,)})
    j2 = jordan_block_module(ctx, 2)
    with pytest.raises(ValidationError):
        CartierMorphism(line, j2, [(R.zero, R.one)])
    # e -> e1 does commute
    ok = CartierMorphism(line, j2, [(R.one, R.zero)])
    assert ok.apply((R.one,)) == (R.one, R.zero)


def test_kernel_image_cokernel_of_projection():
    """jordan2 -> jordan2/<e1>: kernel is the line <e1>, image is all of
    the quotient, cokernel vanishes."""
    j2 = jordan_block_module(Fq(2, 1), 2)
    R = j2.ring
    quot, proj = quotient_module(j2, [(R.one, R.zero)])
    ker, ker_incl = kernel(proj)
    assert FiniteModel(ker).dimension == 1
    img, img_incl = image(proj)
    assert FiniteModel(img).dimension == FiniteModel(quot).dimension
    cok, cok_proj = cokernel(proj)
    assert FiniteModel(cok).dimension == 0


def test_first_isomorphism_dimension_count():
    """dim source = dim kernel + dim image for maps of finite modules."""
    ctx = Fq(3, 1)
    R = PolyRing(ctx, ())
    j2 = jordan_block_module(ctx, 2)
    line = CartierModule(R, 1, {((), 0): (R.zero,)})
    phi = CartierMorphism(line, j2, [(R.one, R.zero)])
    ker, _ = kernel(phi)
    img, _ = image(phi)
    assert (
        FiniteModel(line).dimension
        == FiniteModel(ker).dimension + FiniteModel(img).dimension
    )


# -------------------------------------------------------------------- hom


def revalidated(res, source, target):
    """``res`` after rebuilding every basis morphism with the polynomial
    validation: hom_cartier certifies its basis by one F_p product, and
    CartierMorphism's check of the relations and of kappa on every table
    key stays the reference in the tests."""
    for phi in res.basis:
        CartierMorphism(source, target, phi.images, validate=True)
    return res


def test_a_corrupted_nullspace_fails_the_certificate(monkeypatch):
    """One entry of the kernel changed, in a column where the Hom system
    is nonzero, makes the system times the basis nonzero."""
    nullspace = kernels.nullspace_mod_p

    def corrupted(a, p):
        null = nullspace(a, p)
        col = int(np.flatnonzero(a.any(axis=0))[0])
        null[0, col] = (null[0, col] + 1) % p
        return null

    jordan = jordan_block_module(Fq(2, 1), 2)
    assert hom_cartier(jordan, jordan).dimension_fp == 2
    monkeypatch.setattr(kernels, "nullspace_mod_p", corrupted)
    with pytest.raises(InvariantViolation, match="certificate"):
        hom_cartier(jordan, jordan)


def test_hom_of_top_forms_is_the_prime_field():
    """Endomorphisms of the top-form module are multiplication by prime
    field constants: dimension 1 over F_p (search is degree-capped, so
    the result is flagged partial over polynomial rings)."""
    for p in (2, 3):
        om = omega_module(ring(p))
        res = hom_cartier(om, om)
        assert res.dimension_fp == 1
        assert res.partial


def test_hom_jordan_block_endomorphisms():
    """Commuting endomorphisms of jordan2 are [[a,b],[0,a]]: dim 2."""
    res = hom_cartier(
        jordan_block_module(Fq(2, 1), 2), jordan_block_module(Fq(2, 1), 2)
    )
    assert res.dimension_fp == 2
    assert not res.partial


def test_hom_point_module_over_f4():
    """phi(e) = a e commutes iff a^(1/2) = a, i.e. a in F_2: dim 1."""
    pt = point_module(Fq(2, 2))
    res = hom_cartier(pt, pt)
    assert res.dimension_fp == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hom_matches_brute_force_enumeration(q):
    """Exhaustive check on small F_q modules: count all rank x rank scalar
    matrices commuting with the operators; must equal p^dim."""
    ctx = Fq(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    R = PolyRing(ctx, ())
    mods = [
        jordan_block_module(ctx, 2),
        point_module(ctx),
        CartierModule(
            R,
            2,
            {
                ((), 0): (R.zero, R.one),
                ((), 1): (R.one, R.zero),
            },
        ),
    ]
    for source in mods:
        for target in mods:
            res = hom_cartier(source, target)
            count = 0
            cells = source.rank * target.rank
            for values in itertools.product(range(q), repeat=cells):
                images = []
                for j in range(source.rank):
                    vec = [R.zero] * target.rank
                    for i in range(target.rank):
                        vec[i] = R.scalar(ctx.from_int(values[j * target.rank + i]))
                    images.append(tuple(vec))
                ok = True
                for j in range(source.rank):
                    unit = tuple(
                        R.one if jj == j else R.zero for jj in range(source.rank)
                    )
                    lhs = _push(images, source.apply_kappa(unit), R, target.rank)
                    rhs = target.apply_kappa(_push(images, unit, R, target.rank))
                    if target.normal_form(lhs) != target.normal_form(rhs):
                        ok = False
                        break
                if ok:
                    count += 1
            assert count == ctx.p**res.dimension_fp, (source.rank, target.rank)
            assert not res.partial


def test_hom_ignores_generators_killed_by_relations():
    """S = F_q with kappa = sigma^{-1}, T = F_q^2/(e2) with kappa fixing
    both generators (q = 2, 4): Hom is F_2 (phi(e) = a e1 with a in F_2),
    and no basis element is the zero morphism that sends e to the dead
    generator e2."""
    for p, e in ((2, 1), (2, 2)):
        R = PolyRing(Fq(p, e), ())
        target = CartierModule(
            R,
            2,
            {((), 0): (R.one, R.zero), ((), 1): (R.zero, R.one)},
            relations=[(R.zero, R.one)],
        )
        res = hom_cartier(point_module(Fq(p, e)), target)
        assert res.dimension_fp == 1
        assert not res.partial
        assert not any(phi.is_zero() for phi in res.basis)


def test_positive_rank_hom_basis_is_independent_modulo_relations():
    """omega and omega + T over F_2[x], with T = F_2[x]/(x) and kappa(g) =
    g.  The degree-capped search also solves for x^s g, which vanish in
    T; the basis keeps only morphisms independent modulo the target's
    relations: Hom(omega, omega + T) has dimension 1 (dx -> dx) and the
    endomorphisms of omega + T dimension 2 (the two identities)."""
    R = ring(2)
    x = R.var(0)
    T = CartierModule(
        R, 1, {((0,), 0): (R.one,), ((1,), 0): (R.zero,)}, relations=[(x,)]
    )
    omega = omega_module(R)
    total, _, _ = direct_sum(omega, T)
    for source, dim in ((omega, 1), (total, 2)):
        res = hom_cartier(source, total)
        assert res.partial
        assert res.dimension_fp == len(res.basis) == dim
        for coeffs in itertools.product((0, 1), repeat=dim):
            if not any(coeffs):
                continue
            images = [
                _push([phi.images[j] for phi in res.basis],
                      [R.scalar(c) for c in coeffs], R, total.rank)
                for j in range(source.rank)
            ]
            assert not CartierMorphism(source, total, images).is_zero()


def torsion_line_module(rng, p, rank, c=1, k=1):
    """Rank-r module over F_p[x] with every generator killed by
    F = (x + c)^(pk).  The table values are multiples of (x + c)^((p-1)k),
    which keeps the relations stable: kappa(F m) = (x + c)^k kappa(m) lies
    in F M."""
    R = ring(p)
    u = R.parse(f"x+{c}")
    mult = u ** ((p - 1) * k)
    table = {
        ((a,), j): tuple(R.random_poly(rng, max_degree=1) * mult
                         for _ in range(rank))
        for a in range(p)
        for j in range(rank)
    }
    relations = []
    for i in range(rank):
        row = [R.zero] * rank
        row[i] = u ** (p * k)
        relations.append(tuple(row))
    return CartierModule(R, rank, table, relations=relations)


def every_element(model):
    """The canonical representative of every element of a finite model,
    from one ``from_codes`` call over every code tuple in counting
    order."""
    q, d = model.module.ring.ctx.q, model.dimension
    codes = itertools.product(range(q), repeat=d)
    return model.from_codes(
        np.array(list(codes), dtype=np.int64).reshape(q**d, d))


def count_morphisms(source, target):
    """Brute force: every choice of generator images among the elements of
    the target, kept when CartierMorphism accepts it."""
    elements = every_element(FiniteModel(target))
    count = 0
    for images in itertools.product(elements, repeat=source.rank):
        try:
            CartierMorphism(source, target, images)
        except ValidationError:
            continue
        count += 1
    return count


@pytest.mark.parametrize("p", [2, 3])
def test_hom_of_torsion_modules_matches_brute_force(p):
    """Over F_p[x] Hom between torsion modules is exact: the number of
    morphisms found by enumerating generator images equals p^dim."""
    rng = random.Random(SEED + 10 * p)
    small = torsion_line_module(rng, p, 1)
    pair = torsion_line_module(rng, p, 2)
    # a rank-2 presentation with the relation g1 = g2 (its first
    # generator is not a basis vector of the finite model)
    total, _, _ = direct_sum(small, small)
    glued, _ = quotient_module(total, [(total.ring.one, -total.ring.one)])
    pairs = [(small, small), (small, pair), (pair, small), (glued, small),
             (small, glued), (small, torsion_line_module(rng, p, 1))]
    # sources of positive rank: Hom into a torsion target is still exact
    omega = omega_module(small.ring)
    pairs += [(omega, small), (omega, pair),
              (direct_sum(omega, small)[0], small)]
    if p == 2:
        pairs.append((pair, pair))
    dims = []
    for source, target in pairs:
        res = revalidated(hom_cartier(source, target), source, target)
        assert not res.partial and res.degree_cap is None
        assert count_morphisms(source, target) == p**res.dimension_fp
        dims.append(res.dimension_fp)
    assert min(dims) < max(dims)
    # a positive-rank target, truncated at the default degree cap: twice
    # the largest relation degree (p) plus p
    mixed = direct_sum(omega, small)[0]
    res = revalidated(hom_cartier(mixed, mixed), mixed, mixed)
    assert res.partial and res.degree_cap == 3 * p
    assert res.dimension_fp >= 2


def cartier_span(module, gens):
    """Every element, as a normal form, of the Cartier submodule that gens
    generate in a finite module over F_q or F_q[x]: an F_q-span grown one
    generator at a time.  x and kappa are additive, so applying them to
    each new generator closes the span under both."""
    ring = module.ring
    scalars = [ring.scalar(c) for c in ring.ctx.elements()]
    group = {module.normal_form(zero_vector(ring, module.rank))}
    todo = list(gens)
    while todo:
        g = module.normal_form(todo.pop())
        if g in group:
            continue
        group = {
            module.normal_form(vec_add(s, vec_scale(g, c)))
            for s in group for c in scalars
        }
        todo.append(module.apply_kappa(g))
        if ring.nvars:
            todo.append(vec_scale(g, ring.var(0)))
    return group


def nilpotent_set(module, elements):
    """Whether kappa^k of a kappa-stable set of elements is {0} for some k:
    the images shrink until they stop changing."""
    while True:
        image = {module.normal_form(module.apply_kappa(v)) for v in elements}
        if image == elements:
            return all(module.is_zero_element(v) for v in image)
        elements = image


@pytest.mark.parametrize("p", [2, 3])
def test_max_nilpotent_submodule_is_maximal_by_enumeration(p):
    """On tiny torsion modules over F_p[x] the maximal nilpotent submodule
    is the set of the elements whose Cartier submodule is nilpotent,
    found by enumerating every element."""
    rng = random.Random(SEED + 20 * p)
    R = ring(p)
    x = R.var(0)
    point = CartierModule(
        R, 1, {((a,), 0): (R.one if a == 0 else R.zero,) for a in range(p)},
        relations=[(x,)],
    )
    # one nilpotent and one non-nilpotent R/((x + c)^p), alone and beside
    # the point
    smalls = {}
    while len(smalls) < 2:
        small = torsion_line_module(rng, p, 1, c=rng.randrange(p))
        smalls.setdefault(is_nilpotent(small)[0], small)
    modules = [point]
    for small in smalls.values():
        modules += [small, direct_sum(small, point)[0]]
    if p == 2:
        pair = torsion_line_module(rng, p, 2)
        modules += [pair, direct_sum(pair, point)[0]]
    proper = hidden = 0
    for module in modules:
        everything = every_element(FiniteModel(module))
        expected = {
            module.normal_form(v) for v in everything
            if nilpotent_set(module, cartier_span(module, [v]))
        }
        found = max_nilpotent_submodule(module)["generators"]
        assert cartier_span(module, found) == expected
        proper += 1 < len(expected) < len(everything)
        # kappa kills a nonzero element, yet no nonzero submodule is
        # nilpotent: the kernel of kappa^d is no submodule here
        hidden += len(expected) == 1 and any(
            not module.is_zero_element(v)
            and module.is_zero_element(module.apply_kappa(v))
            for v in everything
        )
    assert proper and hidden


def unimodular_rows(rng, R, r):
    """The rows of a random unimodular r x r matrix over R: the identity
    after elementary row operations and a shuffle."""
    rows = [tuple(R.one if j == i else R.zero for j in range(r))
            for i in range(r)]
    for _ in range(2 * r):
        i, j = rng.sample(range(r), 2)
        rows[i] = vec_add(rows[i], vec_scale(rows[j], R.random_poly(rng, 2)))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", [2, 3])
def test_max_nilpotent_submodule_of_positive_rank_by_enumeration(p):
    """M = omega + T, for a small torsion module T, has positive rank and
    is not nilpotent.  Its answer is partial and nilpotent, and it spans
    the maximal nilpotent submodule of T, found by enumerating every
    element of T; also when M is re-presented on a unimodular change of
    generators, so that T lies along no coordinate."""
    rng = random.Random(SEED + 30 * p)
    R = ring(p)
    x = R.var(0)
    point = CartierModule(
        R, 1, {((a,), 0): (R.one if a == 0 else R.zero,) for a in range(p)},
        relations=[(x,)],
    )
    smalls = {}
    while len(smalls) < 2:
        small = torsion_line_module(rng, p, 1, c=rng.randrange(p))
        smalls.setdefault(is_nilpotent(small)[0], small)
    torsions = [jordan_line(p), direct_sum(jordan_line(p), point)[0],
                smalls[True], direct_sum(smalls[False], point)[0]]
    if p == 2:
        torsions.append(torsion_line_module(rng, p, 2))
    nonzero = 0
    for tors in torsions:
        expected = [
            v for v in every_element(FiniteModel(tors))
            if nilpotent_set(tors, cartier_span(tors, [v]))
        ]
        total, _, i2 = direct_sum(omega_module(R), tors)
        r, rel_hnf = total.rank, total.relation_hnf()
        want = hnf_extend(rel_hnf, [i2.apply(v) for v in expected], r, R)
        nonzero += want != rel_hnf
        presentations = [(total, CartierMorphism.identity(total))] + [
            submodule_module(total, unimodular_rows(rng, R, r))
            for _ in range(2)
        ]
        for module, incl in presentations:
            res = max_nilpotent_submodule(module)
            assert res["partial"]
            assert is_nilpotent(res["module"])[0]
            found = [incl.apply(g) for g in res["generators"]]
            assert hnf_extend(rel_hnf, found, r, R) == want
    assert nonzero >= 3


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
def test_max_nilpotent_submodule_over_fq_by_enumeration(p, e):
    """Over F_q the Cartier submodule of v is the F_q-span of its kappa
    iterates, so the maximal nilpotent submodule is {v : kappa^r(v) = 0},
    found here by applying kappa to every element.  Half of the operators
    are made singular; kappa^r then mixes the sigma^{-1} twists of A."""
    ctx = Fq(p, e)
    R = PolyRing(ctx, ())
    rank = 3 if ctx.q == 4 else 2
    rng = random.Random(SEED + 21 * p + e)
    proper = 0
    for k in range(6):
        a = [[ctx.random_element(rng) for _ in range(rank)]
             for _ in range(rank)]
        if k % 2:
            c = ctx.random_element(rng)
            for row in a:
                row[-1] = c * row[0]
        module = CartierModule(R, rank, {
            ((), j): tuple(R.scalar(a[i][j]) for i in range(rank))
            for j in range(rank)
        })
        expected = set()
        for v in itertools.product([R.scalar(c) for c in ctx.elements()],
                                   repeat=rank):
            image = v
            for _ in range(rank):
                image = module.apply_kappa(image)
            if module.is_zero_element(image):
                expected.add(module.normal_form(v))
        found = max_nilpotent_submodule(module)["generators"]
        assert cartier_span(module, found) == expected
        proper += 1 < len(expected) < ctx.q**rank
    assert proper


ORACLE_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]


def random_fq_module(rng, ctx, rank, invertible=False):
    """(module, A): the module over F_q with kappa(v) = A sigma^{-1}(v)
    for a random matrix A, drawn again until invertible if asked."""
    R = PolyRing(ctx, ())
    while True:
        A = [[ctx.random_element(rng) for _ in range(rank)]
             for _ in range(rank)]
        if not invertible or len(fq_rref(A, ctx)) == rank:
            break
    table = {
        ((), j): tuple(R.scalar(A[i][j]) for i in range(rank))
        for j in range(rank)
    }
    return CartierModule(R, rank, table), A


def test_hom_of_bijective_modules_is_the_fixed_space_of_the_internal_hom():
    """With kappa_M = A sigma^{-1} and kappa_N = B sigma^{-1}, A and B
    invertible, phi commutes iff Phi = sigma(B^{-1}) sigma(Phi) sigma(A).
    So Hom(M, N) is the fixed space over F_q of the p-linear map whose
    matrix on the column-major entries of Phi is sigma(A)^T (x)
    sigma(B^{-1}).  Its F_p-dimension comes from fixed_points_dimension,
    which shares no code with hom_cartier above the mod-p kernels."""
    rng = random.Random(SEED + 30)
    dims = []
    for p, e in ORACLE_FIELDS:
        ctx = Fq(p, e)
        for _ in range(18):
            M, A = random_fq_module(rng, ctx, rng.randint(1, 3), True)
            N, B = random_fq_module(rng, ctx, rng.randint(1, 3), True)
            rm, rn = len(A), len(B)
            # B^{-1} from the reduced echelon form of [B | I]
            aug = [tuple(B[i]) + tuple(ctx.scalar(int(k == i))
                                       for k in range(rn))
                   for i in range(rn)]
            b_inv = [row[rn:] for row in fq_rref(aug, ctx)]
            sa = [[ctx.frobenius(x) for x in row] for row in A]
            sb = [[ctx.frobenius(x) for x in row] for row in b_inv]
            kron = [
                [sa[l][j] * sb[i][k] for l in range(rm) for k in range(rn)]
                for j in range(rm) for i in range(rn)
            ]
            expected = fixed_points_dimension(
                SemilinearMap(ctx, P_LINEAR, kron), 1
            )
            res = revalidated(hom_cartier(M, N), M, N)
            assert res.dimension_fp == expected, (p, e)
            dims.append(expected)
    assert len(dims) >= 100 and min(dims) < max(dims)


def test_hom_splits_along_the_fitting_decomposition():
    """A finite module over F_q is the direct sum of its maximal
    nilpotent submodule and its stable image, and no nonzero morphism
    goes between a nilpotent and a bijective module in either direction,
    so dim Hom(M, N) = dim Hom(M_nil, N_nil) + dim Hom(M_bij, N_bij)."""
    rng = random.Random(SEED + 31)
    mixed = 0
    for p, e in ORACLE_FIELDS:
        ctx = Fq(p, e)
        for _ in range(17):
            parts = []
            for _ in range(2):
                mod, _ = random_fq_module(rng, ctx, rng.randint(1, 4))
                nil = max_nilpotent_submodule(mod)["module"]
                bij = stable_image(mod)[0]
                assert (FiniteModel(nil).dimension
                        + FiniteModel(bij).dimension
                        == FiniteModel(mod).dimension)
                parts.append((mod, nil, bij))
                mixed += nil.rank > 0 and bij.rank > 0
            dim = [
                revalidated(hom_cartier(src, tgt), src, tgt).dimension_fp
                for src, tgt in zip(*parts)
            ]
            assert dim[0] == dim[1] + dim[2], (p, e)
    assert mixed > 0


def _push(images, vec, R, target_rank):
    acc = list(zero_vector(R, target_rank))
    for j, c in enumerate(vec):
        if c.is_zero():
            continue
        for i in range(target_rank):
            acc[i] = acc[i] + c * images[j][i]
    return tuple(acc)


# ------------------------------------------------------------ finite model


def test_finite_model_coordinates_roundtrip():
    ctx = Fq(2, 1)
    R = PolyRing(ctx, ("x",))
    x = R.parse("x")
    # R/(x^3) with kappa(e) = x e (stable under the relation span)
    mod = CartierModule(
        R,
        1,
        {((0,), 0): (x,), ((1,), 0): (R.zero,)},
        relations=[(x * x * x,)],
    )
    fm = FiniteModel(mod)
    assert fm.dimension == 3
    for v in fm.from_codes(np.eye(fm.dimension, dtype=np.int64)):
        assert fm.from_fp(fm.fp_rows([v]))[0] == mod.normal_form(v)


def test_finite_model_semilinear_operator_agrees():
    j2 = jordan_block_module(Fq(2, 1), 2)
    T, fm = to_semilinear(j2)
    rng = random.Random(SEED)
    ctx = T.ctx
    for _ in range(20):  # the twist law T(a v) = a^(1/p) T(v)
        a = ctx.random_element(rng)
        v = tuple(ctx.random_element(rng) for _ in range(T.dim))
        lhs = T.apply(tuple(a * x for x in v))
        assert lhs == tuple(T.twist(a) * y for y in T.apply(v))
    for v in fm.from_codes(np.eye(fm.dimension, dtype=np.int64)):
        direct = j2.apply_kappa(v)
        digits = fm.fp_rows([v]).reshape(fm.dimension, ctx.e)
        image = T.apply(tuple(ctx.from_coords(row) for row in digits))
        via_model = fm.from_codes(np.array([[y.to_int() for y in image]]))[0]
        assert direct == via_model


def test_semilinear_view_agrees_with_the_polynomial_chain():
    """to_semilinear, which perfbench's oracle trusts, read on the
    finite-length modules of max_nil_modules() (pin_modules() among
    them): its image chain says nilpotent, with the order, exactly when
    the polynomial image chain does, and its F_q dimensions are
    rank(K^k) / e for K = kappa_fp()."""
    count = 0
    for module in max_nil_modules():
        if not _finite_length(module):
            continue
        T, model = to_semilinear(module)
        nil, order, dims = is_nilpotent_semilinear(T)
        assert (nil, order) == is_nilpotent(module)
        ctx, k = module.ring.ctx, model.kappa_fp()
        power = np.eye(len(k), dtype=np.int64)
        for dim in dims:
            assert dim * ctx.e == kernels.rank_mod_p(power, ctx.p)
            power = kernels.matmul_mod_p(power, k, ctx.p)
        count += 1
    assert count >= 20


# ----------------------------------------------------- hom basis pin

# sha256 over the Hom bases of PIN_PAIRS and the _max_nil_finite answers
# of PIN_MODULES (see pinned_answers), recorded when each representative
# was still built one kernel row at a time from its F_q coordinates
HOM_PIN = (
    "36ee2afb7d44c5ae2cc5dcdb307e32a46d3c4739bccede056a89e5566e62d984"
)


def pin_pairs():
    """Seeded (kind, source, target) Hom pairs: over F_q with e > 1,
    torsion pairs over F_p[x], and targets of positive rank over F_p[x],
    whose sources have relations of positive degree, so that products
    reach degrees past the truncated model."""
    rng = random.Random(SEED + 404)
    pairs = []
    for p, e, rank in ((2, 2, 3), (2, 3, 2), (3, 2, 2)):
        ctx = Fq(p, e)
        mods = [random_fq_module(rng, ctx, rank)[0] for _ in range(2)]
        mods.append(jordan_block_module(ctx, rank))
        pairs += [("fq", a, b) for a in mods for b in mods]
    for p in (2, 3):
        mods = [torsion_line_module(rng, p, rank, c=rng.randrange(p))
                for rank in (1, 2, 2)]
        mods.append(direct_sum(mods[0], mods[1])[0])
        pairs += [("torsion", a, b) for a in mods for b in mods]
    for p in (2, 3):
        R = ring(p)
        x = R.var(0)
        T = CartierModule(
            R, 1, {((a,), 0): (R.one if a == 0 else R.zero,)
                   for a in range(p)}, relations=[(x,)]
        )
        omega = omega_module(R)
        targets = [omega, direct_sum(omega, T)[0]]
        sources = [torsion_line_module(rng, p, 1), T, omega]
        pairs += [("free", a, b) for a in sources for b in targets]
    return pairs


def pin_modules():
    """Seeded finite-length modules for _max_nil_finite: over F_q with
    e > 1 (half of the operators singular) and torsion over F_p[x]."""
    rng = random.Random(SEED + 505)
    mods = []
    for p, e, rank in ((2, 2, 3), (2, 3, 2), (3, 2, 2)):
        ctx = Fq(p, e)
        for k in range(4):
            module, a = random_fq_module(rng, ctx, rank)
            if k % 2:  # kappa(g_0) = 0
                R = module.ring
                module = CartierModule(R, rank, {
                    ((), j): tuple(R.scalar(a[i][j]) if j else R.zero
                                   for i in range(rank))
                    for j in range(rank)
                })
            mods.append(module)
    for p in (2, 3):
        for rank in (1, 2, 3):
            mods.append(torsion_line_module(rng, p, rank, c=rng.randrange(p)))
        small = torsion_line_module(rng, p, 1)
        mods.append(direct_sum(small, jordan_line(p))[0])
    return mods


def jordan_line(p):
    """F_p[x]/(x^2) with kappa(g) = x g: a nilpotent torsion module."""
    R = ring(p)
    x = R.var(0)
    return CartierModule(
        R, 1, {((a,), 0): (x if a == 0 else R.zero,) for a in range(p)},
        relations=[(x * x,)],
    )


def pinned_answers():
    for _, source, target in pin_pairs():
        res = hom_cartier(source, target)
        yield [res.dimension_fp, res.partial, res.degree_cap]
        yield [[str(f) for f in img] for phi in res.basis
               for img in phi.images]
    for module in pin_modules():
        gens = _max_nil_finite(module)
        yield None if gens is None else [[str(f) for f in v] for v in gens]


def test_hom_and_max_nil_answers_match_the_pinned_digest():
    digest = hashlib.sha256()
    for item in pinned_answers():
        digest.update(repr(item).encode())
    assert digest.hexdigest() == HOM_PIN


def coords_vector(model, coords):
    """Independent of FiniteModel: the sum of coefficient times x^s on
    column c over the model basis."""
    ring_ = model.module.ring
    vec = zero_vector(ring_, model.module.rank)
    for (c, s), coeff in zip(model.basis, coords, strict=True):
        unit = [ring_.zero] * model.module.rank
        unit[c] = ring_.monomial((s,) * ring_.nvars, coeff)
        vec = vec_add(vec, tuple(unit))
    return vec


def test_hom_basis_images_are_the_kernel_rows(monkeypatch):
    """Every image of every basis morphism is the representative whose
    coordinates are its block of the kernel row; positive-rank targets
    do reach residual rows past the model dimension."""
    nullspace = kernels.nullspace_mod_p
    seen = []

    def recording(a, p):
        null = nullspace(a, p)
        seen.append((a.shape, null))
        return null

    monkeypatch.setattr(kernels, "nullspace_mod_p", recording)
    kinds, residual = set(), 0
    for kind, source, target in pin_pairs():
        res = hom_cartier(source, target)
        shape, null = seen[-1]
        ctx = target.ring.ctx
        p, e, r = ctx.p, ctx.e, source.rank
        model = FiniteModel(target, res.degree_cap)
        d = model.dimension
        conditions = (len(source.effective_relations())
                      + len(source.kappa_table))
        residual += shape[0] > conditions * d * e
        ker = null[::-1, ::-1]
        codes = ker.reshape(len(ker), d, r, e) @ p ** np.arange(e)
        assert len(res.basis) == len(ker)
        for phi, row in zip(res.basis, codes.tolist()):
            for j, img in enumerate(phi.images):
                coords = [ctx.from_int(code[j]) for code in row]
                assert img == model.from_codes(np.array([row])[:, :, j])[0]
                assert img == coords_vector(model, coords)
                assert all(f is target.ring.zero for f in img if f.is_zero())
        kinds.add(kind)
    assert kinds == {"fq", "torsion", "free"}
    assert residual


def oracle_hom_blocks(model, coeffs):
    """hom_cartier's blocks one basis vector u of the target model at a
    time, by polynomial arithmetic: the normal forms of g u for each
    coefficient g, then of kappa(x^a u) for each a, followed by the p-th
    root of the input coordinates.  Each block is a dict {row key: F_p
    block row}, without zero rows."""
    module = model.module
    ctx = module.ring.ctx
    units = model.from_codes(np.eye(model.dimension, dtype=np.int64))
    images = module.kappa_images(units)
    columns = [[model.support(vec_scale(u, g)) for u in units]
               for g in coeffs]
    columns += [[model.support(images[a, i]) for i in range(len(units))]
                for a in module.ring.pth_basis()]
    keys = sorted({key for cols in columns for col in cols for key in col})
    blocks = []
    for n, cols in enumerate(columns):
        codes = np.zeros((len(keys), len(units)), dtype=np.int64)
        for i, col in enumerate(cols):
            for key, code in col.items():
                codes[keys.index(key), i] = code
        fp = np.einsum("ijk,kab->iajb", ctx._digits[codes],
                       ctx._mul_blocks) % ctx.p
        if n >= len(coeffs):
            fp = fp @ ctx._frob_inv_matrix % ctx.p
        blocks.append({key: fp[r] for r, key in enumerate(keys)
                       if fp[r].any()})
    return blocks


def far_free_module(p, degree):
    """Rank 2 over F_p[x] with the relation x g_0 + x^degree g_1 and the
    zero operator: g_1 is free, and multiplication by x carries g_0 to
    degree ``degree`` on it, far past any small truncation."""
    R = ring(p)
    x = R.var(0)
    table = {((a,), j): (R.zero, R.zero) for a in range(p) for j in range(2)}
    return CartierModule(R, 2, table, relations=[(x, x**degree)])


def uneven_module(p, long, short):
    """Rank short + 1 over F_p[x] with the zero operator, killed by
    x^long on g_0 and by x on the other generators: one long column and
    many of length 1."""
    R = ring(p)
    x = R.var(0)
    rank = short + 1
    relations = []
    for c in range(rank):
        row = [R.zero] * rank
        row[c] = x**long if c == 0 else x
        relations.append(tuple(row))
    table = {((a,), j): (R.zero,) * rank
             for a in range(p) for j in range(rank)}
    return CartierModule(R, rank, table, relations=relations)


def check_readers(model, coeffs):
    """Assert that kappa_fp() and mult_fp(g) for each coefficient g, for
    x and for the generator t of F_q (the maps of ie._row_maps,
    untransposed) equal the oracle's blocks on the model's rows, the
    terms past a truncation dropped.  Returns whether the oracle reaches
    past the truncation."""
    ring, ctx = model.module.ring, model.module.ring.ctx
    d, n = model.dimension, model.dimension * ctx.e
    x = [ring.var(0)] if ring.nvars else []
    t = [ring.scalar(ctx.gen)] if ctx.e > 1 else []
    oracle = oracle_hom_blocks(model, [*coeffs, *x, *t])
    zero = np.zeros((ctx.e, d, ctx.e), dtype=np.int64)

    def on_model(block):
        return np.array([block.get(key, zero) for key in model.basis],
                        dtype=np.int64).reshape(n, n)

    for g, block in zip(coeffs, oracle):
        assert (model.mult_fp(g) == on_model(block)).all()
    kap = oracle[len(coeffs) + len(x) + len(t)]
    assert (model.kappa_fp() == on_model(kap)).all()
    if x:
        assert (model.mult_fp(x[0]) == on_model(oracle[len(coeffs)])).all()
    if t:
        t_block = on_model(oracle[len(coeffs) + len(x)])
        assert (model.mult_fp(t[0]) == t_block).all()
    return any(key not in model.basis for block in oracle for key in block)


def minimality_shapes():
    """Free modules without relations over F_q[x], the lattice modules
    that minimality_oracle truncates: top forms over F_2, F_3 and F_4,
    and random tables of rank 1 and 2."""
    rng = random.Random(SEED + 909)
    mods = [omega_module(ring(p, e)) for p, e in ((2, 1), (3, 1), (2, 2))]
    for p, e, rank in ((2, 1, 2), (3, 1, 1), (2, 2, 1)):
        R = ring(p, e)
        mods.append(CartierModule(R, rank, {
            ((a,), j): tuple(R.random_poly(rng, max_degree=3)
                             for _ in range(rank))
            for a in range(p) for j in range(rank)
        }))
    return mods


def test_hom_blocks_match_the_polynomial_oracle():
    """The multiplication and kappa-after-x^a blocks that hom_cartier
    builds from the target model's shift equal the per-basis-vector
    polynomial blocks, and the system's rows are the model's basis plus
    exactly the residual degrees those blocks reach.  Pairs: pin_pairs();
    a torsion target of dimension 60 with a nonzero operator, alone and
    plus two columns of length 3; and a free target that x carries to
    degree 5000 at truncation 3.  The model's other F_p matrices, read
    from the same builder, match the oracle on every target and on the
    free modules of minimality_shapes() truncated at degrees 0-4."""
    rng = random.Random(SEED + 808)
    big = torsion_line_module(rng, 3, 1, c=1, k=20)
    small = torsion_line_module(rng, 3, 1, c=2)
    uneven = direct_sum(big, direct_sum(small, small)[0])[0]
    far = far_free_module(3, 5000)
    cases = [(a, b, hom_cartier(a, b).degree_cap) for _, a, b in pin_pairs()]
    cases += [(big, big, None), (small, uneven, None), (uneven, uneven, None),
              (small, far, 3), (far, far, 3)]
    residual = reach = truncated = 0
    for source, target, cap in cases:
        model = FiniteModel(target, cap)
        conditions = [*source.effective_relations(),
                      *source.kappa_table.values()]
        coeffs = list(dict.fromkeys(
            g for vec in conditions for g in vec if not g.is_zero()))
        keys, mult, kap = _hom_blocks(model, coeffs, target.ring.pth_basis(),
                                      lambda rows: None)
        expected = oracle_hom_blocks(model, coeffs)
        assert set(keys) == set(model.basis).union(*expected)
        for blocks, oracle in zip([*mult, *kap], expected, strict=True):
            got = {key: row for key, row in zip(keys, blocks) if row.any()}
            assert got.keys() == oracle.keys()
            assert all((got[key] == oracle[key]).all() for key in got)
        residual += len(keys) > model.dimension
        reach = max(reach, *(s for _, s in keys))
        truncated += check_readers(model, coeffs)
    for module in minimality_shapes():
        R = module.ring
        coeffs = [R.one, R.parse("x^2+1"),
                  R.random_poly(rng, max_degree=6) + R.var(0)]
        if R.ctx.e > 1:
            coeffs.append(R.scalar(R.ctx.gen))
        for cap in range(5):
            truncated += check_readers(FiniteModel(module, cap), coeffs)
    big_model = FiniteModel(big)
    assert big_model.dimension == 60 and big_model.kappa_fp().any()
    assert FiniteModel(uneven).lengths == [60, 3, 3]
    assert residual and reach > 5000 and truncated >= 30


def test_far_free_degrees_stay_sparse():
    """A relation that puts x^(10^6) on a free column is one residual
    row per degree that a block reaches, not a model extended up to
    degree 10^6: Hom into that target at truncation 3 is answered well
    under HOM_CELL_CAP."""
    far = far_free_module(2, 10**6)
    res = hom_cartier(torsion_line_module(random.Random(SEED), 2, 1), far,
                      degree_cap=3)
    assert res.partial and res.degree_cap == 3


def test_hom_block_memory_follows_the_column_lengths():
    """On a target with one column of length 400 and 60 of length 1
    (dimension 460), the Hom blocks carry each column's generator only
    as far as its own length: the traced peak stays far below the 90 MB
    that 400 powers of x on all 61 columns would take."""
    R = ring(2)
    target = uneven_module(2, 400, 60)
    source = CartierModule(
        R, 1, {((a,), 0): (R.one if a == 0 else R.zero,) for a in range(2)})
    tracemalloc.start()
    try:
        res = hom_cartier(source, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.dimension_fp == 0 and not res.partial
    assert peak < 30 * 2**20


# ----------------------------------------------- maximal nilpotent pin

# sha256 over max_nil_answers(), recorded before the finite-length and
# torsion-restricted answers shared one exit
MAX_NIL_PIN = (
    "0956b8a3ca011a3c39e7e4cd88502c29bf4e05ced866761292976e739fdb9924"
)


def max_nil_modules():
    """Seeded modules for max_nilpotent_submodule: the finite-length
    pin_modules(), then modules of positive rank over F_2[x] and F_3[x]:
    top forms alone (no torsion), a free module with a random table, a
    free nilpotent one, top forms plus torsion, and these re-presented on
    unimodular changes of generators.  One torsion part is
    F_p[x]/(x^2) + F_p[x]/(x): in some of its presentations the images
    of torsion normal forms are not reduced in the module."""
    rng = random.Random(SEED + 707)
    mods = pin_modules()
    for p in (2, 3):
        R = ring(p)
        x = R.var(0)
        omega = omega_module(R)
        free = CartierModule(R, 2, {
            ((a,), j): tuple(R.random_poly(rng, max_degree=2)
                             for _ in range(2))
            for a in range(p) for j in range(2)
        })
        nil = CartierModule(R, 1, {((a,), 0): (R.zero,) for a in range(p)})
        point = CartierModule(
            R, 1, {((a,), 0): (R.one if a == 0 else R.zero,)
                   for a in range(p)}, relations=[(x,)]
        )
        mixed = [
            direct_sum(omega, jordan_line(p))[0],
            direct_sum(omega, torsion_line_module(rng, p, 2))[0],
            direct_sum(omega, direct_sum(jordan_line(p), point)[0])[0],
        ]
        mods += [omega, free, nil] + mixed
        for total in mixed:
            for _ in range(4):
                rows = unimodular_rows(rng, R, total.rank)
                mods.append(submodule_module(total, rows)[0])
    return mods


def max_nil_answers():
    for module in max_nil_modules():
        res = max_nilpotent_submodule(module)
        yield [[[str(f) for f in v] for v in res["generators"]],
               res["order"], res["partial"]]


def test_max_nilpotent_submodule_answers_match_the_pinned_digest():
    digest = hashlib.sha256()
    partial = set()
    for item in max_nil_answers():
        digest.update(repr(item).encode())
        partial.add(item[2])
    assert partial == {False, True}
    assert digest.hexdigest() == MAX_NIL_PIN


def test_kappa_images_follow_table_order():
    """kappa_images(rows) has one key (a, j) per shift a of the p-th
    power basis (slowest) and row j, so with one row per generator its
    keys are the table's in sorted order; each value is the raw image
    _apply_raw(x^a rows[j])."""
    rng = random.Random(SEED + 808)
    R2 = PolyRing(Fq(2, 1), ("x", "y"))
    modules = [
        direct_sum(omega_module(ring(3)), torsion_line_module(rng, 3, 1))[0],
        random_fq_module(rng, Fq(2, 2), 3)[0],
        CartierModule(R2, 2, {
            (a, j): tuple(R2.random_poly(rng, max_degree=2) for _ in range(2))
            for a in R2.pth_basis() for j in range(2)
        }),
    ]
    for module in modules:
        R = module.ring
        for count in (module.rank, 2):
            rows = [module.random_element(rng) for _ in range(count)]
            images = module.kappa_images(rows)
            assert list(images) == [
                (a, j) for a in R.pth_basis() for j in range(count)
            ]
            if count == module.rank:
                assert list(images) == sorted(module.kappa_table)
            for (a, j), w in images.items():
                shifted = vec_scale(rows[j], R.monomial(a))
                assert w == module._apply_raw(shifted)
