"""Tests for pullback/pushforward functors, localization, torsion
extraction, and Frobenius fixed-point dimensions."""

import itertools
import random

import pytest

from cartier_lab import functors
from cartier_lab.cartier import (
    CartierModule,
    FiniteModel,
    direct_sum,
    jordan_block_module,
    max_nilpotent_submodule,
    omega_module,
    point_module,
)
from cartier_lab.errors import UnsupportedRingError, ValidationError
from cartier_lab.fields import Fq, fq_rref
from cartier_lab.functors import (
    LocalizedCartier,
    RegularSequence,
    closed_pushforward,
    evaluate_at_point,
    gamma_evaluate_at_point,
    koszul_pullback,
    open_pullback,
    open_pushforward,
    restrict_to_subring,
    sequence_change_factor,
    sol_dimension,
    torsion_gamma_Z,
    torsion_invariant_oracle,
)
from cartier_lab.gamma import (
    GammaSheaf,
    cartier_to_gamma,
    gamma_pullback,
    gamma_to_cartier,
    unit_root_stabilize,
)
from cartier_lab.poly import IdealSpec, PolyRing
from cartier_lab.submodules import (
    hnf_rows,
    in_span,
    span_equal,
    vec_scale,
    zero_vector,
)

SEED = 314159


def univariate(p, e=1):
    return PolyRing(Fq(p, e), ("x",))


def random_free_module(R, rng, max_rank=2, max_degree=2):
    rank = rng.randrange(1, max_rank + 1)
    table = {}
    for a in R.pth_basis():
        for j in range(rank):
            table[(a, j)] = tuple(
                R.random_poly(rng, max_degree=max_degree) for _ in range(rank)
            )
    return CartierModule(R, rank, table)


# --------------------------------------------------------- koszul pullback


@pytest.mark.parametrize("p", [2, 3])
def test_koszul_plane_to_line_recovers_top_forms(p):
    """Cutting the plane by (y) and forgetting y gives exactly the
    line's top-form operator, table for table."""
    ctx = Fq(p, 1)
    R2 = PolyRing(ctx, ("x", "y"))
    R1 = PolyRing(ctx, ("x",))
    pulled = koszul_pullback(omega_module(R2), [R2.var(1)])
    flat = restrict_to_subring(pulled)
    expected = omega_module(R1)
    assert flat.ring.vars == ("x",)
    assert flat.rank == 1
    for key, val in expected.kappa_table.items():
        assert flat.kappa_table[key] == val


@pytest.mark.parametrize("p", [2, 3, 5])
def test_koszul_line_to_origin_recovers_point_structure(p):
    """Cutting the line by (x) gives the point's p-th-root operator."""
    ctx = Fq(p, 1)
    R1 = PolyRing(ctx, ("x",))
    pulled = koszul_pullback(omega_module(R1), [R1.var(0)])
    pt = evaluate_at_point(pulled)
    assert pt.kappa_table == point_module(ctx).kappa_table


def test_koszul_along_a_unit_sequence_kills_the_module():
    """A weakly regular sequence may generate the unit ideal; the result
    is presented as the zero module via unit relations (no quotient ring
    is attached, since R/R has no usable coordinates)."""
    R = univariate(2)
    pulled = koszul_pullback(omega_module(R), [R.one])
    assert pulled.ideal is None
    assert any(
        all(str(c) == "1" if i == j else c.is_zero() for j, c in enumerate(rho))
        for i in range(pulled.rank)
        for rho in pulled.effective_relations()
    )
    assert all(c.is_zero() for c in pulled.normal_form((R.one,)))


def test_koszul_rejects_non_regular_sequences():
    ctx = Fq(2, 1)
    R2 = PolyRing(ctx, ("x", "y"))
    x = R2.var(0)
    with pytest.raises(ValidationError):
        koszul_pullback(omega_module(R2), [x, x])


def test_regular_sequence_type():
    ctx = Fq(3, 1)
    R2 = PolyRing(ctx, ("x", "y"))
    x, y = R2.var(0), R2.var(1)
    seq = RegularSequence(R2, [x, y])
    assert len(seq) == 2
    assert list(seq) == [x, y]
    pulled = koszul_pullback(omega_module(R2), seq)
    assert pulled.ideal is not None
    with pytest.raises(ValidationError):
        RegularSequence(R2, [x, x])


# ------------------------------------------------------- sequence change


def test_sequence_change_scalar_determinant():
    """(x) vs (2x) over F_3: the comparison factor is the unit 2."""
    ctx = Fq(3, 1)
    R = PolyRing(ctx, ("x",))
    x = R.var(0)
    two = R.scalar(ctx.from_int(2))
    res = sequence_change_factor([x], [two * x], omega_module(R))
    assert res["determinant"] == two
    assert res["relation_verified"]


def test_sequence_change_unimodular_transforms():
    ctx = Fq(3, 1)
    R2 = PolyRing(ctx, ("x", "y"))
    x, y = R2.var(0), R2.var(1)
    w = omega_module(R2)
    shear = sequence_change_factor([x, y], [x + y, y], w)
    assert shear["determinant"] == R2.one
    assert shear["relation_verified"]
    swap = sequence_change_factor([x, y], [y, x], w)
    assert swap["determinant"] == R2.scalar(ctx.from_int(2))  # -1 mod 3
    assert swap["relation_verified"]


def test_sequence_change_requires_equal_ideals():
    ctx = Fq(2, 1)
    R2 = PolyRing(ctx, ("x", "y"))
    x, y = R2.var(0), R2.var(1)
    with pytest.raises(ValidationError):
        sequence_change_factor([x], [y], omega_module(R2))


# ------------------------------------------------------------ localization


def test_localized_operator_fraction_rules():
    """Two pinned values over F_2: the operator fixes dx/x and sends
    dx/x^3 to dx/x^2."""
    R = univariate(2)
    loc = open_pullback(omega_module(R), R.var(0))
    one = R.one
    assert loc.fractions_equal(loc.apply_kappa(((one,), 1)), ((one,), 1))
    assert loc.fractions_equal(loc.apply_kappa(((one,), 3)), ((one,), 2))


def test_localized_operator_extends_the_integral_one():
    R = univariate(2)
    w = omega_module(R)
    loc = open_pullback(w, R.var(0))
    rng = random.Random(SEED)
    for _ in range(15):
        f = R.random_poly(rng, max_degree=4)
        got = loc.apply_kappa(loc.embed((f,)))
        want = loc.embed(w.apply_kappa((f,)))
        assert loc.fractions_equal(got, want)


@pytest.mark.parametrize("p", [2, 3])
def test_fraction_semilinearity(p):
    R = univariate(p)
    loc = open_pullback(omega_module(R), R.var(0))
    rng = random.Random(SEED + p)
    for _ in range(20):
        f = R.random_poly(rng, max_degree=3)
        frac = loc.normalize(((R.random_poly(rng, max_degree=4),), rng.randrange(4)))
        lhs = loc.apply_kappa(loc.scale(frac, f**p))
        rhs = loc.scale(loc.apply_kappa(frac), f)
        assert loc.fractions_equal(lhs, rhs)


def test_fraction_equality_cross_multiplies():
    R = univariate(2)
    x = R.var(0)
    loc = open_pullback(omega_module(R), x)
    # x/x^2 = 1/x, and x^2/x^2 = 1
    assert loc.fractions_equal(((x,), 2), ((R.one,), 1))
    assert loc.fractions_equal(((x * x,), 2), ((R.one,), 0))
    assert not loc.fractions_equal(((R.one,), 1), ((R.one,), 0))
    assert loc.is_zero_fraction(((R.zero,), 3))


def test_localizing_kills_coprime_torsion_only():
    """(R/(x-1)) localized at x is unchanged; localized at (x-1) it
    dies.  The g-power torsion quotient must reflect exactly this."""
    ctx = Fq(2, 1)
    R = PolyRing(ctx, ("x",))
    x = R.var(0)
    pushed = closed_pushforward(point_module(ctx), ambient_ring=R, point=ctx.scalar(1))
    # localize away from the support: module survives
    loc_x = LocalizedCartier(pushed, x)
    assert len(loc_x.torsion["generators"]) == 0
    # localize at the support: module dies
    loc_g = LocalizedCartier(pushed, x + R.one)
    full = hnf_rows([(R.one,)], 1, R)
    assert span_equal(loc_g.torsion["span"], full)


def test_localization_solves_no_torsion_presentation(monkeypatch):
    """open_pullback reads the torsion's generators and span only, so it
    runs no submodule_module solve; torsion_gamma_Z still presents the
    torsion as a module with its inclusion."""
    ctx = Fq(2, 1)
    R = PolyRing(ctx, ("x",))
    x = R.var(0)
    pushed = closed_pushforward(point_module(ctx), ambient_ring=R,
                                point=ctx.zero)
    M, _, _ = direct_sum(omega_module(R), pushed)
    tors = torsion_gamma_Z(M, x)
    assert tors["module"].rank == len(tors["generators"]) == 1
    assert tuple(tors["inclusion"].images) == tuple(tors["generators"])

    def refuse(*args, **kwargs):
        raise AssertionError("submodule_module called")

    with monkeypatch.context() as patch:
        patch.setattr(functors, "submodule_module", refuse)
        loc = open_pullback(M, x)
    assert loc.torsion["generators"] == tors["generators"]
    assert span_equal(loc.torsion["span"], tors["span"])
    assert loc.torsion["exponent"] == tors["exponent"] == 1


def test_pushforward_view_integrality():
    R = univariate(2)
    x = R.var(0)
    loc = open_pullback(omega_module(R), x)
    view = open_pushforward(loc)
    # a fraction is integral when its normalized denominator exponent is 0
    assert loc.normalize(((R.one,), 0))[1] == 0
    assert loc.normalize(((x,), 1))[1] == 0  # x/x = 1
    assert loc.normalize(((R.one,), 1))[1] != 0
    # view operator agrees with the localized operator
    frac = ((x * x * x,), 1)
    assert loc.fractions_equal(view.apply_kappa(frac), loc.apply_kappa(frac))


# ----------------------------------------------------------------- torsion


@pytest.mark.parametrize("p", [2, 3])
def test_torsion_of_split_module_is_the_point_summand(p):
    ctx = Fq(p, 1)
    R = PolyRing(ctx, ("x",))
    x = R.var(0)
    w = omega_module(R)
    ptmod = closed_pushforward(point_module(ctx), ambient_ring=R, point=ctx.scalar(0))
    total, _, i2 = direct_sum(w, ptmod)
    tors = torsion_gamma_Z(total, x)
    expected = hnf_rows(
        [i2.images[0]] + list(total.effective_relations()), total.rank, R
    )
    assert span_equal(tors["span"], expected)
    oracle = torsion_invariant_oracle(total, x)
    assert span_equal(tors["span"], hnf_rows(list(oracle["span"]), total.rank, R))
    assert oracle["dimension"] == FiniteModel(tors["module"]).dimension



def test_torsion_tables_do_not_depend_on_representatives():
    """The gamma-z document d219 of the cli-batch benchmark (seed 1): the
    module F_3[x]/(x^3+2) with operator values x^3+2, x^3+2x^2+2x+1 and
    x^2+x+1.  The g-torsion module's table is solved from normal-formed
    operator images, so it equals the table of the same module written
    with its entries reduced by the relation."""
    R = univariate(3)
    x = R.var(0)
    rel = R.parse("x^3+2")

    def module(values):
        table = {((a,), 0): (R.parse(v),) for a, v in enumerate(values)}
        return CartierModule(R, 1, table, relations=[(rel,)])

    raw = module(["x^3+2", "x^3+2*x^2+2*x+1", "x^2+x+1"])
    reduced = module(["0", "2*x^2+2*x+2", "x^2+x+1"])
    assert raw.kappa_table != reduced.kappa_table
    g = x + R.scalar(2)
    for m in (raw, reduced):
        tors = torsion_gamma_Z(m, g)
        assert tors["module"].kappa_table == reduced.kappa_table

def _block_library(ctx, R, rng):
    """Valid modules with a variety of torsion behavior."""
    x = R.var(0)
    p = ctx.p
    blocks = [
        omega_module(R),
        closed_pushforward(point_module(ctx), ambient_ring=R, point=ctx.scalar(0)),
        closed_pushforward(
            point_module(ctx), ambient_ring=R, point=ctx.scalar(1)
        ),
        random_free_module(R, rng, max_rank=1),
        # R/(x^2) with kappa(e) = x e: stable under the relation span
        CartierModule(
            R,
            1,
            {((a,), 0): ((x if a == 0 else R.zero),) for a in range(p)},
            relations=[(x * x,)],
        ),
    ]
    return blocks


@pytest.mark.parametrize("p", [2, 3])
def test_torsion_matches_power_membership_brute_force(p):
    """ker(M -> M_g) is exactly the set of vectors some g-power pushes
    into the relation span: checked both ways on random block sums."""
    ctx = Fq(p, 1)
    R = PolyRing(ctx, ("x",))
    x = R.var(0)
    rng = random.Random(SEED + 17 * p)
    blocks = _block_library(ctx, R, rng)
    gs = [x, x + R.scalar(ctx.scalar(1)), x * (x + R.scalar(ctx.scalar(1)))]
    for _ in range(10):
        left = rng.choice(blocks)
        right = rng.choice(blocks)
        total, _, _ = direct_sum(left, right)
        g = rng.choice(gs)
        tors = torsion_gamma_Z(total, g)
        rel_h = total.relation_hnf()
        exponent = tors["exponent"]
        # (a) every claimed generator is killed by some g-power
        for gen in tors["generators"]:
            killed = False
            power = R.one
            for _ in range(exponent + 1):
                if in_span(vec_scale(gen, power), rel_h, R):
                    killed = True
                    break
                power = power * g
            assert killed
        # (b) random vectors: span membership == brute g-power membership
        for _ in range(6):
            v = tuple(R.random_poly(rng, max_degree=2) for _ in range(total.rank))
            brute = False
            power = R.one
            for _ in range(exponent + 3):
                if in_span(vec_scale(v, power), rel_h, R):
                    brute = True
                    break
                power = power * g
            assert in_span(v, tors["span"], R) == brute
        # (c) and the saturation oracle agrees on the span and dimension
        oracle = torsion_invariant_oracle(total, g)
        assert span_equal(
            tors["span"], hnf_rows(list(oracle["span"]), total.rank, R)
        )
        assert oracle["dimension"] == FiniteModel(tors["module"]).dimension


# ------------------------------------------------------- closed pushforward


@pytest.mark.parametrize("p", [2, 3])
def test_point_pushforward_structure(p):
    """Pushing the point structure to the line supports it at the point:
    relations (x - c) e, full module torsion at g = x - c."""
    ctx = Fq(p, 1)
    R = PolyRing(ctx, ("x",))
    x = R.var(0)
    rng = random.Random(SEED + p)
    for cint in range(p):
        c = ctx.from_int(cint)
        pushed = closed_pushforward(point_module(ctx), ambient_ring=R, point=c)
        assert pushed.semilinearity_check(rng, trials=8)
        assert pushed.relations == ((x + R.scalar(-c),),)
        tors = torsion_gamma_Z(pushed, x + R.scalar(-c))
        assert span_equal(tors["span"], hnf_rows([(R.one,)], 1, R))


def test_pushforward_table_normalization():
    """The pushed-forward table is pinned: the a = 0 slice lifts the
    point operator verbatim, and the a-th slice carries the inverse
    Frobenius of the point value as a scaling factor."""
    for p in (2, 3):
        ctx = Fq(p, 1)
        R = PolyRing(ctx, ("x",))
        pt = point_module(ctx)
        for cint in range(p):
            c = ctx.from_int(cint)
            pushed = closed_pushforward(pt, ambient_ring=R, point=c)
            base = pushed.kappa_table[((0,), 0)]
            (pt_val,) = pt.kappa_table[((), 0)]
            assert [str(f) for f in base] == [str(pt_val)]
            for a in range(1, p):
                slice_a = pushed.kappa_table[((a,), 0)]
                factor = R.scalar(ctx.frobenius_inv(c) ** a)
                assert slice_a == vec_scale(base, factor)


# ------------------------------------------------ two-path point pullback


@pytest.mark.parametrize("p", [2, 3])
def test_point_pullback_agrees_along_both_paths(p):
    """Specializing then converting equals converting then restricting
    and evaluating, table-exactly, on random free modules."""
    ctx = Fq(p, 1)
    R = PolyRing(ctx, ("x",))
    x = R.var(0)
    rng = random.Random(SEED + 1000 * p)
    for _ in range(12):
        M = random_free_module(R, rng)
        c = ctx.from_int(rng.randrange(p))
        seq = [x - R.scalar(c)]
        path_a = cartier_to_gamma(evaluate_at_point(koszul_pullback(M, seq)))
        path_b = gamma_evaluate_at_point(
            gamma_pullback(cartier_to_gamma(M), IdealSpec(R, seq))
        )
        assert path_a.gamma_matrix == path_b.gamma_matrix


# -------------------------------------------------------------------- sol


def test_sol_point_structure_counts_the_prime_field():
    pt = point_module(Fq(2, 1))
    assert sol_dimension(pt, 4) == [1, 1, 1, 1]


def test_sol_of_nilpotent_module_vanishes():
    jb = jordan_block_module(Fq(2, 1), 2)
    assert sol_dimension(jb, 3) == [0, 0, 0]


def test_sol_is_additive_under_direct_sum():
    ctx = Fq(2, 1)
    total, _, _ = direct_sum(point_module(ctx), jordan_block_module(ctx, 2))
    assert sol_dimension(total, 3) == [1, 1, 1]


def test_sol_rank_two_over_f4_against_brute_force():
    """gamma = [[0,1],[t,0]]: solutions need v1 = v2^2 and v2 = t v1^2,
    i.e. v1^4 = t... none below F_64, a plane there.  The brute force
    recomputes the count in each extension."""
    ctx4 = Fq(2, 2)
    R0 = PolyRing(ctx4, ())
    t = ctx4.from_coords((0, 1))
    N = GammaSheaf(R0, 2, ((R0.zero, R0.one), (R0.scalar(t), R0.zero)))
    M = gamma_to_cartier(N)
    dims = sol_dimension(M, 3)
    assert dims == [0, 0, 2]
    for m, dim in zip((1, 2, 3), dims):
        # F_{4^m} as Fq(2, 2m); t goes to a root of the modulus of F_4
        big = Fq(2, 2 * m)
        t_up = next(
            x for x in big.elements()
            if sum((big.scalar(c) * x**k for k, c in enumerate(ctx4.modulus)),
                   big.zero).is_zero()
        )
        count = 0
        for v1 in big.elements():
            for v2 in big.elements():
                if v2.frob() == t_up * v1 and v1.frob() == v2:
                    count += 1
        assert count == 2**dim


# the fields of the Hom oracles in test_cartier
ORACLE_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]


def random_point_quotient(rng, ctx, rank):
    """A module over F_q with kappa(v) = A sigma^{-1}(v), A block diagonal
    with blocks of size 1 or 2 that are random, invertible or nilpotent
    (strictly upper triangular).  Mostly it is taken modulo the span of
    kappa^k(v) for k0 <= k < k0 + rank, with k0 random and v random on one
    block.  That span is kappa-stable: once an iterate lies in the span of
    the earlier ones, so do all later ones."""
    R = PolyRing(ctx, ())
    a = [[ctx.zero] * rank for _ in range(rank)]
    blocks = []
    while not blocks or blocks[-1][1] < rank:
        lo = blocks[-1][1] if blocks else 0
        hi = min(rank, lo + rng.randint(1, 2))
        kind = rng.choice(("random", "invertible", "nilpotent"))
        while True:
            for i in range(lo, hi):
                for j in range(lo, hi):
                    if kind != "nilpotent" or i < j:
                        a[i][j] = ctx.random_element(rng)
            square = [row[lo:hi] for row in a[lo:hi]]
            if kind != "invertible" or len(fq_rref(square, ctx)) == hi - lo:
                break
        blocks.append((lo, hi))
    table = {
        ((), j): tuple(R.scalar(a[i][j]) for i in range(rank))
        for j in range(rank)
    }
    module = CartierModule(R, rank, table)
    lo, hi = rng.choice(blocks)
    v = tuple(R.scalar(ctx.random_element(rng)) if lo <= i < hi else R.zero
              for i in range(rank))
    if rng.random() < 0.5:
        v = module.apply_kappa(v)
    relations = []
    if rng.random() < 0.75:
        for _ in range(rank):
            relations.append(v)
            v = module.apply_kappa(v)
    return CartierModule(R, rank, table, relations=relations)


def count_fixed_classes(module, m):
    """|{v in F_{q^m}^r : kappa(v) - v in the relation span}| divided by
    the size of that span, with kappa(v)_i = sum_j a_ij v_j^(1/p)."""
    ctx, r = module.ring.ctx, module.rank
    big = Fq(ctx.p, ctx.e * m)
    # F_q -> F_{q^m} sends t to the first root of the modulus of F_q
    root = next(
        x for x in big.elements()
        if sum((big.scalar(c) * x**k for k, c in enumerate(ctx.modulus)),
               big.zero).is_zero()
    )

    def embed(a):
        return sum((big.scalar(c) * root**k for k, c in enumerate(a.coords)),
                   big.zero)

    a = [[embed(module.kappa_table[((), j)][i].constant_value())
          for j in range(r)] for i in range(r)]
    rel_rows = fq_rref(
        [tuple(f.constant_value() for f in rho) for rho in module.relations],
        ctx,
    )
    rel_rows = [[embed(x) for x in row] for row in rel_rows]
    span = set()
    for coeffs in itertools.product(list(big.elements()), repeat=len(rel_rows)):
        vec = [big.zero] * r
        for c, row in zip(coeffs, rel_rows):
            vec = [x + c * y for x, y in zip(vec, row)]
        span.add(tuple(x.code for x in vec))
    count = 0
    for v in itertools.product(list(big.elements()), repeat=r):
        roots = [x.frob_inv() for x in v]
        image = [sum((c * y for c, y in zip(row, roots)), big.zero)
                 for row in a]
        count += tuple((y - x).code for x, y in zip(v, image)) in span
    assert count % len(span) == 0
    return count // len(span)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3)])
def test_sol_counts_kappa_fixed_vectors_by_brute_force(p, e):
    """sol's dimension is that of the kappa-fixed classes of M (x) F_{q^m},
    counted over every vector of F_{q^m}^r with q^(m r) <= 2^12.  Over
    F_8 the count also tells the p-th root twist from the Frobenius,
    which give the same dimensions while sigma^2 fixes F_q."""
    ctx = Fq(p, e)
    rng = random.Random(SEED + 40 * p + e)
    related = 0
    for _ in range(16):
        rank = rng.randint(1, 3)
        module = random_point_quotient(rng, ctx, rank)
        related += bool(module.relation_hnf())
        ms = [m for m in range(1, 5) if ctx.q ** (m * rank) <= 2**12]
        dims = sol_dimension(module, ms[-1])
        for m in ms:
            assert count_fixed_classes(module, m) == p ** dims[m - 1], (m, dims)
    assert related


def test_sol_equals_sol_of_the_unit_root():
    """Every solution lies in the bijective part, which the unit root of
    the linear side presents, so sol agrees on both; and the maximal
    nilpotent submodule is the other Fitting summand, so its dimension is
    the rest.  Checked on 108 seeded modules with nilpotent blocks and
    quotient relations."""
    rng = random.Random(SEED + 50)
    seen = set()
    for p, e in ORACLE_FIELDS:
        ctx = Fq(p, e)
        for _ in range(18):
            module = random_point_quotient(rng, ctx, rng.randint(1, 4))
            root = unit_root_stabilize(cartier_to_gamma(module)).root
            dims = sol_dimension(module, 2)
            assert dims == sol_dimension(gamma_to_cartier(root), 2), (p, e)
            nil = max_nilpotent_submodule(module)["module"]
            assert (FiniteModel(nil).dimension + FiniteModel(root).dimension
                    == FiniteModel(module).dimension), (p, e)
            nilpotent_part = FiniteModel(nil).dimension > 0
            seen.add((bool(module.relation_hnf()), nilpotent_part, dims[1]))
    assert len({key[:2] for key in seen}) == 4
    assert len({key[2] for key in seen}) > 2


def test_sol_refuses_positive_dimensional_rings():
    R = univariate(2)
    with pytest.raises(ValidationError):
        sol_dimension(omega_module(R), 2)


# ------------------------------------------------------ restriction errors


def test_restrict_to_subring_requires_linear_cut():
    """Only ideals that pin variables to constants can be eliminated."""
    ctx = Fq(2, 1)
    R2 = PolyRing(ctx, ("x", "y"))
    y = R2.var(1)
    pulled = koszul_pullback(omega_module(R2), [y * y])
    with pytest.raises((UnsupportedRingError, ValidationError)):
        restrict_to_subring(pulled)
