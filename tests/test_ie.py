"""Tests for lattices inside localized modules, the minimal-extension
certificate, and its functoriality and minimality oracles.

The running example: top forms on the line, localized away from the
origin.  The standard operator extends to its own lattice; the twisted
operator kappa'(f dx) = kappa(x f dx) extends to the sublattice x * (top
forms), which is abstractly isomorphic to the standard module (the
difference lives only in the embedding)."""

import hashlib
import random
from pathlib import Path

import pytest

from cartier_lab import cartier, functors, gamma, ie, submodules
from cartier_lab.cartier import (
    CartierModule,
    CartierMorphism,
    is_nilpotent,
    jordan_block_module,
    kernel,
    max_nilpotent_submodule,
    omega_module,
    point_module,
    quotient_module,
    stable_image,
    submodule_module,
)
from cartier_lab.errors import (
    DEFAULT_ITERATION_CAP,
    CapExceeded,
    CertificateFailed,
    InvariantViolation,
    NonStabilized,
    ValidationError,
)
from cartier_lab.fields import Fq
from cartier_lab.functors import (
    closed_pushforward,
    open_pullback,
    torsion_gamma_Z,
)
from cartier_lab.ie import (
    IECertificate,
    Lattice,
    LocalizedMorphism,
    ie_exactness_probe,
    ie_functorial,
    intermediate_extension,
    kappa_saturate,
    minimality_oracle,
    nil_isomorphic,
    simple_crystal_probe,
    supported_on_Z,
)
from cartier_lab.ie import test_module_sum as lattice_test_sum
from cartier_lab.poly import PolyRing
from cartier_lab.serialize import (
    canonical_json,
    certificate_to_json,
    load_document,
)
from cartier_lab.submodules import (
    hnf_rows,
    scalar_rows,
    solve_combination,
    vec_scale,
)

SEED = 271828
EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"
# sha256 over canonical_json(certificate_to_json(cert)) of every
# certificate of pinned_localizations(), in order
CERTIFICATE_PIN = (
    "997c64c2ed5c1c3fbf1e2003c9a634fe0eb612ab01ff14113cce0410e96ba277"
)
# sha256 over the "\n"-joined oracle_verdicts()
ORACLE_PIN = (
    "e65f977be85d615888dd950a3c66d42dc69b8723f5626788b836333b66585a11"
)


@pytest.fixture
def line():
    ctx = Fq(2, 1)
    R = PolyRing(ctx, ("x",))
    return ctx, R, R.var(0)


@pytest.fixture
def standard(line):
    ctx, R, x = line
    w = omega_module(R)
    return w, open_pullback(w, x)


@pytest.fixture
def twisted(line):
    ctx, R, x = line
    tw = CartierModule(
        R,
        1,
        {((0,), 0): (R.one,), ((1,), 0): (R.zero,)},
        generator_names=("dx",),
    )
    return tw, open_pullback(tw, x)


# ------------------------------------------------------------ nil-isomorphy


def test_identity_is_a_nil_isomorphism(standard):
    w, _ = standard
    assert nil_isomorphic(CartierMorphism.identity(w))


def test_stable_image_inclusion_is_a_nil_isomorphism():
    """Kernel and cokernel of the inclusion of the stable part are
    nilpotent by construction."""
    jb = jordan_block_module(Fq(2, 1), 2)
    _, incl, _ = stable_image(jb)
    assert nil_isomorphic(incl)


def test_zero_into_nonzero_is_not_a_nil_isomorphism(standard):
    w, _ = standard
    R = w.ring
    zero_mod = CartierModule(R, 0, {})
    assert not nil_isomorphic(CartierMorphism(zero_mod, w, []))


# ---------------------------------------------------------------- support


def test_point_module_is_supported_at_its_point(line):
    ctx, R, x = line
    pushed = closed_pushforward(point_module(ctx), ambient_ring=R, point=ctx.scalar(0))
    assert supported_on_Z(pushed, x)


def test_top_forms_are_not_torsion_supported(standard, line):
    _, R, x = line
    w, _ = standard
    assert not supported_on_Z(w, x)


def test_nilpotent_free_module_counts_as_supported(line):
    """The stable image vanishes, and zero sits inside every torsion
    span: degenerate but deliberate."""
    ctx, R, x = line
    kzero = CartierModule(R, 1, {((0,), 0): (R.zero,), ((1,), 0): (R.zero,)})
    assert supported_on_Z(kzero, x)


# -------------------------------------------------------------- saturation


def test_standard_lattice_is_saturated(standard, line):
    _, R, x = line
    w, loc = standard
    L = Lattice(loc, [(R.one,)])
    assert kappa_saturate(L) == L


def test_saturation_climbs_from_a_smaller_lattice(standard, line):
    _, R, x = line
    _, loc = standard
    L = Lattice(loc, [(R.one,)])
    # x * (top forms) saturates up to the full lattice: kappa(x dx) = dx
    assert kappa_saturate(Lattice(loc, [(x,)])) == L


def test_lattice_membership_and_division(standard, line):
    _, R, x = line
    _, loc = standard
    L = Lattice(loc, [(x,)])
    assert L.contains((x,))
    assert L.contains((R.one,)) is False  # dx is not in x * (top forms)
    exponent = L.divides_in((R.one,), cap=8)
    assert exponent is not None and exponent >= 1  # some x-power of dx enters


def test_unstable_lattice_refuses_module_presentation(standard, line):
    """x * (top forms) is not stable under the standard operator
    (kappa(x dx) = dx escapes), so presenting it as an abstract module
    must fail loudly."""
    _, R, x = line
    _, loc = standard
    L = Lattice(loc, [(x,)])
    assert not L.is_kappa_stable()
    with pytest.raises(InvariantViolation):
        L.to_module()


# ------------------------------------------------------- test-module sums


def test_sum_chain_is_stationary_for_the_standard_lattice(standard, line):
    _, R, x = line
    _, loc = standard
    L = Lattice(loc, [(R.one,)])
    assert lattice_test_sum(L, 0) == L
    assert lattice_test_sum(L, 1) == L


def test_sum_chain_for_the_twisted_lattice(twisted, line):
    _, R, x = line
    _, loc_tw = twisted
    L = kappa_saturate(Lattice(loc_tw, [(R.one,)]))
    assert lattice_test_sum(L, 1) == Lattice(loc_tw, [(x,)])


def test_sum_requires_a_stable_lattice(standard, line):
    _, R, x = line
    _, loc = standard
    with pytest.raises(ValidationError):
        lattice_test_sum(Lattice(loc, [(x,)]), 1)


# -------------------------------------------------------------- certificates


def test_certificate_for_the_standard_module(standard, line):
    _, R, x = line
    w, loc = standard
    cert = intermediate_extension(loc)
    assert cert.lattice == Lattice(loc, [(R.one,)])
    assert cert.indices["k_star"] == 1
    assert all(cert.checks.values())
    assert cert.module.kappa_table == w.kappa_table
    assert not cert.crystal_zero


def test_certificate_for_the_twisted_module(twisted, standard, line):
    """The twisted operator extends to x * (top forms); the abstract
    module of that lattice has the standard table."""
    _, R, x = line
    w, _ = standard
    _, loc_tw = twisted
    cert = intermediate_extension(loc_tw)
    assert cert.lattice == Lattice(loc_tw, [(x,)])
    assert all(cert.checks.values())
    assert cert.module.kappa_table == w.kappa_table
    assert cert.checks["quotient_nilpotent"]
    assert cert.checks["quotient_nilpotent_kstar"]


def test_certificate_of_a_zero_presentation(line):
    ctx, R, x = line
    zero_base = CartierModule(
        R,
        1,
        {((0,), 0): (R.zero,), ((1,), 0): (R.zero,)},
        relations=[(R.one,)],
    )
    cert = intermediate_extension(open_pullback(zero_base, x))
    assert cert.lattice.is_zero()
    assert not cert.crystal_zero


def test_certificate_of_a_nilpotent_module_is_crystal_zero(line):
    """A free module with the zero operator localizes to something with
    zero stable image: as a crystal it vanishes, and the certificate
    says so rather than hunting for a lattice that cannot stabilize."""
    ctx, R, x = line
    free_nil = CartierModule(R, 1, {((0,), 0): (R.zero,), ((1,), 0): (R.zero,)})
    cert = intermediate_extension(open_pullback(free_nil, x))
    assert cert.lattice.is_zero()
    assert cert.crystal_zero
    assert all(cert.checks.values())


def test_certificate_is_idempotent(twisted, line):
    """Re-localizing the certified module and extending again reproduces
    the same abstract table."""
    ctx, R, x = line
    _, loc_tw = twisted
    cert = intermediate_extension(loc_tw)
    again = intermediate_extension(open_pullback(cert.module, x))
    assert again.module.kappa_table == cert.module.kappa_table


def seeded_localizations():
    """Modules over F_2[x] and F_3[x] of rank 1-3, localized at x or at
    x + c.  The first ``torsion`` generators carry the relation
    (x + c)^p e_i and have operator values that are multiples of
    (x + c)^(p - 1) supported on them, so the relations are stable; the
    other generators are free with random values."""
    rng = random.Random(SEED)
    out = []
    for p in (2, 3):
        R = PolyRing(Fq(p, 1), ("x",))
        x = R.var(0)
        for rank in (1, 2, 3):
            for torsion in range(rank + 1):
                lin = x + R.scalar(rng.randrange(1, p))
                table = {}
                for a in range(p):
                    for j in range(rank):
                        col = []
                        for i in range(rank):
                            if j >= torsion:
                                col.append(R.random_poly(rng, 2, 3))
                            elif i < torsion:
                                h = R.scalar(rng.randrange(1, p)) + (
                                    R.scalar(rng.randrange(p)) * x
                                )
                                col.append(h * lin ** (p - 1))
                            else:
                                col.append(R.zero)
                        table[((a,), j)] = tuple(col)
                relations = [
                    tuple(lin**p if i == t else R.zero for i in range(rank))
                    for t in range(torsion)
                ]
                module = CartierModule(R, rank, table, relations=relations)
                g = rng.choice((x, lin))
                out.append(open_pullback(module, g))
    return out


def quotient_by_test_sum(cert, k):
    """L / T_k(L) as a presented module, L the certificate lattice: the
    quotient check as computed before the fixed-point identity replaced
    it, kept here as its reference."""
    lattice = cert.lattice
    loc = cert.localized
    R = loc.ring
    inner = lattice_test_sum(lattice, k)
    gens = lattice.generator_rows()
    rels = loc.quotient.effective_relations()
    sub_rows = []
    for row in inner.generator_rows():
        coords = solve_combination(gens, rels, row, lattice.rank, R)
        assert coords is not None, "test sum escaped the lattice"
        sub_rows.append(tuple(coords))
    quot, _ = quotient_module(cert.module, sub_rows)
    return quot


def test_test_sums_of_the_certified_lattice_are_the_lattice():
    """The identity behind both quotient checks: every test sum of the
    stabilized lattice is the lattice itself, so the old quotient
    modules are zero (hence nilpotent) on seeded inputs."""
    k_stars = []
    for loc in seeded_localizations():
        cert = intermediate_extension(loc)
        k_star = cert.indices["k_star"]
        if k_star == 0:
            continue
        k_stars.append(k_star)
        L = cert.lattice
        R = loc.ring
        for j in range(1, k_star + 2):
            assert lattice_test_sum(L, j) == L
        for k in sorted({1, k_star}):
            quot = quotient_by_test_sum(cert, k)
            assert is_nilpotent(quot)[0]
            units = scalar_rows(R, quot.rank, R.one)
            assert all(quot.is_zero_element(e) for e in units)
    # most inputs take the full path, some with a separate k* check
    assert len(k_stars) >= 6 and max(k_stars) >= 2


def test_identity_check_rejects_an_enlarged_lattice(twisted):
    """The full lattice restricts the twisted operator but is not the
    minimal extension: its first test sum is strictly smaller."""
    _, loc_tw = twisted
    R = loc_tw.ring
    big = Lattice(loc_tw, [(R.one,)])
    assert big.is_kappa_stable()
    assert kappa_saturate(big.g_multiple(1)) != big


def test_a_failed_identity_check_refuses_the_certificate(
    twisted, monkeypatch
):
    """The checks the test-sum loop does not record fail closed: a
    saturation that collapses to the zero lattice fails localization
    agreement, and at k* >= 2 a shrunk kappa_saturate fails the k* check."""
    _, loc_tw = twisted

    def shrunk(lattice, cap=None):
        return Lattice(lattice.localized, [])

    with monkeypatch.context() as patch:
        patch.setattr(
            ie, "_saturation_chain", lambda lattice, cap=None: [shrunk(lattice)]
        )
        with pytest.raises(
            CertificateFailed, match="failed: localization_agreement$"
        ):
            intermediate_extension(loc_tw)

    deep = next(
        loc for loc in seeded_localizations()
        if intermediate_extension(loc).indices["k_star"] >= 2
    )
    monkeypatch.setattr(ie, "kappa_saturate", shrunk)
    with pytest.raises(
        CertificateFailed, match="failed: quotient_nilpotent_kstar$"
    ):
        intermediate_extension(deep)


def test_the_test_sum_loop_saturates_each_sum_once(monkeypatch):
    """T_(k+1) = sat(g T_k): on every full-path certificate of
    seeded_localizations(), the loop runs k* + 1 saturations (T_1 to T_k*
    and the repeat that stops it), and kappa_saturate runs once more, for
    the k* check, only when k* > 1."""
    chains, saturations = [], []
    chain, saturate = ie._saturation_chain, ie.kappa_saturate

    def counted_chain(lattice, cap=None):
        chains.append(lattice)
        return chain(lattice, cap)

    def counted_saturate(lattice, cap=None):
        saturations.append(lattice)
        return saturate(lattice, cap)

    monkeypatch.setattr(ie, "_saturation_chain", counted_chain)
    monkeypatch.setattr(ie, "kappa_saturate", counted_saturate)
    k_stars = []
    for loc in seeded_localizations():
        chains.clear()
        saturations.clear()
        k_star = intermediate_extension(loc).indices["k_star"]
        if k_star == 0:
            continue
        k_stars.append(k_star)
        assert len(chains) == k_star + 1 + (k_star > 1)
        assert len(saturations) == (k_star > 1)
    assert len(k_stars) >= 6 and min(k_stars) == 1 and max(k_stars) >= 2


def pinned_localizations():
    """The seeded localizations and the twisted example at g = x."""
    twist = load_document(EXAMPLES / "omega_twist_x.json")
    return seeded_localizations() + [open_pullback(twist, twist.ring.var(0))]


def test_certificates_match_the_pinned_digest():
    """Any change to a certificate lattice, its operator table, a check,
    e* or k* changes the report bytes and fails here."""
    digest = hashlib.sha256()
    for loc in pinned_localizations():
        cert = intermediate_extension(loc)
        digest.update(canonical_json(certificate_to_json(cert)).encode())
    assert digest.hexdigest() == CERTIFICATE_PIN


def reference_saturation(loc, rows):
    """The operator saturation of the span of ``rows`` as a plain loop on
    HNFs: rows <- HNF(rows + kappa(x^a rows) + relations) to a fixed
    point."""
    quot = loc.quotient
    R = loc.ring
    rels = list(quot.effective_relations())
    span = hnf_rows(list(rows) + rels, quot.rank, R)
    for _ in range(64):
        images = [
            quot.apply_kappa(vec_scale(row, R.monomial(a)))
            for row in span
            for a in R.pth_basis()
        ]
        nxt = hnf_rows(list(span) + images + rels, quot.rank, R)
        if nxt == span:
            return span
        span = nxt
    raise AssertionError("reference saturation did not stop")


def reference_lattice(loc, cap):
    """The certificate lattice and k* recomputed with
    ``reference_saturation``: T_k = sat(g^k L0), L0 the saturated whole
    quotient, down to the first k with T_(k+1) = T_k.  Like
    ``intermediate_extension``, it raises NonStabilized when T_(cap+1) is
    still new."""
    R = loc.ring
    saturated = reference_saturation(
        loc, scalar_rows(R, loc.quotient.rank, R.one)
    )
    sums = []
    for k in range(1, cap + 2):
        gk = loc.g ** k
        nxt = reference_saturation(loc, [vec_scale(v, gk) for v in saturated])
        if sums and nxt == sums[-1]:
            return nxt, len(sums)
        sums.append(nxt)
    raise NonStabilized("reference test sums did not stop", sums, cap)


def test_saturation_matches_a_reference_fixed_point_loop(monkeypatch):
    """kappa_saturate and every full-path certificate lattice and its k*
    agree with the reference loop, and every lattice the minimal extension
    reaches lies inside its base lattice, the whole quotient.  The one
    localization whose test sums do not stabilize, oracle_localizations()
    entry 16, raises NonStabilized in both computations."""
    reached = []
    chain = ie._saturation_chain

    def recorded(lattice, cap=None):
        out = chain(lattice, cap)
        reached.extend(out)
        return out

    monkeypatch.setattr(ie, "_saturation_chain", recorded)
    seeded = seeded_localizations()
    full_path, unstable = 0, []
    for i, loc in enumerate(seeded + oracle_localizations()):
        R = loc.ring
        x = R.var(0)
        units = scalar_rows(R, loc.quotient.rank, R.one)
        for f in (x, loc.g, x + R.one):
            rows = [vec_scale(e, f) for e in units]
            assert kappa_saturate(Lattice(loc, rows)).span == (
                reference_saturation(loc, rows)
            )
        reached.clear()
        try:
            cert = intermediate_extension(loc, cap=DEFAULT_ITERATION_CAP)
        except NonStabilized:
            with pytest.raises(NonStabilized):
                reference_lattice(loc, DEFAULT_ITERATION_CAP)
            unstable.append(i - len(seeded))
            continue
        base = Lattice(loc, units)
        assert all(base.contains(row) for L in reached for row in L.span)
        if cert.indices["k_star"] == 0:
            continue
        full_path += 1
        assert (cert.lattice.span, cert.indices["k_star"]) == (
            reference_lattice(loc, DEFAULT_ITERATION_CAP)
        )
    assert full_path >= 30 and unstable == [16]


def test_certificate_lattices_have_no_g_torsion():
    """intermediate_extension records torsion_nilpotent without computing
    it: the certified lattice lies in the g-torsion-free quotient, so its
    g-torsion is zero.  Recomputed here on every full-path certificate of
    pinned_localizations() and oracle_localizations(), the torsion has no
    generators."""
    full_path = 0
    for loc in pinned_localizations() + oracle_localizations():
        try:
            cert = intermediate_extension(loc)
        except NonStabilized:
            continue
        assert cert.checks["torsion_nilpotent"]
        if cert.indices["k_star"] == 0:
            continue
        full_path += 1
        tors = torsion_gamma_Z(cert.module, loc.g)
        assert tors["generators"] == [] and tors["module"].rank == 0
    assert full_path >= 40


def test_each_certificate_path_builds_its_lattice_module_once(
    standard, line, monkeypatch
):
    _, R, x = line
    _, loc = standard
    zero_base = CartierModule(
        R, 1, {((0,), 0): (R.zero,), ((1,), 0): (R.zero,)},
        relations=[(R.one,)],
    )
    free_nil = CartierModule(
        R, 1, {((0,), 0): (R.zero,), ((1,), 0): (R.zero,)}
    )
    built = []
    to_module = Lattice.to_module

    def counted(self):
        built.append(self)
        return to_module(self)

    monkeypatch.setattr(Lattice, "to_module", counted)
    paths = {
        "zero base": open_pullback(zero_base, x),
        "crystal zero": open_pullback(free_nil, x),
        "full": loc,
    }
    for name, localized in paths.items():
        built.clear()
        cert = intermediate_extension(localized)
        assert cert.crystal_zero == (name == "crystal zero")
        assert (cert.indices["k_star"] > 0) == (name == "full")
        assert len(built) == 1 and built[0] is cert.lattice, name



def test_lattice_modules_are_presented_by_submodule_module():
    """A certificate's lattice module is the submodule of the quotient
    generated by the lattice's generator rows, as ``submodule_module``
    presents it: one presenter, one table."""
    for loc in seeded_localizations():
        cert = intermediate_extension(loc)
        rows = cert.lattice.generator_rows()
        want, _ = submodule_module(loc.quotient, rows)
        assert cert.lattice.to_module() == want

def test_module_presentations_echelonize_their_generators_twice(
    monkeypatch
):
    """Lattice.to_module and submodule_module echelonize their generator
    rows twice in all, once for the syzygies and once for every solve of
    the operator table, however many table keys there are."""
    certs = [intermediate_extension(loc) for loc in seeded_localizations()]
    calls = []
    echelon = submodules._tracked_echelon

    def counted(gens, rels, r, ring):
        if gens:
            calls.append(len(gens))
        return echelon(gens, rels, r, ring)

    monkeypatch.setattr(submodules, "_tracked_echelon", counted)
    keys = set()
    for cert in certs:
        R = cert.localized.ring
        calls.clear()
        module = cert.lattice.to_module()
        assert len(calls) <= 2
        calls.clear()
        sub, _ = submodule_module(
            module, scalar_rows(R, module.rank, R.one)
        )
        assert len(calls) <= 2 and len(sub.kappa_table) == len(
            module.kappa_table)
        keys.add(len(module.kappa_table))
    assert max(keys) >= 6


def conversion_modules():
    """Modules for the Cartier-gamma conversions and unit roots.  Over F_2,
    F_3 and F_4 of rank 1-3 with the first t generators killed; the
    operator maps those among themselves, so the relations are stable.
    Over F_2[x] and F_3[x] of rank 1-2 with no relations.  In some
    modules of each kind, kappa(e_(t+2)) (kappa(x^a e_2) over F_p[x]) is
    a unit times kappa(e_(t+1)), so the columns of gamma are dependent
    and the unit root has a relation."""
    rng = random.Random(SEED + 5)
    out = []
    for p, e in ((2, 1), (3, 1), (2, 2)):
        ctx = Fq(p, e)
        R = PolyRing(ctx, ())
        shapes = [(rank, t, dep) for rank in (1, 2, 3)
                  for t in range(rank + 1) for dep in (False, True)
                  if t + 2 <= rank or not dep]
        for rank, t, dependent in shapes:
            a = [[ctx.random_element(rng) if i < t or j >= t else ctx.zero
                  for j in range(rank)] for i in range(rank)]
            if dependent:
                c = ctx.scalar(rng.randrange(1, p))
                for row in a:
                    row[t + 1] = c * row[t]
            out.append(CartierModule(R, rank, {
                ((), j): tuple(R.scalar(a[i][j]) for i in range(rank))
                for j in range(rank)
            }, relations=scalar_rows(R, rank, R.one)[:t]))
    for p in (2, 3):
        R = PolyRing(Fq(p, 1), ("x",))
        for rank, dependent in [(1, False)] * 2 + [(2, False), (2, True)] * 2:
            c = R.scalar(rng.randrange(1, p))
            table = {}
            for a in R.pth_basis():
                col = tuple(R.random_poly(rng, 2, 3) for _ in range(rank))
                table[a, 0] = col
                if rank == 2:
                    table[a, 1] = (tuple(c * f for f in col) if dependent
                                   else tuple(R.random_poly(rng, 2, 3)
                                              for _ in range(rank)))
            out.append(CartierModule(R, rank, table))
    return out


def test_library_built_tables_pass_the_check_they_skip(monkeypatch):
    """submodule_module and Lattice.to_module build their tables with
    validate=False, certified by the solve that fills them, and so do
    the g-torsion-free quotient of a localization (the torsion is
    kappa-stable), the Koszul twist (Fedder), both Cartier-gamma
    conversions (an exact equivalence over a regular ring) and the root
    of a unit root over F_q or F_q[x] (Frobenius is flat); the
    well-definedness check still passes on every table they build from
    seeded inputs: torsion submodules of each module and of its
    g-torsion-free quotient, that quotient, stable images, kernels of the
    projections to it, maximal nilpotent submodules, the lattice modules
    of the minimal extensions, Koszul pullbacks of the bases and of top
    forms on planes, both conversions of those bases and of
    conversion_modules(), and the unit roots of the latter, many with
    relations."""
    built = {"submodule": 0, "lattice": 0, "quotient": 0, "koszul": 0,
             "to_gamma": 0, "to_cartier": 0, "unit_root": 0}
    submodule, to_module = cartier.submodule_module, Lattice.to_module

    def checked(site, module):
        module._validate()
        built[site] += bool(module.effective_relations())
        return module

    def checked_submodule(module, gens):
        sub, incl = submodule(module, gens)
        return checked("submodule", sub), incl

    for namespace in (cartier, functors):
        monkeypatch.setattr(namespace, "submodule_module", checked_submodule)
    monkeypatch.setattr(
        Lattice, "to_module", lambda lat: checked("lattice", to_module(lat))
    )
    locs = seeded_localizations() + oracle_localizations()
    modules = conversion_modules()
    for module in modules + [loc.base for loc in locs]:
        sheaf = checked("to_gamma", gamma.cartier_to_gamma(module))
        checked("to_cartier", gamma.gamma_to_cartier(sheaf))
    for module in modules:
        unit = gamma.unit_root_stabilize(gamma.cartier_to_gamma(module))
        checked("unit_root", unit.root)
    for loc in locs:
        base = loc.base
        checked("quotient", loc.quotient)
        checked("koszul", functors.koszul_pullback(base, [loc.g]))
        stable_image(base)
        max_nilpotent_submodule(base)
        kernel(quotient_module(base, loc.torsion["generators"])[1])
        torsion_gamma_Z(loc.quotient, loc.ring.var(0) + loc.ring.one)
        try:
            intermediate_extension(loc)
        except NonStabilized:
            pass
    for p in (2, 3):
        plane = PolyRing(Fq(p, 1), ("x", "y"))
        for seq in (["y"], ["x", "y"], ["x*y+1", "x^2+y"]):
            pulled = functors.koszul_pullback(
                omega_module(plane), [plane.parse(f) for f in seq])
            checked("koszul", pulled)
    assert built["submodule"] >= 50 and built["lattice"] >= 10
    assert built["quotient"] >= 30 and built["koszul"] >= 50
    assert built["to_gamma"] >= 50 and built["to_cartier"] >= 50
    assert built["unit_root"] >= 8


# ------------------------------------------------------------ functoriality


def test_functorial_restriction_of_a_unit_fraction_map(twisted, standard):
    """Multiplication by 1/x intertwines the twisted and standard
    localizations and restricts to an isomorphism of the lattices."""
    _, loc_tw = twisted
    _, loc = standard
    R = loc.ring
    phi = LocalizedMorphism(loc_tw, loc, [((R.one,), 1)])
    restricted = ie_functorial(phi)
    assert tuple(restricted.images) == ((R.one,),)


def test_functorial_identity_and_composition(twisted, standard):
    _, loc_tw = twisted
    _, loc = standard
    R = loc.ring
    ident = LocalizedMorphism.identity(loc_tw)
    assert tuple(ie_functorial(ident).images) == ((R.one,),)
    phi = LocalizedMorphism(loc_tw, loc, [((R.one,), 1)])
    comp = phi.compose(ident)
    assert tuple(ie_functorial(comp).images) == tuple(ie_functorial(phi).images)


def test_functorial_zero_map(twisted, standard):
    _, loc_tw = twisted
    _, loc = standard
    R = loc.ring
    zero_phi = LocalizedMorphism(loc_tw, loc, [((R.zero,), 0)])
    assert ie_functorial(zero_phi).is_zero()


def test_morphism_validation_checks_commutation(twisted, standard):
    """Multiplication by 1/x^2 does not intertwine the two operators."""
    _, loc_tw = twisted
    _, loc = standard
    R = loc.ring
    with pytest.raises(ValidationError):
        LocalizedMorphism(loc_tw, loc, [((R.one,), 2)])


def test_exactness_probe(twisted, standard):
    _, loc_tw = twisted
    _, loc = standard
    R = loc.ring
    phi = LocalizedMorphism(loc_tw, loc, [((R.one,), 1)])
    res = ie_exactness_probe(phi)
    assert res["injective_input"]
    assert res["surjective_input"]
    assert res["passed"]
    res_id = ie_exactness_probe(LocalizedMorphism.identity(loc))
    assert res_id["passed"]


# ---------------------------------------------------------------- oracles


def test_minimality_oracle_confirms_the_certificates(twisted, line):
    ctx, R, x = line
    _, loc_tw = twisted
    cert = intermediate_extension(loc_tw)
    assert minimality_oracle(cert) is True


def test_minimality_oracle_rejects_an_enlarged_lattice(twisted):
    """The full lattice also restricts the twisted operator, but its
    quotient by the genuine minimal lattice is NOT nilpotent: the oracle
    must flag it."""
    _, loc_tw = twisted
    R = loc_tw.ring
    big = Lattice(loc_tw, [(R.one,)])
    assert big.is_kappa_stable()
    fake = IECertificate(
        big,
        big.to_module(),
        {
            "localization_agreement": True,
            "torsion_nilpotent": True,
            "quotient_nilpotent": True,
            "quotient_nilpotent_kstar": True,
        },
        {"e_star": 0, "k_star": 1},
        False,
        loc_tw,
    )
    assert minimality_oracle(fake) is False


def test_minimality_oracle_skips_a_huge_truncation_before_building_it(
    twisted, monkeypatch
):
    """The lattice module is free, so the size of the truncated model is
    known from its rank and the degree bound: a bound of 3,000,000 is
    refused without building the model."""
    _, loc_tw = twisted
    cert = intermediate_extension(loc_tw)

    def refuse(*args, **kwargs):
        raise AssertionError("the truncated model was built")

    monkeypatch.setattr(ie, "FiniteModel", refuse)
    with pytest.raises(CapExceeded, match="truncation too large"):
        minimality_oracle(cert, degree_bound=3_000_000)


def test_simplicity_probe_worked_examples():
    ctx = Fq(2, 1)
    assert simple_crystal_probe(point_module(ctx)) is True
    assert simple_crystal_probe(jordan_block_module(ctx, 2)) is False
    R0 = PolyRing(ctx, ())
    swap = CartierModule(
        R0,
        2,
        {((), 0): (R0.zero, R0.one), ((), 1): (R0.one, R0.zero)},
    )
    # the swap module contains the diagonal as a proper stable subspace
    assert simple_crystal_probe(swap) is False
    assert simple_crystal_probe(point_module(Fq(2, 2))) is True


def oracle_localizations():
    """Seeded localizations over F_2, F_3, F_4 and F_9[x] of rank 1-3,
    built as in seeded_localizations() but with the torsion operator
    values drawn over all of F_q, so that the p-th-root twist of the
    operator shows over F_4 and F_9."""
    rng = random.Random(SEED + 3)
    out = []
    for p, e in ((2, 1), (3, 1), (2, 2), (3, 2)):
        ctx = Fq(p, e)
        R = PolyRing(ctx, ("x",))
        x = R.var(0)
        for rank in (1, 2, 3):
            for torsion in range(rank + 1):
                lin = x + R.scalar(rng.randrange(1, p))
                table = {}
                for a in range(p):
                    for j in range(rank):
                        col = []
                        for i in range(rank):
                            if j >= torsion:
                                col.append(R.random_poly(rng, 2, 3))
                            elif i < torsion:
                                h = R.scalar(ctx.random_element(rng)) + (
                                    R.monomial((1,), ctx.random_element(rng))
                                )
                                col.append(h * lin ** (p - 1))
                            else:
                                col.append(R.zero)
                        table[((a,), j)] = tuple(col)
                relations = [
                    tuple(lin**p if i == t else R.zero for i in range(rank))
                    for t in range(torsion)
                ]
                module = CartierModule(R, rank, table, relations=relations)
                out.append(open_pullback(module, rng.choice((x, lin))))
    return out


def oracle_certificates():
    """The certificate of each oracle_localizations() entry, then fake
    certificates on the other operator-stable lattices among: the
    saturated whole lattice, its test sums T_1 and T_2, and the
    g-multiples of it and of the certified lattice.  A localization
    whose test sums do not stabilize is left out."""
    out = []
    for loc in oracle_localizations():
        try:
            cert = intermediate_extension(loc)
        except NonStabilized:
            continue
        out.append(cert)
        if cert.crystal_zero or cert.module.rank == 0:
            continue
        R = loc.ring
        big = kappa_saturate(
            Lattice(loc, scalar_rows(R, loc.quotient.rank, R.one))
        )
        seen = [cert.lattice]
        for lat in (
            big,
            lattice_test_sum(big, 1),
            lattice_test_sum(big, 2),
            big.g_multiple(1),
            cert.lattice.g_multiple(1),
        ):
            if lat not in seen and lat.is_kappa_stable():
                seen.append(lat)
                out.append(IECertificate(
                    lat, lat.to_module(), cert.checks, cert.indices, False, loc
                ))
    return out


def probe_modules():
    """Seeded modules over F_2, F_3 and F_4 of rank 1-4, with random
    operator tables."""
    rng = random.Random(SEED + 4)
    out = []
    for p, e in ((2, 1), (3, 1), (2, 2)):
        ctx = Fq(p, e)
        R0 = PolyRing(ctx, ())
        for rank in (1, 2, 3, 4):
            for _ in range(6):
                table = {
                    ((), j): tuple(
                        R0.scalar(ctx.random_element(rng))
                        if rng.random() < 0.6 else R0.zero
                        for _ in range(rank)
                    )
                    for j in range(rank)
                }
                out.append(CartierModule(R0, rank, table))
    return out


def oracle_verdict(oracle, *args, **kwargs):
    try:
        return repr(oracle(*args, **kwargs))
    except (CapExceeded, InvariantViolation) as exc:
        return f"{type(exc).__name__}: {exc}"


def oracle_verdicts():
    certs = oracle_certificates()
    lines = [
        oracle_verdict(minimality_oracle, cert, degree_bound=bound)
        for bound in (0, 1, 2)
        for cert in certs
    ]
    lines += [oracle_verdict(simple_crystal_probe, m) for m in probe_modules()]
    return lines


def test_oracle_verdicts_match_the_pinned_digest():
    """The verdict or skip reason of minimality_oracle at degree bounds
    0-2 on oracle_certificates(), and of simple_crystal_probe on
    probe_modules(), pinned from the implementation that enumerated
    subspaces with F_q element arithmetic.  Dropping the p-th-root twist
    from the operator's F_p matrix, multiplication by x or by t from
    the closures, the transpose that makes the maps act on rows, or every
    witness row of a unit but the first changes the digest."""
    lines = oracle_verdicts()
    assert {"True", "False"} <= set(lines)
    assert any(line.startswith("CapExceeded") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ORACLE_PIN
