"""End-to-end acceptance suite.

One test per acceptance property, so `pytest -v tests/test_acceptance.py`
prints exactly one pass/fail line for each.  Every test enforces its own
wall-clock budget on top of the mathematical assertions; all comparisons
are exact (the arithmetic has no rounding anywhere)."""

import contextlib
import io
import itertools
import json
import random
import time
from pathlib import Path

from cartier_lab import cli
from cartier_lab.cartier import (
    CartierModule,
    FiniteModel,
    direct_sum,
    hom_cartier,
    is_nilpotent,
    jordan_block_module,
    omega_module,
    point_module,
    stable_image,
)
from cartier_lab.fields import Fq
from cartier_lab.functors import (
    closed_pushforward,
    evaluate_at_point,
    gamma_evaluate_at_point,
    koszul_pullback,
    open_pullback,
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
    gamma_unit_defect,
    structure_gamma,
)
from cartier_lab.ie import (
    Lattice,
    LocalizedMorphism,
    ie_exactness_probe,
    ie_functorial,
    intermediate_extension,
    minimality_oracle,
)
from cartier_lab.poly import IdealSpec, PolyRing
from cartier_lab.submodules import hnf_rows, in_span, span_equal, vec_scale

SEED = 20260825
EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def _under(t0, seconds):
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.2f}s"


def _random_free_module(R, rng, max_rank=2, max_degree=2):
    rank = rng.randrange(1, max_rank + 1)
    table = {}
    for a in R.pth_basis():
        for j in range(rank):
            table[(a, j)] = tuple(
                R.random_poly(rng, max_degree=max_degree) for _ in range(rank)
            )
    return CartierModule(R, rank, table)


def _quotient_by_x2(R):
    # R/(x^2) with kappa(e) = x e, stable under the relation span.
    x = R.var(0)
    p = R.ctx.p
    return CartierModule(
        R,
        1,
        {((a,), 0): ((x if a == 0 else R.zero),) for a in range(p)},
        relations=[(x * x,)],
    )


def test_01_top_form_operator_closed_form():
    """The top-form operator on 1 and 2 variables agrees with its closed
    form on every monomial of total degree <= 3p: the output is the
    p-th-root monomial when every shifted exponent is divisible, and
    zero the moment any single exponent fails."""
    t0 = time.monotonic()
    for p in (2, 3, 5):
        ctx = Fq(p, 1)
        for names in (("x",), ("x", "y")):
            R = PolyRing(ctx, names)
            w = omega_module(R)
            n = len(names)
            if n == 1:
                exp_tuples = [(a,) for a in range(3 * p + 1)]
            else:
                exp_tuples = [
                    (a, b)
                    for a in range(3 * p + 1)
                    for b in range(3 * p + 1 - a)
                ]
            for exps in exp_tuples:
                got = w.apply_kappa((R.monomial(exps),))
                if all(e % p == p - 1 for e in exps):
                    root = tuple((e + 1) // p - 1 for e in exps)
                    expected = (R.monomial(root),)
                else:
                    expected = (R.zero,)
                assert tuple(got) == expected, (p, names, exps)
    _under(t0, 1.0)


def test_02_semilinearity_across_constructors():
    """kappa(f^p m) = f kappa(m) and gamma(f m) = f gamma(m) hold on 500+
    randomized (module, f, m) triples drawn from every constructor."""
    t0 = time.monotonic()
    rng = random.Random(SEED)
    triples = 0

    modules = []
    for p in (2, 3):
        ctx = Fq(p, 1)
        R0 = PolyRing(ctx, ())
        R1 = PolyRing(ctx, ("x",))
        R2 = PolyRing(ctx, ("x", "y"))
        pt = point_module(ctx)
        modules += [
            pt,
            jordan_block_module(ctx, 2),
            jordan_block_module(ctx, 3),
            omega_module(R1),
            omega_module(R2),
            closed_pushforward(pt, ambient_ring=R1, point=ctx.scalar(0)),
            closed_pushforward(pt, ambient_ring=R1, point=ctx.scalar(1)),
            koszul_pullback(omega_module(R2), [R2.var(1)]),
            _quotient_by_x2(R1),
            _random_free_module(R1, rng),
            _random_free_module(R1, rng),
            CartierModule(
                R0,
                2,
                {
                    ((), j): tuple(
                        R0.scalar(ctx.random_element(rng)) for _ in range(2)
                    )
                    for j in range(2)
                },
            ),
        ]
    ctx4 = Fq(2, 2)
    modules += [point_module(ctx4), omega_module(PolyRing(ctx4, ("x",)))]

    for mod in modules:
        R = mod.ring
        p = R.ctx.p
        for _ in range(15):
            f = R.random_poly(rng, max_degree=2)
            m = tuple(R.random_poly(rng, max_degree=2) for _ in range(mod.rank))
            lhs = mod.apply_kappa(tuple(f**p * c for c in m))
            rhs = tuple(f * c for c in mod.apply_kappa(m))
            assert mod.normal_form(lhs) == mod.normal_form(rhs)
            triples += 1

    sheaves = []
    for p in (2, 3):
        ctx = Fq(p, 1)
        R1 = PolyRing(ctx, ("x",))
        sheaves += [
            structure_gamma(R1),
            cartier_to_gamma(omega_module(R1)),
        ]
        for _ in range(3):
            rank = rng.randrange(1, 3)
            matrix = tuple(
                tuple(R1.random_poly(rng, max_degree=2) for _ in range(rank))
                for _ in range(rank)
            )
            sheaves.append(GammaSheaf(R1, rank, matrix))

    for sh in sheaves:
        R = sh.ring
        for _ in range(15):
            f = R.random_poly(rng, max_degree=2)
            v = tuple(R.random_poly(rng, max_degree=2) for _ in range(sh.rank))
            lhs = sh.apply_gamma(tuple(f * a for a in v))
            rhs = tuple(f * a for a in sh.apply_gamma(v))
            assert tuple(sh.normal_form(lhs)) == tuple(sh.normal_form(rhs))
            triples += 1

    assert triples >= 500, triples
    _under(t0, 10.0)


def test_03_conversion_round_trips_are_table_exact():
    """Converting a p-th-root module to its linear counterpart and back
    reproduces the table bit for bit (and the same in the other
    direction) on 50 random rank-<=2 modules, plus the pinned pair: top
    forms on the line convert to the structure sheaf with matrix [1]."""
    t0 = time.monotonic()
    rng = random.Random(SEED + 3)
    instances = 0
    for p in (2, 3):
        ctx = Fq(p, 1)
        R = PolyRing(ctx, ("x",))
        for _ in range(25):
            mod = _random_free_module(R, rng)
            sheaf = cartier_to_gamma(mod)
            back = gamma_to_cartier(sheaf)
            assert back.rank == mod.rank
            assert back.kappa_table == mod.kappa_table
            sheaf_again = cartier_to_gamma(back)
            assert sheaf_again.gamma_matrix == sheaf.gamma_matrix
            instances += 1
    assert instances >= 50

    R = PolyRing(Fq(2, 1), ("x",))
    w = omega_module(R)
    assert cartier_to_gamma(w).gamma_matrix == ((R.one,),)
    assert gamma_to_cartier(structure_gamma(R)).kappa_table == w.kappa_table
    _under(t0, 10.0)


def test_04_regular_sequence_pullback_tables_and_determinants():
    """Cutting the plane by (y) reproduces the line's top-form table;
    cutting the line by (x) gives the point's p-th-root structure; and
    comparing two sequences generating the same ideal yields the
    expected determinant factor on ten pairs."""
    t0 = time.monotonic()
    for p in (2, 3):
        ctx = Fq(p, 1)
        R2 = PolyRing(ctx, ("x", "y"))
        R1 = PolyRing(ctx, ("x",))
        pulled = koszul_pullback(omega_module(R2), [R2.var(1)])
        flat = restrict_to_subring(pulled)
        assert flat.kappa_table == omega_module(R1).kappa_table

    for p in (2, 3, 5):
        ctx = Fq(p, 1)
        R1 = PolyRing(ctx, ("x",))
        pulled = koszul_pullback(omega_module(R1), [R1.var(0)])
        assert evaluate_at_point(pulled).kappa_table == (
            point_module(ctx).kappa_table
        )

    pairs = []
    ctx3 = Fq(3, 1)
    R3 = PolyRing(ctx3, ("x",))
    x3 = R3.var(0)
    two3 = R3.scalar(ctx3.from_int(2))
    pairs.append((omega_module(R3), [x3], [two3 * x3], 2))
    P3 = PolyRing(ctx3, ("x", "y"))
    x, y = P3.var(0), P3.var(1)
    w3 = omega_module(P3)
    pairs += [
        (w3, [x, y], [x + y, y], 1),
        (w3, [x, y], [y, x], 2),
        (w3, [x, y], [P3.scalar(ctx3.from_int(2)) * x, y], 2),
        (w3, [x, y], [x, x + y], 1),
        (w3, [x, y], [x + P3.scalar(ctx3.from_int(2)) * y, y], 1),
    ]
    ctx2 = Fq(2, 1)
    P2 = PolyRing(ctx2, ("x", "y"))
    u, v = P2.var(0), P2.var(1)
    w2 = omega_module(P2)
    pairs += [
        (w2, [u, v], [u + v, v], 1),
        (w2, [u, v], [v, u], 1),
        (w2, [u, v], [u, u + v], 1),
    ]
    ctx5 = Fq(5, 1)
    R5 = PolyRing(ctx5, ("x",))
    x5 = R5.var(0)
    pairs.append((omega_module(R5), [x5], [R5.scalar(ctx5.from_int(3)) * x5], 3))

    assert len(pairs) == 10
    for mod, seq_f, seq_g, det in pairs:
        res = sequence_change_factor(seq_f, seq_g, mod)
        ring = mod.ring
        assert res["determinant"] == ring.scalar(ring.ctx.from_int(det))
        assert res["relation_verified"]
    _under(t0, 5.0)


def test_05_point_specialization_commutes_with_conversion():
    """Specializing at a rational point and then converting equals
    converting first and specializing on the linear side, matrix for
    matrix, on 24 random rank-<=2 instances."""
    t0 = time.monotonic()
    instances = 0
    for p in (2, 3):
        ctx = Fq(p, 1)
        R = PolyRing(ctx, ("x",))
        x = R.var(0)
        rng = random.Random(SEED + 1000 * p)
        for _ in range(12):
            M = _random_free_module(R, rng)
            c = ctx.from_int(rng.randrange(p))
            seq = [x - R.scalar(c)]
            path_a = cartier_to_gamma(
                evaluate_at_point(koszul_pullback(M, seq))
            )
            path_b = gamma_evaluate_at_point(
                gamma_pullback(cartier_to_gamma(M), IdealSpec(R, seq))
            )
            assert path_a.gamma_matrix == path_b.gamma_matrix
            instances += 1
    assert instances >= 20
    _under(t0, 10.0)


def test_06_localization_kernel_equals_power_torsion():
    """The kernel of the localization map is exactly the set of vectors
    killed by a power of g: the syzygy-chain computation, the
    saturation oracle, the localization's own kernel, and brute
    power-membership all agree on 50+ instances."""
    t0 = time.monotonic()
    instances = 0
    for p in (2, 3):
        ctx = Fq(p, 1)
        R = PolyRing(ctx, ("x",))
        x = R.var(0)
        one = R.scalar(ctx.from_int(1))
        rng = random.Random(SEED + 17 * p)
        pt = point_module(ctx)
        blocks = [
            omega_module(R),
            closed_pushforward(pt, ambient_ring=R, point=ctx.scalar(0)),
            closed_pushforward(pt, ambient_ring=R, point=ctx.scalar(1)),
            _random_free_module(R, rng, max_rank=1),
            _quotient_by_x2(R),
        ]
        gs = [x, x + one, x * (x + one)]
        jobs = [(blk, g) for blk in blocks for g in gs]
        for _ in range(13):
            left, right = rng.choice(blocks), rng.choice(blocks)
            total, _, _ = direct_sum(left, right)
            jobs.append((total, rng.choice(gs)))
        for mod, g in jobs:
            tors = torsion_gamma_Z(mod, g)
            oracle = torsion_invariant_oracle(mod, g)
            assert span_equal(
                tors["span"], hnf_rows(list(oracle["span"]), mod.rank, R)
            )
            assert oracle["dimension"] == FiniteModel(tors["module"]).dimension
            loc = open_pullback(mod, g)
            for gen in loc.torsion["generators"]:
                assert in_span(gen, tors["span"], R)
            for gen in tors["generators"]:
                assert in_span(gen, loc.torsion["span"], R)
            exponent = tors["exponent"]
            rel_h = mod.relation_hnf()
            for _ in range(2):
                vec = tuple(
                    R.random_poly(rng, max_degree=2) for _ in range(mod.rank)
                )
                brute = False
                power = R.one
                for _ in range(exponent + 3):
                    if in_span(vec_scale(vec, power), rel_h, R):
                        brute = True
                        break
                    power = power * g
                assert in_span(vec, tors["span"], R) == brute
            instances += 1
    assert instances >= 50, instances
    _under(t0, 5.0)


def test_07_structural_map_kernel_cokernel_nilpotent_order_one():
    """On every linear-side sheaf the suite can build, the kernel and
    cokernel of the structural map vanish after at most one application:
    the map is invertible up to nilpotents."""
    t0 = time.monotonic()
    rng = random.Random(SEED + 7)
    for p in (2, 3):
        ctx = Fq(p, 1)
        R = PolyRing(ctx, ("x",))
        pt = point_module(ctx)
        sheaves = [
            structure_gamma(R),
            GammaSheaf(R, 1, ((R.zero,),)),
            GammaSheaf(R, 2, ((R.zero, R.one), (R.zero, R.zero))),
            cartier_to_gamma(omega_module(R)),
            cartier_to_gamma(jordan_block_module(ctx, 2)),
            cartier_to_gamma(pt),
            cartier_to_gamma(
                closed_pushforward(pt, ambient_ring=R, point=ctx.scalar(0))
            ),
            cartier_to_gamma(_quotient_by_x2(R)),
        ]
        for _ in range(5):
            rank = rng.randrange(1, 3)
            matrix = tuple(
                tuple(R.random_poly(rng, max_degree=2) for _ in range(rank))
                for _ in range(rank)
            )
            sheaves.append(GammaSheaf(R, rank, matrix))
        for sh in sheaves:
            ud = gamma_unit_defect(sh)
            ker_nil, ker_order = ud["kernel_nilpotent"]
            cok_nil, cok_order = ud["cokernel_nilpotent"]
            assert ker_nil and ker_order <= 1
            assert cok_nil and cok_order <= 1
            assert ud["nil_isomorphism"]
    _under(t0, 5.0)


def test_08_image_chains_and_hom_finiteness():
    """Finite-dimensional behavior in two shadows: every iterated-image
    chain stabilizes within dimension-many strict steps (reaching zero
    exactly in the nilpotent case), and hom spaces match brute-force
    enumeration of all scalar matrices for dimensions <= 3 over F_2 and
    F_3."""
    t0 = time.monotonic()
    rng = random.Random(SEED + 8)

    for p in (2, 3):
        ctx = Fq(p, 1)
        R0 = PolyRing(ctx, ())
        R1 = PolyRing(ctx, ("x",))
        x = R1.var(0)
        swap = CartierModule(
            R0,
            2,
            {((), 0): (R0.zero, R0.one), ((), 1): (R0.one, R0.zero)},
        )
        suite = [
            point_module(ctx),
            jordan_block_module(ctx, 2),
            jordan_block_module(ctx, 3),
            swap,
            _quotient_by_x2(R1),
            CartierModule(
                R1,
                1,
                {
                    ((a,), 0): ((x ** (p - 1) if a == 0 else R1.zero),)
                    for a in range(p)
                },
                relations=[(x * x * x,)],
            ),
        ]
        for _ in range(4):
            rank = rng.randrange(1, 4)
            suite.append(
                CartierModule(
                    R0,
                    rank,
                    {
                        ((), j): tuple(
                            R0.scalar(ctx.random_element(rng))
                            for _ in range(rank)
                        )
                        for j in range(rank)
                    },
                )
            )
        suite.append(direct_sum(suite[0], suite[1])[0])
        suite.append(direct_sum(suite[3], suite[2])[0])
        for mod in suite:
            dim = FiniteModel(mod).dimension
            sub, _, chain = stable_image(mod, cap=dim + 8)
            assert len(chain) <= dim + 2, (dim, len(chain))
            lengths = [len(step) for step in chain]
            assert lengths == sorted(lengths, reverse=True)
            nil, _ = is_nilpotent(mod, cap=dim + 8)
            if nil:
                assert sub.rank == 0
        # a free module over the line is already its own stable image
        _, _, w_chain = stable_image(omega_module(R1), cap=8)
        assert len(w_chain) <= 2

    def push(images, vec, target_rank, ring):
        acc = [ring.zero] * target_rank
        for j, c in enumerate(vec):
            if c.is_zero():
                continue
            for i in range(target_rank):
                acc[i] = acc[i] + c * images[j][i]
        return tuple(acc)

    for p in (2, 3):
        ctx = Fq(p, 1)
        R0 = PolyRing(ctx, ())
        mods = [
            point_module(ctx),
            jordan_block_module(ctx, 2),
            jordan_block_module(ctx, 3),
            CartierModule(
                R0,
                2,
                {((), 0): (R0.zero, R0.one), ((), 1): (R0.one, R0.zero)},
            ),
        ]
        for source in mods:
            for target in mods:
                res = hom_cartier(source, target)
                assert not res.partial
                units = [
                    tuple(
                        R0.one if jj == j else R0.zero
                        for jj in range(source.rank)
                    )
                    for j in range(source.rank)
                ]
                kappa_units = [source.apply_kappa(unit) for unit in units]
                for phi in res.basis:
                    for j, unit in enumerate(units):
                        lhs = push(
                            phi.images, kappa_units[j], target.rank, R0
                        )
                        rhs = target.apply_kappa(
                            push(phi.images, unit, target.rank, R0)
                        )
                        assert target.normal_form(lhs) == (
                            target.normal_form(rhs)
                        )
                count = 0
                cells = source.rank * target.rank
                for values in itertools.product(range(p), repeat=cells):
                    images = [
                        tuple(
                            R0.scalar(ctx.scalar(values[j * target.rank + i]))
                            for i in range(target.rank)
                        )
                        for j in range(source.rank)
                    ]
                    ok = True
                    for j, unit in enumerate(units):
                        lhs = push(images, kappa_units[j], target.rank, R0)
                        rhs = target.apply_kappa(
                            push(images, unit, target.rank, R0)
                        )
                        if target.normal_form(lhs) != target.normal_form(rhs):
                            ok = False
                            break
                    if ok:
                        count += 1
                assert count == p**res.dimension_fp, (
                    source.rank,
                    target.rank,
                )
    _under(t0, 60.0)


def test_09_prime_field_solution_counts():
    """Solution dimensions over growing field extensions: constantly 1
    for the point structure sheaf, constantly 0 for nilpotent modules,
    and additive over direct sums; extension degrees up to 4."""
    t0 = time.monotonic()
    for p in (2, 3, 5):
        assert sol_dimension(point_module(Fq(p, 1)), 4) == [1, 1, 1, 1]
    for p in (2, 3):
        ctx = Fq(p, 1)
        assert sol_dimension(jordan_block_module(ctx, 2), 4) == [0, 0, 0, 0]
        assert sol_dimension(jordan_block_module(ctx, 3), 4) == [0, 0, 0, 0]
    rng = random.Random(SEED + 9)
    for p in (2, 3):
        ctx = Fq(p, 1)
        R0 = PolyRing(ctx, ())
        for _ in range(4):
            mods = []
            for _ in range(2):
                rank = rng.randrange(1, 3)
                mods.append(
                    CartierModule(
                        R0,
                        rank,
                        {
                            ((), j): tuple(
                                R0.scalar(ctx.random_element(rng))
                                for _ in range(rank)
                            )
                            for j in range(rank)
                        },
                    )
                )
            total, _, _ = direct_sum(mods[0], mods[1])
            dims_a = sol_dimension(mods[0], 4)
            dims_b = sol_dimension(mods[1], 4)
            assert sol_dimension(total, 4) == [
                a + b for a, b in zip(dims_a, dims_b)
            ]
    _under(t0, 5.0)


def test_10_minimal_extension_certificates():
    """The minimal-extension machinery on the running example: the
    standard top-form module is its own extension (unit lattice, all
    checks green); the x-twisted operator yields the lattice x*(top
    forms), abstractly the standard table, confirmed minimal by the
    degree-4 truncation oracle; and the construction is idempotent and
    preserves injections and surjections."""
    t0 = time.monotonic()
    ctx = Fq(2, 1)
    R = PolyRing(ctx, ("x",))
    x = R.var(0)

    w = omega_module(R)
    loc = open_pullback(w, x)
    cert = intermediate_extension(loc)
    assert cert.lattice == Lattice(loc, [(R.one,)])
    assert cert.indices["k_star"] == 1
    assert all(cert.checks.values())
    assert cert.module.kappa_table == w.kappa_table
    assert not cert.crystal_zero

    twisted = CartierModule(
        R,
        1,
        {((0,), 0): (R.one,), ((1,), 0): (R.zero,)},
        generator_names=("dx",),
    )
    loc_tw = open_pullback(twisted, x)
    cert_tw = intermediate_extension(loc_tw)
    assert cert_tw.lattice == Lattice(loc_tw, [(x,)])
    assert all(cert_tw.checks.values())
    assert cert_tw.checks["quotient_nilpotent"]
    assert cert_tw.checks["quotient_nilpotent_kstar"]
    assert cert_tw.module.kappa_table == w.kappa_table
    assert minimality_oracle(cert_tw, bound=4) is True

    for certificate in (cert, cert_tw):
        again = intermediate_extension(open_pullback(certificate.module, x))
        assert again.module.kappa_table == certificate.module.kappa_table
        assert again.indices["k_star"] == 1

    phi = LocalizedMorphism(loc_tw, loc, [((R.one,), 1)])
    assert tuple(ie_functorial(phi).images) == ((R.one,),)
    probe = ie_exactness_probe(phi)
    assert probe["injective_input"]
    assert probe["surjective_input"]
    assert probe["passed"]
    assert ie_exactness_probe(LocalizedMorphism.identity(loc))["passed"]
    _under(t0, 60.0)


def test_11_cli_reports_are_deterministic(tmp_path):
    """Every CLI operation, run twice with the same seed and timings
    suppressed, prints byte-identical JSON reports."""
    t0 = time.monotonic()

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = cli.main(argv)
        return code, out.getvalue()

    jordan2 = str(EXAMPLES / "jordan2.json")
    omega_line = str(EXAMPLES / "omega_line.json")
    omega_twist = str(EXAMPLES / "omega_twist_x.json")
    point_omega = str(EXAMPLES / "point_omega.json")

    code, out = run(["to-gamma", jordan2, "--no-timings"])
    assert code == 0
    sheaf_path = tmp_path / "jordan2_sheaf.json"
    sheaf_path.write_text(
        json.dumps(json.loads(out)["result"]), encoding="utf-8"
    )

    jobs = {
        "validate": ["validate", omega_line],
        "kappa-apply": ["kappa-apply", omega_line, "--elem", "x^3*dx"],
        "nilpotency": ["nilpotency", jordan2],
        "stable-image": ["stable-image", jordan2],
        "hom": ["hom", jordan2, jordan2],
        "to-gamma": ["to-gamma", jordan2],
        "from-gamma": ["from-gamma", str(sheaf_path)],
        "unit-root": ["unit-root", point_omega],
        "koszul-pullback": ["koszul-pullback", omega_line, "--seq", "x"],
        "seq-change": ["seq-change", omega_line, "--seq", "x",
                       "--seq2", "x"],
        "gamma-z": ["gamma-z", omega_line, "--g", "x"],
        "localize": ["localize", omega_twist, "--g", "x"],
        "sol": ["sol", point_omega],
        "ie": ["ie", omega_twist, "--g", "x"],
        "oracle": ["oracle", omega_twist, "--g", "x"],
    }
    assert set(jobs) == set(cli.OPERATIONS)

    for argv in jobs.values():
        full = argv + ["--no-timings"]
        code_a, out_a = run(full)
        code_b, out_b = run(full)
        assert code_a == code_b == 0, argv
        assert out_a == out_b, argv
        assert json.loads(out_a)["operation"] == argv[0]
    _under(t0, 30.0)
