"""Layer micro-operations and scaling curves for the traced run.

These are the baseline table and scaling curves of the ROADMAP, measured
untraced in their own process and scaled to the reference machine speed,
so later changes compare against one harness.  Their inputs come from a fixed seed, independent of the
workload seed, so every run measures the same operations.
"""

import random
import statistics
import time

import calibrate
import cartier_lab as cl
from cartier_lab.fields import FrobeniusContext
from cartier_lab.poly import buchberger, frobenius_decompose
from cartier_lab.submodules import hnf_rows

SEED = 20261017
CONTEXTS = ((2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 8))
HOM_RANKS = (4, 8, 12, 16)
NAMES = (
    "fields.ctx_build_s", "fields.mul_us.q4", "fields.mul_us.q256",
    "fields.inv_us.q256", "poly.decompose_us.f2x",
    "submodules.hnf_ms.f2x_6x4", "poly.buchberger_ms.f3_cubics",
) + tuple(f"cartier.hom_s.r{r}" for r in HOM_RANKS) + ("functors.sol_s.m4",)


def _median_time(fn, repeats, inner=1):
    """Median over ``repeats`` of the mean time of ``inner`` calls, each
    repeat scaled to the reference machine speed (see calibrate.py)."""
    samples = []
    before = calibrate.probe()
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        raw = (time.perf_counter() - t0) / inner
        after = calibrate.probe()
        samples.append(raw * calibrate.REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def _random_finite_module(rng, ctx, rank):
    ring = cl.PolyRing(ctx, ())
    table = {
        ((), j): tuple(ring.scalar(ctx.random_element(rng))
                       for _ in range(rank))
        for j in range(rank)
    }
    return cl.CartierModule(ring, rank, table)


def _nonzero_pairs(rng, ctx, n):
    out = []
    while len(out) < n:
        a, b = ctx.random_element(rng), ctx.random_element(rng)
        if not a.is_zero() and not b.is_zero():
            out.append((a, b))
    return out


def measure():
    rng = random.Random(SEED)
    out = {}
    out["fields.ctx_build_s"] = _median_time(
        lambda: [FrobeniusContext(p, e) for p, e in CONTEXTS], 3)

    for q, (p, e) in ((4, (2, 2)), (256, (2, 8))):
        pairs = _nonzero_pairs(rng, cl.Fq(p, e), 200)

        def mul(pairs=pairs):
            for a, b in pairs:
                a * b
        out[f"fields.mul_us.q{q}"] = _median_time(mul, 7, 10) / 200 * 1e6
    pairs = _nonzero_pairs(rng, cl.Fq(2, 8), 200)

    def inv():
        for a, _ in pairs:
            a.inv()
    out["fields.inv_us.q256"] = _median_time(inv, 7, 5) / 200 * 1e6

    f2x = cl.PolyRing(cl.Fq(2, 1), ("x",))
    small = f2x.parse("x^7+x^4+x^3+x+1")
    out["poly.decompose_us.f2x"] = _median_time(
        lambda: frobenius_decompose(small), 7, 200) * 1e6

    vectors = [
        tuple(f2x.random_poly(rng, max_degree=4) for _ in range(4))
        for _ in range(6)
    ]
    out["submodules.hnf_ms.f2x_6x4"] = _median_time(
        lambda: hnf_rows(vectors, 4, f2x), 7) * 1e3

    f3xyz = cl.PolyRing(cl.Fq(3, 1), ("x", "y", "z"))
    cubics = [f3xyz.parse(s) for s in
              ("x^2*y+2*y*z+1", "x*y^2+z^2", "y^2*z+x+2")]
    out["poly.buchberger_ms.f3_cubics"] = _median_time(
        lambda: buchberger(cubics), 7) * 1e3

    f2 = cl.Fq(2, 1)
    for r in HOM_RANKS:
        module = _random_finite_module(rng, f2, r)
        out[f"cartier.hom_s.r{r}"] = _median_time(
            lambda module=module: cl.hom_cartier(module, module),
            3 if r < 12 else 1)

    module = _random_finite_module(rng, cl.Fq(2, 2), 8)
    out["functors.sol_s.m4"] = _median_time(
        lambda: cl.sol_dimension(module, 4), 3)
    return out
