"""The table arithmetic of F_q against a schoolbook reference, the field
size cap, and context identity.

The reference works on coordinate tuples over the power basis: sums are
coordinatewise, products are convolutions reduced by ``ctx.modulus``, the
p-th power is found by square and multiply, and the inverse by search.
It shares nothing with the element tables but the modulus."""

import itertools
import random
import time

import pytest

from cartier_lab.errors import CapExceeded, ContextMismatchError
from cartier_lab.fields import Fq, FrobeniusContext
from cartier_lab.poly import PolyRing

SEED = 4022


def _digits(code, p, e):
    return tuple((code // p**i) % p for i in range(e))


def ref_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def ref_neg(a, p):
    return tuple((-x) % p for x in a)


def ref_mul(a, b, ctx):
    p, e, mod = ctx.p, ctx.e, ctx.modulus
    conv = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * e - 2, e - 1, -1):  # t^e = -(m_0 + ... + m_{e-1} t^{e-1})
        c = conv.pop()
        for i in range(e):
            conv[k - e + i] -= c * mod[i]
    return tuple(c % p for c in conv)


def ref_frob(a, ctx):
    """a^p by square and multiply."""
    out, n = _digits(1, ctx.p, ctx.e), ctx.p
    while n:
        if n & 1:
            out = ref_mul(out, a, ctx)
        a, n = ref_mul(a, a, ctx), n >> 1
    return out


def ref_inverses(ctx):
    """{a: a^-1} by searching all pairs."""
    elems = [_digits(c, ctx.p, ctx.e) for c in range(1, ctx.q)]
    one = _digits(1, ctx.p, ctx.e)
    return {a: next(b for b in elems if ref_mul(a, b, ctx) == one)
            for a in elems}


def ref_str(a):
    parts = []
    for i in range(len(a) - 1, -1, -1):
        if a[i]:
            tpow = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            coeff = "" if a[i] == 1 and i else str(a[i])
            parts.append(coeff + ("*" if coeff and tpow else "") + tpow)
    return "+".join(parts) or "0"


def _check_element(ctx, x, inverses=None):
    a = _digits(x.to_int(), ctx.p, ctx.e)
    assert ctx.from_int(x.to_int()) is x
    assert x.coords == a
    assert str(x) == ref_str(a)
    assert (-x).coords == ref_neg(a, ctx.p)
    assert x.frob().coords == ref_frob(a, ctx)
    assert ref_frob(x.frob_inv().coords, ctx) == a
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inv()
    elif inverses is not None:
        assert x.inv().coords == inverses[a]
    else:
        assert ref_mul(a, x.inv().coords, ctx) == _digits(1, ctx.p, ctx.e)


def _check_pair(ctx, x, y):
    a, b = x.coords, y.coords
    assert (x + y).coords == ref_add(a, b, ctx.p)
    assert (x - y).coords == ref_add(a, ref_neg(b, ctx.p), ctx.p)
    assert (x * y).coords == ref_mul(a, b, ctx)


SMALL = [
    (p, e)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79)
    for e in range(1, 7)
    if p**e <= 81
]


@pytest.mark.parametrize("p,e", SMALL)
def test_tables_match_schoolbook_on_every_pair(p, e):
    ctx = Fq(p, e)
    elems = list(ctx.elements())
    assert [x.to_int() for x in elems] == list(range(ctx.q))
    inverses = ref_inverses(ctx)
    for x in elems:
        _check_element(ctx, x, inverses)
    for x, y in itertools.product(elems, repeat=2):
        _check_pair(ctx, x, y)


@pytest.mark.parametrize("p,e", [(2, 8), (3, 5), (251, 2), (2, 12)])
def test_tables_match_schoolbook_on_random_pairs(p, e):
    ctx = Fq(p, e)
    rng = random.Random(SEED + p + e)
    for _ in range(2000):
        x, y = ctx.random_element(rng), ctx.random_element(rng)
        _check_element(ctx, x)
        _check_pair(ctx, x, y)


def test_field_size_is_capped_before_the_modulus_search():
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match="exceeds 65536"):
        FrobeniusContext(101, 6)
    assert time.perf_counter() - t0 < 1.0


def test_huge_degree_is_capped_without_computing_q():
    """One rule for every base field, q = p^e <= 2^16; e is checked first,
    so 2^(10^9) is never evaluated."""
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match="exceeds 65536"):
        Fq(2, 10**9)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("p,e", [(251, 2), (13, 4), (3, 8), (65521, 1)])
def test_fields_under_the_cap_build_quickly(p, e):
    t0 = time.perf_counter()
    ctx = FrobeniusContext(p, e)
    assert time.perf_counter() - t0 < 1.0
    # the logarithm base generates the multiplicative group
    g, one = ctx._pow[1].coords, ctx.one.coords
    power, seen = one, set()
    for _ in range(ctx.q - 1):
        seen.add(power)
        power = ref_mul(power, g, ctx)
    assert power == one and len(seen) == ctx.q - 1


def test_contexts_compare_by_identity():
    direct = FrobeniusContext(2, 1)
    assert direct != Fq(2, 1) and Fq(2) is Fq(2, 1)
    f = PolyRing(direct, ("x",)).var(0)
    g = PolyRing(Fq(2, 1), ("x",)).var(0)
    with pytest.raises(ContextMismatchError, match="polynomials over"):
        f + g
    with pytest.raises(ContextMismatchError, match="polynomials over"):
        f * g
    assert f != g
