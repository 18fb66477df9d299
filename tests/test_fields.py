"""Tests for finite field arithmetic, Frobenius, and semilinear maps."""

import itertools
import random

import numpy as np
import pytest

from cartier_lab.errors import ContextMismatchError, ValidationError
from cartier_lab.fields import (
    Fq,
    P_INV_LINEAR,
    P_LINEAR,
    SemilinearMap,
    fixed_points_dimension,
    fq_rref,
    is_nilpotent_semilinear,
)

SEED = 4021


# ------------------------------------------------------------- field basics


@pytest.mark.parametrize(
    "p,e,modulus",
    [
        (2, 2, "t^2+t+1"),
        (2, 3, "t^3+t+1"),
        (2, 4, "t^4+t+1"),
        (3, 2, "t^2+1"),
        (3, 3, "t^3+2*t+1"),
        (5, 2, "t^2+2"),
    ],
)
def test_modulus_is_first_monic_irreducible(p, e, modulus):
    """The defining polynomial is pinned: first monic irreducible of
    degree e in the coefficient-tuple enumeration order.  Values frozen
    after checking irreducibility by hand (no roots / no factors).  The
    modulus is monic; its lower terms print as the element t^e."""
    ctx = Fq(p, e)
    assert ctx.modulus[e] == 1
    assert f"t^{e}+{ctx.from_coords(ctx.modulus[:e])}" == modulus


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 3)])
def test_field_axioms_on_random_triples(p, e):
    ctx = Fq(p, e)
    rng = random.Random(SEED + p * 10 + e)
    for _ in range(30):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        c = ctx.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inv() == ctx.scalar(1)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_element_count_and_int_roundtrip(p, e):
    ctx = Fq(p, e)
    elems = list(ctx.elements())
    assert len(elems) == p**e
    assert len(set(el.to_int() for el in elems)) == p**e
    for i in range(p**e):
        assert ctx.from_int(i).to_int() == i


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_frobenius_is_pth_power_with_order_e(p, e):
    ctx = Fq(p, e)
    for a in ctx.elements():
        assert ctx.frobenius(a) == a**p
        assert ctx.frobenius_inv(ctx.frobenius(a)) == a
        b = a
        for _ in range(e):
            b = ctx.frobenius(b)
        assert b == a  # Frobenius has order e on F_{p^e}


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2)])
def test_frobenius_is_additive_and_multiplicative(p, e):
    ctx = Fq(p, e)
    for a, b in itertools.product(ctx.elements(), repeat=2):
        assert ctx.frobenius(a + b) == ctx.frobenius(a) + ctx.frobenius(b)
        assert ctx.frobenius(a * b) == ctx.frobenius(a) * ctx.frobenius(b)


def test_prime_field_membership():
    """The prime field is the fixed field of the Frobenius, and its
    elements are the codes below p."""
    ctx = Fq(2, 2)
    t = ctx.from_coords((0, 1))
    assert ctx.frobenius(ctx.scalar(1)) == ctx.scalar(1)
    assert ctx.frobenius(t) != t
    for a in ctx.elements():
        assert (ctx.frobenius(a) == a) == (a.to_int() < ctx.p)


def test_context_mismatch_is_rejected():
    a = Fq(2, 2).scalar(1)
    b = Fq(3, 1).scalar(1)
    with pytest.raises((ValidationError, ContextMismatchError)):
        a + b


# --------------------------------------------------------- semilinear maps


def _law_holds(T, rng, trials):
    """Spot-check the twist law T(a v) = twist(a) T(v) on random data."""
    ctx = T.ctx
    for _ in range(trials):
        a = ctx.random_element(rng)
        v = tuple(ctx.random_element(rng) for _ in range(T.dim))
        lhs = T.apply(tuple(a * x for x in v))
        if lhs != tuple(T.twist(a) * y for y in T.apply(v)):
            return False
    return True


def _mat(ctx, ints):
    return tuple(tuple(ctx.from_int(v) for v in row) for row in ints)


def test_semilinear_law_p_linear():
    ctx = Fq(2, 2)
    T = SemilinearMap(ctx, P_LINEAR, _mat(ctx, [[2, 0], [0, 1]]))
    rng = random.Random(SEED)
    assert _law_holds(T, rng, trials=40)
    for _ in range(20):
        c = ctx.random_element(rng)
        v = (ctx.random_element(rng), ctx.random_element(rng))
        left = T.apply(tuple(c * x for x in v))
        right = tuple(ctx.frobenius(c) * y for y in T.apply(v))
        assert left == right


def test_semilinear_law_p_inv_linear():
    ctx = Fq(3, 2)
    T = SemilinearMap(ctx, P_INV_LINEAR, _mat(ctx, [[1, 3], [0, 2]]))
    rng = random.Random(SEED + 1)
    assert _law_holds(T, rng, trials=40)
    for _ in range(20):
        c = ctx.random_element(rng)
        v = (ctx.random_element(rng), ctx.random_element(rng))
        left = T.apply(tuple((c**3) * x for x in v))
        right = tuple(c * y for y in T.apply(v))
        assert left == right


def test_nilpotency_of_semilinear_maps():
    ctx = Fq(2, 2)
    shift = SemilinearMap(ctx, P_INV_LINEAR, _mat(ctx, [[0, 0], [1, 0]]))
    nil, order, ranks = is_nilpotent_semilinear(shift)
    assert nil and order == 2
    assert ranks == [2, 1, 0]  # strictly descending rank chain
    ident = SemilinearMap(ctx, P_INV_LINEAR, _mat(ctx, [[1, 0], [0, 1]]))
    nil, _, _ = is_nilpotent_semilinear(ident)
    assert not nil


def test_nilpotency_respects_twisted_iteration():
    """A map whose square is zero only because of the Frobenius twist:
    T(e1) = t*e2, T(e2) = 0 has T^2(e1) = frob(t)*T(e2) = 0."""
    ctx = Fq(2, 2)
    t = ctx.from_coords((0, 1))
    mat = ((ctx.scalar(0), ctx.scalar(0)), (t, ctx.scalar(0)))
    T = SemilinearMap(ctx, P_LINEAR, mat)
    nil, order, _ = is_nilpotent_semilinear(T)
    assert nil and order == 2


# ------------------------------------------- fixed points over extensions


def test_identity_map_has_prime_field_fixed_points():
    """v = v^p over F_{p^m} has exactly the prime field as solutions,
    so the F_p-dimension is 1 for every m."""
    for p in (2, 3):
        ctx = Fq(p, 1)
        T = SemilinearMap(ctx, P_LINEAR, ((ctx.scalar(1),),))
        for m in range(1, 5):
            assert fixed_points_dimension(T, m) == 1


def test_zero_map_has_no_fixed_points():
    ctx = Fq(2, 1)
    T = SemilinearMap(ctx, P_LINEAR, ((ctx.scalar(0),),))
    for m in range(1, 4):
        assert fixed_points_dimension(T, m) == 0


def test_extension_degree_must_be_positive():
    ctx = Fq(2, 1)
    T = SemilinearMap(ctx, P_LINEAR, ((ctx.scalar(1),),))
    with pytest.raises(ValidationError, match="at least 1"):
        fixed_points_dimension(T, 0)


def _extension(ctx, m):
    """F_{q^m} as the tables of Fq(p, e m), with F_q embedded through the
    first root of ctx.modulus found by search."""
    big = Fq(ctx.p, ctx.e * m)

    def poly(coeffs, x):
        return sum((big.scalar(c) * x**k for k, c in enumerate(coeffs)), big.zero)

    root = next(x for x in big.elements() if poly(ctx.modulus, x).is_zero())
    return big, lambda a: poly(a.coords, root)


def _count_fixed_vectors(T, m):
    """|{v in F_{q^m}^r : v = A tw(v)}| by enumeration, tw the Frobenius
    x -> x^p for P_LINEAR and the p-th root for P_INV_LINEAR."""
    big, embed = _extension(T.ctx, m)
    emb = [[embed(a) for a in row] for row in T.matrix]
    count = 0
    for v in itertools.product(list(big.elements()), repeat=T.dim):
        if T.kind == P_LINEAR:
            tw = [x.frob() for x in v]
        else:
            tw = [x.frob_inv() for x in v]
        image = [sum((a * x for a, x in zip(row, tw)), big.zero) for row in emb]
        count += image == list(v)
    return count


@pytest.mark.parametrize("m,expected", [(1, 0), (2, 0), (3, 2)])
def test_fixed_points_against_brute_force_over_f4(m, expected):
    """T(v1, v2) = (v2^2, t v1^2) over F_4.  Fixed vectors need
    v1 = v2^2 and v2 = t v1^2, i.e. v1^4 = t^{-1} ... the count was
    verified by the exhaustive search over F_{4^m}."""
    ctx = Fq(2, 2)
    t = ctx.from_coords((0, 1))
    mat = ((ctx.scalar(0), ctx.scalar(1)), (t, ctx.scalar(0)))
    T = SemilinearMap(ctx, P_LINEAR, mat)
    dim = fixed_points_dimension(T, m)
    assert dim == expected
    assert _count_fixed_vectors(T, m) == 2**dim


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("m", [1, 2])
def test_fixed_points_of_random_maps_against_brute_force(p, e, m):
    """Random 2x2 maps of both kinds, p-linear and p^{-1}-linear: the
    F_p-dimension dim ker(B^m - I) matches a count of the fixed vectors of
    F_{q^m}^2."""
    ctx = Fq(p, e)
    rng = random.Random(SEED + 31 * p + 7 * e + m)
    for kind in (P_LINEAR, P_INV_LINEAR):
        for _ in range(4):
            mat = [[ctx.random_element(rng) for _ in range(2)]
                   for _ in range(2)]
            T = SemilinearMap(ctx, kind, mat)
            dim = fixed_points_dimension(T, m)
            assert _count_fixed_vectors(T, m) == p ** dim, (kind, mat)


# ------------------------------------------------------- F_q linear algebra


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_fp_blocks_apply_the_twisted_matrix(p, e):
    """fp_blocks(digits(A), kind) times digits(v) is the digits of A v, of
    A v^p for P_LINEAR and of A v^(1/p) for P_INV_LINEAR, by element
    arithmetic, for a batch of random 2 x 3 matrices A over F_q."""
    ctx = Fq(p, e)
    rng = random.Random(SEED + 53 * p + e)
    twists = {None: lambda a: a, P_LINEAR: ctx.frobenius,
              P_INV_LINEAR: ctx.frobenius_inv}
    for kind, twist in twists.items():
        for _ in range(5):
            mats = [[[ctx.random_element(rng) for _ in range(3)]
                     for _ in range(2)] for _ in range(4)]
            v = [ctx.random_element(rng) for _ in range(3)]
            codes = np.array([[[a.code for a in row] for row in mat]
                              for mat in mats], dtype=np.int64)
            blocks = ctx.fp_blocks(ctx._digits[codes], kind)
            assert blocks.shape == (4, 2, e, 3, e)
            got = blocks.reshape(4, 2 * e, 3 * e) @ ctx._digits[
                [x.code for x in v]].ravel() % p
            want = [[sum((a * twist(x) for a, x in zip(row, v)), ctx.zero)
                     .coords for row in mat] for mat in mats]
            assert got.tolist() == np.array(want).reshape(4, 2 * e).tolist()


def test_fq_rref_and_span_membership():
    ctx = Fq(2, 2)
    t = ctx.from_coords((0, 1))
    rows = [
        (ctx.scalar(1), t),
        (t, t * t),  # t * first row: dependent
        (ctx.scalar(0), ctx.scalar(1)),
    ]
    red = fq_rref(rows, ctx)
    assert len(red) == 2
    assert len(fq_rref(red + ((t, ctx.scalar(0)),), ctx)) == len(red)
    assert len(fq_rref(red + ((ctx.scalar(0), ctx.scalar(0)),), ctx)) == len(red)


def test_fq_rref_random_rank_agreement():
    """Rank over F_q computed by fq_rref matches the rank of the
    p-coordinate expansion (an F_p-linear model of the same system)."""
    ctx = Fq(2, 2)
    rng = random.Random(SEED + 99)
    for _ in range(10):
        rows = [
            tuple(ctx.random_element(rng) for _ in range(3)) for _ in range(4)
        ]
        red = fq_rref(rows, ctx)
        # every original row must reduce into the span
        for row in rows:
            assert len(fq_rref(red + (row,), ctx)) == len(red)
        # and the reduced rows are independent: removing any one loses a row
        for i in range(len(red)):
            others = fq_rref([r for j, r in enumerate(red) if j != i], ctx)
            assert len(fq_rref(others + (red[i],), ctx)) == len(others) + 1


def gauss_jordan_oracle(rows, ctx):
    """Textbook Gauss-Jordan elimination with F_q element arithmetic."""
    rows = [list(v) for v in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_fq_rref_matches_gauss_jordan(p, e):
    """The F_p expansion (rows t^k v) reduces to the F_q RREF exactly."""
    ctx = Fq(p, e)
    rng = random.Random(SEED + 7 * p + e)
    for _ in range(12):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [
            tuple(ctx.random_element(rng) if rng.random() < 0.6 else ctx.zero
                  for _ in range(n))
            for _ in range(m)
        ]
        c = ctx.random_element(rng)
        rows.append(tuple(c * x for x in rows[0]))  # a dependent row
        assert fq_rref(rows, ctx) == gauss_jordan_oracle(rows, ctx)
