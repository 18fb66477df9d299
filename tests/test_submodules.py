"""Tests for row-span normal forms, syzygies, linear solves and the
saturation (the torsion preimage) over F_q[x]."""

import hashlib
import random

import pytest

from cartier_lab.errors import UnsupportedRingError, ValidationError
from cartier_lab.fields import Fq
from cartier_lab.poly import PolyRing, divmod_multi
from cartier_lab.submodules import (
    _divmod1,
    _leftmost,
    hnf_extend,
    hnf_rows,
    in_span,
    reduce_vector,
    saturation,
    scalar_rows,
    solve_combination,
    solve_combinations,
    span_equal,
    syzygy_generators,
    vec_add,
    vec_scale,
    zero_vector,
)

SEED = 5150


def univariate(p):
    return PolyRing(Fq(p, 1), ("x",))


# F_2[x], F_3[x], F_4[x], F_9[x] and the constant rings F_2, F_4
KERNEL_RINGS = [(2, 1, ("x",)), (3, 1, ("x",)), (2, 2, ("x",)),
                (3, 2, ("x",)), (2, 1, ()), (2, 2, ())]


def kernel_ring(spec):
    p, e, variables = spec
    return PolyRing(Fq(p, e), variables)


def random_rows(R, rng, count, r, max_degree=3):
    return [
        tuple(R.random_poly(rng, max_degree=max_degree) for _ in range(r))
        for _ in range(count)
    ]


def random_combination(R, rng, rows, r):
    acc = zero_vector(R, r)
    for row in rows:
        acc = vec_add(acc, vec_scale(row, R.random_poly(rng, max_degree=2)))
    return acc


# ------------------------------------------------------------------- spans


@pytest.mark.parametrize("p", [2, 3])
def test_hnf_is_a_canonical_span_representative(p):
    R = univariate(p)
    rng = random.Random(SEED + p)
    for _ in range(15):
        r = rng.randrange(1, 4)
        rows = random_rows(R, rng, rng.randrange(1, 5), r)
        h1 = hnf_rows(rows, r, R)
        # same span, different presentation: shuffle and add combinations
        shuffled = list(rows)
        rng.shuffle(shuffled)
        shuffled.append(random_combination(R, rng, rows, r))
        h2 = hnf_rows(shuffled, r, R)
        assert span_equal(h1, h2)
        assert h1 == hnf_rows(h1, r, R)  # idempotent


@pytest.mark.parametrize("p", [2, 3])
def test_membership_detects_combinations(p):
    R = univariate(p)
    rng = random.Random(SEED + 10 * p)
    for _ in range(20):
        r = rng.randrange(1, 4)
        rows = random_rows(R, rng, rng.randrange(1, 4), r)
        h = hnf_rows(rows, r, R)
        combo = random_combination(R, rng, rows, r)
        assert in_span(combo, h, R)
        assert reduce_vector(combo, h, R) == tuple(zero_vector(R, r))


def test_membership_negative_case():
    R = univariate(2)
    x = R.parse("x")
    h = hnf_rows([(x, R.zero), (R.zero, x)], 2, R)
    assert not in_span((R.one, R.zero), h, R)
    assert in_span((x * x, x), h, R)


def test_reduce_vector_is_linear_over_the_span():
    R = univariate(3)
    rng = random.Random(SEED + 3)
    rows = random_rows(R, rng, 2, 3)
    h = hnf_rows(rows, 3, R)
    for _ in range(10):
        v = tuple(R.random_poly(rng, max_degree=3) for _ in range(3))
        w = random_combination(R, rng, rows, 3)
        assert reduce_vector(vec_add(v, w), h, R) == reduce_vector(v, h, R)


def test_multivariate_rings_are_rejected():
    """Span machinery is principal-ideal-domain only; rings with two or
    more variables must be refused loudly, never silently mishandled."""
    R = PolyRing(Fq(2, 1), ("x", "y"))
    x, y = R.parse("x"), R.parse("y")
    with pytest.raises(UnsupportedRingError):
        hnf_rows([(x,), (y,)], 1, R)


# ---------------------------------------------------------------- syzygies


@pytest.mark.parametrize("p", [2, 3])
def test_syzygies_annihilate_modulo_relations(p):
    R = univariate(p)
    rng = random.Random(SEED + 100 * p)
    for _ in range(10):
        r = rng.randrange(1, 3)
        gens = random_rows(R, rng, rng.randrange(1, 4), r)
        rels = random_rows(R, rng, rng.randrange(0, 3), r, max_degree=2)
        rel_h = hnf_rows(rels, r, R)
        syz = syzygy_generators(gens, rels, r, R)
        for coeffs in syz:
            assert len(coeffs) == len(gens)
            acc = zero_vector(R, r)
            for c, g in zip(coeffs, gens):
                acc = vec_add(acc, vec_scale(g, c))
            assert in_span(acc, rel_h, R)


def test_syzygy_of_dependent_generators_is_found():
    R = univariate(2)
    x = R.parse("x")
    # g2 = x * g1: the syzygy module contains (x, 1) up to span
    gens = [(R.one, x), (x, x * x)]
    syz = syzygy_generators(gens, [], 2, R)
    assert syz, "dependent generators must admit a syzygy"
    found = hnf_rows(syz, len(gens), R)
    assert in_span((x, R.one), found, R)


# -------------------------------------------------------- solve_combination


@pytest.mark.parametrize("p", [2, 3])
def test_solve_combination_reconstructs(p):
    R = univariate(p)
    rng = random.Random(SEED + 1000 * p)
    for _ in range(15):
        r = rng.randrange(1, 3)
        gens = random_rows(R, rng, rng.randrange(1, 4), r)
        rels = random_rows(R, rng, rng.randrange(0, 2), r, max_degree=1)
        rel_h = hnf_rows(rels, r, R)
        target = random_combination(R, rng, gens, r)
        coeffs = solve_combination(gens, rels, target, r, R)
        assert coeffs is not None
        acc = zero_vector(R, r)
        for c, g in zip(coeffs, gens):
            acc = vec_add(acc, vec_scale(g, c))
        diff = vec_add(target, vec_scale(acc, -R.one))
        assert in_span(diff, rel_h, R)


def test_solve_combination_reports_failure():
    R = univariate(2)
    x = R.parse("x")
    assert solve_combination([(x, R.zero)], [], (R.one, R.zero), 2, R) is None


def _is_hnf(rows, R):
    """Nonzero rows with strictly increasing pivot columns, monic pivots,
    and every entry above a pivot of smaller degree than the pivot."""
    cols = [_leftmost(row) for row in rows]
    if None in cols or cols != sorted(set(cols)):
        return False
    for k, col in enumerate(cols):
        pivot = rows[k][col]
        if pivot.leading()[1] != R.ctx.one:
            return False
        if any(rows[j][col].terms and max(rows[j][col].terms) >= max(
                pivot.terms) for j in range(k)):
            return False
    return True


@pytest.mark.parametrize("spec", KERNEL_RINGS, ids=str)
def test_hnf_extend_equals_the_hnf_of_the_union(spec):
    R = kernel_ring(spec)
    rng = random.Random(SEED + 31 * spec[0] + spec[1] + len(spec[2]))
    inside = 0
    for trial in range(25):
        r = rng.randrange(1, 4)
        A = random_rows(R, rng, rng.randrange(0, 4), r)
        if trial % 3 == 0:  # B lies in the span of A
            B = [random_combination(R, rng, A, r) for _ in range(3)]
        else:
            B = random_rows(R, rng, rng.randrange(0, 4), r)
        hnf = hnf_rows(A, r, R)
        extended = hnf_extend(hnf, B, r, R)
        assert extended == hnf_rows(A + B, r, R)
        assert _is_hnf(extended, R)
        if all(in_span(v, hnf, R) for v in B):
            inside += 1
            assert extended == hnf
    assert inside >= 8


@pytest.mark.parametrize("spec", KERNEL_RINGS, ids=str)
def test_solve_combinations_equals_each_solve_combination(spec):
    R = kernel_ring(spec)
    rng = random.Random(SEED + 37 * spec[0] + spec[1] + len(spec[2]))
    found = {"solved": 0, "none": 0}
    for _ in range(15):
        r = rng.randrange(1, 4)
        gens = random_rows(R, rng, rng.randrange(0, 3), r)
        rels = random_rows(R, rng, rng.randrange(0, 2), r, max_degree=1)
        targets = [random_combination(R, rng, gens, r) for _ in range(2)]
        targets += random_rows(R, rng, 2, r)
        solutions = solve_combinations(gens, rels, targets, r, R)
        assert solutions == [
            solve_combination(gens, rels, t, r, R) for t in targets
        ]
        rel_h = hnf_rows(rels, r, R)
        for target, coeffs in zip(targets, solutions):
            if coeffs is None:
                found["none"] += 1
                continue
            found["solved"] += 1
            acc = zero_vector(R, r)
            for c, g in zip(coeffs, gens):
                acc = vec_add(acc, vec_scale(g, c))
            assert in_span(vec_add(target, vec_scale(acc, -R.one)), rel_h, R)
    assert found["solved"] >= 20 and found["none"] >= 1


@pytest.mark.parametrize("spec", KERNEL_RINGS, ids=str)
def test_divmod1_equals_multivariate_division(spec):
    R = kernel_ring(spec)
    rng = random.Random(SEED + 41 * spec[0] + spec[1] + len(spec[2]))
    for _ in range(60):
        a = R.random_poly(rng, max_degree=6, max_terms=5)
        d = R.random_poly(rng, max_degree=3, max_terms=3)
        if d.is_zero():
            with pytest.raises(ValidationError, match="zero polynomial"):
                _divmod1(a, d)
            continue
        quots, rem = divmod_multi(a, [d])
        assert _divmod1(a, d) == (quots[0], rem)
    with pytest.raises(ValidationError, match="zero polynomial"):
        _divmod1(R.one, R.zero)


# -------------------------------------------------------------- saturation


def test_saturation_splits_torsion_and_free():
    """R^2 / <(x^2, 0)> is R/(x^2) plus a free R: the saturation is the
    first coordinate line, and the torsion it leaves is R/(x^2)."""
    R = univariate(2)
    x = R.parse("x")
    sat = saturation([(x * x, R.zero)], 2, R)
    assert sat == ((R.one, R.zero),)
    assert syzygy_generators(list(sat), [(x * x, R.zero)], 2, R) == [(x * x,)]


def test_saturation_of_free_module():
    R = univariate(3)
    assert saturation([], 2, R) == ()


def test_saturation_edge_cases():
    R = univariate(2)
    x = R.parse("x")
    # zero rows span N = 0, which is saturated
    assert saturation([(R.zero, R.zero)] * 2, 2, R) == ()
    # relations of full rank: R^r / N is all torsion
    full = [(x, R.one), (R.zero, x * x + R.one)]
    assert saturation(full, 2, R) == hnf_rows(scalar_rows(R, 2, R.one), 2, R)
    # rank 0
    assert saturation([], 0, R) == ()
    assert saturation([()], 0, R) == ()
    with pytest.raises(UnsupportedRingError):
        saturation([], 1, PolyRing(Fq(2, 1), ("x", "y")))


# F_2[x], F_3[x], F_4[x], F_5[x] and F_9[x]
SATURATION_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


def saturation_inputs():
    """Seeded (ring, rank, relation rows): in every other set each row is
    kept or scaled by one common nonconstant factor h, which adds torsion
    along the scaled rows."""
    rng = random.Random(SEED + 777)
    for p, e in SATURATION_FIELDS:
        R = PolyRing(Fq(p, e), ("x",))
        x = R.var(0)
        for trial in range(60):
            r = rng.randrange(1, 4)
            rows = random_rows(R, rng, rng.randrange(0, 4), r, max_degree=2)
            if trial % 2:
                h = x * R.random_poly(rng, max_degree=1) + R.one
                rows = [vec_scale(row, h) if rng.randrange(2) else row
                        for row in rows]
            yield R, r, rows


def test_saturation_is_the_torsion_preimage():
    """The saturation contains N, each of its rows has a nonzero multiple
    in N, and it is saturated itself: R^r / sat(N) is torsion free."""
    torsion = 0
    for R, r, rows in saturation_inputs():
        sat = saturation(rows, r, R)
        rel_h = hnf_rows(rows, r, R)
        assert all(in_span(v, sat, R) for v in rel_h)
        for v in sat:
            assert syzygy_generators([v], rows, r, R)
        assert saturation(sat, r, R) == sat
        torsion += sat != rel_h
    assert torsion >= 100


# sha256 over the HNF of sat(N) for every set of saturation_inputs,
# recorded from the torsion columns of the Smith normal form (the
# canonical coordinates with a nonconstant invariant factor, mapped back
# to R^r) together with the relations, before Smith left the package
SATURATION_PIN = (
    "79e8d8b68d19d9d91bd6cce27bf51c70487dd4ce7287d610899608690c2e02b9"
)


def test_saturation_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for R, r, rows in saturation_inputs():
        span = saturation(rows, r, R)
        digest.update(repr([[str(f) for f in row] for row in span]).encode())
    assert digest.hexdigest() == SATURATION_PIN
