"""Tests for the dense mod-p linear algebra kernels.

Every result is checked against an independent pure-Python Gaussian
elimination written inline here.
"""

import random

import numpy as np
import pytest

from cartier_lab import kernels

PRIMES = [2, 3, 5]
SEED = 20260825


def python_rank(mat, p):
    """Row reduction oracle: plain lists, no numpy."""
    m = [[int(v) % p for v in row] for row in mat]
    rank = 0
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r][c] % p:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][c] % p:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def random_matrix(rng, rows, cols, p):
    return np.array(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )


@pytest.mark.parametrize("p", PRIMES)
def test_rank_matches_python_oracle(p):
    rng = random.Random(SEED + p)
    for _ in range(25):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        mat = random_matrix(rng, rows, cols, p)
        assert kernels.rank_mod_p(mat, p) == python_rank(mat, p)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_is_idempotent_and_preserves_rank(p):
    rng = random.Random(SEED + 10 * p)
    for _ in range(15):
        mat = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7), p)
        red, pivots = kernels.rref_mod_p(mat, p)
        again, pivots2 = kernels.rref_mod_p(red, p)
        assert np.array_equal(red, again)
        assert np.array_equal(pivots, pivots2)
        assert len(pivots) == python_rank(mat, p)
        # pivot columns are unit vectors
        for i, c in enumerate(pivots):
            col = red[:, int(c)]
            assert col[i] == 1
            assert int(col.sum()) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_nullspace_annihilates_and_has_right_dimension(p):
    rng = random.Random(SEED + 100 * p)
    for _ in range(15):
        mat = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7), p)
        null = kernels.nullspace_mod_p(mat, p)
        if null.shape[0]:
            prod = kernels.matmul_mod_p(mat, null.T, p)
            assert not prod.any()
        assert null.shape[0] == mat.shape[1] - kernels.rank_mod_p(mat, p)
        if null.shape[0]:
            assert kernels.rank_mod_p(null, p) == null.shape[0]


@pytest.mark.parametrize("p", PRIMES)
def test_solve_finds_solutions_and_detects_inconsistency(p):
    rng = random.Random(SEED + 1000 * p)
    for _ in range(20):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        mat = random_matrix(rng, rows, cols, p)
        # consistent system: b in the column space by construction
        x0 = np.array([rng.randrange(p) for _ in range(cols)], dtype=np.int64)
        b = kernels.matmul_mod_p(mat, x0.reshape(-1, 1), p).ravel()
        x = kernels.solve_mod_p(mat, b, p)
        assert x is not None
        assert np.array_equal(kernels.matmul_mod_p(mat, x.reshape(-1, 1), p).ravel(), b)
        # inconsistency detection agrees with the rank criterion
        b2 = np.array([rng.randrange(p) for _ in range(rows)], dtype=np.int64)
        aug = np.hstack([mat, b2.reshape(-1, 1)])
        solvable = python_rank(aug, p) == python_rank(mat, p)
        assert (kernels.solve_mod_p(mat, b2, p) is not None) == solvable


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_roundtrip_and_singular_rejection(p):
    rng = random.Random(SEED + 7 * p)
    found = 0
    while found < 8:
        n = rng.randrange(1, 6)
        mat = random_matrix(rng, n, n, p)
        inv = kernels.inv_mod_p(mat, p)
        if kernels.rank_mod_p(mat, p) < n:
            assert inv is None
            continue
        assert inv is not None
        ident = np.eye(n, dtype=np.int64)
        assert np.array_equal(kernels.matmul_mod_p(mat, inv, p), ident)
        assert np.array_equal(kernels.matmul_mod_p(inv, mat, p), ident)
        found += 1


def test_empty_matrix_edge_cases():
    empty = np.zeros((0, 4), dtype=np.int64)
    assert kernels.rank_mod_p(empty, 3) == 0
    null = kernels.nullspace_mod_p(empty, 3)
    assert null.shape == (4, 4)
    assert np.array_equal(null, np.eye(4, dtype=np.int64))
