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


def python_rref(mat, p):
    """Row reduction oracle on plain lists, no numpy: (the nonzero rows
    of the reduced echelon form, the pivot columns)."""
    m = [[int(v) % p for v in row] for row in mat]
    pivots = []
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for c in range(cols):
        rank = len(pivots)
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
        pivots.append(c)
    return m[: len(pivots)], pivots


def python_rank(mat, p):
    return len(python_rref(mat, p)[1])


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
            assert not (mat @ null.T % p).any()
        # the basis vector of free column f: 1 at f, minus column f of the
        # reduced echelon form at the pivots
        red, pivots = python_rref(mat.tolist(), p)
        free = [f for f in range(mat.shape[1]) if f not in pivots]
        want = [[0] * mat.shape[1] for _ in free]
        for k, f in enumerate(free):
            want[k][f] = 1
            for i, c in enumerate(pivots):
                want[k][c] = -red[i][f] % p
        assert null.tolist() == want
        assert null.shape[0] == mat.shape[1] - kernels.rank_mod_p(mat, p)
        if null.shape[0]:
            assert kernels.rank_mod_p(null, p) == null.shape[0]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_matches_python_oracle(p):
    """The whole reduced matrix and its pivots, on random matrices up to
    40 x 60, some with dependent rows and columns."""
    rng = random.Random(SEED + 3 * p)
    for trial in range(12):
        rows, cols = rng.randrange(1, 41), rng.randrange(1, 61)
        mat = random_matrix(rng, rows, cols, p)
        if trial % 3 == 0 and rows > 2 and cols > 2:
            mat[:, 1] = mat[:, 0] * rng.randrange(p) % p
            mat[-1] = (mat[0] + mat[1]) % p
        red, pivots = kernels.rref_mod_p(mat, p)
        want, want_pivots = python_rref(mat.tolist(), p)
        assert pivots.tolist() == want_pivots
        assert red[: len(want)].tolist() == want
        assert not red[len(want):].any()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reversed_nullspace_is_the_rref_of_the_nullspace(p):
    """Each null vector ends in the 1 of its free column, so with the
    columns reversed (and reversed back) the basis is already in reduced
    echelon form, the one ``hom_cartier`` keeps."""
    rng = random.Random(SEED + 5 * p)
    mats = [
        np.zeros((4, 6), dtype=np.int64),
        np.zeros((0, 5), dtype=np.int64),
        np.eye(5, 3, dtype=np.int64),
    ] + [
        random_matrix(rng, rng.randrange(1, 15), rng.randrange(1, 20), p)
        for _ in range(20)
    ]
    for mat in mats:
        null = kernels.nullspace_mod_p(mat, p)
        reversed_null = kernels.nullspace_mod_p(mat[:, ::-1], p)[::-1, ::-1]
        assert np.array_equal(reversed_null, kernels.rref_mod_p(null, p)[0])


def test_empty_matrix_edge_cases():
    empty = np.zeros((0, 4), dtype=np.int64)
    assert kernels.rank_mod_p(empty, 3) == 0
    null = kernels.nullspace_mod_p(empty, 3)
    assert null.shape == (4, 4)
    assert np.array_equal(null, np.eye(4, dtype=np.int64))
