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


# ------------------------------------------------- forced-zero pre-pass


def rref_nullspace(mat, p):
    """The nullspace read off ``rref_mod_p`` of the whole matrix: 1 at
    each free column f, minus column f of the RREF at the pivots."""
    red, pivots = kernels.rref_mod_p(mat, p)
    n = mat.shape[1]
    free = [f for f in range(n) if f not in set(pivots.tolist())]
    null = np.zeros((len(free), n), dtype=np.int64)
    for k, f in enumerate(free):
        null[k, f] = 1
        null[k, pivots] = -red[: pivots.size, f] % p
    return null


def nonzero(rng, p):
    return rng.randrange(1, p)


def sparse_system(rng, p, chain, dense, zero_rows, coupled):
    """(matrix, shape left for the elimination).  A cascade of ``chain``
    rows: row 0 has one nonzero, row i > 0 has nonzeros at columns i - 1
    and i, so each peeled column leaves the next row with one nonzero.
    Next to it a ``dense`` x (dense + 1) block of nonzeros, where no row
    has one nonzero; when ``coupled`` its rows also meet the cascade's
    columns.  Then ``zero_rows`` zero rows, two zero columns, and rows
    and columns shuffled."""
    width = dense + 1 if dense else 0
    rows, cols = chain + dense + zero_rows, chain + width + 2
    mat = np.zeros((rows, cols), dtype=np.int64)
    for i in range(chain):
        mat[i, i] = nonzero(rng, p)
        if i:
            mat[i, i - 1] = nonzero(rng, p)
    for i in range(dense):
        for j in range(width):
            mat[chain + i, chain + j] = nonzero(rng, p)
        if coupled and chain:
            mat[chain + i, rng.randrange(chain)] = nonzero(rng, p)
    mat = mat[rng.sample(range(rows), rows)][:, rng.sample(range(cols), cols)]
    return mat, (dense, width + 2)


def checked_nullspace(mat, p, monkeypatch):
    """``nullspace_mod_p`` of ``mat``, checked against the whole matrix's
    RREF and the inline oracle; returns it with the shapes that reached
    ``_rref``."""
    shapes = []
    rref = kernels._rref

    def recording(m, q):
        shapes.append(m.shape)
        return rref(m, q)

    monkeypatch.setattr(kernels, "_rref", recording)
    null = kernels.nullspace_mod_p(mat, p)
    monkeypatch.setattr(kernels, "_rref", rref)
    assert null.dtype == np.int64
    assert np.array_equal(null, rref_nullspace(mat, p))
    rank = len(python_rref(mat.tolist(), p)[1])
    assert null.shape == (mat.shape[1] - rank, mat.shape[1])
    if null.size:
        assert not (mat @ null.T % p).any()
    return null, shapes


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cascading_singletons_are_peeled_to_the_end(p, monkeypatch):
    """Every cascade column is peeled, over as many rounds as the cascade
    is long, and only the block without singleton rows is eliminated;
    with ``coupled`` the block's rows lose their cascade entries first."""
    rng = random.Random(SEED + 7 * p)
    for trial in range(24):
        chain, dense = rng.randrange(2, 9), rng.randrange(0, 5)
        mat, left = sparse_system(
            rng, p, chain, dense, zero_rows=trial % 3, coupled=trial % 2
        )
        _, shapes = checked_nullspace(mat, p, monkeypatch)
        assert shapes == [left]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_zero_rows_never_reach_the_elimination(p, monkeypatch):
    rng = random.Random(SEED + 11 * p)
    for _ in range(10):
        rows, cols = rng.randrange(2, 8), rng.randrange(2, 8)
        mat = np.zeros((rows, cols), dtype=np.int64)
        mat[0] = [nonzero(rng, p) for _ in range(cols)]
        _, shapes = checked_nullspace(mat, p, monkeypatch)
        assert shapes == [(1, cols)]
        _, shapes = checked_nullspace(0 * mat, p, monkeypatch)
        assert shapes == [(0, cols)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_full_rank_triangular_matrix_is_peeled_whole(p, monkeypatch):
    """A permuted lower-triangular matrix with a nonzero diagonal: every
    column is forced, the kernel is zero and nothing is eliminated."""
    rng = random.Random(SEED + 13 * p)
    for _ in range(10):
        n = rng.randrange(1, 12)
        mat = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            mat[i, i] = nonzero(rng, p)
            for j in range(i):
                mat[i, j] = rng.randrange(p)
        mat = mat[rng.sample(range(n), n)][:, rng.sample(range(n), n)]
        null, shapes = checked_nullspace(mat, p, monkeypatch)
        assert null.shape == (0, n)
        assert shapes == [(0, 0)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a_matrix_without_singleton_rows_is_eliminated_whole(p, monkeypatch):
    rng = random.Random(SEED + 17 * p)
    for _ in range(10):
        rows, cols = rng.randrange(1, 9), rng.randrange(2, 9)
        mat = np.array(
            [[nonzero(rng, p) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        _, shapes = checked_nullspace(mat, p, monkeypatch)
        assert shapes == [(rows, cols)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sparse_random_nullspaces_match_the_whole_rref(p, monkeypatch):
    """Sparse random matrices, where some rows peel and some do not."""
    rng = random.Random(SEED + 19 * p)
    for _ in range(40):
        rows, cols = rng.randrange(1, 12), rng.randrange(1, 12)
        mat = np.array(
            [[nonzero(rng, p) if rng.random() < 0.2 else 0
              for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        checked_nullspace(mat, p, monkeypatch)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes(shape):
    null = kernels.nullspace_mod_p(np.zeros(shape, dtype=np.int64), 5)
    assert np.array_equal(null, np.eye(shape[1], dtype=np.int64))


@pytest.mark.parametrize("p, inner, top", [
    (2, 5, False),
    (65521, 24, True),
    (3, 40, False),
    (65521, 5000, False),
    (65521, 5000, True),
])
def test_matmul_matches_python_products(p, inner, top):
    """matmul_mod_p equals the product of Python ints mod p, on the int64
    path (inner dimension at most 24) and on the float64 one, also with
    every entry p - 1, the largest partial sums p = 65521 allows."""
    rng = random.Random(SEED + inner)
    entry = (lambda: p - 1) if top else (lambda: rng.randrange(p))
    a = [[entry() for _ in range(inner)] for _ in range(3)]
    b = [[entry() for _ in range(4)] for _ in range(inner)]
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]
    got = kernels.matmul_mod_p(np.array(a, dtype=np.int64),
                               np.array(b, dtype=np.int64), p)
    assert got.dtype == np.int64 and got.tolist() == want
