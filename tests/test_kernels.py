"""Tests for the mod-p linear algebra kernels.

Every result is checked against an independent pure-Python Gaussian
elimination written inline here.
"""

import random

import numpy as np
import pytest

from cartier_lab import CartierModule, Fq, PolyRing, hom_cartier, kernels

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
                # both rows are zero left of c
                f = m[r][c]
                m[r][c:] = [(a - f * b) % p
                            for a, b in zip(m[r][c:], m[rank][c:])]
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


def sparse_matrix(rng, rows, cols, p, density):
    return np.array(
        [[rng.randrange(1, p) if rng.random() < density else 0
          for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )


def straddling_blocks(rng, p):
    """Dense rank-deficient matrices whose dependent rows and columns sit
    across the first panel boundary of the dense phase, column
    ``kernels._PANEL``: a product through a rank a few past the boundary,
    columns next to the boundary copied from column 0, and rows copied
    from row 0."""
    panel = kernels._PANEL
    rows, cols = panel + 10, 2 * panel + 10
    left = random_matrix(rng, rows, panel + 5, p)
    product = left @ random_matrix(rng, panel + 5, cols, p) % p
    copied = random_matrix(rng, rows, cols, p)
    copied[:, panel - 3:panel + 3] = copied[:, :1] * rng.randrange(1, p) % p
    repeated = random_matrix(rng, panel + 4, cols, p)
    repeated[panel - 2:] = repeated[0]
    return [product, copied, repeated]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_rref_matches_python_oracle(p):
    """The whole reduced matrix, its pivots, the rank and the nullspace:
    on random matrices up to 40 x 60, some with dependent rows and
    columns; on a seeded grid up to 150 x 150 (wider than a panel of the
    dense phase) at densities 0.02 to 1, where the inputs at 0.02 and 0.03
    fill in and hand their rest to the dense phase part way; and on dense
    rank-deficient blocks across a panel boundary."""
    rng = random.Random(SEED + 3 * p)
    mats = []
    for trial in range(12):
        rows, cols = rng.randrange(1, 41), rng.randrange(1, 61)
        mat = random_matrix(rng, rows, cols, p)
        if trial % 3 == 0 and rows > 2 and cols > 2:
            mat[:, 1] = mat[:, 0] * rng.randrange(p) % p
            mat[-1] = (mat[0] + mat[1]) % p
        mats.append(mat)
    for density, rows in ((0.02, 150), (0.03, 150), (0.1, 100), (0.5, 60),
                          (1.0, 60)):
        for shape in ((rows, 150),
                      (rng.randrange(1, 151), rng.randrange(1, 151))):
            mats.append(sparse_matrix(rng, *shape, p, density))
    mats += straddling_blocks(rng, p)
    for mat in mats:
        red, pivots = kernels.rref_mod_p(mat, p)
        want, want_pivots = python_rref(mat.tolist(), p)
        assert pivots.tolist() == want_pivots
        assert red[: len(want)].tolist() == want
        assert not red[len(want):].any()
        assert kernels.rank_mod_p(mat, p) == len(want_pivots)
        free = [f for f in range(mat.shape[1]) if f not in set(want_pivots)]
        null = kernels.nullspace_mod_p(mat, p)
        assert null.shape == (len(free), mat.shape[1])
        for k, f in enumerate(free):
            assert null[k, f] == 1
            assert not null[k, free[:k] + free[k + 1:]].any()
            assert null[k, want_pivots].tolist() == [
                -row[f] % p for row in want]


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


# ------------------------------------------------- the two phases


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
    """A cascade of ``chain`` rows: row 0 has one nonzero, row i > 0 has
    nonzeros at columns i - 1 and i, so each pivot on a row of one
    nonzero leaves the next row with one nonzero.  Next to it a ``dense``
    x (dense + 1) block of nonzeros, where no row has one nonzero; when
    ``coupled`` its rows also meet the cascade's columns.  Then
    ``zero_rows`` zero rows, two zero columns, and rows and columns
    shuffled."""
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
    return mat[rng.sample(range(rows), rows)][:, rng.sample(range(cols), cols)]


def record_dense(monkeypatch):
    """The shapes that reach the dense phase from now on."""
    shapes = []
    dense = kernels._dense

    def recording(m, q):
        shapes.append(m.shape)
        return dense(m, q)

    monkeypatch.setattr(kernels, "_dense", recording)
    return shapes


def checked_nullspace(mat, p, monkeypatch):
    """``nullspace_mod_p`` of ``mat``, checked against the whole matrix's
    RREF and the inline oracle; returns it with the shapes that reached
    the dense phase."""
    shapes = record_dense(monkeypatch)
    null = kernels.nullspace_mod_p(mat, p)
    monkeypatch.undo()
    assert null.dtype == np.int64
    assert np.array_equal(null, rref_nullspace(mat, p))
    rank = len(python_rref(mat.tolist(), p)[1])
    assert null.shape == (mat.shape[1] - rank, mat.shape[1])
    if null.size:
        assert not (mat @ null.T % p).any()
    return null, shapes


def whole_if_dense(mat):
    """What reaches the dense phase from an input that goes there whole
    or not at all: itself, when its fill and area send it there at once."""
    rows, cols = mat.shape
    dense = kernels._dense_now(np.count_nonzero(mat), rows, cols)
    return [mat.shape] if dense else []


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cascading_singletons_are_peeled_to_the_end(p, monkeypatch):
    """Each cascade column is pivoted on a row of one nonzero, the block
    without such rows is eliminated among few rows, and none of it is
    dense enough for the dense phase; with ``coupled`` the block's rows
    lose their cascade entries first."""
    rng = random.Random(SEED + 7 * p)
    for trial in range(24):
        chain, dense = rng.randrange(2, 9), rng.randrange(0, 5)
        mat = sparse_system(
            rng, p, chain, dense, zero_rows=trial % 3, coupled=trial % 2
        )
        _, shapes = checked_nullspace(mat, p, monkeypatch)
        assert shapes == []


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_zero_rows_never_reach_the_elimination(p, monkeypatch):
    """One row of nonzeros among zero rows, and the zero matrix: one
    pivot or none, and nothing for the dense phase."""
    rng = random.Random(SEED + 11 * p)
    for _ in range(10):
        rows, cols = rng.randrange(2, 8), rng.randrange(2, 8)
        mat = np.zeros((rows, cols), dtype=np.int64)
        mat[0] = [nonzero(rng, p) for _ in range(cols)]
        _, shapes = checked_nullspace(mat, p, monkeypatch)
        assert shapes == []
        _, shapes = checked_nullspace(0 * mat, p, monkeypatch)
        assert shapes == []


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_full_rank_triangular_matrix_is_peeled_whole(p, monkeypatch):
    """A permuted lower-triangular matrix with a nonzero diagonal: the
    kernel is zero, and the matrix goes to the dense phase whole when it
    is dense enough at the start, else not at all."""
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
        assert shapes == whole_if_dense(mat)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a_matrix_without_singleton_rows_is_eliminated_whole(p, monkeypatch):
    """A matrix of nonzeros goes to the dense phase whole, or, when it
    has too few rows for a dense pivot to pay, stays sparse."""
    rng = random.Random(SEED + 17 * p)
    for _ in range(10):
        rows, cols = rng.randrange(1, 9), rng.randrange(2, 9)
        mat = np.array(
            [[nonzero(rng, p) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        _, shapes = checked_nullspace(mat, p, monkeypatch)
        assert shapes == whole_if_dense(mat)


def block_module(rng, p, rank):
    """A finite module over F_p whose operator is block diagonal, with
    blocks of size 1 to 3 and about 60% of their cells nonzero: the shape
    of the benchmark's finite modules."""
    ctx = Fq(p, 1)
    R = PolyRing(ctx, ())
    table = [[0] * rank for _ in range(rank)]
    lo = 0
    while lo < rank:
        hi = min(rank, lo + rng.randrange(1, 4))
        for i in range(lo, hi):
            for j in range(lo, hi):
                if rng.random() < 0.6:
                    table[i][j] = nonzero(rng, p)
        lo = hi
    return CartierModule(R, rank, {
        ((), j): tuple(R.scalar(ctx.scalar(table[i][j])) for i in range(rank))
        for j in range(rank)
    })


@pytest.mark.parametrize("p", [2, 3])
def test_the_dense_phase_follows_fill_and_area(p, monkeypatch):
    """The hand-off needs no timing: the Hom systems of seeded finite
    modules of rank up to 10 never reach the dense phase; a dense 64 x 64
    matrix reaches it whole, at column 0; a 150 x 150 one at density
    0.03 fills in and hands its last columns over part way."""
    rng = random.Random(SEED + 23 * p)
    shapes = record_dense(monkeypatch)
    for rank in range(1, 11):
        for _ in range(3):
            source = block_module(rng, p, rank)
            target = block_module(rng, p, rng.randrange(1, 11))
            hom_cartier(source, target)
    assert shapes == []
    kernels.rref_mod_p(sparse_matrix(rng, 64, 64, p, 1.0), p)
    assert shapes == [(64, 64)]
    shapes.clear()
    kernels.nullspace_mod_p(sparse_matrix(rng, 150, 150, p, 0.03), p)
    assert len(shapes) == 1 and 0 < shapes[0][1] < 150


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
