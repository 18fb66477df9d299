"""Dense linear algebra mod a small prime p.

Everything in this package that is F_p-linear -- fixed-point counting,
Hom solving, brute-force enumeration -- bottoms out in row reduction of
int64 matrices mod p, done here with vectorized numpy row operations.
The nullspace first peels off the unknowns that rows with one nonzero
force to zero, repeatedly, and eliminates only what is left: structured
Gaussian elimination (LaMacchia and Odlyzko, "Solving large sparse
linear systems over finite fields", CRYPTO '90).  Hom systems are sparse
and about half of their pivots are such forced zeros.

Products go through ``matmul_mod_p``: numpy's integer products run no
BLAS, so a product with a wide inner dimension runs in float64 instead,
cut into chunks short enough that every partial sum is an exact integer
below 2^53 (the FFLAS-FFPACK technique: Dumas, Giorgi and Pernet, "Dynamic
Linear Algebra over Finite Fields", ACM TOMS 35(3), 2008).

Matrices are numpy int64 arrays with entries already reduced into
``[0, p)``; all functions return arrays in the same normal form.
"""

import numpy as np

__all__ = [
    "rref_mod_p",
    "rank_mod_p",
    "nullspace_mod_p",
    "matmul_mod_p",
]

# up to this inner dimension the int64 product beats the float64
# conversions around a BLAS call: on a 2-vCPU x86 host an n x n product
# mod 3 takes 19.6 us in int64 against 21.1 us through BLAS at n = 24,
# and 33.4 against 29.4 us at n = 30, with OpenBLAS on one thread or on
# its default count alike
_BLAS_INNER = 24


def _inv_scalar(a, p):
    # Fermat: a^(p-2) mod p, p prime, a != 0
    return pow(int(a), p - 2, p)


def _rref(m, p):
    """Row-reduce ``m``, a fresh array reduced mod p, in place."""
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * _inv_scalar(m[r, c], p)) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            # row r is zero left of c, so the update starts at column c
            m[other, c:] = (m[other, c:] - np.outer(m[other, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, np.array(pivots, dtype=np.int64)


def rref_mod_p(a, p):
    """Reduced row echelon form of ``a`` mod p.

    Returns ``(r, pivots)`` where ``r`` is the RREF matrix and ``pivots``
    the pivot column indices, one per nonzero row.
    """
    a = np.ascontiguousarray(np.asarray(a, dtype=np.int64) % p)
    if a.size == 0:
        return a, np.empty(0, dtype=np.int64)
    return _rref(a, p)


def rank_mod_p(a, p):
    return int(rref_mod_p(a, p)[1].size)


def _peel(nz):
    """The mask of the columns left after peeling the nonzero pattern
    ``nz``: a row with one nonzero in the columns left forces that column
    to zero in every kernel vector, and dropping the column may leave
    other rows with one nonzero."""
    live = np.ones(nz.shape[1], dtype=bool)
    counts = nz.sum(axis=1)
    rows = np.flatnonzero(counts == 1)
    while rows.size:
        forced = np.zeros_like(live)
        forced[np.argmax(nz[rows] & live, axis=1)] = True
        live &= ~forced
        counts -= nz[:, forced].sum(axis=1)
        rows = np.flatnonzero(counts == 1)
    return live


def nullspace_mod_p(a, p):
    """Basis of the right kernel {x : a @ x = 0 mod p}, rows = basis vectors.

    The basis vector of a free column f is 1 at f, 0 at the other free
    columns and minus column f of the RREF at the pivots.  Only the rows
    and columns left by ``_peel`` reach ``_rref``: a forced column is a
    pivot of the whole matrix and the others keep their order, so the
    basis is the whole matrix's, zero at the forced columns."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[1] if a.ndim == 2 else 0
    if a.size == 0:
        return np.eye(n, dtype=np.int64)
    a = a % p
    nz = a != 0
    live = _peel(nz)
    cols = np.flatnonzero(live)
    r, pivots = _rref(a[np.ix_(nz[:, live].any(axis=1), cols)], p)
    free = np.ones(cols.size, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), cols[free]] = 1
    basis[:, cols[pivots]] = (-r[: pivots.size, free].T) % p
    return basis


def matmul_mod_p(a, b, p):
    """a @ b mod p, for int64 matrices with entries in [0, p).

    A wide product runs in float64, which numpy hands to BLAS; its inner
    dimension is cut into chunks of at most (2^53 - 1) / (p - 1)^2
    columns, so every partial sum of products of entries in [0, p) is an
    exact integer."""
    if a.shape[1] <= _BLAS_INNER:
        return a @ b % p
    step = (2**53 - 1) // (p - 1) ** 2
    af, bf = a.astype(np.float64), b.astype(np.float64)
    acc = np.zeros((a.shape[0], b.shape[1]))
    for lo in range(0, a.shape[1], step):
        part = af[:, lo:lo + step] @ bf[lo:lo + step]
        acc += np.fmod(part, p, out=part)
    return np.fmod(acc, p, out=acc).astype(np.int64)
