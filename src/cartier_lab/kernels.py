"""Dense linear algebra mod a small prime p.

Everything in this package that is F_p-linear -- fixed-point counting,
Hom solving, brute-force enumeration -- bottoms out in row reduction of
int64 matrices mod p, done here with vectorized numpy row operations.

Matrices are numpy int64 arrays with entries already reduced into
``[0, p)``; all functions return arrays in the same normal form.
"""

import numpy as np

__all__ = [
    "rref_mod_p",
    "rank_mod_p",
    "nullspace_mod_p",
    "solve_mod_p",
    "inv_mod_p",
    "matmul_mod_p",
]


def _inv_scalar(a, p):
    # Fermat: a^(p-2) mod p, p prime, a != 0
    return pow(int(a), p - 2, p)


def _rref(a, p):
    m = a.copy() % p
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
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
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
        return a.copy(), np.empty(0, dtype=np.int64)
    return _rref(a, p)


def rank_mod_p(a, p):
    return int(rref_mod_p(a, p)[1].size)


def nullspace_mod_p(a, p):
    """Basis of the right kernel {x : a @ x = 0 mod p}, rows = basis vectors."""
    a = np.asarray(a, dtype=np.int64) % p
    if a.size == 0:
        n = a.shape[1] if a.ndim == 2 else 0
        return np.eye(n, dtype=np.int64)
    r, pivots = rref_mod_p(a, p)
    n = a.shape[1]
    pivset = set(int(c) for c in pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def solve_mod_p(a, b, p):
    """One solution x of a @ x = b mod p, or None if inconsistent."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("matrix expected")
    aug = np.hstack([a, b.reshape(-1, 1)])
    r, pivots = rref_mod_p(aug, p)
    n = a.shape[1]
    for i, c in enumerate(pivots):
        if c == n:
            return None
    x = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r[i, n]
    return x


def inv_mod_p(a, p):
    """Inverse of a square matrix mod p, or None if singular."""
    a = np.asarray(a, dtype=np.int64) % p
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    r, pivots = rref_mod_p(aug, p)
    if pivots.size < n or int(pivots[n - 1]) != n - 1:
        return None
    return r[:n, n:].copy()


def matmul_mod_p(a, b, p):
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % p
