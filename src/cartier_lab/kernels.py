"""Linear algebra mod a small prime p.

Everything in this package that is F_p-linear -- fixed-point counting,
Hom solving, brute-force enumeration -- bottoms out in one row reduction
of int64 matrices mod p, ``_eliminate``, behind ``rref_mod_p``,
``rank_mod_p`` and ``nullspace_mod_p``.  It runs in two phases.

The sparse phase is structured Gaussian elimination (LaMacchia and
Odlyzko, "Solving large sparse linear systems over finite fields",
CRYPTO '90): rows are dicts, columns are taken in order, and the pivot of
a column is the candidate row with the fewest nonzeros (Markowitz), so a
row with one nonzero costs one deletion per row it meets.  Taking the
columns in order keeps the pivot columns, and with them the reduced
echelon form, those of plain Gauss-Jordan.  The pivot rows are
back-substituted once, at the end.  Hom systems are sparse (3-8 nonzeros
per row), and most of them never leave this phase.

A pivot of the sparse phase updates each candidate row entry by entry in
Python, so it costs more than one vectorized pivot once its columns hold
many rows or its rows many entries.  The hand-off weighs the two from the
fill and area of the rows left, before each column: an active block of
``rows`` x ``cols`` holding ``live`` nonzeros means about live / cols
candidates per pivot, each of about live / rows entries, and the rest of
the matrix goes dense once that exceeds what one dense pivot costs
(``_dense_now``).  A dense input goes there at once.

The dense phase is Gauss-Jordan by panels of ``_PANEL`` columns, the
panel update of FFLAS-FFPACK (Dumas, Giorgi and Pernet, "Dynamic Linear
Algebra over Finite Fields", ACM TOMS 35(3), 2008): inside a panel each
pivot updates the panel's columns only, next to a record of how each row
combines the panel's pivot rows; the columns right of the panel take
that record times the pivot rows in one ``matmul_mod_p``.  A matrix no
wider than one panel is reduced pivot by pivot.  After a hand-off, the
sparse phase's pivot rows are reduced at the dense pivots by one more
product.

Products go through ``matmul_mod_p``: numpy's integer products run no
BLAS, so a product with a wide inner dimension runs in float64 instead,
cut into chunks short enough that every partial sum is an exact integer
below 2^53 (the FFLAS-FFPACK technique again).

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

# the hand-off costs, in the time one dict entry of a sparse row update
# takes: a row update costs _ROW_COST besides its entries, and a dense
# pivot _PIVOT_COST (measured on a 2-vCPU x86 host: about 0.1 us an
# entry, 1.2 us a row and 8 us a pivot of a 16 x 16 dense matrix)
_ROW_COST = 12
_PIVOT_COST = 80

# panel width of the dense phase: over F_2 and F_3 a 1024-square matrix
# took 231 and 412 ms at 48, 266 and 394 ms at 32, 269 and 459 ms at 64;
# below 32 the panel products fall under _BLAS_INNER
_PANEL = 48


def _mod(x, p):
    """x mod p, in place, for an int64 array.  On a large array numpy's
    floor division by a scalar is several times faster than its remainder
    (1M entries: 2.3 ms against 10 ms), which has the smaller fixed cost
    (below 512 entries)."""
    if x.size < 512:
        x %= p
    else:
        x -= x // p * p
    return x


def _inv_scalar(a, p):
    # Fermat: a^(p-2) mod p, p prime, a != 0
    return pow(int(a), p - 2, p)


def _eliminate(a, p):
    """(the nonzero rows of the RREF of ``a``, the pivot columns), for a
    nonempty int64 matrix ``a`` with entries in [0, p); ``a`` may be
    overwritten.  The sparse phase and the hand-off to ``_dense`` are in
    the module docstring."""
    n, m = a.shape
    live = np.count_nonzero(a)  # nonzeros in the rows not yet pivots
    if not live:
        return a[:0], np.empty(0, dtype=np.int64)
    if _dense_now(live, n, m):
        return _dense(a, p)
    ri, ci = np.nonzero(a)
    rows = [{} for _ in range(n)]
    for i, j, v in zip(ri.tolist(), ci.tolist(), a[ri, ci].tolist()):
        rows[i][j] = v
    # every row not yet a pivot, by its first nonzero column
    lead = [[] for _ in range(m)]
    for i, row in enumerate(rows):
        if row:
            lead[min(row)].append(i)
    active = n - rows.count({})
    pivots, prows = [], []
    for c in range(m):
        cand = lead[c]
        if not cand:
            continue
        if _dense_now(live, active, m - c):
            break
        i = cand[0]
        if len(cand) > 1:  # Markowitz: the fewest nonzeros
            i = min(cand, key=lambda j: len(rows[j]))
        prow = rows[i]
        live -= len(prow)
        active -= 1
        inv = _inv_scalar(prow[c], p)
        if inv != 1:
            prow = {k: v * inv % p for k, v in prow.items()}
        for j in cand:
            if j != i:
                live -= len(rows[j])
                row = rows[j] = _subtract(rows[j], c, prow, p)
                live += len(row)
                if row:
                    lead[min(row)].append(j)
                else:
                    active -= 1
        pivots.append(c)
        prows.append(prow)
    else:
        c = m
    # back-substitution: a reduced pivot row is zero at the other pivot
    # columns, so each row is reduced by its own entries there
    at = {col: t for t, col in enumerate(pivots)}
    for t in range(len(prows) - 1, -1, -1):
        for col in [k for k in prows[t] if k in at and k != pivots[t]]:
            prows[t] = _subtract(prows[t], col, prows[at[col]], p)
    red = _from_dicts(prows, 0, m)
    pivots = np.array(pivots, dtype=np.int64)
    rest = [rows[j] for col in range(c, m) for j in lead[col]]
    if not rest:
        return red, pivots
    core, core_pivots = _dense(_from_dicts(rest, c, m), p)
    # the sparse phase's pivot rows, reduced at the core's pivots
    at_core = matmul_mod_p(red[:, c + core_pivots], core, p)
    red[:, c:] = _mod(red[:, c:] - at_core, p)
    full = np.zeros((core.shape[0], m), dtype=np.int64)
    full[:, c:] = core
    return np.vstack([red, full]), np.concatenate([pivots, c + core_pivots])


def _dense_now(live, rows, cols):
    """Whether ``rows`` x ``cols`` with ``live`` nonzeros costs less dense:
    (live / cols) row updates of (live / rows) entries each, against one
    dense pivot."""
    return live * (live + _ROW_COST * rows) >= _PIVOT_COST * rows * cols


def _subtract(row, c, prow, p):
    """row - row[c] * prow mod p, for dict rows; ``prow`` is 1 at c."""
    if p == 2:
        return dict.fromkeys(row.keys() ^ prow.keys(), 1)
    f = row[c]
    for k, v in prow.items():
        w = (row.get(k, 0) - f * v) % p
        if w:
            row[k] = w
        else:
            del row[k]
    return row


def _from_dicts(rows, lo, hi):
    """Columns lo..hi-1 of dict rows that are zero outside them, as an
    int64 array."""
    out = np.zeros((len(rows), hi - lo), dtype=np.int64)
    at = [t for t, row in enumerate(rows) for _ in row]
    cols = [k - lo for row in rows for k in row]
    out[at, cols] = [v for row in rows for v in row.values()]
    return out


def _dense(m, p):
    """``_eliminate`` on a dense matrix: Gauss-Jordan by panels of
    ``_PANEL`` columns.  Inside a panel each pivot updates the panel's
    columns and, next to them, the record of each row's combination of
    the panel's pivot rows; the columns right of the panel then take one
    product of that record with the pivot rows as they were."""
    n, w = m.shape
    pivots = []
    r = 0
    for lo in range(0, w, _PANEL):
        if r == n:
            break
        hi = min(lo + _PANEL, w)
        b, top = hi - lo, r
        last = hi == w
        if not (last or m[r:, lo:hi].any()):
            continue
        if last:
            q = m[:, lo:]
        else:
            q = np.zeros((n, 2 * b), dtype=np.int64)
            q[:, :b] = m[:, lo:hi]
            order = np.arange(n)
        for c in range(b):
            if r == n:
                break
            nz = q[r:, c].nonzero()[0]
            if not nz.size:
                continue
            i = r + int(nz[0])
            if i != r:
                q[[r, i]] = q[[i, r]]
            end = b
            if not last:
                order[[r, i]] = order[[i, r]]
                end = b + r - top + 1
                q[r, end - 1] = 1
            inv = _inv_scalar(q[r, c], p)
            if inv != 1:
                q[r, c:end] = q[r, c:end] * inv % p
            other = q[:, c].nonzero()[0]
            other = other[other != r]
            if p == 2:
                q[other, c:end] ^= q[r, c:end]
            elif other.size:
                block = q[other, c:end]
                q[other, c:end] = _mod(block - block[:, :1] * q[r, c:end], p)
            pivots.append(lo + c)
            r += 1
        if last or r == top:
            continue
        m[top:, hi:] = m[order[top:], hi:]
        m[:, lo:hi] = q[:, :b]
        # the panel's pivot rows as they were, right of the panel
        g = m[top:r, hi:].copy()
        m[top:r, hi:] = 0
        record = q[:, b:b + r - top]
        m[:, hi:] = _mod(m[:, hi:] + matmul_mod_p(record, g, p), p)
    return m[:r], np.array(pivots, dtype=np.int64)


def rref_mod_p(a, p):
    """Reduced row echelon form of ``a`` mod p.

    Returns ``(r, pivots)`` where ``r`` is the RREF matrix and ``pivots``
    the pivot column indices, one per nonzero row.
    """
    a = _mod(np.array(a, dtype=np.int64, order="C"), p)
    if a.size == 0:
        return a, np.empty(0, dtype=np.int64)
    red, pivots = _eliminate(a, p)
    a[: pivots.size] = red
    a[pivots.size:] = 0
    return a, pivots


def rank_mod_p(a, p):
    return int(rref_mod_p(a, p)[1].size)


def nullspace_mod_p(a, p):
    """Basis of the right kernel {x : a @ x = 0 mod p}, rows = basis vectors.

    The basis vector of a free column f is 1 at f, 0 at the other free
    columns and minus column f of the RREF at the pivots."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[1] if a.ndim == 2 else 0
    if a.size == 0:
        return np.eye(n, dtype=np.int64)
    red, pivots = _eliminate(_mod(np.array(a, order="C"), p), p)
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = _mod(-red[:, free].T, p)
    return basis


def matmul_mod_p(a, b, p):
    """a @ b mod p, for int64 matrices with entries in [0, p).

    A wide product runs in float64, which numpy hands to BLAS; its inner
    dimension is cut into chunks of at most (2^53 - 1) / (p - 1)^2
    columns, so every partial sum of products of entries in [0, p) is an
    exact integer."""
    if a.shape[1] <= _BLAS_INNER:
        return _mod(a @ b, p)
    step = (2**53 - 1) // (p - 1) ** 2
    af, bf = a.astype(np.float64), b.astype(np.float64)
    parts = [_mod((af[:, lo:lo + step] @ bf[lo:lo + step]).astype(np.int64), p)
             for lo in range(0, a.shape[1], step)]
    return parts[0] if len(parts) == 1 else _mod(sum(parts), p)
