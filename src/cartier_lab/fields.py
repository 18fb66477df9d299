"""Exact arithmetic in F_q (q = p^e) and p-power-semilinear maps over it.

A ``FrobeniusContext`` fixes the prime p, the exponent e and a canonical
modulus for F_{p^e}: the lexicographically first monic irreducible
polynomial of degree e over F_p, where candidates are ordered by the
integer code ``c_0 + c_1 p + ... + c_{e-1} p^{e-1}`` of their non-leading
coefficients.  Irreducibility is certified by trial division (e <= 8).

Elements are immutable coefficient tuples in the power basis
``1, t, ..., t^{e-1}``.  The Frobenius a -> a^p and its inverse (the p-th
root, i.e. a -> a^{p^{e-1}}) are precomputed as e x e matrices over F_p,
since both are F_p-linear.
"""

from functools import cached_property, lru_cache

import numpy as np

from .errors import CapExceeded, ContextMismatchError, NonStabilized, ValidationError
from . import kernels

P_LINEAR = "p-linear"
P_INV_LINEAR = "p-inv-linear"

_E_CAP = 8


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# -- dense polynomial helpers over F_p (coefficient lists, low degree first) --


def _fp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_divmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - db
        coef = (a[-1] * inv_lb) % p
        q[shift] = coef
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - coef * b[i]) % p
        _fp_trim(a)
    return q, a


def _fp_irreducible(poly, p):
    """Trial-division irreducibility for a monic F_p polynomial."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            div = [(code // p**i) % p for i in range(d)] + [1]
            _, rem = _fp_divmod(poly, div, p)
            if not rem:
                return False
    return True


def _first_irreducible_fp(p, e):
    for code in range(p**e):
        cand = [(code // p**i) % p for i in range(e)] + [1]
        if _fp_irreducible(cand, p):
            return tuple(cand)
    raise ValidationError(f"no irreducible polynomial of degree {e} over F_{p}")  # pragma: no cover


class FieldElement:
    """Element of F_{p^e}, stored as coefficients over the power basis."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx, coords):
        self.ctx = ctx
        self.coords = coords

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise ContextMismatchError(
                f"elements of F_{self.ctx.q} and F_{other.ctx.q} cannot be combined"
            )

    def __add__(self, other):
        self._check(other)
        p = self.ctx.p
        return FieldElement(
            self.ctx, tuple((a + b) % p for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        p = self.ctx.p
        return FieldElement(
            self.ctx, tuple((a - b) % p for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        p, e = ctx.p, ctx.e
        if e == 1:
            return FieldElement(ctx, ((self.coords[0] * other.coords[0]) % p,))
        conv = [0] * (2 * e - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    conv[i + j] += a * b
        red = ctx._reduction
        out = [c % p for c in conv[:e]]
        for k in range(e, 2 * e - 1):
            c = conv[k] % p
            if c:
                row = red[k - e]
                for i in range(e):
                    out[i] = (out[i] + c * row[i]) % p
        return FieldElement(ctx, tuple(out))

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in F_q")
        ctx = self.ctx
        p = ctx.p
        if ctx.e == 1:
            return FieldElement(ctx, (pow(self.coords[0], p - 2, p),))
        # extended Euclid in F_p[t] against the modulus
        r0, r1 = list(ctx.modulus), _fp_trim(list(self.coords))
        s0, s1 = [], [1]
        while r1:
            q, r2 = _fp_divmod(r0, r1, p)
            s2 = list(s0)
            if len(s2) < len(q) + len(s1):
                s2 += [0] * (len(q) + len(s1) - len(s2))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        s2[i + j] = (s2[i + j] - qc * sc) % p
            r0, r1, s0, s1 = r1, r2, s1, _fp_trim(s2)
        lead_inv = pow(r0[-1], p - 2, p)
        s0 = [(c * lead_inv) % p for c in s0]
        s0 += [0] * (ctx.e - len(s0))
        return FieldElement(ctx, tuple(s0[: ctx.e]))

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frob(self):
        return self.ctx.frobenius(self)

    def frob_inv(self):
        return self.ctx.frobenius_inv(self)

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def in_prime_field(self):
        return all(c == 0 for c in self.coords[1:])

    def to_int(self):
        p = self.ctx.p
        return sum(c * p**i for i, c in enumerate(self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.ctx is other.ctx
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.e, self.coords))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.ctx.e - 1, -1, -1):
            c = self.coords[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                tpow = "t" if i == 1 else f"t^{i}"
                parts.append(tpow if c == 1 else f"{c}*{tpow}")
        return "+".join(parts)

    def __repr__(self):
        return f"F{self.ctx.q}({self})"


class FrobeniusContext:
    """The field F_{p^e} with its canonical modulus and Frobenius data."""

    def __init__(self, p, e):
        if not _is_prime(p):
            raise ValidationError(f"p = {p} is not prime")
        if not (1 <= e <= _E_CAP):
            raise CapExceeded(f"extension degree e = {e} outside 1..{_E_CAP}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _first_irreducible_fp(p, e)
        # x^(e+k) mod modulus for k = 0..e-2
        red = []
        cur = [(-c) % p for c in self.modulus[:-1]]  # x^e
        red.append(tuple(cur))
        for _ in range(e - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(e):
                    nxt[i] = (nxt[i] + top * red[0][i]) % p
            cur = [c % p for c in nxt]
            red.append(tuple(cur))
        self._reduction = red
        self.zero = FieldElement(self, (0,) * e)
        self.one = FieldElement(self, tuple(1 if i == 0 else 0 for i in range(e)))
        self.gen = FieldElement(
            self, tuple(1 if i == 1 else 0 for i in range(e)) if e > 1 else (0,)
        )
        self._frob_matrix = self._build_frobenius_matrix()
        self._frob_inv_matrix = kernels.inv_mod_p(self._frob_matrix, p)

    def _build_frobenius_matrix(self):
        cols = []
        for i in range(self.e):
            basis = FieldElement(
                self, tuple(1 if j == i else 0 for j in range(self.e))
            )
            cols.append((basis ** self.p).coords)
        return np.array(cols, dtype=np.int64).T

    # -- constructors ------------------------------------------------------

    def scalar(self, n):
        """The image of the integer n under Z -> F_q."""
        return FieldElement(
            self, tuple(n % self.p if i == 0 else 0 for i in range(self.e))
        )

    def from_coords(self, coords):
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) != self.e:
            raise ValidationError(f"expected {self.e} coordinates, got {len(coords)}")
        return FieldElement(self, coords)

    def from_int(self, code):
        p = self.p
        return FieldElement(self, tuple((code // p**i) % p for i in range(self.e)))

    def elements(self):
        """All q elements in counting order of their integer code."""
        for code in range(self.q):
            yield self.from_int(code)

    def random_element(self, rng):
        return self.from_int(rng.randrange(self.q))

    # -- F_p coordinates -----------------------------------------------------

    @cached_property
    def _mul_blocks(self):
        """[k] is the F_p matrix of multiplication by t^k on coordinates."""
        powers = [self.from_coords([int(i == k) for i in range(self.e)])
                  for k in range(self.e)]
        cols = [[(a * b).coords for b in powers] for a in powers]
        return np.array(cols, dtype=np.int64).transpose(0, 2, 1)

    def fp_blocks(self, matrix):
        """F_p form of an F_q matrix: an int64 array of shape
        (rows, cols, e, e) whose [i, j] block is the matrix of
        multiplication by matrix[i][j] on power-basis coordinates.  A block
        is linear in its entry, so it is the entry's coordinates applied
        to the blocks of 1, t, ..., t^(e-1)."""
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        coords = np.array(
            [[x.coords for x in row] for row in matrix], dtype=np.int64
        ).reshape(rows, cols, self.e)
        return np.einsum("ijk,kab->ijab", coords, self._mul_blocks) % self.p

    # -- Frobenius ----------------------------------------------------------

    def frobenius(self, a):
        if self.e == 1:
            return a
        v = self._frob_matrix @ np.array(a.coords, dtype=np.int64)
        return FieldElement(self, tuple(int(c) % self.p for c in v))

    def frobenius_inv(self, a):
        """The p-th root, equal to a -> a^(p^(e-1))."""
        if self.e == 1:
            return a
        v = self._frob_inv_matrix @ np.array(a.coords, dtype=np.int64)
        return FieldElement(self, tuple(int(c) % self.p for c in v))

    def modulus_str(self):
        parts = []
        for i in range(self.e, -1, -1):
            c = self.modulus[i] if i < self.e else 1
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                tpow = "t" if i == 1 else f"t^{i}"
                parts.append(tpow if c == 1 else f"{c}*{tpow}")
        return "+".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, FrobeniusContext)
            and self.p == other.p
            and self.e == other.e
        )

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"FrobeniusContext(p={self.p}, e={self.e})"


@lru_cache(maxsize=None)
def Fq(p, e=1):
    """Interned FrobeniusContext for (p, e); contexts compare by identity."""
    return FrobeniusContext(p, e)


# ---------------------------------------------------------------------------
# F_q row reduction and subspaces
# ---------------------------------------------------------------------------


def fq_rref(vectors, ctx):
    """Reduced row echelon form over F_q.

    ``vectors`` is an iterable of equal-length tuples of FieldElement.
    Returns a tuple of nonzero RREF rows (a canonical form of the span).

    The reduction is done over F_p: each row v becomes the rows t^k v
    (k < e) on power-basis coordinates, whose F_p span is the F_q span of
    the input.  The F_q RREF rows are the F_p RREF rows whose pivot is the
    first coordinate of an entry.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return ()
    p, e, n = ctx.p, ctx.e, len(rows[0])
    coords = np.array(
        [[x.coords for x in row] for row in rows], dtype=np.int64
    ).reshape(len(rows), n, e)
    if e == 1:
        mat = coords[:, :, 0]
    else:
        mat = np.einsum("kab,icb->ikca", ctx._mul_blocks, coords) % p
        mat = mat.reshape(len(rows) * e, n * e)
    red, pivots = kernels.rref_mod_p(mat, p)
    keep = red[: pivots.size][pivots % e == 0]
    keep = keep.reshape(len(keep), n, e)
    return tuple(
        tuple(ctx.from_coords(c) for c in row) for row in keep.tolist()
    )


def fq_in_span(vector, rref_rows):
    """Membership of a vector in the span given by RREF rows."""
    v = list(vector)
    for row in rref_rows:
        c = next(i for i, x in enumerate(row) if not x.is_zero())
        if not v[c].is_zero():
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return all(a.is_zero() for a in v)


def fq_nullspace(rows, ctx):
    """Right kernel {x : rows @ x = 0} over F_q, returned as RREF rows."""
    if not rows:
        return ()
    n = len(rows[0])
    red = fq_rref(rows, ctx)
    pivots = []
    for row in red:
        pivots.append(next(i for i, x in enumerate(row) if not x.is_zero()))
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = []
    for fc in free:
        v = [ctx.zero] * n
        v[fc] = ctx.one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return fq_rref(basis, ctx)


# ---------------------------------------------------------------------------
# Semilinear maps
# ---------------------------------------------------------------------------


class SemilinearMap:
    """A p-power-twisted additive self-map of F_q^r.

    ``kind`` is P_LINEAR  (T(a v) = a^p T(v))   or
              P_INV_LINEAR (T(a^p v) = a T(v), i.e. twist by the p-th root).

    ``matrix[i][j]`` is the e_i coefficient of T(e_j); applying T twists the
    input coordinates and then multiplies by the matrix.
    """

    __slots__ = ("ctx", "kind", "matrix", "dim")

    def __init__(self, ctx, kind, matrix):
        if kind not in (P_LINEAR, P_INV_LINEAR):
            raise ValidationError(f"unknown semilinear kind {kind!r}")
        self.ctx = ctx
        self.kind = kind
        self.matrix = tuple(tuple(row) for row in matrix)
        self.dim = len(self.matrix)
        for row in self.matrix:
            if len(row) != self.dim:
                raise ValidationError("semilinear matrix must be square")

    def twist(self, a):
        if self.kind == P_LINEAR:
            return self.ctx.frobenius(a)
        return self.ctx.frobenius_inv(a)

    def apply(self, v):
        if len(v) != self.dim:
            raise ValidationError("vector length does not match map dimension")
        tw = [self.twist(a) for a in v]
        out = []
        for i in range(self.dim):
            acc = self.ctx.zero
            row = self.matrix[i]
            for j in range(self.dim):
                if not tw[j].is_zero() and not row[j].is_zero():
                    acc = acc + row[j] * tw[j]
            out.append(acc)
        return tuple(out)

    def check_law(self, rng, trials=25):
        """Spot-check the twist law T(a v) = twist(a) T(v) on random data."""
        for _ in range(trials):
            a = self.ctx.random_element(rng)
            v = tuple(self.ctx.random_element(rng) for _ in range(self.dim))
            av = tuple(a * x for x in v)
            lhs = self.apply(av)
            tw = self.twist(a)
            rhs = tuple(tw * x for x in self.apply(v))
            if lhs != rhs:
                return False
        return True


def iterated_image_chain(T, cap=256):
    """Descending chain V, T(V), T^2(V), ... of subspaces of F_q^r.

    Stops at the first k with T^(k+1)(V) = T^k(V) and returns the list of
    RREF bases [V, T(V), ..., T^k(V)].  Because the twist is bijective the
    image of a subspace is again a subspace, so the chain is well defined;
    it stabilizes within dim(V) proper steps.
    """
    ctx = T.ctx
    full = fq_rref(
        [
            tuple(ctx.one if i == j else ctx.zero for j in range(T.dim))
            for i in range(T.dim)
        ],
        ctx,
    )
    chain = [full]
    for _ in range(cap):
        cur = chain[-1]
        nxt = fq_rref([T.apply(b) for b in cur], ctx) if cur else ()
        if nxt == cur:
            return chain
        chain.append(nxt)
    raise NonStabilized(
        f"image chain did not stabilize within {cap} steps", partial=chain, cap=cap
    )


def is_nilpotent_semilinear(T, cap=256):
    """(nilpotent?, order or None, chain dims).  Order is the first n with T^n = 0."""
    chain = iterated_image_chain(T, cap=cap)
    dims = [len(b) for b in chain]
    if dims[-1] == 0:
        return True, len(chain) - 1, dims
    return False, None, dims


# ---------------------------------------------------------------------------
# Scalar extension F_{q^m} and fixed points
# ---------------------------------------------------------------------------


class RelativeExtension:
    """F_{q^m} built as F_q[u]/(h), h the first monic irreducible of degree m.

    Candidates h are ordered by the counting code of their non-leading
    coefficients (each F_q coefficient by its own integer code).  Elements
    are tuples of FieldElement of length m.
    """

    def __init__(self, ctx, m):
        if m < 1:
            raise ValidationError("extension degree m must be >= 1")
        self.base = ctx
        self.m = m
        self.h = self._first_irreducible(ctx, m)
        self.zero = (ctx.zero,) * m
        self.one = tuple(ctx.one if i == 0 else ctx.zero for i in range(m))
        if m > 1:
            u = tuple(ctx.one if i == 1 else ctx.zero for i in range(m))
            self._u_p = self.pow(u, ctx.p)
        else:
            self._u_p = self.one

    @staticmethod
    def _fq_divmod(a, b, ctx):
        a = list(a)
        db = len(b) - 1
        inv_lb = b[-1].inv()
        while len(a) - 1 >= db and a:
            if a[-1].is_zero():
                a.pop()
                continue
            shift = len(a) - 1 - db
            coef = a[-1] * inv_lb
            for i in range(db + 1):
                a[shift + i] = a[shift + i] - coef * b[i]
            while a and a[-1].is_zero():
                a.pop()
        return a

    @classmethod
    def _irreducible_fq(cls, poly, ctx):
        deg = len(poly) - 1
        if deg == 1:
            return True
        q = ctx.q
        for d in range(1, deg // 2 + 1):
            for code in range(q**d):
                div = [ctx.from_int((code // q**i) % q) for i in range(d)] + [ctx.one]
                if not cls._fq_divmod(poly, div, ctx):
                    return False
        return True

    @classmethod
    def _first_irreducible(cls, ctx, m):
        q = ctx.q
        for code in range(q**m):
            cand = [ctx.from_int((code // q**i) % q) for i in range(m)] + [ctx.one]
            if cls._irreducible_fq(cand, ctx):
                return tuple(cand)
        raise ValidationError("no irreducible polynomial found")  # pragma: no cover

    def embed(self, a):
        return tuple(a if i == 0 else self.base.zero for i in range(self.m))

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def mul(self, x, y):
        ctx, m = self.base, self.m
        if m == 1:
            return (x[0] * y[0],)
        conv = [ctx.zero] * (2 * m - 1)
        for i, a in enumerate(x):
            if not a.is_zero():
                for j, b in enumerate(y):
                    if not b.is_zero():
                        conv[i + j] = conv[i + j] + a * b
        for k in range(2 * m - 2, m - 1, -1):
            c = conv[k]
            if not c.is_zero():
                # x^k = x^(k-m) * (x^m mod h)
                for i in range(m):
                    hi = self.h[i]
                    if not hi.is_zero():
                        conv[k - m + i] = conv[k - m + i] - c * hi
            conv.pop()
        return tuple(conv)

    def pow(self, x, n):
        result = self.one
        base = x
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def frobenius(self, x):
        """x -> x^p via (sum c_i u^i)^p = sum c_i^p (u^p)^i, Horner style."""
        ctx = self.base
        acc = self.zero
        for i in range(self.m - 1, -1, -1):
            acc = self.mul(acc, self._u_p)
            acc = self.add(acc, self.embed(ctx.frobenius(x[i])))
        return acc

    def fp_basis_size(self):
        return self.base.e * self.m

    def to_fp_coords(self, x):
        out = []
        for c in x:
            out.extend(c.coords)
        return out

    def from_fp_coords(self, coords):
        e = self.base.e
        return tuple(
            self.base.from_coords(coords[i * e : (i + 1) * e]) for i in range(self.m)
        )


def fixed_points_dimension(T, m):
    """dim_{F_p} of the fixed space of T extended to F_{q^m}^r.

    T must be P_LINEAR.  The extension acts by the same matrix with the
    Frobenius of F_{q^m} as twist; T - id is F_p-linear on F_p^{e m r}, and
    the answer is the nullity of that matrix.
    """
    if T.kind != P_LINEAR:
        raise ValidationError("fixed_points_dimension expects a p-linear map")
    ctx = T.ctx
    K = RelativeExtension(ctx, m)
    r = T.dim
    n_fp = K.fp_basis_size() * r
    emb_matrix = [[K.embed(T.matrix[i][j]) for j in range(r)] for i in range(r)]

    def apply_T_minus_id(vec):
        # vec: list of K-elements, length r
        tw = [K.frobenius(x) for x in vec]
        out = []
        for i in range(r):
            acc = K.zero
            for j in range(r):
                acc = K.add(acc, K.mul(emb_matrix[i][j], tw[j]))
            out.append(K.sub(acc, vec[i]))
        return out

    cols = []
    kdim = K.fp_basis_size()
    for j in range(r):
        for b in range(kdim):
            coords = [0] * kdim
            coords[b] = 1
            vec = [K.from_fp_coords(coords) if jj == j else K.zero for jj in range(r)]
            image = apply_T_minus_id(vec)
            col = []
            for x in image:
                col.extend(K.to_fp_coords(x))
            cols.append(col)
    mat = np.array(cols, dtype=np.int64).T
    rank = kernels.rank_mod_p(mat, ctx.p)
    return n_fp - rank
