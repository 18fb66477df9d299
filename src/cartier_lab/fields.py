"""Exact arithmetic in F_q (q = p^e) and p-power-semilinear maps over it.

A ``FrobeniusContext`` fixes the prime p, the exponent e and a canonical
modulus for F_{p^e}: the lexicographically first monic irreducible
polynomial of degree e over F_p, where candidates are ordered by the
integer code ``c_0 + c_1 p + ... + c_{e-1} p^{e-1}`` of their non-leading
coefficients.  Irreducibility is certified by trial division (e <= 8).

An element is its integer code in [0, q): the same code of its
coordinates over the power basis ``1, t, ..., t^{e-1}``.  Each context
builds q-sized tables once (q <= 2^16, else ``CapExceeded``): the q
element objects themselves, so arithmetic returns shared objects; the
powers and discrete logarithms of the first primitive element g (in code
order) and the Zech logarithms log_g(1 + g^n), so a product is one log
sum and a sum one Zech lookup (in characteristic 2 a sum is the XOR of
the codes, in a prime field their sum mod p); negation, inverse, the
Frobenius a -> a^p and its inverse; and the coordinate digits.
"""

from functools import lru_cache

import numpy as np

from .errors import CapExceeded, ContextMismatchError, NonStabilized, ValidationError
from . import kernels

P_LINEAR = "p-linear"
P_INV_LINEAR = "p-inv-linear"

_E_CAP = 8
_Q_CAP = 2**16


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
        while a and a[-1] == 0:
            a.pop()
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


def _mat_pow(mat, n, p):
    out = np.eye(len(mat), dtype=np.int64)
    while n:
        if n & 1:
            out = out @ mat % p
        mat = mat @ mat % p
        n >>= 1
    return out


def _has_order(mat, p, n):
    """Whether the element with multiplication matrix mat has order n:
    no power n / r for a prime r | n is the identity."""
    rest, r = n, 2
    while rest > 1:
        if r * r > rest:
            r = rest
        if rest % r == 0:
            if (_mat_pow(mat, n // r, p) == np.eye(len(mat))).all():
                return False
            while rest % r == 0:
                rest //= r
        r += 1
    return True


def _power_codes(mat, p, q):
    """Codes of g^0, ..., g^(q-2), where mat is the F_p matrix of
    multiplication by g: the table doubles, g^(k+n) = g^n g^k."""
    e = len(mat)
    rows = np.zeros((1, e), dtype=np.int64)
    rows[0, 0] = 1
    while len(rows) < q - 1:
        rows = np.concatenate([rows, rows @ mat.T % p])
        mat = mat @ mat % p
    return rows[: q - 1] @ p ** np.arange(e, dtype=np.int64)


class FieldElement:
    """Element of F_{p^e}, stored as its integer code in [0, q).  The q
    elements of a context are built once, so equal elements are one
    object."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx, code):
        self.ctx = ctx
        self.code = code

    # -- arithmetic -------------------------------------------------------

    def _mismatch(self, other):
        raise ContextMismatchError(
            f"elements of F_{self.ctx.q} and F_{other.ctx.q} cannot be combined"
        )

    def __add__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            self._mismatch(other)
        a, b = self.code, other.code
        if ctx.p == 2:
            return ctx._elems[a ^ b]
        if ctx.e == 1:
            return ctx._elems[(a + b) % ctx.p]
        if not a:
            return other
        if not b:
            return self
        la = ctx._log[a]
        # a + b = g^la (1 + g^(lb - la)); a negative index wraps mod q - 1
        z = ctx._zech[ctx._log[b] - la]
        return ctx.zero if z is None else ctx._pow[la + z]

    def __sub__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            self._mismatch(other)
        if ctx.p == 2:
            return ctx._elems[self.code ^ other.code]
        if ctx.e == 1:
            return ctx._elems[(self.code - other.code) % ctx.p]
        return self + ctx._neg[other.code]

    def __neg__(self):
        return self.ctx._neg[self.code]

    def __mul__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            self._mismatch(other)
        a, b = self.code, other.code
        if a and b:
            log = ctx._log
            return ctx._pow[log[a] + log[b]]
        return ctx.zero

    def inv(self):
        if not self.code:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return self.ctx._inv[self.code]

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n):
        ctx = self.ctx
        if not self.code:
            if n < 0:
                raise ZeroDivisionError("inverse of 0 in F_q")
            return ctx.one if n == 0 else self
        return ctx._pow[ctx._log[self.code] * n % (ctx.q - 1)]

    def frob(self):
        return self.ctx.frobenius(self)

    def frob_inv(self):
        return self.ctx.frobenius_inv(self)

    # -- structure --------------------------------------------------------

    @property
    def coords(self):
        """Coefficients over the power basis 1, t, ..., t^(e-1)."""
        return self.ctx._coords[self.code]

    def is_zero(self):
        return not self.code

    def in_prime_field(self):
        return self.code < self.ctx.p

    def to_int(self):
        return self.code

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.ctx is other.ctx
            and self.code == other.code
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.e, self.code))

    def __str__(self):
        if not self.code:
            return "0"
        parts = []
        coords = self.coords
        for i in range(self.ctx.e - 1, -1, -1):
            c = coords[i]
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
    """The field F_{p^e} with its canonical modulus and arithmetic tables.
    Contexts compare by identity; ``Fq`` interns them."""

    def __init__(self, p, e):
        if not (1 <= e <= _E_CAP):
            raise CapExceeded(f"extension degree e = {e} outside 1..{_E_CAP}")
        if p**e > _Q_CAP:
            raise CapExceeded(f"field size q = {p}^{e} exceeds {_Q_CAP}")
        if not _is_prime(p):
            raise ValidationError(f"p = {p} is not prime")
        self.p, self.e = p, e
        self.q = q = p**e
        self.modulus = _first_irreducible_fp(p, e)
        # multiplication by t is the companion matrix of the modulus
        mt = np.zeros((e, e), dtype=np.int64)
        mt[1:, :-1] = np.eye(e - 1, dtype=np.int64)
        mt[:, -1] = [(-c) % p for c in self.modulus[:-1]]
        blocks = [np.eye(e, dtype=np.int64)]
        for _ in range(e - 1):
            blocks.append(mt @ blocks[-1] % p)
        # [k] is the F_p matrix of multiplication by t^k on coordinates
        self._mul_blocks = np.array(blocks)
        self._digits = digits = np.arange(q)[:, None] // p ** np.arange(e) % p
        self._coords = [tuple(row) for row in digits.tolist()]
        self._elems = elems = [FieldElement(self, c) for c in range(q)]
        self.zero, self.one = elems[0], elems[1]
        self.gen = elems[p if e > 1 else 0]
        # the first element of order q - 1, in code order
        for g in range(1, q):
            mat = np.einsum("k,kab->ab", digits[g], self._mul_blocks) % p
            if _has_order(mat, p, q - 1):
                break
        exp = _power_codes(mat, p, q)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._log = log.tolist()
        self._pow = [elems[c] for c in exp.tolist()] * 2
        low = digits[exp, 0]
        one_plus = (exp - low + (low + 1) % p).tolist()
        self._zech = [self._log[c] if c else None for c in one_plus]
        neg = (-digits % p) @ p ** np.arange(e)
        self._neg = [elems[c] for c in neg.tolist()]

        def power_map(n):  # a -> a^n, through the logarithms
            return [elems[0]] + [self._pow[k * n % (q - 1)] for k in self._log[1:]]

        self._inv = power_map(-1)
        self._frob = power_map(p)
        self._frob_inv = power_map(p ** (e - 1))
        # the F_p matrix of the p-th root: column j is the root of t^j
        roots = [self._frob_inv[p**j].code for j in range(e)]
        self._frob_inv_matrix = digits[roots].T

    # -- constructors ------------------------------------------------------

    def scalar(self, n):
        """The image of the integer n under Z -> F_q."""
        return self._elems[n % self.p]

    def from_coords(self, coords):
        coords = [int(c) % self.p for c in coords]
        if len(coords) != self.e:
            raise ValidationError(f"expected {self.e} coordinates, got {len(coords)}")
        code = 0
        for c in reversed(coords):
            code = code * self.p + c
        return self._elems[code]

    def from_int(self, code):
        return self._elems[code % self.q]

    def elements(self):
        """All q elements in counting order of their integer code."""
        return iter(self._elems)

    def random_element(self, rng):
        return self._elems[rng.randrange(self.q)]

    # -- F_p coordinates -----------------------------------------------------

    def fp_blocks(self, matrix):
        """F_p form of an F_q matrix: an int64 array of shape
        (rows, cols, e, e) whose [i, j] block is the matrix of
        multiplication by matrix[i][j] on power-basis coordinates.  A block
        is linear in its entry, so it is the entry's coordinates applied
        to the blocks of 1, t, ..., t^(e-1)."""
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        codes = np.array(
            [[x.code for x in row] for row in matrix], dtype=np.int64
        ).reshape(rows, cols)
        coords = self._digits[codes]
        return np.einsum("ijk,kab->ijab", coords, self._mul_blocks) % self.p

    # -- Frobenius ----------------------------------------------------------

    def frobenius(self, a):
        return self._frob[a.code]

    def frobenius_inv(self, a):
        """The p-th root, equal to a -> a^(p^(e-1))."""
        return self._frob_inv[a.code]

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

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"FrobeniusContext(p={self.p}, e={self.e})"


def Fq(p, e=1):
    """Interned FrobeniusContext for (p, e), so Fq(2) is Fq(2, 1); contexts
    compare by identity."""
    return _interned(p, e)


@lru_cache(maxsize=None)
def _interned(p, e):
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
    codes = np.array(
        [[x.code for x in row] for row in rows], dtype=np.int64
    ).reshape(len(rows), n)
    if e == 1:
        mat = codes
    else:
        coords = ctx._digits[codes]
        mat = np.einsum("kab,icb->ikca", ctx._mul_blocks, coords) % p
        mat = mat.reshape(len(rows) * e, n * e)
    red, pivots = kernels.rref_mod_p(mat, p)
    keep = red[: pivots.size][pivots % e == 0]
    keep = keep.reshape(len(keep), n, e) @ p ** np.arange(e, dtype=np.int64)
    elems = ctx._elems
    return tuple(tuple(elems[c] for c in row) for row in keep.tolist())


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
    Frobenius of F_{q^m} as twist, so T - id is F_p-linear on F_p^{e m r}:
    block (i, j) of T is multiplication by the embedded entry a_ij, which
    is kron(I_m, fp_blocks(a_ij)) on F_{q^m}, times the em x em F_p matrix
    of x -> x^p.  The answer is the nullity of T - id.
    """
    if T.kind != P_LINEAR:
        raise ValidationError("fixed_points_dimension expects a p-linear map")
    ctx = T.ctx
    K = RelativeExtension(ctx, m)
    r, e, n = T.dim, ctx.e, K.fp_basis_size()
    frob = np.array(
        [K.to_fp_coords(K.frobenius(K.from_fp_coords(col)))
         for col in np.eye(n, dtype=np.int64).tolist()],
        dtype=np.int64,
    ).T.reshape(m, e, n)
    blocks = ctx.fp_blocks(T.matrix)
    mat = np.einsum("ijxy,ayc->iaxjc", blocks, frob).reshape(r * n, r * n)
    mat = (mat - np.eye(r * n, dtype=np.int64)) % ctx.p
    return r * n - kernels.rank_mod_p(mat, ctx.p)
