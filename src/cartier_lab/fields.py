"""Exact arithmetic in F_q (q = p^e) and p-power-semilinear maps over it.

A ``FrobeniusContext`` fixes the prime p, the exponent e and a canonical
modulus for F_{p^e}: the lexicographically first monic irreducible
polynomial of degree e over F_p, where candidates are ordered by the
integer code ``c_0 + c_1 p + ... + c_{e-1} p^{e-1}`` of their non-leading
coefficients.  Irreducibility is certified by Berlekamp's criterion on
the F_p matrix of the Frobenius of F_p[s]/(candidate).

Fixed points over the extensions F_{q^m} are counted over F_q itself:
for a p- or p^{-1}-linear map with F_p matrix K on F_q^r, the fixed space
over F_{q^m} has F_p-dimension dim ker(B^m - I) over F_q, with B = K^e;
no extension field is built (Lang's theorem, S. Lang, Amer. J. Math. 78,
1956, in the unit-root form of N. Katz, LNM 350, 1973, 4.1).  Sizes are
capped before any work: q <= 2^16 for a context, q^m <= 2^32 for the
extension degree of a fixed-point count (``CapExceeded``).

An element is its integer code in [0, q): the same code of its
coordinates over the power basis ``1, t, ..., t^{e-1}``.  Each context
builds q-sized tables once (q <= 2^16, else ``CapExceeded``): the q
element objects themselves, so arithmetic returns shared objects; and,
as int lists on codes, the powers and discrete logarithms of the first
primitive element g (in code order) and the Zech logarithms
log_g(1 + g^n), so a product is one log sum and a sum one Zech lookup (in
characteristic 2 a sum is the XOR of the codes, in a prime field their
sum mod p); negation, inverse, the Frobenius a -> a^p and its inverse;
and the coordinate digits.  Polynomials (``poly``) work on these code
lists directly and meet elements only at their edges.

The F_p form of F_q matrices has one builder, ``FrobeniusContext.fp_blocks``:
an entry becomes the block of multiplication by it on coordinates, after
the Frobenius (P_LINEAR) or the p-th root (P_INV_LINEAR) of the input
coordinates if asked.  A block is linear in its entry: the entry's digits
applied to the blocks of 1, t, ..., t^(e-1), built once with the twists.
"""

from functools import lru_cache

import numpy as np

from .errors import (
    CapExceeded,
    ContextMismatchError,
    ValidationError,
    stabilize,
)
from . import kernels

P_LINEAR = "p-linear"
P_INV_LINEAR = "p-inv-linear"

_Q_CAP = 2**16
_QM_CAP = 2**32


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# -- F_p[s]/(modulus) as F_p matrices on the power basis 1, s, ..., s^(n-1) --


def _mat_pow(mat, n, p):
    out = np.eye(len(mat), dtype=np.int64)
    while n:
        if n & 1:
            out = kernels.matmul_mod_p(out, mat, p)
        n >>= 1
        if n:
            mat = kernels.matmul_mod_p(mat, mat, p)
    return out


def _powers(mat, p):
    """mat^0, ..., mat^(n-1) for an n x n matrix, as one array."""
    out = [np.eye(len(mat), dtype=np.int64)]
    for _ in range(len(mat) - 1):
        out.append(mat @ out[-1] % p)
    return np.array(out)


def _companion(p, modulus):
    """Multiplication by s: the companion matrix of the monic modulus."""
    n = len(modulus) - 1
    ms = np.zeros((n, n), dtype=np.int64)
    ms[1:, :-1] = np.eye(n - 1, dtype=np.int64)
    ms[:, -1] = [(-c) % p for c in modulus[:-1]]
    return ms


def _mul_blocks(p, modulus):
    """[k] is the matrix of multiplication by s^k, k < n."""
    return _powers(_companion(p, modulus), p)


def _frobenius_matrix(p, modulus):
    """The matrix of y -> y^p: column j is the coordinates of s^(p j), the
    first column of (multiplication by s^p)^j."""
    return _powers(_mat_pow(_companion(p, modulus), p, p), p)[:, :, 0].T


def _fp_irreducible(p, modulus):
    """Whether F_p[s]/(modulus) is a field (Berlekamp's criterion).  Its
    Frobenius F fixes one copy of F_p per distinct irreducible factor, so
    the nullity of F - I is 1 exactly when the modulus is a power g^k of
    one irreducible g; for k > 1 the nonzero nilpotent g shows F^n != I."""
    n = len(modulus) - 1
    frob = _frobenius_matrix(p, modulus)
    one = np.eye(n, dtype=np.int64)
    return (
        (_mat_pow(frob, n, p) == one).all()
        and kernels.rank_mod_p(frob - one, p) == n - 1
    )


@lru_cache(maxsize=None)
def _first_irreducible_fp(p, e):
    for code in range(p**e):
        cand = [(code // p**i) % p for i in range(e)] + [1]
        if _fp_irreducible(p, cand):
            return tuple(cand)
    raise ValidationError(f"no irreducible polynomial of degree {e} over F_{p}")  # pragma: no cover


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


def _poly_str(coeffs):
    """'c*t^k+...+c_0' from coefficients listed low degree first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c:
            tpow = "" if i == 0 else "t" if i == 1 else f"t^{i}"
            parts.append(str(c) if not tpow else tpow if c == 1 else f"{c}*{tpow}")
    return "+".join(parts) or "0"


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
        return self + ctx._elems[ctx._neg[other.code]]

    def __neg__(self):
        return self.ctx._elems[self.ctx._neg[self.code]]

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
        return self.ctx._elems[self.ctx._inv[self.code]]

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
        return _poly_str(self.coords)

    def __repr__(self):
        return f"F{self.ctx.q}({self})"


class FrobeniusContext:
    """The field F_{p^e} with its canonical modulus and arithmetic tables.
    Contexts compare by identity; ``Fq`` interns them."""

    def __init__(self, p, e):
        if e < 1:
            raise ValidationError(f"extension degree e = {e} must be at least 1")
        # p >= 2, so q <= 2^16 needs e <= 16: p**e is never a big integer
        if e > 16 or p**e > _Q_CAP:
            raise CapExceeded(f"field size q = {p}^{e} exceeds {_Q_CAP}")
        if not _is_prime(p):
            raise ValidationError(f"p = {p} is not prime")
        self.p, self.e = p, e
        self.q = q = p**e
        self.modulus = _first_irreducible_fp(p, e)
        # [k] is the F_p matrix of multiplication by t^k on coordinates
        self._mul_blocks = _mul_blocks(p, self.modulus)
        self._frob_matrix = _frobenius_matrix(p, self.modulus)
        self._frob_inv_matrix = _mat_pow(self._frob_matrix, e - 1, p)
        self._digits = digits = np.arange(q)[:, None] // p ** np.arange(e) % p
        self._coords = [tuple(row) for row in digits.tolist()]
        self._elems = elems = [FieldElement(self, c) for c in range(q)]
        self.zero, self.one = elems[0], elems[1]
        self.gen = elems[p if e > 1 else 0]
        # the first element of order q - 1, in code order
        for g in range(1, q):
            mat = self.fp_blocks(digits[g][None, None]).reshape(e, e)
            if _has_order(mat, p, q - 1):
                break
        # the tables on codes, as int lists: the powers g^n (listed twice,
        # so a sum of two logarithms needs no reduction), the logarithms,
        # the Zech logarithms log(1 + g^n) (None where 1 + g^n = 0, also
        # listed twice), negation, inverse, Frobenius and p-th root
        exp = _power_codes(mat, p, q)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp = exp.tolist() * 2
        self._log = log.tolist()
        low = digits[exp, 0]
        one_plus = (exp - low + (low + 1) % p).tolist()
        self._zech = [self._log[c] if c else None for c in one_plus] * 2
        self._neg = ((-digits % p) @ p ** np.arange(e)).tolist()

        def power_map(n):  # a -> a^n, through the logarithms
            return [0] + [self._exp[k * n % (q - 1)] for k in self._log[1:]]

        self._inv = power_map(-1)
        self._frob = power_map(p)
        self._root = power_map(p ** (e - 1))
        # the powers as elements, for products of elements
        self._pow = [elems[c] for c in self._exp]

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

    # -- F_p form ------------------------------------------------------------

    def fp_blocks(self, digits, kind=None):
        """The F_p form of F_q matrices given by the coordinate digits of
        their entries, shape (..., rows, columns, e): the [..., i, :, j, :]
        block is the matrix of multiplication by entry [..., i, j] on
        coordinates, after the twist of the input coordinates by ``kind``:
        none, the Frobenius (P_LINEAR) or the p-th root (P_INV_LINEAR)."""
        blocks = self._mul_blocks
        if kind is not None:
            twist = {P_LINEAR: self._frob_matrix,
                     P_INV_LINEAR: self._frob_inv_matrix}[kind]
            blocks = blocks @ twist % self.p
        return np.einsum("...ijk,kab->...iajb", digits, blocks) % self.p

    # -- Frobenius ----------------------------------------------------------

    def frobenius(self, a):
        return self._elems[self._frob[a.code]]

    def frobenius_inv(self, a):
        """The p-th root, equal to a -> a^(p^(e-1))."""
        return self._elems[self._root[a.code]]

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
    the input: the columns of v's F_p form (``fp_blocks``).  The F_q RREF
    rows are the F_p RREF rows whose pivot is the first coordinate of an
    entry.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return ()
    p, e, n = ctx.p, ctx.e, len(rows[0])
    codes = np.array(
        [[x.code for x in row] for row in rows], dtype=np.int64
    ).reshape(len(rows), n, 1)
    mat = ctx.fp_blocks(ctx._digits[codes]).reshape(len(rows), n * e, e)
    red, pivots = kernels.rref_mod_p(
        mat.transpose(0, 2, 1).reshape(len(rows) * e, n * e), p)
    keep = red[: pivots.size][pivots % e == 0]
    keep = keep.reshape(len(keep), n, e) @ p ** np.arange(e, dtype=np.int64)
    elems = ctx._elems
    return tuple(tuple(elems[c] for c in row) for row in keep.tolist())


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


def iterated_image_chain(T, cap=None):
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

    def image(chain):
        basis = chain[-1]
        return fq_rref([T.apply(b) for b in basis], ctx) if basis else ()

    return stabilize(full, image, "image chain", cap)


def is_nilpotent_semilinear(T, cap=None):
    """(nilpotent?, order or None, chain dims).  Order is the first n with T^n = 0."""
    chain = iterated_image_chain(T, cap=cap)
    dims = [len(b) for b in chain]
    if dims[-1] == 0:
        return True, len(chain) - 1, dims
    return False, None, dims


# ---------------------------------------------------------------------------
# Fixed points over F_{q^m}
# ---------------------------------------------------------------------------


def check_extension_cap(ctx, m):
    """The extension degree m must be at least 1, with q^m <= 2^32.  The
    count builds no F_{q^m}, so the bound is a documented limit of the
    library, not a necessity of the method.  q >= 2, so m <= 32 is
    checked first and q**m is never a big integer."""
    if m < 1:
        raise ValidationError(f"extension degree m = {m} must be at least 1")
    if m > 32 or ctx.q**m > _QM_CAP:
        raise CapExceeded(f"F_(q^m) with q = {ctx.q}, m = {m} exceeds 2^32 elements")


def fixed_points_dimension(T, m):
    """dim_{F_p} of the fixed space of T extended to F_{q^m}^r: dim
    ker(B^m - I) over F_q, with B = K^e and K the F_p matrix of T; no
    extension field is built.  K is ``fp_blocks`` of T's matrix, with the
    twist of T's kind."""
    ctx = T.ctx
    check_extension_cap(ctx, m)
    e, r = ctx.e, T.dim
    codes = np.array([[x.code for x in row] for row in T.matrix], dtype=np.int64)
    K = ctx.fp_blocks(ctx._digits[codes.reshape(r, r)], T.kind)
    return _fixed_dims(K.reshape(r * e, r * e), ctx.p, e, m)[-1]


def _fixed_dims(K, p, e, max_m):
    """F_p-dimensions of the fixed spaces over F_{q^m}, m = 1..max_m, of
    the map with F_p matrix K on F_q^r, p-linear or p^{-1}-linear.

    B = K^e is F_q-linear, and over any extension T^(e m) v = B^m phi(v),
    phi the q^m-th power of the coordinates.  So a fixed vector over
    F_{q^m} lies in W = ker(B^m - I).  W is T-stable, and T is bijective
    on W over an algebraic closure, so there its fixed vectors form an
    F_p-space of dimension dim W (Lang's theorem; Katz, LNM 350, 4.1);
    each has phi(v) = T^(e m) v = v, coordinates in F_{q^m}.  The count
    is dim W over F_q: the F_p nullity of B^m - I divided by e."""
    n = len(K)
    one = np.eye(n, dtype=np.int64)
    B = _mat_pow(K, e, p)
    power, dims = one, []
    for _ in range(max_m):
        power = kernels.matmul_mod_p(power, B, p)
        dims.append((n - kernels.rank_mod_p(power - one, p)) // e)
    return dims
