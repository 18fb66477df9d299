"""Sparse multivariate polynomials over F_q with grevlex normal forms.

Supports at most three variables.  A polynomial is a dict {packed
monomial: nonzero coefficient code}.  The exponents (e_0, ..., e_{n-1})
are packed as their partial sums s_k = e_0 + ... + e_{k-1}, one per
32-bit field, s_1 lowest and the total degree s_n highest.  Grevlex
compares (d, -e_{n-1}, ..., -e_1), and d - e_{n-1} = s_{n-1} and so on
down, so grevlex order is integer order and the leading monomial is the
largest key; partial sums add, so monomial multiplication is integer
addition.  Over F_q[x] the key is the exponent.  No field may carry, so
the total degree is capped below 2^32 (``CapExceeded``): checked when a
polynomial is parsed or built and after ``*``, ``**`` and ``pth_power``,
by one comparison on the largest key.  Coefficients are combined on the
context's code tables (sums mod p or by Zech logarithms, products by
logarithms), and division works in place on one dict of codes.  Exponent
tuples and ``FieldElement`` appear only at the edges: ``leading``,
``coeff``, ``items``, ``sorted_terms``, parsing and printing.

Division has one loop, ``_divide``, and it reduces by leading data that
``_leads`` builds once per divisor set: ``IdealSpec`` builds it with its
basis, and ``buchberger`` adds one entry per basis element as it
arrives.  Divisibility of monomials is one integer test.  The exponents
are spread one per 33-bit field (e_i at bit 33 i), which leaves bit 32 of
each field free as a guard; with G the sum of the guards, a divides m
exactly when ((spread m | G) - spread a) & G == G.  It is exact for every
key: each exponent is below 2^32, so field i of spread m | G holds
2^32 + m_i, subtracting a_i borrows from no other field, and the guard
survives exactly when a_i <= m_i.

Gröbner bases come from Buchberger's algorithm with the normal strategy
and the Gebauer–Möller pair criteria (inputs capped at total degree 12,
reduced S-pairs capped at 20000).  The algorithm stops only when every
pair has been reduced to zero or dropped by those criteria, so its
output is a Gröbner basis by Buchberger's criterion and is not checked
again.  The final basis is made minimal and each element is reduced
once by the others, which gives the unique reduced basis, so normal
forms are canonical representatives in quotient rings.

Weak regular sequences are decided by dimension count: each prefix ideal
must be the unit ideal or have height equal to its length, with
dim R/I read off the leading monomials of its reduced Gröbner basis.

The p-power structure enters through ``frobenius_decompose``: every f has
a unique expansion f = sum_a g_a^p x^a over exponent vectors a in [0,p)^n,
computed termwise with the p-th root on coefficients and on the keys: over
F_q[x] a key splits by one divmod, in two or three variables its fields
are read inline and the quotient's partial sums packed directly; powers
f^n with n >= p take their base-p digits through the termwise
``pth_power``.
"""

import itertools
import operator
import re

from .errors import (
    CapExceeded,
    ContextMismatchError,
    ParseError,
    UnsupportedRingError,
    ValidationError,
)

_NVARS_CAP = 3
_BUCHBERGER_DEGREE_CAP = 12
_BUCHBERGER_PAIR_CAP = 20000
_FIELD = 32
_MASK = (1 << _FIELD) - 1
_DEGREE_CAP = 1 << _FIELD  # total degrees stay below this
_SPREAD = _FIELD + 1  # field width of spread exponents: a guard bit on top

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# Packed monomials and coefficient codes
# ---------------------------------------------------------------------------


def _pack(exps):
    """The packed key of an exponent vector of nonnegative ints."""
    key = s = 0
    for i, x in enumerate(exps):
        s += x
        key |= s << (_FIELD * i)
    if s >= _DEGREE_CAP:
        raise CapExceeded(f"total degree {s} exceeds the cap 2^32 - 1")
    return key


def _unpack(key, n):
    """The exponent vector of a packed key in n <= 3 variables."""
    if n == 1:
        return (key,)
    if n == 0:
        return ()
    s1 = key & _MASK
    if n == 2:
        return (s1, (key >> _FIELD) - s1)
    s2 = (key >> _FIELD) & _MASK
    return (s1, s2 - s1, (key >> 2 * _FIELD) - s2)


def _lcm(a, b, n):
    return _pack(map(max, _unpack(a, n), _unpack(b, n)))


def _check_degree(ring, top):
    """``top`` is the largest key of a result: its top field is the total
    degree, which is below 2^32 exactly when top is below ring._key_cap."""
    if top >= ring._key_cap:
        raise CapExceeded(
            f"total degree {top >> ring._top} exceeds the cap 2^32 - 1")


def _cmul(ctx, a, b):
    """The code of the product of two nonzero codes."""
    if ctx.e == 1:
        return a * b % ctx.p
    log = ctx._log
    return ctx._exp[log[a] + log[b]]


def _axpy(ctx, acc, terms, shift, c):
    """acc += c x^shift terms in place, for a packed monomial ``shift`` and
    a nonzero code ``c``; terms that cancel leave acc."""
    get = acc.get
    if ctx.e == 1:
        p = ctx.p
        for k, a in terms.items():
            k += shift
            s = (get(k, 0) + a * c) % p
            if s:
                acc[k] = s
            else:
                del acc[k]
        return
    log, exp, zech = ctx._log, ctx._exp, ctx._zech
    lc = log[c]
    for k, a in terms.items():
        k += shift
        lb = log[a] + lc
        cur = get(k)
        if cur is None:
            acc[k] = exp[lb]
            continue
        # cur + g^lb = g^lcur (1 + g^(lb - lcur))
        lcur = log[cur]
        z = zech[lb - lcur]
        if z is None:
            del acc[k]
        else:
            acc[k] = exp[lcur + z]


def _addmul(ring, acc, a, b):
    """acc += a b in place, for nonzero term dicts a and b of ``ring``: the
    loop runs over the shorter factor, and the degree cap is checked once
    for the product."""
    if len(a) > len(b):
        a, b = b, a
    _check_degree(ring, max(a) + max(b))
    ctx = ring.ctx
    for k, c in a.items():
        _axpy(ctx, acc, b, k, c)


_RINGS = {}  # (ctx, variables) -> PolyRing; contexts compare by identity


class PolyRing:
    """F_q[x_1, ..., x_n] with named variables, n <= 3 (n = 0 allowed).

    Rings are interned by (ctx, variables): ``PolyRing(ctx, vars)`` returns
    the same object every time, so rings compare by identity."""

    def __new__(cls, ctx, variables=("x",)):
        variables = tuple(variables)
        if len(variables) > _NVARS_CAP:
            raise CapExceeded(f"at most {_NVARS_CAP} variables supported")
        ring = _RINGS.get((ctx, variables))
        if ring is not None:
            return ring
        seen = set()
        for v in variables:
            if not _NAME_RE.fullmatch(v) or v == "t":
                raise ValidationError(f"bad variable name {v!r} ('t' is reserved)")
            if v in seen:
                raise ValidationError(f"duplicate variable name {v!r}")
            seen.add(v)
        ring = super().__new__(cls)
        ring.ctx = ctx
        ring.vars = variables
        ring.nvars = n = len(variables)
        ring._top = _FIELD * max(n - 1, 0)  # shift of the total degree field
        ring._key_cap = 1 << (_FIELD * n)
        ring._guard = sum(1 << (_SPREAD * i + _FIELD) for i in range(n))
        ring.zero = Polynomial(ring, {})
        ring.one = Polynomial(ring, {0: 1})
        return _RINGS.setdefault((ctx, variables), ring)

    def _code(self, c):
        if c.ctx is not self.ctx:
            raise ContextMismatchError(
                f"a coefficient in F_{c.ctx.q} cannot enter {self}")
        return c.code

    def scalar(self, c):
        if isinstance(c, int):
            c = self.ctx.scalar(c)
        if c.is_zero():
            return self.zero
        return Polynomial(self, {0: self._code(c)})

    def var(self, i):
        if not (0 <= i < self.nvars):
            raise ValidationError(f"no variable with index {i}")
        return Polynomial(self, {_pack(int(j == i) for j in range(self.nvars)): 1})

    def monomial(self, exps, coeff=None):
        exps = tuple(int(x) for x in exps)
        if len(exps) != self.nvars or any(x < 0 for x in exps):
            raise ValidationError(f"bad exponent vector {exps}")
        key = _pack(exps)
        if coeff is None:
            coeff = self.ctx.one
        if coeff.is_zero():
            return self.zero
        return Polynomial(self, {key: self._code(coeff)})

    def pth_basis(self):
        """All exponent vectors in [0,p)^n, in itertools.product order."""
        return list(itertools.product(range(self.ctx.p), repeat=self.nvars))

    def random_poly(self, rng, max_degree=3, max_terms=4):
        terms = {}
        for _ in range(rng.randrange(max_terms + 1)):
            expo = tuple(
                rng.randrange(max_degree + 1) for _ in range(self.nvars)
            )
            c = self.ctx.random_element(rng)
            if not c.is_zero():
                terms[_pack(expo)] = c.code
        return Polynomial(self, terms)

    def parse(self, text):
        return _parse_poly(self, text)

    def __repr__(self):
        inside = ", ".join(self.vars) if self.vars else ""
        return f"F{self.ctx.q}[{inside}]"


class Polynomial:
    """Immutable sparse polynomial: dict {packed monomial: nonzero code}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _check(self, other):
        if self.ring is not other.ring:
            raise ContextMismatchError(
                f"polynomials over {self.ring} and {other.ring} cannot be combined"
            )

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not any(self.terms)

    def constant_value(self):
        return self.ring.ctx._elems[self.terms.get(0, 0)]

    def is_unit(self):
        return self.is_constant() and not self.is_zero()

    def total_degree(self):
        if not self.terms:
            return -1
        return max(self.terms) >> self.ring._top

    def degree_in(self, i):
        if not self.terms:
            return -1
        n = self.ring.nvars
        if n == 1:
            return max(self.terms)
        return max(_unpack(k, n)[i] for k in self.terms)

    def items(self):
        """(exponent tuple, FieldElement) for each term."""
        n, elems = self.ring.nvars, self.ring.ctx._elems
        for k, c in self.terms.items():
            yield _unpack(k, n), elems[c]

    def __add__(self, other):
        self._check(other)
        a, b = self.terms, other.terms
        if not b:
            return self
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        _axpy(self.ring.ctx, out, b, 0, 1)
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        self._check(other)
        if not other.terms:
            return self
        ctx = self.ring.ctx
        out = dict(self.terms)
        _axpy(ctx, out, other.terms, 0, ctx._neg[1])
        return Polynomial(self.ring, out)

    def __neg__(self):
        neg = self.ring.ctx._neg
        return Polynomial(self.ring, {k: neg[c] for k, c in self.terms.items()})

    def __mul__(self, other):
        ring = self.ring
        out = {}
        if not isinstance(other, Polynomial):
            # field scalar
            if isinstance(other, int):
                other = ring.ctx.scalar(other)
            if not other.is_zero():
                _axpy(ring.ctx, out, self.terms, 0, ring._code(other))
            return Polynomial(ring, out)
        self._check(other)
        if not self.terms or not other.terms:
            return ring.zero
        _addmul(ring, out, self.terms, other.terms)
        return Polynomial(ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValidationError("negative polynomial power")
        if self.terms and n:
            _check_degree(self.ring, max(self.terms) * n)
        p = self.ring.ctx.p
        if n >= p:
            # f^n = (f^(n div p))^p f^(n mod p), the p-th power termwise
            return (self ** (n // p)).pth_power() * self ** (n % p)
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def pth_power(self):
        """f^p termwise (freshman's dream in characteristic p): the packed
        key of x^(p e) is p times that of x^e."""
        ring = self.ring
        p, frob = ring.ctx.p, ring.ctx._frob
        if self.terms:
            _check_degree(ring, max(self.terms) * p)
        return Polynomial(ring, {k * p: frob[c] for k, c in self.terms.items()})

    def leading(self):
        """(monomial, coeff) of the grevlex-leading term."""
        if not self.terms:
            raise ValidationError("zero polynomial has no leading term")
        k = max(self.terms)
        return _unpack(k, self.ring.nvars), self.ring.ctx._elems[self.terms[k]]

    def sorted_terms(self):
        """(exponent tuple, FieldElement) pairs, grevlex-descending."""
        n, elems = self.ring.nvars, self.ring.ctx._elems
        return [(_unpack(k, n), elems[self.terms[k]])
                for k in sorted(self.terms, reverse=True)]

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


# ---------------------------------------------------------------------------
# Formatting and parsing
# ---------------------------------------------------------------------------


def _format_coeff(c):
    s = str(c)
    if "+" in s or "*" in s:
        return f"({s})"
    return s


def format_poly(f):
    """Canonical string: grevlex-descending terms joined by '+'."""
    if f.is_zero():
        return "0"
    parts = []
    for e, c in f.sorted_terms():
        factors = []
        for i, k in enumerate(e):
            if k == 0:
                continue
            name = f.ring.vars[i]
            factors.append(name if k == 1 else f"{name}^{k}")
        if not factors:
            parts.append(_format_coeff(c))
        elif c == f.ring.ctx.one:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([_format_coeff(c)] + factors))
    return "+".join(parts)


class _Tokens:
    """A cursor over the text.  ``pos`` is always the start of the next
    token (or the end): reading a token skips the whitespace after it, once.
    ``at`` is the position an error reports: the end of the token just
    read, or the start of the next one once it has been peeked at."""

    def __init__(self, text):
        self.text = text
        self.end = len(text)
        self._advance(0)

    def _advance(self, pos):
        """Read a token ending at ``pos`` and the whitespace after it."""
        self.at = pos
        text = self.text
        while pos < self.end and text[pos].isspace():
            pos += 1
        self.pos = pos

    def peek(self):
        self.at = self.pos
        return self.text[self.pos] if self.pos < self.end else None

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.text, self.pos)
        self._advance(self.pos + 1)

    def take_int(self):
        start = stop = self.pos
        while stop < self.end and self.text[stop].isdigit():
            stop += 1
        if stop == start:
            raise ParseError("expected an integer", self.text, start)
        try:
            value = int(self.text[start:stop])
        except ValueError:  # over int()'s digit limit, or a non-ASCII digit
            raise ParseError("unreadable integer", self.text, start) from None
        self._advance(stop)
        return value

    def take_name(self):
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected a name", self.text, self.pos)
        self._advance(m.end())
        return m.group(0)

    def done(self):
        self.at = self.pos
        return self.pos >= self.end


def _parse_coeff_atom(tk, ctx):
    """INT, or a parenthesized polynomial in the field generator t."""
    ch = tk.peek()
    if ch == "(":
        tk.expect("(")
        acc = ctx.zero
        while True:
            acc = acc + _parse_t_term(tk, ctx)
            if tk.peek() == "+":
                tk.expect("+")
                continue
            break
        tk.expect(")")
        return acc
    if ch is not None and ch.isdigit():
        return ctx.scalar(tk.take_int())
    raise ParseError("expected a coefficient", tk.text, tk.at)


def _take_exponent(tk):
    """An optional ^k with k >= 1; 1 when there is none."""
    if tk.peek() != "^":
        return 1
    tk.expect("^")
    k = tk.take_int()
    if k < 1:
        raise ParseError("exponent must be >= 1", tk.text, tk.at)
    return k


def _parse_t_term(tk, ctx):
    """One term of a t-polynomial: INT, t, t^k, INT*t, INT*t^k."""
    ch = tk.peek()
    coeff = 1
    if ch is not None and ch.isdigit():
        coeff = tk.take_int()
        if tk.peek() == "*":
            tk.expect("*")
        else:
            return ctx.scalar(coeff)
    name = tk.take_name()
    if name != "t":
        raise ParseError(f"unknown name {name!r} in coefficient", tk.text, tk.at)
    k = _take_exponent(tk)
    if ctx.e == 1:
        raise ParseError("generator t used over a prime field", tk.text, tk.at)
    return ctx.scalar(coeff) * ctx.gen**k


def _parse_term(tk, ring):
    ctx = ring.ctx
    coeff = ctx.one
    exps = [0] * ring.nvars
    ch = tk.peek()
    lead = None  # the reader of a leading coefficient, if the term has one
    if ch is not None and ch.isalpha():
        # a bare t-power may lead a term as its coefficient
        mark = tk.pos
        if tk.take_name() == "t":
            lead = _parse_t_term
        tk.pos = tk.at = mark
    elif ch is not None and (ch.isdigit() or ch == "("):
        lead = _parse_coeff_atom
    if lead is not None:
        coeff = lead(tk, ctx)
        if tk.peek() != "*":
            return ring.scalar(coeff)
        tk.expect("*")
    while True:
        name = tk.take_name()
        if name == "t":
            raise ParseError(
                "parenthesize compound coefficients, e.g. (2*t+1)", tk.text, tk.at
            )
        if name not in ring.vars:
            raise ParseError(f"unknown variable {name!r}", tk.text, tk.at)
        i = ring.vars.index(name)
        if exps[i] != 0:
            raise ParseError(f"variable {name!r} repeated in term", tk.text, tk.at)
        exps[i] = _take_exponent(tk)
        if tk.peek() != "*":
            return ring.monomial(exps, coeff)
        tk.expect("*")


def _parse_poly(ring, text):
    if not isinstance(text, str):
        raise ParseError("polynomial must be a string", repr(text), 0)
    tk = _Tokens(text)
    if tk.done():
        raise ParseError("empty polynomial string", text, 0)
    acc = ring.zero
    while True:
        acc = acc + _parse_term(tk, ring)
        if tk.peek() == "+":
            tk.expect("+")
            continue
        break
    if not tk.done():
        raise ParseError("trailing input", text, tk.at)
    return acc


# ---------------------------------------------------------------------------
# Frobenius decomposition
# ---------------------------------------------------------------------------


def frobenius_decompose(f):
    """Components {a: g_a} of the unique expansion f = sum_a g_a^p x^a.

    a runs over [0,p)^n; only nonzero components are returned.  The p-th
    root on coefficients makes the expansion exact over any F_{p^e}.
    e -> (e mod p, e div p) is injective, so no two terms meet; the
    quotient's key lies below the key, so it needs no cap check.
    """
    ring = f.ring
    n, p, root = ring.nvars, ring.ctx.p, ring.ctx._root
    comps = {}
    if n == 1:
        for k, c in f.terms.items():
            q, a = divmod(k, p)
            comps.setdefault((a,), {})[q] = root[c]
    elif n == 2:
        for k, c in f.terms.items():
            e0 = k & _MASK
            e1 = (k >> _FIELD) - e0
            q0 = e0 // p
            comps.setdefault((e0 % p, e1 % p), {})[
                q0 | (q0 + e1 // p) << _FIELD] = root[c]
    elif n == 3:
        for k, c in f.terms.items():
            e0 = k & _MASK
            s2 = (k >> _FIELD) & _MASK
            e1, e2 = s2 - e0, (k >> 2 * _FIELD) - s2
            q0 = e0 // p
            q1 = q0 + e1 // p
            comps.setdefault((e0 % p, e1 % p, e2 % p), {})[
                q0 | q1 << _FIELD | (q1 + e2 // p) << 2 * _FIELD] = root[c]
    elif f.terms:  # n == 0: the constant is its own component
        comps[()] = {0: root[f.terms[0]]}
    return {a: Polynomial(ring, terms) for a, terms in comps.items()}


def frobenius_component(f, a):
    """g_a from the decomposition, as a polynomial (zero if absent)."""
    return frobenius_decompose(f).get(tuple(a), f.ring.zero)


# ---------------------------------------------------------------------------
# Division and Gröbner bases
# ---------------------------------------------------------------------------


def _spread(key, n):
    """The exponents of a packed key, one per 33-bit field: e_i at bit
    33 i, with bit 32 of each field free as the guard of ``_divide``."""
    if n < 2:
        return key
    s1 = key & _MASK
    if n == 2:
        return s1 | ((key >> _FIELD) - s1) << _SPREAD
    s2 = (key >> _FIELD) & _MASK
    return s1 | (s2 - s1) << _SPREAD | ((key >> 2 * _FIELD) - s2) << 2 * _SPREAD


def _leads(divisors, ring):
    """(leading key, spread leading exponents, code of -1 / leading coeff,
    terms) of each divisor, the data ``_divide`` reduces by."""
    neg, inv, n = ring.ctx._neg, ring.ctx._inv, ring.nvars
    leads = []
    for d in divisors:
        ring.zero._check(d)
        if not d.terms:
            raise ValidationError("division by the zero polynomial")
        lk = max(d.terms)
        leads.append((lk, _spread(lk, n), neg[inv[d.terms[lk]]], d.terms))
    return leads


def _divide(ring, terms, leads, quots=None):
    """The remainder of ``terms`` on division by ``leads`` (from
    ``_leads``), with the quotient of leads[i] added to quots[i] when
    ``quots`` is given: the one reduction loop.  The largest key is
    cancelled by the first divisor whose leading monomial divides it (the
    guard-bit test) or moved to the remainder."""
    ctx, n = ring.ctx, ring.nvars
    neg, guard = ctx._neg, ring._guard
    rem = {}
    work = dict(terms)
    while work:
        m = max(work)
        c = work[m]
        sm = _spread(m, n) | guard
        for i, (lk, sa, factor, dterms) in enumerate(leads):
            if (sm - sa) & guard == guard:
                qc = _cmul(ctx, c, factor)  # -c / lc
                if quots is not None:
                    quots[i][m - lk] = neg[qc]
                _axpy(ctx, work, dterms, m - lk, qc)
                break
        else:
            rem[m] = c
            del work[m]
    return rem


def divmod_multi(f, divisors):
    """Multivariate division: f = sum q_i d_i + r with no r-term divisible
    by any leading monomial of the d_i.  Returns (quotients, r)."""
    ring = f.ring
    quots = [{} for _ in divisors]
    rem = _divide(ring, f.terms, _leads(divisors, ring), quots)
    return [Polynomial(ring, q) for q in quots], Polynomial(ring, rem)


def normal_form(f, basis):
    if not basis:
        return f
    return Polynomial(f.ring, _divide(f.ring, f.terms, _leads(basis, f.ring)))


def s_polynomial(f, g):
    """lcm/LT(f) f - lcm/LT(g) g, lcm the least common multiple of the
    leading monomials and LT the leading terms."""
    f._check(g)
    ring = f.ring
    ctx = ring.ctx
    mf, mg = max(f.terms), max(g.terms)
    lcm = _lcm(mf, mg, ring.nvars)
    out = {}
    _axpy(ctx, out, f.terms, lcm - mf, ctx._inv[f.terms[mf]])
    _axpy(ctx, out, g.terms, lcm - mg, ctx._neg[ctx._inv[g.terms[mg]]])
    return Polynomial(ring, out)


def buchberger(generators, tracked=False):
    """Reduced Gröbner basis (grevlex) of the given generators.

    Buchberger's algorithm with the normal strategy: the pending pair
    with the smallest lcm of leading monomials is reduced first.  Each
    input generator, and each nonzero remainder h, enters through the
    Gebauer–Möller update (J. Symb. Comput. 6, 1988; in the form of
    Becker–Weispfenning, *Gröbner Bases*, 1993, p. 230):
    of the new pairs (g, h) only those whose lcm is minimal under
    divisibility survive, one per lcm, and none whose lcm class holds a
    coprime pair; an old pair (i, j) goes when LM(h) divides its lcm L
    and neither lcm(i, h) nor lcm(j, h) is L; and every active element
    whose leading monomial LM(h) divides leaves the active set, which is
    what S-polynomials are divided by.  The active set ends as a
    Gröbner basis; dropping the elements whose leading monomial is a
    multiple of another's makes it minimal, and reducing each element
    once by the others makes it the unique reduced basis
    (Cox–Little–O'Shea, §2.7).

    With ``tracked=True`` also returns, for each basis element, its
    expression as a combination of the input generators.
    """
    ring = None
    gens = [g for g in generators if not g.is_zero()]
    for g in gens:
        ring = g.ring
        if g.total_degree() > _BUCHBERGER_DEGREE_CAP:
            raise CapExceeded(
                f"generator degree {g.total_degree()} exceeds cap "
                f"{_BUCHBERGER_DEGREE_CAP}"
            )
    if ring is None:
        return ([], []) if tracked else []

    n = ring.nvars
    inv = ring.ctx._inv
    le = operator.le
    # exprs[i] expresses basis[i] in the n_in inputs; untracked, they stay
    # empty
    n_in = len(gens) if tracked else 0
    basis, exprs, lexps = [], [], []  # lexps: leading exponents
    lead = []  # lead[i]: the ``_leads`` entry of basis[i]
    active = []  # indices into basis, in order of arrival
    pairs = []  # (lcm key, i, j, lcm exponents)

    def reduce_by(f, divisors):
        """f's remainder on division by basis[g] for g in divisors, and
        its quotient term dicts if tracked (else None)."""
        quots = [{} for _ in divisors] if tracked else None
        rem = _divide(ring, f.terms, [lead[g] for g in divisors], quots)
        return Polynomial(ring, rem), quots

    def minus_combination(fexpr, quots, divisors):
        """fexpr - sum_i quots[i] exprs[divisors[i]]."""
        out = list(fexpr)
        for q, g in zip(quots or (), divisors):
            if q:
                q = Polynomial(ring, q)
                for k in range(n_in):
                    out[k] = out[k] - q * exprs[g][k]
        return out

    def update(h, hexpr):
        """The Gebauer–Möller update for a new element h."""
        k = len(basis)
        eh = _unpack(max(h.terms), n)
        basis.append(h)
        exprs.append(hexpr)
        lexps.append(eh)
        lead.extend(_leads([h], ring))
        # lcm of each new pair (g, h) -> the first g, or None if one is coprime
        new = {}
        for g in active:
            e = tuple(map(max, lexps[g], eh))
            if any(map(min, lexps[g], eh)):
                new.setdefault(e, g)
            else:
                new[e] = None
        # an old pair goes if LM(h) divides its lcm L and lcm(i, h) and
        # lcm(j, h) both differ from L
        pairs[:] = [
            pr for pr in pairs
            if not all(map(le, eh, pr[3]))
            or tuple(map(max, lexps[pr[1]], eh)) == pr[3]
            or tuple(map(max, lexps[pr[2]], eh)) == pr[3]
        ]
        for e, g in new.items():
            if g is not None and not any(
                    f != e and all(map(le, f, e)) for f in new):
                pairs.append((_pack(e), g, k, e))
        active[:] = [g for g in active if not all(map(le, eh, lexps[g]))]
        active.append(k)

    for i, g in enumerate(gens):
        update(g, [ring.one if j == i else ring.zero for j in range(n_in)])

    processed = 0
    while pairs:
        processed += 1
        if processed > _BUCHBERGER_PAIR_CAP:
            raise CapExceeded("Buchberger pair cap exceeded")
        pair = min(pairs)
        pairs.remove(pair)
        lcm, i, j, _ = pair
        fi, fj = basis[i], basis[j]
        rem, quots = reduce_by(s_polynomial(fi, fj), active)
        if rem.is_zero():
            continue
        sexpr = []
        if tracked:
            mi, mj = max(fi.terms), max(fj.terms)
            tf = Polynomial(ring, {lcm - mi: inv[fi.terms[mi]]})
            tg = Polynomial(ring, {lcm - mj: inv[fj.terms[mj]]})
            sexpr = [tf * a - tg * b for a, b in zip(exprs[i], exprs[j])]
        update(rem, minus_combination(sexpr, quots, active))

    # the minimal basis: no leading monomial divides another (update
    # leaves no two equal ones active), then each element reduced once by
    # the others
    minimal = [
        g for g in active
        if not any(o != g and all(map(le, lexps[o], lexps[g]))
                   for o in active)
    ]
    out = []
    for g in minimal:
        others = [o for o in minimal if o != g]
        b, ex = basis[g], exprs[g]
        if others:
            b, quots = reduce_by(b, others)
            ex = minus_combination(ex, quots, others)
        u = b.leading()[1].inv()
        out.append((b * u, [e * u for e in ex]))
    out.sort(key=lambda t: max(t[0].terms), reverse=True)
    if tracked:
        return [b for b, _ in out], [e for _, e in out]
    return [b for b, _ in out]


class IdealSpec:
    """An ideal with its reduced Gröbner basis, certified by Buchberger's
    criterion as ``buchberger`` builds it: that stops only when every pair
    has been reduced to zero or dropped by the Gebauer–Möller criteria."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = tuple(generators)
        for g in self.generators:
            if g.ring is not ring:
                raise ContextMismatchError("ideal generator from a different ring")
        self.groebner = tuple(buchberger(list(self.generators)))
        self._leads = _leads(self.groebner, ring)

    def normal_form(self, f):
        self.ring.zero._check(f)
        if not self._leads:
            return f
        return Polynomial(self.ring, _divide(self.ring, f.terms, self._leads))

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self):
        return any(g.is_unit() for g in self.groebner)

    def __eq__(self, other):
        return (
            isinstance(other, IdealSpec)
            and self.ring is other.ring
            and self.groebner == other.groebner
        )

    def __hash__(self):
        return hash((self.ring, self.groebner))

    def __repr__(self):
        return f"IdealSpec({', '.join(str(g) for g in self.groebner) or '0'})"


def solve_membership(f, generators):
    """Coefficients c with f = sum c_i g_i, or None if f is not a member."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return None if not f.is_zero() else []
    gb, exprs = buchberger(gens, tracked=True)
    ring = f.ring
    quots = [{} for _ in gb]
    if _divide(ring, f.terms, _leads(gb, ring), quots):
        return None
    coeffs = [ring.zero] * len(gens)
    for q, ex in zip(quots, exprs):
        if not q:
            continue
        q = Polynomial(ring, q)
        for k in range(len(gens)):
            coeffs[k] = coeffs[k] + q * ex[k]
    # map back to the caller's (possibly zero-padded) generator list
    out = []
    it = iter(coeffs)
    for g in generators:
        out.append(next(it) if not g.is_zero() else ring.zero)
    return out


# ---------------------------------------------------------------------------
# Regular sequences
# ---------------------------------------------------------------------------


def _quotient_dimension(gb, n):
    """dim R/I for a Gröbner basis gb of I in n variables: the size of the
    largest set S of variables such that no leading monomial of gb is a
    monomial in S alone (Cox–Little–O'Shea, ch. 9 §3), or -1 for the unit
    ideal, whose leading monomial 1 lies in every S."""
    supports = []  # bit i set when x_i divides the leading monomial
    for g in gb:
        e = _unpack(max(g.terms), n)
        supports.append(sum(1 << i for i in range(n) if e[i]))
    return max((s.bit_count() for s in range(1 << n)
                if all(m & ~s for m in supports)), default=-1)


def is_regular_sequence(seq, ring):
    """Decide whether seq is a weak regular sequence in R = F_q[x_1..x_n].

    By dimension count.  Given a regular prefix f_1..f_(k-1), its ideal is
    unmixed (R is Cohen–Macaulay), so f_k is regular modulo it exactly
    when f_k lies in none of its minimal primes, that is when the ideal
    I_k of f_1..f_k has height k = n - dim R/I_k; dim R/I_k is read off
    the leading monomials of the reduced Gröbner basis of I_k.  Once I_k
    is the unit ideal every further step is regular (the zero ring; the
    weak convention, Bruns–Herzog §2.1), and an f_k already in I_(k-1)
    is not.

    The refusal boundary is kept: a step after a prefix ideal that is
    neither generated by polynomials of degree <= 1 nor principal in
    <= 2 variables raises UnsupportedRingError instead of being decided.
    """
    seq = list(seq)
    for f in seq:
        if f.ring is not ring:
            raise ContextMismatchError("sequence element from a different ring")
    n = ring.nvars
    gb = []  # reduced basis of the prefix ideal
    for k, f in enumerate(seq, 1):
        if normal_form(f, gb).is_zero():
            return False  # f lies in the ideal: multiplies to zero
        if gb and not all(g.total_degree() <= 1 for g in gb) and (
                len(gb) != 1 or n > 2):
            raise UnsupportedRingError(
                "cannot certify regularity at this step (ideal neither "
                "linear nor principal in <= 2 variables)"
            )
        gb = buchberger(gb + [f])
        if any(g.is_unit() for g in gb):
            return True  # quotient is the zero ring; all further steps regular
        if n - _quotient_dimension(gb, n) != k:
            return False
    return True
