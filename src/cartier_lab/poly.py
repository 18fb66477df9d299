"""Sparse multivariate polynomials over F_q with grevlex normal forms.

Supports at most three variables.  Monomials are exponent tuples; the
monomial order everywhere is graded reverse lexicographic.  Gröbner bases
come from a plain Buchberger loop (inputs capped at total degree 12) and
are inter-reduced to the unique reduced basis, so normal forms are
canonical representatives in quotient rings.

The p-power structure enters through ``frobenius_decompose``: every f has
a unique expansion f = sum_a g_a^p x^a over exponent vectors a in [0,p)^n,
computed termwise with the p-th root on coefficients.
"""

import itertools
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

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def grevlex_key(mono):
    """Sort key: greater key = greater monomial in grevlex."""
    return (sum(mono),) + tuple(-mono[i] for i in range(len(mono) - 1, -1, -1))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class PolyRing:
    """F_q[x_1, ..., x_n] with named variables, n <= 3 (n = 0 allowed)."""

    def __init__(self, ctx, variables=("x",)):
        variables = tuple(variables)
        if len(variables) > _NVARS_CAP:
            raise CapExceeded(f"at most {_NVARS_CAP} variables supported")
        seen = set()
        for v in variables:
            if not _NAME_RE.fullmatch(v) or v == "t":
                raise ValidationError(f"bad variable name {v!r} ('t' is reserved)")
            if v in seen:
                raise ValidationError(f"duplicate variable name {v!r}")
            seen.add(v)
        self.ctx = ctx
        self.vars = variables
        self.nvars = len(variables)
        self.zero = Polynomial(self, {})
        self.one = Polynomial(self, {(0,) * self.nvars: ctx.one})

    def scalar(self, c):
        if isinstance(c, int):
            c = self.ctx.scalar(c)
        if c.is_zero():
            return self.zero
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, i):
        if not (0 <= i < self.nvars):
            raise ValidationError(f"no variable with index {i}")
        expo = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {expo: self.ctx.one})

    def monomial(self, exps, coeff=None):
        exps = tuple(int(x) for x in exps)
        if len(exps) != self.nvars or any(x < 0 for x in exps):
            raise ValidationError(f"bad exponent vector {exps}")
        if coeff is None:
            coeff = self.ctx.one
        if coeff.is_zero():
            return self.zero
        return Polynomial(self, {exps: coeff})

    def from_terms(self, terms):
        acc = {}
        for exps, c in terms:
            if c.is_zero():
                continue
            cur = acc.get(exps)
            c = cur + c if cur is not None else c
            if c.is_zero():
                acc.pop(exps, None)
            else:
                acc[exps] = c
        return Polynomial(self, acc)

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
                terms[expo] = c
        return Polynomial(self, terms)

    def parse(self, text):
        return _parse_poly(self, text)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.ctx is other.ctx
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((self.ctx, self.vars))

    def __repr__(self):
        inside = ", ".join(self.vars) if self.vars else ""
        return f"F{self.ctx.q}[{inside}]"


class Polynomial:
    """Immutable sparse polynomial: dict {exponent tuple: nonzero coeff}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ContextMismatchError(
                f"polynomials over {self.ring} and {other.ring} cannot be combined"
            )

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.ctx.zero)

    def is_unit(self):
        return self.is_constant() and not self.is_zero()

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            s = cur + c if cur is not None else c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.scalar(other)
        if not isinstance(other, Polynomial):
            # field scalar
            if other.is_zero():
                return self.ring.zero
            return Polynomial(
                self.ring, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _mono_mul(e1, e2)
                c = c1 * c2
                cur = out.get(e)
                s = cur + c if cur is not None else c
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c):
        return self * c

    def __pow__(self, n):
        if n < 0:
            raise ValidationError("negative polynomial power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def pth_power(self):
        """f^p termwise (freshman's dream in characteristic p)."""
        p = self.ring.ctx.p
        return Polynomial(
            self.ring,
            {
                tuple(x * p for x in e): self.ring.ctx.frobenius(c)
                for e, c in self.terms.items()
            },
        )

    def leading(self):
        """(monomial, coeff) of the grevlex-leading term."""
        if not self.terms:
            raise ValidationError("zero polynomial has no leading term")
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def monic(self):
        if self.is_zero():
            return self
        _, c = self.leading()
        return self * c.inv()

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.ring.ctx.zero)

    def substitute(self, assignments):
        """Substitute {var index: Polynomial in a target ring}.

        Every variable of self must be assigned; constants map through.
        """
        ring = None
        for v in assignments.values():
            ring = v.ring
            break
        if ring is None:
            raise ValidationError("empty substitution")
        out = ring.zero
        for e, c in self.terms.items():
            term = ring.scalar(c)
            for i, k in enumerate(e):
                if k:
                    if i not in assignments:
                        raise ValidationError(f"no assignment for variable index {i}")
                    term = term * (assignments[i] ** k)
            out = out + term
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and (self.ring is other.ring or self.ring == other.ring)
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
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.text, self.pos)
        self.pos += 1

    def take_int(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", self.text, self.pos)
        return int(self.text[start : self.pos])

    def take_name(self):
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected a name", self.text, self.pos)
        self.pos = m.end()
        return m.group(0)

    def done(self):
        self.skip_ws()
        return self.pos >= len(self.text)


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
    raise ParseError("expected a coefficient", tk.text, tk.pos)


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
        raise ParseError(f"unknown name {name!r} in coefficient", tk.text, tk.pos)
    k = 1
    if tk.peek() == "^":
        tk.expect("^")
        k = tk.take_int()
        if k < 1:
            raise ParseError("exponent must be >= 1", tk.text, tk.pos)
    if ctx.e == 1:
        raise ParseError("generator t used over a prime field", tk.text, tk.pos)
    return ctx.scalar(coeff) * ctx.gen**k


def _parse_term(tk, ring):
    ctx = ring.ctx
    coeff = ctx.one
    exps = [0] * ring.nvars
    saw_factor = False
    ch = tk.peek()
    bare_t = False
    if ch is not None and ch.isalpha():
        # a bare t-power may lead a term as its coefficient
        mark = tk.pos
        name = tk.take_name()
        if name == "t":
            bare_t = True
        else:
            tk.pos = mark
    if bare_t:
        k = 1
        if tk.peek() == "^":
            tk.expect("^")
            k = tk.take_int()
            if k < 1:
                raise ParseError("exponent must be >= 1", tk.text, tk.pos)
        if ctx.e == 1:
            raise ParseError("generator t used over a prime field", tk.text, tk.pos)
        coeff = ctx.gen**k
        saw_factor = True
        if tk.peek() == "*":
            tk.expect("*")
        else:
            return ring.scalar(coeff)
    elif ch is not None and (ch.isdigit() or ch == "("):
        coeff = _parse_coeff_atom(tk, ctx)
        saw_factor = True
        if tk.peek() == "*":
            tk.expect("*")
        else:
            return ring.scalar(coeff)
    while True:
        name = tk.take_name()
        if name == "t":
            raise ParseError(
                "parenthesize compound coefficients, e.g. (2*t+1)", tk.text, tk.pos
            )
        if name not in ring.vars:
            raise ParseError(f"unknown variable {name!r}", tk.text, tk.pos)
        i = ring.vars.index(name)
        if exps[i] != 0:
            raise ParseError(f"variable {name!r} repeated in term", tk.text, tk.pos)
        k = 1
        if tk.peek() == "^":
            tk.expect("^")
            k = tk.take_int()
            if k < 1:
                raise ParseError("exponent must be >= 1", tk.text, tk.pos)
        exps[i] = k
        saw_factor = True
        if tk.peek() == "*":
            tk.expect("*")
            continue
        break
    if not saw_factor:
        raise ParseError("empty term", tk.text, tk.pos)
    return ring.monomial(exps, coeff)


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
        raise ParseError("trailing input", text, tk.pos)
    return acc


# ---------------------------------------------------------------------------
# Frobenius decomposition
# ---------------------------------------------------------------------------


def frobenius_decompose(f):
    """Components {a: g_a} of the unique expansion f = sum_a g_a^p x^a.

    a runs over [0,p)^n; only nonzero components are returned.  The p-th
    root on coefficients makes the expansion exact over any F_{p^e}.
    """
    ring = f.ring
    p = ring.ctx.p
    comps = {}
    for e, c in f.terms.items():
        a = tuple(x % p for x in e)
        q = tuple(x // p for x in e)
        root = ring.ctx.frobenius_inv(c)
        bucket = comps.setdefault(a, {})
        cur = bucket.get(q)
        s = cur + root if cur is not None else root
        if s.is_zero():
            bucket.pop(q, None)
        else:
            bucket[q] = s
    return {a: Polynomial(ring, terms) for a, terms in comps.items() if terms}


def frobenius_component(f, a):
    """g_a from the decomposition, as a polynomial (zero if absent)."""
    return frobenius_decompose(f).get(tuple(a), f.ring.zero)


# ---------------------------------------------------------------------------
# Division and Gröbner bases
# ---------------------------------------------------------------------------


def divmod_multi(f, divisors):
    """Multivariate division: f = sum q_i d_i + r with no r-term divisible
    by any leading monomial of the d_i.  Returns (quotients, r)."""
    ring = f.ring
    quots = [ring.zero] * len(divisors)
    rem = ring.zero
    leads = [d.leading() for d in divisors]
    work = f
    while not work.is_zero():
        m, c = work.leading()
        hit = False
        for i, (lm, lc) in enumerate(leads):
            if _mono_divides(lm, m):
                factor = ring.monomial(_mono_div(m, lm), c * lc.inv())
                quots[i] = quots[i] + factor
                work = work - factor * divisors[i]
                hit = True
                break
        if not hit:
            t = ring.monomial(m, c)
            rem = rem + t
            work = work - t
    return quots, rem


def normal_form(f, basis):
    if not basis:
        return f
    return divmod_multi(f, list(basis))[1]


def s_polynomial(f, g):
    ring = f.ring
    (mf, cf), (mg, cg) = f.leading(), g.leading()
    lcm = _mono_lcm(mf, mg)
    tf = ring.monomial(_mono_div(lcm, mf), cf.inv())
    tg = ring.monomial(_mono_div(lcm, mg), cg.inv())
    return tf * f - tg * g


def buchberger(generators, tracked=False):
    """Reduced Gröbner basis (grevlex) of the given generators.

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

    def unit_expr(i, n):
        return [ring.one if j == i else ring.zero for j in range(n)]

    n_in = len(gens)
    basis = list(gens)
    exprs = [unit_expr(i, n_in) for i in range(n_in)]

    def reduce_tracked(f, fexpr):
        quots, rem = divmod_multi(f, basis)
        rexpr = list(fexpr)
        for q, bexpr in zip(quots, exprs):
            if q.is_zero():
                continue
            for k in range(n_in):
                rexpr[k] = rexpr[k] - q * bexpr[k]
        return rem, rexpr

    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    processed = 0
    while pairs:
        processed += 1
        if processed > _BUCHBERGER_PAIR_CAP:
            raise CapExceeded("Buchberger pair cap exceeded")
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        (mi, ci), (mj, cj) = fi.leading(), fj.leading()
        if _mono_lcm(mi, mj) == _mono_mul(mi, mj):
            continue  # coprime leading monomials
        s = s_polynomial(fi, fj)
        lcm = _mono_lcm(mi, mj)
        sexpr = [ring.zero] * n_in
        tf = ring.monomial(_mono_div(lcm, mi), ci.inv())
        tg = ring.monomial(_mono_div(lcm, mj), cj.inv())
        for k in range(n_in):
            sexpr[k] = tf * exprs[i][k] - tg * exprs[j][k]
        rem, rexpr = reduce_tracked(s, sexpr)
        if not rem.is_zero():
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(rem)
            exprs.append(rexpr)

    # inter-reduce to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            oexprs = exprs[:i] + exprs[i + 1 :]
            if not others:
                continue
            quots, rem = divmod_multi(basis[i], others)
            if rem != basis[i]:
                newexpr = list(exprs[i])
                for q, bexpr in zip(quots, oexprs):
                    if q.is_zero():
                        continue
                    for k in range(n_in):
                        newexpr[k] = newexpr[k] - q * bexpr[k]
                if rem.is_zero():
                    basis.pop(i)
                    exprs.pop(i)
                else:
                    basis[i] = rem
                    exprs[i] = newexpr
                changed = True
                break
    # normalize monic, sort by leading monomial
    out = []
    for b, ex in zip(basis, exprs):
        _, lc = b.leading()
        inv = lc.inv()
        out.append((b * inv, [e * inv for e in ex]))
    out.sort(key=lambda t: grevlex_key(t[0].leading()[0]), reverse=True)
    if tracked:
        return [b for b, _ in out], [e for _, e in out]
    return [b for b, _ in out]


class IdealSpec:
    """An ideal with its reduced Gröbner basis, verified at construction."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = tuple(generators)
        for g in self.generators:
            if g.ring != ring:
                raise ContextMismatchError("ideal generator from a different ring")
        self.groebner = tuple(buchberger(list(self.generators)))
        self._verify()

    def _verify(self):
        gb = list(self.groebner)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                s = s_polynomial(gb[i], gb[j])
                if not normal_form(s, gb).is_zero():
                    raise ValidationError(
                        "Gröbner basis failed S-pair verification"
                    )  # pragma: no cover

    def normal_form(self, f):
        return normal_form(f, list(self.groebner))

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self):
        return any(g.is_unit() for g in self.groebner)

    def __eq__(self, other):
        return (
            isinstance(other, IdealSpec)
            and self.ring == other.ring
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
    quots, rem = divmod_multi(f, gb)
    if not rem.is_zero():
        return None
    ring = f.ring
    coeffs = [ring.zero] * len(gens)
    for q, ex in zip(quots, exprs):
        if q.is_zero():
            continue
        for k in range(len(gens)):
            coeffs[k] = coeffs[k] + q * ex[k]
    # map back to the caller's (possibly zero-padded) generator list
    out = []
    it = iter(coeffs)
    for g in generators:
        out.append(next(it) if not g.is_zero() else ring.zero)
    return out


# ---------------------------------------------------------------------------
# Univariate and bivariate gcd
# ---------------------------------------------------------------------------


def _to_dense_1var(f):
    d = f.degree_in(0)
    out = [f.ring.ctx.zero] * (d + 1)
    for e, c in f.terms.items():
        out[e[0]] = c
    return out


def gcd_univariate(f, g):
    """Monic gcd in F_q[x] (ring must have exactly one variable)."""
    ring = f.ring
    if ring.nvars != 1:
        raise UnsupportedRingError("gcd_univariate needs a one-variable ring")
    a, b = f, g
    while not b.is_zero():
        a, b = b, _poly_mod_1var(a, b)
    if a.is_zero():
        return a
    return a.monic()


def _poly_mod_1var(a, b):
    ring = a.ring
    da, db = a.degree_in(0), b.degree_in(0)
    dense_a = _to_dense_1var(a)
    dense_b = _to_dense_1var(b)
    inv_lb = dense_b[-1].inv()
    while len(dense_a) - 1 >= db and dense_a:
        if dense_a[-1].is_zero():
            dense_a.pop()
            continue
        shift = len(dense_a) - 1 - db
        coef = dense_a[-1] * inv_lb
        for i in range(db + 1):
            dense_a[shift + i] = dense_a[shift + i] - coef * dense_b[i]
        while dense_a and dense_a[-1].is_zero():
            dense_a.pop()
    return ring.from_terms(((i,), c) for i, c in enumerate(dense_a))


def _bivar_as_univar_in(f, main):
    """Dense coefficients of f in variable ``main``; each coeff is a
    polynomial of the one-variable ring in the other variable."""
    ring = f.ring
    other = 1 - main
    sub = PolyRing(ring.ctx, (ring.vars[other],))
    d = f.degree_in(main)
    out = [sub.zero] * (d + 1)
    for e, c in f.terms.items():
        out[e[main]] = out[e[main]] + sub.monomial((e[other],), c)
    return out, sub


def _univar_list_gcd(polys):
    g = None
    for f in polys:
        if f.is_zero():
            continue
        g = f if g is None else gcd_univariate(g, f)
    return g


def gcd_bivariate(f, g):
    """Monic-leading gcd in F_q[x,y] via primitive-part pseudo-Euclid."""
    ring = f.ring
    if ring.nvars != 2:
        raise UnsupportedRingError("gcd_bivariate needs a two-variable ring")
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    main = 1  # treat as polynomials in the second variable

    def content_pp(h):
        dense, sub = _bivar_as_univar_in(h, main)
        cont = _univar_list_gcd(dense)
        pp = [_exact_div_1var(c, cont) for c in dense]
        return cont, pp, sub

    cf, pf, sub = content_pp(f)
    cg, pg, _ = content_pp(g)
    cont_gcd = gcd_univariate(cf, cg)

    a, b = pf, pg
    while True:
        b = [c for c in b]
        while b and b[-1].is_zero():
            b.pop()
        if not b:
            break
        a = _pseudo_rem(a, b)
        a, b = b, a
    while a and a[-1].is_zero():
        a.pop()
    # primitive part of the final remainder sequence element
    cont_a = _univar_list_gcd(a)
    pp_a = [_exact_div_1var(c, cont_a) for c in a]
    result = ring.zero
    for k, c in enumerate(pp_a):
        for e, cc in c.terms.items():
            mono = [0, 0]
            mono[main] = k
            mono[1 - main] = e[0]
            result = result + ring.monomial(tuple(mono), cc)
    result = result * cont_gcd.substitute({0: ring.var(1 - main)})
    return result.monic()


def _exact_div_1var(f, d):
    if f.is_zero():
        return f
    quots, rem = divmod_multi(f, [d])
    if not rem.is_zero():
        raise ValidationError("inexact content division")  # pragma: no cover
    return quots[0]


def _pseudo_rem(a, b):
    """Pseudo-remainder of dense coefficient lists over F_q[x]."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        if a[-1].is_zero():
            a.pop()
            continue
        shift = len(a) - 1 - db
        top = a[-1]
        a = [c * lb for c in a]
        for i in range(db + 1):
            a[shift + i] = a[shift + i] - top * b[i]
        while a and a[-1].is_zero():
            a.pop()
    return a


# ---------------------------------------------------------------------------
# Regular sequences
# ---------------------------------------------------------------------------


def is_regular_sequence(seq, ring):
    """Decide whether seq is a regular sequence in F_q[x_1..x_n].

    Decidable cases at this scale: the empty sequence; steps where the
    accumulated ideal is the unit ideal (everything is regular on the zero
    ring); first elements (the ring is a domain); ideals generated by
    degree-<=1 polynomials (the quotient is a polynomial ring, hence a
    domain); principal ideals in <= 2 variables (UFD gcd test).  Anything
    else raises UnsupportedRingError rather than guessing.
    """
    seq = list(seq)
    for f in seq:
        if f.ring != ring:
            raise ContextMismatchError("sequence element from a different ring")
    current = []
    gb = []
    for f in seq:
        if any(g.is_unit() for g in gb):
            return True  # quotient is the zero ring; all further steps regular
        nf = normal_form(f, gb) if gb else f
        if nf.is_zero():
            return False  # f lies in the ideal: multiplies to zero
        if not current:
            current.append(f)
            gb = buchberger(current)
            continue
        if all(g.total_degree() <= 1 for g in gb):
            # ideal generated by linear polynomials: quotient is a domain
            current.append(f)
            gb = buchberger(current)
            continue
        if len(gb) == 1 and ring.nvars <= 2:
            g = gb[0]
            d = (
                gcd_univariate(g, nf)
                if ring.nvars == 1
                else gcd_bivariate(g, nf)
            )
            if not d.is_unit():
                return False
            current.append(f)
            gb = buchberger(current)
            continue
        raise UnsupportedRingError(
            "cannot certify regularity at this step (ideal neither linear nor "
            "principal in <= 2 variables)"
        )
    return True
