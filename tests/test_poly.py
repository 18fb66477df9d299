"""Tests for multivariate polynomials over F_q: parsing, graded reverse
lexicographic order, Frobenius decomposition, and Groebner machinery."""

import itertools
import operator
import random

import pytest

from cartier_lab.errors import (
    CapExceeded,
    ContextMismatchError,
    ParseError,
    UnsupportedRingError,
    ValidationError,
)
from cartier_lab import poly
from cartier_lab.fields import Fq, FrobeniusContext
from cartier_lab.poly import (
    IdealSpec,
    PolyRing,
    Polynomial,
    buchberger,
    divmod_multi,
    frobenius_component,
    frobenius_decompose,
    is_regular_sequence,
    normal_form,
    s_polynomial,
    solve_membership,
    _lcm,
    _pack,
    _unpack,
)

SEED = 7301


def ring(p, e=1, nvars=1):
    return PolyRing(Fq(p, e), tuple("xyz"[:nvars]))


def grevlex_key(mono):
    """Reference sort key: greater key = greater monomial in grevlex."""
    return (sum(mono),) + tuple(-mono[i] for i in range(len(mono) - 1, -1, -1))


# ------------------------------------------------------------ parse/format


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("x^2*y+x+1", "x^2*y+x+1"),
        ("1+x", "x+1"),
        ("x*y + y*x", "2*x*y"),
        ("0", "0"),
        ("y^3", "y^3"),
        ("2*x^2 + 2*x^2", "4*x^2"),
    ],
)
def test_parse_format_canonical(text, canonical):
    R = ring(5, nvars=2)
    assert str(R.parse(text)) == canonical


@pytest.mark.parametrize("p,e,nvars", [(2, 1, 1), (3, 1, 2), (2, 2, 2), (5, 1, 3)])
def test_random_polynomials_roundtrip_through_strings(p, e, nvars):
    R = ring(p, e, nvars)
    rng = random.Random(SEED + p + nvars)
    for _ in range(25):
        f = R.random_poly(rng, max_degree=4)
        assert R.parse(str(f)) == f


def test_parse_rejects_garbage():
    R = ring(2, nvars=2)
    for bad in ("x +", "w", "x^", "x**2", "3x"):
        with pytest.raises(ParseError):
            R.parse(bad)


def test_parse_reduces_coefficients_mod_p():
    R = ring(3)
    assert R.parse("4*x") == R.parse("x")
    assert R.parse("3*x").is_zero()


# ----------------------------------------------------------------- ordering


def test_grevlex_ordering_properties():
    """Degree dominates; ties are broken reverse-lexicographically by the
    LAST variable with the SMALLER exponent winning.  Pinned against the
    standard worked example: x^2 > xy > y^2 > xz > yz > z^2 for x>y>z."""
    order = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [grevlex_key(m) for m in order]
    assert keys == sorted(keys, reverse=True)
    # degree dominates everything
    assert grevlex_key((0, 0, 3)) > grevlex_key((2, 0, 0))


def test_leading_term_follows_grevlex():
    R = ring(5, nvars=3)
    f = R.parse("x*y + z^2 + x")
    mono, coeff = f.leading()
    assert mono == (1, 1, 0)
    assert coeff == R.ctx.scalar(1)


# ------------------------------------------------------------- arithmetic


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_ring_axioms_on_randoms(p, e):
    R = ring(p, e, nvars=2)
    rng = random.Random(SEED + 10 * p + e)
    for _ in range(20):
        f = R.random_poly(rng, max_degree=3)
        g = R.random_poly(rng, max_degree=3)
        h = R.random_poly(rng, max_degree=3)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f + (-f) == R.zero


def test_pth_power_is_frobenius_on_polynomials():
    """Freshman's dream: (f+g)^p = f^p + g^p, computed coefficientwise."""
    for p in (2, 3, 5):
        R = ring(p, nvars=2)
        rng = random.Random(SEED + p)
        for _ in range(10):
            f = R.random_poly(rng, max_degree=3)
            g = R.random_poly(rng, max_degree=3)
            assert (f + g).pth_power() == f.pth_power() + g.pth_power()
            naive = R.one
            for _ in range(p):
                naive = naive * f
            assert f.pth_power() == naive


def _square_and_multiply(f, n):
    out = f.ring.one
    while n:
        if n & 1:
            out = out * f
        n >>= 1
        if n:
            f = f * f
    return out


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_power_equals_square_and_multiply(p, e, nvars):
    """Exponents n >= p go through p-th powers; the answer is the plain
    square-and-multiply one for every n in [0, 3p^3]."""
    R = ring(p, e, nvars)
    rng = random.Random(SEED + 50 * p + 5 * e + nvars)
    top = 3 * p**3
    exponents = {0, 1, p - 1, p, p + 1, p * p, p**3, top}
    exponents |= {rng.randrange(top + 1) for _ in range(4)}
    for _ in range(3):
        f = R.random_poly(rng, max_degree=2, max_terms=3)
        for n in sorted(exponents):
            assert f ** n == _square_and_multiply(f, n), (f, n)


def test_power_cap_is_checked_before_any_product(monkeypatch):
    x = ring(2, nvars=2).var(0)

    def no_products(*args):
        raise AssertionError("multiplied before the degree check")

    monkeypatch.setattr(poly, "_addmul", no_products)
    with pytest.raises(CapExceeded, match="cap 2\\^32 - 1"):
        x ** 2**32


# ------------------------------------------- Frobenius decomposition


@pytest.mark.parametrize("p,e,nvars", [
    (2, 1, 1), (3, 1, 2), (2, 2, 1), (5, 1, 2), (3, 1, 3), (2, 3, 1),
    (2, 3, 2), (2, 3, 3), (2, 1, 0)])
def test_frobenius_decompose_roundtrip(p, e, nvars):
    """f = sum_a h_a^p x^a with a ranging over [0,p)^n, uniquely."""
    R = ring(p, e, nvars)
    rng = random.Random(SEED + p * 7 + nvars)
    for _ in range(20):
        f = R.random_poly(rng, max_degree=3 * p)
        comps = frobenius_decompose(f)
        for a in comps:
            assert all(0 <= ai < p for ai in a)
        assert sum((g.pth_power() * R.monomial(a) for a, g in comps.items()),
                   R.zero) == f
        for a, h in comps.items():
            assert frobenius_component(f, a) == h


@pytest.mark.parametrize("p,nvars,exps", [
    (2, 1, [(2**32 - 2,), (2**32 - 1,), (2**31 + 1,), (0,)]),
    (3, 3, [(2**31, 2**30, 1), (2**31 - 1, 0, 2**31), (0, 2**32 - 1, 0),
            (1, 1, 2**32 - 3)]),
    (5, 2, [(2**32 - 1, 0), (2**31, 2**31 - 1), (7, 2**32 - 9)]),
])
def test_frobenius_decompose_near_the_degree_cap(p, nvars, exps):
    """Each term x^e goes to the component a with its exponent q, and
    p q + a = e on exponent tuples, also for total degrees near 2^32."""
    R = ring(p, 1, nvars)
    f = sum((R.monomial(e) for e in exps), R.zero)
    found = []
    for a, g in frobenius_decompose(f).items():
        for q, c in g.items():
            assert c == R.ctx.one
            found.append(tuple(p * qi + ai for qi, ai in zip(q, a)))
    assert sorted(found) == sorted(exps)


def test_frobenius_component_worked_example():
    R = ring(2)
    f = R.parse("x^3+x")  # = (x+1)^2 * x
    assert str(frobenius_component(f, (1,))) == "x+1"
    assert frobenius_component(f, (0,)).is_zero()


def test_frobenius_decompose_respects_twisted_linearity():
    R = ring(3)
    rng = random.Random(SEED)
    for _ in range(10):
        f = R.random_poly(rng, max_degree=4)
        g = R.random_poly(rng, max_degree=2)
        a = (1,)
        lhs = frobenius_component(g.pth_power() * f, a)
        rhs = g * frobenius_component(f, a)
        assert lhs == rhs


# ----------------------------------------------------------- division / GB


def test_divmod_multi_invariant():
    R = ring(3, nvars=2)
    rng = random.Random(SEED + 5)
    for _ in range(15):
        f = R.random_poly(rng, max_degree=4)
        divisors = [R.parse("x^2+y"), R.parse("y^2+2")]
        quots, rem = divmod_multi(f, divisors)
        acc = rem
        for q, d in zip(quots, divisors):
            acc = acc + q * d
        assert acc == f
        # remainder contains no monomial divisible by a leading monomial
        for mono, _ in rem.sorted_terms():
            for d in divisors:
                lm, _ = d.leading()
                assert not all(m >= l for m, l in zip(mono, lm))


def _reference_divmod(f, divisors):
    """The division loop on exponent tuples with FieldElement arithmetic:
    the grevlex-largest term is cancelled by the first divisor whose
    leading monomial divides it, or moved to the remainder.  Returns
    ({exponents: coefficient} per quotient, the same for the remainder)."""
    zero = f.ring.ctx.zero
    work = dict(f.items())
    leads = [d.leading() for d in divisors]
    quots, rem = [{} for _ in divisors], {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for quot, (lm, lc), d in zip(quots, leads, divisors):
            if all(a <= b for a, b in zip(lm, m)):
                shift = tuple(b - a for a, b in zip(lm, m))
                quot[shift] = q = c / lc
                for e, dc in d.items():
                    if e != lm:
                        k = tuple(x + y for x, y in zip(e, shift))
                        v = work.get(k, zero) - q * dc
                        if v.is_zero():
                            work.pop(k, None)
                        else:
                            work[k] = v
                break
        else:
            rem[m] = c
    return quots, rem


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3)])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_divmod_multi_equals_the_reference_division(p, e, nvars):
    R = ring(p, e, nvars)
    rng = random.Random(SEED + 31 * p + 7 * e + nvars)
    for _ in range(25):
        f = R.random_poly(rng, max_degree=6, max_terms=8)
        divisors = [g for g in (R.random_poly(rng, max_degree=3)
                                for _ in range(rng.randrange(1, 4)))
                    if not g.is_zero()]
        if not divisors:
            continue
        quots, rem = divmod_multi(f, divisors)
        ref_quots, ref_rem = _reference_divmod(f, divisors)
        assert [dict(q.items()) for q in quots] == ref_quots
        assert dict(rem.items()) == ref_rem
        assert normal_form(f, divisors) == rem


@pytest.mark.parametrize("nvars", [0, 1, 2, 3])
def test_guard_bit_divisibility_equals_the_tuple_comparison(nvars):
    """x^a divides x^m in ``_divide`` exactly when a <= m entrywise, for
    exponents up to 2^32 - 1: single exponents 2^31 - 1, 2^31 and
    2^32 - 1 fill a field's low 32 bits, where a guard at bit 31 fails."""
    R = ring(2, 1, nvars)
    edges = (0, 1, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 2, 2**32 - 1)
    vectors = [v for v in itertools.product(edges, repeat=nvars)
               if sum(v) < 2**32]
    pairs = list(itertools.product(vectors, repeat=2))
    rng = random.Random(SEED + nvars)
    for _ in range(300):
        # a random vector and a neighbour one apart in one exponent
        v = [rng.randrange(2**32) for _ in range(nvars)]
        while sum(v) >= 2**32:
            v[rng.randrange(nvars)] //= 2
        w = list(v)
        if nvars:
            i = rng.randrange(nvars)
            w[i] = max(w[i] + rng.choice((-1, 1)), 0)
        if sum(w) < 2**32:
            pairs += [(tuple(v), tuple(w)), (tuple(w), tuple(v))]
    for a, m in pairs:
        leads = poly._leads([R.monomial(a)], R)
        rem = poly._divide(R, {_pack(m): 1}, leads)
        assert (not rem) == all(x <= y for x, y in zip(a, m)), (a, m)


def test_division_by_zero_and_across_rings_is_refused():
    R, S = ring(3, nvars=2), ring(5, nvars=2)
    f = R.parse("x^2*y+1")
    with pytest.raises(ValidationError, match="zero polynomial"):
        divmod_multi(f, [R.parse("x"), R.zero])
    with pytest.raises(ValidationError, match="zero polynomial"):
        normal_form(f, [R.zero])
    with pytest.raises(ContextMismatchError):
        divmod_multi(f, [S.parse("x")])


@pytest.mark.parametrize("p,e,nvars", [(2, 1, 2), (3, 1, 3), (2, 2, 2),
                                       (2, 3, 3), (5, 1, 1)])
def test_ideal_spec_normal_form_reuses_its_leads(p, e, nvars):
    """IdealSpec.normal_form, on the leads built once in ``__init__``,
    equals division by its basis; it returns f itself for an ideal of no
    generators and refuses a polynomial over another ring."""
    R = ring(p, e, nvars)
    rng = random.Random(SEED + 13 * p + e + nvars)
    for _ in range(6):
        I = IdealSpec(R, [R.random_poly(rng, max_degree=3) for _ in range(3)])
        for _ in range(5):
            f = R.random_poly(rng, max_degree=6, max_terms=6)
            assert I.normal_form(f) == normal_form(f, list(I.groebner))
    zero_ideal = IdealSpec(R, [])
    f = R.random_poly(rng, max_degree=4) + R.one
    assert zero_ideal.normal_form(f) is f
    other = ring(7, 1, nvars)
    for J in (IdealSpec(R, [R.one]), zero_ideal):
        with pytest.raises(ContextMismatchError):
            J.normal_form(other.one)


def test_buchberger_twisted_cubic():
    """Classical worked example: the curve (t, t^2, t^3).  The graded
    reverse lexicographic basis is {x^2-y, x*y-z, y^2-x*z}."""
    R = ring(5, nvars=3)
    gens = [R.parse("y+4*x^2"), R.parse("z+4*x^3")]
    G = buchberger(gens)
    assert sorted(str(g) for g in G) == ["x*y+4*z", "x^2+4*y", "y^2+4*x*z"]


def failed_pairs(basis, gens=()):
    """The pair-criterion oracle, independent of how ``basis`` was
    produced: the S-pairs of ``basis`` whose leading monomials share a
    variable and the ``gens`` that do not reduce to zero by ``basis``.
    Coprime pairs reduce to zero by Buchberger's first criterion, so an
    empty answer certifies a Gröbner basis of an ideal holding ``gens``."""
    failed = [
        (f, g) for f, g in itertools.combinations(basis, 2)
        if any(map(min, f.leading()[0], g.leading()[0]))
        and not normal_form(s_polynomial(f, g), basis).is_zero()
    ]
    return failed + [g for g in gens if not normal_form(g, basis).is_zero()]


def multivar_ideals():
    """Seeded ideals of the benchmark's multivariate shapes: three
    generators of degree 3 with 4 terms over F_p[x,y,z], p = 2, 3, 5, and
    of degree 4 with 3 terms over F_4[x,y]; each has one monomial of the
    full degree and lower ones, with random nonzero coefficients."""
    rng = random.Random(SEED + 23)
    out = []
    for p, e, nvars, degree, nterms in ((2, 1, 3, 3, 4), (3, 1, 3, 3, 4),
                                        (5, 1, 3, 3, 4), (2, 2, 2, 4, 3)):
        R = ring(p, e, nvars)
        tops = [m for m in _exponents(nvars, degree) if sum(m) == degree]
        lower = _exponents(nvars, degree - 1)
        for _ in range(6):
            gens = []
            for _ in range(3):
                support = [rng.choice(tops)] + rng.sample(lower, nterms - 1)
                gens.append(Polynomial(R, {
                    _pack(m): rng.randrange(1, p**e) for m in support}))
            out.append((R, gens))
    return out


def test_buchberger_satisfies_the_pair_criterion():
    """Every S-pair of the basis and every input generator reduces to
    zero, on small bases and on seeded ideals of the multivariate
    benchmark's shapes; over prime fields the basis is also sympy's
    reduced grevlex basis (when sympy is installed)."""
    try:
        import sympy
    except ImportError:
        sympy = None
    cases = [(R, [R.parse("x^2+y^2"), R.parse("x*y")])
             for R in (ring(2, nvars=2), ring(3, nvars=2))]
    for R, gens in cases + multivar_ideals():
        G = buchberger(gens)
        assert G and not failed_pairs(G, gens), gens
        if sympy is not None and R.ctx.e == 1:
            names = sympy.symbols(R.vars)
            expected = sympy.groebner(
                [_to_sympy(g, names).as_expr() for g in gens], *names,
                modulus=R.ctx.p, order="grevlex")
            ours = sorted(sorted(_our_terms(g).items()) for g in G)
            theirs = sorted(sorted(_sympy_terms(g).items())
                            for g in expected.polys)
            assert ours == theirs, gens


def test_ideal_spec_reduces_no_pair_beyond_buchberger(monkeypatch):
    """IdealSpec takes buchberger's basis as certified: building it forms
    exactly the S-polynomials that buchberger forms, none a second time."""
    calls = [0]

    def counted(f, g):
        calls[0] += 1
        return s_polynomial(f, g)

    monkeypatch.setattr(poly, "s_polynomial", counted)
    F5, F4 = ring(5, nvars=3), ring(2, 2, 2)
    fixed = [(F5, ["y+4*x^2", "z+4*x^3"]), (F5, ["x^2+y*z", "x*y+z"]),
             (F4, ["x^3+y", "x*y^2+x"])]
    fixed = [(R, [R.parse(g) for g in gens]) for R, gens in fixed]
    # one seeded ideal per ring; the first over F_2 has coprime leading
    # monomials and forms no pair, so take the second of each
    for R, gens in fixed + multivar_ideals()[1::6]:
        calls[0] = 0
        buchberger(gens)
        expected = calls[0]
        calls[0] = 0
        IdealSpec(R, gens)
        assert expected and calls[0] == expected, gens


def test_buchberger_tracked_representations():
    """tracked=True returns coefficients expressing each basis element in
    terms of the input generators."""
    R = ring(5, nvars=3)
    gens = [R.parse("y+4*x^2"), R.parse("z+4*x^3")]
    basis, reps = buchberger(gens, tracked=True)
    for g, row in zip(basis, reps):
        acc = R.zero
        for c, gen in zip(row, gens):
            acc = acc + c * gen
        assert acc == g


def test_normal_form_is_idempotent_and_linear():
    R = ring(3, nvars=2)
    G = buchberger([R.parse("x^2+y"), R.parse("y^2+x")])
    rng = random.Random(SEED + 17)
    for _ in range(10):
        f = R.random_poly(rng, max_degree=4)
        g = R.random_poly(rng, max_degree=4)
        nf = normal_form(f, G)
        assert normal_form(nf, G) == nf
        assert normal_form(f + g, G) == normal_form(nf + normal_form(g, G), G)


def test_solve_membership_reconstructs():
    R = ring(5, nvars=3)
    gens = [R.parse("y+4*x^2"), R.parse("z+4*x^3")]
    f = R.parse("y^2+4*x*z")
    coeffs = solve_membership(f, gens)
    assert coeffs is not None
    acc = R.zero
    for c, g in zip(coeffs, gens):
        acc = acc + c * g
    assert acc == f
    assert solve_membership(R.parse("x"), gens) is None


# --------------------------------------------------------------- IdealSpec


def test_ideal_spec_membership_and_flags():
    R = ring(2, nvars=2)
    I = IdealSpec(R, [R.parse("x")])
    assert I.contains(R.parse("x*y+x"))
    assert not I.contains(R.parse("y"))
    assert not I.is_unit_ideal()
    assert IdealSpec(R, [R.parse("x+1"), R.parse("x")]).is_unit_ideal()
    assert not IdealSpec(R, []).groebner
    assert I.normal_form(R.parse("x*y+y")) == R.parse("y")


def test_ideal_spec_equality_ignores_generator_choice():
    R = ring(3, nvars=2)
    I = IdealSpec(R, [R.parse("x"), R.parse("y")])
    J = IdealSpec(R, [R.parse("x+y"), R.parse("y")])
    assert I == J
    K = IdealSpec(R, [R.parse("x")])
    assert I != K


def test_ideal_spec_rejects_a_basis_failing_a_shared_variable_pair():
    """IdealSpec trusts buchberger, so the refusal is the test-side
    oracle's: it skips only coprime pairs, so a basis whose failing pair
    shares a variable in its leading monomials is still refused, and
    buchberger's basis of the same ideal passes."""
    R = ring(2, nvars=2)
    bad = [R.parse("x^2+y"), R.parse("x*y")]  # S-pair y^2 is irreducible
    assert normal_form(s_polynomial(*bad), bad) == R.parse("y^2")
    assert failed_pairs(bad) == [tuple(bad)]
    assert not failed_pairs(buchberger(bad), bad)


# ------------------------------------------------------- regular sequences


@pytest.mark.parametrize(
    "gens,expected",
    [
        (["x", "y"], True),
        (["x", "x"], False),
        (["x*y"], True),
        (["x", "x*y"], False),  # x*y is a zero divisor mod (x)... it maps to 0
        (["x+1", "y"], True),
    ],
)
def test_is_regular_sequence(gens, expected):
    R = ring(3, nvars=2)
    seq = [R.parse(g) for g in gens]
    assert is_regular_sequence(seq, R) == expected


def test_unit_containing_sequence_is_weakly_regular():
    """Convention: regularity does not require the ideal to be proper.
    1 acts injectively on R/(x), and everything acts injectively on the
    zero ring, so unit-containing sequences pass (and cut out the zero
    quotient)."""
    R = ring(3, nvars=2)
    assert is_regular_sequence([R.parse("x"), R.parse("1")], R)


def _sympy_regular(seq, gens):
    """Regularity of a sequence whose prefixes have domain quotients
    (linear or empty): each element is nonzero modulo the ones before,
    until they generate the unit ideal, decided by sympy's Groebner
    bases."""
    sympy = pytest.importorskip("sympy")
    p = seq[0].ring.ctx.p
    exprs = [_to_sympy(f, gens).as_expr() for f in seq]
    for k, f in enumerate(exprs):
        if k == 0:
            if f == 0:
                return False
            continue
        prefix = sympy.groebner(exprs[:k], *gens, modulus=p, order="grevlex")
        if prefix.exprs == [1]:
            return True
        if prefix.reduce(f)[1] == 0:
            return False
    return True


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("nvars", [1, 2])
def test_regular_pairs_agree_with_sympy_gcd(p, nvars):
    """(g, f) with g nonconstant is regular exactly when f is not a
    multiple of g and gcd(g, f) is constant; half the pairs get a
    planted common factor."""
    sympy = pytest.importorskip("sympy")
    R = ring(p, nvars=nvars)
    gens = sympy.symbols("x y")[:nvars]
    rng = random.Random(SEED + 40 * p + nvars)
    seen = set()
    for k in range(40):
        g = _dense_poly(rng, R, rng.randrange(1, 4))
        f = _dense_poly(rng, R, rng.randrange(4))
        if k % 2:
            h = _dense_poly(rng, R, rng.randrange(1, 3))
            g, f = g * h, f * h
        if g.is_constant():
            continue
        G, F = _to_sympy(g, gens), _to_sympy(f, gens)
        expected = (not sympy.rem(F, G).is_zero
                    and sympy.gcd(G, F).total_degree() == 0)
        assert is_regular_sequence([g, f], R) == expected, (g, f)
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_linear_prefixes_agree_with_sympy(p):
    """After a prefix of degree-1 polynomials in three variables (a
    polynomial ring quotient), f is regular exactly when it is nonzero
    modulo the prefix."""
    sympy = pytest.importorskip("sympy")
    R = ring(p, nvars=3)
    gens = sympy.symbols("x y z")
    rng = random.Random(SEED + 60 * p)
    seen = set()
    for k in range(30):
        seq = []
        for _ in range(1 + k % 2):
            lin = R.scalar(rng.randrange(p))
            for i in range(3):
                lin = lin + R.var(i) * rng.randrange(p)
            seq.append(lin)
        f = R.random_poly(rng, max_degree=2, max_terms=3)
        if k % 3 == 0:
            f = f * seq[0] + seq[-1] * rng.randrange(p)  # in the prefix ideal
        seq.append(f)
        expected = _sympy_regular(seq, gens)
        assert is_regular_sequence(seq, R) == expected, seq
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2)])
@pytest.mark.parametrize("nvars", [1, 2])
def test_common_factors_are_not_regular(p, e, nvars):
    R = ring(p, e, nvars)
    rng = random.Random(SEED + 70 * p + e + nvars)
    for _ in range(10):
        g, f = _dense_poly(rng, R, 2), _dense_poly(rng, R, 2)
        h = _dense_poly(rng, R, rng.randrange(1, 3))
        if g.is_zero() or f.is_zero() or h.is_constant():
            continue
        assert not is_regular_sequence([g * h, f * h], R)


def _dense_poly(rng, R, degree):
    """Random coefficients, zero ones included, on every monomial of total
    degree at most ``degree``."""
    return Polynomial(R, {
        _pack(m): c for m in _exponents(R.nvars, degree)
        if (c := rng.randrange(R.ctx.q))
    })


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2)])
def test_coprime_leading_powers_are_regular(p, e):
    """Leading monomials x^a and y^b: a Groebner basis of a height-2
    ideal."""
    R = ring(p, e, nvars=2)
    rng = random.Random(SEED + 80 * p + e)
    x, y = R.var(0), R.var(1)
    for _ in range(10):
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        f = x**a + _dense_poly(rng, R, a - 1)
        g = y**b + _dense_poly(rng, R, b - 1)
        assert is_regular_sequence([f, g], R)
        assert is_regular_sequence([g, f], R)


def test_refused_prefixes_stay_refused():
    """Steps after an ideal neither linear nor principal in <= 2
    variables are refused, not decided."""
    for p, e in [(5, 1), (2, 2), (3, 1)]:
        R = ring(p, e, nvars=3)
        rng = random.Random(SEED + p + e)
        for _ in range(3):
            a, b, c = (R.ctx.random_element(rng) for _ in range(3))
            seq = [R.parse("x^2") + R.var(1) * a + R.scalar(b),
                   R.parse("z^2") + R.var(0) * c]
            with pytest.raises(UnsupportedRingError):
                is_regular_sequence(seq, R)
    R = ring(3, nvars=2)
    seq = [R.parse(f) for f in ("x^2+y", "y^2+x", "x")]
    with pytest.raises(UnsupportedRingError):
        is_regular_sequence(seq, R)


def test_members_of_a_refused_prefix_ideal_are_rejected_first():
    R = ring(3, nvars=2)
    g1, g2 = R.parse("x^2+y"), R.parse("y^2+x")
    member = R.parse("x") * g1 + R.parse("y+1") * g2
    assert is_regular_sequence([g1, g2, member], R) is False
    R3 = ring(5, nvars=3)
    g = R3.parse("x^2+y")
    assert is_regular_sequence([g, R3.parse("z") * g], R3) is False


# -------------------------------------------------------------- the engine


def _exponents(nvars, max_degree):
    return [
        e for e in itertools.product(range(max_degree + 1), repeat=nvars)
        if sum(e) <= max_degree
    ]


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_packed_order_is_grevlex_and_packing_roundtrips(nvars):
    monos = _exponents(nvars, 6)
    assert [_unpack(_pack(m), nvars) for m in monos] == monos
    assert sorted(monos, key=_pack) == sorted(monos, key=grevlex_key)
    # multiplication of monomials is addition of keys
    for a, b in zip(monos, reversed(monos)):
        assert _pack(tuple(x + y for x, y in zip(a, b))) == _pack(a) + _pack(b)


def _sympy_terms(poly):
    p = poly.get_modulus()
    return {m: int(c) % p for m, c in poly.terms() if int(c) % p}


def _our_terms(f):
    return {e: c.code for e, c in f.items()}


def _to_sympy(f, gens):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly.from_dict(_our_terms(f) or {(0,) * len(gens): 0},
                                *gens, modulus=f.ring.ctx.p)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_products_agree_with_sympy(p, nvars):
    sympy = pytest.importorskip("sympy")
    R = ring(p, nvars=nvars)
    gens = sympy.symbols("x y z")[:nvars]
    rng = random.Random(SEED + 100 * p + nvars)
    for _ in range(20):
        f = R.random_poly(rng, max_degree=5, max_terms=6)
        g = R.random_poly(rng, max_degree=5, max_terms=6)
        expected = _sympy_terms(_to_sympy(f, gens) * _to_sympy(g, gens))
        assert _our_terms(f * g) == expected
        assert _our_terms(f - g) == _sympy_terms(
            _to_sympy(f, gens) - _to_sympy(g, gens))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("nvars", [2, 3])
def test_normal_forms_agree_with_sympy(p, nvars):
    """Reduced Groebner bases and normal forms modulo them equal sympy's
    (grevlex with x > y > z)."""
    sympy = pytest.importorskip("sympy")
    R = ring(p, nvars=nvars)
    gens = sympy.symbols("x y z")[:nvars]
    rng = random.Random(SEED + 10 * p + nvars)
    for _ in range(6):
        ideal = [f for f in (R.random_poly(rng, max_degree=3, max_terms=4)
                             for _ in range(nvars + 1)) if not f.is_zero()]
        if not ideal:
            continue
        gb = buchberger(ideal)
        theirs = sympy.groebner([_to_sympy(f, gens).as_expr() for f in ideal],
                                *gens, modulus=p, order="grevlex")
        expected = []
        for g in theirs.exprs:
            terms = _sympy_terms(sympy.Poly(g, *gens, modulus=p))
            lead = max(terms, key=grevlex_key)
            inv = pow(terms[lead], p - 2, p)
            expected.append({m: c * inv % p for m, c in terms.items()})
        key = lambda t: sorted(t.items())  # noqa: E731
        assert sorted(map(key, map(_our_terms, gb))) == sorted(map(key, expected))
        for _ in range(5):
            f = R.random_poly(rng, max_degree=5, max_terms=6)
            rem = theirs.reduce(_to_sympy(f, gens).as_expr())[1]
            assert _our_terms(normal_form(f, gb)) == _sympy_terms(
                sympy.Poly(rem, *gens, modulus=p))


def _reference_product(f, g):
    """Schoolbook product on exponent tuples and FieldElement arithmetic."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, c1.ctx.zero) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_products_over_extensions_agree_with_the_reference(p, e, nvars):
    """Sums of colliding terms go through the Zech tables."""
    R = ring(p, e, nvars)
    rng = random.Random(SEED + 1000 * p + 10 * e + nvars)
    for _ in range(20):
        f = R.random_poly(rng, max_degree=3, max_terms=6)
        g = R.random_poly(rng, max_degree=3, max_terms=6)
        assert dict((f * g).items()) == _reference_product(f, g)
        diff = dict(f.items())
        for m, c in g.items():
            diff[m] = diff.get(m, R.ctx.zero) - c
        assert dict((f - g).items()) == {
            m: c for m, c in diff.items() if not c.is_zero()}


@pytest.mark.parametrize("p,e,nvars", [(2, 2, 2), (2, 2, 3), (3, 2, 1), (3, 2, 2)])
def test_frobenius_decompose_roundtrip_over_extensions(p, e, nvars):
    R = ring(p, e, nvars)
    rng = random.Random(SEED + 7 * p + nvars)
    for _ in range(20):
        f = R.random_poly(rng, max_degree=7, max_terms=6)
        total = R.zero
        for a, g in frobenius_decompose(f).items():
            assert all(0 <= x < p for x in a) and not g.is_zero()
            total = total + g.pth_power() * R.monomial(a)
        assert total == f


def test_rings_are_interned_and_compare_by_identity():
    assert PolyRing(Fq(3), ("x", "y")) is PolyRing(Fq(3), ["x", "y"])
    fresh = FrobeniusContext(2, 1)
    assert PolyRing(fresh, ("x",)) is PolyRing(fresh, ("x",))
    f = PolyRing(fresh, ("x",)).var(0)
    g = PolyRing(Fq(2), ("x",)).var(0)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ContextMismatchError):
            op(f, g)


def test_total_degree_is_capped_below_2_32():
    R = ring(2, nvars=2)
    top = R.monomial((2**31, 2**31 - 1))
    assert top.total_degree() == 2**32 - 1
    assert R.parse("x^4294967295").leading()[0] == (2**32 - 1, 0)
    x = R.var(0)
    for build in (
        lambda: R.monomial((2**31, 2**31)),
        lambda: R.parse("x^4294967296"),
        lambda: R.parse("x^2147483648*y^2147483648+1"),
        lambda: top * x,
        lambda: x ** (2**32),
        lambda: (x ** (2**31)).pth_power(),
    ):
        with pytest.raises(CapExceeded, match="cap 2\\^32 - 1"):
            build()


# ------------------------------------------- Buchberger against a reference


def _reference_buchberger(generators):
    """The plain Buchberger loop ``buchberger`` replaced, kept as the
    reference: pairs in arrival order with only the coprime test, each
    S-polynomial divided by every element so far, and inter-reduction
    restarted after every change.  Untracked and uncapped."""
    basis = [g for g in generators if not g.is_zero()]
    if not basis:
        return []
    n = basis[0].ring.nvars
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        mi, mj = max(basis[i].terms), max(basis[j].terms)
        if _lcm(mi, mj, n) == mi + mj:
            continue  # coprime leading monomials
        rem = divmod_multi(s_polynomial(basis[i], basis[j]), basis)[1]
        if not rem.is_zero():
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(rem)
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            if not others:
                continue
            rem = divmod_multi(basis[i], others)[1]
            if rem != basis[i]:
                if rem.is_zero():
                    basis.pop(i)
                else:
                    basis[i] = rem
                changed = True
                break
    out = [b * b.leading()[1].inv() for b in basis]
    return sorted(out, key=lambda b: max(b.terms), reverse=True)


def _shaped_generator(rng, R, degree, nterms):
    """One term of exact degree ``degree`` and nterms - 1 of lower degree,
    with random nonzero coefficients: the shape of perfbench's ideals."""
    n = R.nvars
    while True:
        lead = tuple(rng.randrange(degree + 1) for _ in range(n))
        if sum(lead) == degree:
            break
    support = [lead]
    while len(support) < nterms:
        exps = tuple(rng.randrange(degree) for _ in range(n))
        if sum(exps) < degree and exps not in support:
            support.append(exps)
    return Polynomial(R, {_pack(e): rng.randrange(1, R.ctx.q) for e in support})


def _shaped_ideals(p, e, count=20):
    """Seeded ideals of three generators: degree 4 with 3 terms in two
    variables, or degree 3 with 4 terms in three.  Every fourth ideal gets
    a fourth generator x*g_0 + g_1, whose leading monomial is a multiple
    of g_0's, so the active set ends with a non-minimal element."""
    rng = random.Random(SEED + 100 * p + e)
    for k in range(count):
        R = ring(p, e, 2 + k % 2)
        degree, nterms = (4, 3) if R.nvars == 2 else (3, 4)
        gens = [_shaped_generator(rng, R, degree, nterms) for _ in range(3)]
        if k % 4 == 3:
            gens.append(R.var(0) * gens[0] + gens[1])
        yield R, gens


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_buchberger_equals_the_reference_loop(p, e):
    """Same reduced bases as the plain loop, term for term; the tracked
    expressions rebuild every element, and membership cofactors rebuild
    seeded members."""
    rng = random.Random(SEED + p + 10 * e)
    for R, gens in _shaped_ideals(p, e):
        gb = buchberger(gens)
        assert [g.terms for g in gb] == [
            g.terms for g in _reference_buchberger(gens)]
        tracked, exprs = buchberger(gens, tracked=True)
        assert tracked == gb
        for g, row in zip(tracked, exprs):
            acc = R.zero
            for c, gen in zip(row, gens):
                acc = acc + c * gen
            assert acc == g
        member = R.zero
        for gen in gens:
            member = member + R.random_poly(rng, max_degree=2, max_terms=2) * gen
        coeffs = solve_membership(member, gens)
        acc = R.zero
        for c, gen in zip(coeffs, gens):
            acc = acc + c * gen
        assert acc == member


def test_buchberger_pair_cap(monkeypatch):
    """The cap counts the S-pairs actually reduced."""
    R = ring(5, nvars=3)
    gens = [R.parse("y+4*x^2"), R.parse("z+4*x^3")]
    monkeypatch.setattr(poly, "_BUCHBERGER_PAIR_CAP", 1)
    with pytest.raises(CapExceeded, match="pair cap"):
        buchberger(gens)
    monkeypatch.setattr(poly, "_BUCHBERGER_PAIR_CAP", 3)
    assert len(buchberger(gens)) == 3
