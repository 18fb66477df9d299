"""Property tests of submodule identities on zero-dimensional modules, and
of the minimal-extension construction on modules over F_q[x].

Each zero-dimensional module is F_q^r over F_2, F_3 or F_4, rank at most
3, with a random operator table and, as its relations, a random span
closed under the operator.  Each module over F_q[x] (F_2, F_3 or F_4) has
rank 1 or 2, random operator values of degree at most 2 on its free
generators and possibly one torsion generator, and is localized at x or
x + c.  The examples are derandomized, so every run draws the same
ones."""

from hypothesis import given, settings, strategies as st

from cartier_lab.cartier import (
    CartierModule,
    image_chain,
    max_nilpotent_submodule,
    quotient_module,
    stable_image,
    submodule_module,
)
from cartier_lab.fields import Fq
from cartier_lab.functors import open_pullback
from cartier_lab.ie import (
    Lattice,
    intermediate_extension,
    kappa_saturate,
    minimality_oracle,
)
from cartier_lab.poly import PolyRing
from cartier_lab.submodules import hnf_extend, hnf_rows, in_span, scalar_rows

FIELDS = ((2, 1), (3, 1), (2, 2))
RINGS = [PolyRing(Fq(p, e), ()) for p, e in FIELDS]
LINES = [PolyRing(Fq(p, e), ("x",)) for p, e in FIELDS]

PROPERTY = settings(derandomize=True, max_examples=100, database=None,
                    deadline=None)


@st.composite
def zero_dimensional_modules(draw):
    R = draw(st.sampled_from(RINGS))
    ctx = R.ctx
    r = draw(st.integers(1, 3))
    codes = st.integers(0, ctx.q - 1)

    def vector():
        return tuple(R.scalar(ctx.from_int(draw(codes))) for _ in range(r))

    table = {((), j): vector() for j in range(r)}
    free = CartierModule(R, r, table)
    span = hnf_rows([vector() for _ in range(draw(st.integers(0, r)))], r, R)
    while True:
        closed = hnf_extend(span, free.kappa_images(span).values(), r, R)
        if closed == span:
            return CartierModule(R, r, table, relations=span)
        span = closed


@PROPERTY
@given(zero_dimensional_modules())
def test_the_stable_image_is_its_own_image(module):
    sub, _, _ = stable_image(module)
    assert len(image_chain(sub)) == 1


@PROPERTY
@given(zero_dimensional_modules())
def test_the_quotient_by_the_maximal_nilpotent_part_has_none(module):
    gens = max_nilpotent_submodule(module)["generators"]
    quot, _ = quotient_module(module, gens)
    nil = max_nilpotent_submodule(quot)
    assert all(quot.is_zero_element(g) for g in nil["generators"])


@PROPERTY
@given(zero_dimensional_modules())
def test_the_whole_module_as_a_submodule_has_the_normal_formed_table(module):
    """On the unit rows, the solve of ``submodule_module`` returns its
    targets, so the table is the normal form of the module's own."""
    R = module.ring
    sub, _ = submodule_module(module, scalar_rows(R, module.rank, R.one))
    assert sub.kappa_table == {
        key: module.normal_form(v) for key, v in module.kappa_table.items()
    }


@st.composite
def line_localizations(draw):
    """A module over F_q[x] localized at x or x + c.  If it has a torsion
    generator e1, it carries the relation (x + c)^p e1 and operator values
    h (x + c)^(p - 1) e1, so the relation is stable; the free generators
    take random values of degree at most 2 in every coordinate."""
    R = draw(st.sampled_from(LINES))
    ctx = R.ctx
    x = R.var(0)
    lin = x + R.scalar(ctx.from_int(draw(st.integers(1, ctx.q - 1))))
    rank = draw(st.integers(1, 2))
    torsion = draw(st.integers(0, rank - 1))

    def element():
        return ctx.from_int(draw(st.integers(0, ctx.q - 1)))

    def poly():
        return sum((R.monomial((k,), element()) for k in range(3)), R.zero)

    table = {}
    for a in range(ctx.p):
        for j in range(rank):
            if j < torsion:
                h = R.scalar(element()) + R.monomial((1,), element())
                col = [h * lin ** (ctx.p - 1)] + [R.zero] * (rank - 1)
            else:
                col = [poly() for _ in range(rank)]
            table[(a,), j] = tuple(col)
    relations = [(lin**ctx.p,) + (R.zero,) * (rank - 1)][:torsion]
    module = CartierModule(R, rank, table, relations=relations)
    return open_pullback(module, draw(st.sampled_from((x, lin))))


@PROPERTY
@given(line_localizations())
def test_minimal_extensions_are_one_saturation_of_the_stable_image(loc):
    """Every issued certificate with a lattice L' of positive rank
    satisfies g S <= L' <= S, S the stable image of the g-torsion-free
    quotient, and is its own first test sum: sat(g L') = L', so the
    minimality oracle answers True within one test sum."""
    cert = intermediate_extension(loc)
    assert all(cert.checks.values())
    L = cert.lattice
    if cert.crystal_zero or L.is_zero():
        return
    quot = loc.quotient
    stable = image_chain(quot)[-1]
    gS = Lattice(loc, quot.nonzero_rows(stable)).g_multiple(1)
    assert all(L.contains(row) for row in gS.span)
    assert all(in_span(row, stable, loc.ring) for row in L.span)
    assert kappa_saturate(L.g_multiple(1)) == L
    assert minimality_oracle(cert, bound=1) is True
