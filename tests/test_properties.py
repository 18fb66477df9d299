"""Property tests of submodule identities on zero-dimensional modules.

Each module is F_q^r over F_2, F_3 or F_4, rank at most 3, with a random
operator table and, as its relations, a random span closed under the
operator.  The examples are derandomized, so every run draws the same
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
from cartier_lab.poly import PolyRing
from cartier_lab.submodules import hnf_extend, hnf_rows, scalar_rows

RINGS = [PolyRing(Fq(p, e), ()) for p, e in ((2, 1), (3, 1), (2, 2))]

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
