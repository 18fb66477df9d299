"""Tests for the presentation shared by Cartier modules and gamma-sheaves:
one validation path, one normal form, one element check."""

import pytest

from cartier_lab.cartier import CartierModule
from cartier_lab.errors import ValidationError
from cartier_lab.fields import Fq
from cartier_lab.gamma import GammaSheaf
from cartier_lab.poly import IdealSpec, PolyRing
from cartier_lab.submodules import scalar_rows, zero_vector

R = PolyRing(Fq(2), ("x",))
OTHER = PolyRing(Fq(2), ("y",))


def module(rank, **kwargs):
    table = {
        (a, j): zero_vector(R, rank)
        for a in R.pth_basis()
        for j in range(rank)
    }
    return CartierModule(R, rank, table, **kwargs)


def sheaf(rank, **kwargs):
    return GammaSheaf(R, rank, [zero_vector(R, rank)] * max(rank, 0), **kwargs)


BAD_INPUTS = {
    "duplicate names": (
        "distinct",
        lambda build: build(2, generator_names=("a", "a")),
    ),
    "ideal over another ring": (
        "ideal ring differs",
        lambda build: build(1, ideal=IdealSpec(OTHER, [OTHER.var(0)])),
    ),
    "element over another ring": (
        "over wrong ring",
        lambda build: build(1).normal_form((OTHER.one,)),
    ),
    "name count": (
        "generator_names length",
        lambda build: build(1, generator_names=("a", "b")),
    ),
    "negative rank": ("nonnegative", lambda build: build(-1)),
}


@pytest.mark.parametrize("build", [module, sheaf], ids=["module", "sheaf"])
@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
def test_both_kinds_reject_the_same_bad_input(build, bad):
    message, make = BAD_INPUTS[bad]
    with pytest.raises(ValidationError, match=message):
        make(build)


@pytest.mark.parametrize("build", [module, sheaf], ids=["module", "sheaf"])
def test_elements_over_an_equal_ring_are_accepted(build):
    twin = PolyRing(Fq(2), ("x",))
    pres = build(1, relations=[(R.var(0) ** 2,)])
    assert pres.normal_form((twin.var(0) ** 3 + twin.one,)) == (R.one,)


def test_scalar_rows_are_scaled_unit_vectors():
    x = R.var(0)
    assert scalar_rows(R, 2, x) == [(x, R.zero), (R.zero, x)]
    assert scalar_rows(R, 0, x) == []


def test_validation_fills_the_relation_hnf_cache():
    x = R.var(0)
    mod = CartierModule(
        R, 1, {((0,), 0): (x,), ((1,), 0): (R.zero,)}, relations=[(x**3,)]
    )
    assert mod._rel_hnf == ((x**3,),)


def test_effective_and_twisted_relations_share_the_ideal_rows():
    x = R.var(0)
    ideal = IdealSpec(R, [x**2])
    pres = sheaf(2, relations=[(x, R.zero)], ideal=ideal)
    ideal_rows = tuple(scalar_rows(R, 2, x**2))
    assert pres.effective_relations() == ((x, R.zero),) + ideal_rows
    assert pres.twisted_relations(1) == ((x**2, R.zero),) + ideal_rows
