"""Tests for the one stabilization loop (``errors.stabilize``), its cap,
and the loops built on it.

Every chain and saturation stops at the first member equal to the last
one.  A cap of n allows n steps; a loop that has not stabilized
by then raises NonStabilized carrying the n + 1 members it reached."""

from pathlib import Path

import pytest

from cartier_lab.cartier import CartierModule, image_chain, omega_module
from cartier_lab.errors import (
    DEFAULT_ITERATION_CAP,
    NonStabilized,
    ValidationError,
    iteration_cap,
    stabilize,
)
from cartier_lab.fields import (
    P_INV_LINEAR,
    Fq,
    SemilinearMap,
    iterated_image_chain,
)
from cartier_lab.functors import open_pullback, torsion_gamma_Z
from cartier_lab.gamma import cartier_to_gamma, gamma_kernel_chain
from cartier_lab.ie import Lattice, kappa_saturate
from cartier_lab.poly import PolyRing
from cartier_lab.serialize import load_document

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"
JORDAN2 = EXAMPLES / "jordan2.json"


def test_stabilize_returns_the_chain_up_to_its_stable_member():
    seen = []

    def halve(chain):
        seen.append(len(chain))
        return chain[-1] // 2

    assert stabilize(12, halve, "halving") == [12, 6, 3, 1, 0]
    assert seen == [1, 2, 3, 4, 5]  # the equal member is computed, not kept


def test_stabilize_allows_exactly_cap_steps():
    assert stabilize(4, lambda chain: chain[-1] // 2, "halving", cap=4) == [
        4, 2, 1, 0,
    ]
    with pytest.raises(NonStabilized) as info:
        stabilize(4, lambda chain: chain[-1] // 2, "halving", cap=3)
    assert info.value.partial == [4, 2, 1, 0]
    assert info.value.cap == 3
    assert "halving did not stabilize within 3 steps" in str(info.value)


def test_iteration_cap_resolution(monkeypatch):
    monkeypatch.delenv("CARTIER_LAB_MAX_ITER", raising=False)
    assert iteration_cap() == DEFAULT_ITERATION_CAP
    assert iteration_cap(5) == 5
    monkeypatch.setenv("CARTIER_LAB_MAX_ITER", "7")
    assert iteration_cap() == 7
    assert iteration_cap(5) == 5


@pytest.mark.parametrize("explicit", [0, -1])
def test_non_positive_explicit_cap_is_rejected(explicit):
    with pytest.raises(ValidationError, match="positive integer"):
        iteration_cap(explicit)


@pytest.mark.parametrize("env", ["0", "-3", "abc"])
def test_non_positive_env_cap_is_rejected(env, monkeypatch):
    monkeypatch.setenv("CARTIER_LAB_MAX_ITER", env)
    with pytest.raises(ValidationError, match="CARTIER_LAB_MAX_ITER"):
        iteration_cap()


def _line(p):
    R = PolyRing(Fq(p, 1), ("x",))
    return R, R.var(0)


def _image_chain():
    return lambda cap: image_chain(load_document(JORDAN2), cap=cap)


def _iterated_image_chain():
    ctx = Fq(2, 1)
    z, o = ctx.scalar(0), ctx.scalar(1)
    shift = SemilinearMap(ctx, P_INV_LINEAR, ((z, z), (o, z)))  # V > T(V) > 0
    return lambda cap: iterated_image_chain(shift, cap=cap)


def _gamma_kernel_chain():
    sheaf = cartier_to_gamma(load_document(JORDAN2))
    return lambda cap: gamma_kernel_chain(sheaf, cap=cap)


def _torsion():
    # F_2[x]/(x^2) with the zero operator: ker x < ker x^2 = everything
    R, x = _line(2)
    zero = (R.zero,)
    module = CartierModule(
        R, 1, {((0,), 0): zero, ((1,), 0): zero}, relations=[(x * x,)]
    )
    return lambda cap: torsion_gamma_Z(module, x, cap=cap)


def _saturation():
    # x * (top forms) saturates to all top forms in one proper step
    R, x = _line(2)
    loc = open_pullback(omega_module(R), x)
    return lambda cap: kappa_saturate(Lattice(loc, [(x,)]), cap=cap)


LOOPS = {
    "image_chain": (_image_chain, 1, "image chain"),
    "iterated_image_chain": (_iterated_image_chain, 1, "image chain"),
    "gamma_kernel_chain": (_gamma_kernel_chain, 1, "gamma kernel chain"),
    "torsion_gamma_Z": (_torsion, 1, "torsion chain"),
    "kappa_saturate": (_saturation, 1, "saturation"),
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_each_loop_stops_at_its_cap_with_the_chain_reached(loop):
    build, cap, what = LOOPS[loop]
    run = build()
    with pytest.raises(NonStabilized) as info:
        run(cap)
    exc = info.value
    assert f"{what} did not stabilize" in str(exc)
    assert exc.cap == cap
    assert isinstance(exc.partial, list) and len(exc.partial) == cap + 1
    assert exc.partial[0] != exc.partial[1]
    run(DEFAULT_ITERATION_CAP)  # the same input stabilizes under the default
