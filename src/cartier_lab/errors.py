"""Exception hierarchy shared by every cartier_lab module, and the one
stabilization loop that raises NonStabilized.

The CLI maps these onto process exit codes: ValidationError (CapExceeded
included) -> 2, NonStabilized -> 3, InvariantViolation and
CertificateFailed -> 4.
"""

import os

DEFAULT_ITERATION_CAP = 256


class CartierLabError(Exception):
    """Base class for all package errors."""


class ValidationError(CartierLabError):
    """Input data violates a documented precondition or consistency law."""


class ParseError(ValidationError):
    """Malformed polynomial / element string.  Carries a position."""

    def __init__(self, message, text=None, pos=None):
        self.text = text
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos}: {text!r})"
        super().__init__(message)


class ContextMismatchError(ValidationError):
    """Operands built over different FrobeniusContexts or rings."""


class UnsupportedRingError(ValidationError):
    """Operation requested over a ring shape the package does not support."""


class CapExceeded(ValidationError):
    """A documented size cap (variables, degree, rank) was exceeded."""


class NonStabilized(CartierLabError):
    """An iterative chain hit its iteration cap before stabilizing.

    ``partial`` is the chain computed so far, a list of cap + 1 members,
    so callers can report how far it got.
    """

    def __init__(self, message, partial, cap):
        super().__init__(message)
        self.partial = partial
        self.cap = cap


class InvariantViolation(CartierLabError):
    """An internal cross-check failed: indicates a bug, not bad input."""


class CertificateFailed(CartierLabError):
    """A post-hoc certificate check on a computed object did not hold."""


def iteration_cap(explicit=None):
    """Resolve the stabilization-loop cap: explicit arg, then the
    CARTIER_LAB_MAX_ITER environment variable, then the default.  A cap
    must be a positive integer."""
    name, value = "iteration cap", explicit
    if explicit is None:
        value = os.environ.get("CARTIER_LAB_MAX_ITER", "")
        if not value:
            return DEFAULT_ITERATION_CAP
        name = "CARTIER_LAB_MAX_ITER"
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValidationError(f"{name}={value!r} is not a positive integer")
    return cap


def stabilize(first, step, what, cap=None):
    """The chain [first, m1, m2, ...] of a monotone iteration up to its
    stable member.  Each new member is ``step(chain)`` on the chain so far,
    so a step that depends on its index reads it from ``len(chain)``; the
    loop stops at the first member equal to the last one, which is not
    appended.  After ``cap`` steps without that, NonStabilized carries the
    chain reached."""
    cap = iteration_cap(cap)
    chain = [first]
    for _ in range(cap):
        nxt = step(chain)
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
    raise NonStabilized(
        f"{what} did not stabilize within {cap} steps", partial=chain, cap=cap
    )
