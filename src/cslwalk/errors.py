"""Exception and warning types shared across the package, the checks every
public entry point runs on its scalar inputs, and the one float-range guard.

Each input check takes keyword arguments, so that a rejection names the
argument as the caller spells it: ``_positive(tau=tau)`` raises
``tau must be finite and positive, got inf``.  The float-range guard
``@_in_float_range("<what>")`` on each public formula turns an ArithmeticError
or a non-finite result into ``the <what> leaves the floating-point range ...``.
"""

from __future__ import annotations

import math
import operator
from functools import partial, wraps

__all__ = ["CslwalkError", "ValidationError", "ConvergenceError", "ValidityWarning"]


class CslwalkError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CslwalkError, ValueError):
    """A precondition on inputs was violated (rejected, not silently fixed)."""


class ConvergenceError(CslwalkError, RuntimeError):
    """A numerical routine failed to reach its target tolerance.

    The achieved error estimate, when known, is carried in ``achieved``.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class ValidityWarning(UserWarning):
    """A soft validity condition failed (result returned, but flagged).

    Used for regime checks the caller is responsible for, e.g. requesting
    free-molecular drag when the mean free path is not large compared to the
    body, or an equilibrium packet width outside its derivation's range.
    """


def _in_float_range(what: str):
    """Decorator: a ValidationError naming `what` in place of an
    ArithmeticError, or of a non-finite float in the result itself or its
    dict values.  Lists, arrays and the fields of a result type are not
    walked: such a type checks its own fields."""
    def decorate(fn):
        @wraps(fn)
        def guarded(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except ArithmeticError:
                out = math.inf
            values = out.values() if isinstance(out, dict) else [out]
            if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                raise ValidationError(f"the {what} leaves the floating-point "
                                      "range for these inputs")
            return out
        return guarded
    return decorate


def _check(rule: str, ok, /, **values) -> None:
    """A ValidationError naming the first value for which ok(value) fails."""
    for name, value in values.items():
        try:
            passed = ok(value)
        except TypeError:        # not a number, or (operator.index) not an integer
            passed = False
        if not passed:
            raise ValidationError(f"{name} must be {rule}, got {value!r}")


_finite = partial(_check, "finite", math.isfinite)
_positive = partial(_check, "finite and positive", lambda v: 0 < v < math.inf)
_nonnegative = partial(_check, "finite and nonnegative", lambda v: 0 <= v < math.inf)
_fraction = partial(_check, "lie in [0, 1]", lambda v: 0 <= v <= 1)   # a translation factor


def _count(minimum: int, **values) -> None:
    """Each value an integer (numpy integers too, floats not) >= minimum."""
    _check(f"an integer of at least {minimum}", lambda v: operator.index(v) >= minimum,
           **values)
