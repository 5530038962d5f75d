"""Exception and warning types shared across the package, the checks every
public entry point runs on its scalar inputs, and the float-range guard that
turns arithmetic overflow into a ValidationError.

Each input check takes keyword arguments, so that a rejection names the
argument as the caller spells it: ``_positive(tau=tau)`` raises
``tau must be finite and positive, got inf``.
"""

from __future__ import annotations

import math
import operator


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


def _in_float_range(what: str, formula) -> float:
    """formula(), or a ValidationError when the inputs drive it out of the
    floating-point range: a power overflowing, or a^2 underflowing to 0."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"the {what} leaves the floating-point range "
                              "for these inputs")
    return value


def _positive(**values) -> None:
    """Each value finite and > 0."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValidationError(
                f"{name} must be finite and positive, got {value!r}")


def _nonnegative(**values) -> None:
    """Each value finite and >= 0."""
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ValidationError(
                f"{name} must be finite and nonnegative, got {value!r}")


def _fraction(**values) -> None:
    """Each value in [0, 1], as a translation factor is."""
    for name, value in values.items():
        if not 0 <= value <= 1:
            raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")


def _count(minimum: int, **values) -> None:
    """Each value an integer (numpy integers too, floats not) >= minimum."""
    for name, value in values.items():
        try:
            ok = operator.index(value) >= minimum
        except TypeError:
            ok = False
        if not ok:
            raise ValidationError(
                f"{name} must be an integer of at least {minimum}, got {value!r}")
