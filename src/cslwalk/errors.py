"""Exception and warning types shared across the package, and the
float-range guard that turns arithmetic overflow into a ValidationError."""

from __future__ import annotations

import math


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
