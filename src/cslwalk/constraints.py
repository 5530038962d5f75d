"""Viability map of the collapse parameters (lam, a).

Each experimental or theoretical bound is a power-law inequality in the
plain CGS numbers lambda_inv (s) and a (cm) — the raw-number convention in
which these bounds are customarily quoted.  Boundaries are straight lines
in the (log10 a, log10 lambda_inv) plane with slope set by the a-exponent.

Also here: the effective collapse rate implied by gravitationally motivated
collapse proposals (order-of-magnitude only), the thermal-bath consistency
line (thermal_lambda_inv), and the photon-emission rate of a collapse-shaken
free electron that feeds the germanium-detector bound.

Everything here runs on the standard library; numpy is imported only by
`ConstraintMap.mask()`, which returns the lattice as a boolean array.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .core import CONSTANTS, ERG_PER_EV, _csv, convert_unit
from .errors import ValidationError, _in_float_range, _positive

__all__ = [
    "CONSTRAINT_LINES",
    "DEFAULT_MAP_IDS",
    "evaluate_constraints",
    "lambda_gravitational",
    "thermal_lambda_inv",
    "fu_radiation_rate",
    "ge_detector_rate",
    "ge_radiation_threshold",
    "ConstraintMap",
    "fig2_dataset",
    "map_to_csv",
    "boundary_polylines",
]

_E_CHARGE_ESU = 4.8032e-10          # electron charge, esu (e^2 in erg cm)
_GE_ATOMS_PER_KG = 8.29e24
_GE_FREE_ELECTRONS_PER_ATOM = 4.0
_GE_COUNT_LIMIT = 0.05              # measured, counts/(keV kg day) at 11 keV


def _pow(x: float, p: float) -> float:
    """x ** p, or inf where that leaves the float range."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


# id: (a_power, threshold, sense, description), the bound
# lambda_inv * a^a_power > threshold (sense 'min') or < threshold ('max')
CONSTRAINT_LINES = {
    "ge-radiation": (
        2, 0.4, "min",
        "photon-count limit from shielded germanium: collapse-shaken free "
        "electrons may not radiate above the measured pulse rate"),
    "rot-null": (
        4, 1.0e2, "min",
        "would-be null result of a rotational diffusion experiment able to "
        "see a quarter turn in 45 minutes"),
    "perception-time": (
        0, 4.0e19, "max",
        "a just-visible sphere split over more than a must collapse faster "
        "than human perception time (~0.1 s)"),
    "small-displacement": (
        2, 1.6e10, "max",
        "a just-visible sphere split by the smallest discernible displacement "
        "must collapse faster than perception time"),
    "trans-null": (
        2, 1.0e12, "min",
        "would-be null result of a translational diffusion experiment 1000x "
        "more sensitive than the canonical prediction"),
    "nucleon-excitation": (
        4, 2.0e-15, "min",
        "older germanium bound from spontaneous nucleon excitation (weaker "
        "than ge-radiation; kept for reference, not drawn by default)"),
}

# the five bounds drawn on the parameter-space map, in column order c1..c5
DEFAULT_MAP_IDS = ("ge-radiation", "rot-null", "perception-time",
                   "small-displacement", "trans-null")

# fig2_dataset rejects a larger lattice before it allocates one
_MAX_LATTICE_POINTS = 10 ** 6


def evaluate_constraints(lambda_inv: float, a: float,
                         which=None) -> dict[str, bool]:
    """Pass/fail of each requested bound at the point (lambda_inv, a).

    Inputs are plain CGS numbers: lambda_inv in seconds, a in cm.
    """
    _positive(lambda_inv=lambda_inv, a=a)
    ids = tuple(which) if which is not None else DEFAULT_MAP_IDS
    out = {}
    for cid in ids:
        if cid not in CONSTRAINT_LINES:
            raise ValidationError(f"unknown constraint id {cid!r}")
        a_power, threshold, sense, _ = CONSTRAINT_LINES[cid]
        value = lambda_inv * _pow(a, a_power)
        out[cid] = value > threshold if sense == "min" else value < threshold
    return out


@_in_float_range("gravitational collapse rate")
def lambda_gravitational(a: float) -> float:
    """Effective collapse rate of gravitationally based collapse proposals.

    Order of magnitude (numerical factors set to 1): a point-like object of
    size ~ a has lam_G = G m^2 / (a hbar); for a sphere of radius R the
    product lam f scales as lam_G (a/R)^3, and for disc rotation lam f_rot
    as lam_G (a/L)^5.
    """
    _positive(a=a)
    return CONSTANTS.G * CONSTANTS.m_nucleon ** 2 / (a * CONSTANTS.hbar)


@_in_float_range("thermal line")
def thermal_lambda_inv(gamma: float, a: float) -> float:
    """lambda_inv on the equality line lambda_inv * a^2 = 1e3 * gamma (raw
    CGS numbers), from identifying the collapse noise with a bath in
    equilibrium with the cosmic 2.7 K radiation whose relaxation time is
    gamma >= 1 times the age of the universe.
    """
    _positive(gamma=gamma, a=a)
    if gamma < 1.0:
        raise ValidationError("gamma must be at least 1 (no equilibrium yet)")
    return 1.0e3 * gamma / a ** 2


@_in_float_range("photon emission rate")
def fu_radiation_rate(E_keV: float, lam: float, a: float) -> float:
    """Photon emission rate of one collapse-shaken free electron.

    counts per second per keV at photon energy E; with mass-proportional
    coupling the electron mass cancels, leaving
    (lam / a^2) e^2 hbar / (4 pi^2 m_nucleon^2 c^3 E).
    """
    _positive(E_keV=E_keV, lam=lam, a=a)
    erg_per_kev = 1.0e3 * ERG_PER_EV
    E_erg = E_keV * erg_per_kev
    per_erg = (lam / a ** 2) * _E_CHARGE_ESU ** 2 * CONSTANTS.hbar / (
        4.0 * math.pi ** 2 * CONSTANTS.m_nucleon ** 2 * CONSTANTS.c ** 3 * E_erg)
    return per_erg * erg_per_kev


@_in_float_range("detector emission rate")
def ge_detector_rate(lam: float, a: float) -> float:
    """Detector-side emission rate in counts/(keV kg day) at 11 keV.

    Four essentially free valence electrons per germanium atom.
    """
    per_electron = fu_radiation_rate(11.0, lam, a)
    return (per_electron * _GE_FREE_ELECTRONS_PER_ATOM * _GE_ATOMS_PER_KG
            * convert_unit(1.0, "day", "s"))


def ge_radiation_threshold() -> float:
    """lambda_inv * a^2 lower bound implied by the measured count limit.

    The emission rate scales as lam/a^2, so the canonical limit of
    0.05 counts/(keV kg day) bounds lam/a^2 by 0.05 over the rate at
    lam = a = 1, a floor on lambda_inv a^2 of about 0.4, the quoted bound.
    """
    return ge_detector_rate(1.0, 1.0) / _GE_COUNT_LIMIT


# ---------------------------------------------------------------------------
# map dataset

@dataclass(frozen=True)
class ConstraintMap:
    """Boolean viability over a (log10 a, log10 lambda_inv) lattice."""

    log10_a: tuple
    log10_lambda_inv: tuple
    ids: tuple
    passed: tuple      # passed[i][j][k] for a-index i, lambda-index j, id k

    def mask(self):
        """passed as a numpy bool array of shape (a, lambda_inv, ids)."""
        import numpy as np
        return np.array(self.passed, dtype=bool)

    def region_nonempty(self, which=None) -> bool:
        """Is there a lattice point satisfying all the requested bounds?"""
        which = self.ids if which is None else tuple(which)
        for cid in which:
            if cid not in self.ids:
                raise ValidationError(f"unknown constraint id {cid!r}")
        cols = [self.ids.index(cid) for cid in which]
        return any(all(p[k] for k in cols) for p in set().union(*self.passed))

    def metadata(self) -> dict:
        return {
            "convention": "raw CGS numbers: lambda_inv in s, a in cm",
            "grid": "log10-spaced lattice, sorted ascending",
            "ids": list(self.ids),
            "descriptions": {cid: CONSTRAINT_LINES[cid][3] for cid in self.ids},
            "note": "bounds are order-of-magnitude statements; boundary "
                    "lines have slope -(a exponent) in log-log",
        }


def fig2_dataset(a_range, lambda_inv_range, which=DEFAULT_MAP_IDS) -> ConstraintMap:
    """Evaluate the bounds on a log-log lattice.

    a_range and lambda_inv_range are iterables of log10 values (a in cm,
    lambda_inv in s); both must be nonempty and strictly increasing.
    """
    la = [float(v) for v in a_range]
    ll = [float(v) for v in lambda_inv_range]
    if not la or not ll:
        raise ValidationError("grids must be nonempty")
    if len(la) * len(ll) > _MAX_LATTICE_POINTS:
        raise ValidationError(
            f"the lattice holds {len(la) * len(ll)} points, more than "
            f"{_MAX_LATTICE_POINTS}")
    if any(b <= a for a, b in zip(la, la[1:])) or any(b <= a for a, b in zip(ll, ll[1:])):
        raise ValidationError("grids must be strictly increasing")
    ids = tuple(which)
    for k, cid in enumerate(ids):
        if cid not in CONSTRAINT_LINES:
            raise ValidationError(f"unknown constraint id {cid!r}")
        if cid in ids[:k]:
            raise ValidationError(f"constraint id {cid!r} is repeated")
    # 10.0 ** v and a ** a_power are the Python pow calls evaluate_constraints
    # makes, inf where they overflow.  On one a-row, ap = a ** a_power is
    # >= 0 or inf and the lambda_inv values do not decrease, so neither do the
    # IEEE products ap * lambda_inv: each bound holds on one contiguous run of
    # the row, a suffix for 'min' and a prefix for 'max'.  bisect_right (for
    # value > threshold) and bisect_left (for value < threshold) find where
    # the run starts or ends from the same products and the same comparison,
    # so every bit equals the per-point one, at log(cols) products per bound
    # and row.
    a_vals = [_pow(10.0, v) for v in la]
    lam_vals = [_pow(10.0, v) for v in ll]
    for a in a_vals:
        _positive(a=a)
    for lambda_inv in lam_vals:
        _positive(lambda_inv=lambda_inv)
    # one shared tuple per pass/fail pattern instead of one per lattice point
    patterns = [tuple(code >> k & 1 == 1 for k in range(len(ids)))
                for code in range(2 ** len(ids))]
    flips = [(bisect_right if sense == "min" else bisect_left, a_power, threshold,
              1 << k)
             for k, (a_power, threshold, sense, _)
             in enumerate(CONSTRAINT_LINES[cid] for cid in ids)]
    # ahead of every flip the 'max' bounds hold and the 'min' ones do not
    first_code = sum(bit for find, _, _, bit in flips if find is bisect_left)
    rows = []
    for a in a_vals:
        stops = sorted((find(lam_vals, threshold, key=_pow(a, p).__mul__), bit)
                       for find, p, threshold, bit in flips)
        code, start, row = first_code, 0, []
        for stop, bit in stops:
            row += [patterns[code]] * (stop - start)
            code, start = code ^ bit, stop
        row += [patterns[code]] * (len(lam_vals) - start)
        rows.append(tuple(row))
    return ConstraintMap(log10_a=tuple(la), log10_lambda_inv=tuple(ll),
                         ids=ids, passed=tuple(rows))


def map_to_csv(cmap: ConstraintMap) -> str:
    """The lattice flattened to CSV text: log10_a,log10_lambda_inv,c1..cN."""
    # each grid value and each distinct pass/fail pattern is formatted once
    xs = [f"{lga:.6g}" for lga in cmap.log10_a]
    ys = [f"{lgl:.6g}" for lgl in cmap.log10_lambda_inv]
    flags = {p: ["1" if v else "0" for v in p] for p in set().union(*cmap.passed)}
    return _csv(["log10_a", "log10_lambda_inv"]
                + [f"c{k+1}" for k in range(len(cmap.ids))],
                [[x, y, *flags[p]]
                 for x, row in zip(xs, cmap.passed) for y, p in zip(ys, row)])


def boundary_polylines(cmap: ConstraintMap) -> dict:
    """Boundary of each bound as a polyline over the map's a-grid."""
    xs = [float(x) for x in cmap.log10_a]
    lines = {}
    for cid in cmap.ids:
        # log10 lambda_inv on the boundary, linear in log10 a
        a_power, threshold, _, _ = CONSTRAINT_LINES[cid]
        lines[cid] = [(x, math.log10(threshold) - a_power * x) for x in xs]
    return lines
