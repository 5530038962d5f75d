"""Viability map of the collapse parameters (lam, a).

Each experimental or theoretical bound is a power-law inequality in the
plain CGS numbers lambda_inv (s) and a (cm) — the raw-number convention in
which these bounds are customarily quoted.  Boundaries are straight lines
in the (log10 a, log10 lambda_inv) plane with slope set by the a-exponent.

Also here: the effective collapse rate implied by gravitationally motivated
collapse proposals (order-of-magnitude only), the thermal-bath consistency
line, and the photon-emission rate of a collapse-shaken free electron that
feeds the germanium-detector bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CONSTANTS, ERG_PER_EV, _csv
from .errors import ValidationError, _positive

__all__ = [
    "ConstraintLine",
    "CONSTRAINT_LINES",
    "DEFAULT_MAP_IDS",
    "evaluate_constraints",
    "lambda_gravitational",
    "ThermalRelation",
    "thermal_relation",
    "thermal_bath_energies",
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
_SECONDS_PER_DAY = 86400.0


def _pow(x: float, p: float) -> float:
    """x ** p, or inf where that leaves the float range."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ConstraintLine:
    """One viability bound: lambda_inv * a^a_power  (sense)  threshold."""

    id: str
    a_power: int
    threshold: float
    sense: str          # 'min' (left side must exceed) or 'max' (stay below)
    description: str

    def satisfied(self, lambda_inv: float, a: float) -> bool:
        value = lambda_inv * _pow(a, self.a_power)
        return value > self.threshold if self.sense == "min" else value < self.threshold

    def boundary_log10_lambda_inv(self, log10_a):
        """log10 lambda_inv on the boundary, linear in log10 a."""
        return math.log10(self.threshold) - self.a_power * np.asarray(log10_a)


CONSTRAINT_LINES = {
    "ge-radiation": ConstraintLine(
        "ge-radiation", 2, 0.4, "min",
        "photon-count limit from shielded germanium: collapse-shaken free "
        "electrons may not radiate above the measured pulse rate"),
    "rot-null": ConstraintLine(
        "rot-null", 4, 1.0e2, "min",
        "would-be null result of a rotational diffusion experiment able to "
        "see a quarter turn in 45 minutes"),
    "perception-time": ConstraintLine(
        "perception-time", 0, 4.0e19, "max",
        "a just-visible sphere split over more than a must collapse faster "
        "than human perception time (~0.1 s)"),
    "small-displacement": ConstraintLine(
        "small-displacement", 2, 1.6e10, "max",
        "a just-visible sphere split by the smallest discernible displacement "
        "must collapse faster than perception time"),
    "trans-null": ConstraintLine(
        "trans-null", 2, 1.0e12, "min",
        "would-be null result of a translational diffusion experiment 1000x "
        "more sensitive than the canonical prediction"),
    "nucleon-excitation": ConstraintLine(
        "nucleon-excitation", 4, 2.0e-15, "min",
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
        out[cid] = CONSTRAINT_LINES[cid].satisfied(lambda_inv, a)
    return out


def lambda_gravitational(a: float, mode: str = "point",
                         size: float | None = None) -> float:
    """Effective collapse rate of gravitationally based collapse proposals.

    All results are order-of-magnitude (numerical factors set to 1):
    a point-like object of size ~ a has lam_G = G m^2 / (a hbar);
    for a sphere of radius R the product lam * f equals lam_G (a/R)^3,
    and for disc rotation lam * f_rot equals lam_G (a/L)^5 — the returned
    value is that product for the extended modes.
    """
    _positive(a=a)
    lam_g = CONSTANTS.G * CONSTANTS.m_nucleon ** 2 / (a * CONSTANTS.hbar)
    if mode == "point":
        return lam_g
    if size is None:
        raise ValidationError(f"mode {mode!r} needs a body size")
    _positive(size=size)
    if mode == "sphere":
        return lam_g * (a / size) ** 3
    if mode == "disc":
        return lam_g * (a / size) ** 5
    raise ValidationError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ThermalRelation:
    """Equality line lambda_inv * a^2 = 1e3 * gamma (raw CGS numbers),

    from identifying the collapse noise with a bath in equilibrium with the
    cosmic 2.7 K radiation whose relaxation time is gamma times the age of
    the universe.
    """

    gamma: float

    def __post_init__(self):
        _positive(gamma=self.gamma)
        if self.gamma < 1.0:
            raise ValidationError("gamma must be at least 1 (no equilibrium yet)")

    @property
    def lambda_inv_a_sq(self) -> float:
        return 1.0e3 * self.gamma

    def lambda_inv(self, a: float) -> float:
        _positive(a=a)
        return self.lambda_inv_a_sq / a ** 2


def thermal_relation(gamma: float) -> ThermalRelation:
    return ThermalRelation(gamma=gamma)


def thermal_bath_energies() -> dict:
    """kT of the 2.7 K cosmic bath and the collapse momentum-scale energy
    at the GRW length a = 1e-5 cm, in eV."""
    kT_ev = CONSTANTS.k_boltzmann * 2.7 / ERG_PER_EV
    scale_ev = CONSTANTS.hbar ** 2 / (CONSTANTS.m_nucleon * 1.0e-5 ** 2) / ERG_PER_EV
    return {"kT_eV": kT_ev, "collapse_scale_eV": scale_ev,
            "implied_gamma": kT_ev / (50.0 * scale_ev)}


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


def ge_detector_rate(lam: float, a: float) -> float:
    """Detector-side emission rate in counts/(keV kg day) at 11 keV.

    Four essentially free valence electrons per germanium atom.
    """
    per_electron = fu_radiation_rate(11.0, lam, a)
    return (per_electron * _GE_FREE_ELECTRONS_PER_ATOM * _GE_ATOMS_PER_KG
            * _SECONDS_PER_DAY)


def ge_radiation_threshold(limit_counts: float = 0.05) -> float:
    """lambda_inv * a^2 lower bound implied by a measured count limit.

    The emission rate scales as lam/a^2, so the limit translates into a
    floor on lambda_inv a^2; with the canonical 0.05 counts/(keV kg day)
    this reproduces the quoted bound of about 0.4.
    """
    _positive(limit_counts=limit_counts)
    rate_ref = ge_detector_rate(1.0e-16, 1.0e-5)
    max_ratio = limit_counts / rate_ref            # on (lam/a^2)/(lam/a^2)_ref
    return 1.0 / (max_ratio * (1.0e-16 / 1.0e-10))


# ---------------------------------------------------------------------------
# map dataset

@dataclass(frozen=True)
class ConstraintMap:
    """Boolean viability over a (log10 a, log10 lambda_inv) lattice."""

    log10_a: tuple
    log10_lambda_inv: tuple
    ids: tuple
    passed: tuple      # passed[i][j][k] for a-index i, lambda-index j, id k

    def mask(self) -> np.ndarray:
        return np.array(self.passed, dtype=bool)

    def region_nonempty(self, which=None) -> bool:
        """Is there a lattice point satisfying all the requested bounds?"""
        m = self.mask()
        if which is not None:
            cols = [self.ids.index(cid) for cid in which]
            m = m[:, :, cols]
        return bool(np.any(np.all(m, axis=2)))

    def metadata(self) -> dict:
        return {
            "convention": "raw CGS numbers: lambda_inv in s, a in cm",
            "grid": "log10-spaced lattice, sorted ascending",
            "ids": list(self.ids),
            "descriptions": {cid: CONSTRAINT_LINES[cid].description
                             for cid in self.ids},
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
    for cid in ids:
        if cid not in CONSTRAINT_LINES:
            raise ValidationError(f"unknown constraint id {cid!r}")
    # 10.0 ** v and a ** a_power are the Python pow calls evaluate_constraints
    # makes, inf where they overflow; the product and the comparison are the
    # same IEEE operations on the whole lattice, so every mask bit equals the
    # per-point one.
    a_vals = [_pow(10.0, v) for v in la]
    lam_vals = [_pow(10.0, v) for v in ll]
    for a in a_vals:
        _positive(a=a)
    for lambda_inv in lam_vals:
        _positive(lambda_inv=lambda_inv)
    lam = np.array(lam_vals)
    distinct = list(dict.fromkeys(ids))
    code = np.zeros((len(la), len(ll)), dtype=np.int64)
    for bit, cid in enumerate(distinct):
        line = CONSTRAINT_LINES[cid]
        with np.errstate(over="ignore"):     # inf, as the float product gives
            value = np.array([_pow(a, line.a_power) for a in a_vals])[:, None] * lam
        ok = value > line.threshold if line.sense == "min" else value < line.threshold
        code |= ok.astype(np.int64) << bit
    # one shared tuple per pass/fail pattern instead of one per lattice point
    patterns = [tuple(bool(c >> distinct.index(cid) & 1) for cid in ids)
                for c in range(2 ** len(distinct))]
    passed = tuple(tuple(map(patterns.__getitem__, row)) for row in code.tolist())
    return ConstraintMap(log10_a=tuple(la), log10_lambda_inv=tuple(ll),
                         ids=ids, passed=passed)


def map_to_csv(cmap: ConstraintMap) -> str:
    """The lattice flattened to CSV text: log10_a,log10_lambda_inv,c1..cN."""
    return _csv(["log10_a", "log10_lambda_inv"]
                + [f"c{k+1}" for k in range(len(cmap.ids))],
                [[f"{lga:.6g}", f"{lgl:.6g}"]
                 + ["1" if v else "0" for v in cmap.passed[i][j]]
                 for i, lga in enumerate(cmap.log10_a)
                 for j, lgl in enumerate(cmap.log10_lambda_inv)])


def boundary_polylines(cmap: ConstraintMap) -> dict:
    """Boundary of each bound as a polyline over the map's a-grid."""
    out = {}
    for cid in cmap.ids:
        line = CONSTRAINT_LINES[cid]
        ys = line.boundary_log10_lambda_inv(np.array(cmap.log10_a))
        out[cid] = [(float(x), float(y)) for x, y in zip(cmap.log10_a, ys)]
    return out
