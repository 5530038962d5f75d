"""Collapse-driven diffusion observables and their standard-QM baselines.

Everything here is a closed form in the constants and the collapse
parameters.  Collapse noise is white noise on the velocity of one rate q per
mode (_collapse_noise): undamped, rms displacement and rotation grow as
sqrt(q t^3 / 3); with gas damping, thermal and collapse noise add in one
exact damped-diffusion variance, for translation and rotation alike, which
runs from the t^{3/2} short-time limit to the t^{1/2} long-time limit (the
thermal walk alone is its collapse-free case); the center-of-mass
wavepacket has an equilibrium width where collapse narrowing balances free
spreading.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import CONSTANTS, Body, CslParams, Disc, Environment, Sphere
from .errors import (ValidationError, ValidityWarning, _fraction,
                     _in_float_range, _nonnegative, _positive)
from .factors import f_sphere

__all__ = [
    "WavepacketEquilibrium",
    "csl_rms_translation",
    "csl_rms_rotation",
    "time_to_rotation",
    "combined_rms",
    "qm_baseline_translation",
    "qm_baseline_rotation",
    "equilibrium_width",
    "equilibrium_series_rms",
    "energy_gain_rates",
    "vacuum_diffusion_table",
    "equilibrium_table",
    "TABLE_RADII",
    "TABLE_TIMES",
]


@dataclass(frozen=True)
class WavepacketEquilibrium:
    """Equilibrium center-of-mass packet width s_inf (cm) and the
    characteristic relaxation time tau_s (s)."""

    s_inf: float
    tau_s: float

    def __post_init__(self):
        _positive(s_inf=self.s_inf, tau_s=self.tau_s)


def _collapse_noise(csl: CslParams, f: float, mode: str) -> float:
    """The collapse part of the white velocity-noise rate q: in translation
    lam hbar^2 f / (2 m^2 a^2) (cm^2/s^3), in rotation
    lam (hbar / m a^2)^2 f / 4 (rad^2/s^3).  Undamped, it walks the body
    sqrt(q t^3 / 3) in time t."""
    m = CONSTANTS.m_nucleon
    if mode == "rotation":
        return csl.lam * (CONSTANTS.hbar / (m * csl.a ** 2)) ** 2 * f / 4.0
    return csl.lam * CONSTANTS.hbar ** 2 * f / (2.0 * m ** 2 * csl.a ** 2)


@_in_float_range("rms translation")
def csl_rms_translation(csl: CslParams, f: float, t: float) -> float:
    """rms distance along one axis from collapse noise alone, sqrt(q t^3 / 3);
    independent of the body's mass and density (geometry enters only
    through f)."""
    _nonnegative(t=t)
    _fraction(f=f)
    return math.sqrt(_collapse_noise(csl, f, "translation") * t ** 3 / 3.0)


@_in_float_range("rms rotation")
def csl_rms_rotation(csl: CslParams, f_rot: float, t: float) -> float:
    """rms rotation angle (rad) from collapse noise alone, sqrt(q t^3 / 3)."""
    _nonnegative(t=t, f_rot=f_rot)
    return math.sqrt(_collapse_noise(csl, f_rot, "rotation") * t ** 3 / 3.0)


@_in_float_range("rotation time")
def time_to_rotation(csl: CslParams, f_rot: float, target_angle: float) -> float:
    """Time for the collapse-driven rms rotation to reach a target angle,
    (3 target_angle^2 / q)^(1/3)."""
    _positive(f_rot=f_rot, target_angle=target_angle)
    return (3.0 * target_angle ** 2
            / _collapse_noise(csl, f_rot, "rotation")) ** (1.0 / 3.0)


# the Taylor coefficients (-1)^(n+1) (2^(n-1) - 2) / n! of B(x), n = 3..20
_B_SERIES = tuple((-1) ** (n + 1) * (2 ** (n - 1) - 2) / math.factorial(n)
                  for n in range(3, 21))


def _bracket_over_cube(x: float) -> float:
    """B(x) / x^3 for 0 <= x <= 0.5 by its Taylor series
    1/3 - x/4 + 7x^2/60 - x^3/24 + ..., summed exactly."""
    return math.fsum(c * x ** k for k, c in enumerate(_B_SERIES))


def _damped_rms(q: float, xi: float, inertia: float, t: float) -> float:
    """rms position at t from rest under white velocity noise of rate q and
    damping xi / inertia: the Ornstein-Uhlenbeck variance q tau^3 B(x), with
    tau = inertia / xi, x = t / tau and
    B(x) = x - (1 - e^-x) - (1 - e^-x)^2 / 2, as q t^3 B(x) / x^3 up to
    x = 0.5 (so xi = 0 gives q t^3 / 3)."""
    x = t * xi / inertia
    if x <= 0.5:
        return math.sqrt(q * t ** 3 * _bracket_over_cube(x))
    g = -math.expm1(-x)
    return math.sqrt(q * (inertia / xi) ** 3 * (x - g - 0.5 * g * g))


@_in_float_range("rms displacement")
def combined_rms(xi: float, body: Body, env: Environment,
                 csl: CslParams | None, f: float, t: float,
                 mode: str = "translation") -> float:
    """rms displacement (one axis) or rotation angle (about one axis) from
    rest with both thermal-gas and collapse noise, exact at every time.

    Both are white noise on the velocity, so their rates add in the damped
    (Ornstein-Uhlenbeck) variance q tau^3 B(t/tau), tau = I/xi and
    B(x) = x - (1 - e^-x) - (1 - e^-x)^2 / 2, with q = 2 kT xi / I^2 + c and
    c the collapse rate of _collapse_noise: in translation I = M and
    f in [0, 1]; in rotation I is the moment of inertia, f = f_rot >= 0 and
    xi the rotational drag (torque = -xi omega).
    Its limits: short-time (t << tau): sqrt((2 kT xi / I^2 + c) t^3 / 3);
    long-time (t >> tau): sqrt((2 kT / xi + tau^2 c) t).
    csl=None drops the collapse term (the lam -> 0 limit, the thermal walk
    alone); xi = 0 leaves the undamped collapse walk of csl_rms_translation
    or csl_rms_rotation.
    """
    _nonnegative(xi=xi, t=t)
    if mode not in ("translation", "rotation"):
        raise ValidationError(
            f"mode must be 'translation' or 'rotation', got {mode!r}")
    rotation = mode == "rotation"
    inertia = body.moment_of_inertia() if rotation else body.mass()
    q = 2.0 * env.kT * xi / inertia ** 2
    if csl is not None:
        if rotation:
            _nonnegative(f=f)
        else:
            _fraction(f=f)
        q += _collapse_noise(csl, f, mode)
    return _damped_rms(q, xi, inertia, t)


@_in_float_range("translation baseline")
def qm_baseline_translation(body: Body, t: float) -> float:
    """Drift of an initially localized, unobserved sphere in standard QM.

    The sphere is taken localized to about its diameter at t=0, giving a
    momentum scale hbar/(4R); the baseline displacement is hbar t / (4 R M).
    """
    if not isinstance(body, Sphere):
        raise ValidationError("the translation baseline is defined for a sphere")
    _nonnegative(t=t)
    return CONSTANTS.hbar * t / (body.mass() * 4.0 * body.radius)


@_in_float_range("rotation baseline")
def qm_baseline_rotation(body: Body, t: float) -> float:
    """Drift angle of an initially orientation-localized disc in standard QM.

    Localization to about pi/4 gives angular momentum 2 hbar / pi; with the
    thin-disc inertia the drift is 8 hbar t / (pi^2 D b L^4).
    """
    if not isinstance(body, Disc):
        raise ValidationError("the rotation baseline is defined for a disc")
    _nonnegative(t=t)
    return 8.0 * CONSTANTS.hbar * t / (
        math.pi ** 2 * body.density * body.thickness * body.radius ** 4)


def equilibrium_width(csl: CslParams, body: Body,
                      f: float | None = None) -> WavepacketEquilibrium:
    """Equilibrium packet width and relaxation time.

    s_inf^2 = (a/N) sqrt(hbar / (2 M lam f)); tau_s = N m s_inf^2 / hbar.
    For a sphere f defaults to the computed geometry factor; a disc needs a
    caller-supplied f in (0, 1].  Flags (warnings, not rejections): fewer
    than 3e7 nucleons, or s_inf not small against a, put the result outside
    the narrow-packet derivation's validity.
    """
    if f is None:
        if not isinstance(body, Sphere):
            raise ValidationError("supply f explicitly for non-spherical bodies")
        f = f_sphere(body.radius / csl.a).value
    _positive(f=f)
    _fraction(f=f)
    eq = WavepacketEquilibrium(**_equilibrium(csl, body, f))   # checked before warning
    N = body.nucleon_count()
    if N < 3.0e7:
        warnings.warn(
            f"N = {N:.3g} nucleons is below the ~3e7 needed for the "
            "narrow-packet equilibrium to be self-consistent",
            ValidityWarning, stacklevel=2)
    if eq.s_inf >= csl.a / 3.0:
        warnings.warn(
            f"s_inf = {eq.s_inf:.3g} cm is not small against "
            f"a = {csl.a:.3g} cm; equilibrium result outside its validity",
            ValidityWarning, stacklevel=2)
    return eq


@_in_float_range("equilibrium width")
def _equilibrium(csl: CslParams, body: Body, f: float) -> dict:
    M, N = body.mass(), body.nucleon_count()
    s_sq = (csl.a / N) * math.sqrt(CONSTANTS.hbar / (2.0 * M * csl.lam * f))
    return {"s_inf": math.sqrt(s_sq), "tau_s": M * s_sq / CONSTANTS.hbar}


@_in_float_range("rms position spread")
def equilibrium_series_rms(eq: WavepacketEquilibrium, t: float) -> float:
    """rms position spread after reaching packet equilibrium at t = 0:

    s_inf sqrt(1 + t/tau + t^2/(2 tau^2) + t^3/(12 tau^3)).  The cubic term
    carries the same coefficient as csl_rms_translation, which it must:
    s_inf^2 / (12 tau_s^3) = lam hbar^2 f / (6 m^2 a^2).
    """
    _nonnegative(t=t)
    x = t / eq.tau_s
    return eq.s_inf * math.sqrt(1.0 + x + x * x / 2.0 + x ** 3 / 12.0)


@_in_float_range("heating rate")
def energy_gain_rates(csl: CslParams, body: Body, f: float) -> dict:
    """Collapse heating rates in erg/s.

    total: 3 lam hbar^2 N^2 / (4 M a^2) over all internal + CM motion;
    cm_part: the same times f, the share that shows up as center-of-mass
    kinetic energy (all of it when the body is small against a).
    """
    _fraction(f=f)
    N, M = body.nucleon_count(), body.mass()
    total = 3.0 * csl.lam * CONSTANTS.hbar ** 2 * N ** 2 / (4.0 * M * csl.a ** 2)
    return {"total": total, "cm_part": total * f}


# ---------------------------------------------------------------------------
# reference tables

TABLE_RADII = (1.0e-6, 1.0e-5, 1.0e-4, 1.0e-2, 1.0)
TABLE_TIMES = (10.0, 1.0e3, 1.0e5)


def vacuum_diffusion_table() -> list[dict]:
    """Collapse-only rms displacement at the GRW point, TABLE_RADII x TABLE_TIMES."""
    csl = CslParams.grw()
    rows = []
    for R in TABLE_RADII:
        f = f_sphere(R / csl.a).value
        row = {"R_cm": R, "f": f}
        for t in TABLE_TIMES:
            row[f"dq_cm_t{t:g}"] = csl_rms_translation(csl, f, t)
        rows.append(row)
    return rows


def equilibrium_table() -> list[dict]:
    """Packet width and relaxation time at the GRW point, TABLE_RADII, density 1."""
    csl = CslParams.grw()
    rows = []
    for R in TABLE_RADII:
        body = Sphere(radius=R, density=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            eq = equilibrium_width(csl, body)
        rows.append({"R_cm": R, "s_inf_cm": eq.s_inf, "tau_s_s": eq.tau_s})
    return rows
