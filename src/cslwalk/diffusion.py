"""Collapse-driven diffusion observables and their standard-QM baselines.

Everything here is a closed form in the constants and the collapse
parameters: undamped collapse noise gives rms displacement growing as
t^{3/2}; with gas damping the long- and short-time asymptotics pick up the
drag coefficient; the center-of-mass wavepacket has an equilibrium width
where collapse narrowing balances free spreading.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .brownian import DragCoefficient
from .core import CONSTANTS, Body, CslParams, Disc, Environment, Sphere, _csv
from .errors import (ValidationError, ValidityWarning, _fraction,
                     _in_float_range, _nonnegative, _positive)
from .factors import f_sphere

__all__ = [
    "DiffusionCurve",
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
    "diffusion_curve",
    "curve_to_csv",
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


@dataclass(frozen=True)
class DiffusionCurve:
    """Sampled rms-vs-time series with mechanism/mode tags.

    Every implemented mechanism has a monotone closed form, so rms must be
    nonnegative and nondecreasing along increasing time.
    """

    mechanism: str                 # csl | brownian | combined | qm-baseline
    mode: str                      # translation | rotation
    samples: tuple                 # ((t, rms), ...)
    params_used: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(math.isfinite(t) and math.isfinite(rms) for t, rms in self.samples):
            raise ValidationError("samples must be finite")
        if any(s[1] < 0 for s in self.samples):
            raise ValidationError("rms values must be nonnegative")
        ordered = sorted(self.samples)
        if any(b[1] < a[1] * (1.0 - 1e-12) for a, b in zip(ordered, ordered[1:])):
            raise ValidationError("rms must be nondecreasing in time")


def csl_rms_translation(csl: CslParams, f: float, t: float,
                        initial_term: float = 0.0) -> float:
    """rms distance along one axis from collapse noise alone.

    sqrt(initial_term + lam hbar^2 f t^3 / (6 m^2 a^2)); independent of the
    body's mass and density (geometry enters only through f).
    `initial_term` is the caller's <(Q + P t / M)^2>(0) contribution in cm^2.
    """
    _nonnegative(t=t, initial_term=initial_term)
    _fraction(f=f)
    m = CONSTANTS.m_nucleon
    return _in_float_range("rms translation", lambda: math.sqrt(
        initial_term
        + csl.lam * CONSTANTS.hbar ** 2 * f * t ** 3 / (6.0 * m ** 2 * csl.a ** 2)))


def csl_rms_rotation(csl: CslParams, f_rot: float, t: float,
                     initial_term: float = 0.0) -> float:
    """rms rotation angle from collapse noise alone (rad).

    sqrt(initial_term + lam (hbar / m a^2)^2 f_rot t^3 / 12).
    """
    _nonnegative(t=t, initial_term=initial_term, f_rot=f_rot)
    m = CONSTANTS.m_nucleon
    return _in_float_range("rms rotation", lambda: math.sqrt(
        initial_term
        + csl.lam * (CONSTANTS.hbar / (m * csl.a ** 2)) ** 2 * f_rot * t ** 3 / 12.0))


def time_to_rotation(csl: CslParams, f_rot: float, target_angle: float) -> float:
    """Time for the collapse-driven rms rotation to reach a target angle."""
    _positive(f_rot=f_rot, target_angle=target_angle)
    m = CONSTANTS.m_nucleon
    return _in_float_range("rotation time", lambda: (
        12.0 * target_angle ** 2
        / (csl.lam * (CONSTANTS.hbar / (m * csl.a ** 2)) ** 2 * f_rot)) ** (1.0 / 3.0))


def combined_rms(xi: float | DragCoefficient, body: Body, env: Environment,
                 csl: CslParams | None, f: float, t: float,
                 regime: str = "auto") -> float:
    """rms displacement with both thermal-gas and collapse noise (one axis).

    Long-time (t >> M/xi): sqrt([2kT/xi + (M/xi)^2 lam hbar^2 f/(2 m^2 a^2)] t).
    Short-time (t << M/xi): sqrt([2kT xi/(3M^2) + lam hbar^2 f/(6 m^2 a^2)] t^3).
    regime 'auto' picks a side and refuses the crossover decade
    [0.1 M/xi, 10 M/xi], where neither asymptote holds (the exact damped
    moments are available through fp_moments for that window).
    csl=None drops the collapse term entirely (the lam -> 0 limit).
    """
    xi = float(xi)
    _nonnegative(xi=xi, t=t)
    M = body.mass()
    kT = env.kT
    if csl is None:
        csl_vel_rate = 0.0
    else:
        _fraction(f=f)
        m = CONSTANTS.m_nucleon
        csl_vel_rate = _in_float_range("collapse velocity diffusion", lambda:
                                       csl.lam * CONSTANTS.hbar ** 2 * f
                                       / (2.0 * m ** 2 * csl.a ** 2))

    if regime == "auto":
        if xi == 0:
            regime = "short"
        else:
            tau = M / xi
            if 0.1 * tau <= t <= 10.0 * tau:
                long_val = math.sqrt((2.0 * kT / xi + (M / xi) ** 2 * csl_vel_rate) * t)
                short_val = math.sqrt((2.0 * kT * xi / (3.0 * M ** 2)
                                       + csl_vel_rate / 3.0) * t ** 3)
                raise ValidationError(
                    f"t = {t:.3g} s is inside the crossover decade around "
                    f"tau = {tau:.3g} s where neither asymptote applies "
                    f"(long-time form gives {long_val:.3g} cm, short-time "
                    f"form {short_val:.3g} cm; use fp_moments for the exact "
                    "damped solution)")
            regime = "long" if t > tau else "short"

    if regime == "long":
        _positive(xi=xi)     # the long-time form divides by xi
        return _in_float_range("rms displacement", lambda: math.sqrt(
            (2.0 * kT / xi + (M / xi) ** 2 * csl_vel_rate) * t))
    if regime == "short":
        return _in_float_range("rms displacement", lambda: math.sqrt(
            (2.0 * kT * xi / (3.0 * M ** 2) + csl_vel_rate / 3.0) * t ** 3))
    raise ValidationError(f"unknown regime {regime!r}")


def qm_baseline_translation(body: Body, t: float) -> float:
    """Drift of an initially localized, unobserved sphere in standard QM.

    The sphere is taken localized to about its diameter at t=0, giving a
    momentum scale hbar/(4R); the baseline displacement is hbar t / (4 R M).
    """
    if not isinstance(body, Sphere):
        raise ValidationError("the translation baseline is defined for a sphere")
    _nonnegative(t=t)
    return CONSTANTS.hbar * t / (body.mass() * 4.0 * body.radius)


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
    M = body.mass()
    N = body.nucleon_count()
    s_sq = (csl.a / N) * math.sqrt(CONSTANTS.hbar / (2.0 * M * csl.lam * f))
    tau_s = M * s_sq / CONSTANTS.hbar
    if N < 3.0e7:
        warnings.warn(
            f"N = {N:.3g} nucleons is below the ~3e7 needed for the "
            "narrow-packet equilibrium to be self-consistent",
            ValidityWarning, stacklevel=2)
    if math.sqrt(s_sq) >= csl.a / 3.0:
        warnings.warn(
            f"s_inf = {math.sqrt(s_sq):.3g} cm is not small against "
            f"a = {csl.a:.3g} cm; equilibrium result outside its validity",
            ValidityWarning, stacklevel=2)
    return WavepacketEquilibrium(s_inf=math.sqrt(s_sq), tau_s=tau_s)


def equilibrium_series_rms(eq: WavepacketEquilibrium, t: float) -> float:
    """rms position spread after reaching packet equilibrium at t = 0:

    s_inf sqrt(1 + t/tau + t^2/(2 tau^2) + t^3/(12 tau^3)).  The cubic term
    carries the same coefficient as csl_rms_translation, which it must:
    s_inf^2 / (12 tau_s^3) = lam hbar^2 f / (6 m^2 a^2).
    """
    _nonnegative(t=t)
    x = t / eq.tau_s
    return _in_float_range("rms position spread", lambda: eq.s_inf * math.sqrt(
        1.0 + x + x * x / 2.0 + x ** 3 / 12.0))


def energy_gain_rates(csl: CslParams, body: Body, f: float) -> dict:
    """Collapse heating rates in erg/s.

    total: 3 lam hbar^2 N^2 / (4 M a^2) over all internal + CM motion;
    cm_part: the same times f, the share that shows up as center-of-mass
    kinetic energy (all of it when the body is small against a).
    """
    _fraction(f=f)
    N = body.nucleon_count()
    M = body.mass()
    total = _in_float_range("heating rate", lambda: 3.0 * csl.lam
                            * CONSTANTS.hbar ** 2 * N ** 2 / (4.0 * M * csl.a ** 2))
    return {"total": total, "cm_part": total * f}


# ---------------------------------------------------------------------------
# curves and reference tables

def diffusion_curve(mechanism: str, mode: str, times, *, csl=None, f=None,
                    body=None, env=None, xi=None, regime="auto") -> DiffusionCurve:
    """Evaluate one rms-vs-time curve for the requested mechanism/mode."""
    times = [float(t) for t in times]
    for t in times:
        _nonnegative(times=t)
    samples = []
    for t in times:
        if mechanism == "csl" and mode == "translation":
            rms = csl_rms_translation(csl, f, t)
        elif mechanism == "csl" and mode == "rotation":
            rms = csl_rms_rotation(csl, f, t)
        elif mechanism == "qm-baseline" and mode == "translation":
            rms = qm_baseline_translation(body, t)
        elif mechanism == "qm-baseline" and mode == "rotation":
            rms = qm_baseline_rotation(body, t)
        elif mechanism in ("brownian", "combined") and mode == "translation":
            rms = combined_rms(xi, body, env, csl if mechanism == "combined" else None,
                               f if f is not None else 0.0, t, regime=regime)
        else:
            raise ValidationError(
                f"unsupported mechanism/mode pair {mechanism!r}/{mode!r}")
        samples.append((t, rms))
    params = {"mechanism": mechanism, "mode": mode}
    if csl is not None:
        params.update(lam=csl.lam, a=csl.a)
    if f is not None:
        params["f"] = f
    if body is not None:
        params["body"] = {
            "shape": "sphere" if isinstance(body, Sphere) else "disc",
            "radius_cm": body.radius, "density_g_cc": body.density,
            **({"thickness_cm": body.thickness} if isinstance(body, Disc) else {}),
        }
    if env is not None:
        params["environment"] = {"temperature_K": env.temperature,
                                 "pressure_dyn_cm2": env.pressure,
                                 "gas_mass_g": env.gas_molecular_mass}
    if xi is not None:
        params["xi_g_per_s"] = float(xi)
    return DiffusionCurve(mechanism=mechanism, mode=mode,
                          samples=tuple(samples), params_used=params)


def curve_to_csv(curve: DiffusionCurve) -> str:
    """The curve as CSV text (t_s,rms,mechanism,mode)."""
    return _csv(["t_s", "rms", "mechanism", "mode"],
                [[f"{t:.6g}", f"{rms:.6g}", curve.mechanism, curve.mode]
                 for t, rms in curve.samples])


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
