"""Classical Brownian motion: Fokker-Planck moments, drag coefficients
in every realm (hydrodynamic, slip-corrected, free-molecular, thermal
radiation), and discrete-collision statistics.

Drag conventions: the damping force is -xi * v (translation, xi in g/s) or
the torque is -xi * omega (rotation, xi in g cm^2/s).  The moment solutions
use tau = M/xi (or I/xi) and beta = kT/xi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import CONSTANTS, Body, Disc, Environment, Sphere
from .errors import (ValidationError, ValidityWarning, _count, _in_float_range,
                     _nonnegative, _positive)

__all__ = [
    "DragCoefficient",
    "BrownianMoments",
    "CollisionStats",
    "fp_moments",
    "thermal_rms",
    "xi_stokes",
    "xi_slip_corrected",
    "SLIP_MEASURED",
    "SLIP_SPECULAR",
    "xi_molecular",
    "xi_viscous_disc",
    "xi_rotational",
    "xi_radiation",
    "xi_mirror",
    "spectral_xi",
    "integrate_spectral_xi",
    "planck_tail_integral",
    "collision_stats",
    "molecular_flux",
    "check_realm",
]


@dataclass(frozen=True)
class DragCoefficient:
    """A drag coefficient with provenance tags.

    xi is in g/s for translation and g cm^2/s for rotation.
    """

    xi: float
    realm: str          # viscous | slip-corrected | molecular | radiation
    mode: str           # translation | rotation
    orientation: str    # sphere | disc-perp | disc-edge | disc-rot

    def __post_init__(self):
        _nonnegative(xi=self.xi)

    def __float__(self):
        return self.xi


@dataclass(frozen=True)
class BrownianMoments:
    """Moment solution of the damped-diffusion Fokker-Planck equation."""

    t: float
    mean_v: float
    var_v: float
    var_x: float
    tau: float
    beta: float


@dataclass(frozen=True)
class CollisionStats:
    """Impact-realm statistics: mean time between individual gas-molecule
    strikes and the size of the per-collision kick."""

    tau_c: float
    delta_v: float | None = None       # speed kick for a sphere, cm/s
    omega_kick: float | None = None    # angular-velocity kick for a disc, rad/s


def _var_x_bracket(x: float) -> float:
    """x - (1 - e^-x) - (1 - e^-x)^2 / 2, stable for small x.

    Series: x^3/3 - x^4/4 + 7x^5/60 - x^6/24 + ...
    """
    if x < 1.0e-3:
        return x ** 3 / 3.0 - x ** 4 / 4.0 + 7.0 * x ** 5 / 60.0 - x ** 6 / 24.0
    g = -math.expm1(-x)
    return x - g - 0.5 * g * g


def fp_moments(tau: float, beta: float, v0: float, t: float) -> BrownianMoments:
    """Exact one-axis moments of damped Brownian motion started at x=0, v=v0.

    mean velocity decays as e^{-t/tau}; the velocity variance saturates at
    beta/tau (equipartition when beta = kT tau / M); the position variance
    grows as (2 beta / 3 tau^2) t^3 for t << tau and as 2 beta t for t >> tau.
    """
    _positive(tau=tau)
    _nonnegative(beta=beta, t=t, **{"|v0|": abs(v0)})
    x = t / tau
    mean_v = v0 * math.exp(-x)
    var_v = _in_float_range("velocity variance",
                            lambda: (beta / tau) * (-math.expm1(-2.0 * x)))
    var_x = _in_float_range("position variance",
                            lambda: 2.0 * beta * tau * _var_x_bracket(x))
    return BrownianMoments(t=t, mean_v=mean_v, var_v=var_v, var_x=var_x,
                           tau=tau, beta=beta)


def thermal_rms(xi: float, inertia: float, temperature: float, t: float,
                regime: str) -> float:
    """Asymptotic thermal rms diffusion (translation or rotation).

    `inertia` is the mass for translation or the moment of inertia for
    rotation.  regime 'long' gives sqrt(2 kT t / xi) and needs xi > 0;
    'short' gives sqrt(2 kT xi t^3 / (3 inertia^2)).
    """
    xi = float(xi)
    _nonnegative(xi=xi, t=t)
    _positive(temperature=temperature, inertia=inertia)
    kT = CONSTANTS.k_boltzmann * temperature
    if regime == "long":
        _positive(xi=xi)     # the long-time form divides by xi
        return _in_float_range("thermal rms", lambda: math.sqrt(2.0 * kT * t / xi))
    if regime == "short":
        return _in_float_range("thermal rms", lambda: math.sqrt(
            2.0 * kT * xi * t ** 3 / (3.0 * inertia ** 2)))
    raise ValidationError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# drag coefficients

SLIP_MEASURED = (1.0, 0.6, 1.0)    # aerosol-sphere fit coefficients
SLIP_SPECULAR = (1.5, 0.0, 1.0)    # specular-reflection theory


def xi_stokes(R: float, eta: float) -> DragCoefficient:
    """Hydrodynamic drag on a sphere, 6 pi eta R (valid for l_m << R)."""
    _positive(R=R, eta=eta)
    return DragCoefficient(6.0 * math.pi * eta * R, "viscous", "translation", "sphere")


def xi_slip_corrected(R: float, eta: float, l_m: float,
                      alpha: float = SLIP_MEASURED[0],
                      beta_c: float = SLIP_MEASURED[1],
                      gamma: float = SLIP_MEASURED[2]) -> DragCoefficient:
    """Stokes drag with the slip correction used between realms.

    xi = 6 pi eta R / (1 + (l_m/R)(alpha + beta_c exp(-gamma R / l_m))).
    Defaults are the measured coefficients (1, 0.6, 1); the specular-theory
    variant is SLIP_SPECULAR = (3/2, 0, 1).
    """
    _positive(R=R, eta=eta, l_m=l_m, alpha=alpha, gamma=gamma)
    _nonnegative(beta_c=beta_c)
    corr = 1.0 + (l_m / R) * (alpha + beta_c * math.exp(-gamma * R / l_m))
    return DragCoefficient(6.0 * math.pi * eta * R / corr,
                           "slip-corrected", "translation", "sphere")


def _sqrt_2pi_mkt(env: Environment) -> float:
    return math.sqrt(2.0 * math.pi * env.gas_molecular_mass * env.kT)


def xi_molecular(body: Body, env: Environment,
                 orientation: str | None = None) -> DragCoefficient:
    """Free-molecular drag (specular reflection), valid for l_m >> body size.

    Sphere: (8/3) n R^2 sqrt(2 pi m_g kT).  Disc moving perpendicular to its
    face: 4 n L^2 sqrt(...); along its edge: 2 n L b sqrt(...).  The validity
    condition is the caller's responsibility; see check_realm.
    """
    n = env.number_density()
    s = _sqrt_2pi_mkt(env)
    if isinstance(body, Sphere):
        if orientation not in (None, "sphere"):
            raise ValidationError(f"orientation {orientation!r} invalid for a sphere")
        return DragCoefficient((8.0 / 3.0) * n * body.radius ** 2 * s,
                               "molecular", "translation", "sphere")
    if orientation == "perp":
        return DragCoefficient(4.0 * n * body.radius ** 2 * s,
                               "molecular", "translation", "disc-perp")
    if orientation == "edge":
        return DragCoefficient(2.0 * n * body.radius * body.thickness * s,
                               "molecular", "translation", "disc-edge")
    raise ValidationError(
        f"disc orientation must be 'perp' or 'edge', got {orientation!r}")


def xi_viscous_disc(L: float, b: float, eta: float,
                    orientation: str) -> DragCoefficient:
    """Hydrodynamic drag on a thin disc (oblate-spheroid result, b << L).

    Perpendicular to the face: 16 eta L; along the edge: (32/3) eta L.
    """
    _positive(L=L, b=b, eta=eta)
    if b > 0.5 * L:
        warnings.warn("thin-disc drag used with b > L/2", ValidityWarning,
                      stacklevel=2)
    if orientation == "perp":
        return DragCoefficient(16.0 * eta * L, "viscous", "translation", "disc-perp")
    if orientation == "edge":
        return DragCoefficient((32.0 / 3.0) * eta * L, "viscous", "translation",
                               "disc-edge")
    raise ValidationError(f"orientation must be 'perp' or 'edge', got {orientation!r}")


def xi_rotational(body: Body, env: Environment, realm: str) -> DragCoefficient:
    """Rotational drag coefficient (torque = -xi * omega).

    Supported: sphere in the viscous realm (8 pi eta R^3) and a disc rotating
    about an in-plane diameter in the molecular realm,
    (4/pi) n L^4 sqrt(2 pi m_g kT).  A sphere in the molecular realm is
    rejected: specular collisions transfer no tangential momentum, so the
    torque vanishes.
    """
    if isinstance(body, Sphere):
        if realm != "viscous":
            raise ValidationError(
                "no rotational drag for a sphere outside the viscous realm "
                "(specular gas collisions exert no torque)")
        if env.gas_viscosity is None:
            raise ValidationError("viscous rotational drag needs gas_viscosity")
        return DragCoefficient(8.0 * math.pi * env.gas_viscosity * body.radius ** 3,
                               "viscous", "rotation", "sphere")
    if realm != "molecular":
        raise ValidationError("disc rotational drag is implemented in the "
                              "molecular realm only")
    n = env.number_density()
    return DragCoefficient((4.0 / math.pi) * n * body.radius ** 4 * _sqrt_2pi_mkt(env),
                           "molecular", "rotation", "disc-rot")


def xi_radiation(R: float, T: float) -> DragCoefficient:
    """Drag on a dielectric sphere from Doppler-asymmetric photon scattering.

    xi = [4 (2 pi)^7 / 135] hbar R^6 (kT / hbar c)^8.  Representative, up to
    an order-unity factor, of any compact shape of comparable volume.
    """
    _positive(R=R, T=T)
    hbar, c = CONSTANTS.hbar, CONSTANTS.c
    kT = CONSTANTS.k_boltzmann * T
    xi = (4.0 * (2.0 * math.pi) ** 7 / 135.0) * hbar * R ** 6 * (kT / (hbar * c)) ** 8
    return DragCoefficient(xi, "radiation", "translation", "sphere")


def xi_mirror(area: float, T: float) -> DragCoefficient:
    """Radiation drag on a perfect mirror of the given area.

    xi = (2 pi^2 / 15) hbar (kT / hbar c)^4 A.
    """
    _positive(area=area, T=T)
    hbar, c = CONSTANTS.hbar, CONSTANTS.c
    kT = CONSTANTS.k_boltzmann * T
    xi = (2.0 * math.pi ** 2 / 15.0) * hbar * (kT / (hbar * c)) ** 4 * area
    return DragCoefficient(xi, "radiation", "translation", "sphere")


def _planck_weight(z):
    """e^z / (e^z - 1)^2 without overflow; ~1/z^2 at small z, 0 at z = 0."""
    import numpy as np

    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    small = (z > 0) & (z < 1.0e-6)
    big = z >= 1.0e-6
    zb = z[big]
    out[big] = np.exp(-zb) / np.expm1(-zb) ** 2
    out[small] = 1.0 / z[small] ** 2     # relative error below z^2/12
    return out


def spectral_xi(nu, T: float, target: str = "mirror-per-area",
                R: float | None = None):
    """Spectral density d(xi)/d(nu) of the radiation drag.

    target 'mirror-per-area': per unit mirror area,
        4 pi (nu/c)^3 (h nu / kT) (h/c) e^z/(e^z-1)^2  with z = h nu / kT.
    target 'dielectric-sphere' (R required): uses the long-wavelength
    scattering cross-section (8 pi/3)(2 pi nu / c)^4 R^6 in the
    large-dielectric-constant limit,
        (2 pi)^4 (8 pi/3)^2 (nu/c)^7 (h nu / kT)(h/c) R^6 e^z/(e^z-1)^2.
    """
    import numpy as np

    _positive(T=T)
    nu = np.asarray(nu, dtype=float)
    if not np.all(np.isfinite(nu) & (nu >= 0)):
        raise ValidationError("nu must be finite and nonnegative")
    h = 2.0 * math.pi * CONSTANTS.hbar
    c = CONSTANTS.c
    kT = CONSTANTS.k_boltzmann * T
    z = h * nu / kT
    weight = _planck_weight(z)
    if target == "mirror-per-area":
        return 4.0 * math.pi * (nu / c) ** 3 * (h * nu / kT) * (h / c) * weight
    if target == "dielectric-sphere":
        if R is None:
            raise ValidationError("dielectric-sphere target needs a radius R")
        _positive(R=R)
        pref = (2.0 * math.pi) ** 4 * (8.0 * math.pi / 3.0) ** 2
        return pref * (nu / c) ** 7 * (h * nu / kT) * (h / c) * R ** 6 * weight
    raise ValidationError(f"unknown spectral target {target!r}")


# Upper end of the Planck integrals in z = h nu / kT; the integrands decay like
# z^power e^{-z}, so the tail dropped is below 1e-12 of the total for power <= 8.
_PLANCK_Z_MAX = 200.0


def integrate_spectral_xi(T: float, target: str = "mirror-per-area",
                          R: float | None = None) -> float:
    """Frequency integral of spectral_xi; equals the closed-form coefficients."""
    from .quadrature import integrate_1d

    _positive(T=T)
    h = 2.0 * math.pi * CONSTANTS.hbar
    nu_max = _PLANCK_Z_MAX * CONSTANTS.k_boltzmann * T / h
    value, _ = integrate_1d(lambda nu: spectral_xi(nu, T, target=target, R=R),
                            0.0, nu_max, rel_tol=1.0e-9)
    return value


def planck_tail_integral(power: int, *, z_max: float = _PLANCK_Z_MAX) -> float:
    """Integral of z^power e^z / (e^z - 1)^2 over (0, infinity).

    Evaluated on [0, z_max].  Closed form for cross-checks:
    power! * zeta(power).
    """
    from .quadrature import integrate_1d

    _count(2, power=power)   # non-integrable below 2
    _positive(z_max=z_max)
    value, _ = integrate_1d(lambda z: z ** power * _planck_weight(z),
                            0.0, z_max, rel_tol=1.0e-9)
    return value


def planck_integral_identities() -> dict:
    """The two closed-form Planck-tail integrals used by the radiation drags."""
    return {
        "z4": (planck_tail_integral(4), 4.0 * math.pi ** 4 / 15.0),
        "z8": (planck_tail_integral(8), (2.0 * math.pi) ** 8 / 60.0),
    }


# ---------------------------------------------------------------------------
# impact realm

def molecular_flux(env: Environment) -> float:
    """One-sided molecular flux J = n u_bar / 4 (per cm^2 per s)."""
    n, u = env.number_density(), env.mean_speed()
    return _in_float_range("molecular flux", lambda: n * u / 4.0)


def collision_stats(body: Body, env: Environment) -> CollisionStats:
    """Mean time between individual gas-body collisions and the kick size.

    Sphere: tau_c = 1 / [(n u/4)(4 pi R^2)], speed kick u m_g / M.
    Disc: collisions with the two faces only (edge neglected),
    tau_c = 1 / (2 J pi L^2); the worst-case angular kick from one molecule
    striking a face at the rim is m_g u L / I.
    """
    J = molecular_flux(env)
    u = env.mean_speed()
    if isinstance(body, Sphere):
        area = 4.0 * math.pi * body.radius ** 2
        tau_c = _in_float_range("collision time", lambda: 1.0 / (J * area))
        return CollisionStats(tau_c=tau_c,
                              delta_v=u * env.gas_molecular_mass / body.mass())
    face_area = math.pi * body.radius ** 2
    tau_c = _in_float_range("collision time", lambda: 1.0 / (2.0 * J * face_area))
    omega = env.gas_molecular_mass * u * body.radius / body.moment_of_inertia()
    return CollisionStats(tau_c=tau_c, omega_kick=omega)


def check_realm(body: Body, env: Environment, realm: str) -> float | None:
    """Report the mean free path and warn when the stated realm looks invalid.

    Realm boundaries are soft; this never rejects.  Returns l_m when it is
    computable (a gas viscosity is needed), else None.
    """
    try:
        l_m = env.mean_free_path()
    except ValidationError:
        return None
    size = body.radius
    if realm in ("viscous", "slip-corrected") and l_m > 0.25 * size:
        warnings.warn(
            f"viscous-realm drag requested but l_m = {l_m:.3g} cm is not "
            f"small against the body size {size:.3g} cm", ValidityWarning,
            stacklevel=2)
    if realm == "molecular" and l_m < 4.0 * size:
        warnings.warn(
            f"molecular-realm drag requested but l_m = {l_m:.3g} cm is not "
            f"large against the body size {size:.3g} cm", ValidityWarning,
            stacklevel=2)
    return l_m
