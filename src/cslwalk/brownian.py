"""Classical Brownian motion: drag coefficients in every realm
(hydrodynamic, slip-corrected with the specular-reflection coefficient 3/2,
free-molecular, thermal radiation) and a dict of collision statistics.  The
damped walk these drags drive is cslwalk.diffusion.combined_rms.

Drag conventions: the damping force is -xi * v (translation, xi in g/s) or
the torque is -xi * omega (rotation, xi in g cm^2/s).
"""

from __future__ import annotations

import math
import warnings

from .core import CONSTANTS, Body, Environment, Sphere
from .errors import ValidationError, ValidityWarning, _in_float_range, _positive

__all__ = [
    "xi_stokes",
    "xi_slip_corrected",
    "xi_molecular",
    "xi_viscous_disc",
    "xi_rotational",
    "xi_radiation",
    "collision_stats",
    "molecular_flux",
    "check_realm",
]


# ---------------------------------------------------------------------------
# drag coefficients

@_in_float_range("drag coefficient")
def xi_stokes(R: float, eta: float) -> float:
    """Hydrodynamic drag on a sphere, 6 pi eta R (valid for l_m << R)."""
    _positive(R=R, eta=eta)
    return 6.0 * math.pi * eta * R


@_in_float_range("drag coefficient")
def xi_slip_corrected(R: float, eta: float, l_m: float) -> float:
    """Stokes drag with the specular-reflection slip correction used
    between realms, 6 pi eta R / (1 + (3/2) l_m / R)."""
    _positive(R=R, eta=eta, l_m=l_m)
    return 6.0 * math.pi * eta * R / (1.0 + (l_m / R) * 1.5)


def _sqrt_2pi_mkt(env: Environment) -> float:
    return math.sqrt(2.0 * math.pi * env.gas_molecular_mass * env.kT)


@_in_float_range("drag coefficient")
def xi_molecular(body: Body, env: Environment,
                 orientation: str | None = None) -> float:
    """Free-molecular drag (specular reflection), valid for l_m >> body size.

    Sphere: (8/3) n R^2 sqrt(2 pi m_g kT).  Disc moving perpendicular to its
    face: 4 n L^2 sqrt(...); along its edge: 2 n L b sqrt(...).  The validity
    condition is the caller's responsibility; see check_realm.
    """
    n = env.number_density()
    s = _sqrt_2pi_mkt(env)
    if isinstance(body, Sphere):
        if orientation is not None:
            raise ValidationError(f"orientation {orientation!r} invalid for a sphere")
        return (8.0 / 3.0) * n * body.radius ** 2 * s
    if orientation == "perp":
        return 4.0 * n * body.radius ** 2 * s
    if orientation == "edge":
        return 2.0 * n * body.radius * body.thickness * s
    raise ValidationError(
        f"disc orientation must be 'perp' or 'edge', got {orientation!r}")


@_in_float_range("drag coefficient")
def xi_viscous_disc(L: float, b: float, eta: float, orientation: str) -> float:
    """Hydrodynamic drag on a thin disc (oblate-spheroid result, b << L).

    Perpendicular to the face: 16 eta L; along the edge: (32/3) eta L.
    """
    _positive(L=L, b=b, eta=eta)
    if b > 0.5 * L:
        warnings.warn("thin-disc drag used with b > L/2", ValidityWarning,
                      stacklevel=3)    # past the float-range guard, to the caller
    if orientation == "perp":
        return 16.0 * eta * L
    if orientation == "edge":
        return (32.0 / 3.0) * eta * L
    raise ValidationError(f"orientation must be 'perp' or 'edge', got {orientation!r}")


@_in_float_range("drag coefficient")
def xi_rotational(body: Body, env: Environment, realm: str) -> float:
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
        return 8.0 * math.pi * env.gas_viscosity * body.radius ** 3
    if realm != "molecular":
        raise ValidationError("disc rotational drag is implemented in the "
                              "molecular realm only")
    n = env.number_density()
    return (4.0 / math.pi) * n * body.radius ** 4 * _sqrt_2pi_mkt(env)


@_in_float_range("drag coefficient")
def xi_radiation(R: float, T: float) -> float:
    """Drag on a dielectric sphere from Doppler-asymmetric photon scattering.

    xi = [4 (2 pi)^7 / 135] hbar R^6 (kT / hbar c)^8.  Representative, up to
    an order-unity factor, of any compact shape of comparable volume.
    """
    _positive(R=R, T=T)
    hbar, c = CONSTANTS.hbar, CONSTANTS.c
    kT = CONSTANTS.k_boltzmann * T
    return (4.0 * (2.0 * math.pi) ** 7 / 135.0) * hbar * R ** 6 * (kT / (hbar * c)) ** 8


# ---------------------------------------------------------------------------
# impact realm

@_in_float_range("molecular flux")
def molecular_flux(env: Environment) -> float:
    """One-sided molecular flux J = n u_bar / 4 (per cm^2 per s)."""
    return env.number_density() * env.mean_speed() / 4.0


@_in_float_range("collision time")
def collision_stats(body: Body, env: Environment) -> dict:
    """Mean time between individual gas-body collisions and the kick size.

    Sphere: {"tau_c": 1 / [(n u/4)(4 pi R^2)], "delta_v": u m_g / M}, the
    speed kick in cm/s.  Disc: collisions with the two faces only (edge
    neglected), {"tau_c": 1 / (2 J pi L^2), "omega_kick": m_g u L / I}, the
    worst-case angular kick in rad/s from one molecule striking a face at
    the rim.  tau_c is in s.
    """
    J = molecular_flux(env)
    u, m_g = env.mean_speed(), env.gas_molecular_mass
    if isinstance(body, Sphere):
        out = {"tau_c": 1.0 / (J * (4.0 * math.pi * body.radius ** 2)),
               "delta_v": u * m_g / body.mass()}
    else:
        out = {"tau_c": 1.0 / (2.0 * J * (math.pi * body.radius ** 2)),
               "omega_kick": m_g * u * body.radius / body.moment_of_inertia()}
    if out["tau_c"] == 0.0:     # only an overflowing J x area gives 0
        raise OverflowError
    return out


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
    if realm == "viscous" and l_m > 0.25 * size:
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
