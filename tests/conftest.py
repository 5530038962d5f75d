"""Shared test helpers."""

from __future__ import annotations

import decimal
import math

import pytest


def spectral_integral(T, target="mirror-per-area", R=None, z_max=200.0):
    """Frequency integral of spectral_xi over z = h nu / kT in [0, z_max];
    past z = 200 less than 1e-12 of it is left."""
    from cslwalk import CONSTANTS, spectral_xi
    from cslwalk.quadrature import integrate_1d

    nu_max = z_max * CONSTANTS.k_boltzmann * T / (2.0 * math.pi * CONSTANTS.hbar)
    return integrate_1d(lambda nu: spectral_xi(nu, T, target, R), 0.0, nu_max)[0]


def planck_moment(n: int, z_max: float = 200.0) -> float:
    """int_0^z_max z^n e^z / (e^z - 1)^2 dz for n = 4 or 8: the spectral
    integral of a mirror or a unit sphere over its prefactor."""
    from cslwalk import CONSTANTS

    kT, c = CONSTANTS.k_boltzmann * 300.0, CONSTANTS.c
    sphere = (2 * math.pi) ** 4 * (8 * math.pi / 3) ** 2
    target, R, pref = (("mirror-per-area", None, 4 * math.pi) if n == 4 else
                       ("dielectric-sphere", 1.0, sphere))
    x = kT / (2.0 * math.pi * CONSTANTS.hbar * c)
    return spectral_integral(300.0, target, R, z_max) / (pref * kT / c * x ** (n - 1))


def damped_bracket(x) -> decimal.Decimal:
    """B(x) = x - 3/2 + 2 e^-x - e^-2x / 2 at 60 digits, the damped
    position variance from rest in units of q tau^3; the code sums the
    other form, x - (1 - e^-x) - (1 - e^-x)^2 / 2."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(x)
        return x - decimal.Decimal(1.5) + 2 * (-x).exp() - (-2 * x).exp() / 2


def damped_rms(kT, xi, inertia, t, csl_rate=0.0) -> float:
    """sqrt(q tau^3 B(t/tau)) at 60 digits, with the noise rate
    q = 2 kT xi / inertia^2 + csl_rate and tau = inertia / xi."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        kT, xi, inertia, t, csl_rate = map(decimal.Decimal,
                                           (kT, xi, inertia, t, csl_rate))
        tau = inertia / xi
        q = 2 * kT * xi / inertia ** 2 + csl_rate
        return float((q * tau ** 3 * damped_bracket(t / tau)).sqrt())


def round_1sf(x: float) -> float:
    """Round to one significant figure."""
    if x == 0:
        return 0.0
    e = math.floor(math.log10(abs(x)) + 1e-12)
    lead = round(abs(x) / 10.0 ** e)
    if lead == 10:
        lead, e = 1, e + 1
    return math.copysign(lead * 10.0 ** e, x)


def _grid_neighbors(q: float) -> tuple[float, float]:
    """Adjacent values on the 1-significant-figure grid around q."""
    e = math.floor(math.log10(abs(q)) + 1e-12)
    d = round(abs(q) / 10.0 ** e)
    lower = 9 * 10.0 ** (e - 1) if d == 1 else (d - 1) * 10.0 ** e
    upper = 1 * 10.0 ** (e + 1) if d == 9 else (d + 1) * 10.0 ** e
    return lower, upper


def matches_1sf(computed: float, quoted: float, allow_adjacent: bool = False) -> bool:
    """Does `computed` round to `quoted` on the 1-sig-fig grid?

    With allow_adjacent=True, landing on the grid point next to `quoted`
    also counts (quoted reference values carry at least half-a-unit
    rounding slop, and some are known to have been tabulated with slightly
    different conventions).
    """
    r = round_1sf(computed)
    if math.isclose(r, quoted, rel_tol=1e-9):
        return True
    if allow_adjacent:
        lo, hi = _grid_neighbors(quoted)
        return math.isclose(r, lo, rel_tol=1e-9) or math.isclose(r, hi, rel_tol=1e-9)
    return False


@pytest.fixture
def grw():
    from cslwalk import CslParams
    return CslParams.grw()
