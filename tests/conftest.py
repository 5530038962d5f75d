"""Shared test helpers."""

from __future__ import annotations

import decimal
import math

import numpy as np
import pytest

from cslwalk.core import CONSTANTS
from cslwalk.errors import ValidationError, _in_float_range, _positive

# The radiation drag's reference routes: the frequency integral of
# spectral_xi checks xi_radiation (sphere) and xi_mirror (mirror).

@_in_float_range("drag coefficient")
def xi_mirror(area: float, T: float) -> float:
    """Radiation drag on a perfect mirror of the given area.

    xi = (2 pi^2 / 15) hbar (kT / hbar c)^4 A.
    """
    _positive(area=area, T=T)
    hbar, c = CONSTANTS.hbar, CONSTANTS.c
    kT = CONSTANTS.k_boltzmann * T
    return (2.0 * math.pi ** 2 / 15.0) * hbar * (kT / (hbar * c)) ** 4 * area


@_in_float_range("spectral drag density")
def spectral_xi(nu, T: float, target: str = "mirror-per-area",
                R: float | None = None):
    """Spectral density d(xi)/d(nu) of the radiation drag.

    With z = h nu / kT and the Planck factor g(z) = z^2 e^z / (e^z - 1)^2
    (1 at z = 0, the classical equipartition limit):

    target 'mirror-per-area': per unit mirror area, 4 pi kT nu^2 g / c^4.
    target 'dielectric-sphere' (R required): the long-wavelength scattering
    cross-section (8 pi/3)(2 pi nu / c)^4 R^6 in the large-dielectric-constant
    limit gives (2 pi)^4 (8 pi/3)^2 kT R^6 nu^6 g / c^8.

    Over nu in (0, inf) these integrate to xi_mirror (per unit area) and
    xi_radiation through int z^n e^z / (e^z - 1)^2 dz = n! zeta(n), which
    is 4 pi^4 / 15 for n = 4 and (2 pi)^8 / 60 for n = 8.
    """
    _positive(T=T)
    nu = np.asarray(nu, dtype=float)
    if not np.all(np.isfinite(nu) & (nu >= 0)):
        raise ValidationError("nu must be finite and nonnegative")
    h = 2.0 * math.pi * CONSTANTS.hbar
    c = CONSTANTS.c
    kT = CONSTANTS.k_boltzmann * T
    # each density is the square of a product whose factors stay near its
    # square root, so no factor leaves the float range before the result does;
    # sqrt(g) = z e^{-z/2} / -expm1(-z) never overflows, and is 1 at z = 0
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        z = h * nu / kT
        d = -np.expm1(-z)
        amp = np.divide(z * np.exp(-0.5 * z), d, out=np.ones_like(z), where=d > 0)
        if target == "mirror-per-area":
            return (math.sqrt(4.0 * math.pi * kT) / c * amp * (nu / c)) ** 2
        if target == "dielectric-sphere":
            if R is None:
                raise ValidationError("dielectric-sphere target needs a radius R")
            _positive(R=R)
            pref = (2.0 * math.pi) ** 4 * (8.0 * math.pi / 3.0) ** 2
            return (math.sqrt(pref * kT) / c * amp * (nu * R / c) ** 3) ** 2
    raise ValidationError(f"unknown spectral target {target!r}")


def spectral_integral(T, target="mirror-per-area", R=None, z_max=200.0):
    """Frequency integral of spectral_xi over z = h nu / kT in [0, z_max];
    past z = 200 less than 1e-12 of it is left."""
    from cslwalk.quadrature import integrate_1d

    nu_max = z_max * CONSTANTS.k_boltzmann * T / (2.0 * math.pi * CONSTANTS.hbar)
    return integrate_1d(lambda nu: spectral_xi(nu, T, target, R), 0.0, nu_max)[0]


def planck_moment(n: int, z_max: float = 200.0) -> float:
    """int_0^z_max z^n e^z / (e^z - 1)^2 dz for n = 4 or 8: the spectral
    integral of a mirror or a unit sphere over its prefactor."""
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


# The disc translation factors' independent route: the sums over Poisson
# probabilities that their Bessel closed forms equal.

def poisson_window(x: float) -> tuple[int, np.ndarray]:
    """Poisson(x) probabilities p_k = e^{-x} x^k / k!, k = lo, lo + 1, ...

    Returns (lo, p) over at most 28 sqrt(x) + 81 terms around the mode
    m = floor(x); the Poisson mass outside them is below 1e-44.  The terms
    are built in log space by the ratio recurrence p_k / p_{k-1} = x / k
    outward from the mode and normalized by their sum.  The log ratios and
    their running sums are taken in numpy's long double (80 bits on x86-64):
    in float64 the rounding of each ratio and partial sum adds up over the
    window, and at x = 1e10 the edge sum ends 1.1e-14 off its 40-digit value.
    """
    m = math.floor(x)
    half = int(14.0 * math.sqrt(x)) + 40
    lo = max(0, m - half)
    log_ratio = np.log(x / np.arange(lo + 1, m + half + 1, dtype=np.longdouble))
    up = np.cumsum(log_ratio[m - lo:])
    down = -np.cumsum(log_ratio[:m - lo][::-1])[::-1]
    p = np.exp(np.concatenate([down, [0.0], up])).astype(float)
    return lo, p / p.sum()


def poisson_disc_radial(alpha: float) -> tuple[float, float]:
    """The radial parts of f_disc_perp and f_disc_edge as Poisson(alpha^2)
    sums, alpha^-4 sum_{k>=1} P(N >= k)^2 and alpha^-2 sum_k p_k p_{k+1},
    added pairwise by numpy's sum."""
    x = alpha * alpha
    lo, p = poisson_window(x)
    # P(N >= k) / x for k = lo + 1, ...; every P(N >= k) with k <= lo is 1
    tail = np.cumsum(p[::-1])[::-1][1:] / x
    return lo / x / x + float(np.sum(tail * tail)), float(np.sum(p[:-1] * p[1:])) / x


def disc_thickness(beta: float) -> tuple[float, float]:
    """The thickness parts of f_disc_perp and f_disc_edge,
    (1 - e^{-beta^2}) / beta^2 and
    [beta sqrt(pi) erf(beta) - 1 + e^{-beta^2}] / beta^2, the second by its
    series sum_n (-1)^n beta^2n / ((n+1)! (2n+1)) below beta = 0.1."""
    b2 = beta * beta
    if beta < 0.1:
        edge = math.fsum((-b2) ** n / (math.factorial(n + 1) * (2 * n + 1))
                         for n in range(12))
    else:
        edge = (beta * math.sqrt(math.pi) * math.erf(beta) - 1.0 + math.exp(-b2)) / b2
    return -math.expm1(-b2) / b2, edge


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
