"""Dimensionless geometric collapse factors.

The collapse-induced momentum diffusion of an extended body is that of a
point nucleon times N^2 and a geometry factor between 0 and 1 (translation)
that measures how distinguishable a displaced copy of the body is on the
localization length a.  For rotation the analogous factor compares rotated
copies, normalized by (M a / I)^2.

Conventions: x = R/a for the sphere; for the disc alpha = L/(2a) and
beta = b/(2a).  The sphere and both disc translation factors are closed
forms (method "analytic", est_error 0); the disc rotation factor is a
quadrature that targets 1e-6 relative error and reports its achieved error
estimate, or, for a disc small against a, its small-body limit with a bound
on the next-order term.  Every factor here is cross-checkable against the
Monte Carlo oracle in :mod:`cslwalk.oracle`, which integrates the defining
volume integrals directly.

Importing this module loads neither numpy nor scipy, so the sphere factor
behind the reference tables runs on the standard library alone.  The disc
factors import numpy on their first call, and the rotation factor also
imports the quadrature rules and the Cephes port of i1e in
:mod:`cslwalk._cephes`; nothing here loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CslParams, Disc, _csv
from .errors import ValidationError, _in_float_range, _positive

__all__ = [
    "FactorResult",
    "DiscAspect",
    "f_sphere",
    "f_disc_perp",
    "f_disc_edge",
    "f_rot_disc",
    "small_body_rotation_limit",
    "fig1_dataset",
    "fig1_to_csv",
]


@dataclass(frozen=True)
class FactorResult:
    """A geometry factor with its evaluation method and error estimate."""

    value: float
    method: str          # analytic | quadrature | monte-carlo
    est_error: float = 0.0

    def __post_init__(self):
        if self.est_error < 0:
            raise ValidationError("est_error must be nonnegative")

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class DiscAspect:
    """Disc dimensions in collapse-length units: alpha = L/2a, beta = b/2a."""

    alpha: float
    beta: float

    def __post_init__(self):
        _positive(alpha=self.alpha, beta=self.beta)

    @classmethod
    def from_disc(cls, disc: Disc, csl: CslParams) -> "DiscAspect":
        return cls(alpha=disc.radius / (2.0 * csl.a),
                   beta=disc.thickness / (2.0 * csl.a))


def f_sphere(x: float) -> FactorResult:
    """Translation factor of a uniform sphere, argument x = R/a.

    Closed form 6 x^-4 [1 - 2 x^-2 + (1 + 2 x^-2) e^{-x^2}]; evaluated by
    its power series below x = 1/2 where the closed form cancels
    catastrophically.  f(0+) = 1, f(1) = 0.62, f -> 6 x^-4 for x >> 1,
    monotonically decreasing.
    """
    _positive(x=x)
    if x < 0.5:
        # 6 * sum_{m>=0} (-1)^m (m+1) x^{2m} / (m+3)!
        total = 0.0
        term_x = 1.0
        for m in range(0, 24):
            total += (-1) ** m * (m + 1) / math.factorial(m + 3) * term_x
            term_x *= x * x
        return FactorResult(6.0 * total, "analytic")
    ix2 = 1.0 / (x * x)
    bracket = 1.0 - 2.0 * ix2 + (1.0 + 2.0 * ix2) * math.exp(-x * x)
    return FactorResult(6.0 * ix2 * ix2 * bracket, "analytic")


# At the largest alpha the Poisson window below holds 2.8e5 terms; larger
# discs are rejected rather than left to allocate without bound.  Below the
# smallest, alpha^2 leaves the normal floating-point range.
_MIN_ALPHA, _MAX_ALPHA = 1.0e-150, 1.0e4


def _poisson_window(x: float) -> tuple[int, np.ndarray]:
    """Poisson(x) probabilities p_k = e^{-x} x^k / k!, k = lo, lo + 1, ...

    Returns (lo, p) over at most 28 sqrt(x) + 81 terms around the mode
    m = floor(x); the Poisson mass outside them is below 1e-44.  The terms
    are built in log space by the ratio recurrence p_k / p_{k-1} = x / k
    outward from the mode and normalized by their sum, which keeps each one
    accurate to a few ulps at any x (anchoring the mode with lgamma instead
    loses ~1e-9 relative at x = 1e6).
    """
    import numpy as np

    if not _MIN_ALPHA ** 2 <= x <= _MAX_ALPHA ** 2:
        raise ValidationError(
            f"alpha = L/2a must lie in [{_MIN_ALPHA:g}, {_MAX_ALPHA:g}], "
            f"got {math.sqrt(x):.6g}")
    m = math.floor(x)
    half = int(14.0 * math.sqrt(x)) + 40
    lo = max(0, m - half)
    log_ratio = np.log(x / np.arange(lo + 1, m + half + 1))
    up = np.cumsum(log_ratio[m - lo:])
    down = -np.cumsum(log_ratio[:m - lo][::-1])[::-1]
    p = np.exp(np.concatenate([down, [0.0], up]))
    return lo, p / p.sum()


def f_disc_perp(aspect: DiscAspect) -> FactorResult:
    """Translation factor of a disc moving perpendicular to its face.

    The defining integral 4 alpha^-4 (1 - e^{-beta^2}) / beta^2 times the
    double integral of x x' e^{-(x^2+x'^2)} I0(2 x x') over [0, alpha]^2
    sums, term by term in the series of I0, to the Poisson form

        f = alpha^-4 sum_{k>=0} P(N >= k+1)^2 (1 - e^{-beta^2}) / beta^2,

    N ~ Poisson(alpha^2).  The sum is E[min(N1, N2)] for two independent
    copies, which gives the Bessel form

        f = alpha^-2 [1 - e^{-2 alpha^2} (I0 + I1)(2 alpha^2)]
            (1 - e^{-beta^2}) / beta^2.

    The Poisson sum adds only positive terms, so unlike the Bessel form it
    does not cancel at small alpha.  Limits: -> 1 when both dimensions are
    small; -> (2a/L)^2 for a thin wide disc.
    """
    import numpy as np

    al, be = aspect.alpha, aspect.beta
    x = al * al
    lo, p = _poisson_window(x)
    # P(N >= k) / x for k = lo + 1, ...; every P(N >= k) with k <= lo is 1
    tail = np.cumsum(p[::-1])[::-1][1:] / x
    total = lo / x / x + float(tail @ tail)
    if be < 1.0e-8:      # (1 - e^{-beta^2}) / beta^2 rounds to 1
        return FactorResult(total, "analytic")
    return FactorResult(total * -math.expm1(-be * be) / (be * be), "analytic")


def f_disc_edge(aspect: DiscAspect) -> FactorResult:
    """Translation factor of a disc moving parallel to its face.

    (2a/L)^2 e^{-L^2/2a^2} I1(L^2/2a^2) (2a/b)^2
      [ (b/2a) int_{-beta}^{beta} e^{-x^2} dx - 1 + e^{-beta^2} ],
    fully closed form: the scaled Bessel I1 is the Poisson(alpha^2) sum
    e^{-2 alpha^2} I1(2 alpha^2) = sum_k p_k p_{k+1}, and the bracket is
    elementary (erf).  -> (4/sqrt(pi)) (a/L)^3 for a thin wide disc.
    """
    al, be = aspect.alpha, aspect.beta
    x = al * al
    _, p = _poisson_window(x)
    radial = float(p[:-1] @ p[1:]) / x
    if be < 0.1:
        # bracket / beta^2 = sum_n (-1)^n beta^2n / ((n+1)! (2n+1)); the
        # closed form cancels here (11% off at beta = 1e-8)
        thick, term = 0.0, 1.0
        for n in range(10):
            thick += term / (2 * n + 1)
            term *= -be * be / (n + 2)
        return FactorResult(radial * thick, "analytic")
    bracket = be * math.sqrt(math.pi) * math.erf(be) - 1.0 + math.exp(-be * be)
    return FactorResult(radial * bracket / (be * be), "analytic")


# beta below which the edge-band integral g takes its power series
_THIN_EDGE_BETA = 1.0e-3
# tolerance of the 1-D piece, the same as integrate_2d's fixed rule
_ROT_REL_TOL = 1.0e-6


def _rot_surface_pieces(aspect: DiscAspect):
    """The three surface contributions (faces, edge band, face-edge cross)
    and their quadrature error estimates, before the overall prefactor."""
    import numpy as np

    from ._cephes import i1e
    from .quadrature import integrate_1d, integrate_2d

    al, be = aspect.alpha, aspect.beta
    h = be / 2.0

    def edge_box_kernel(y, yp):
        return y * yp * np.exp(-((y - yp) ** 2))

    def face_kernel(r, rp):
        return r ** 2 * rp ** 2 * np.exp(-((r - rp) ** 2)) * i1e(2.0 * r * rp)

    f1, e1 = integrate_2d(face_kernel, 0.0, al, 0.0, al)
    f1 *= -math.expm1(-be * be)
    e1 *= -math.expm1(-be * be)

    if be < _THIN_EDGE_BETA:
        # g is O(h^6) but the quadrature's terms cancel to O(eps h^4), so it
        # cannot converge on thin discs; its even series, with the first
        # omitted term, (256/405) h^12, as the error
        h2 = h * h
        g = h2 ** 3 * (8.0 / 9.0 - h2 * (16.0 / 15.0 - h2 * 32.0 / 35.0))
        e2 = 256.0 / 405.0 * h2 ** 6
    else:
        g, e2 = integrate_2d(edge_box_kernel, -h, h, -h, h)
    band = 0.5 * al * al * i1e(2.0 * al * al)
    f2 = band * g
    e2 *= band

    rint, e3 = integrate_1d(
        lambda r: r ** 2 * np.exp(-((r - al) ** 2)) * i1e(2.0 * al * r),
        0.0, al, rel_tol=_ROT_REL_TOL, initial_panels=max(4, int(al) + 1))
    if be < 0.1:
        # the closed form below is O(h^4) from O(h^2) terms and cancels
        # (8e-10 off at beta = 1e-3); its series sum_{m>=1} (-1)^{m+1}
        # 2^{2m+1} m h^{2m+2} / (m! (2m+1)(m+1)) = (4/3) h^4 - (32/15) h^6 ...
        yint, term = 0.0, 8.0 * h ** 4
        for m in range(1, 11):
            yint += term * m / ((2 * m + 1) * (m + 1))
            term *= -4.0 * h * h / (m + 1)
    else:
        yint = (h * 0.5 * math.sqrt(math.pi) * math.erf(2.0 * h)
                - 0.5 * (-math.expm1(-4.0 * h * h)))
    f3 = -2.0 * al * rint * yint
    e3 *= 2.0 * al * abs(yint)
    return (f1, f2, f3), (e1, e2, e3)


# alpha^2 + beta^2 at or below which f_rot_disc is the small-body limit
_SMALL_BODY_SIZE = 1.0e-8
# Largest alpha and beta whose kernels the fixed 2-D rule resolves within its
# cap of 256 panels (a 300-MB grid); past it they need 512 (1.2 GB) or more.
_MAX_ROT_SIZE = 128.0


def f_rot_disc(aspect: DiscAspect) -> FactorResult:
    """Rotation factor of a disc spinning about an in-plane diameter.

    Surface decomposition with three pieces: the two faces (f1 >= 0), the
    edge band (f2 >= 0), and the face-edge cross term (f3 <= 0), scaled by
    [4 / ((1 + beta^2/3alpha^2) beta alpha^4)]^2.  This normalization is
    pinned against the Monte Carlo oracle of the defining volume integral;
    in the small-body limit it reduces exactly to
    small_body_rotation_limit, which is returned (method "analytic",
    est_error (4/3)(alpha^2 + beta^2)) when alpha^2 + beta^2 <= 1e-8.
    alpha or beta above 128 is rejected: the fixed quadrature rule does not
    resolve the kernels there within its panel budget.
    """
    al, be = aspect.alpha, aspect.beta
    pref = _in_float_range("rotation prefactor", lambda: (
        4.0 / ((1.0 + be * be / (3.0 * al * al)) * be * al ** 4)) ** 2)
    if max(al, be) > _MAX_ROT_SIZE:
        raise ValidationError(f"alpha = {al:.6g}, beta = {be:.6g}: the rotation "
                              f"factor needs both at most {_MAX_ROT_SIZE:g}")
    size = al * al + be * be
    if size <= _SMALL_BODY_SIZE:
        # The quadrature cancels here; at alpha = beta = 1e-6 it does not converge.
        # f = limit + c(beta/alpha) (alpha^2 + beta^2) + O((alpha^2 + beta^2)^2)
        # with c(r) = -(r^2 - 3)(3r^4 + 5r^2 - 40) / (10 (r^2 + 1)(r^2 + 3)^2)
        # from the next order of the Gaussian in the defining integral, and
        # |c| <= 4/3 (its r -> 0 value).
        return FactorResult(small_body_rotation_limit(aspect), "analytic",
                            est_error=4.0 / 3.0 * size)
    (f1, f2, f3), (e1, e2, e3) = _rot_surface_pieces(aspect)
    value = pref * (f1 + f2 + f3)
    err = pref * (e1 + e2 + e3)
    if value < 0:
        # tiny negative from quadrature noise near the symmetric point only
        value = max(value, 0.0)
    return FactorResult(float(value), "quadrature", est_error=float(err))


def small_body_rotation_limit(aspect: DiscAspect) -> float:
    """Rotation factor when every dimension is small against a:

    [(<z2^2> - <z1^2>) / (<z2^2> + <z1^2>)]^2 with the in-plane second
    moment L^2/4 and the thickness second moment b^2/12; zero exactly when
    the two moments coincide (rotationally indistinguishable body).
    """
    plane = aspect.alpha ** 2            # (L/2a)^2 ~ L^2/4 in a^2 units
    thick = aspect.beta ** 2 / 3.0       # b^2/12 in a^2 units
    return ((plane - thick) / (plane + thick)) ** 2


def fig1_dataset(alphas, betas) -> dict:
    """Rotation factor on a (alpha, beta) grid, with monotonicity diagnostics.

    Returns {"rows": [(alpha, beta, f_rot, est_error), ...],
             "monotonic_in_alpha": {beta: bool}} where the diagnostic marks
    whether f_rot decreases monotonically along alpha for that beta.
    """
    alphas = [float(a) for a in alphas]
    betas = [float(b) for b in betas]
    if not alphas or not betas:
        raise ValidationError("alpha and beta grids must be nonempty")
    rows = []
    mono = {}
    for be in betas:
        vals = []
        for al in alphas:
            res = f_rot_disc(DiscAspect(al, be))
            rows.append((al, be, res.value, res.est_error))
            vals.append(res.value)
        mono[be] = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    return {"rows": rows, "monotonic_in_alpha": mono}


def fig1_to_csv(dataset: dict) -> str:
    """The rotation-factor grid as CSV text (alpha,beta,f_rot,est_error)."""
    return _csv(["alpha", "beta", "f_rot", "est_error"],
                [[f"{al:.6g}", f"{be:.6g}", f"{val:.6g}", f"{err:.3g}"]
                 for al, be, val, err in dataset["rows"]])
