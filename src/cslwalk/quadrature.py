"""Adaptive Gauss-Legendre quadrature (1-D, and 2-D on a square).

One refinement loop serves both rules: panels are refined uniformly
(doubling per pass) until two successive estimates agree to a relative
tolerance (the caller's in 1-D, a fixed 1e-6 in 2-D), and the last
difference is reported as the error estimate.  The integrands used in this
package are smooth Gaussian-type kernels, so convergence is fast;
non-convergence at the panel cap is reported with the achieved error
rather than silently accepted.  numpy's float errors raise inside the loop.

The 2-D rule serves the rotation factor's kernels, which are symmetric in
their two arguments over a square and carry a factor e^{-(x-y)^2}: it
takes the square as one interval [a, b], starts at panels at most 4 wide
(a 24-point panel that wide already integrates the unit-width ridge to
rounding), and evaluates the upper half of the node grid within a band of
the diagonal and mirrors it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

__all__ = ["integrate_1d", "integrate_2d"]

_ORDER_1D = 32         # Gauss-Legendre points per panel
_ORDER_2D = 24         # points per panel along each axis
_MAX_PANELS_1D = 4096
_MAX_PANELS_2D = 256   # a 6144^2 node matrix, ~300 MB
_START_WIDTH_2D = 4.0  # widest starting 2-D panel
_REL_TOL_2D = 1.0e-6
_BAND = 8.0            # 2-D node pairs farther apart than this are not evaluated


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _composite_nodes(a: float, b: float, panels: int, order: int):
    """Nodes/weights of `panels` equal panels of `order`-point Gauss-Legendre."""
    x, w = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])           # (panels,)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _start_panels_2d(a: float, b: float) -> int:
    """integrate_2d's first panel count: panels at most 4 wide, 2 to 128."""
    return max(2, min(_MAX_PANELS_2D // 2, math.ceil((b - a) / _START_WIDTH_2D)))


@np.errstate(divide="raise", over="raise", invalid="raise")
def _refine(estimate, panels: int, max_panels: int, rel_tol: float,
            what: str) -> tuple[float, float]:
    """Double `panels` until estimate(panels) agrees with the previous
    estimate to rel_tol; (value, |last difference|), or ConvergenceError
    when the next doubling would pass max_panels."""
    prev = estimate(panels)
    achieved = None
    while panels < max_panels:
        panels *= 2
        cur = estimate(panels)
        err = abs(cur - prev)
        scale = max(abs(cur), 1e-300)
        if err <= rel_tol * scale:
            return cur, err
        prev, achieved = cur, err / scale
    raise ConvergenceError(f"{what} did not reach rel_tol={rel_tol}",
                           achieved=achieved)


def integrate_1d(f, a: float, b: float, *, rel_tol: float = 1.0e-9,
                 initial_panels: int = 4) -> tuple[float, float]:
    """Integrate a vectorized scalar function on [a, b], a < b.

    Returns (value, error_estimate).  Raises ConvergenceError if doubling
    panels of 32-point Gauss-Legendre up to 4096 never brings successive
    estimates within rel_tol of each other.
    """

    def estimate(panels):
        nodes, weights = _composite_nodes(a, b, panels, _ORDER_1D)
        return float(np.dot(weights, f(nodes)))

    return _refine(estimate, initial_panels, _MAX_PANELS_1D, rel_tol,
                   f"1-D quadrature on [{a}, {b}]")


def integrate_2d(f, a: float, b: float) -> tuple[float, float]:
    """Tensor-product Gauss-Legendre integral of f(x, y) on [a, b]^2, a < b.

    The rule is fixed: 24-point panels along each axis, starting at one
    panel per 4 units of width (at least 2, at most 128) and doubling
    until two successive estimates agree to 1e-6 relative.  Returns
    (value, error_estimate); raises ConvergenceError when they still
    disagree at 256 panels.

    Premise of the start: the rotation kernels vary on the unit scale of
    their ridge e^{-(x-y)^2} across the diagonal, and Gauss-Legendre
    converges geometrically on such analytic kernels, so a 24-point panel
    at most 4 wide (_START_WIDTH_2D) already integrates the ridge to
    rounding; tests/test_quadrature.py checks the ridge's exact integral
    at widths 0.5-128 to 5e-14.

    Precondition: f is symmetric to the last bit, f(x, y) == f(y, x) as
    floats for every node pair.  Only the node rows of the upper triangle
    are evaluated, one strip of 24 rows (one panel) at a time on broadcast
    node vectors, and each strip is mirrored into the lower triangle.  The
    weighted sum then runs over the full node matrix, so the result does
    not depend on the halving.

    Premise of the band: f(x, y) = g(x, y) e^{-(x-y)^2} with |g| <= G on the
    square of width W.  A strip evaluates only the columns within 8 (_BAND)
    of its last row's node; the node pairs past that are left at zero.
    Each such pair is more than 8 apart, so f there is below G e^{-64}, and
    as the weights sum to W the dropped mass is below W^2 G e^{-64}.  On
    squares up to 8 wide no pair is dropped.  For f_rot_disc's kernels past
    that, up to the alpha and beta of 128 it accepts (h = beta/2 <= 64):
    - faces, r^2 r'^2 e^{-(r-r')^2} i1e(2 r r') on [0, alpha]^2: W = alpha,
      G = 0.22 alpha^4 (i1e <= 0.219) and an estimate above 0.1 alpha^4
      once alpha >= 8, so the dropped share is below 2.2 alpha^2 e^{-64}
      < 2^-77;
    - edge box, y y' e^{-(y-y')^2} on [-h, h]^2: W = 2h, G = h^2 and an
      estimate above 0.9 h^3 once h >= 4, so the share is below
      4.5 h e^{-64} < 2^-84.
    Both are far below 2^-60 of the estimate, and below the 2^-53 of one
    rounding, so the value and error keep their bits unless a sum lands
    within that share of a rounding boundary.
    """

    def estimate(panels):
        xn, xw = _composite_nodes(a, b, panels, _ORDER_2D)
        n = xn.size
        vals = np.zeros((n, n))
        for s in range(0, n, _ORDER_2D):
            e = s + _ORDER_2D
            end = np.searchsorted(xn, xn[e - 1] + _BAND, side="right")
            strip = f(xn[s:e, None], xn[None, s:end])
            vals[s:e, s:end] = strip
            vals[e:end, s:e] = strip[:, _ORDER_2D:].T
        return float(np.einsum("i,j,ij->", xw, xw, vals))

    return _refine(estimate, _start_panels_2d(a, b), _MAX_PANELS_2D,
                   _REL_TOL_2D, f"2-D quadrature on [{a}, {b}]^2")
