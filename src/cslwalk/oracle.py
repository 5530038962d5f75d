"""Monte Carlo oracle for the geometric collapse factors.

Evaluates the defining double volume integrals directly by uniform pair
sampling, in units of the localization length a, sharing nothing with the
quadrature route in :mod:`cslwalk.factors` but the aspect ratios of
:class:`~cslwalk.factors.DiscAspect` — the two must agree within combined
errors, which is the central cross-check of the factor machinery.

Sampling is group-averaged antithetic: sphere and disc are unchanged by
y -> -y and by reflecting in-plane axis 1, so with y uniform in the body so
are -y, (y0, -y1, y2) and (-y0, y1, -y2).  Each drawn pair (x, y) gives one
sample, the mean of the pair integrand over those four images of y: four
uniform pairs from two sampled points, all four built from one set of
differences and products of the drawn pair (see ``_quartet_values``).
The quartet means are iid, so est_error is the standard error over them.
Quartets are drawn by :func:`cslwalk._blocks.run_blocks`; inside each block
they are drawn and reduced in sub-blocks of a constant 2^13 quartets, one
array per coordinate, so memory traffic stays in cache; disc points are
drawn by rejection from the square.  A result depends only on (seed,
n_samples, block_size) and not on the worker count.
"""

from __future__ import annotations

import math

import numpy as np

from ._blocks import run_blocks
from .core import Body, CslParams, Disc
from .errors import ValidationError, _count, _in_float_range
from .factors import DiscAspect, FactorResult

__all__ = ["f_mc_oracle", "f_mc_oracle_aspect"]

_MODES = ("translate", "translate-perp", "translate-edge", "rotate")


# Quartets drawn and reduced at a time inside a block: each array is 64 KiB,
# so a sub-block's temporaries stay in cache.  On a 2-vCPU Xeon VM, 2^11 and
# 2^15 quartets per sub-block both ran slower than 2^13.  A constant, so the
# random stream depends on nothing but (seed, n_samples, block_size).
_SUB_BLOCK = 2 ** 13


def _sample(geom: dict, rng, n: int):
    """Coordinates (x0, x1, x2) of n uniform points in the body.

    Axis order for the disc: thickness (symmetry axis), in-plane, in-plane
    (rotation axis).
    """
    if geom["shape"] == "sphere":
        x0, x1, x2 = rng.standard_normal((3, n))
        r = geom["R"] * np.cbrt(rng.random(n)) / np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
        return x0 * r, x1 * r, x2 * r
    # in-plane points by rejection from the square, which keeps pi/4 of the
    # draws and needs no sqrt, cos or sin
    u = v = np.empty(0)
    while u.size < n:
        m = n - u.size
        du, dv = 2.0 * rng.random((2, m + m // 3 + 16)) - 1.0
        inside = du * du + dv * dv < 1.0
        u, v = np.concatenate((u, du[inside])), np.concatenate((v, dv[inside]))
    b, L = geom["b"], geom["L"]
    return b * rng.random(n) - 0.5 * b, L * u[:n], L * v[:n]


def _quartet_values(geom: dict, mode: str, rng, m: int) -> np.ndarray:
    """m quartet means: each drawn (x, y) averaged over four images of y.

    The images y, -y, (y0, -y1, y2) and (-y0, y1, -y2) flip signs of y's
    coordinates only, so every image's differences and products are built
    from x_i - y_i, x_i + y_i and the products x_i y_j of the drawn pair by
    exact sign flips: in IEEE arithmetic x - (-y) == x + y and
    (-u) + (-v) == -(u + v).  The quartet means therefore have the bits of
    evaluating the pair integrand at each image separately.
    """
    x = _sample(geom, rng, m)
    y = _sample(geom, rng, m)
    # squared coordinate differences from y and from -y
    sq_m = [np.square(u - v) for u, v in zip(x, y)]
    sq_p = [np.square(u + v) for u, v in zip(x, y)]
    # ... from the images y, -y, (y0, -y1, y2) and (-y0, y1, -y2)
    images = (sq_m, sq_p, (sq_m[0], sq_p[1], sq_m[2]),
              (sq_p[0], sq_m[1], sq_p[2]))
    phis = [np.exp((s0 + s1 + s2) * -0.25) for s0, s1, s2 in images]
    if mode == "rotate":
        # components perpendicular to the rotation axis (axis index 2): at
        # image y', dot = x0 y0' + x1 y1' and cross = x0 y1' - x1 y0'
        (x0, x1, _), (y0, y1, _) = x, y
        a, b, c, e = x0 * y0, x1 * y1, x0 * y1, x1 * y0
        dot, diff = a + b, a - b
        cross_m, cross_p = np.square(c - e), np.square(c + e)
        terms = ((dot, cross_m), (-dot, cross_m),
                 (diff, cross_p), (-diff, cross_p))
        k = 2.0 * geom["m_over_i"] ** 2
        vals = [k * (d - c2 * 0.5) * phi for (d, c2), phi in zip(terms, phis)]
    else:
        axis = 1 if mode == "translate-edge" else 0
        vals = [phi * (1.0 - sq[axis] * 0.5) for sq, phi in zip(images, phis)]
    v0, v1, v2, v3 = vals
    return 0.25 * (v0 + v1 + v2 + v3)


def _run_oracle(geom: dict, mode: str, n_samples: int, seed: int,
                block_size: int, workers: int) -> FactorResult:
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    _count(5, n_samples=n_samples)
    _count(0, seed=seed)
    _count(1, block_size=block_size)

    @np.errstate(divide="raise", over="raise", invalid="raise")   # workers are threads
    def block_sums(rng, size):
        sums, sqs = [], []
        for start in range(0, size, _SUB_BLOCK):
            vals = _quartet_values(geom, mode, rng, min(_SUB_BLOCK, size - start))
            sums.append(vals.sum())
            sqs.append(vals @ vals)
        return math.fsum(sums), math.fsum(sqs)

    n = -(-n_samples // 4)          # whole quartets: n_samples pairs rounded up
    total, total_sq = run_blocks(n, -(-block_size // 4), seed, workers, block_sums)
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    return FactorResult(mean, "monte-carlo", est_error=math.sqrt(var / n))


@_in_float_range("Monte Carlo factor")
def f_mc_oracle(body: Body, csl: CslParams, mode: str,
                n_samples: int = 10_000_000, seed: int = 0,
                block_size: int = 1_000_000, workers: int = 1) -> FactorResult:
    """Monte Carlo estimate of a collapse geometry factor.

    mode: 'translate' (sphere, any axis), 'translate-perp' /
    'translate-edge' (disc, motion along / perpendicular to the symmetry
    axis), or 'rotate' (about an in-plane diameter for the disc; a sphere
    gives zero within noise).  The standard error of the mean is always
    reported in est_error.  Pairs come in quartets (four mirror images of
    one drawn pair), so n_samples is rounded up to a multiple of 4, and
    block_size likewise; n_samples must be at least 5, the fewest pairs
    that give two quartets and so a standard error.
    """
    if isinstance(body, Disc):
        return f_mc_oracle_aspect(DiscAspect.from_disc(body, csl), mode,
                                  n_samples, seed, block_size, workers)
    if mode.startswith("translate-"):
        raise ValidationError("sphere translation has no orientation; use 'translate'")
    # in units of a; M/I = 1 / ((2/5) R^2)
    R = body.radius / csl.a
    geom = {"shape": "sphere", "R": R, "m_over_i": 2.5 / R ** 2}
    return _run_oracle(geom, mode, n_samples, seed, block_size, workers)


@_in_float_range("Monte Carlo factor")
def f_mc_oracle_aspect(aspect: DiscAspect, mode: str,
                       n_samples: int = 10_000_000, seed: int = 0,
                       block_size: int = 1_000_000,
                       workers: int = 1) -> FactorResult:
    """Dimensionless disc oracle straight from the aspect ratios.

    The factors depend only on alpha and beta, so this samples a disc with
    a = 1, L = 2 alpha, b = 2 beta; unlike the Body API it accepts rod-like
    aspect ratios (b > 2L), which the factor integrals are defined for even
    though they are outside the physical disc regime.  As for
    :func:`f_mc_oracle`, pairs are rounded up to whole quartets and
    n_samples must be at least 5.
    """
    if mode == "translate":
        raise ValidationError("disc translation needs 'translate-perp' or 'translate-edge'")
    L, b = 2.0 * aspect.alpha, 2.0 * aspect.beta
    # I/M about the in-plane diameter axis: L^2/4 + b^2/12
    geom = {"shape": "disc", "L": L, "b": b,
            "m_over_i": 1.0 / (L ** 2 / 4.0 + b ** 2 / 12.0)}
    return _run_oracle(geom, mode, n_samples, seed, block_size, workers)
