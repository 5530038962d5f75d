"""Monte Carlo oracle for the geometric collapse factors.

Evaluates the defining double volume integrals directly by uniform pair
sampling, in units of the localization length a, sharing nothing with the
quadrature route in :mod:`cslwalk.factors` but the aspect ratios of
:class:`~cslwalk.factors.DiscAspect` — the two must agree within combined
errors, which is the central cross-check of the factor machinery.  Pairs
are drawn by :func:`cslwalk._blocks.run_blocks`; inside each block they are
drawn and reduced in sub-blocks of a constant 2^13 pairs, one array per
coordinate, so memory traffic stays in cache; disc points are drawn by
rejection from the square.  A result depends only on (seed, n_samples,
block_size) and not on the worker count.
"""

from __future__ import annotations

import math

import numpy as np

from ._blocks import run_blocks
from .core import Body, CslParams, Disc
from .errors import ValidationError, _count
from .factors import DiscAspect, FactorResult

__all__ = ["f_mc_oracle", "f_mc_oracle_aspect"]

_MODES = ("translate", "translate-perp", "translate-edge", "rotate")


# Pairs drawn and reduced at a time inside a block: each array is 64 KiB, so a
# sub-block's temporaries stay in cache.  At 2^15 pairs two workers ran no
# faster than one (2-vCPU Xeon VM); at 2^13 they ran 1.7x faster.  A constant,
# so the random stream depends on nothing but (seed, n_samples, block_size).
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


def _pair_values(geom: dict, mode: str, rng, n: int) -> np.ndarray:
    x0, x1, x2 = _sample(geom, rng, n)
    y0, y1, y2 = _sample(geom, rng, n)
    d0, d1, d2 = x0 - y0, x1 - y1, x2 - y2
    phi = np.exp((d0 * d0 + d1 * d1 + d2 * d2) * -0.25)
    if mode == "rotate":
        # components perpendicular to the rotation axis (axis index 2)
        dot = x0 * y0 + x1 * y1
        cross = x0 * y1 - x1 * y0
        return 2.0 * geom["m_over_i"] ** 2 * (dot - cross * cross * 0.5) * phi
    d = d1 if mode == "translate-edge" else d0
    return phi * (1.0 - d * d * 0.5)


def _run_oracle(geom: dict, mode: str, n_samples: int, seed: int,
                block_size: int, workers: int) -> FactorResult:
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    _count(2, n_samples=n_samples)
    _count(0, seed=seed)

    def block_sums(rng, size):
        sums, sqs = [], []
        for start in range(0, size, _SUB_BLOCK):
            vals = _pair_values(geom, mode, rng, min(_SUB_BLOCK, size - start))
            sums.append(vals.sum())
            sqs.append(vals @ vals)
        return math.fsum(sums), math.fsum(sqs)

    n = n_samples
    total, total_sq = run_blocks(n, block_size, seed, workers, block_sums)
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    return FactorResult(mean, "monte-carlo", est_error=math.sqrt(var / n))


def f_mc_oracle(body: Body, csl: CslParams, mode: str,
                n_samples: int = 10_000_000, seed: int = 0,
                block_size: int = 1_000_000, workers: int = 1) -> FactorResult:
    """Monte Carlo estimate of a collapse geometry factor.

    mode: 'translate' (sphere, any axis), 'translate-perp' /
    'translate-edge' (disc, motion along / perpendicular to the symmetry
    axis), or 'rotate' (about an in-plane diameter for the disc; a sphere
    gives zero within noise).  The standard error of the mean is always
    reported in est_error.
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


def f_mc_oracle_aspect(aspect: DiscAspect, mode: str,
                       n_samples: int = 10_000_000, seed: int = 0,
                       block_size: int = 1_000_000,
                       workers: int = 1) -> FactorResult:
    """Dimensionless disc oracle straight from the aspect ratios.

    The factors depend only on alpha and beta, so this samples a disc with
    a = 1, L = 2 alpha, b = 2 beta; unlike the Body API it accepts rod-like
    aspect ratios (b > 2L), which the factor integrals are defined for even
    though they are outside the physical disc regime.
    """
    if mode == "translate":
        raise ValidationError("disc translation needs 'translate-perp' or 'translate-edge'")
    L, b = 2.0 * aspect.alpha, 2.0 * aspect.beta
    # I/M about the in-plane diameter axis: L^2/4 + b^2/12
    geom = {"shape": "disc", "L": L, "b": b,
            "m_over_i": 1.0 / (L ** 2 / 4.0 + b ** 2 / 12.0)}
    return _run_oracle(geom, mode, n_samples, seed, block_size, workers)
