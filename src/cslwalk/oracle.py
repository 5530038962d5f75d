"""Monte Carlo oracle for the geometric collapse factors.

Evaluates the defining double volume integrals directly by uniform pair
sampling, with no shared code or algebra with the quadrature route in
:mod:`cslwalk.factors` — the two must agree within combined errors, which
is the central cross-check of the factor machinery.  Pairs are drawn by
:func:`cslwalk._blocks.run_blocks`, so a result depends only on (seed,
n_samples, block_size) and not on the worker count.
"""

from __future__ import annotations

import math

import numpy as np

from ._blocks import run_blocks
from .core import Body, CslParams, Disc, Sphere
from .errors import ValidationError
from .factors import DiscAspect, FactorResult

__all__ = ["f_mc_oracle", "f_mc_oracle_aspect"]

_MODES = ("translate", "translate-perp", "translate-edge", "rotate")


def _sample_sphere(rng, n: int, R: float) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    r = R * rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0)
    return v * r[:, None]


def _sample_disc(rng, n: int, L: float, b: float) -> np.ndarray:
    # axis order: [thickness (symmetry axis), in-plane, in-plane (rotation axis)]
    z0 = rng.uniform(-b / 2.0, b / 2.0, n)
    s = L * np.sqrt(rng.uniform(0.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack([z0, s * np.cos(phi), s * np.sin(phi)])


def _block_values(geom: dict, mode: str, rng, n: int) -> np.ndarray:
    a2 = geom["a"] ** 2
    if geom["shape"] == "sphere":
        z = _sample_sphere(rng, n, geom["R"])
        zp = _sample_sphere(rng, n, geom["R"])
    else:
        z = _sample_disc(rng, n, geom["L"], geom["b"])
        zp = _sample_disc(rng, n, geom["L"], geom["b"])
    d = z - zp
    phi = np.exp(-np.einsum("ij,ij->i", d, d) / (4.0 * a2))
    if mode == "rotate":
        # components perpendicular to the rotation axis (axis index 2)
        dot = z[:, 0] * zp[:, 0] + z[:, 1] * zp[:, 1]
        cross = z[:, 0] * zp[:, 1] - z[:, 1] * zp[:, 0]
        pref = 2.0 * (geom["a"] * geom["m_over_i"]) ** 2
        return pref * (dot - cross ** 2 / (2.0 * a2)) * phi
    axis = {"translate": 0, "translate-perp": 0, "translate-edge": 1}[mode]
    return phi * (1.0 - d[:, axis] ** 2 / (2.0 * a2))


def _run_oracle(geom: dict, mode: str, n_samples: int, seed: int,
                block_size: int, workers: int) -> FactorResult:
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    if n_samples < 2:
        raise ValidationError("need at least 2 sample pairs")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")

    def block_sums(rng, size):
        vals = _block_values(geom, mode, rng, size)
        return vals.sum(), np.dot(vals, vals)

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
    if isinstance(body, Sphere) and mode.startswith("translate-"):
        raise ValidationError("sphere translation has no orientation; use 'translate'")
    if isinstance(body, Disc) and mode == "translate":
        raise ValidationError("disc translation needs 'translate-perp' or 'translate-edge'")
    if isinstance(body, Sphere):
        geom = {"shape": "sphere", "R": body.radius, "a": csl.a,
                "m_over_i": body.mass() / body.moment_of_inertia()}
    else:
        geom = {"shape": "disc", "L": body.radius, "b": body.thickness,
                "a": csl.a,
                "m_over_i": body.mass() / body.moment_of_inertia()}
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
    geom = {"shape": "disc", "L": L, "b": b, "a": 1.0,
            "m_over_i": 1.0 / (L ** 2 / 4.0 + b ** 2 / 12.0)}
    return _run_oracle(geom, mode, n_samples, seed, block_size, workers)
