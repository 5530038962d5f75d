"""Center-of-mass wavepacket dynamics under collapse plus free evolution.

The packet stays Gaussian with a complex width parameter sigma^2 obeying a
Riccati equation with no stochastic part,

    d(sigma^2)/dt = i hbar / (2 M) - (2 lam_eff / a^2) sigma^4,

whose attracting fixed point is s_inf^2 (1 + i)/2.  The packet center
drifts under a complex linear SDE driven by one real Brownian motion; once
the width has equilibrated the ensemble mean square of the center grows as
s_inf^2 [t/tau + t^2/(2 tau^2) + t^3/(12 tau^3)].
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import CONSTANTS
from .diffusion import WavepacketEquilibrium
from .errors import ConvergenceError, ValidationError

__all__ = [
    "ComplexVariance",
    "TrajectoryState",
    "EnsembleStats",
    "equilibrium_variance",
    "packet_width_sq",
    "sigma_closed_form",
    "sigma_ode_integrate",
    "single_trajectory",
    "simulate_ensemble",
    "growth_coefficients",
    "stats_to_csv",
]

_TRAJ_BLOCK = 4096   # fixed block size keeps results worker-count independent


@dataclass(frozen=True)
class ComplexVariance:
    """Complex squared width sigma^2 = sigma_R^2 + i sigma_I^2 (cm^2).

    The real part must stay positive for a normalizable packet.
    """

    sigma_sq: complex

    def __post_init__(self):
        if not self.sigma_sq.real > 0:
            raise ValidationError("Re(sigma^2) must be positive")

    def __complex__(self):
        return self.sigma_sq


def _as_complex(sigma) -> complex:
    return complex(sigma.sigma_sq) if isinstance(sigma, ComplexVariance) else complex(sigma)


def equilibrium_variance(s_inf: float) -> ComplexVariance:
    """The stationary width parameter, s_inf^2 (1 + i) / 2."""
    return ComplexVariance(s_inf ** 2 * (1.0 + 1.0j) / 2.0)


def packet_width_sq(sigma) -> float:
    """Physical squared packet width sigma_R^2 + sigma_I^4 / sigma_R^2."""
    s = _as_complex(sigma)
    return s.real + s.imag ** 2 / s.real


def sigma_closed_form(sigma0, s_inf: float, tau_s: float, t) -> ComplexVariance | list:
    """Exact relaxation of the width parameter toward equilibrium.

    With u = sigma^2 / s_inf^2 and u* = (1+i)/2, the Riccati solution is
    u(t) = u* [u0 (1 + e^-w) + u* (1 - e^-w)] / [u0 (1 - e^-w) + u* (1 + e^-w)]
    with w = (1+i) t / tau_s (written with decaying exponentials so large t
    is exact: u -> u*).
    """
    u0 = _as_complex(sigma0) / s_inf ** 2
    ustar = (1.0 + 1.0j) / 2.0
    scalar = np.isscalar(t)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(tt < 0):
        raise ValidationError("t must be nonnegative")
    em = np.exp(-(1.0 + 1.0j) * tt / tau_s)
    u = ustar * (u0 * (1.0 + em) + ustar * (1.0 - em)) / (
        u0 * (1.0 - em) + ustar * (1.0 + em))
    out = [ComplexVariance(s_inf ** 2 * complex(v)) for v in u]
    return out[0] if scalar else out


def sigma_ode_integrate(sigma0, M: float, lam_eff: float, a: float,
                        t_grid, constants=CONSTANTS) -> list[ComplexVariance]:
    """Numerically integrate the width equation on a monotone time grid.

    lam_eff is the body's collapse rate lam N^2 f.  lam_eff = 0 gives free
    spreading sigma^2(t) = sigma^2(0) + i hbar t / (2M) exactly.
    """
    from scipy.integrate import solve_ivp   # a cross-check: kept off the import path

    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValidationError("t_grid must be strictly increasing")
    if t_grid[0] < 0:
        raise ValidationError("t_grid must be nonnegative")
    s0 = _as_complex(sigma0)
    drift = 0.5 * constants.hbar / M
    rate = 2.0 * lam_eff / a ** 2

    def rhs(_t, y):
        s = y[0] + 1j * y[1]
        ds = 1j * drift - rate * s * s
        return [ds.real, ds.imag]

    scale = max(abs(s0), math.sqrt(drift / rate) if rate > 0 else abs(s0))
    sol = solve_ivp(rhs, (0.0, float(t_grid[-1])), [s0.real, s0.imag],
                    t_eval=t_grid, method="DOP853",
                    rtol=1.0e-10, atol=1.0e-13 * scale, first_step=None)
    if not sol.success:
        raise ConvergenceError(f"width ODE integration failed: {sol.message}")
    out = []
    for re, im in zip(sol.y[0], sol.y[1]):
        if re <= 0:
            raise ConvergenceError("integrated width lost positivity")
        out.append(ComplexVariance(complex(re, im)))
    return out


# ---------------------------------------------------------------------------
# drift SDE ensemble

@dataclass(frozen=True)
class TrajectoryState:
    """One packet-center state along a single sample path.

    b_real and b_imag are the components of the complex center parameter
    for one axis (the axes decouple, so one scalar SDE per axis suffices);
    <Q> = b_real + b_imag at equilibrium width.
    """

    b_real: float
    b_imag: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.b_real) and math.isfinite(self.b_imag)
                and math.isfinite(self.t)):
            raise ValidationError("trajectory state must be finite")


def single_trajectory(eq: WavepacketEquilibrium, dt: float, t_end: float,
                      seed: int = 0,
                      method: str = "euler-maruyama") -> list[TrajectoryState]:
    """Sample one packet-center path on the grid, for inspection/plotting.

    Shares the integrators (and their preconditions) with simulate_ensemble
    but records the full path of a single trajectory.
    """
    if not dt > 0 or not t_end >= dt:
        raise ValidationError("need dt > 0 and t_end >= dt")
    if method not in ("euler-maruyama", "exact-b15"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "euler-maruyama" and dt > eq.tau_s / 50.0:
        raise ValidationError("dt too large for euler-maruyama; need "
                              "dt <= tau_s/50 (or use method='exact-b15')")
    steps = int(round(t_end / dt))
    s, tau = eq.s_inf, eq.tau_s
    rng = np.random.default_rng([seed, 0])
    out = [TrajectoryState(0.0, 0.0, 0.0)]
    if method == "euler-maruyama":
        bR = bI = 0.0
        noise = 0.5 * s / math.sqrt(tau)
        for k in range(1, steps + 1):
            dB = math.sqrt(dt) * float(rng.standard_normal())
            bR += bI * (dt / tau) + noise * dB
            bI += noise * dB
            out.append(TrajectoryState(bR, bI, k * dt))
    else:
        B = IB = 0.0
        for k in range(1, steps + 1):
            z1 = float(rng.standard_normal())
            z2 = float(rng.standard_normal())
            IB += B * dt + 0.5 * dt ** 1.5 * z1 + dt ** 1.5 / (2 * math.sqrt(3)) * z2
            B += math.sqrt(dt) * z1
            bI = (s / (2.0 * math.sqrt(tau))) * B
            bR = (s / (2.0 * tau ** 1.5)) * IB + (s / (2.0 * math.sqrt(tau))) * B
            out.append(TrajectoryState(bR, bI, k * dt))
    return out


@dataclass(frozen=True)
class EnsembleStats:
    """Ensemble moments of the packet-center observables on a time grid.

    mean_sq_Q is the ensemble mean of <Q>^2 (cm^2), mean_sq_P of <P>^2
    ((g cm/s)^2); cov_mean_sq_Q is the covariance matrix of the mean_sq_Q
    vector (needed to propagate errors through growth-law fits).
    """

    n_traj: int
    times: tuple
    mean_Q: tuple
    se_mean_Q: tuple
    mean_sq_Q: tuple
    se_mean_sq_Q: tuple
    mean_sq_P: tuple
    se_mean_sq_P: tuple
    cov_mean_sq_Q: tuple

    def __post_init__(self):
        if self.n_traj < 2:
            raise ValidationError("need at least 2 trajectories for errors")


def _block_paths(rng, nb: int, steps: int, dt: float,
                 eq: WavepacketEquilibrium, method: str, sample_steps,
                 hbar: float):
    """Simulate one block of trajectories; return snapshots of (Q, P)."""
    s, tau = eq.s_inf, eq.tau_s
    noise = 0.5 * s / math.sqrt(tau)
    sq_dt = math.sqrt(dt)
    snaps_Q = {}
    snaps_P = {}
    if method == "euler-maruyama":
        bR = np.zeros(nb)
        bI = np.zeros(nb)
        for k in range(1, steps + 1):
            dB = sq_dt * rng.normal(size=nb)
            bR += bI * (dt / tau) + noise * dB
            bI += noise * dB
            if k in sample_steps:
                snaps_Q[k] = bR + bI
                snaps_P[k] = hbar * bI / s ** 2
    else:  # exact-b15
        B = np.zeros(nb)
        IB = np.zeros(nb)
        bridge = dt ** 1.5 / (2.0 * math.sqrt(3.0))
        for k in range(1, steps + 1):
            z1 = rng.normal(size=nb)
            z2 = rng.normal(size=nb)
            IB += B * dt + 0.5 * dt ** 1.5 * z1 + bridge * z2
            B += sq_dt * z1
            if k in sample_steps:
                snaps_Q[k] = (s / (2.0 * tau ** 1.5)) * IB + (s / math.sqrt(tau)) * B
                snaps_P[k] = hbar * B / (2.0 * s * math.sqrt(tau))
    return snaps_Q, snaps_P


def simulate_ensemble(eq: WavepacketEquilibrium, n_traj: int, dt: float,
                      t_end: float, seed: int = 0,
                      method: str = "euler-maruyama", sample_times=None,
                      workers: int = 1, constants=CONSTANTS) -> EnsembleStats:
    """Ensemble simulation of the packet-center drift started at equilibrium.

    Each trajectory integrates db = (b_I / tau) dt + (1+i)/2 (s/sqrt(tau)) dB
    with one shared real Brownian motion B per trajectory and b(0) = 0;
    the observables are <Q> = b_R + b_I and <P> = hbar b_I / s^2.
    'exact-b15' instead samples the closed-form solution (B together with
    its running time integral) exactly on the grid, so any dt is admissible;
    'euler-maruyama' requires dt <= tau_s / 50.

    Results are bit-identical for fixed (seed, n_traj, dt, t_end, method)
    for any `workers` count: trajectories are partitioned into fixed blocks
    with per-block generators seeded by (seed, block index), and the
    reduction uses exactly rounded summation.
    """
    if n_traj < 100:
        raise ValidationError("n_traj must be at least 100")
    if not dt > 0 or not t_end >= dt:
        raise ValidationError("need dt > 0 and t_end >= dt")
    if method not in ("euler-maruyama", "exact-b15"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "euler-maruyama" and dt > eq.tau_s / 50.0:
        raise ValidationError(
            f"dt = {dt:.3g} s too large for euler-maruyama; need dt <= "
            f"tau_s/50 = {eq.tau_s / 50.0:.3g} s (or use method='exact-b15')")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")

    steps = int(round(t_end / dt))
    if sample_times is None:
        stride = max(1, steps // 50)
        sample_steps = sorted(set(list(range(stride, steps + 1, stride)) + [steps]))
    else:
        sample_steps = []
        for t in sample_times:
            k = int(round(t / dt))
            if k < 1 or k > steps or abs(k * dt - t) > 1e-9 * max(t, dt):
                raise ValidationError(
                    f"sample time {t} does not sit on the dt = {dt} grid")
            sample_steps.append(k)
        sample_steps = sorted(set(sample_steps))
    times = np.array([k * dt for k in sample_steps])
    T = len(sample_steps)

    sizes = [_TRAJ_BLOCK] * (n_traj // _TRAJ_BLOCK)
    if n_traj % _TRAJ_BLOCK:
        sizes.append(n_traj % _TRAJ_BLOCK)

    def run_block(arg):
        i, nb = arg
        rng = np.random.default_rng([seed, i])
        sq, sp = _block_paths(rng, nb, steps, dt, eq, method,
                              set(sample_steps), constants.hbar)
        Q = np.column_stack([sq[k] for k in sample_steps])    # (nb, T)
        P = np.column_stack([sp[k] for k in sample_steps])
        Q2 = Q * Q
        return {
            "q": Q.sum(axis=0), "q2": Q2.sum(axis=0),
            "q4": (Q2 * Q2).sum(axis=0),
            "p2": (P * P).sum(axis=0), "p4": (P ** 4).sum(axis=0),
            "q2outer": Q2.T @ Q2,
        }

    tasks = list(enumerate(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_block, tasks))
    else:
        partials = [run_block(t) for t in tasks]

    def reduce(key, shape):
        stacked = np.stack([p[key] for p in partials])
        flat = stacked.reshape(len(partials), -1)
        out = np.array([math.fsum(flat[:, j]) for j in range(flat.shape[1])])
        return out.reshape(shape)

    n = n_traj
    sum_q = reduce("q", (T,))
    sum_q2 = reduce("q2", (T,))
    sum_q4 = reduce("q4", (T,))
    sum_p2 = reduce("p2", (T,))
    sum_p4 = reduce("p4", (T,))
    outer = reduce("q2outer", (T, T))

    mean_q = sum_q / n
    mean_q2 = sum_q2 / n
    mean_p2 = sum_p2 / n
    var_q = np.maximum(sum_q2 / n - mean_q ** 2, 0.0) * n / (n - 1)
    var_q2 = np.maximum(sum_q4 / n - mean_q2 ** 2, 0.0) * n / (n - 1)
    var_p2 = np.maximum(sum_p4 / n - mean_p2 ** 2, 0.0) * n / (n - 1)
    cov_q2 = (outer / n - np.outer(mean_q2, mean_q2)) * n / (n - 1)

    return EnsembleStats(
        n_traj=n,
        times=tuple(times),
        mean_Q=tuple(mean_q),
        se_mean_Q=tuple(np.sqrt(var_q / n)),
        mean_sq_Q=tuple(mean_q2),
        se_mean_sq_Q=tuple(np.sqrt(var_q2 / n)),
        mean_sq_P=tuple(mean_p2),
        se_mean_sq_P=tuple(np.sqrt(var_p2 / n)),
        cov_mean_sq_Q=tuple(map(tuple, cov_q2 / n)),
    )


def growth_coefficients(stats: EnsembleStats, pick_times) -> dict:
    """Extract the t, t^2, t^3 coefficients of the mean-square growth law.

    Solves the exact 3x3 linear system through three measured times and
    propagates the measured covariance of mean_sq_Q; returns coefficient
    estimates and their standard errors.
    """
    idx = []
    times = np.asarray(stats.times)
    for t in pick_times:
        j = int(np.argmin(np.abs(times - t)))
        if abs(times[j] - t) > 1e-9 * max(t, 1e-300):
            raise ValidationError(f"time {t} not among the sampled times")
        idx.append(j)
    if len(set(idx)) != 3:
        raise ValidationError("need three distinct sampled times")
    t3 = times[idx]
    A = np.column_stack([t3, t3 ** 2, t3 ** 3])
    m = np.array([stats.mean_sq_Q[j] for j in idx])
    cov = np.array(stats.cov_mean_sq_Q)[np.ix_(idx, idx)]
    Ainv = np.linalg.inv(A)
    coef = Ainv @ m
    coef_cov = Ainv @ cov @ Ainv.T
    return {"times": tuple(t3), "coefficients": tuple(coef),
            "std_errors": tuple(np.sqrt(np.diag(coef_cov)))}


def stats_to_csv(stats: EnsembleStats, path=None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t_s", "mean_Q", "mean_sq_Q", "se_mean_sq_Q",
                     "mean_sq_P", "se_mean_sq_P"])
    for j, t in enumerate(stats.times):
        writer.writerow([
            f"{t:.9g}", f"{stats.mean_Q[j]:.9g}", f"{stats.mean_sq_Q[j]:.9g}",
            f"{stats.se_mean_sq_Q[j]:.9g}", f"{stats.mean_sq_P[j]:.9g}",
            f"{stats.se_mean_sq_P[j]:.9g}"])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text
