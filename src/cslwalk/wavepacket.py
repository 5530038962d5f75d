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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._blocks import block_rng, run_blocks
from .core import CONSTANTS, _csv
from .diffusion import WavepacketEquilibrium
from .errors import (ConvergenceError, ValidationError, _count, _in_float_range,
                     _nonnegative, _positive)

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
# Limits, each over 100x every documented call; times from a 2-vCPU Xeon VM.
_MAX_PATH_STEPS = 4_000_000_000   # n_traj x sample intervals: ~7 min on one core
_MAX_COV_FLOATS = 2 ** 25         # blocks x samples^2 held for the reduction
_MAX_PATH_LEN = 10_000_000        # single_trajectory steps: ~1.4 GB of states
# Width ODE: RK4 trials on one grid interval agree to _ODE_REL_TOL or stop at
# _ODE_MAX_SUBSTEPS.  One interval of 1e4 tau_s needs 2^15 substeps; running
# into the cap costs ~3 s of trials.
_ODE_REL_TOL = 1.0e-10
_ODE_MAX_SUBSTEPS = 2 ** 20


@dataclass(frozen=True)
class ComplexVariance:
    """Complex squared width sigma^2 = sigma_R^2 + i sigma_I^2 (cm^2).

    The real part must stay positive for a normalizable packet.
    """

    sigma_sq: complex

    def __post_init__(self):
        _width(self.sigma_sq, "sigma_sq")

    def __complex__(self):
        return self.sigma_sq


def _width(sigma, name: str) -> complex:
    """sigma as a complex; a ValidationError naming it unless it is finite
    with a positive real part."""
    s = complex(sigma.sigma_sq) if isinstance(sigma, ComplexVariance) else complex(sigma)
    if not (cmath.isfinite(s) and s.real > 0):
        raise ValidationError(f"{name} must be finite with Re(sigma^2) > 0")
    return s


def equilibrium_variance(s_inf: float) -> ComplexVariance:
    """The stationary width parameter, s_inf^2 (1 + i) / 2."""
    _positive(s_inf=s_inf)
    return ComplexVariance(s_inf ** 2 * (1.0 + 1.0j) / 2.0)


def packet_width_sq(sigma) -> float:
    """Physical squared packet width sigma_R^2 + sigma_I^4 / sigma_R^2."""
    s = _width(sigma, "sigma")
    return _in_float_range("packet width", lambda: s.real + s.imag ** 2 / s.real)


def sigma_closed_form(sigma0, s_inf: float, tau_s: float, t) -> ComplexVariance | list:
    """Exact relaxation of the width parameter toward equilibrium.

    With u = sigma^2 / s_inf^2 and u* = (1+i)/2, the Riccati solution is
    u(t) = u* [u0 (1 + e^-w) + u* (1 - e^-w)] / [u0 (1 - e^-w) + u* (1 + e^-w)]
    with w = (1+i) t / tau_s (written with decaying exponentials so large t
    is exact: u -> u*).
    """
    _positive(s_inf=s_inf, tau_s=tau_s)
    _in_float_range("s_inf^2", lambda: 1.0 / s_inf ** 2)
    u0 = _width(sigma0, "sigma0") / s_inf ** 2
    ustar = (1.0 + 1.0j) / 2.0
    scalar = np.isscalar(t)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(tt)):
        raise ValidationError("t must be finite")
    if np.any(tt < 0):
        raise ValidationError("t must be nonnegative")
    em = np.exp(-(1.0 + 1.0j) * tt / tau_s)
    u = ustar * (u0 * (1.0 + em) + ustar * (1.0 - em)) / (
        u0 * (1.0 - em) + ustar * (1.0 + em))
    out = [ComplexVariance(s_inf ** 2 * complex(v)) for v in u]
    return out[0] if scalar else out


def _rk4(s: complex, h: float, n: int, drift: complex, rate: float) -> complex:
    """n classical RK4 steps of ds/dt = drift - rate s^2 over a time h."""
    dt = h / n
    for _ in range(n):
        k1 = drift - rate * s * s
        y = s + 0.5 * dt * k1
        k2 = drift - rate * y * y
        y = s + 0.5 * dt * k2
        k3 = drift - rate * y * y
        y = s + dt * k3
        k4 = drift - rate * y * y
        s += dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return s


def sigma_ode_integrate(sigma0, M: float, lam_eff: float, a: float,
                        t_grid) -> list[ComplexVariance]:
    """Numerically integrate the width equation on a monotone time grid.

    lam_eff is the body's collapse rate lam N^2 f.  lam_eff = 0 gives free
    spreading sigma^2(t) = sigma^2(0) + i hbar t / (2M) exactly.

    Classical RK4 steps the complex scalar equation from t = 0 through each
    grid interval in turn.  On each interval the substep count doubles from
    1 until two successive results agree to 1e-10 relative (a non-finite
    trial counts as disagreement), and the finer one is kept; an interval
    that needs more than 2^20 substeps raises ConvergenceError.
    """
    _positive(M=M, a=a)
    _nonnegative(lam_eff=lam_eff)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or not np.all(np.isfinite(t_grid)):
        raise ValidationError("t_grid must be a nonempty list of finite times")
    if np.any(np.diff(t_grid) <= 0):
        raise ValidationError("t_grid must be strictly increasing")
    if t_grid[0] < 0:
        raise ValidationError("t_grid must be nonnegative")
    s = _width(sigma0, "sigma0")
    drift = 0.5j * CONSTANTS.hbar / M
    rate = _in_float_range("collapse rate 2 lam_eff / a^2",
                           lambda: 2.0 * lam_eff / a ** 2)
    out = []
    t0 = 0.0
    for t in t_grid.tolist():
        n, coarse = 1, _rk4(s, t - t0, 1, drift, rate)
        while True:
            n *= 2
            if n > _ODE_MAX_SUBSTEPS:
                raise ConvergenceError(
                    f"width ODE: no RK4 agreement to {_ODE_REL_TOL:g} within "
                    f"{_ODE_MAX_SUBSTEPS} substeps over [{t0:.6g}, {t:.6g}] s")
            fine = _rk4(s, t - t0, n, drift, rate)
            if cmath.isfinite(fine) and abs(fine - coarse) <= _ODE_REL_TOL * abs(fine):
                break
            coarse = fine
        if fine.real <= 0:
            raise ConvergenceError("integrated width lost positivity")
        out.append(ComplexVariance(fine))
        s, t0 = fine, t
    return out


# ---------------------------------------------------------------------------
# drift SDE ensemble

@dataclass(frozen=True, slots=True)
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


def _grid_steps(eq: WavepacketEquilibrium, dt: float, t_end: float,
                method: str, seed: int) -> int:
    """Validate a call's grid, scheme and seed; return the number of dt steps."""
    if method not in ("euler-maruyama", "exact-b15"):
        raise ValidationError(f"unknown method {method!r}")
    _positive(dt=dt, t_end=t_end)
    if dt > t_end:
        raise ValidationError(f"dt = {dt!r} exceeds t_end = {t_end!r}")
    if method == "euler-maruyama" and dt > eq.tau_s / 50.0:
        raise ValidationError(
            f"dt = {dt:.3g} s too large for euler-maruyama; need dt <= "
            f"tau_s/50 = {eq.tau_s / 50.0:.3g} s (or use method='exact-b15')")
    _count(0, seed=seed)
    if t_end / dt == math.inf:
        raise ValidationError("t_end / dt overflows")
    return round(t_end / dt)


def _increments(rng, h: float, m, n: int):
    """n increments of B over an interval h made of m Euler-Maruyama steps.

    Returns dB and the kick that IB = int B dt gets on top of the left-point
    B h.  Over m steps of dt = h/m, the chain IB += B dt, B += sqrt(dt) z
    moves (B, IB) by an exact two-dimensional Gaussian, sampled here from two
    normals: dB = sqrt(h) z1 and
    kick = h^3/2 [(1 - 1/m)/2 z1 + sqrt(1 - 1/m^2)/(2 sqrt 3) z2].
    m = 1 is one plain Euler-Maruyama step (no kick, no second normal);
    m = inf is exact-b15, the exact joint Gaussian of (dB, int dB) (Kloeden &
    Platen 1992, 10.4).
    """
    z1 = rng.standard_normal(n)
    dB = math.sqrt(h) * z1
    if m == 1:
        return dB, 0.0
    z2 = rng.standard_normal(n)
    h32 = h ** 1.5
    return dB, (h32 * (1.0 - 1.0 / m) / 2.0 * z1
                + h32 * math.sqrt(1.0 - 1.0 / m ** 2) / (2.0 * math.sqrt(3.0)) * z2)


def _center(eq: WavepacketEquilibrium, B, IB):
    """The center parameters (b_R, b_I) of the state (B, IB)."""
    s, tau = eq.s_inf, eq.tau_s
    bI = (s / (2.0 * math.sqrt(tau))) * B
    return (s / (2.0 * tau ** 1.5)) * IB + bI, bI


def single_trajectory(eq: WavepacketEquilibrium, dt: float, t_end: float,
                      seed: int = 0,
                      method: str = "euler-maruyama") -> list[TrajectoryState]:
    """Sample one packet-center path at every step, for inspection/plotting.

    Uses the increments and preconditions of simulate_ensemble, summed
    along the path with cumsum.  Every step is a sample here, so both
    schemes cost one increment per step.  The path holds round(t_end/dt) + 1
    states, at most 1e7 (about 1.4 GB: 136 B per state, its three floats
    and its list slot included).
    """
    steps = _grid_steps(eq, dt, t_end, method, seed)
    if steps > _MAX_PATH_LEN:
        raise ValidationError(
            f"{steps} steps exceed the path limit of {_MAX_PATH_LEN}")
    rng = block_rng(seed, 0)   # the path is block 0 of the seed's streams
    m = 1 if method == "euler-maruyama" else math.inf   # dt steps per interval
    dB, kick = _increments(rng, dt, m, steps)
    B = np.concatenate(([0.0], np.cumsum(dB)))
    IB = np.concatenate(([0.0], np.cumsum(B[:-1] * dt + kick)))
    bR, bI = _center(eq, B, IB)
    t = np.arange(steps + 1) * dt
    return [TrajectoryState(*row)
            for row in zip(bR.tolist(), bI.tolist(), t.tolist())]


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


def _sample_schedule(steps: int, dt: float, sample_times):
    """Sample times on the dt grid and their step indices."""
    if sample_times is None:
        stride = max(1, steps // 50)
        ks = sorted(set(range(stride, steps + 1, stride)) | {steps})
        return [k * dt for k in ks], ks
    times = sorted(set(map(float, sample_times)))
    if not times:
        raise ValidationError("sample_times must not be empty")
    ks = [round(t / dt) if 0 < t / dt < math.inf else 0 for t in times]
    for t, k in zip(times, ks):
        if k < 1 or k > steps or abs(k * dt - t) > 1e-9 * max(t, dt):
            raise ValidationError(
                f"sample time {t} does not sit on the dt = {dt} grid")
    return times, ks


def simulate_ensemble(eq: WavepacketEquilibrium, n_traj: int, dt: float,
                      t_end: float, seed: int = 0,
                      method: str = "euler-maruyama", sample_times=None,
                      workers: int = 1) -> EnsembleStats:
    """Ensemble simulation of the packet-center drift started at equilibrium.

    Each trajectory integrates db = (b_I / tau) dt + (1+i)/2 (s/sqrt(tau)) dB
    with one shared real Brownian motion B per trajectory and b(0) = 0;
    the observables are <Q> = b_R + b_I and <P> = hbar b_I / s^2.
    'euler-maruyama' is the chain that steps every dt, and it keeps its
    dt <= tau_s / 50 precondition and its O(dt) bias.  'exact-b15' samples
    B together with its running time integral exactly, so any dt is
    admissible.  Both schemes step straight from one sample time to the
    next: across an interval of m dt steps (m = inf for exact-b15) the change
    of (B, int B) is an exact two-dimensional Gaussian drawn from two
    normals per trajectory, so Euler-Maruyama samples have exactly the
    chain's distribution and the cost scales with n_traj x samples, not
    n_traj x steps.

    Limits: n_traj x sample intervals at most 4e9, about seven minutes on
    one core; blocks x samples^2 at most 2^25, the 256 MiB of covariance
    sums held until the reduction.  That allows up to 5792 samples, where a
    block of 4096 trajectories needs about 1 GB.

    Results are bit-identical for fixed (seed, n_traj, dt, t_end, method,
    sample_times) for any `workers` count: trajectories run in blocks of
    4096 through cslwalk._blocks.run_blocks.  exact-b15 results with given
    sample_times do not depend on dt either.
    """
    _count(100, n_traj=n_traj)
    steps = _grid_steps(eq, dt, t_end, method, seed)
    times, ks = _sample_schedule(steps, dt, sample_times)
    T = len(times)
    if method == "euler-maruyama":
        schedule = [((k - k0) * dt, k - k0) for k0, k in zip([0] + ks, ks)]
    else:
        schedule = [(t - t0, math.inf) for t0, t in zip([0.0] + times, times)]
    if n_traj * T > _MAX_PATH_STEPS:
        raise ValidationError(f"n_traj x sample intervals exceeds the work "
                              f"limit of {_MAX_PATH_STEPS:.0e}")
    if math.ceil(n_traj / _TRAJ_BLOCK) * T * T > _MAX_COV_FLOATS:
        raise ValidationError(f"{T} sample times need too large a covariance "
                              f"for {n_traj} trajectories")

    @np.errstate(over="raise", invalid="raise")
    def block_sums(rng, nb):
        B = np.zeros(nb)
        IB = np.zeros(nb)
        Q = np.empty((T, nb))
        P = np.empty((T, nb))
        for j, (h, m) in enumerate(schedule):
            dB, kick = _increments(rng, h, m, nb)
            IB += B * h + kick
            B += dB
            bR, bI = _center(eq, B, IB)
            Q[j] = bR + bI
            P[j] = hbar_s2 * bI
        Q2 = Q * Q
        P2 = P * P
        return np.concatenate([Q.sum(1), Q2.sum(1), (Q2 * Q2).sum(1),
                               P2.sum(1), (P2 * P2).sum(1), (Q2 @ Q2.T).ravel()])

    try:
        hbar_s2 = CONSTANTS.hbar / eq.s_inf ** 2
        sums = np.array(run_blocks(n_traj, _TRAJ_BLOCK, seed, workers, block_sums))
    except ArithmeticError:     # an overflow, or a scale that underflows to 0
        raise ValidationError("the ensemble moments leave the floating-point "
                              "range for these inputs") from None
    sum_q, sum_q2, sum_q4, sum_p2, sum_p4 = sums[:5 * T].reshape(5, T)
    outer = sums[5 * T:].reshape(T, T)

    n = n_traj
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


def stats_to_csv(stats: EnsembleStats) -> str:
    """The ensemble moments as CSV text, one row per sample time."""
    columns = (stats.times, stats.mean_Q, stats.mean_sq_Q, stats.se_mean_sq_Q,
               stats.mean_sq_P, stats.se_mean_sq_P)
    return _csv(["t_s", "mean_Q", "mean_sq_Q", "se_mean_sq_Q", "mean_sq_P",
                 "se_mean_sq_P"],
                [[f"{v:.9g}" for v in row] for row in zip(*columns)])
