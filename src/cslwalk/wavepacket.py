"""Center-of-mass wavepacket dynamics under collapse plus free evolution.

The packet stays Gaussian with a complex width parameter sigma^2 obeying a
Riccati equation with no stochastic part,

    d(sigma^2)/dt = i hbar / (2 M) - (2 lam_eff / a^2) sigma^4,

whose attracting fixed point is s_inf^2 (1 + i)/2.  A width is a Python
complex sigma^2 = sigma_R^2 + i sigma_I^2 in cm^2, its real part positive for
a normalizable packet; the closed form and the RK4 route each return one per
time of a grid.  The packet center drifts under a complex linear SDE driven
by one real Brownian motion; once the width has equilibrated the ensemble
mean square of the center grows as
s_inf^2 [t/tau + t^2/(2 tau^2) + t^3/(12 tau^3)].
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from ._blocks import block_rng, run_blocks
from .core import CONSTANTS, _csv
from .diffusion import WavepacketEquilibrium
from .errors import (ConvergenceError, ValidationError, _count, _in_float_range,
                     _nonnegative, _positive)

__all__ = [
    "TrajectoryState",
    "EnsembleStats",
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
# into the cap costs ~3 s of trials.  RK4 is unstable once dt x 2 rate |s| passes
# ~2.8, so an interval whose stiffness h x max(rate |s|, sqrt(rate |drift|))
# passes ~1.4 x the cap converges only where the width relaxes out of a stiff
# start; dense sweeps of the start width found none converging above 1.92 x
# the cap.  Above 2.5 x the cap the interval fails at once.
_ODE_REL_TOL = 1.0e-10
_ODE_MAX_SUBSTEPS = 2 ** 20
_ODE_MAX_STIFFNESS = 2.5 * _ODE_MAX_SUBSTEPS


def _width(sigma, name: str) -> complex:
    """sigma as a complex (cm^2); a ValidationError naming it unless it is a
    finite number with a positive real part."""
    s = complex(sigma) if isinstance(sigma, numbers.Complex) else cmath.nan
    if not (cmath.isfinite(s) and s.real > 0):
        raise ValidationError(
            f"{name} must be finite with Re(sigma^2) > 0, got {sigma!r}")
    return s


def _reals(values, name: str) -> list[float]:
    """values as a list of floats; a ValidationError naming them unless they
    are an iterable of real numbers (a str iterates as its characters)."""
    try:
        reals = list(values)
    except TypeError:
        reals = None
    if reals is None or not all(isinstance(v, numbers.Real) for v in reals):
        raise ValidationError(f"{name} must be numbers, got {values!r}")
    return [float(v) for v in reals]


def _time_grid(t, name: str) -> list[float]:
    """t as a list of floats; a ValidationError naming it unless it is a
    nonempty, strictly increasing list of finite nonnegative times (s)."""
    ts = _reals(t, name)
    if not (ts and ts[0] >= 0 and ts[-1] < math.inf
            and all(a < b for a, b in zip(ts, ts[1:]))):   # False on nan
        raise ValidationError(f"{name} must be a nonempty, strictly increasing "
                              f"list of finite nonnegative times, got {t!r}")
    return ts


@_in_float_range("packet width")
def packet_width_sq(sigma) -> float:
    """Physical squared packet width sigma_R^2 + sigma_I^4 / sigma_R^2."""
    s = _width(sigma, "sigma")
    return s.real + s.imag ** 2 / s.real


@_in_float_range("s_inf^2 relaxation")
def sigma_closed_form(sigma0, s_inf: float, tau_s: float, t) -> list[complex]:
    """Exact relaxation of the width parameter toward equilibrium, at each
    time of the grid t (the grid rule of sigma_ode_integrate).

    With S* = s_inf^2 (1+i)/2, the equilibrium, the Riccati solution is
    sigma^2(t) = S* [sigma0 (1 + e^-w) + S* (1 - e^-w)]
                 / [sigma0 (1 - e^-w) + S* (1 + e^-w)]
    with w = (1+i) t / tau_s (written with decaying exponentials so large t
    is exact: sigma^2 -> S*).  With x = t / tau_s, 1 - e^-w is formed as
    [-expm1(-x) + 2 e^-x sin^2(x/2)] + i e^-x sin x, two terms of one sign
    that do not cancel at small x.
    """
    _positive(s_inf=s_inf, tau_s=tau_s)
    s0 = _width(sigma0, "sigma0")
    s_sq = s_inf ** 2
    if s_sq < sys.float_info.min:       # s_inf^2 underflows
        raise ArithmeticError
    sstar = s_sq * (0.5 + 0.5j)
    a, b = s0, sstar
    if max(abs(s0), abs(sstar)) > sys.float_info.max / 4:
        a, b = 0.25 * s0, 0.25 * sstar     # exact; keeps a (1 + e^-w) finite
    out = []
    for tk in _time_grid(t, "t"):
        x = tk / tau_s
        em = cmath.exp(-(1.0 + 1.0j) * x)
        ex = math.exp(-x)
        one_m = (complex(2.0 * ex * math.sin(0.5 * x) ** 2 - math.expm1(-x),
                         ex * math.sin(x)) if ex else 1.0 - em)
        num = a * (1.0 + em) + b * one_m
        den = a * one_m + b * (1.0 + em)
        sq = sstar * (num / den)
        if not cmath.isfinite(sq):      # num / den overflows while sigma^2 ~ sigma0
            sq = sstar * num / den
        if not cmath.isfinite(sq):      # sigma^2 itself leaves the float range
            raise OverflowError
        out.append(_width(sq, "sigma^2(t)"))
    return out


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


@_in_float_range("collapse rate 2 lam_eff / a^2")
def _collapse_rate(lam_eff: float, a: float) -> float:
    return 2.0 * lam_eff / a ** 2


@_in_float_range("width ODE")
def sigma_ode_integrate(sigma0, M: float, lam_eff: float, a: float,
                        t_grid) -> list[complex]:
    """Numerically integrate the width equation at each time of t_grid, a
    nonempty, strictly increasing list of finite nonnegative times (s).

    lam_eff is the body's collapse rate lam N^2 f.  lam_eff = 0 gives free
    spreading sigma^2(t) = sigma^2(0) + i hbar t / (2M) exactly.

    Classical RK4 steps the complex scalar equation from t = 0 through each
    grid interval in turn.  On each interval the substep count doubles from
    1 until two successive results agree to 1e-10 relative (a non-finite
    trial counts as disagreement), and the finer one is kept; an interval
    that needs more than 2^20 substeps raises ConvergenceError, at once when
    its stiffness leaves even 2^20 substeps unstable.  A sigma0 whose
    square overflows raises the float-range ValidationError.
    """
    _positive(M=M, a=a)
    _nonnegative(lam_eff=lam_eff)
    grid = _time_grid(t_grid, "t_grid")
    s = _width(sigma0, "sigma0")
    drift = 0.5j * CONSTANTS.hbar / M
    rate = _collapse_rate(lam_eff, a)
    if not cmath.isfinite(rate * s * s):    # every RK4 trial would overflow
        raise OverflowError
    out = []
    t0 = 0.0
    for t in grid:
        stiffness = (t - t0) * max(rate * abs(s), math.sqrt(rate * abs(drift)))
        n, coarse = 1, _rk4(s, t - t0, 1, drift, rate)
        while True:
            n *= 2
            if n > _ODE_MAX_SUBSTEPS or stiffness > _ODE_MAX_STIFFNESS:
                raise ConvergenceError(
                    f"width ODE: no RK4 agreement to {_ODE_REL_TOL:g} within "
                    f"{_ODE_MAX_SUBSTEPS} substeps over [{t0:.6g}, {t:.6g}] s")
            fine = _rk4(s, t - t0, n, drift, rate)
            if cmath.isfinite(fine) and abs(fine - coarse) <= _ODE_REL_TOL * abs(fine):
                break
            coarse = fine
        if fine.real <= 0:
            raise ConvergenceError("integrated width lost positivity")
        out.append(fine)
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


@_in_float_range("step count t_end / dt, which overflows,")
def _grid_steps(eq: WavepacketEquilibrium, dt: float, t_end: float,
                method: str, seed: int, *, suggest_exact: bool = True) -> int:
    """Validate a call's grid, scheme and seed; return the number of dt steps.

    suggest_exact=False leaves exact-b15 out of the too-large-dt message,
    for single_trajectory, whose caller cannot choose the scheme.
    """
    if method not in ("euler-maruyama", "exact-b15"):
        raise ValidationError(f"unknown method {method!r}")
    _positive(dt=dt, t_end=t_end)
    if dt > t_end:
        raise ValidationError(f"dt = {dt!r} exceeds t_end = {t_end!r}")
    if method == "euler-maruyama" and dt > eq.tau_s / 50.0:
        hint = " (or use method='exact-b15')" if suggest_exact else ""
        raise ValidationError(
            f"dt = {dt:.3g} s too large for euler-maruyama; need dt <= "
            f"tau_s/50 = {eq.tau_s / 50.0:.3g} s{hint}")
    _count(0, seed=seed)
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


@_in_float_range("trajectory")
@np.errstate(over="raise", invalid="raise")
def single_trajectory(eq: WavepacketEquilibrium, dt: float, t_end: float,
                      seed: int = 0) -> list[TrajectoryState]:
    """Sample one packet-center path at every step, for inspection/plotting.

    Steps the Euler-Maruyama chain of simulate_ensemble, under its
    preconditions (dt <= tau_s / 50 among them), with the increments summed
    along the path by cumsum.  The path holds round(t_end/dt) + 1 states, at
    most 1e7 (about 1.4 GB: 136 B per state, its three floats and its list
    slot included).  The states are checked once, by the float-range guard:
    a step that overflows or turns nan raises its ValidationError.
    """
    steps = _grid_steps(eq, dt, t_end, "euler-maruyama", seed,
                        suggest_exact=False)
    if steps > _MAX_PATH_LEN:
        raise ValidationError(
            f"{steps} steps exceed the path limit of {_MAX_PATH_LEN}")
    rng = block_rng(seed, 0)   # the path is block 0 of the seed's streams
    dB, _ = _increments(rng, dt, 1, steps)
    B = np.concatenate(([0.0], np.cumsum(dB)))
    IB = np.concatenate(([0.0], np.cumsum(B[:-1] * dt)))
    bR, bI = _center(eq, B, IB)
    t = np.arange(steps + 1) * dt
    return list(map(TrajectoryState, bR.tolist(), bI.tolist(), t.tolist()))


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


@_in_float_range("ensemble simulation")
def simulate_ensemble(eq: WavepacketEquilibrium, n_traj: int, dt: float,
                      t_end: float, seed: int = 0,
                      method: str = "euler-maruyama",
                      workers: int = 1) -> EnsembleStats:
    """Ensemble simulation of the packet-center drift started at equilibrium.

    Each trajectory integrates db = (b_I / tau) dt + (1+i)/2 (s/sqrt(tau)) dB
    with one shared real Brownian motion B per trajectory and b(0) = 0;
    the observables are <Q> = b_R + b_I and <P> = hbar b_I / s^2.
    The moments are sampled on the dt grid every max(1, steps // 50) steps
    and at t_end: about 50 times, at most 99 (at 99 steps).
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
    sums held until the reduction.  At 99 samples the second binds first,
    above about 14 million trajectories.  A block of 4096 trajectories holds
    one samples x 4096 matrix of <Q> (3.2 MB at 99 samples) and vectors of
    4096.

    Results are bit-identical for fixed (seed, n_traj, dt, t_end, method)
    for any `workers` count: trajectories run in blocks of 4096 through
    cslwalk._blocks.run_blocks.
    """
    _count(100, n_traj=n_traj)
    steps = _grid_steps(eq, dt, t_end, method, seed)
    stride = max(1, steps // 50)
    ks = sorted(set(range(stride, steps + 1, stride)) | {steps})
    times = [k * dt for k in ks]
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
        # one samples x nb matrix: <Q> per sample time, squared in place
        # after its sums; <P>^2 and <P>^4 are reduced per sample time
        B = np.zeros(nb)
        IB = np.zeros(nb)
        Q = np.empty((T, nb))
        sum_p2 = np.empty(T)
        sum_p4 = np.empty(T)
        for j, (h, m) in enumerate(schedule):
            dB, kick = _increments(rng, h, m, nb)
            IB += B * h + kick
            B += dB
            bR, bI = _center(eq, B, IB)
            Q[j] = bR + bI
            p = hbar_s2 * bI
            p *= p
            sum_p2[j] = p.sum()
            p *= p
            sum_p4[j] = p.sum()
        sum_q = Q.sum(1)
        Q *= Q
        return np.concatenate([sum_q, Q.sum(1), sum_p2, sum_p4,
                               (Q @ Q.T).ravel()])

    hbar_s2 = CONSTANTS.hbar / eq.s_inf ** 2
    sums = np.array(run_blocks(n_traj, _TRAJ_BLOCK, seed, workers, block_sums))
    sum_q, sum_q2, sum_p2, sum_p4 = sums[:4 * T].reshape(4, T)
    outer = sums[4 * T:].reshape(T, T)

    n = n_traj
    mean_q = sum_q / n
    mean_q2 = sum_q2 / n
    mean_p2 = sum_p2 / n
    var_q = np.maximum(sum_q2 / n - mean_q ** 2, 0.0) * n / (n - 1)
    var_p2 = np.maximum(sum_p4 / n - mean_p2 ** 2, 0.0) * n / (n - 1)
    # covariance of the mean_sq_Q vector; its diagonal gives se_mean_sq_Q too
    cov_mean_q2 = (outer / n - np.outer(mean_q2, mean_q2)) * n / (n - 1) / n

    return EnsembleStats(
        n_traj=n,
        times=tuple(times),
        mean_Q=tuple(mean_q),
        se_mean_Q=tuple(np.sqrt(var_q / n)),
        mean_sq_Q=tuple(mean_q2),
        se_mean_sq_Q=tuple(np.sqrt(np.maximum(np.diag(cov_mean_q2), 0.0))),
        mean_sq_P=tuple(mean_p2),
        se_mean_sq_P=tuple(np.sqrt(var_p2 / n)),
        cov_mean_sq_Q=tuple(map(tuple, cov_mean_q2)),
    )


@_in_float_range("growth-law fit")
def growth_coefficients(stats: EnsembleStats, pick_times) -> dict:
    """Extract the t, t^2, t^3 coefficients of the mean-square growth law.

    Solves the exact 3x3 linear system through three measured times and
    propagates the measured covariance of mean_sq_Q; returns coefficient
    estimates and their standard errors.
    """
    idx = []
    times = np.asarray(stats.times)
    for t in _reals(pick_times, "pick_times"):
        j = int(np.argmin(np.abs(times - t)))
        if not (math.isfinite(t) and abs(times[j] - t) <= 1e-9 * max(t, 1e-300)):
            raise ValidationError(f"time {t} not among the sampled times")
        idx.append(j)
    if len(set(idx)) != 3:
        raise ValidationError("need three distinct sampled times")
    t3 = times[idx]
    m = np.array([stats.mean_sq_Q[j] for j in idx])
    cov = np.array(stats.cov_mean_sq_Q)[np.ix_(idx, idx)]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        cubes = t3 ** 3
        if not np.all(np.abs(cubes) >= np.finfo(float).tiny):   # else singular
            raise ValidationError(
                f"sample times {tuple(t3.tolist())} leave the floating-point "
                "range: their cubes are not normal floats")
        Ainv = np.linalg.inv(np.column_stack([t3, t3 ** 2, cubes]))
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
