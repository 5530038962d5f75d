import math
import re
import warnings

import numpy as np
import pytest

from cslwalk import (CONSTANTS, ComplexVariance, ConvergenceError, Sphere,
                     ValidationError, WavepacketEquilibrium, equilibrium_width,
                     f_sphere, growth_coefficients, sigma_closed_form,
                     sigma_ode_integrate, simulate_ensemble)
from cslwalk import wavepacket
from cslwalk.wavepacket import (equilibrium_variance, packet_width_sq,
                                stats_to_csv)


@pytest.fixture
def eq_ref(grw):
    # the 1e-5 cm, unit-density sphere: s_inf ~ 4.2e-7 cm, tau_s ~ 0.71 s
    return equilibrium_width(grw, Sphere(1e-5, 1.0))


def _lam_eff(grw, body, f):
    return grw.lam * body.nucleon_count() ** 2 * f


# ---------------------------------------------------------------------------
# deterministic width dynamics

def test_equilibrium_variance_is_fixed_point(eq_ref):
    sig = equilibrium_variance(eq_ref.s_inf)
    for t in (0.1, 1.0, 25.0):
        out = sigma_closed_form(sig, eq_ref.s_inf, eq_ref.tau_s, t)
        assert complex(out) == pytest.approx(complex(sig), rel=1e-12, abs=0)
    # physical width at equilibrium equals s_inf
    assert packet_width_sq(sig) == pytest.approx(eq_ref.s_inf ** 2, rel=1e-12, abs=0)


def test_closed_form_relaxes_to_equilibrium(eq_ref):
    s2 = eq_ref.s_inf ** 2
    for sigma0 in (ComplexVariance(0.3 * s2), ComplexVariance(4.0 * s2 + 1j * s2)):
        out = sigma_closed_form(sigma0, eq_ref.s_inf, eq_ref.tau_s,
                                50.0 * eq_ref.tau_s)
        assert complex(out) == pytest.approx(s2 * (1 + 1j) / 2, rel=1e-6, abs=0)


def test_closed_form_is_stable_at_huge_times(eq_ref):
    out = sigma_closed_form(ComplexVariance(eq_ref.s_inf ** 2), eq_ref.s_inf,
                            eq_ref.tau_s, 1e6 * eq_ref.tau_s)
    assert np.isfinite(complex(out).real)
    assert complex(out) == pytest.approx(
        eq_ref.s_inf ** 2 * (1 + 1j) / 2, rel=1e-12, abs=0)


def test_ode_matches_closed_form(grw, eq_ref):
    body = Sphere(1e-5, 1.0)
    lam_eff = _lam_eff(grw, body, f_sphere(1.0).value)
    grid = np.linspace(1e-3 * eq_ref.tau_s, 10 * eq_ref.tau_s, 50)
    for start in (0.01, 0.2, 1.0, 3.0, 5.0):
        sigma0 = ComplexVariance(start * eq_ref.s_inf ** 2)
        numeric = sigma_ode_integrate(sigma0, body.mass(), lam_eff, grw.a, grid)
        exact = sigma_closed_form(sigma0, eq_ref.s_inf, eq_ref.tau_s, grid)
        rel = [abs(complex(n) - complex(e)) / abs(complex(e))
               for n, e in zip(numeric, exact)]
        assert max(rel) < 1e-10, start


def test_ode_one_long_interval_settles_without_warnings(grw, eq_ref):
    # 1e4 tau_s in one interval: the first RK4 trials are unstable and must
    # count as disagreement, not overflow warnings or errors
    body = Sphere(1e-5, 1.0)
    lam_eff = _lam_eff(grw, body, f_sphere(1.0).value)
    t = [1e4 * eq_ref.tau_s]
    for start in (0.01, 5.0):
        sigma0 = ComplexVariance(start * eq_ref.s_inf ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (numeric,) = sigma_ode_integrate(sigma0, body.mass(), lam_eff,
                                             grw.a, t)
        exact = sigma_closed_form(sigma0, eq_ref.s_inf, eq_ref.tau_s, t[0])
        assert complex(numeric) == pytest.approx(complex(exact), rel=1e-10, abs=0)


def test_ode_raises_past_the_substep_cap(grw, eq_ref, monkeypatch):
    body = Sphere(1e-5, 1.0)
    lam_eff = _lam_eff(grw, body, f_sphere(1.0).value)
    monkeypatch.setattr(wavepacket, "_ODE_MAX_SUBSTEPS", 8)
    with pytest.raises(ConvergenceError, match="substeps"):
        sigma_ode_integrate(ComplexVariance(eq_ref.s_inf ** 2), body.mass(),
                            lam_eff, grw.a, [10 * eq_ref.tau_s])


def test_ode_free_spreading_when_collapse_off():
    M = 1e-15
    sigma0 = ComplexVariance(1e-12 + 0j)
    grid = np.array([0.5, 1.0, 2.0])
    out = sigma_ode_integrate(sigma0, M, 0.0, 1e-5, grid)
    for t, sig in zip(grid, out):
        expect = 1e-12 + 1j * CONSTANTS.hbar * t / (2 * M)
        assert complex(sig) == pytest.approx(expect, rel=1e-9, abs=0)


def test_ode_keeps_width_positive(grw, eq_ref):
    body = Sphere(1e-5, 1.0)
    lam_eff = _lam_eff(grw, body, f_sphere(1.0).value)
    grid = np.linspace(0.01 * eq_ref.tau_s, 20 * eq_ref.tau_s, 80)
    out = sigma_ode_integrate(ComplexVariance(0.01 * eq_ref.s_inf ** 2),
                              body.mass(), lam_eff, grw.a, grid)
    assert all(complex(s).real > 0 for s in out)


def test_complex_variance_validation():
    with pytest.raises(ValidationError):
        ComplexVariance(-1e-12 + 0j)
    for bad in (complex(1, math.nan), complex(math.inf, 0)):
        with pytest.raises(ValidationError, match="^sigma_sq "):
            ComplexVariance(bad)
        with pytest.raises(ValidationError, match="^sigma "):
            packet_width_sq(bad)
    # finite, but sigma_I^4 / sigma_R^2 overflows
    with pytest.raises(ValidationError, match="floating-point range"):
        packet_width_sq(complex(1e-300, 1e200))
    with pytest.raises(ValidationError):
        sigma_ode_integrate(ComplexVariance(1e-12), 1e-15, 0.0, 1e-5,
                            np.array([1.0, 0.5]))


def test_width_equation_rejects_bad_inputs_by_name():
    sig = ComplexVariance(1e-12)
    ode = dict(sigma0=sig, M=1e-15, lam_eff=1e-10, a=1e-5, t_grid=[0.5, 1.0])
    bad_ode = [
        (dict(ode, M=0.0), "M"), (dict(ode, M=-1e-15), "M"),
        (dict(ode, M=math.nan), "M"), (dict(ode, M=math.inf), "M"),
        (dict(ode, a=0.0), "a"), (dict(ode, a=math.nan), "a"),
        (dict(ode, a=1e-170), "the collapse rate"),   # a^2 underflows
        (dict(ode, lam_eff=math.nan), "lam_eff"),
        (dict(ode, lam_eff=math.inf), "lam_eff"),
        (dict(ode, lam_eff=-1e-10), "lam_eff"),
        (dict(ode, t_grid=[math.inf]), "t_grid"),
        (dict(ode, t_grid=[0.5, math.nan]), "t_grid"),
        (dict(ode, sigma0=complex(math.inf, 0.0)), "sigma0"),
    ]
    for kw, name in bad_ode:
        with pytest.raises(ValidationError, match=f"^{re.escape(name)} "):
            sigma_ode_integrate(**kw)
    closed = dict(sigma0=sig, s_inf=1e-6, tau_s=1.0, t=0.5)
    bad_closed = [
        (dict(closed, s_inf=0.0), "s_inf"), (dict(closed, s_inf=math.nan), "s_inf"),
        (dict(closed, s_inf=1e-170), "the s_inf^2"),   # s_inf^2 underflows
        (dict(closed, s_inf=1e170), "the s_inf^2"),    # and overflows
        (dict(closed, tau_s=0.0), "tau_s"), (dict(closed, tau_s=-1.0), "tau_s"),
        (dict(closed, tau_s=math.inf), "tau_s"),
        (dict(closed, t=math.nan), "t"), (dict(closed, t=[0.5, math.inf]), "t"),
        (dict(closed, sigma0=complex(1e-12, math.nan)), "sigma0"),
    ]
    for kw, name in bad_closed:
        with pytest.raises(ValidationError, match=f"^{re.escape(name)} "):
            sigma_closed_form(**kw)


# ---------------------------------------------------------------------------
# stochastic drift ensemble

def test_ensemble_validations(eq_ref):
    with pytest.raises(ValidationError):
        simulate_ensemble(eq_ref, n_traj=50, dt=eq_ref.tau_s / 100,
                          t_end=eq_ref.tau_s)
    with pytest.raises(ValidationError):
        simulate_ensemble(eq_ref, n_traj=200, dt=eq_ref.tau_s / 10,
                          t_end=eq_ref.tau_s)   # dt too big for EM
    # exact sampler has no dt restriction
    stats = simulate_ensemble(eq_ref, n_traj=200, dt=eq_ref.tau_s,
                              t_end=3 * eq_ref.tau_s, method="exact-b15")
    assert len(stats.times) == 3
    tau = eq_ref.tau_s
    ok = dict(n_traj=200, dt=tau / 50, t_end=tau)
    bad_calls = [
        (dict(ok, workers=0), "workers"), (dict(ok, workers=-2), "workers"),
        (dict(ok, t_end=math.inf), "finite"), (dict(ok, t_end=math.nan), "finite"),
        (dict(ok, dt=math.nan), "finite"), (dict(ok, dt=math.inf), "finite"),
        (dict(ok, sample_times=[]), "empty"),
        (dict(ok, sample_times=[math.nan]), "grid"),
        (dict(ok, sample_times=[math.inf]), "grid"),
        (dict(ok, dt=1e-300, t_end=1e10, method="exact-b15"), "overflows"),
        # work n_traj x sample intervals: 5e9 (checked before the covariance)
        (dict(ok, n_traj=1_000_000, t_end=5000 * tau,
              sample_times=[k * tau for k in range(1, 5001)]), "work limit"),
        # 6000 sample times: a 6000 x 6000 covariance per block
        (dict(ok, t_end=6000 * tau, method="exact-b15", dt=tau,
              sample_times=[k * tau for k in range(1, 6001)]), "covariance"),
    ]
    for kw, match in bad_calls:
        with pytest.raises(ValidationError, match=match):
            simulate_ensemble(eq_ref, **kw)


@pytest.mark.parametrize("s_inf,tau_s,dt,t_end,method", [
    (5e-324, 1.0, 0.01, 1.0, "euler-maruyama"),        # s_inf^2 underflows to 0
    (1e300, 1.0, 0.01, 1.0, "euler-maruyama"),         # s_inf^2 overflows
    (1e100, 1.0, 0.01, 1.0, "euler-maruyama"),         # <Q>^4 overflows
    (1e-150, 1.0, 0.01, 1.0, "euler-maruyama"),        # <P>^4 overflows
    (1e-6, 1e-300, 1e-303, 1e-302, "euler-maruyama"),  # tau_s^1.5 underflows
    (1e-6, 1e300, 1e299, 1e300, "exact-b15"),          # tau_s^1.5 overflows
])
def test_ensemble_rejects_moments_beyond_float_range(s_inf, tau_s, dt, t_end,
                                                     method):
    with pytest.raises(ValidationError, match="floating-point range"):
        simulate_ensemble(WavepacketEquilibrium(s_inf, tau_s), n_traj=100,
                          dt=dt, t_end=t_end, method=method)


def test_ensemble_zero_mean_and_growth_law(eq_ref):
    tau, s2 = eq_ref.tau_s, eq_ref.s_inf ** 2
    stats = simulate_ensemble(eq_ref, n_traj=4000, dt=tau / 60,
                              t_end=10 * tau, seed=21,
                              sample_times=[tau, 3 * tau, 10 * tau])
    for j, t in enumerate(stats.times):
        x = t / tau
        expect = s2 * (x + x ** 2 / 2 + x ** 3 / 12)
        assert abs(stats.mean_Q[j]) < 3 * stats.se_mean_Q[j]
        assert abs(stats.mean_sq_Q[j] - expect) < 3 * stats.se_mean_sq_Q[j]


def test_ensemble_momentum_second_moment(eq_ref):
    tau, s = eq_ref.tau_s, eq_ref.s_inf
    stats = simulate_ensemble(eq_ref, n_traj=4000, dt=tau / 60,
                              t_end=5 * tau, seed=22,
                              sample_times=[tau, 5 * tau])
    for j, t in enumerate(stats.times):
        expect = CONSTANTS.hbar ** 2 * t / (4 * s ** 2 * tau)
        assert abs(stats.mean_sq_P[j] - expect) < 3 * stats.se_mean_sq_P[j]


def test_ensemble_methods_agree(eq_ref):
    tau = eq_ref.tau_s
    kw = dict(n_traj=4000, dt=tau / 60, t_end=5 * tau,
              sample_times=[tau, 5 * tau])
    em = simulate_ensemble(eq_ref, seed=31, method="euler-maruyama", **kw)
    ex = simulate_ensemble(eq_ref, seed=32, method="exact-b15", **kw)
    for j in range(2):
        err = math.hypot(em.se_mean_sq_Q[j], ex.se_mean_sq_Q[j])
        assert abs(em.mean_sq_Q[j] - ex.mean_sq_Q[j]) < 3 * err


def test_ensemble_determinism_and_worker_invariance(eq_ref):
    tau = eq_ref.tau_s
    kw = dict(n_traj=500, dt=tau / 50, t_end=2 * tau, seed=7)
    a = simulate_ensemble(eq_ref, **kw)
    b = simulate_ensemble(eq_ref, **kw)
    c = simulate_ensemble(eq_ref, workers=4, **kw)
    assert a == b
    assert a == c
    d = simulate_ensemble(eq_ref, n_traj=500, dt=tau / 50, t_end=2 * tau, seed=8)
    assert a != d
    # 9000 trajectories: two full blocks of 4096 and a partial one
    for method in ("euler-maruyama", "exact-b15"):
        kw = dict(n_traj=9000, dt=tau / 50, t_end=tau, method=method)
        same = simulate_ensemble(eq_ref, seed=3, **kw)
        for w in (1, 2, 4):
            assert simulate_ensemble(eq_ref, seed=3, workers=w, **kw) == same
        assert simulate_ensemble(eq_ref, seed=4, **kw) != same


def test_euler_strong_order_against_exact_paths(eq_ref):
    # with the same underlying increments, halving dt roughly halves the
    # pathwise gap between the Euler scheme and the exact solution (the Euler
    # error is entirely the left-sum approximation to the time integral of B)
    s, tau = eq_ref.s_inf, eq_ref.tau_s
    rng = np.random.default_rng(17)
    n = 4000
    fine_steps = 128
    dt_f = tau / 128.0
    z1 = rng.normal(size=(fine_steps, n))
    z2 = rng.normal(size=(fine_steps, n))
    noise = 0.5 * s / math.sqrt(tau)

    def em_final_q(dB_rows, step):
        bR = np.zeros(n)
        bI = np.zeros(n)
        for dB in dB_rows:
            bR += bI * (step / tau) + noise * dB
            bI += noise * dB
        return bR + bI

    # exact reference on the fine grid: B plus its exact running integral,
    # whose within-step part needs the independent bridge normals z2
    dB = math.sqrt(dt_f) * z1
    B = np.zeros(n)
    IB = np.zeros(n)
    for k in range(fine_steps):
        IB += B * dt_f + 0.5 * dt_f ** 1.5 * z1[k] + \
            dt_f ** 1.5 / (2 * math.sqrt(3)) * z2[k]
        B += dB[k]
    q_exact = (s / (2 * tau ** 1.5)) * IB + (s / math.sqrt(tau)) * B

    q_coarse = em_final_q(dB[0::2] + dB[1::2], 2 * dt_f)
    q_fine = em_final_q(dB, dt_f)
    err_coarse = np.sqrt(np.mean((q_coarse - q_exact) ** 2))
    err_fine = np.sqrt(np.mean((q_fine - q_exact) ** 2))
    assert err_coarse / err_fine == pytest.approx(2.0, rel=0.15)


def test_growth_coefficients_recovered(eq_ref):
    tau, s2 = eq_ref.tau_s, eq_ref.s_inf ** 2
    stats = simulate_ensemble(eq_ref, n_traj=10_000, dt=tau / 50,
                              t_end=10 * tau, seed=5,
                              sample_times=[tau, 3 * tau, 10 * tau])
    fit = growth_coefficients(stats, [tau, 3 * tau, 10 * tau])
    expected = (s2 / tau, s2 / (2 * tau ** 2), s2 / (12 * tau ** 3))
    for est, se, truth in zip(fit["coefficients"], fit["std_errors"], expected):
        assert abs(est - truth) < 3 * se
        assert se < abs(truth)    # meaningful measurement, not noise


def test_single_trajectory_paths(eq_ref):
    from cslwalk.wavepacket import TrajectoryState, single_trajectory
    tau = eq_ref.tau_s
    path = single_trajectory(eq_ref, dt=tau / 60, t_end=2 * tau, seed=4)
    assert path[0] == TrajectoryState(0.0, 0.0, 0.0)
    assert not hasattr(path[0], "__dict__")      # slotted: no per-state dict
    with pytest.raises(ValidationError, match="finite"):
        TrajectoryState(math.nan, 0.0, 0.0)
    assert len(path) == 121
    assert path == single_trajectory(eq_ref, dt=tau / 60, t_end=2 * tau, seed=4)
    # statistics sanity on many single paths: Var(b_I(t)) = s^2 t / (4 tau)
    finals = [single_trajectory(eq_ref, dt=tau / 4, t_end=2 * tau, seed=k,
                                method="exact-b15")[-1].b_imag
              for k in range(400)]
    var = np.var(finals)
    expect = eq_ref.s_inf ** 2 * (2 * tau) / (4 * tau)
    assert var == pytest.approx(expect, rel=0.3, abs=0)
    with pytest.raises(ValidationError):
        single_trajectory(eq_ref, dt=tau, t_end=2 * tau)   # EM needs small dt
    for kw, match in ((dict(dt=tau / 100, t_end=math.inf), "finite"),
                      (dict(dt=math.nan, t_end=tau), "finite"),
                      (dict(dt=tau / 100, t_end=tau, seed=-1), "seed"),
                      (dict(dt=tau / 100, t_end=1e6 * tau), "path limit")):
        with pytest.raises(ValidationError, match=match):
            single_trajectory(eq_ref, **kw)


def test_stats_csv_header(eq_ref):
    stats = simulate_ensemble(eq_ref, n_traj=200, dt=eq_ref.tau_s / 50,
                              t_end=eq_ref.tau_s, seed=1)
    text = stats_to_csv(stats)
    assert text.splitlines()[0] == \
        "t_s,mean_Q,mean_sq_Q,se_mean_sq_Q,mean_sq_P,se_mean_sq_P"


# ---------------------------------------------------------------------------
# the shared engine: schemes, streams and limits

def test_exact_ensemble_steps_between_sample_times(eq_ref):
    # exact-b15 draws one increment per sample interval, whatever dt is
    tau = eq_ref.tau_s
    kw = dict(n_traj=5000, t_end=10 * tau, seed=12, method="exact-b15",
              sample_times=[tau, 3 * tau, 10 * tau])
    coarse = simulate_ensemble(eq_ref, dt=tau / 60, **kw)
    fine = simulate_ensemble(eq_ref, dt=tau / 600, **kw)
    assert coarse == fine


def test_euler_maruyama_matches_the_reference_loop(eq_ref):
    # the scheme as a plain loop over (b_R, b_I), on the same random stream
    from cslwalk.wavepacket import single_trajectory
    s, tau = eq_ref.s_inf, eq_ref.tau_s
    dt = tau / 100
    noise = 0.5 * s / math.sqrt(tau)

    def reference(seed, n, steps):
        rng = np.random.default_rng([seed, 0])
        bR, bI = np.zeros(n), np.zeros(n)
        out = [(bR.copy(), bI.copy())]
        for _ in range(steps):
            dB = math.sqrt(dt) * rng.standard_normal(n)
            bR += bI * (dt / tau) + noise * dB
            bI += noise * dB
            out.append((bR.copy(), bI.copy()))
        return out

    path = single_trajectory(eq_ref, dt=dt, t_end=50 * tau, seed=9)
    bR = np.array([p.b_real for p in path])
    bI = np.array([p.b_imag for p in path])
    assert [p.t for p in path] == [k * dt for k in range(len(path))]
    ref = reference(9, 1, 5000)
    scale = max(np.abs(bR).max(), np.abs(bI).max())
    assert np.abs(bR - [r[0][0] for r in ref]).max() <= 1e-12 * scale
    assert np.abs(bI - [r[1][0] for r in ref]).max() <= 1e-12 * scale
    # b_R picks up b_I dt / tau plus the same kick as b_I
    resid = np.diff(bR) - bI[:-1] * (dt / tau) - np.diff(bI)
    assert np.abs(resid).max() <= 1e-9 * scale

    # one block of 100 trajectories sampled at every step (one EM step per
    # interval), compared at 1 and 2 tau
    stats = simulate_ensemble(eq_ref, n_traj=100, dt=dt, t_end=2 * tau, seed=5,
                              sample_times=[k * dt for k in range(1, 201)])
    ref = reference(5, 100, 200)
    for k in (100, 200):
        q = ref[k][0] + ref[k][1]
        assert stats.mean_sq_Q[k - 1] == pytest.approx(np.mean(q * q),
                                                       rel=1e-12, abs=0)


class _BasisNormals:
    """A stand-in generator whose successive normal draws are e_1, e_2, ...

    The outputs of a linear sampler fed these draws are the columns of its
    map from the normals, so their products give its covariance exactly.
    """

    def __init__(self, n):
        self.rows = iter(np.eye(n))

    def standard_normal(self, n):
        return next(self.rows)


def test_m_step_increment_has_the_covariance_of_m_euler_steps():
    from cslwalk.wavepacket import _increments
    dt = 0.25   # a power of two: the explicit-step map below is exact
    for m in (1, 2, 3, 100, 10_000):
        dB, kick = _increments(_BasisNormals(2), m * dt, m, 2)
        L = np.array([dB, np.broadcast_to(kick, 2)])
        got = L @ L.T
        # m explicit steps IB += B dt, B += sqrt(dt) z_l, as coefficient
        # vectors of B and IB over z_1..z_m
        B, IB = np.zeros(m), np.zeros(m)
        for step in range(m):
            IB += B * dt
            B[step] += math.sqrt(dt)
        A = np.array([B, IB])
        want = A @ A.T
        assert got.ravel().tolist() == pytest.approx(want.ravel().tolist(),
                                                     rel=1e-12, abs=0)
    # m = inf: the exact covariance of (B(h), int_0^h B) is h, h^2/2, h^3/3
    h = 0.7
    dB, kick = _increments(_BasisNormals(2), h, math.inf, 2)
    L = np.array([dB, kick])
    assert (L @ L.T).ravel().tolist() == pytest.approx(
        [h, h ** 2 / 2, h ** 2 / 2, h ** 3 / 3], rel=1e-12, abs=0)


def test_pinned_exact_ensemble_and_euler_path(eq_ref):
    # values captured before ensembles stepped between sample times: the
    # exact-b15 ensemble and both single_trajectory schemes keep every bit
    from cslwalk.wavepacket import EnsembleStats, TrajectoryState, single_trajectory
    tau = eq_ref.tau_s
    stats = simulate_ensemble(eq_ref, n_traj=300, dt=tau / 50, t_end=3 * tau,
                              seed=13, method="exact-b15",
                              sample_times=[tau, 3 * tau])
    assert stats == EnsembleStats(
        n_traj=300, times=(0.7135971251352693, 2.140791375405808),
        mean_Q=(1.64859151606141e-08, 1.2985745181501355e-09),
        se_mean_Q=(3.2704203146036336e-08, 7.758698456436061e-08),
        mean_sq_Q=(3.200716915204297e-13, 1.7999039982590883e-12),
        se_mean_sq_Q=(2.6591169545954115e-14, 1.4187596213108137e-13),
        mean_sq_P=(1.7631604671676916e-42, 4.565152521927032e-42),
        se_mean_sq_P=(1.4761026639767606e-43, 3.709561029738659e-43),
        cov_mean_sq_Q=((7.070902978216774e-28, 1.928734810295426e-27),
                       (1.928734810295426e-27, 2.0128788630620035e-26)))
    em = single_trajectory(eq_ref, dt=tau / 60, t_end=2 * tau, seed=4)
    assert em[-1] == TrajectoryState(-2.9753360767791234e-07,
                                     -1.0623581222820287e-07, 1.4271942502705386)
    ex = single_trajectory(eq_ref, dt=tau / 4, t_end=2 * tau, seed=4,
                           method="exact-b15")
    assert ex[-1] == TrajectoryState(-6.46416473820014e-08,
                                     -6.623605038533978e-08, 1.4271942502705386)
