import dataclasses
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from cslwalk import (CONSTANTS, ConvergenceError, Sphere,
                     ValidationError, WavepacketEquilibrium, equilibrium_width,
                     f_sphere, growth_coefficients, sigma_closed_form,
                     sigma_ode_integrate, simulate_ensemble,
                     single_trajectory)
from cslwalk import wavepacket
from cslwalk.wavepacket import packet_width_sq, stats_to_csv


@pytest.fixture
def eq_ref(grw):
    # the 1e-5 cm, unit-density sphere: s_inf ~ 4.2e-7 cm, tau_s ~ 0.71 s
    return equilibrium_width(grw, Sphere(1e-5, 1.0))


def _lam_eff(grw, body, f):
    return grw.lam * body.nucleon_count() ** 2 * f


# ---------------------------------------------------------------------------
# deterministic width dynamics

def test_equilibrium_variance_is_fixed_point(eq_ref):
    sig = eq_ref.s_inf ** 2 * (1 + 1j) / 2
    for t in (0.1, 1.0, 25.0):
        (out,) = sigma_closed_form(sig, eq_ref.s_inf, eq_ref.tau_s, [t])
        assert out == pytest.approx(sig, rel=1e-12, abs=0)
    # physical width at equilibrium equals s_inf
    assert packet_width_sq(sig) == pytest.approx(eq_ref.s_inf ** 2, rel=1e-12, abs=0)


def test_closed_form_relaxes_to_equilibrium(eq_ref):
    s2 = eq_ref.s_inf ** 2
    for sigma0 in (0.3 * s2, 4.0 * s2 + 1j * s2):
        (out,) = sigma_closed_form(sigma0, eq_ref.s_inf, eq_ref.tau_s,
                                   [50.0 * eq_ref.tau_s])
        assert out == pytest.approx(s2 * (1 + 1j) / 2, rel=1e-6, abs=0)


def test_closed_form_is_stable_at_huge_times(eq_ref):
    (out,) = sigma_closed_form(eq_ref.s_inf ** 2, eq_ref.s_inf, eq_ref.tau_s,
                               [1e6 * eq_ref.tau_s])
    assert np.isfinite(out.real)
    assert out == pytest.approx(
        eq_ref.s_inf ** 2 * (1 + 1j) / 2, rel=1e-12, abs=0)


def test_closed_form_takes_a_huge_start_width():
    # sigma0 / s_inf^2 overflows, sigma^2(t) does not: a start far above
    # equilibrium relaxes as S* (1 + e^-w) / (1 - e^-w), with the equilibrium
    # S* = s_inf^2 (1 + i)/2 and w = (1 + i) t / tau_s
    (out,) = sigma_closed_form(1e300, 1e-6, 1.0, [0.5])
    em = np.exp(-(1 + 1j) * 0.5)
    assert out == pytest.approx(1e-12 * (1 + 1j) / 2 * (1 + em) / (1 - em),
                                rel=1e-12, abs=0)


def test_closed_form_takes_a_start_width_near_the_float_maximum():
    # sigma0 (1 + e^-w) overflows, sigma^2(t) does not: the start comes back
    # at t = 0, and by t = tau_s / 2 the width has relaxed as from 1e300
    start, mid = sigma_closed_form(1.7e308, 1e-6, 1.0, [0.0, 0.5])
    assert start == pytest.approx(1.7e308, rel=1e-15, abs=0)
    em = np.exp(-(1 + 1j) * 0.5)
    assert mid == pytest.approx(1e-12 * (1 + 1j) / 2 * (1 + em) / (1 - em),
                                rel=1e-12, abs=0)


@pytest.mark.parametrize("sigma0", [1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1.0,
                                    1e30, 1e100, 1e200, 1e300])
def test_closed_form_gives_a_width_for_every_start(sigma0):
    # in sigma^2 units no start width leaves the float range on the way:
    # sigma^2(0) is the start, a finite width follows at every time, and
    # the equilibrium S* = s_inf^2 (1 + i)/2 is reached
    s_inf, tau_s = 1e-6, 1.0
    sstar = s_inf ** 2 * (1 + 1j) / 2
    start, mid, late = sigma_closed_form(sigma0, s_inf, tau_s, [0.0, 0.5, 60.0])
    assert start == pytest.approx(sigma0, rel=1e-15, abs=0)
    em = np.exp(-(1 + 1j) * 0.5)
    want = sstar * (sigma0 * (1 + em) + sstar * (1 - em)) / (
        sigma0 * (1 - em) + sstar * (1 + em))
    assert mid == pytest.approx(want, rel=1e-13, abs=0)
    assert late == pytest.approx(sstar, rel=1e-13, abs=0)


@pytest.mark.parametrize("sigma0, t, want", [
    (1e-6, 1e-12, 9.999990000009998e-07 + 4.999995000006666e-25j),
    (1e-8, 1e-10, 9.999990000010001e-09 + 4.9999950000066665e-23j),
    (1e300, 1e-12, 0.9999999999999999 + 1.6666666666666668e-25j),
], ids=["near-equilibrium", "narrow", "huge"])
def test_closed_form_keeps_its_digits_far_below_tau_s(sigma0, t, want):
    # 1 - e^-w is O(t / tau_s) here; formed as 1 minus the exponential it
    # lost 1.6e-11, 5.9e-14 and 1.6e-5 of the width.  want is the same
    # formula in 50-digit mpmath, with s_inf = 1e-6 and tau_s = 1
    (out,) = sigma_closed_form(sigma0, 1e-6, 1.0, [t])
    assert abs(out - want) <= 4.4e-16 * abs(want)


def test_ode_matches_closed_form(grw, eq_ref):
    body = Sphere(1e-5, 1.0)
    lam_eff = _lam_eff(grw, body, f_sphere(1.0).value)
    grid = np.linspace(1e-3 * eq_ref.tau_s, 10 * eq_ref.tau_s, 50)
    for start in (0.01, 0.2, 1.0, 3.0, 5.0):
        sigma0 = start * eq_ref.s_inf ** 2
        numeric = sigma_ode_integrate(sigma0, body.mass(), lam_eff, grw.a, grid)
        exact = sigma_closed_form(sigma0, eq_ref.s_inf, eq_ref.tau_s, grid)
        rel = [abs(n - e) / abs(e) for n, e in zip(numeric, exact)]
        assert max(rel) < 1e-10, start


def test_ode_one_long_interval_settles_without_warnings(grw, eq_ref):
    # 1e4 tau_s in one interval: the first RK4 trials are unstable and must
    # count as disagreement, not overflow warnings or errors
    body = Sphere(1e-5, 1.0)
    lam_eff = _lam_eff(grw, body, f_sphere(1.0).value)
    t = [1e4 * eq_ref.tau_s]
    for start in (0.01, 5.0):
        sigma0 = start * eq_ref.s_inf ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (numeric,) = sigma_ode_integrate(sigma0, body.mass(), lam_eff,
                                             grw.a, t)
        (exact,) = sigma_closed_form(sigma0, eq_ref.s_inf, eq_ref.tau_s, t)
        assert numeric == pytest.approx(exact, rel=1e-10, abs=0)


def test_ode_raises_past_the_substep_cap(grw, eq_ref, monkeypatch):
    body = Sphere(1e-5, 1.0)
    lam_eff = _lam_eff(grw, body, f_sphere(1.0).value)
    monkeypatch.setattr(wavepacket, "_ODE_MAX_SUBSTEPS", 8)
    with pytest.raises(ConvergenceError, match="substeps"):
        sigma_ode_integrate(eq_ref.s_inf ** 2, body.mass(),
                            lam_eff, grw.a, [10 * eq_ref.tau_s])


def _counted_rk4(monkeypatch):
    calls = []
    rk4 = wavepacket._rk4
    monkeypatch.setattr(wavepacket, "_rk4",
                        lambda *args: calls.append(args) or rk4(*args))
    return calls


def test_ode_stiffness_bound_rejects_no_converging_interval(grw, eq_ref,
                                                            monkeypatch):
    # the bound scales with the cap, so a 2^8 cap sweeps it in test time:
    # one interval of stiffness c x cap out of each start width
    cap = 2 ** 8
    per_substep = wavepacket._ODE_MAX_STIFFNESS / wavepacket._ODE_MAX_SUBSTEPS
    monkeypatch.setattr(wavepacket, "_ODE_MAX_SUBSTEPS", cap)
    body = Sphere(1e-5, 1.0)
    lam_eff = _lam_eff(grw, body, f_sphere(1.0).value)
    rate = wavepacket._collapse_rate(lam_eff, grw.a)
    drift = 0.5 * CONSTANTS.hbar / body.mass()
    calls = _counted_rk4(monkeypatch)

    def run(s, t, bound):
        monkeypatch.setattr(wavepacket, "_ODE_MAX_STIFFNESS", bound)
        calls.clear()
        try:
            (out,) = sigma_ode_integrate(s, body.mass(), lam_eff, grw.a, [t])
        except ConvergenceError:
            return None, len(calls)
        return out, len(calls)

    converged = []
    for start in (0.01, 1.0, 5.0, 9.8 + 0.5j):
        s = start * eq_ref.s_inf ** 2
        unit = max(rate * abs(s), math.sqrt(rate * drift))
        for c in (0.05, 0.3, 0.6, 1.0, 1.5, 1.92, 2.2, 2.6, 4.0, 8.0):
            free, _ = run(s, c * cap / unit, math.inf)
            bounded, n_calls = run(s, c * cap / unit, per_substep * cap)
            if c < per_substep:
                assert bounded == free, (start, c)
            else:
                assert free is None and bounded is None, (start, c)
                assert n_calls == 1, (start, c)
            if free is not None:
                converged.append(c)
    # some converging interval starts past RK4's ~1.4 (1.92 on x86-64)
    assert max(converged) >= 1.5


def test_ode_too_stiff_interval_fails_at_once(monkeypatch):
    # 4 x the cap of stiffness: no RK4 trial up to the cap is stable
    calls = _counted_rk4(monkeypatch)
    with pytest.raises(ConvergenceError, match="substeps"):
        sigma_ode_integrate(1e-6, M=1e-15, lam_eff=1.0, a=1e-5,
                            t_grid=[209.7152])
    assert len(calls) == 1


def test_ode_free_spreading_when_collapse_off():
    M = 1e-15
    grid = np.array([0.5, 1.0, 2.0])
    out = sigma_ode_integrate(1e-12 + 0j, M, 0.0, 1e-5, grid)
    for t, sig in zip(grid, out):
        expect = 1e-12 + 1j * CONSTANTS.hbar * t / (2 * M)
        assert sig == pytest.approx(expect, rel=1e-9, abs=0)


def test_ode_keeps_width_positive(grw, eq_ref):
    body = Sphere(1e-5, 1.0)
    lam_eff = _lam_eff(grw, body, f_sphere(1.0).value)
    grid = np.linspace(0.01 * eq_ref.tau_s, 20 * eq_ref.tau_s, 80)
    out = sigma_ode_integrate(0.01 * eq_ref.s_inf ** 2, body.mass(), lam_eff,
                              grw.a, grid)
    assert all(s.real > 0 for s in out)


def test_width_validation():
    routes = [("sigma", packet_width_sq),
              ("sigma0", lambda s: sigma_closed_form(s, 1e-6, 1.0, [0.5])),
              ("sigma0", lambda s: sigma_ode_integrate(s, 1e-15, 1e-10, 1e-5,
                                                       [0.5, 1.0]))]
    for bad in (-1e-12, math.nan, math.inf, "1e-12", None,
                complex(1, math.nan), complex(math.inf, 0)):
        for name, call in routes:
            with pytest.raises(ValidationError, match=f"^{name} "):
                call(bad)
    # finite, but sigma_I^4 / sigma_R^2 overflows
    with pytest.raises(ValidationError, match="floating-point range"):
        packet_width_sq(complex(1e-300, 1e200))
    with pytest.raises(ValidationError):
        sigma_ode_integrate(1e-12, 1e-15, 0.0, 1e-5, np.array([1.0, 0.5]))


def test_width_equation_rejects_bad_inputs_by_name():
    sig = 1e-12
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
    closed = dict(sigma0=sig, s_inf=1e-6, tau_s=1.0, t=[0.5])
    bad_closed = [
        (dict(closed, s_inf=0.0), "s_inf"), (dict(closed, s_inf=math.nan), "s_inf"),
        (dict(closed, s_inf=1e-170), "the s_inf^2"),   # s_inf^2 underflows
        (dict(closed, s_inf=1e170), "the s_inf^2"),    # and overflows
        (dict(closed, tau_s=0.0), "tau_s"), (dict(closed, tau_s=-1.0), "tau_s"),
        (dict(closed, tau_s=math.inf), "tau_s"),
        (dict(closed, t=math.nan), "t"), (dict(closed, t=[0.5, math.inf]), "t"),
        (dict(closed, t="1"), "t"), (dict(closed, t=[]), "t"),
        (dict(closed, t=[[0.5, 1.0]]), "t"), (dict(closed, t=[1.0, 0.5]), "t"),
        (dict(closed, t=[0.5, 0.5]), "t"),
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
        (dict(ok, dt=1e-300, t_end=1e10, method="exact-b15"), "overflows"),
        # work n_traj x sample intervals: 1e8 x 50 = 5e9 (checked before
        # the covariance)
        (dict(ok, n_traj=10 ** 8), "work limit"),
        # 99 sample times, the most there are: 7325 blocks of 99^2 floats
        (dict(ok, n_traj=3 * 10 ** 7, dt=tau / 99, t_end=99 * (tau / 99)),
         "covariance"),
    ]
    for kw, match in bad_calls:
        with pytest.raises(ValidationError, match=match):
            simulate_ensemble(eq_ref, **kw)


def test_a_too_large_dt_names_exact_b15_only_where_it_can_be_chosen():
    eq = WavepacketEquilibrium(1e-6, 1.0)
    need = r"too large for euler-maruyama; need dt <= tau_s/50 = 0\.02 s"
    with pytest.raises(ValidationError,
                       match=need + r" \(or use method='exact-b15'\)$"):
        simulate_ensemble(eq, n_traj=200, dt=0.5, t_end=1.0)
    with pytest.raises(ValidationError, match=need + "$"):
        single_trajectory(eq, dt=0.5, t_end=1.0)


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


def _sample_index(stats, t):
    """The index of the sample time t, to rounding, in stats.times."""
    j = min(range(len(stats.times)), key=lambda i: abs(stats.times[i] - t))
    assert stats.times[j] == pytest.approx(t, rel=1e-12, abs=0)
    return j


def test_ensemble_zero_mean_and_growth_law(eq_ref):
    tau, s2 = eq_ref.tau_s, eq_ref.s_inf ** 2
    stats = simulate_ensemble(eq_ref, n_traj=4000, dt=tau / 60,
                              t_end=10 * tau, seed=21)
    for j in (_sample_index(stats, x * tau) for x in (1, 3, 10)):
        x = stats.times[j] / tau
        expect = s2 * (x + x ** 2 / 2 + x ** 3 / 12)
        assert abs(stats.mean_Q[j]) < 3 * stats.se_mean_Q[j]
        assert abs(stats.mean_sq_Q[j] - expect) < 3 * stats.se_mean_sq_Q[j]


def test_ensemble_momentum_second_moment(eq_ref):
    tau, s = eq_ref.tau_s, eq_ref.s_inf
    stats = simulate_ensemble(eq_ref, n_traj=4000, dt=tau / 60,
                              t_end=5 * tau, seed=22)
    for j in (_sample_index(stats, x * tau) for x in (1, 5)):
        t = stats.times[j]
        expect = CONSTANTS.hbar ** 2 * t / (4 * s ** 2 * tau)
        assert abs(stats.mean_sq_P[j] - expect) < 3 * stats.se_mean_sq_P[j]


def test_ensemble_methods_agree(eq_ref):
    tau = eq_ref.tau_s
    kw = dict(n_traj=4000, dt=tau / 60, t_end=5 * tau)
    em = simulate_ensemble(eq_ref, seed=31, method="euler-maruyama", **kw)
    ex = simulate_ensemble(eq_ref, seed=32, method="exact-b15", **kw)
    assert em.times == ex.times
    for j in (_sample_index(em, x * tau) for x in (1, 5)):
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
        # one variance of mean_sq_Q: se_mean_sq_Q is the root of the
        # covariance's diagonal, not a second reduction of its own
        for j, se in enumerate(same.se_mean_sq_Q):
            assert se == math.sqrt(same.cov_mean_sq_Q[j][j]), (method, j)
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
                              t_end=10 * tau, seed=5)
    fit = growth_coefficients(stats, [tau, 3 * tau, 10 * tau])
    expected = (s2 / tau, s2 / (2 * tau ** 2), s2 / (12 * tau ** 3))
    for est, se, truth in zip(fit["coefficients"], fit["std_errors"], expected):
        assert abs(est - truth) < 3 * se
        assert se < abs(truth)    # meaningful measurement, not noise


@pytest.mark.parametrize("pick", [math.nan, math.inf, 0.205])
def test_growth_coefficients_rejects_a_time_off_the_samples(pick):
    # argmin over all-nan or all-inf distances is 0: neither may become 0.02
    stats = simulate_ensemble(WavepacketEquilibrium(1e-6, 1.0), 100, 0.01, 1.0)
    with pytest.raises(ValidationError, match="not among the sampled times"):
        growth_coefficients(stats, [0.2, 0.4, pick])


@pytest.mark.parametrize("picks", ["abc", [0.2, None, 0.6], 5])
def test_growth_coefficients_rejects_picks_that_are_not_numbers(picks):
    stats = simulate_ensemble(WavepacketEquilibrium(1e-6, 1.0), 100, 0.01, 1.0)
    with pytest.raises(ValidationError, match="^pick_times "):
        growth_coefficients(stats, picks)


def test_single_trajectory_paths(eq_ref):
    from cslwalk.wavepacket import TrajectoryState, single_trajectory
    tau = eq_ref.tau_s
    path = single_trajectory(eq_ref, dt=tau / 60, t_end=2 * tau, seed=4)
    assert path[0] == TrajectoryState(0.0, 0.0, 0.0)
    assert not hasattr(path[0], "__dict__")      # slotted: no per-state dict
    assert len(path) == 121
    assert path == single_trajectory(eq_ref, dt=tau / 60, t_end=2 * tau, seed=4)
    # statistics sanity on many single paths: Var(b_I(t)) = s^2 t / (4 tau)
    finals = [single_trajectory(eq_ref, dt=tau / 50, t_end=2 * tau,
                                seed=k)[-1].b_imag for k in range(400)]
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

@pytest.mark.parametrize("steps", [1, 49, 50, 99, 100, 149, 5000])
def test_ensemble_samples_at_most_99_times_on_the_grid(steps):
    stats = simulate_ensemble(WavepacketEquilibrium(1e-6, 1.0), n_traj=100,
                              dt=1.0, t_end=float(steps), method="exact-b15")
    ks = [int(t) for t in stats.times]
    assert list(stats.times) == [float(k) for k in ks]    # on the dt grid
    assert all(a < b for a, b in zip([0] + ks, ks))       # strictly rising
    assert ks[-1] == steps
    assert len(ks) <= 99
    if steps == 99:
        assert len(ks) == 99


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

    # one block of 100 trajectories over 99 steps, sampled at every step
    # (one EM step per interval), compared at steps 50 and 99
    stats = simulate_ensemble(eq_ref, n_traj=100, dt=dt, t_end=99 * dt, seed=5)
    assert len(stats.times) == 99
    ref = reference(5, 100, 99)
    for k in (50, 99):
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
    # the exact-b15 ensemble at three default sample times (dt = tau), and
    # the Euler-Maruyama path, whose values were captured before ensembles
    # stepped between sample times and keep every bit
    from cslwalk.wavepacket import EnsembleStats, TrajectoryState, single_trajectory
    tau = eq_ref.tau_s
    stats = simulate_ensemble(eq_ref, n_traj=300, dt=tau, t_end=3 * tau,
                              seed=13, method="exact-b15")
    assert stats == EnsembleStats(
        n_traj=300,
        times=(0.7135971251352693, 1.4271942502705386, 2.140791375405808),
        mean_Q=(1.64859151606141e-08, 9.94608822082503e-09, 3.41886660195207e-08),
        se_mean_Q=(3.2704203146036336e-08, 5.4431435520573416e-08,
                   7.809516810580786e-08),
        mean_sq_Q=(3.200716915204297e-13, 8.859704953471684e-13,
                   1.824726594045037e-12),
        se_mean_sq_Q=(2.6591169545954112e-14, 6.977657722154728e-14,
                      1.4543617203897962e-13),
        mean_sq_P=(1.7631604671676916e-42, 3.1705328479364026e-42,
                   4.641090078397803e-42),
        se_mean_sq_P=(1.4761026639767606e-43, 2.5680181899685603e-43,
                      3.697499951928853e-43),
        cov_mean_sq_Q=(
            (7.070902978216774e-28, 1.2137567700329536e-27, 2.086214498474715e-27),
            (1.2137567700329536e-27, 4.86877072875455e-27, 8.652095974366867e-27),
            (2.086214498474715e-27, 8.652095974366867e-27,
             2.1151680137351678e-26)))
    em = single_trajectory(eq_ref, dt=tau / 60, t_end=2 * tau, seed=4)
    assert em[-1] == TrajectoryState(-2.9753360767791234e-07,
                                     -1.0623581222820287e-07, 1.4271942502705386)


@pytest.mark.parametrize("workers", [1, 2])
def test_pinned_euler_ensemble_over_two_blocks(eq_ref, workers):
    # 4200 trajectories, a full block of 4096 and a partial one, over
    # t_end = 101 dt: 51 sample times two steps apart, the last one step
    # after the one before.  The sha256 of every field's float64 bytes was
    # captured when each block held <P> and the squares as matrices of
    # their own.
    tau = eq_ref.tau_s
    stats = simulate_ensemble(eq_ref, n_traj=4200, dt=tau / 50,
                              t_end=101 * (tau / 50), seed=21, workers=workers)
    assert len(stats.times) == 51
    assert stats.mean_sq_Q[-1] == 8.199427204598941e-13
    assert stats.se_mean_sq_P[-1] == 6.627000455759464e-44
    fields = [np.ravel(np.asarray(getattr(stats, f.name), dtype="<f8"))
              for f in dataclasses.fields(stats)]
    assert hashlib.sha256(np.concatenate(fields).tobytes()).hexdigest() == (
        "1a2f8559e495c278a76bdb47e2874af8cc28d64a82409da5f74178ed39baef63")


def test_ensemble_block_holds_one_sample_matrix(eq_ref):
    # 2e4 trajectories over 1000 steps (50 samples), one worker: a block
    # holds one 50 x 4096 matrix of <Q> (1.6 MB), where five such matrices
    # took a traced peak of 8.5 MB
    tau = eq_ref.tau_s
    tracemalloc.start()
    try:
        simulate_ensemble(eq_ref, n_traj=20_000, dt=tau / 50,
                          t_end=1000 * (tau / 50), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
