import math

import numpy as np
import pytest

from cslwalk import (CONSTANTS, CslParams, Disc, Environment, Sphere,
                     ValidationError, ValidityWarning, combined_rms,
                     csl_rms_rotation, csl_rms_translation, energy_gain_rates,
                     equilibrium_series_rms, equilibrium_table,
                     equilibrium_width, f_sphere, qm_baseline_rotation,
                     qm_baseline_translation, time_to_rotation,
                     vacuum_diffusion_table, xi_molecular, xi_rotational,
                     xi_slip_corrected)
from cslwalk.diffusion import WavepacketEquilibrium

from conftest import damped_rms, matches_1sf

DAY = 86400.0
T0 = CONSTANTS.room_temperature_T0


# ---------------------------------------------------------------------------
# collapse-only translation

def test_translation_prefactor_one_day(grw):
    # with f = 1, one day of undamped collapse noise walks the body 6.5 cm
    assert csl_rms_translation(grw, 1.0, DAY) == pytest.approx(6.5, rel=0.02)


def test_translation_time_scaling_is_cubic(grw):
    r1 = csl_rms_translation(grw, 0.62, 100.0)
    r2 = csl_rms_translation(grw, 0.62, 400.0)
    slope = math.log(r2 / r1) / math.log(4.0)
    assert slope == pytest.approx(1.5, abs=1e-12)


def test_translation_independent_of_density(grw):
    # the rms displacement knows the body only through f
    vals = [csl_rms_translation(grw, 0.5, 1e3) for _ in range(3)]
    assert vals[0] == vals[1] == vals[2]
    assert csl_rms_translation(grw, 0.5, 0.0) == 0.0


def test_translation_rejects_bad_inputs(grw):
    with pytest.raises(ValidationError):
        csl_rms_translation(grw, 1.5, 1.0)
    with pytest.raises(ValidationError):
        csl_rms_translation(grw, 1.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_entry_points_reject_nonfinite_inputs(grw, bad):
    sphere, disc = Sphere(1e-5, 1.0), Disc(2e-5, 0.5e-5, 1.0)
    eq = WavepacketEquilibrium(1e-10, 1.0)
    calls = [lambda: csl_rms_translation(grw, 1.0, bad),
             lambda: csl_rms_translation(grw, bad, 1.0),
             lambda: csl_rms_rotation(grw, 0.3, bad),
             lambda: csl_rms_rotation(grw, bad, 1.0),
             lambda: combined_rms(1e-9, sphere, Environment(temperature=T0),
                                  grw, 0.6, bad),
             lambda: qm_baseline_translation(sphere, bad),
             lambda: qm_baseline_rotation(disc, bad),
             lambda: equilibrium_series_rms(eq, bad)]
    for k, call in enumerate(calls):
        with pytest.raises(ValidationError):
            call()
            pytest.fail(f"call {k} accepted {bad}")


def test_entry_points_reject_results_beyond_float_range(grw):
    # t^3 or the target angle squared overflows, or a^2 underflows to 0;
    # combined_rms overflows past tau (tau = 4e15 s, and the collapse part
    # (M/xi)^2 c t is 2e318) and before it (tau = 4e285 s, c t^3 / 3 is 4e316)
    tiny_a = CslParams(lam=1e-16, a=1e-300)
    sphere, env = Sphere(1e-5, 1.0), Environment(temperature=T0)
    calls = [lambda: csl_rms_translation(grw, 1.0, 1e300),
             lambda: csl_rms_translation(tiny_a, 1.0, 1.0),
             lambda: csl_rms_rotation(grw, 0.3, 1e300),
             lambda: csl_rms_rotation(tiny_a, 0.3, 1.0),
             lambda: time_to_rotation(grw, 0.3, 1e300),
             lambda: time_to_rotation(tiny_a, 0.3, 1.0),
             lambda: combined_rms(1e-30, sphere, env, grw, 0.6, 1e300),
             lambda: combined_rms(1e-300, sphere, env, grw, 0.6, 1e110),
             lambda: combined_rms(1e-9, sphere, env, tiny_a, 0.6, 1.0)]
    for k, call in enumerate(calls):
        with pytest.raises(ValidationError, match="floating-point range"):
            call()
            pytest.fail(f"call {k} returned")


def test_energy_gain_rates_rejects_a_underflow():
    # a^2 underflows to 0
    with pytest.raises(ValidationError, match="floating-point range"):
        energy_gain_rates(CslParams(lam=1e-16, a=1e-300), Sphere(1e-5, 1.0), 1.0)


def test_equilibrium_series_rms_rejects_overflow():
    # t / tau_s overflows to inf, and with it the spread
    with pytest.raises(ValidationError, match="floating-point range"):
        equilibrium_series_rms(WavepacketEquilibrium(1e-10, 1e-200), 1e300)


def test_ten_micron_sphere_day_walk(grw):
    # the flagship example: ~60 microns in 1000 s, ~5 cm in a day
    f = f_sphere(1.0).value
    assert csl_rms_translation(grw, f, 1e3) == pytest.approx(60e-4, rel=0.1)
    assert csl_rms_translation(grw, f, DAY) == pytest.approx(5.0, rel=0.1)


# ---------------------------------------------------------------------------
# reference tables

# quoted to one significant figure; the two t=10 entries marked with
# trailing comments were printed inconsistently with the exact t^{3/2}
# column scaling (each row must step by exactly 10^1.5 = 31.6 per decade
# and a half of t), so the scaling-consistent values are asserted instead.
TABLE1 = {
    (1e-6, 10.0): 8e-6, (1e-6, 1e3): 8e-3, (1e-6, 1e5): 8.0,
    (1e-5, 10.0): 6e-6, (1e-5, 1e3): 6e-3, (1e-5, 1e5): 6.0,
    (1e-4, 10.0): 2e-7, (1e-4, 1e3): 2e-4, (1e-4, 1e5): 2e-1,
    (1e-2, 10.0): 2e-11,   # printed as 6e-11
    (1e-2, 1e3): 2e-8, (1e-2, 1e5): 2e-5,
    (1.0, 10.0): 2e-15,    # printed as 6e-15
    (1.0, 1e3): 2e-12, (1.0, 1e5): 2e-9,
}

TABLE2 = {
    1e-6: (7e-5, 20.0),
    1e-5: (4e-7, 0.6),
    1e-4: (1e-8, 0.6),
    1e-2: (4e-11, 6.0),
    1.0: (1e-13, 60.0),
}


def test_vacuum_diffusion_table_matches_reference():
    rows = {row["R_cm"]: row for row in vacuum_diffusion_table()}
    for (R, t), quoted in TABLE1.items():
        got = rows[R][f"dq_cm_t{t:g}"]
        assert matches_1sf(got, quoted), (R, t, got, quoted)


def test_vacuum_table_rows_scale_exactly():
    # adjacent time columns differ by exactly 1000^{1/2} per row
    for row in vacuum_diffusion_table():
        assert row["dq_cm_t1000"] / row["dq_cm_t10"] == pytest.approx(
            1000.0, rel=1e-9)
        assert row["dq_cm_t100000"] / row["dq_cm_t1000"] == pytest.approx(
            1000.0, rel=1e-9)


def test_equilibrium_table_matches_reference():
    rows = {row["R_cm"]: row for row in equilibrium_table()}
    for R, (s_q, tau_q) in TABLE2.items():
        assert matches_1sf(rows[R]["s_inf_cm"], s_q), (R, rows[R])
        # the relaxation-time reference column was evidently tabulated with
        # a slightly different large-R asymptote; one grid step of slack
        assert matches_1sf(rows[R]["tau_s_s"], tau_q, allow_adjacent=True), \
            (R, rows[R])


def test_equilibrium_width_flagship_row(grw):
    eq = equilibrium_width(grw, Sphere(1e-5, 1.0))
    assert eq.s_inf == pytest.approx(4e-7, rel=0.1)
    assert eq.tau_s == pytest.approx(0.7, rel=0.05)


def test_equilibrium_asymptotic_coefficients(grw):
    # small-R and large-R closed-form coefficients of s_inf and tau_s;
    # the small-R probe is deliberately outside the validity flags
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", ValidityWarning)
        eq_small = equilibrium_width(grw, Sphere(1e-7, 1.0), f=1.0)
    assert eq_small.s_inf == pytest.approx(
        3.76e-7 * (1e-5 / 1e-7) ** 2.25, rel=0.01)
    assert eq_small.tau_s == pytest.approx(0.563 * (1e-5 / 1e-7) ** 1.5, rel=0.01)
    R = 1.0
    eq_big = equilibrium_width(grw, Sphere(R, 1.0), f=6.0 * (1e-5 / R) ** 4)
    assert eq_big.tau_s == pytest.approx(0.23 * (R / 1e-5) ** 0.5, rel=0.01)


def test_equilibrium_validity_flags(grw):
    # N ~ 2.5e6 < 3e7, and consequently s_inf is no longer small against a:
    # both flags fire, neither rejects
    with pytest.warns(ValidityWarning) as record:
        equilibrium_width(grw, Sphere(1e-6, 1.0))
    messages = " | ".join(str(w.message) for w in record)
    assert "nucleons" in messages and "not small" in messages
    with pytest.raises(ValidationError):
        equilibrium_width(grw, Disc(2e-5, 0.5e-5, 1.0))   # needs explicit f


# ---------------------------------------------------------------------------
# combined gas + collapse diffusion

def test_combined_reduces_to_brownian_when_lambda_off():
    # the short- and long-time forms are the limits of the exact rms, with
    # the next terms of their ratios, 1 - 3x/8 and 1 - 3/(4x), x = t/tau
    body = Sphere(1e-5, 1.0)
    env = Environment.from_torr(T0, 1e-12)
    xi = xi_molecular(body, env)
    tau = body.mass() / xi
    kT = env.kT
    for x in (1e-3, 1e-2):
        t = x * tau
        got = combined_rms(xi, body, env, None, 0.0, t)
        short = math.sqrt(2 * kT * xi * t ** 3 / (3 * body.mass() ** 2))
        assert abs(got / short - (1 - 3 * x / 8)) <= x ** 2, x
    for x in (1e2, 1e3):
        t = x * tau
        got = combined_rms(xi, body, env, None, 0.0, t)
        long = math.sqrt(2 * kT * t / xi)
        assert abs(got / long - (1 - 3 / (4 * x))) <= 1 / x ** 2, x
    # and the exact damped variance at 60 digits is the same
    for t in (1e-3 * tau, tau, 1e3 * tau):
        exact = damped_rms(kT, xi, body.mass(), t)
        assert combined_rms(xi, body, env, None, 0.0, t) == pytest.approx(
            exact, rel=4e-15, abs=0)


# t / tau from 1e-8 to 1e4, and either side of the decade the asymptotes
# left out
EXACT_XS = [10.0 ** (-8 + 12 * k / 240) for k in range(241)] + [1.0, 0.0999, 10.01]


def test_combined_is_exact_at_every_time(grw):
    # collapse off and on, against the 60-digit reference
    body = Sphere(1e-5, 1.0)
    env = Environment.from_torr(T0, 1e-12)
    xi, M = xi_molecular(body, env), body.mass()
    m, f = CONSTANTS.m_nucleon, 0.62
    rate = grw.lam * CONSTANTS.hbar ** 2 * f / (2 * m ** 2 * grw.a ** 2)
    for x in EXACT_XS:
        t = x * M / xi
        assert combined_rms(xi, body, env, None, 0.0, t) == pytest.approx(
            damped_rms(env.kT, xi, M, t), rel=4e-15, abs=0), x
        assert combined_rms(xi, body, env, grw, f, t) == pytest.approx(
            damped_rms(env.kT, xi, M, t, rate), rel=4e-15, abs=0), x


def test_combined_rotation_is_exact_at_every_time(grw):
    # the reference disc in 4.2 K gas at 1e-6 Torr, where tau_rot = I/xi is
    # 3.3 s (at 5e-17 Torr it is 6.7e10 s); collapse off and on
    disc = Disc(2e-5, 0.5e-5, 1.0)
    env = Environment.from_torr(4.2, 1e-6)
    xi, inertia = xi_rotational(disc, env, "molecular"), disc.moment_of_inertia()
    m, f_rot = CONSTANTS.m_nucleon, 0.3
    rate = grw.lam * (CONSTANTS.hbar / (m * grw.a ** 2)) ** 2 * f_rot / 4
    for x in EXACT_XS:
        t = x * inertia / xi
        assert combined_rms(xi, disc, env, None, 0.0, t, mode="rotation") == \
            pytest.approx(damped_rms(env.kT, xi, inertia, t), rel=4e-15, abs=0), x
        assert combined_rms(xi, disc, env, grw, f_rot, t, mode="rotation") == \
            pytest.approx(damped_rms(env.kT, xi, inertia, t, rate),
                          rel=4e-15, abs=0), x


def test_combined_rotation_limits(grw):
    # the short- and long-time forms sqrt(q t^3 / 3) and sqrt(q tau^2 t),
    # q = 2 kT xi / I^2 + c, with the next terms of their ratios,
    # 1 - 3x/8 and 1 - 3/(4x), x = t / tau; collapse off and on
    disc = Disc(2e-5, 0.5e-5, 1.0)
    env = Environment.from_torr(4.2, 1e-6)
    xi, inertia = xi_rotational(disc, env, "molecular"), disc.moment_of_inertia()
    tau = inertia / xi
    c = grw.lam * (CONSTANTS.hbar / (CONSTANTS.m_nucleon * grw.a ** 2)) ** 2 * 0.3 / 4
    for csl, rate in ((None, 0.0), (grw, c)):
        q = 2 * env.kT * xi / inertia ** 2 + rate
        for x in (1e-3, 1e-2, 1e2, 1e3):
            t = x * tau
            got = combined_rms(xi, disc, env, csl, 0.3, t, mode="rotation")
            if x < 1:
                assert abs(got / math.sqrt(q * t ** 3 / 3)
                           - (1 - 3 * x / 8)) <= x ** 2, x
            else:
                assert abs(got / math.sqrt(q * tau ** 2 * t)
                           - (1 - 3 / (4 * x))) <= 1 / x ** 2, x


def test_combined_without_drag_is_the_collapse_walk(grw):
    body, env = Sphere(1e-5, 1.0), Environment(temperature=T0)
    for t in (1e-3, 1.0, 10.0, DAY, 1e9):
        want = csl_rms_translation(grw, 0.62, t)
        got = combined_rms(0.0, body, env, grw, 0.62, t)
        assert abs(got - want) <= 2 * math.ulp(want), t


def test_combined_rotation_without_drag_is_the_collapse_rotation(grw):
    disc, env = Disc(2e-5, 0.5e-5, 1.0), Environment(temperature=T0)
    for t in (1e-3, 1.0, 10.0, DAY, 1e9):
        want = csl_rms_rotation(grw, 0.3, t)
        got = combined_rms(0.0, disc, env, grw, 0.3, t, mode="rotation")
        assert abs(got - want) <= 2 * math.ulp(want), t


def test_combined_checks_the_factor_of_its_mode(grw):
    # a translation factor lies in [0, 1]; a rotation factor is nonnegative
    disc, env = Disc(2e-5, 0.5e-5, 1.0), Environment(temperature=T0)
    with pytest.raises(ValidationError, match="^f "):
        combined_rms(1e-20, disc, env, grw, 1.5, 1.0)
    assert combined_rms(1e-20, disc, env, grw, 1.5, 1.0, mode="rotation") > 0
    with pytest.raises(ValidationError, match="^f "):
        combined_rms(1e-20, disc, env, grw, -0.1, 1.0, mode="rotation")


@pytest.mark.parametrize("mode", ["spin", "Rotation", None])
def test_combined_rejects_an_unknown_mode(grw, mode):
    with pytest.raises(ValidationError, match="mode must be"):
        combined_rms(1e-9, Sphere(1e-5, 1.0), Environment(T0), grw, 0.6, 1.0,
                     mode=mode)


def test_combined_viscous_realm_collapse_part(grw):
    # in air the collapse part of the long-time rms is ~3e-11 sqrt(t days) cm,
    # independent of R for R >= 1e-5 cm (the M/xi damping grows as R^2 while
    # sqrt(f) falls as R^-2); evaluated directly since it sits 10 orders
    # below the thermal part
    env = Environment(temperature=T0, gas_viscosity=2e-4)
    m = CONSTANTS.m_nucleon
    for R in (1e-4, 1e-2, 1.0):
        body = Sphere(R, 1.0)
        f = f_sphere(R / grw.a).value
        xi = 6 * math.pi * env.gas_viscosity * R
        vel_rate = grw.lam * CONSTANTS.hbar ** 2 * f / (2 * m ** 2 * grw.a ** 2)
        csl_part = (body.mass() / xi) * math.sqrt(vel_rate * DAY)
        assert csl_part == pytest.approx(3e-11, rel=0.25), R
        # and the combined quadrature sum is consistent with its two pieces
        brown = combined_rms(xi, body, env, None, 0.0, DAY)
        both = combined_rms(xi, body, env, grw, f, DAY)
        assert both ** 2 == pytest.approx(brown ** 2 + csl_part ** 2, rel=1e-9, abs=0)


def test_combined_viscous_realm_brownian_part():
    # slip-corrected 1e-5 sphere: ~0.6 sqrt(t days) cm; R = 1: ~1.4e-3
    env = Environment(temperature=T0, gas_viscosity=2e-4)
    body = Sphere(1e-5, 1.0)
    xi = xi_slip_corrected(1e-5, 2e-4, 0.6e-5)
    assert combined_rms(xi, body, env, None, 0.0, DAY) == \
        pytest.approx(0.6, rel=0.05)
    big = Sphere(1.0, 1.0)
    xi_big = 6 * math.pi * 2e-4 * 1.0
    assert combined_rms(xi_big, big, env, None, 0.0, DAY) == \
        pytest.approx(1.4e-3, rel=0.05)


def test_combined_molecular_realm_parts(grw):
    # at 1 pT the thermal part is ~2e-4 t^{3/2} and the collapse part
    # ~2e-7 t^{3/2} (f = 0.62)
    body = Sphere(1e-5, 1.0)
    env = Environment.from_torr(T0, 1e-12)
    xi = xi_molecular(body, env)
    t = 10.0
    brown = combined_rms(xi, body, env, None, 0.0, t)
    assert brown / t ** 1.5 == pytest.approx(2e-4, rel=0.1)
    csl_only = csl_rms_translation(grw, 0.62, t)
    assert csl_only / t ** 1.5 == pytest.approx(2e-7, rel=0.03)


def test_molecular_short_time_scaling_exponents():
    # rms scales as p^{1/2} T^{1/4} / D in the free-molecular short-time
    # form, times its first correction 1 - 3x/8, x = t xi / M (about 7e-8)
    def rms(p_torr, T, D):
        body = Sphere(1e-5, D)
        env = Environment.from_torr(T, p_torr)
        xi = xi_molecular(body, env)
        return (combined_rms(xi, body, env, None, 0.0, 10.0),
                1 - 3 * 10.0 * xi / (8 * body.mass()))

    base, base_corr = rms(1e-12, T0, 1.0)
    for args, ratio in (((4e-12, T0, 1.0), 2.0), ((1e-12, 16 * T0, 1.0), 2.0),
                        ((1e-12, T0, 2.0), 0.5)):
        got, corr = rms(*args)
        assert got / base == pytest.approx(ratio * corr / base_corr, rel=1e-9)


def test_radiation_walk_temperature_scaling():
    # drag ~ T^8, so the short-time thermal walk scales as T^{9/2}, times its
    # first correction 1 - 3x/8, x = t xi / M (about 6e-7 at 2 T0)
    from cslwalk import xi_radiation
    body = Sphere(1e-5, 1.0)

    def walk(T):
        xi = xi_radiation(body.radius, T)
        return (combined_rms(xi, body, Environment(T), None, 0.0, 1e5),
                1 - 3 * 1e5 * xi / (8 * body.mass()))

    (hot, hot_corr), (cold, cold_corr) = walk(2 * T0), walk(T0)
    assert hot / cold == pytest.approx(2 ** 4.5 * hot_corr / cold_corr, rel=1e-9)


def test_combined_at_the_crossover():
    # t = tau, where neither asymptote holds: sqrt(2 kT M B(1)) / xi
    body = Sphere(1e-5, 1.0)
    env = Environment.from_torr(T0, 1e-12)
    xi = xi_molecular(body, env)
    tau = body.mass() / xi
    got = combined_rms(xi, body, env, None, 0.0, tau)
    assert got == pytest.approx(damped_rms(env.kT, xi, body.mass(), tau),
                                rel=4e-15, abs=0)
    # B(1) = 1 - 3/2 + 2/e - 1/(2 e^2), about 0.168
    b1 = -0.5 + 2 / math.e - 0.5 / math.e ** 2
    assert got == pytest.approx(math.sqrt(2 * env.kT * body.mass() * b1) / xi,
                                rel=1e-12)


# ---------------------------------------------------------------------------
# rotation

def test_rotation_prefactor(grw):
    # 0.018 f^{1/2} t^{3/2} rad
    assert csl_rms_rotation(grw, 1.0, 1.0) == pytest.approx(0.018, rel=0.03)


def test_rotation_headline_times(grw):
    t_fast = time_to_rotation(grw, 1.0 / 3.0, 2 * math.pi)
    assert t_fast == pytest.approx(70.0, rel=0.10)
    slow = CslParams(lam=1e-20, a=1e-5)
    t_slow = time_to_rotation(slow, 1.0 / 3.0, 2 * math.pi)
    assert t_slow / 60.0 == pytest.approx(25.0, rel=0.15)
    # round trip
    assert csl_rms_rotation(grw, 1.0 / 3.0, t_fast) == pytest.approx(
        2 * math.pi, rel=1e-12)


def test_rotation_zero_factor(grw):
    assert csl_rms_rotation(grw, 0.0, 1e4) == 0.0


# ---------------------------------------------------------------------------
# one collapse-noise rate across the parameter map

# lam from below to far above the GRW value, a either side of the 1e-5 cm
# body size
CSL_GRID = [pytest.param(CslParams(lam=lam, a=a), id=f"lam={lam:g}-a={a:g}")
            for lam in (1e-20, 1e-16, 1e-8) for a in (1e-7, 1e-5, 1e-3)]
MODES = ["translation", "rotation"]


def _noise_rate(csl, f, mode):
    """The collapse white-noise rate, written out independently of the
    library: lam hbar^2 f / (2 m^2 a^2) in translation and
    lam (hbar / m a^2)^2 f / 4 in rotation."""
    m, hbar = CONSTANTS.m_nucleon, CONSTANTS.hbar
    if mode == "rotation":
        return csl.lam * (hbar / (m * csl.a ** 2)) ** 2 * f / 4
    return csl.lam * hbar ** 2 * f / (2 * m ** 2 * csl.a ** 2)


@pytest.mark.parametrize("csl", CSL_GRID)
def test_translation_walk_reads_the_noise_rate(csl):
    for t in (1.0, 60.0, DAY):
        rms = csl_rms_translation(csl, 0.62, t)
        assert 3 * rms ** 2 / t ** 3 == pytest.approx(
            _noise_rate(csl, 0.62, "translation"), rel=1e-13, abs=0), t


@pytest.mark.parametrize("csl", CSL_GRID)
def test_rotation_walk_reads_the_noise_rate(csl):
    for t in (1.0, 60.0, DAY):
        rms = csl_rms_rotation(csl, 0.3, t)
        assert 3 * rms ** 2 / t ** 3 == pytest.approx(
            _noise_rate(csl, 0.3, "rotation"), rel=1e-13, abs=0), t


@pytest.mark.parametrize("angle", [math.pi / 2, 2 * math.pi])
@pytest.mark.parametrize("csl", CSL_GRID)
def test_rotation_time_inverts_the_rotation_walk(csl, angle):
    t = time_to_rotation(csl, 0.3, angle)
    assert t == pytest.approx((3 * angle ** 2 / _noise_rate(csl, 0.3, "rotation"))
                              ** (1 / 3), rel=1e-13, abs=0)
    assert csl_rms_rotation(csl, 0.3, t) == pytest.approx(angle, rel=1e-13, abs=0)


def _body_and_drag(mode):
    """The reference sphere in room-temperature gas at 1e-12 Torr, or the
    reference disc in 4.2 K gas at 1e-6 Torr, with its molecular drag."""
    if mode == "rotation":
        disc, env = Disc(2e-5, 0.5e-5, 1.0), Environment.from_torr(4.2, 1e-6)
        return disc, env, xi_rotational(disc, env, "molecular"), 0.3
    sphere, env = Sphere(1e-5, 1.0), Environment.from_torr(T0, 1e-12)
    return sphere, env, xi_molecular(sphere, env), 0.62


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("csl", CSL_GRID)
def test_combined_without_drag_is_each_collapse_walk(csl, mode):
    body, env, _, f = _body_and_drag(mode)
    walk = csl_rms_rotation if mode == "rotation" else csl_rms_translation
    for t in (1e-3, 1.0, DAY, 1e9):
        want = walk(csl, f, t)
        got = combined_rms(0.0, body, env, csl, f, t, mode=mode)
        assert abs(got - want) <= 2 * math.ulp(want), t


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("csl", CSL_GRID)
def test_combined_adds_the_noise_rate_to_the_thermal_rate(csl, mode):
    # against the 60-digit damped variance with q = 2 kT xi / I^2 + c
    body, env, xi, f = _body_and_drag(mode)
    inertia = body.moment_of_inertia() if mode == "rotation" else body.mass()
    rate = _noise_rate(csl, f, mode)
    for x in (1e-3, 0.3, 1.0, 30.0):
        t = x * inertia / xi
        assert combined_rms(xi, body, env, csl, f, t, mode=mode) == pytest.approx(
            damped_rms(env.kT, xi, inertia, t, rate), rel=4e-15, abs=0), x


# ---------------------------------------------------------------------------
# standard-QM baselines

def test_qm_translation_baseline():
    body = Sphere(1e-5, 1.0)
    assert qm_baseline_translation(body, 1e3) == pytest.approx(6e-6, rel=0.2)
    assert qm_baseline_translation(body, DAY) == pytest.approx(5e-4, rel=0.2)
    assert qm_baseline_translation(body, 0.0) == 0.0
    with pytest.raises(ValidationError):
        qm_baseline_translation(Disc(2e-5, 0.5e-5, 1.0), 1e3)


def test_qm_rotation_baseline():
    disc = Disc(2e-5, 0.5e-5, 1.0)
    # ~1e-3 t rad; (.1, 1, 86) rad at (100 s, 1000 s, 1 day)
    assert qm_baseline_rotation(disc, 1.0) == pytest.approx(1e-3, rel=0.1)
    assert qm_baseline_rotation(disc, 1e3) == pytest.approx(1.0, rel=0.2)
    assert qm_baseline_rotation(disc, DAY) == pytest.approx(86.0, rel=0.1)
    with pytest.raises(ValidationError):
        qm_baseline_rotation(Sphere(1e-5, 1.0), 1e3)


def test_csl_to_qm_rotation_ratios(grw):
    disc = Disc(2e-5, 0.5e-5, 1.0)
    for t, expect in ((100.0, 100.0), (1e3, 300.0), (DAY, 3000.0)):
        ratio = csl_rms_rotation(grw, 1.0 / 3.0, t) / qm_baseline_rotation(disc, t)
        assert ratio == pytest.approx(expect, rel=0.3)


# ---------------------------------------------------------------------------
# equilibrium growth law and energy rates

def test_equilibrium_series_values(grw):
    eq = WavepacketEquilibrium(s_inf=4e-7, tau_s=0.7)
    assert equilibrium_series_rms(eq, 0.0) == eq.s_inf
    expect = eq.s_inf * math.sqrt(1 + 1 + 0.5 + 1 / 12)
    assert equilibrium_series_rms(eq, eq.tau_s) == pytest.approx(
        expect, rel=1e-12, abs=0)


def test_equilibrium_series_cubic_term_matches_translation_law(grw):
    # s_inf^2/(12 tau_s^3) must equal lam hbar^2 f/(6 m^2 a^2) identically
    body = Sphere(1e-5, 1.0)
    f = f_sphere(1.0).value
    eq = equilibrium_width(grw, body, f=f)
    lhs = eq.s_inf ** 2 / (12.0 * eq.tau_s ** 3)
    m = CONSTANTS.m_nucleon
    rhs = grw.lam * CONSTANTS.hbar ** 2 * f / (6.0 * m ** 2 * grw.a ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=0)
    # so at late times the series reproduces the pure t^{3/2} walk
    # (subleading terms decay as 3 tau_s / t)
    t = 1e5 * eq.tau_s
    assert equilibrium_series_rms(eq, t) == pytest.approx(
        csl_rms_translation(grw, f, t), rel=1e-4)


def test_energy_gain_rates(grw):
    body = Sphere(1e-5, 1.0)
    rates = energy_gain_rates(grw, body, f=0.62)
    assert rates["cm_part"] / rates["total"] == pytest.approx(0.62, rel=1e-12, abs=0)
    full = energy_gain_rates(grw, body, f=1.0)
    assert full["cm_part"] == full["total"]
    # total = 3 lam hbar^2 N^2 / (4 M a^2): quadruples under N -> 2N at fixed M
    N, M = body.nucleon_count(), body.mass()
    manual = 3 * grw.lam * CONSTANTS.hbar ** 2 * N ** 2 / (4 * M * grw.a ** 2)
    assert rates["total"] == pytest.approx(manual, rel=1e-12, abs=0)
