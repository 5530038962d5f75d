import decimal
import math

import pytest

from cslwalk import (CONSTANTS, Disc, Environment, Sphere, ValidationError,
                     ValidityWarning, collision_stats, combined_rms,
                     molecular_flux, xi_molecular, xi_radiation, xi_rotational,
                     xi_slip_corrected, xi_stokes, xi_viscous_disc)
from cslwalk.brownian import check_realm

from conftest import (damped_rms, planck_moment, spectral_integral, spectral_xi,
                      xi_mirror)

T0 = CONSTANTS.room_temperature_T0
K = CONSTANTS.k_boltzmann


# ---------------------------------------------------------------------------
# the thermal walk: combined_rms without collapse

SPHERE = Sphere(1e-5, 1.0)
PTORR = Environment.from_torr(T0, 1e-12)


def thermal_walk(t, xi=None, body=SPHERE, env=PTORR, mode="translation"):
    """combined_rms with collapse off; xi defaults to the free-molecular
    drag on the reference sphere at 1 pTorr, where tau = M/xi is 1.4e8 s."""
    if xi is None:
        xi = xi_molecular(SPHERE, PTORR)
    return combined_rms(xi, body, env, None, 0.0, t, mode=mode)


def test_thermal_walk_starts_at_rest():
    assert thermal_walk(0.0) == 0.0


def test_thermal_walk_long_time_limit():
    xi = xi_molecular(SPHERE, PTORR)
    t = 100 * SPHERE.mass() / xi
    rms = thermal_walk(t)
    assert rms == pytest.approx(damped_rms(PTORR.kT, xi, SPHERE.mass(), t),
                                rel=4e-15, abs=0)
    assert rms ** 2 == pytest.approx(2 * PTORR.kT * t / xi, rel=0.02)


def test_thermal_walk_short_time_cubic():
    xi = xi_molecular(SPHERE, PTORR)
    M = SPHERE.mass()
    t = 0.01 * M / xi
    rms = thermal_walk(t)
    assert rms == pytest.approx(damped_rms(PTORR.kT, xi, M, t), rel=4e-15, abs=0)
    assert rms ** 2 == pytest.approx(2 * PTORR.kT * xi * t ** 3 / (3 * M ** 2),
                                     rel=0.01)


def test_thermal_walk_series_matches_direct_evaluation():
    # the series up to x = t/tau = 0.5 and the expm1 form above it, against
    # x - 3/2 + 2 e^-x - e^-2x / 2 at 60 digits, whose cancellation (about
    # 1e-27 relative at x = 1e-9) is then harmless; the rms within 2e-15 is
    # the variance within 4e-15
    xi, M = xi_molecular(SPHERE, PTORR), SPHERE.mass()
    xs = [10.0 ** (-9 + 13 * k / 3000) for k in range(3001)]
    xs += [0.5, math.nextafter(0.5, 1.0), 1e-3, 2e-3, 0.01, 0.1]
    for x in xs:
        t = x * M / xi
        assert thermal_walk(t) == pytest.approx(
            damped_rms(PTORR.kT, xi, M, t), rel=2e-15, abs=0), x


@pytest.mark.parametrize("call,bad", [
    (lambda: thermal_walk(1.0, env=Environment(-300.0)), "temperature"),
    (lambda: thermal_walk(-1.0), "t must"),
    (lambda: thermal_walk(1.0, xi=-1.0), "xi"),
])
def test_thermal_walk_rejects_bad_inputs_by_name(call, bad):
    with pytest.raises(ValidationError, match=bad):
        call()


@pytest.mark.parametrize("xi,t", [
    (1e-30, 1e300),    # tau = 4e15 s, so t is long, and 2 kT t / xi overflows
    (1e10, 1e300),     # t / tau overflows to inf, and with it the variance
])
def test_thermal_walk_rejects_results_beyond_float_range(xi, t):
    with pytest.raises(ValidationError, match="floating-point range"):
        thermal_walk(t, xi=xi, env=Environment(300.0))


# ---------------------------------------------------------------------------
# drag coefficients

def test_stokes_value_and_linearity():
    assert xi_stokes(1e-5, 2e-4) == pytest.approx(3.7699e-8, rel=1e-4)
    assert xi_stokes(2e-5, 2e-4) == pytest.approx(
        2 * xi_stokes(1e-5, 2e-4), rel=1e-6, abs=0)
    with pytest.raises(ValidationError):
        xi_stokes(1e-5, 0.0)


def test_slip_correction_limits():
    base = xi_stokes(1e-5, 2e-4)
    # vanishing mean free path recovers plain Stokes
    assert xi_slip_corrected(1e-5, 2e-4, 1e-12) == pytest.approx(
        base, rel=1e-6, abs=0)
    # specular coefficients at l_m = 0.6 R give the quoted ~47% reduction
    xi = xi_slip_corrected(1e-5, 2e-4, 0.6e-5)
    assert xi == pytest.approx(base / 1.9, rel=1e-9, abs=0)


def test_slip_specular_limit_equals_molecular_form():
    # with the specular coefficients and eta = (1/3) n m_g u l_m, the
    # l_m >> R limit must reproduce the free-molecular drag
    env = Environment.from_torr(T0, 1e-3)
    n, u, m_g = env.number_density(), env.mean_speed(), env.gas_molecular_mass
    R = 1e-5
    l_m = 1e5 * R
    eta = n * m_g * u * l_m / 3.0
    slip = xi_slip_corrected(R, eta, l_m)
    target = (4 * math.pi / 3) * n * m_g * u * R ** 2
    assert slip == pytest.approx(target, rel=1e-4, abs=0)


def test_molecular_sphere_identity_between_forms():
    env = Environment.from_torr(T0, 760.0)
    R = 1e-5
    xi = xi_molecular(Sphere(R, 1.0), env)
    n, u, m_g = env.number_density(), env.mean_speed(), env.gas_molecular_mass
    assert xi == pytest.approx((4 * math.pi / 3) * n * m_g * u * R ** 2, rel=1e-3)


def test_molecular_disc_orientation_ratio():
    env = Environment.from_torr(4.2, 1e-10)
    disc = Disc(radius=2e-5, thickness=0.5e-5, density=1.0)
    perp = xi_molecular(disc, env, "perp")
    edge = xi_molecular(disc, env, "edge")
    assert edge / perp == pytest.approx(
        disc.thickness / (2 * disc.radius), rel=1e-12, abs=0)
    with pytest.raises(ValidationError):
        xi_molecular(disc, env, "sideways")
    with pytest.raises(ValidationError):
        xi_molecular(Sphere(1e-5, 1.0), env, "perp")


def test_molecular_relaxation_time_scaling():
    # tau = M/xi scales as sqrt(T)/p; value at 1 pT, room T is ~1.4e8 s
    # (the often-quoted 2e9 s is inconsistent with the drag formula itself)
    body = Sphere(1e-5, 1.0)
    env = Environment.from_torr(T0, 1e-12)
    tau = body.mass() / xi_molecular(body, env)
    assert tau == pytest.approx(1.39e8, rel=0.02)
    env2 = Environment.from_torr(4 * T0, 2e-12)
    tau2 = body.mass() / xi_molecular(body, env2)
    assert tau2 / tau == pytest.approx(math.sqrt(4.0) / 2.0, rel=1e-9)


def test_xi_scales_linearly_with_number_density():
    body = Sphere(1e-5, 1.0)
    e1 = Environment.from_torr(100.0, 1e-12)
    e2 = Environment.from_torr(100.0, 3e-12)
    assert xi_molecular(body, e2) == pytest.approx(
        3 * xi_molecular(body, e1), rel=1e-6, abs=0)


def test_viscous_disc_values_and_ratio():
    assert xi_viscous_disc(1e-5, 1e-6, 2e-4, "perp") == pytest.approx(
        3.2e-8, rel=1e-6, abs=0)
    perp = xi_viscous_disc(1e-5, 1e-6, 2e-4, "perp")
    edge = xi_viscous_disc(1e-5, 1e-6, 2e-4, "edge")
    assert perp / edge == pytest.approx(1.5, rel=1e-12)
    assert xi_viscous_disc(2e-5, 1e-6, 2e-4, "perp") == pytest.approx(
        2 * perp, rel=1e-6, abs=0)
    with pytest.warns(ValidityWarning) as record:
        xi_viscous_disc(1e-5, 0.9e-5, 2e-4, "perp")
    assert record[0].filename == __file__     # the caller's line, not the guard's


def test_rotational_sphere_viscous():
    env = Environment(temperature=T0, gas_viscosity=2e-4)
    xi = xi_rotational(Sphere(1e-5, 1.0), env, "viscous")
    assert xi == pytest.approx(8 * math.pi * 2e-4 * 1e-15, rel=1e-9, abs=0)


def test_rotational_sphere_molecular_rejected():
    env = Environment.from_torr(4.2, 1e-12)
    with pytest.raises(ValidationError, match="torque"):
        xi_rotational(Sphere(1e-5, 1.0), env, "molecular")


def test_rotational_disc_relaxation_time():
    # I/xi_rot at 1 pT, room temperature, b = 0.5 du: about 2.5e7 s
    disc = Disc(radius=2e-5, thickness=0.5e-5, density=1.0)
    env = Environment.from_torr(T0, 1e-12)
    tau_rot = disc.moment_of_inertia() / xi_rotational(disc, env, "molecular")
    assert tau_rot == pytest.approx(2.5e7, rel=0.15)


def test_rotational_brownian_short_time_coefficient():
    # thermal rms rotation at 1 pT: ~40 t^{3/2} rad for the reference disc
    disc = Disc(radius=2e-5, thickness=0.5e-5, density=1.0)
    env = Environment.from_torr(T0, 1e-12)
    xi = xi_rotational(disc, env, "molecular")
    val = thermal_walk(1.0, xi, disc, env, mode="rotation")
    assert val == pytest.approx(80.0 / 2.0, rel=0.05)


# ---------------------------------------------------------------------------
# radiation drag

def test_planck_tail_integrals_match_closed_forms():
    # n! zeta(n), through the mirror and unit-sphere spectral densities
    z4, z8 = planck_moment(4), planck_moment(8)
    assert z4 == pytest.approx(4 * math.pi ** 4 / 15, rel=1e-6)
    assert z8 == pytest.approx((2 * math.pi) ** 8 / 60, rel=1e-6)
    # of order 8! as a sanity anchor
    assert z8 == pytest.approx(math.factorial(8), rel=0.01)


def test_radiation_drag_value_and_scaling():
    xi = xi_radiation(1e-5, T0)
    # quoted value 4e-29 g/s is reproducible only within a factor ~2.5
    # (it assumes a colder room-temperature convention than 293.15 K)
    assert xi / 4e-29 < 2.5 and 4e-29 / xi < 2.5
    assert xi_radiation(1e-5, 2 * T0) == pytest.approx(256 * xi, rel=1e-9, abs=0)
    assert xi_radiation(2e-5, T0) == pytest.approx(64 * xi, rel=1e-9, abs=0)


def test_radiation_relaxation_time_and_displacement():
    body = Sphere(1e-5, 1.0)
    xi = xi_radiation(1e-5, T0)
    tau = body.mass() / xi
    assert 2.5e13 < tau < 2.5e14          # quoted 1e14, same factor-2.5 caveat
    # a day of room-temperature radiation kicks: centimeters
    dx = thermal_walk(86400.0, xi, body, Environment(T0))
    assert 4.0 < dx < 15.0
    # liquid-helium temperature: utterly negligible (about 4e-8 cm quoted)
    xi_cold = xi_radiation(1e-5, 4.2)
    dx_cold = thermal_walk(86400.0, xi_cold, body, Environment(4.2))
    assert dx_cold == pytest.approx(4e-8, rel=0.5)


def test_mirror_drag_scalings():
    xi = xi_mirror(1.0, T0)
    assert xi_mirror(2.0, T0) == pytest.approx(2 * xi, rel=1e-12, abs=0)
    assert xi_mirror(1.0, 2 * T0) == pytest.approx(16 * xi, rel=1e-9, abs=0)


def test_spectral_density_integrates_to_closed_form():
    # sphere: frequency integral must equal the closed-form drag to 1e-4
    R, T = 1e-5, T0
    total = spectral_integral(T, "dielectric-sphere", R=R)
    assert total == pytest.approx(xi_radiation(R, T), rel=1e-4, abs=0)
    # mirror (per unit area) likewise
    total_m = spectral_integral(T, "mirror-per-area")
    assert total_m == pytest.approx(xi_mirror(1.0, T), rel=1e-4, abs=0)


def test_spectral_density_limits_and_scaling():
    assert spectral_xi(0.0, T0, "mirror-per-area") == 0.0
    lo = spectral_xi(1e8, T0, "dielectric-sphere", R=1e-5)
    assert spectral_xi(1e8, T0, "dielectric-sphere", R=2e-5) == pytest.approx(
        64 * lo, rel=1e-12, abs=0)
    with pytest.raises(ValidationError):
        spectral_xi(1e10, T0, "dielectric-sphere")   # missing R


def test_spectral_density_low_frequency_tail():
    # deep in the low-frequency tail the mirror density is the classical
    # equipartition form 4 pi kT nu^2 / c^4: finite, tiny, and ~nu^2, also
    # where z = h nu / kT is far below the root of the smallest float
    kT = K * T0
    for nu in (1e-100, 1.0, 1e3):
        got = spectral_xi(nu, T0, "mirror-per-area")
        expect = 4 * math.pi * kT * nu ** 2 / CONSTANTS.c ** 4
        assert got == pytest.approx(expect, rel=1e-12, abs=0)
    assert spectral_xi(2.0, T0, "mirror-per-area") == pytest.approx(
        4 * spectral_xi(1.0, T0, "mirror-per-area"), rel=1e-9, abs=0)
    # a density that underflows is 0, not an error, also inside an array
    assert spectral_xi([1e-200, 1e3], T0).tolist() == [0.0, spectral_xi(1e3, T0)]


@pytest.mark.parametrize("R", [None, 1e-5])     # mirror, sphere
@pytest.mark.parametrize("z", [1e-100, 1e-30, 1e-8, 1e-6, 1e-3, 0.1, 1.0, 3.0,
                               10.0, 30.0, 70.0, 150.0])
def test_spectral_density_matches_a_130_digit_planck_factor(z, R):
    # g = z^2 e^z / (e^z - 1)^2 keeps 30 of 130 digits at z = 1e-100
    h, D, pi = 2 * math.pi * CONSTANTS.hbar, decimal.Decimal, decimal.Decimal(math.pi)
    nu = z * K * T0 / h
    with decimal.localcontext() as ctx:
        ctx.prec = 130
        kT, x = D(K) * D(T0), D(nu) / D(CONSTANTS.c)
        zd = D(h) * D(nu) / kT
        g = zd ** 2 * zd.exp() / (zd.exp() - 1) ** 2
        pref = 4 * pi * x ** 2 if R is None else (
            (2 * pi) ** 4 * (8 * pi / 3) ** 2 * D(R) ** 6 * x ** 6)
        expect = float(pref * kT * g / D(CONSTANTS.c) ** 2)
    target = "mirror-per-area" if R is None else "dielectric-sphere"
    assert spectral_xi(nu, T0, target, R) == pytest.approx(expect, rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# impact realm

def test_collision_stats_reference_conditions():
    env = Environment.from_torr(4.2, 5e-17)
    assert env.number_density() == pytest.approx(115.0, rel=0.01)
    assert env.mean_speed() == pytest.approx(5.6e3, rel=0.01)
    assert molecular_flux(env) == pytest.approx(1.5e5, rel=0.15)

    sphere = collision_stats(Sphere(1e-5, 1.0), env)
    assert sphere["tau_c"] / 60 == pytest.approx(80.0, rel=0.15)
    assert set(sphere) == {"tau_c", "delta_v"}

    disc = collision_stats(Disc(2e-5, 0.5e-5, 1.0), env)
    assert disc["tau_c"] / 60 == pytest.approx(45.0, rel=0.15)
    assert disc["omega_kick"] == pytest.approx(8.0, rel=0.2)
    assert set(disc) == {"tau_c", "omega_kick"}


def test_collision_speed_kick():
    env = Environment.from_torr(T0, 1e-12)
    body = Sphere(1e-5, 1.0)
    st = collision_stats(body, env)
    # Delta v = u m_g / M exactly; ~5e-4 cm/s at density 1 (a density-10
    # sphere gives the sometimes-quoted 5e-5)
    expected = env.mean_speed() * env.gas_molecular_mass / body.mass()
    assert st["delta_v"] == pytest.approx(expected, rel=1e-12, abs=0)
    assert st["delta_v"] == pytest.approx(5.2e-4, rel=0.05)
    assert st["tau_c"] == pytest.approx(2.0, rel=0.1)


def test_check_realm_warns_on_bad_regime():
    body = Sphere(1e-5, 1.0)
    env = Environment.from_torr(T0, 760.0, gas_viscosity=2e-4)
    with pytest.warns(ValidityWarning):
        check_realm(body, env, "molecular")    # atmospheric pressure: l_m ~ R
    env_lo = Environment.from_torr(T0, 1e-6, gas_viscosity=2e-4)
    with pytest.warns(ValidityWarning):
        check_realm(body, env_lo, "viscous")
    assert check_realm(body, Environment.from_torr(T0, 1.0), "viscous") is None
