import math

import numpy as np
import pytest

from cslwalk import (CONSTANTS, CslParams, Disc, Environment, Sphere,
                     ValidationError, convert_unit)


def test_default_constants_values():
    c = CONSTANTS
    assert c.hbar == 1.0546e-27
    assert c.k_boltzmann == 1.3807e-16
    assert c.m_nucleon == 1.6726e-24
    assert c.G == 6.674e-8
    assert c.c == 2.9979e10
    assert c.room_temperature_T0 == 293.15
    for field in c._fields:
        with pytest.raises(AttributeError):
            setattr(c, field, 1.0)
    assert c.hbar == 1.0546e-27


@pytest.mark.parametrize("value,src,dst,expected", [
    (1.0, "day", "s", 86400.0),
    (5e-17, "Torr", "dyn/cm2", 5e-17 * 1333.22),
    (1.0, "du", "cm", 1.0e-5),
    (1.0, "pT", "Torr", 1.0e-12),
    (300.0, "K", "K", 300.0),
])
def test_convert_unit_values(value, src, dst, expected):
    assert convert_unit(value, src, dst) == pytest.approx(expected, rel=1e-12, abs=0)


def test_convert_unit_accepts_greek_mu_alias():
    assert convert_unit(2.0, "dμ", "cm") == pytest.approx(2e-5)


def test_convert_unit_round_trip_is_identity():
    rng = np.random.default_rng(1)
    pairs = [("Torr", "dyn/cm2"), ("pT", "Torr"), ("day", "s"), ("du", "cm"),
             ("pT", "dyn/cm2")]
    for v in rng.uniform(1e-20, 1e5, 40):
        for src, dst in pairs:
            back = convert_unit(convert_unit(v, src, dst), dst, src)
            assert back == pytest.approx(v, rel=1e-12)


def test_convert_unit_rejects_cross_dimension():
    with pytest.raises(ValidationError, match="Torr"):
        convert_unit(1.0, "Torr", "s")
    with pytest.raises(ValidationError, match="furlong"):
        convert_unit(1.0, "furlong", "cm")
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            convert_unit(value, "s", "s")
    with pytest.raises(ValidationError):
        convert_unit(1e305, "day", "s")      # overflows in the conversion


def test_sphere_derived_quantities():
    body = Sphere(radius=1e-5, density=1.0)
    assert body.volume() == pytest.approx(4.18879e-15, rel=1e-4, abs=0)
    assert body.mass() == pytest.approx(4.18879e-15, rel=1e-4, abs=0)
    # N = (4/3) pi R^3 D / m_nucleon
    assert body.nucleon_count() == pytest.approx(2.5044e9, rel=1e-3)
    assert body.moment_of_inertia() == pytest.approx(0.4 * body.mass() * 1e-10,
                                                     rel=1e-12, abs=0)


def test_disc_derived_quantities():
    body = Disc(radius=2e-5, thickness=0.5e-5, density=1.0)
    assert body.volume() == pytest.approx(math.pi * 4e-10 * 0.5e-5, rel=1e-12, abs=0)
    assert body.mass() == pytest.approx(6.2832e-15, rel=1e-4, abs=0)
    expect_i = 0.25 * body.mass() * (2e-5) ** 2 * (1 + 0.25e-10 / (3 * 4e-10))
    assert body.moment_of_inertia() == pytest.approx(expect_i, rel=1e-12, abs=0)


def test_body_scaling_properties():
    rng = np.random.default_rng(2)
    for _ in range(20):
        R = 10 ** rng.uniform(-6, 0)
        D = rng.uniform(0.5, 20.0)
        k = rng.uniform(1.1, 3.0)
        n1 = Sphere(R, D).nucleon_count()
        # exactly linear in density, cubic in radius
        assert Sphere(R, 2 * D).nucleon_count() == pytest.approx(2 * n1, rel=1e-12)
        assert Sphere(k * R, D).nucleon_count() == pytest.approx(k ** 3 * n1, rel=1e-12)


def test_derived_quantities_are_pure():
    a = Sphere(radius=3.7e-4, density=2.2)
    b = Sphere(radius=3.7e-4, density=2.2)

    def derived(body):
        return (body.volume(), body.mass(), body.nucleon_count(),
                body.moment_of_inertia())
    assert derived(a) == derived(b) == derived(a)


def test_invalid_bodies_rejected():
    with pytest.raises(ValidationError):
        Sphere(radius=1e-5, density=0.0)
    with pytest.raises(ValidationError):
        Sphere(radius=-1e-5, density=1.0)
    with pytest.raises(ValidationError):
        Disc(radius=1e-5, thickness=3e-5, density=1.0)   # thicker than diameter
    with pytest.raises(ValidationError):
        Sphere(radius=1e-8, density=1e-3)                # under one nucleon
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            Sphere(radius=bad, density=1.0)
        with pytest.raises(ValidationError):
            Sphere(radius=1e-5, density=bad)
        with pytest.raises(ValidationError):
            Disc(radius=bad, thickness=1e-5, density=1.0)
        with pytest.raises(ValidationError):
            Disc(radius=1e-5, thickness=bad, density=1.0)
        with pytest.raises(ValidationError):
            Disc(radius=1e-5, thickness=1e-5, density=bad)


def test_bodies_beyond_float_range_rejected():
    # the power in volume() overflows, or the mass product is inf
    for make in (lambda: Sphere(radius=1e300, density=1.0),
                 lambda: Sphere(radius=1e100, density=1e100),
                 lambda: Disc(radius=1e300, thickness=1e300, density=1.0)):
        with pytest.raises(ValidationError, match="floating-point range"):
            make()


def test_csl_params():
    grw = CslParams.grw()
    assert grw.lam == 1e-16 and grw.a == 1e-5
    with pytest.raises(ValidationError):
        CslParams(lam=0.0, a=1e-5)
    with pytest.raises(ValidationError):
        CslParams(lam=1e-16, a=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            CslParams(lam=bad, a=1e-5)
        with pytest.raises(ValidationError):
            CslParams(lam=1e-16, a=bad)


def test_environment_gas_state():
    env = Environment.from_torr(293.15, 1e-12)   # 1 pT
    n = env.number_density()
    assert n == pytest.approx(1333.22e-12 / (CONSTANTS.k_boltzmann * 293.15), rel=1e-12)
    # mean speed for N2 at room temperature is ~4.7e4 cm/s
    assert env.mean_speed() == pytest.approx(4.708e4, rel=1e-3)


@pytest.mark.parametrize("field", ["temperature", "pressure",
                                   "gas_molecular_mass", "gas_viscosity"])
def test_environment_rejects_infinite_values(field):
    kwargs = {"temperature": 4.2, field: math.inf}
    with pytest.raises(ValidationError, match="finite"):
        Environment(**kwargs)


def test_environment_gas_state_beyond_float_range_rejected():
    # kT underflows to 0; the mean speed overflows
    with pytest.raises(ValidationError, match="floating-point range"):
        Environment(temperature=5e-324, pressure=1.0).number_density()
    with pytest.raises(ValidationError, match="floating-point range"):
        Environment(temperature=4.2, gas_molecular_mass=5e-324).mean_speed()


def test_environment_mean_free_path_needs_viscosity():
    env = Environment.from_torr(293.15, 760.0)
    with pytest.raises(ValidationError):
        env.mean_free_path()
    env2 = Environment.from_torr(293.15, 760.0, gas_viscosity=2e-4)
    # atmospheric N2: l_m of order 1e-5 cm
    assert 1e-6 < env2.mean_free_path() < 1e-4
