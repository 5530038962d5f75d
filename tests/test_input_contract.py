"""The library's input contract, one table for every public entry point.

Each (callable, scalar argument) pair is called with an otherwise valid set
of arguments and one bad value: inf, -inf, nan and the boundary just
outside the domain (0 for a positive number, -1 for a nonnegative one, 2
for a translation factor).  Integer counts get nan, 1.5 and one below
their minimum, never a large value, so no call starts a large thread pool.
Every bad call must raise ValidationError with a message that starts with
the argument's name.

The same table drives the float-range sweep: each real scalar in turn is set
to a value at an edge of the float range, and the call must return a result
that is finite throughout or raise ValidationError or ConvergenceError,
never a raw ArithmeticError.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from cslwalk.brownian import (collision_stats, xi_molecular, xi_radiation,
                              xi_rotational, xi_slip_corrected, xi_stokes,
                              xi_viscous_disc)
from cslwalk.constraints import (evaluate_constraints, fu_radiation_rate,
                                 ge_detector_rate, ge_radiation_threshold,
                                 lambda_gravitational, thermal_lambda_inv)
from cslwalk.core import CslParams, Disc, Environment, Sphere, convert_unit
from cslwalk.diffusion import (WavepacketEquilibrium, combined_rms,
                               csl_rms_rotation, csl_rms_translation,
                               energy_gain_rates, equilibrium_series_rms,
                               equilibrium_width, qm_baseline_rotation,
                               qm_baseline_translation, time_to_rotation)
from cslwalk.errors import ConvergenceError, ValidationError, ValidityWarning
from cslwalk.factors import (DiscAspect, FactorResult, f_disc_edge, f_disc_perp,
                             f_rot_disc, f_sphere)
from cslwalk.oracle import f_mc_oracle, f_mc_oracle_aspect
from cslwalk.wavepacket import (growth_coefficients, sigma_closed_form,
                                sigma_ode_integrate, simulate_ensemble,
                                single_trajectory)

INF, NAN = math.inf, math.nan
BAD = {
    "positive": (INF, -INF, NAN, 0.0),
    "nonnegative": (INF, -INF, NAN, -1.0),
    "fraction": (INF, -INF, NAN, 2.0),
    "factor": (INF, -INF, NAN, 0.0, 2.0),      # (0, 1]
    "finite": (INF, -INF, NAN),
}

GRW = CslParams(lam=1e-16, a=1e-5)
SPHERE = Sphere(radius=1e-5, density=1.0)
DISC = Disc(radius=2e-5, thickness=5e-6, density=1.0)
ENV = Environment(temperature=4.2, pressure=1e-10)
EQ = WavepacketEquilibrium(s_inf=1e-6, tau_s=1.0)
ORACLE = dict(n_samples=100, seed=0, block_size=50, workers=1)


def thermal_walk(xi, temperature, t):
    """combined_rms with collapse off, the temperature given as a scalar"""
    return combined_rms(xi, SPHERE, Environment(temperature), None, 0.0, t)


def combined_rms_rotation(**kwargs):
    return combined_rms(mode="rotation", **kwargs)


def collide_sphere(radius, density, temperature, pressure):
    """collision_stats with the sphere and the gas given as scalars"""
    return collision_stats(Sphere(radius, density), Environment(temperature, pressure))


def collide_disc(radius, thickness, density):
    """collision_stats for a disc in ENV, the disc given as scalars"""
    return collision_stats(Disc(radius, thickness, density), ENV)


def drag_sphere(radius, density, temperature, pressure):
    """xi_molecular with the sphere and the gas given as scalars"""
    return xi_molecular(Sphere(radius, density), Environment(temperature, pressure))


def drag_disc(radius, thickness, density):
    """a disc's molecular drags in ENV, both orientations and rotation"""
    disc = Disc(radius, thickness, density)
    return (xi_molecular(disc, ENV, "perp"), xi_molecular(disc, ENV, "edge"),
            xi_rotational(disc, ENV, "molecular"))


def disc_factors(alpha, beta):
    """the three disc factors of one aspect, given as scalars"""
    aspect = DiscAspect(alpha, beta)
    return f_disc_perp(aspect), f_disc_edge(aspect), f_rot_disc(aspect)


# (callable, valid keyword arguments, {argument: kind}); a kind is a key of
# BAD or ("count", minimum)
CONTRACT = [
    (CslParams, dict(lam=1e-16, a=1e-5), {"lam": "positive", "a": "positive"}),
    (convert_unit, dict(value=1.0, from_unit="Torr", to_unit="dyn/cm2"),
     {"value": "finite"}),
    (Sphere, dict(radius=1e-5, density=1.0),
     {"radius": "positive", "density": "positive"}),
    (Disc, dict(radius=2e-5, thickness=5e-6, density=1.0),
     {"radius": "positive", "thickness": "positive", "density": "positive"}),
    (Environment, dict(temperature=4.2, pressure=1e-10, gas_molecular_mass=4.6e-23,
                       gas_viscosity=1.8e-4),
     {"temperature": "positive", "pressure": "positive",
      "gas_molecular_mass": "positive", "gas_viscosity": "positive"}),
    (DiscAspect, dict(alpha=1.0, beta=0.25), {"alpha": "positive", "beta": "positive"}),
    (f_sphere, dict(x=1.0), {"x": "positive"}),
    (disc_factors, dict(alpha=1.0, beta=0.25), {"alpha": "positive", "beta": "positive"}),
    # the oracle's rotation mean may be slightly negative
    (FactorResult, dict(value=0.5, method="analytic", est_error=0.0),
     {"value": "finite", "est_error": "nonnegative"}),
    # the inertia is the body's, and Sphere and Disc check it above
    (thermal_walk, dict(xi=1e-9, temperature=300.0, t=1.0),
     {"xi": "nonnegative", "temperature": "positive", "t": "nonnegative"}),
    # an overflowing J x area gives tau_c = 0, which the guard rejects
    (collide_sphere, dict(radius=1e-5, density=1.0, temperature=4.2, pressure=1e-10),
     {"radius": "positive", "density": "positive", "temperature": "positive",
      "pressure": "positive"}),
    (collide_disc, dict(radius=2e-5, thickness=5e-6, density=1.0),
     {"radius": "positive", "thickness": "positive", "density": "positive"}),
    (drag_sphere, dict(radius=1e-5, density=1.0, temperature=4.2, pressure=1e-10),
     {"radius": "positive", "density": "positive", "temperature": "positive",
      "pressure": "positive"}),
    (drag_disc, dict(radius=2e-5, thickness=5e-6, density=1.0),
     {"radius": "positive", "thickness": "positive", "density": "positive"}),
    (xi_stokes, dict(R=1e-5, eta=1.8e-4), {"R": "positive", "eta": "positive"}),
    (xi_slip_corrected, dict(R=1e-5, eta=1.8e-4, l_m=1e-5),
     {"R": "positive", "eta": "positive", "l_m": "positive"}),
    (xi_viscous_disc, dict(L=1e-3, b=1e-5, eta=1.8e-4, orientation="perp"),
     {"L": "positive", "b": "positive", "eta": "positive"}),
    (xi_radiation, dict(R=1e-5, T=300.0), {"R": "positive", "T": "positive"}),
    (WavepacketEquilibrium, dict(s_inf=1e-6, tau_s=1.0),
     {"s_inf": "positive", "tau_s": "positive"}),
    (csl_rms_translation, dict(csl=GRW, f=0.5, t=1.0),
     {"f": "fraction", "t": "nonnegative"}),
    (csl_rms_rotation, dict(csl=GRW, f_rot=0.5, t=1.0),
     {"f_rot": "nonnegative", "t": "nonnegative"}),
    (time_to_rotation, dict(csl=GRW, f_rot=0.5, target_angle=2 * math.pi),
     {"f_rot": "positive", "target_angle": "positive"}),
    (combined_rms, dict(xi=1e-9, body=SPHERE, env=ENV, csl=GRW, f=0.5, t=1e6),
     {"xi": "nonnegative", "f": "fraction", "t": "nonnegative"}),
    (combined_rms_rotation, dict(xi=1e-20, body=DISC, env=ENV, csl=GRW, f=0.3,
                                 t=1e6),
     {"xi": "nonnegative", "f": "nonnegative", "t": "nonnegative"}),
    (qm_baseline_translation, dict(body=SPHERE, t=1.0), {"t": "nonnegative"}),
    (qm_baseline_rotation, dict(body=DISC, t=1.0), {"t": "nonnegative"}),
    (equilibrium_width, dict(csl=GRW, body=DISC, f=0.5), {"f": "factor"}),
    (equilibrium_series_rms, dict(eq=EQ, t=1.0), {"t": "nonnegative"}),
    (energy_gain_rates, dict(csl=GRW, body=SPHERE, f=0.5), {"f": "fraction"}),
    (evaluate_constraints, dict(lambda_inv=1e16, a=1e-5),
     {"lambda_inv": "positive", "a": "positive"}),
    (lambda_gravitational, dict(a=1e-5), {"a": "positive"}),
    (thermal_lambda_inv, dict(gamma=10.0, a=1e-5),
     {"gamma": "positive", "a": "positive"}),
    (fu_radiation_rate, dict(E_keV=11.0, lam=1e-16, a=1e-5),
     {"E_keV": "positive", "lam": "positive", "a": "positive"}),
    (ge_detector_rate, dict(lam=1e-16, a=1e-5), {"lam": "positive", "a": "positive"}),
    (ge_radiation_threshold, {}, {}),
    (sigma_closed_form, dict(sigma0=1e-12, s_inf=1e-6, tau_s=1.0, t=[0.5]),
     {"sigma0": "positive", "s_inf": "positive", "tau_s": "positive"}),
    (sigma_ode_integrate, dict(sigma0=1e-12, M=1e-15, lam_eff=1e-10, a=1e-5,
                               t_grid=[0.5, 1.0]),
     {"sigma0": "positive", "M": "positive", "lam_eff": "nonnegative",
      "a": "positive"}),
    (single_trajectory, dict(eq=EQ, dt=0.01, t_end=0.1, seed=0),
     {"dt": "positive", "t_end": "positive", "seed": ("count", 0)}),
    (simulate_ensemble, dict(eq=EQ, n_traj=100, dt=0.01, t_end=0.1, seed=0,
                             workers=1),
     {"n_traj": ("count", 100), "dt": "positive", "t_end": "positive",
      "seed": ("count", 0), "workers": ("count", 1)}),
    (f_mc_oracle, dict(body=SPHERE, csl=GRW, mode="translate", **ORACLE),
     {"n_samples": ("count", 5), "seed": ("count", 0),
      "block_size": ("count", 1), "workers": ("count", 1)}),
    (f_mc_oracle_aspect, dict(aspect=DiscAspect(1.0, 0.25), mode="translate-perp",
                              **ORACLE),
     {"n_samples": ("count", 5), "seed": ("count", 0),
      "block_size": ("count", 1), "workers": ("count", 1)}),
]


def _bad_values(kind):
    if isinstance(kind, tuple):
        return (NAN, 1.5, kind[1] - 1)
    return BAD[kind]


CASES = [pytest.param(fn, kwargs, name, bad,
                      id=f"{fn.__name__}-{name}-{bad!r}")
         for fn, kwargs, args in CONTRACT
         for name, kind in args.items()
         for bad in _bad_values(kind)]
# n_samples=inf raised a raw TypeError; the table gives no count an inf
CASES += [pytest.param(fn, kwargs, "n_samples", INF, id=f"{fn.__name__}-n_samples-inf")
          for fn, kwargs, _ in CONTRACT if fn in (f_mc_oracle, f_mc_oracle_aspect)]


@pytest.mark.parametrize("fn,kwargs", [pytest.param(fn, kwargs, id=fn.__name__)
                                       for fn, kwargs, _ in CONTRACT])
def test_the_valid_base_call_succeeds(fn, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        fn(**kwargs)


@pytest.mark.parametrize("fn,kwargs,name,bad", CASES)
def test_a_bad_scalar_is_rejected_by_name(fn, kwargs, name, bad):
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} "):
        fn(**{**kwargs, name: bad})


def test_a_numpy_integer_count_is_accepted():
    a = f_mc_oracle(SPHERE, GRW, "translate", **ORACLE)
    b = f_mc_oracle(SPHERE, GRW, "translate", n_samples=np.int64(100),
                    seed=np.int32(0), block_size=np.int64(50), workers=np.int8(1))
    assert a == b


# Values at the edges of the float range: the smallest subnormal, tiny and
# huge values whose squares and cubes leave the range, and near the largest
# float.
EXTREMES = (5e-324, 1e-300, 1e-160, 1e160, 1e300, 1.7e308)
SWEEP = [pytest.param(fn, kwargs, name, x, id=f"{fn.__name__}-{name}-{x!r}")
         for fn, kwargs, args in CONTRACT
         for name, kind in args.items() if kind in BAD
         for x in EXTREMES]


def _all_finite(out):
    """Every number the result carries is finite, arrays and nested
    containers included."""
    if dataclasses.is_dataclass(out):
        return all(_all_finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, dict):
        return all(map(_all_finite, out.values()))
    if isinstance(out, (list, tuple)):
        return all(map(_all_finite, out))
    if out is None or isinstance(out, str):
        return True
    return bool(np.all(np.isfinite(out)))


@pytest.mark.parametrize("fn,kwargs,name,x", SWEEP)
def test_an_extreme_scalar_gives_a_finite_result_or_an_error(fn, kwargs, name, x):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            out = fn(**{**kwargs, name: x})
    except (ValidationError, ConvergenceError):
        return
    assert _all_finite(out), out


# Calls outside the sweep's reach that once raised a raw ArithmeticError or
# returned inf or nan.
HUGE_TIMES = simulate_ensemble(WavepacketEquilibrium(1e-6, 1e110), n_traj=100,
                               dt=1e110, t_end=3e110, method="exact-b15")
TINY_TIMES = simulate_ensemble(WavepacketEquilibrium(1e-6, 1.0), n_traj=100,
                               dt=1e-120, t_end=3e-120, method="exact-b15")


# a gas at 1e290 dyn/cm2 and a body 1e50 cm across: each drag overflows
HUGE_GAS = Environment(300.0, 1e290)
HUGE_DISC = Disc(1e50, 1e49, 1.0)
DRAG_OVERFLOWS = [
    lambda: xi_molecular(Sphere(1e50, 1.0), HUGE_GAS),
    lambda: xi_molecular(HUGE_DISC, HUGE_GAS, "edge"),
    lambda: xi_rotational(HUGE_DISC, HUGE_GAS, "molecular"),
]


@pytest.mark.parametrize("call,match", [(call, "floating-point range") for call in [
    lambda: fu_radiation_rate(11.0, 1e-16, 1e-200),
    lambda: thermal_lambda_inv(10.0, 1e-200),
    lambda: lambda_gravitational(1e-300),
    lambda: single_trajectory(WavepacketEquilibrium(1e308, 1.0), dt=0.01,
                              t_end=100.0),                 # s_inf B overflows
    lambda: single_trajectory(WavepacketEquilibrium(1e-6, 1e-300), dt=1e-303,
                              t_end=1e-302),
    lambda: f_mc_oracle(Sphere(1e-5, 1.0), CslParams(1e-16, 1e300), "translate",
                        n_samples=100),
    lambda: qm_baseline_rotation(Disc(1e-100, 1e-100, 1e300), 1e300),
    # J x area overflows, so tau_c = 1 / (J x area) is 0
    lambda: collision_stats(Sphere(1e5, 1.0), HUGE_GAS),
    lambda: collision_stats(Disc(1e5, 1e4, 1.0), HUGE_GAS),
    lambda: growth_coefficients(HUGE_TIMES, HUGE_TIMES.times),      # t^3 overflows
    lambda: growth_coefficients(TINY_TIMES, TINY_TIMES.times),      # t^3 underflows
]] + [(call, "drag coefficient") for call in DRAG_OVERFLOWS] + [
    # sigma0^2 overflows
    (lambda: sigma_ode_integrate(sigma0=1e160, M=1e-15, lam_eff=1e-10, a=1e-5,
                                 t_grid=[0.5, 1.0]),
     "^the width ODE leaves the floating-point range"),
],
    ids=["fu_radiation_rate", "thermal_lambda_inv", "lambda_gravitational-point",
         "single_trajectory-huge", "single_trajectory-tiny", "f_mc_oracle-sphere",
         "qm_baseline_rotation", "collision_stats-sphere", "collision_stats-disc",
         "growth_coefficients", "growth_coefficients-tiny",
         "xi_molecular-sphere", "xi_molecular-disc-edge", "xi_rotational-disc",
         "sigma_ode_integrate-huge-sigma0"])
def test_a_formula_beyond_the_float_range_is_rejected(call, match):
    with pytest.raises(ValidationError, match=match):
        call()
