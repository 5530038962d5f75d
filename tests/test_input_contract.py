"""The library's input contract, one table for every public entry point.

Each (callable, scalar argument) pair is called with an otherwise valid set
of arguments and one bad value: inf, -inf, nan and the boundary just
outside the domain (0 for a positive number, -1 for a nonnegative one, 2
for a translation factor).  Integer counts get nan, 1.5 and one below
their minimum, never a large value, so no call starts a large thread pool.
Every bad call must raise ValidationError with a message that starts with
the argument's name.
"""

import math
import re
import warnings

import numpy as np
import pytest

from cslwalk.brownian import (DragCoefficient, fp_moments, integrate_spectral_xi,
                              planck_tail_integral, spectral_xi, thermal_rms,
                              xi_mirror, xi_radiation, xi_slip_corrected,
                              xi_stokes, xi_viscous_disc)
from cslwalk.constraints import (ThermalRelation, evaluate_constraints,
                                 fu_radiation_rate, ge_detector_rate,
                                 ge_radiation_threshold, lambda_gravitational,
                                 thermal_relation)
from cslwalk.core import CslParams, Disc, Environment, PhysicalConstants, Sphere
from cslwalk.diffusion import (WavepacketEquilibrium, combined_rms,
                               csl_rms_rotation, csl_rms_translation,
                               diffusion_curve, energy_gain_rates,
                               equilibrium_series_rms, equilibrium_width,
                               qm_baseline_rotation, qm_baseline_translation,
                               time_to_rotation)
from cslwalk.errors import ValidationError, ValidityWarning
from cslwalk.factors import DiscAspect, f_sphere
from cslwalk.oracle import f_mc_oracle, f_mc_oracle_aspect
from cslwalk.wavepacket import (equilibrium_variance, sigma_closed_form,
                                sigma_ode_integrate, simulate_ensemble,
                                single_trajectory)

INF, NAN = math.inf, math.nan
BAD = {
    "positive": (INF, -INF, NAN, 0.0),
    "nonnegative": (INF, -INF, NAN, -1.0),
    "fraction": (INF, -INF, NAN, 2.0),
    "factor": (INF, -INF, NAN, 0.0, 2.0),      # (0, 1]
}

GRW = CslParams(lam=1e-16, a=1e-5)
SPHERE = Sphere(radius=1e-5, density=1.0)
DISC = Disc(radius=2e-5, thickness=5e-6, density=1.0)
ENV = Environment(temperature=4.2, pressure=1e-10)
EQ = WavepacketEquilibrium(s_inf=1e-6, tau_s=1.0)
ORACLE = dict(n_samples=100, seed=0, block_size=50, workers=1)


def curve_through(times):
    return diffusion_curve("csl", "translation", [1.0, times], csl=GRW, f=0.5)


def thermal_line_at(a):
    return ThermalRelation(10.0).lambda_inv(a)


# (callable, valid keyword arguments, {argument: kind}); a kind is a key of
# BAD or ("count", minimum)
CONTRACT = [
    (PhysicalConstants, {}, {"hbar": "positive", "room_temperature_T0": "positive"}),
    (CslParams, dict(lam=1e-16, a=1e-5), {"lam": "positive", "a": "positive"}),
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
    (DragCoefficient, dict(xi=1e-9, realm="molecular", mode="translation",
                           orientation="sphere"), {"xi": "nonnegative"}),
    # v0 may have either sign: tests/test_brownian.py checks it is finite
    (fp_moments, dict(tau=1.0, beta=1.0, v0=0.0, t=1.0),
     {"tau": "positive", "beta": "nonnegative", "t": "nonnegative"}),
    (thermal_rms, dict(xi=1e-9, inertia=1e-15, temperature=300.0, t=1.0,
                       regime="short"),
     {"xi": "nonnegative", "inertia": "positive", "temperature": "positive",
      "t": "nonnegative"}),
    (xi_stokes, dict(R=1e-5, eta=1.8e-4), {"R": "positive", "eta": "positive"}),
    (xi_slip_corrected, dict(R=1e-5, eta=1.8e-4, l_m=1e-5),
     {"R": "positive", "eta": "positive", "l_m": "positive", "alpha": "positive",
      "beta_c": "nonnegative", "gamma": "positive"}),
    (xi_viscous_disc, dict(L=1e-3, b=1e-5, eta=1.8e-4, orientation="perp"),
     {"L": "positive", "b": "positive", "eta": "positive"}),
    (xi_radiation, dict(R=1e-5, T=300.0), {"R": "positive", "T": "positive"}),
    (xi_mirror, dict(area=1.0, T=300.0), {"area": "positive", "T": "positive"}),
    (spectral_xi, dict(nu=1e12, T=300.0, target="dielectric-sphere", R=1e-5),
     {"nu": "nonnegative", "T": "positive", "R": "positive"}),
    (integrate_spectral_xi, dict(T=300.0), {"T": "positive"}),
    (planck_tail_integral, dict(power=4, z_max=200.0),
     {"power": ("count", 2), "z_max": "positive"}),
    (WavepacketEquilibrium, dict(s_inf=1e-6, tau_s=1.0),
     {"s_inf": "positive", "tau_s": "positive"}),
    (csl_rms_translation, dict(csl=GRW, f=0.5, t=1.0, initial_term=0.0),
     {"f": "fraction", "t": "nonnegative", "initial_term": "nonnegative"}),
    (csl_rms_rotation, dict(csl=GRW, f_rot=0.5, t=1.0, initial_term=0.0),
     {"f_rot": "nonnegative", "t": "nonnegative", "initial_term": "nonnegative"}),
    (time_to_rotation, dict(csl=GRW, f_rot=0.5, target_angle=2 * math.pi),
     {"f_rot": "positive", "target_angle": "positive"}),
    (combined_rms, dict(xi=1e-9, body=SPHERE, env=ENV, csl=GRW, f=0.5, t=1e6,
                        regime="long"),
     {"xi": "nonnegative", "f": "fraction", "t": "nonnegative"}),
    (qm_baseline_translation, dict(body=SPHERE, t=1.0), {"t": "nonnegative"}),
    (qm_baseline_rotation, dict(body=DISC, t=1.0), {"t": "nonnegative"}),
    (equilibrium_width, dict(csl=GRW, body=DISC, f=0.5), {"f": "factor"}),
    (equilibrium_series_rms, dict(eq=EQ, t=1.0), {"t": "nonnegative"}),
    (energy_gain_rates, dict(csl=GRW, body=SPHERE, f=0.5), {"f": "fraction"}),
    (curve_through, dict(times=2.0), {"times": "nonnegative"}),
    (evaluate_constraints, dict(lambda_inv=1e16, a=1e-5),
     {"lambda_inv": "positive", "a": "positive"}),
    (lambda_gravitational, dict(a=1e-5, mode="sphere", size=1e-3),
     {"a": "positive", "size": "positive"}),
    (thermal_relation, dict(gamma=10.0), {"gamma": "positive"}),
    (thermal_line_at, dict(a=1e-5), {"a": "positive"}),
    (fu_radiation_rate, dict(E_keV=11.0, lam=1e-16, a=1e-5),
     {"E_keV": "positive", "lam": "positive", "a": "positive"}),
    (ge_detector_rate, dict(lam=1e-16, a=1e-5), {"lam": "positive", "a": "positive"}),
    (ge_radiation_threshold, dict(limit_counts=0.05), {"limit_counts": "positive"}),
    (equilibrium_variance, dict(s_inf=1e-6), {"s_inf": "positive"}),
    (sigma_closed_form, dict(sigma0=1e-12, s_inf=1e-6, tau_s=1.0, t=0.5),
     {"s_inf": "positive", "tau_s": "positive"}),
    (sigma_ode_integrate, dict(sigma0=1e-12, M=1e-15, lam_eff=1e-10, a=1e-5,
                               t_grid=[0.5, 1.0]),
     {"M": "positive", "lam_eff": "nonnegative", "a": "positive"}),
    (single_trajectory, dict(eq=EQ, dt=0.01, t_end=0.1, seed=0),
     {"dt": "positive", "t_end": "positive", "seed": ("count", 0)}),
    (simulate_ensemble, dict(eq=EQ, n_traj=100, dt=0.01, t_end=0.1, seed=0,
                             workers=1),
     {"n_traj": ("count", 100), "dt": "positive", "t_end": "positive",
      "seed": ("count", 0), "workers": ("count", 1)}),
    (f_mc_oracle, dict(body=SPHERE, csl=GRW, mode="translate", **ORACLE),
     {"n_samples": ("count", 2), "seed": ("count", 0),
      "block_size": ("count", 1), "workers": ("count", 1)}),
    (f_mc_oracle_aspect, dict(aspect=DiscAspect(1.0, 0.25), mode="translate-perp",
                              **ORACLE),
     {"n_samples": ("count", 2), "seed": ("count", 0),
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
