"""Random-walk observables of mass-proportional collapse models.

A small numerical library computing, in CGS units throughout:

- classical Brownian diffusion of spheres and discs in gas (hydrodynamic,
  slip-corrected, free-molecular) and in thermal radiation;
- collapse-induced translational and rotational diffusion with the exact
  geometric factors for spheres and discs, cross-checked by a Monte Carlo
  oracle of the defining volume integrals;
- center-of-mass wavepacket equilibrium and its stochastic drift;
- the experimental/theoretical viability map of the collapse parameters.

See the demos/ directory for narrative walkthroughs and the `cslwalk` CLI
for table and dataset reproduction.

numpy is the only run-time dependency.  Every public name below is
resolved from its submodule on first access, so `import cslwalk` does not
load it.  The closed forms of the reference tables, the sphere and disc
translation factors, the drag coefficients and collision statistics
(`brownian`) and the constraint map run on the standard library alone,
apart from `ConstraintMap.mask()`.  Of the factors only the disc rotation
factor loads numpy; the oracle and the wavepacket ensembles load it when
first called or imported.  Nothing loads scipy: the disc factors' scaled
Bessel functions i0e and i1e are a Cephes port in `cslwalk._cephes`, and
the width-ODE cross-check steps RK4 itself.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("CONSTANTS", "CslParams", "Sphere", "Disc", "Body",
             "Environment", "convert_unit"),
    "errors": ("CslwalkError", "ValidationError", "ConvergenceError",
               "ValidityWarning"),
    "brownian": ("xi_stokes", "xi_slip_corrected", "xi_molecular",
                 "xi_viscous_disc", "xi_rotational", "xi_radiation",
                 "collision_stats", "molecular_flux"),
    "factors": ("FactorResult", "DiscAspect", "f_sphere", "f_disc_perp",
                "f_disc_edge", "f_rot_disc", "fig1_dataset"),
    "oracle": ("f_mc_oracle",),
    "diffusion": ("WavepacketEquilibrium",
                  "csl_rms_translation", "csl_rms_rotation",
                  "time_to_rotation", "combined_rms",
                  "qm_baseline_translation", "qm_baseline_rotation",
                  "equilibrium_width", "equilibrium_series_rms",
                  "energy_gain_rates", "vacuum_diffusion_table",
                  "equilibrium_table"),
    "wavepacket": ("TrajectoryState", "EnsembleStats", "sigma_closed_form",
                   "sigma_ode_integrate", "single_trajectory",
                   "simulate_ensemble", "growth_coefficients"),
    "constraints": ("evaluate_constraints", "lambda_gravitational",
                    "thermal_lambda_inv", "fu_radiation_rate",
                    "ge_detector_rate", "ge_radiation_threshold",
                    "ConstraintMap", "fig2_dataset"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
