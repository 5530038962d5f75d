"""Random-walk observables of mass-proportional collapse models.

A small numpy library computing, in CGS units throughout:

- classical Brownian diffusion of spheres and discs in gas (hydrodynamic,
  slip-corrected, free-molecular) and in thermal radiation;
- collapse-induced translational and rotational diffusion with the exact
  geometric factors for spheres and discs, cross-checked by a Monte Carlo
  oracle of the defining volume integrals;
- center-of-mass wavepacket equilibrium and its stochastic drift;
- the experimental/theoretical viability map of the collapse parameters.

See the demos/ directory for narrative walkthroughs and the `cslwalk` CLI
for table and dataset reproduction.  scipy is imported only on first use,
by the disc rotation factor and by the width-ODE cross-check.
"""

from .core import (CONSTANTS, Body, CslParams, Disc, Environment,
                   PhysicalConstants, Sphere, body_derived, convert_unit)
from .errors import (ConvergenceError, CslwalkError, ValidationError,
                     ValidityWarning)
from .brownian import (BrownianMoments, CollisionStats, DragCoefficient,
                       collision_stats, fp_moments, molecular_flux,
                       spectral_xi, thermal_rms, xi_mirror, xi_molecular,
                       xi_radiation, xi_rotational, xi_slip_corrected,
                       xi_stokes, xi_viscous_disc)
from .factors import (DiscAspect, FactorResult, f_disc_edge, f_disc_perp,
                      f_rot_disc, f_sphere, fig1_dataset)
from .oracle import f_mc_oracle
from .diffusion import (DiffusionCurve, WavepacketEquilibrium, combined_rms,
                        csl_rms_rotation, csl_rms_translation,
                        energy_gain_rates, equilibrium_series_rms,
                        equilibrium_table, equilibrium_width,
                        qm_baseline_rotation, qm_baseline_translation,
                        time_to_rotation, vacuum_diffusion_table)
from .wavepacket import (ComplexVariance, EnsembleStats, TrajectoryState,
                         growth_coefficients, sigma_closed_form,
                         sigma_ode_integrate, simulate_ensemble,
                         single_trajectory)
from .constraints import (ConstraintMap, evaluate_constraints, fig2_dataset,
                          fu_radiation_rate, ge_detector_rate,
                          ge_radiation_threshold, lambda_gravitational,
                          thermal_relation)

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS", "PhysicalConstants", "CslParams", "Sphere", "Disc", "Body",
    "Environment", "body_derived", "convert_unit",
    "CslwalkError", "ValidationError", "ConvergenceError", "ValidityWarning",
    "DragCoefficient", "BrownianMoments", "CollisionStats", "fp_moments",
    "thermal_rms", "xi_stokes", "xi_slip_corrected", "xi_molecular",
    "xi_viscous_disc", "xi_rotational", "xi_radiation", "xi_mirror",
    "spectral_xi", "collision_stats", "molecular_flux",
    "FactorResult", "DiscAspect", "f_sphere", "f_disc_perp", "f_disc_edge",
    "f_rot_disc", "fig1_dataset", "f_mc_oracle",
    "DiffusionCurve", "WavepacketEquilibrium", "csl_rms_translation",
    "csl_rms_rotation", "time_to_rotation", "combined_rms",
    "qm_baseline_translation", "qm_baseline_rotation", "equilibrium_width",
    "equilibrium_series_rms", "energy_gain_rates", "vacuum_diffusion_table",
    "equilibrium_table",
    "ComplexVariance", "TrajectoryState", "EnsembleStats",
    "sigma_closed_form", "sigma_ode_integrate", "single_trajectory",
    "simulate_ensemble", "growth_coefficients",
    "evaluate_constraints", "lambda_gravitational", "thermal_relation",
    "fu_radiation_rate", "ge_detector_rate", "ge_radiation_threshold",
    "ConstraintMap", "fig2_dataset",
]
