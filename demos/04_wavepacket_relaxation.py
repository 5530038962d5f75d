"""Watch a wavepacket settle to its equilibrium width, then drift.

The complex width parameter relaxes deterministically (no noise enters the
width equation); once settled, the packet *center* performs the stochastic
walk whose ensemble mean square grows as t + t^2/2 + t^3/12 in units of
the relaxation time.
"""

from pathlib import Path

import numpy as np

from cslwalk import (CslParams, Sphere, equilibrium_width, f_sphere,
                     growth_coefficients, sigma_closed_form,
                     sigma_ode_integrate, simulate_ensemble,
                     single_trajectory)
from cslwalk.wavepacket import packet_width_sq, stats_to_csv

grw = CslParams.grw()
body = Sphere(radius=1e-5, density=1.0)
f = f_sphere(body.radius / grw.a).value
eq = equilibrium_width(grw, body, f=f)
print(f"equilibrium width s_inf = {eq.s_inf:.3g} cm, relaxation time "
      f"tau_s = {eq.tau_s:.3g} s")

# Deterministic relaxation: start the packet 5x too wide and integrate.
# A width is the complex sigma^2 in cm^2; both routes return one per time.
lam_eff = grw.lam * body.nucleon_count() ** 2 * f
grid = np.linspace(0.05, 5.0, 8) * eq.tau_s
sigma0 = 5.0 * eq.s_inf ** 2
numeric = sigma_ode_integrate(sigma0, body.mass(), lam_eff, grw.a, grid)
exact = sigma_closed_form(sigma0, eq.s_inf, eq.tau_s, grid)
print("\nwidth relaxation (numeric vs closed form):")
for t, sig, ref in zip(grid, numeric, exact):
    width = np.sqrt(packet_width_sq(sig))
    err = abs(sig - ref) / abs(ref)
    print(f"  t = {t / eq.tau_s:>5.2f} tau : width = {width:.3e} cm "
          f"(closed-form gap {err:.1e})")

# One sample path of the packet center, to get a feel for the walk:
tau = eq.tau_s
path = single_trajectory(eq, dt=tau / 50, t_end=5 * tau, seed=11)
print("\none sample path of <Q> = b_real + b_imag:")
for state in path[:: len(path) // 5]:
    print(f"  t = {state.t / tau:>4.1f} tau : <Q> = "
          f"{state.b_real + state.b_imag:+.3e} cm")

# Stochastic drift of the settled packet: ensemble of 20k centers, sampled
# at about 50 times; the growth law is shown at the three the fit uses.
stats = simulate_ensemble(eq, n_traj=20_000, dt=tau / 50, t_end=10 * tau,
                          seed=2)
fit = growth_coefficients(stats, [tau, 3 * tau, 10 * tau])
print("\nensemble mean square displacement vs the cubic growth law:")
for t in fit["times"]:
    j = stats.times.index(t)
    x = t / tau
    law = eq.s_inf ** 2 * (x + x ** 2 / 2 + x ** 3 / 12)
    print(f"  t = {x:>4.0f} tau : measured {stats.mean_sq_Q[j]:.3e} "
          f"+- {stats.se_mean_sq_Q[j]:.1e} cm^2, law {law:.3e} cm^2")

s2 = eq.s_inf ** 2
expected = (s2 / tau, s2 / (2 * tau ** 2), s2 / (12 * tau ** 3))
print("\nextracted growth coefficients (t, t^2, t^3):")
for est, se, truth in zip(fit["coefficients"], fit["std_errors"], expected):
    print(f"  {est:.3e} +- {se:.1e}  (expected {truth:.3e}, "
          f"pull {(est - truth) / se:+.2f} sigma)")

Path("wavepacket_ensemble.csv").write_text(stats_to_csv(stats), newline="")
print("\nwrote wavepacket_ensemble.csv")
