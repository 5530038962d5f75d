"""The geometry factors: how body shape gates the collapse kicks.

Translation factors compare a displaced copy of the body against the
localization length; the rotation factor does the same for a turned copy.
Every curve here is cross-checked against a Monte Carlo evaluation of the
defining six-dimensional volume integrals.
"""

from pathlib import Path

from cslwalk import (CslParams, Disc, DiscAspect, Sphere, f_disc_edge,
                     f_disc_perp, f_mc_oracle, f_rot_disc, f_sphere,
                     fig1_dataset)
from cslwalk.factors import fig1_to_csv

grw = CslParams.grw()

# Sphere: full strength below a, then a steep (a/R)^4 fall.
print("sphere translation factor f(R/a):")
for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
    print(f"  R/a = {x:>5.2f} : f = {f_sphere(x).value:.4g}")

# Disc translation: a thin wide disc keeps much more of the effect than a
# sphere of the same radius (f ~ (2a/L)^2 face-on vs (a/R)^4).
print("\ndisc translation factors at b = 0.5a:")
for alpha in (0.5, 1.0, 2.0, 5.0):
    aspect = DiscAspect(alpha=alpha, beta=0.25)
    print(f"  L/2a = {alpha:>4.1f} : face-on {f_disc_perp(aspect).value:.4g}, "
          f"edge-on {f_disc_edge(aspect).value:.4g}")

# Rotation: zero for a sphere by symmetry, order unity for a coin-shaped
# disc of about the localization size.
aspect = DiscAspect(1.0, 0.25)
quad = f_rot_disc(aspect)
print(f"\nrotation factor at (alpha, beta) = (1, 0.25): {quad.value:.4f} "
      f"+- {quad.est_error:.1e} (quadrature)")

disc = Disc(radius=2e-5, thickness=0.5e-5, density=1.0)
mc = f_mc_oracle(disc, grw, "rotate", n_samples=2_000_000, seed=1)
print(f"Monte Carlo oracle of the defining integral: {mc.value:.4f} "
      f"+- {mc.est_error:.1e}")
sphere_mc = f_mc_oracle(Sphere(1e-5, 1.0), grw, "rotate",
                        n_samples=1_000_000, seed=0)
print(f"same oracle on a sphere (symmetry says zero): {sphere_mc.value:.1e} "
      f"+- {sphere_mc.est_error:.1e}")

# The full grid dataset behind the rotation-factor figure:
data = fig1_dataset(alphas=[0.25, 0.5, 1.0, 2.0, 4.0], betas=[0.05, 0.25, 1.0])
path = "rotation_factor_grid.csv"
Path(path).write_text(fig1_to_csv(data), newline="")
print(f"\nwrote {len(data['rows'])} grid points to {path}")
print("monotone decreasing along alpha per beta:", data["monotonic_in_alpha"])
