"""Where in (collapse rate, collapse length) space can the model live?

Each bound is a power law in the raw CGS numbers lambda_inv (s) and a (cm),
i.e. a straight line in log-log.  A rotational null experiment would carve
away most of the presently allowed region; a sufficiently sensitive
translational null result would close it entirely.
"""

from pathlib import Path

import numpy as np

from cslwalk import (evaluate_constraints, fig2_dataset, ge_detector_rate,
                     ge_radiation_threshold, lambda_gravitational,
                     thermal_lambda_inv)
from cslwalk.constraints import boundary_polylines, map_to_csv

# The canonical parameter point and what it survives:
flags = evaluate_constraints(1e16, 1e-5)
print("canonical point (lambda_inv = 1e16 s, a = 1e-5 cm):")
for cid, ok in flags.items():
    print(f"  {cid:>18}: {'passes' if ok else 'violates'}")
print("(the two violated bounds are would-be null experiments, not data)")

# The germanium emission bound, derived from the free-electron rate:
print(f"\npredicted detector rate at the canonical point: "
      f"{ge_detector_rate(1e-16, 1e-5):.2g} counts/(keV kg day)")
print(f"count limit 0.05 => lambda_inv a^2 > {ge_radiation_threshold():.2g}")

# Gravitationally motivated collapse sits far below the canonical rate:
lam_g = lambda_gravitational(1e-5)
print(f"\ngravitational effective rate at a = 1e-5 cm: {lam_g:.2g} /s")
print(f"  (collapse time for a just-visible sphere ~ "
      f"{1 / (lam_g * (2e10) ** 2):.0f} s: slower than perception)")

# A thermal-bath origin for the noise pins a line, not a point:
print(f"\nthermal-bath line: lambda_inv a^2 = {thermal_lambda_inv(1e3, 1.0):.2g} "
      f"(gamma = 1e3 passes through the canonical point: "
      f"lambda_inv({1e-5:g}) = {thermal_lambda_inv(1e3, 1e-5):.2g} s)")

# Full lattice dataset for plotting:
cmap = fig2_dataset(np.linspace(-7, 0, 71), np.linspace(0, 22, 89))
wedge = ("ge-radiation", "rot-null", "perception-time", "small-displacement")
print(f"\nallowed wedge under {wedge} nonempty: {cmap.region_nonempty(wedge)}")
print("adding trans-null empties it:",
      not cmap.region_nonempty(wedge + ("trans-null",)))

Path("parameter_map.csv").write_text(map_to_csv(cmap), newline="")
lines = boundary_polylines(cmap)
print(f"wrote parameter_map.csv ({len(cmap.log10_a) * len(cmap.log10_lambda_inv)}"
      f" lattice points) and {len(lines)} boundary polylines")
