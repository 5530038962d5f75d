"""When can the collapse walk be seen over ordinary Brownian motion?

Three gas regimes, by falling density: hydrodynamic drag, free-molecular
drag, and finally the impact regime where individual molecule strikes are
resolvable and the observation window is set by the time between them.
A room-temperature photon bath also jiggles the grain; at liquid-helium
temperature it is irrelevant.
"""

from cslwalk import (CONSTANTS, Disc, Environment, Sphere, collision_stats,
                     combined_rms, molecular_flux, xi_molecular, xi_radiation,
                     xi_slip_corrected, xi_stokes)

T0 = CONSTANTS.room_temperature_T0
DAY = 86400.0
body = Sphere(radius=1e-5, density=1.0)

# --- viscous realm: air at STP ------------------------------------------------
eta = 2e-4                        # air viscosity, g/(cm s)
l_m = 0.6e-5                      # mean free path at STP, comparable to R
xi_v = xi_slip_corrected(body.radius, eta, l_m)
dx_day = combined_rms(xi_v, body, Environment(T0), None, 0.0, DAY)
print(f"air at STP: slip-corrected drag {xi_v:.3g} g/s "
      f"(Stokes {xi_stokes(body.radius, eta):.3g}),")
print(f"  thermal walk {dx_day:.2g} cm/day -- the collapse part is ~3e-11 cm"
      " and hopelessly buried")

# --- molecular realm: picoTorr ------------------------------------------------
env_pT = Environment.from_torr(T0, 1e-12)
xi_m = xi_molecular(body, env_pT)
tau = body.mass() / xi_m
dx = combined_rms(xi_m, body, env_pT, None, 0.0, 100.0)
print(f"\nat 1 pT: drag {xi_m:.3g} g/s, velocity relaxation tau = "
      f"{tau:.2g} s,")
print(f"  thermal walk {dx:.2g} cm in 100 s vs collapse {2e-7 * 1e3:.2g} cm "
      "-- still losing")

# --- impact realm: the proposed conditions ------------------------------------
env = Environment.from_torr(4.2, 5e-17)
print(f"\nat 4.2 K and 5e-17 Torr: n = {env.number_density():.0f} /cc, "
      f"flux = {molecular_flux(env):.3g} /cm^2 s")
sph = collision_stats(body, env)
disc = Disc(radius=2e-5, thickness=0.5e-5, density=1.0)
dsc = collision_stats(disc, env)
print(f"  mean time between strikes: sphere {sph['tau_c'] / 60:.0f} min, "
      f"disc {dsc['tau_c'] / 60:.0f} min")
print(f"  one molecule kicks the disc by {dsc['omega_kick']:.1f} rad/s -- a "
      "collision is unmistakable, so clean windows are plentiful")

# --- thermal radiation ---------------------------------------------------------
for T in (T0, 4.2):
    xi_r = xi_radiation(body.radius, T)
    dx_r = combined_rms(xi_r, body, Environment(T), None, 0.0, DAY)
    print(f"\nphoton bath at {T:g} K: drag {xi_r:.2g} g/s, walk "
          f"{dx_r:.2g} cm/day")
print("\nconclusion: cold and empty wins -- the impact realm at liquid-helium"
      "\ntemperature leaves the collapse walk as the only game in town")
