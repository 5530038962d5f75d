"""Command-line front end.

Subcommands reproduce the reference tables and figure datasets and expose
ad-hoc prediction queries.  All flags are long-form; no environment
variables are consulted, so a command line fully determines its output.

Importing this module loads only the standard library and `errors`.  A
subcommand imports the cslwalk modules it calls when it runs, and returns
only what `main` writes: its JSON document under --json, else its CSV text
(fig2 also, under --output, one boundary-polyline CSV per constraint id).
`main` alone writes, to stdout or --output and then any fig2 boundary files;
on stderr one `warning: <message>` line per distinct warning, in the order
raised, and one `error: <message>` line on failure.

Exit codes: 0 success, 2 flag error, 3 precondition rejection or an output
file that cannot be written, 4 numerical non-convergence.  A count
(--n-times, the COUNT of a grid) above 10^6 is a flag error, and a fig2
lattice above 10^6 points a precondition rejection.

Numeric flags accept unit suffixes: pressures Torr/pT/dyn/cm2 (bare number
= dyn/cm2), lengths cm/du (1 du = 1e-5 cm; bare = cm), times s/day
(bare = s), temperatures K.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from functools import partial

from .errors import ConvergenceError, ValidationError, ValidityWarning, _nonnegative

SCHEMA_VERSION = 1

# the largest count a flag may ask for (--n-times, a grid's COUNT)
_MAX_COUNT = 10 ** 6

_QTY_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*(.*?)\s*$")


def _quantity(kind: str, base: str):
    def parse(text: str) -> float:
        from .core import convert_unit
        m = _QTY_RE.match(text)
        if not m:
            raise argparse.ArgumentTypeError(f"cannot parse quantity {text!r}")
        value = float(m.group(1))
        unit = m.group(2) or base
        try:
            return convert_unit(value, unit, base)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    parse.__name__ = kind
    return parse


_pressure = _quantity("pressure", "dyn/cm2")
_length = _quantity("length", "cm")
_time = _quantity("time", "s")
_temperature = _quantity("temperature", "K")


def _angle(text: str) -> float:
    """An angle in rad, or a multiple of pi: "pi", "2pi", "0.5*pi"."""
    t = text.strip().lower().replace(" ", "")
    if t.endswith("pi"):
        return float(t[:-2].removesuffix("*") if t != "pi" else 1) * math.pi
    return float(t)


def _count(text: str) -> int:
    n = int(text)
    if not 1 <= n <= _MAX_COUNT:
        raise argparse.ArgumentTypeError(
            f"need a count from 1 to {_MAX_COUNT}, got {n}")
    return n


def _csv_floats(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"non-finite number in {text!r}")
    return values


def _log_grid(text: str) -> list[float]:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be MIN:MAX:COUNT, got {text!r}") from exc
    if not 1 <= n <= _MAX_COUNT or hi <= lo:
        raise argparse.ArgumentTypeError(
            f"grid needs MAX > MIN and COUNT from 1 to {_MAX_COUNT}")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def _jsonable(obj):
    """`obj` with each float rounded to 6 significant figures."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return float(f"{obj:.6g}") if isinstance(obj, float) else obj


def _json_text(doc: dict) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **doc},
                      sort_keys=True, indent=2) + "\n"


def _add_io_flags(p):
    p.add_argument("--json", action="store_true",
                   help="write a schema-stable JSON document instead of CSV")
    p.add_argument("--output", default=None,
                   help="write to this path instead of stdout")


def _add_body_flags(p):
    p.add_argument("--sphere-radius", type=_length, default=None,
                   help="sphere radius (cm or du)")
    p.add_argument("--disc-radius", type=_length, default=None,
                   help="disc radius (cm or du)")
    p.add_argument("--disc-thickness", type=_length, default=None,
                   help="disc thickness (cm or du)")
    p.add_argument("--density", type=float, default=None,
                   help="mass density in g/cm^3 (default 1)")


def _add_csl_flags(p):
    p.add_argument("--lam", type=float, default=None,
                   help="collapse rate in 1/s (default GRW 1e-16)")
    p.add_argument("--lambda-inv", type=_time, default=None,
                   help="inverse collapse rate in s (alternative to --lam)")
    p.add_argument("--a", type=_length, default=None,
                   help="collapse length (cm or du, default 1e-5 cm)")


def _add_env_flags(p):
    p.add_argument("--temperature", type=_temperature, default=None,
                   help="gas temperature (K, default 293.15)")
    p.add_argument("--pressure", type=_pressure, default=None,
                   help="gas pressure (Torr, pT or dyn/cm2)")
    p.add_argument("--gas-mass", type=float, default=None,
                   help="gas molecular mass in g (default N2)")
    p.add_argument("--viscosity", type=float, default=None,
                   help="gas viscosity in g/(cm s), for the viscous realm")


def _body_from(args):
    from .core import Disc, Sphere

    density = 1.0 if args.density is None else args.density
    if args.sphere_radius is not None:
        if args.disc_radius is not None or args.disc_thickness is not None:
            raise ValidationError("give either a sphere or a disc, not both")
        return Sphere(radius=args.sphere_radius, density=density)
    if args.disc_radius is not None and args.disc_thickness is not None:
        return Disc(radius=args.disc_radius, thickness=args.disc_thickness,
                    density=density)
    raise ValidationError(
        "specify --sphere-radius or both --disc-radius and --disc-thickness")


def _csl_from(args):
    from .core import CslParams

    if args.lam is not None and args.lambda_inv is not None:
        raise ValidationError("give --lam or --lambda-inv, not both")
    grw = CslParams.grw()
    a = grw.a if args.a is None else args.a
    if args.lambda_inv is not None:
        if not args.lambda_inv > 0:
            raise ValidationError("--lambda-inv must be positive")
        return CslParams(lam=1.0 / args.lambda_inv, a=a)
    return CslParams(lam=grw.lam if args.lam is None else args.lam, a=a)


def _env_from(args):
    from .core import CONSTANTS, N2_MOLECULAR_MASS, Environment

    return Environment(
        temperature=(CONSTANTS.room_temperature_T0 if args.temperature is None
                     else args.temperature),
        pressure=args.pressure,
        gas_molecular_mass=(N2_MOLECULAR_MASS if args.gas_mass is None
                            else args.gas_mass),
        gas_viscosity=args.viscosity)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_table(args):
    """A reference table at the GRW point, table1 (collapse-only rms) or
    table2 (equilibrium widths): R_cm to 1 significant figure, then columns."""
    from . import diffusion as diff
    from .core import CslParams, _csv

    if args.command == "table1":
        rows = diff.vacuum_diffusion_table()
        columns = [f"dq_cm_t{t:g}" for t in diff.TABLE_TIMES]
        extra = {"density_independent": True}
    else:
        rows = diff.equilibrium_table()
        columns, extra = ["s_inf_cm", "tau_s_s"], {"density_g_cc": 1.0}
    if args.json:
        grw = CslParams.grw()
        return {"params": {"lam": grw.lam, "a": grw.a, **extra}, "rows": rows}
    fmt = "{:.0e}" if args.paper_format else "{:.6g}"
    return _csv(["R_cm", *columns], [[f"{row['R_cm']:.0e}"]
                                     + [fmt.format(row[c]) for c in columns]
                                     for row in rows])


def _cmd_fig1(args):
    from .factors import fig1_dataset, fig1_to_csv

    dataset = fig1_dataset(args.alphas, args.betas)
    if not args.json:
        return fig1_to_csv(dataset)
    return {"params": {"alphas": args.alphas, "betas": args.betas},
            "rows": [{"alpha": a, "beta": b, "f_rot": v, "est_error": e}
                     for a, b, v, e in dataset["rows"]],
            "monotonic_in_alpha": {str(k): v for k, v in
                                   dataset["monotonic_in_alpha"].items()}}


def _cmd_fig2(args):
    """As CSV: the lattice CSV and, under --output, {id: polyline CSV}."""
    from . import constraints as cons
    from .core import _csv

    if args.which == "":
        raise ValidationError("--which needs at least one constraint id")
    which = tuple(args.which.split(",")) if args.which else cons.DEFAULT_MAP_IDS
    cmap = cons.fig2_dataset(args.a_grid, args.lambda_inv_grid, which=which)
    if not args.json:
        boundaries = cons.boundary_polylines(cmap) if args.output else {}
        return cons.map_to_csv(cmap), {
            cid: _csv(["log10_a", "log10_lambda_inv"],
                      [[f"{x:.6g}", f"{y:.6g}"] for x, y in pts])
            for cid, pts in boundaries.items()}
    # one {id: pass} dict per distinct pass/fail pattern of the lattice
    named = {p: dict(zip(cmap.ids, map(bool, p))) for p in set().union(*cmap.passed)}
    return {"params": {"a_grid_log10": args.a_grid,
                       "lambda_inv_grid_log10": args.lambda_inv_grid,
                       "ids": list(which)},
            "metadata": cmap.metadata(),
            "boundaries": cons.boundary_polylines(cmap),
            "rows": [{"log10_a": la, "log10_lambda_inv": ll, **named[p]}
                     for la, row in zip(cmap.log10_a, cmap.passed)
                     for ll, p in zip(cmap.log10_lambda_inv, row)]}


def _resolve_factor(args, body, csl):
    from . import factors

    if args.f is not None:
        return args.f
    if args.mode == "rotation":
        if args.sphere_radius is not None:
            return 0.0
        return factors.f_rot_disc(factors.DiscAspect.from_disc(body, csl)).value
    if args.sphere_radius is not None:
        return factors.f_sphere(body.radius / csl.a).value
    aspect = factors.DiscAspect.from_disc(body, csl)
    if args.orientation == "edge":
        return factors.f_disc_edge(aspect).value
    return factors.f_disc_perp(aspect).value


def _reject_given(args, names, why: str) -> None:
    """Reject the first of these flags (each defaults to None) that the
    command line gives: nothing reads it `why`, e.g. "by --mechanism qm"."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValidationError(f"--{name.replace('_', '-')} is not used {why}")


def _cmd_diffuse(args):
    from . import diffusion as diff
    from .core import _csv

    body = _body_from(args)   # a sphere exactly when --sphere-radius is given
    sphere = args.sphere_radius is not None
    mechanism = {"qm": "qm-baseline"}.get(args.mechanism, args.mechanism)
    mode = args.mode
    collapse = ("f", "lam", "lambda_inv", "a")
    gas = ("temperature", "pressure", "gas_mass", "viscosity", "realm")
    # the flags each mechanism never reads (the collapse rms reads no mass)
    unread = {"csl": gas + ("density",), "qm": collapse + gas,
              "brownian": collapse, "combined": ()}[args.mechanism]
    _reject_given(args, unread, f"by --mechanism {args.mechanism}")
    csl = None if args.mechanism in ("qm", "brownian") else _csl_from(args)
    if args.orientation is not None:
        if sphere or mode == "rotation":
            raise ValidationError("--orientation is used by a disc in translation only")
        if mechanism == "csl" and args.f is not None:
            raise ValidationError("--orientation is not read by --mechanism csl with --f")
    f = _resolve_factor(args, body, csl) if mechanism in ("csl", "combined") else None

    if args.target is not None:
        if mechanism != "csl" or mode != "rotation":
            raise ValidationError("--target is defined for csl rotation only")
        _reject_given(args, ("times", "t_end", "n_times"), "with --target")
        t_hit = diff.time_to_rotation(csl, f, args.target)
        if args.json:
            return {"params": {"lam": csl.lam, "a": csl.a, "f_rot": f},
                    "target_rad": args.target, "time_s": t_hit}
        return _csv(["target_rad", "f_rot", "time_s"],
                    [[f"{v:.6g}" for v in (args.target, f, t_hit)]])

    if args.times is not None:
        _reject_given(args, ("t_end", "n_times"), "with --times")
        if not args.times:
            raise ValidationError("--times needs at least one time")
        times = args.times
    else:
        n = 25 if args.n_times is None else args.n_times
        t_end = 1.0e3 if args.t_end is None else args.t_end
        if not t_end > 0:
            raise ValidationError("--t-end must be positive")
        times = [t_end * (k + 1) / n for k in range(n)]

    xi = env = None
    if mechanism in ("brownian", "combined"):
        from .brownian import (check_realm, xi_molecular, xi_rotational,
                               xi_stokes, xi_viscous_disc)
        env = _env_from(args)
        realm = args.realm or "molecular"
        if realm == "viscous" and env.gas_viscosity is None:
            raise ValidationError("viscous realm needs --viscosity")
        orientation = None if sphere else args.orientation or "perp"
        if mode == "rotation":
            xi = xi_rotational(body, env, realm)
        elif realm == "viscous":
            eta = env.gas_viscosity
            xi = (xi_stokes(body.radius, eta) if sphere else
                  xi_viscous_disc(body.radius, body.thickness, eta, orientation))
        else:
            xi = xi_molecular(body, env, orientation)
        if env.pressure is not None:
            check_realm(body, env, realm)   # warns if dubious

    for t in times:
        _nonnegative(times=t)
    rms = {
        ("csl", "translation"): partial(diff.csl_rms_translation, csl, f),
        ("csl", "rotation"): partial(diff.csl_rms_rotation, csl, f),
        ("qm-baseline", "translation"): partial(diff.qm_baseline_translation, body),
        ("qm-baseline", "rotation"): partial(diff.qm_baseline_rotation, body),
        ("brownian", mode): partial(diff.combined_rms, xi, body, env, None,
                                    0.0, mode=mode),
        ("combined", mode): partial(diff.combined_rms, xi, body, env, csl, f,
                                    mode=mode),
    }[mechanism, mode]
    samples = [(t, rms(t)) for t in times]
    if not args.json:
        return _csv(["t_s", "rms", "mechanism", "mode"],
                    [[f"{t:.6g}", f"{r:.6g}", mechanism, mode] for t, r in samples])

    params = {"mechanism": mechanism, "mode": mode,
              "body": {"shape": "sphere" if sphere else "disc",
                       "radius_cm": body.radius, "density_g_cc": body.density}}
    if not sphere:
        params["body"]["thickness_cm"] = body.thickness
    if mechanism in ("csl", "combined"):
        params.update(f=f, lam=csl.lam, a=csl.a)
    if env is not None:
        params["environment"] = {"temperature_K": env.temperature,
                                 "pressure_dyn_cm2": env.pressure,
                                 "gas_mass_g": env.gas_molecular_mass}
        # a torque coefficient in rotation
        params["xi_g_cm2_per_s" if mode == "rotation" else "xi_g_per_s"] = xi
    return {"params": params, "samples": [{"t_s": t, "rms": r} for t, r in samples]}


def _cmd_simulate(args):
    from .diffusion import WavepacketEquilibrium, equilibrium_width
    from .wavepacket import simulate_ensemble, stats_to_csv

    if args.s_inf is not None or args.tau_s is not None:
        if args.s_inf is None or args.tau_s is None:
            raise ValidationError("give both --s-inf and --tau-s or neither")
        _reject_given(args, ("sphere_radius", "disc_radius", "disc_thickness",
                             "density", "lam", "lambda_inv", "a"),
                      "with --s-inf and --tau-s")
        eq = WavepacketEquilibrium(s_inf=args.s_inf, tau_s=args.tau_s)
    else:
        body = _body_from(args)
        csl = _csl_from(args)
        eq = equilibrium_width(csl, body)   # warns outside its range
    for flag, value in (("--dt", args.dt), ("--t-end", args.t_end)):
        if value is not None and not value > 0:
            raise ValidationError(f"{flag} must be positive")
    dt = args.dt if args.dt is not None else eq.tau_s / 100.0
    t_end = args.t_end if args.t_end is not None else 10.0 * eq.tau_s
    stats = simulate_ensemble(eq, n_traj=args.n_traj, dt=dt, t_end=t_end,
                              seed=args.seed, method=args.method,
                              workers=args.workers)
    if not args.json:
        return stats_to_csv(stats)
    columns = ("mean_Q", "mean_sq_Q", "se_mean_sq_Q", "mean_sq_P", "se_mean_sq_P")
    return {"params": {"s_inf_cm": eq.s_inf, "tau_s_s": eq.tau_s, "dt_s": dt,
                       "t_end_s": t_end, "n_traj": args.n_traj,
                       "seed": args.seed, "method": args.method},
            "rows": [dict(zip(("t_s", *columns), row)) for row in
                     zip(stats.times, *(getattr(stats, c) for c in columns))]}


def _cmd_collide(args):
    from .brownian import collision_stats, molecular_flux
    from .core import _csv

    body = _body_from(args)
    _reject_given(args, ("viscosity",), "by collide")
    if args.pressure is None:
        raise ValidationError("collision statistics need --pressure")
    env = _env_from(args)
    stats = collision_stats(body, env)
    tau_c = stats.pop("tau_c")
    units = {"delta_v": "cm_s", "omega_kick": "rad_s"}    # sphere, disc
    fields = {"tau_c_s": tau_c, "tau_c_min": tau_c / 60.0,
              "flux_per_cm2_s": molecular_flux(env),
              **{f"{kick}_{units[kick]}": v for kick, v in stats.items()}}
    if not args.json:
        return _csv(fields, [[f"{v:.6g}" for v in fields.values()]])
    return {"params": {"temperature_K": env.temperature,
                       "pressure_dyn_cm2": env.pressure,
                       "gas_mass_g": env.gas_molecular_mass},
            "result": fields}


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cslwalk",
        description="Collapse-model random-walk predictions: reference "
                    "tables, figure datasets, and ad-hoc queries.")
    parser.add_argument("--constants", action="store_true",
                        help="dump every physical constant and convention "
                             "in use, then exit")
    sub = parser.add_subparsers(dest="command")

    for name, what in (("table1", "collapse-only rms displacement"),
                       ("table2", "equilibrium packet width")):
        p = sub.add_parser(name, help=f"{what} table")
        p.add_argument("--paper-format", action="store_true",
                       help="round entries to 1 significant figure")
        _add_io_flags(p)
        p.set_defaults(func=_cmd_table)

    p = sub.add_parser("fig1", help="rotation factor grid dataset")
    p.add_argument("--alphas", type=_csv_floats,
                   default=[0.1, 0.175, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0,
                            4.0, 6.0, 8.0],
                   help="comma list of alpha = L/2a values")
    p.add_argument("--betas", type=_csv_floats, default=[0.05, 0.25, 1.0],
                   help="comma list of beta = b/2a values")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", help="parameter-space constraint map dataset")
    p.add_argument("--a-grid", type=_log_grid, default=_log_grid("-7:0:71"),
                   help="log10 a grid as MIN:MAX:COUNT (default -7:0:71)")
    p.add_argument("--lambda-inv-grid", type=_log_grid,
                   default=_log_grid("0:22:89"),
                   help="log10 lambda_inv grid as MIN:MAX:COUNT")
    p.add_argument("--which", default=None,
                   help="comma list of distinct constraint ids (default the 5 drawn)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("diffuse", help="rms diffusion curve or crossing time")
    p.add_argument("--mechanism", choices=("csl", "brownian", "combined", "qm"),
                   default="csl")
    p.add_argument("--mode", choices=("translation", "rotation"),
                   default="translation")
    p.add_argument("--orientation", choices=("perp", "edge"), default=None,
                   help="disc translation direction (default perp)")
    p.add_argument("--f", type=float, default=None,
                   help="override the geometry factor")
    p.add_argument("--target", type=_angle, default=None,
                   help="report the time to reach this angle (rad, or '2pi')")
    p.add_argument("--times", type=_csv_floats, default=None,
                   help="comma list of times in s")
    p.add_argument("--t-end", type=_time, default=None,
                   help="last time of the grid, > 0 (default 1000 s)")
    p.add_argument("--n-times", type=_count, default=None)
    p.add_argument("--realm", choices=("molecular", "viscous"), default=None)
    _add_body_flags(p)
    _add_csl_flags(p)
    _add_env_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_diffuse)

    p = sub.add_parser("simulate", help="wavepacket-center SDE ensemble")
    p.add_argument("--n-traj", type=int, default=1000)
    p.add_argument("--dt", type=_time, default=None,
                   help="time step (default tau_s/100)")
    p.add_argument("--t-end", type=_time, default=None,
                   help="end time (default 10 tau_s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("euler-maruyama", "exact-b15"),
                   default="euler-maruyama")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--s-inf", type=_length, default=None,
                   help="equilibrium width directly (cm)")
    p.add_argument("--tau-s", type=_time, default=None,
                   help="relaxation time directly (s)")
    _add_body_flags(p)
    _add_csl_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("collide", help="impact-realm collision statistics")
    _add_body_flags(p)
    _add_env_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_collide)

    return parser


def _outputs(args) -> list[tuple[str | None, str]]:
    """(path, text) of each output in writing order; path None is stdout."""
    if args.constants:
        from .core import constants_summary
        return [(None, _json_text(constants_summary()))]
    out = args.func(args)
    if args.json:
        return [(args.output, _json_text({"command": args.command,
                                          **_jsonable(out)}))]
    csv_text, polylines = out if isinstance(out, tuple) else (out, {})
    # fig2: one polyline file per constraint next to the lattice CSV
    stem = args.output and args.output.removesuffix(".csv")
    return [(args.output, csv_text)] + [(f"{stem}_boundary_{cid}.csv", text)
                                        for cid, text in polylines.items()]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None and not args.constants:
        parser.print_usage(sys.stderr)
        return 2
    outputs, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ValidityWarning)
        try:
            outputs = _outputs(args)
        except ValidationError as exc:
            code, error = 3, exc
        except ConvergenceError as exc:
            code, error = 4, exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return code
    for path, text in outputs:
        try:
            if path is None:
                sys.stdout.write(text)
            else:
                with open(path, "w", newline="") as fh:
                    fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {path or 'stdout'}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
