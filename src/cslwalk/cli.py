"""Command-line front end.

Subcommands reproduce the reference tables and figure datasets and expose
ad-hoc prediction queries.  All flags are long-form; no environment
variables are consulted, so a command line fully determines its output.

Each subcommand returns its CSV text and its JSON document (fig2 also its
boundary polylines) and writes nothing; `main` alone writes.  It sends
the CSV, or the JSON document under --json, to stdout or to --output, and
then any fig2 boundary files.  On stderr it writes one `warning: <message>`
line per distinct warning, in the order raised, and one `error: <message>`
line on failure.

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

from . import diffusion as diff
from .brownian import (check_realm, collision_stats, molecular_flux,
                       xi_molecular, xi_stokes)
from .core import (CslParams, Disc, Environment, N2_MOLECULAR_MASS,
                   Sphere, _csv, constants_summary, convert_unit)
from .errors import ConvergenceError, ValidationError, ValidityWarning

SCHEMA_VERSION = 1

# the largest count a flag may ask for (--n-times, a grid's COUNT)
_MAX_COUNT = 10 ** 6

_QTY_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*(.*?)\s*$")


def _quantity(kind: str, base: str):
    def parse(text: str) -> float:
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
    t = text.strip().lower().replace(" ", "")
    if t in ("2pi", "2*pi"):
        return 2.0 * math.pi
    if t in ("pi",):
        return math.pi
    if t.endswith("pi"):
        return float(t[:-2]) * math.pi
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


def _round6(value):
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return float(f"{value:.6g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return _round6(obj)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fmt(value: float, paper_format: bool) -> str:
    return f"{value:.0e}" if paper_format else f"{value:.6g}"


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
    p.add_argument("--density", type=float, default=1.0,
                   help="mass density in g/cm^3 (default 1)")


def _add_csl_flags(p):
    p.add_argument("--lam", type=float, default=None,
                   help="collapse rate in 1/s (default GRW 1e-16)")
    p.add_argument("--lambda-inv", type=_time, default=None,
                   help="inverse collapse rate in s (alternative to --lam)")
    p.add_argument("--a", type=_length, default=1.0e-5,
                   help="collapse length (cm or du, default 1e-5 cm)")


def _add_env_flags(p):
    p.add_argument("--temperature", type=_temperature, default=293.15,
                   help="gas temperature (K, default 293.15)")
    p.add_argument("--pressure", type=_pressure, default=None,
                   help="gas pressure (Torr, pT or dyn/cm2)")
    p.add_argument("--gas-mass", type=float, default=N2_MOLECULAR_MASS,
                   help="gas molecular mass in g (default N2)")
    p.add_argument("--viscosity", type=float, default=None,
                   help="gas viscosity in g/(cm s), for the viscous realm")


def _body_from(args):
    if args.sphere_radius is not None:
        if args.disc_radius is not None or args.disc_thickness is not None:
            raise ValidationError("give either a sphere or a disc, not both")
        return Sphere(radius=args.sphere_radius, density=args.density)
    if args.disc_radius is not None and args.disc_thickness is not None:
        return Disc(radius=args.disc_radius, thickness=args.disc_thickness,
                    density=args.density)
    raise ValidationError(
        "specify --sphere-radius or both --disc-radius and --disc-thickness")


def _csl_from(args) -> CslParams:
    if args.lam is not None and args.lambda_inv is not None:
        raise ValidationError("give --lam or --lambda-inv, not both")
    if args.lambda_inv is not None:
        if not args.lambda_inv > 0:
            raise ValidationError("--lambda-inv must be positive")
        return CslParams(lam=1.0 / args.lambda_inv, a=args.a)
    lam = args.lam if args.lam is not None else 1.0e-16
    return CslParams(lam=lam, a=args.a)


def _env_from(args) -> Environment:
    return Environment(temperature=args.temperature, pressure=args.pressure,
                       gas_molecular_mass=args.gas_mass,
                       gas_viscosity=args.viscosity)


# ---------------------------------------------------------------------------
# subcommands

def _reference_csv(rows, columns, paper_format: bool) -> str:
    """A reference table: R_cm to 1 significant figure, then columns."""
    return _csv(["R_cm", *columns],
                [[_fmt(row["R_cm"], True)]
                 + [_fmt(row[c], paper_format) for c in columns]
                 for row in rows])


def _cmd_table1(args):
    rows = diff.vacuum_diffusion_table()
    columns = [f"dq_cm_t{t:g}" for t in diff.TABLE_TIMES]
    doc = {"params": {"lam": 1e-16, "a": 1e-5, "density_independent": True},
           "rows": rows}
    return _reference_csv(rows, columns, args.paper_format), doc


def _cmd_table2(args):
    rows = diff.equilibrium_table()
    doc = {"params": {"lam": 1e-16, "a": 1e-5, "density_g_cc": 1.0},
           "rows": rows}
    return _reference_csv(rows, ["s_inf_cm", "tau_s_s"], args.paper_format), doc


def _cmd_fig1(args):
    from . import factors

    dataset = factors.fig1_dataset(args.alphas, args.betas)
    csv_text = factors.fig1_to_csv(dataset)
    doc = {"params": {"alphas": args.alphas, "betas": args.betas},
           "rows": [{"alpha": a, "beta": b, "f_rot": v, "est_error": e}
                    for a, b, v, e in dataset["rows"]],
           "monotonic_in_alpha": {str(k): v for k, v in
                                  dataset["monotonic_in_alpha"].items()}}
    return csv_text, doc


def _cmd_fig2(args):
    """Also returns one boundary-polyline CSV per constraint id."""
    from . import constraints as cons

    which = tuple(args.which.split(",")) if args.which else cons.DEFAULT_MAP_IDS
    cmap = cons.fig2_dataset(args.a_grid, args.lambda_inv_grid, which=which)
    boundaries = cons.boundary_polylines(cmap)
    polylines = {cid: _csv(["log10_a", "log10_lambda_inv"],
                           [[f"{x:.6g}", f"{y:.6g}"] for x, y in pts])
                 for cid, pts in boundaries.items()}
    doc = {"params": {"a_grid_log10": args.a_grid,
                      "lambda_inv_grid_log10": args.lambda_inv_grid,
                      "ids": list(which)},
           "metadata": cmap.metadata(),
           "boundaries": boundaries,
           "rows": [
               {"log10_a": la, "log10_lambda_inv": ll,
                **{cid: bool(v) for cid, v in zip(cmap.ids, cmap.passed[i][j])}}
               for i, la in enumerate(cmap.log10_a)
               for j, ll in enumerate(cmap.log10_lambda_inv)]}
    return cons.map_to_csv(cmap), doc, polylines


def _resolve_factor(args, body, csl):
    from . import factors

    if args.f is not None:
        return args.f
    if args.mode == "rotation":
        if isinstance(body, Sphere):
            return 0.0
        return factors.f_rot_disc(factors.DiscAspect.from_disc(body, csl)).value
    if isinstance(body, Sphere):
        return factors.f_sphere(body.radius / csl.a).value
    aspect = factors.DiscAspect.from_disc(body, csl)
    if args.orientation == "edge":
        return factors.f_disc_edge(aspect).value
    return factors.f_disc_perp(aspect).value


def _cmd_diffuse(args):
    body = _body_from(args)
    csl = _csl_from(args)
    mechanism = {"qm": "qm-baseline"}.get(args.mechanism, args.mechanism)
    mode = args.mode
    f = _resolve_factor(args, body, csl)

    if args.target is not None:
        if mechanism != "csl" or mode != "rotation":
            raise ValidationError("--target is defined for csl rotation only")
        t_hit = diff.time_to_rotation(csl, f, args.target)
        csv_text = _csv(["target_rad", "f_rot", "time_s"],
                        [[f"{v:.6g}" for v in (args.target, f, t_hit)]])
        return csv_text, {"params": {"lam": csl.lam, "a": csl.a, "f_rot": f},
                          "target_rad": args.target, "time_s": t_hit}

    if args.times:
        times = args.times
    else:
        n = args.n_times
        times = [args.t_end * (k + 1) / n for k in range(n)]

    xi = None
    env = None
    if mechanism in ("brownian", "combined"):
        env = _env_from(args)
        if args.realm == "viscous":
            if env.gas_viscosity is None:
                raise ValidationError("viscous realm needs --viscosity")
            xi = xi_stokes(body.radius, env.gas_viscosity)
        else:
            orientation = None if isinstance(body, Sphere) else args.orientation
            xi = xi_molecular(body, env, orientation)
        if env.pressure is not None:
            check_realm(body, env, args.realm)   # warns if dubious

    curve = diff.diffusion_curve(
        mechanism, mode, times, csl=csl if mechanism in ("csl", "combined") else None,
        f=f, body=body, env=env, xi=xi, regime=args.regime)
    doc = {"params": curve.params_used,
           "samples": [{"t_s": t, "rms": r} for t, r in curve.samples]}
    return diff.curve_to_csv(curve), doc


def _cmd_simulate(args):
    from .wavepacket import simulate_ensemble, stats_to_csv

    if args.s_inf is not None or args.tau_s is not None:
        if args.s_inf is None or args.tau_s is None:
            raise ValidationError("give both --s-inf and --tau-s or neither")
        eq = diff.WavepacketEquilibrium(s_inf=args.s_inf, tau_s=args.tau_s)
    else:
        body = _body_from(args)
        csl = _csl_from(args)
        eq = diff.equilibrium_width(csl, body)   # warns outside its range
    dt = args.dt if args.dt is not None else eq.tau_s / 100.0
    t_end = args.t_end if args.t_end is not None else 10.0 * eq.tau_s
    stats = simulate_ensemble(eq, n_traj=args.n_traj, dt=dt, t_end=t_end,
                              seed=args.seed, method=args.method,
                              workers=args.workers)
    doc = {"params": {"s_inf_cm": eq.s_inf, "tau_s_s": eq.tau_s, "dt_s": dt,
                      "t_end_s": t_end, "n_traj": args.n_traj,
                      "seed": args.seed, "method": args.method},
           "rows": [{"t_s": t, "mean_Q": q, "mean_sq_Q": q2,
                     "se_mean_sq_Q": se2, "mean_sq_P": p2, "se_mean_sq_P": sep}
                    for t, q, q2, se2, p2, sep in zip(
                        stats.times, stats.mean_Q, stats.mean_sq_Q,
                        stats.se_mean_sq_Q, stats.mean_sq_P,
                        stats.se_mean_sq_P)]}
    return stats_to_csv(stats), doc


def _cmd_collide(args):
    body = _body_from(args)
    if args.pressure is None:
        raise ValidationError("collision statistics need --pressure")
    env = _env_from(args)
    stats = collision_stats(body, env)
    flux = molecular_flux(env)
    fields = {"tau_c_s": stats.tau_c, "tau_c_min": stats.tau_c / 60.0,
              "flux_per_cm2_s": flux}
    if stats.delta_v is not None:
        fields["delta_v_cm_s"] = stats.delta_v
    if stats.omega_kick is not None:
        fields["omega_kick_rad_s"] = stats.omega_kick
    csv_text = _csv(fields, [[f"{v:.6g}" for v in fields.values()]])
    doc = {"params": {"temperature_K": env.temperature,
                      "pressure_dyn_cm2": env.pressure,
                      "gas_mass_g": env.gas_molecular_mass},
           "result": fields}
    return csv_text, doc


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

    p = sub.add_parser("table1", help="collapse-only rms displacement table")
    p.add_argument("--paper-format", action="store_true",
                   help="round entries to 1 significant figure")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="equilibrium packet width table")
    p.add_argument("--paper-format", action="store_true")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_table2)

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
                   help="comma list of constraint ids (default the 5 drawn)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("diffuse", help="rms diffusion curve or crossing time")
    p.add_argument("--mechanism", choices=("csl", "brownian", "combined", "qm"),
                   default="csl")
    p.add_argument("--mode", choices=("translation", "rotation"),
                   default="translation")
    p.add_argument("--orientation", choices=("perp", "edge"), default="perp",
                   help="disc translation direction (default perp)")
    p.add_argument("--f", type=float, default=None,
                   help="override the geometry factor")
    p.add_argument("--target", type=_angle, default=None,
                   help="report the time to reach this angle (rad, or '2pi')")
    p.add_argument("--times", type=_csv_floats, default=None,
                   help="comma list of times in s")
    p.add_argument("--t-end", type=_time, default=1.0e3)
    p.add_argument("--n-times", type=_count, default=25)
    p.add_argument("--realm", choices=("molecular", "viscous"),
                   default="molecular")
    p.add_argument("--regime", choices=("auto", "short", "long"),
                   default="auto")
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
        return [(None, _json_text({"schema_version": SCHEMA_VERSION,
                                   **constants_summary()}))]
    csv_text, doc, *polylines = args.func(args)
    if args.json:
        return [(args.output, _json_text({"schema_version": SCHEMA_VERSION,
                                          "command": args.command,
                                          **_jsonable(doc)}))]
    outputs = [(args.output, csv_text)]
    if args.output and polylines:
        # one polyline file per constraint next to the lattice CSV
        stem = args.output[:-4] if args.output.endswith(".csv") else args.output
        outputs += [(f"{stem}_boundary_{cid}.csv", text)
                    for cid, text in polylines[0].items()]
    return outputs


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
