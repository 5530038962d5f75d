"""The workloads of the benchmark, their checks and layer metrics.

Each workload is a closed loop with one client.  Its set-up imports
cslwalk and warms every call path; its operations are single calls into
one layer (module) of cslwalk, each followed by a correctness check that
is not timed.  The benchmark seed fixes the operation order and every RNG
seed handed to the program.

cslwalk and numpy are imported inside set-up, never at module import, so
that the set-up measurement includes them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import resource
import time
import warnings

from harness import (REFS, Op, Tracer, median, run_child)

# A pull is |estimate - reference| / combined standard error.  Over the
# sweeps made while choosing it (30 seeds per scheme), the ensemble pulls
# spread with a standard deviation of up to 1.2, the largest was 3.7; 6 keeps
# a false alarm below ~1e-6 per pull, so practically never per run.
PULL_BOUND = 6.0
REL_TOL = 1.0e-6          # plus the result's own est_error


def _load_refs() -> dict:
    return json.loads(REFS.read_text())


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Import cslwalk and warm every call path; no timed work here."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def perturbations(self, last: dict) -> list:
        """(description, op, wrong output, round seed) the checks must reject."""
        return []

    def probe(self, tracer: Tracer) -> dict:
        """Extra traced measurements of this workload's layers."""
        return {}

    def layer_metrics(self, records: list, n_traced_rounds: int) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return _rss_self_mb()


def _by_label(ops: list[Op]) -> dict:
    return {op.label: op for op in ops}


# ---------------------------------------------------------------------------
# cli-readme

# The 8 command lines of the README's "Command line" section, argv after
# the program name.  simulate's --seed is replaced by one drawn from the
# benchmark seed.
README_LINES = (
    ("table1", ["table1", "--paper-format"]),
    ("table2", ["table2", "--json"]),
    ("collide", ["collide", "--disc-radius", "2du", "--disc-thickness", ".5du",
                 "--temperature", "4.2K", "--pressure", "5e-17Torr"]),
    ("diffuse", ["diffuse", "--mode", "rotation", "--disc-radius", "2du",
                 "--disc-thickness", ".5du", "--target", "2pi"]),
    ("simulate", ["simulate", "--n-traj", "10000", "--sphere-radius", "1e-5",
                  "--seed", "7"]),
    ("fig1", ["fig1", "--alphas", "0.5,1,2", "--betas", "0.25"]),
    ("fig2", ["fig2", "--a-grid=-7:0:71", "--lambda-inv-grid=0:22:89"]),
    ("constants", ["--constants"]),
)
# What the installed `cslwalk` console script runs.
LAUNCH = "import sys; from cslwalk.cli import main; sys.exit(main())"
SIMULATE_HEADER = ["t_s", "mean_Q", "mean_sq_Q", "se_mean_sq_Q", "mean_sq_P",
                   "se_mean_sq_P"]
SIMULATE_ROWS = 50
IMPORT_PROBES = 3
MAIN_PASSES = 3


def _simulate_problems(stdout: bytes) -> list:
    rows = list(csv.reader(io.StringIO(stdout.decode())))
    if not rows or rows[0] != SIMULATE_HEADER:
        return ["simulate: unexpected header"]
    body = rows[1:]
    if len(body) != SIMULATE_ROWS or any(len(r) != 6 for r in body):
        return [f"simulate: expected {SIMULATE_ROWS} rows of 6 columns"]
    try:
        values = [[float(x) for x in r] for r in body]
    except ValueError:
        return ["simulate: non-numeric cell"]
    if not all(math.isfinite(x) for r in values for x in r):
        return ["simulate: non-finite value"]
    times = [r[0] for r in values]
    if any(b <= a for a, b in zip(times, times[1:])):
        return ["simulate: times not increasing"]
    return []


def _parse_importtime(stderr: str) -> list:
    """(name, self_s, cumulative_s, depth) per `-X importtime` entry."""
    out = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|", 2)
        if not self_us.strip().isdigit():
            continue            # the column header
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        out.append((raw.strip(), int(self_us) * 1e-6, int(cum_us) * 1e-6,
                    depth))
    return out


def _outermost_scipy_s(entries: list) -> float:
    """Cumulative time of the scipy imports not nested in another scipy one."""
    total = 0.0
    stack: list = []           # reversed order visits parents first
    for name, _, cum, depth in reversed(entries):
        while stack and stack[-1][1] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(
                n.split(".")[0] == "scipy" for n, _ in stack):
            total += cum
        stack.append((name, depth))
    return total


class CliReadme(Workload):
    """Each operation is one `cslwalk` process for one README command line."""

    name = "cli-readme"

    def __init__(self, seed: int):
        super().__init__(seed)
        sim_seed = str(random.Random(seed).randrange(10 ** 6))
        self.lines = [(sub, [sim_seed if (sub == "simulate" and a == "7") else a
                             for a in argv]) for sub, argv in README_LINES]
        self.refs = _load_refs()["cli"]
        self.first: dict = {}
        self.main_s: dict = {}
        self.top_imports: list = []

    def setup(self) -> None:
        import cslwalk.cli
        cslwalk.cli.build_parser()

    def _check(self, sub):
        def check(out, _seed):
            rc, stdout, _err, _wall = out
            problems = []
            if rc != 0:
                problems.append(f"{sub}: exit code {rc}")
            seen = self.first.setdefault(sub, stdout)
            if stdout != seen:
                problems.append(f"{sub}: stdout differs between invocations")
            if sub == "simulate":
                problems += _simulate_problems(stdout)
            elif hashlib.sha256(stdout).hexdigest() != self.refs[sub]:
                problems.append(f"{sub}: stdout differs from the pinned reference")
            return problems, {"rc": rc}
        return check

    def ops(self) -> list[Op]:
        return [Op(label=sub, layer="cli", kind=sub,
                   call=lambda _s, argv=argv: run_child(["-c", LAUNCH, *argv]),
                   check=self._check(sub))
                for sub, argv in self.lines]

    def peak_rss_mb(self) -> float:
        # the largest child process waited for
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def perturbations(self, last: dict) -> list:
        ops = _by_label(self.ops())
        cases = []
        if "table1" in last:
            (rc, out, err, wall), seed = last["table1"]
            flipped = out.replace(b"e", b"E", 1)
            cases.append(("table1 stdout with one byte changed", ops["table1"],
                          (rc, flipped, err, wall), seed))
        if "simulate" in last:
            (rc, out, err, wall), seed = last["simulate"]
            rows = out.split(b"\r\n")        # csv rows end in CR LF
            cells = rows[-2].split(b",")
            rows[-2] = b",".join(cells[:2] + [b"nan"] + cells[3:])
            cases.append(("simulate row with a nan", ops["simulate"],
                          (rc, b"\r\n".join(rows), err, wall), seed))
        return cases

    def probe(self, tracer: Tracer) -> dict:
        """In-process cli.main per line, and fresh-interpreter import probes."""
        import cslwalk.cli
        main_s: dict = {sub: [] for sub, _ in self.lines}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(MAIN_PASSES):
                for sub, argv in self.lines:
                    buf = io.StringIO()
                    with tracer.span(f"cli.main.{sub}"), \
                            contextlib.redirect_stdout(buf):
                        t0 = time.perf_counter()
                        cslwalk.cli.main(list(argv))
                        main_s[sub].append(time.perf_counter() - t0)
        self.main_s = {sub: median(v) for sub, v in main_s.items()}

        code = ("import sys, time; n = len(sys.modules); "
                "t = time.perf_counter(); import cslwalk; "
                "print(time.perf_counter() - t, len(sys.modules) - n)")
        walls, counts = [], []
        for _ in range(IMPORT_PROBES):
            with tracer.span("import.probe"):
                rc, out, err, _ = run_child(["-c", code])
            if rc != 0:
                raise RuntimeError(f"import probe failed: {err.decode()[-300:]}")
            wall, count = out.split()
            walls.append(float(wall))
            counts.append(int(count))
        with tracer.span("import.importtime"):
            rc, _, err, _ = run_child(["-X", "importtime", "-c", "import cslwalk"])
        entries = _parse_importtime(err.decode())
        self.top_imports = [
            {"module": n, "self_s": s, "cumulative_s": c}
            for n, s, c, _ in sorted(entries, key=lambda e: -e[1])[:15]]
        return {"import.wall_s": median(walls),
                "import.modules": max(counts),
                "import.scipy_s": _outermost_scipy_s(entries)}

    def layer_metrics(self, records: list, n_traced_rounds: int) -> dict:
        traced = [r for r in records if r.traced]
        startup = []
        out = {}
        for sub, _ in self.lines:
            walls = [r.wall for r in traced if r.op.label == sub]
            out[f"cli.main_s.{sub}"] = self.main_s[sub]
            if walls:
                startup.append(median(walls) - self.main_s[sub])
        out["cli.startup_s"] = median(startup)
        out["cli.nonzero_exits"] = sum(1 for r in records
                                       if r.obs.get("rc", 0) != 0)
        return out


# ---------------------------------------------------------------------------
# figure-grids

FACTOR_ALPHAS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0)
FACTOR_BETAS = (0.05, 0.25, 1.0)
DISC_FACTORS = ("f_rot_disc", "f_disc_perp", "f_disc_edge")
LARGE_ALPHA = 8.0
# log10 grids as the CLI's MIN:MAX:COUNT: the fig2 default and a 4x finer one
LATTICES = {"default": ((-7.0, 0.0, 71), (0.0, 22.0, 89)),
            "fine": ((-7.0, 0.0, 281), (0.0, 22.0, 353))}


def log_grid(lo: float, hi: float, n: int) -> list:
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def factor_key(fn: str, alpha: float, beta: float | None) -> str:
    return f"{fn}({alpha:g})" if beta is None else f"{fn}({alpha:g},{beta:g})"


def mask_digest(cmap) -> str:
    import numpy as np
    m = cmap.mask()
    return hashlib.sha256(repr(m.shape).encode()
                          + np.packbits(m).tobytes()).hexdigest()


def monotonic(values: list) -> bool:
    """fig1_dataset's rule: f_rot does not rise along increasing alpha."""
    return all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class FigureGrids(Workload):
    """Geometry factors over an (alpha, beta) grid and fig2 lattices."""

    name = "figure-grids"     # a part of the library workload

    def __init__(self, seed: int):
        super().__init__(seed)
        refs = _load_refs()
        self.refs = refs["factors"]
        self.mono_refs = refs["fig1_monotonic"]
        self.fig2_refs = refs["fig2"]
        self.rot_seen: dict = {}

    def setup(self) -> None:
        import cslwalk
        self.cw = cslwalk
        for fn in DISC_FACTORS:
            getattr(cslwalk, fn)(cslwalk.DiscAspect(0.5, 0.25))
        cslwalk.f_sphere(0.5)
        cslwalk.fig2_dataset(log_grid(-7.0, 0.0, 3), log_grid(0.0, 22.0, 3))
        mask_digest(cslwalk.fig2_dataset([0.0], [0.0]))

    def _check_factor(self, fn, alpha, beta):
        key = factor_key(fn, alpha, beta)
        ref_value, _ = self.refs[key]

        def check(res, seed):
            v = float(res.value)
            err = float(res.est_error)
            problems = []
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                problems.append(f"{key} = {v} is outside [0, 1]")
            dev = abs(v - ref_value)
            if not dev <= err + REL_TOL * abs(ref_value):
                problems.append(f"{key} = {v!r} differs from the pinned "
                                f"{ref_value!r} by more than {err:.3g} + 1e-6 rel")
            if fn == "f_rot_disc":
                seen = self.rot_seen.setdefault((seed, beta), {})
                seen[alpha] = v
                if len(seen) == len(FACTOR_ALPHAS):
                    flag = monotonic([seen[a] for a in FACTOR_ALPHAS])
                    if flag != self.mono_refs[f"{beta:g}"]:
                        problems.append(f"monotonic_in_alpha[{beta:g}] is {flag}")
            rel = dev / abs(ref_value) if ref_value else dev
            return problems, {"rel_dev": rel}
        return check

    def _check_lattice(self, which):
        ref = self.fig2_refs[which]

        def check(cmap, _seed):
            if mask_digest(cmap) != ref["sha256"]:
                return [f"fig2 {which} mask differs from the pinned one"], {}
            return [], {}
        return check

    def ops(self) -> list[Op]:
        cw = self.cw
        ops = []
        for fn in DISC_FACTORS:
            f = getattr(cw, fn)
            for alpha in FACTOR_ALPHAS:
                for beta in FACTOR_BETAS:
                    aspect = cw.DiscAspect(alpha, beta)
                    ops.append(Op(
                        label=factor_key(fn, alpha, beta), layer="factors",
                        kind=fn, call=lambda _s, f=f, a=aspect: f(a),
                        check=self._check_factor(fn, alpha, beta),
                        meta={"alpha": alpha}))
        for alpha in FACTOR_ALPHAS:
            ops.append(Op(
                label=factor_key("f_sphere", alpha, None), layer="factors",
                kind="f_sphere", call=lambda _s, x=alpha: cw.f_sphere(x),
                check=self._check_factor("f_sphere", alpha, None),
                meta={"alpha": alpha}))
        for which, (ga, gl) in LATTICES.items():
            la, ll = log_grid(*ga), log_grid(*gl)
            ops.append(Op(
                label=f"fig2_dataset.{which}", layer="constraints",
                kind="fig2_dataset",
                call=lambda _s, la=la, ll=ll: cw.fig2_dataset(la, ll),
                check=self._check_lattice(which),
                meta={"lattice": which, "points": len(la) * len(ll)}))
        return ops

    def perturbations(self, last: dict) -> list:
        ops = _by_label(self.ops())
        cases = []
        key = factor_key("f_rot_disc", 1.0, 0.25)
        if key in last:
            res, seed = last[key]
            cases.append(("f_rot_disc(1, 0.25) off by 1e-4 relative", ops[key],
                          dataclasses.replace(res, value=res.value * (1 + 1e-4)),
                          seed))
        if "fig2_dataset.default" in last:
            cmap, seed = last["fig2_dataset.default"]
            passed = [list(map(list, row)) for row in cmap.passed]
            passed[10][20][0] = not passed[10][20][0]
            wrong = dataclasses.replace(
                cmap, passed=tuple(tuple(map(tuple, row)) for row in passed))
            cases.append(("fig2 mask with one flipped point",
                          ops["fig2_dataset.default"], wrong, seed))
        return cases

    def layer_metrics(self, records: list, n_traced_rounds: int) -> dict:
        traced = [r for r in records if r.traced]
        fac = [r for r in traced if r.op.layer == "factors"]
        busy = sum(r.wall for r in fac)
        out = {}
        for fn in DISC_FACTORS + ("f_sphere",):
            out[f"factors.busy_s.{fn}"] = sum(
                r.wall for r in fac if r.op.kind == fn) / n_traced_rounds
        out["factors.evals_per_s"] = len(fac) / busy
        out["factors.large_alpha_share"] = sum(
            r.wall for r in fac if r.op.meta["alpha"] >= LARGE_ALPHA) / busy
        out["factors.max_rel_dev"] = max(
            (r.obs.get("rel_dev", 0.0) for r in records
             if r.op.layer == "factors"), default=0.0)
        out["factors.failed"] = sum(1 for r in records
                                    if r.op.layer == "factors" and not r.ok)
        lat = [r for r in traced if r.op.layer == "constraints"]
        for which in LATTICES:
            out[f"constraints.fig2_s.{which}"] = median(
                [r.wall for r in lat if r.op.meta["lattice"] == which])
        out["constraints.points_per_s"] = (
            sum(r.op.meta["points"] for r in lat) / sum(r.wall for r in lat))
        return out


# ---------------------------------------------------------------------------
# stochastic

ORACLE_CASES = (("sphere", "translate"), ("disc", "translate-perp"),
                ("disc", "translate-edge"), ("disc", "rotate"))
ORACLE_PAIRS = 1_000_000
ORACLE_BLOCK = 250_000            # four blocks, so two workers can share them
ENSEMBLE_METHODS = ("euler-maruyama", "exact-b15")
ENSEMBLE_TRAJ = 20_000
ENSEMBLE_STEPS = 1000             # dt = tau_s / 100 up to 10 tau_s
SINGLE_STEPS = 100_000            # dt = tau_s / 100 up to 1000 tau_s
WORKERS = (1, 2)


class Stochastic(Workload):
    """Seeded, blocked sampling: oracle, drift ensemble and one trajectory."""

    name = "stochastic"       # a part of the library workload

    def __init__(self, seed: int):
        super().__init__(seed)
        self.partners: dict = {}

    def setup(self) -> None:
        import cslwalk
        cw = self.cw = cslwalk
        grw = cw.CslParams.grw()
        self.bodies = {"sphere": cw.Sphere(1e-5, 1.0),
                       "disc": cw.Disc(2e-5, 0.5e-5, 1.0)}   # alpha 1, beta 0.25
        aspect = cw.DiscAspect.from_disc(self.bodies["disc"], grw)
        # references by the factor route: the only quadrature in this workload
        self.factor_refs = {
            "translate": cw.f_sphere(self.bodies["sphere"].radius / grw.a),
            "translate-perp": cw.f_disc_perp(aspect),
            "translate-edge": cw.f_disc_edge(aspect),
            "rotate": cw.f_rot_disc(aspect)}
        self.eq = cw.equilibrium_width(grw, self.bodies["sphere"])
        tau = self.eq.tau_s
        s2 = self.eq.s_inf ** 2
        self.growth = (s2 / tau, s2 / (2 * tau ** 2), s2 / (12 * tau ** 3))
        self.grw = grw
        for body, mode in ORACLE_CASES:
            cw.f_mc_oracle(self.bodies[body], grw, mode, n_samples=2000,
                           block_size=1000, workers=2)
        for method in ENSEMBLE_METHODS:
            cw.simulate_ensemble(self.eq, n_traj=100, dt=tau / 100,
                                 t_end=tau / 10, method=method, workers=2)
        cw.single_trajectory(self.eq, tau / 100, tau)

    def _pair_problems(self, key, workers, out, seed, same) -> list:
        slot = self.partners.setdefault((key, seed), {})
        slot[workers] = out
        return [f"{key}: workers={w} and workers={workers} differ"
                for w, other in slot.items() if w != workers
                and not same(other, out)]

    def _check_oracle(self, mode, workers):
        ref = self.factor_refs[mode]

        def check(res, seed):
            problems = self._pair_problems(
                f"f_mc_oracle.{mode}", workers, res, seed,
                lambda a, b: (a.value, a.est_error) == (b.value, b.est_error))
            err = math.hypot(res.est_error, float(ref.est_error))
            pull = abs(res.value - float(ref.value)) / err if err > 0 else math.inf
            if not pull < PULL_BOUND:
                problems.append(f"oracle {mode}: pull {pull:.2f} against the "
                                f"factor route")
            return problems, {"pull": pull, "est_error": res.est_error}
        return check

    def _check_ensemble(self, method, workers):
        tau = self.eq.tau_s

        def check(stats, seed):
            problems = self._pair_problems(
                f"simulate_ensemble.{method}", workers, stats, seed,
                lambda a, b: a == b)
            fit = self.cw.growth_coefficients(stats, [tau, 3 * tau, 10 * tau])
            pulls = [abs(c - g) / se for c, se, g in
                     zip(fit["coefficients"], fit["std_errors"], self.growth)]
            if not all(p < PULL_BOUND for p in pulls):
                problems.append(f"{method}: growth-law pulls {pulls}")
            return problems, {"pull": max(pulls)}
        return check

    def _check_single(self, path, _seed):
        import numpy as np
        tau, s = self.eq.tau_s, self.eq.s_inf
        dt = tau / 100
        if len(path) != SINGLE_STEPS + 1:
            return [f"single_trajectory: {len(path)} states"], {}
        bR = np.array([p.b_real for p in path])
        bI = np.array([p.b_imag for p in path])
        t = np.array([p.t for p in path])
        problems = []
        if not np.array_equal(t, np.arange(SINGLE_STEPS + 1) * dt):
            problems.append("single_trajectory: time grid is off")
        # Euler-Maruyama: b_R picks up b_I dt / tau plus the same kick as b_I
        resid = np.diff(bR) - bI[:-1] * (dt / tau) - np.diff(bI)
        scale = max(np.abs(bR).max(), np.abs(bI).max(), 1e-300)
        if not np.abs(resid).max() <= 1e-9 * scale:
            problems.append("single_trajectory: steps break the EM update")
        noise = 0.5 * s / math.sqrt(tau)
        pull = abs(bI[-1]) / (noise * math.sqrt(t[-1]))
        if not pull < PULL_BOUND:
            problems.append(f"single_trajectory: end-point pull {pull:.2f}")
        return problems, {"pull": pull}

    def ops(self) -> list[Op]:
        cw, grw, eq = self.cw, self.grw, self.eq
        tau = eq.tau_s
        ops = []
        for body, mode in ORACLE_CASES:
            for w in WORKERS:
                ops.append(Op(
                    label=f"f_mc_oracle.{mode}.w{w}", layer="oracle",
                    kind="f_mc_oracle",
                    call=lambda seed, b=self.bodies[body], m=mode, w=w:
                        cw.f_mc_oracle(b, grw, m, n_samples=ORACLE_PAIRS,
                                       seed=seed, block_size=ORACLE_BLOCK,
                                       workers=w),
                    check=self._check_oracle(mode, w),
                    meta={"mode": mode, "workers": w}))
        for method in ENSEMBLE_METHODS:
            for w in WORKERS:
                ops.append(Op(
                    label=f"simulate_ensemble.{method}.w{w}", layer="wavepacket",
                    kind="simulate_ensemble",
                    call=lambda seed, m=method, w=w: cw.simulate_ensemble(
                        eq, n_traj=ENSEMBLE_TRAJ, dt=tau / 100,
                        t_end=ENSEMBLE_STEPS * tau / 100, seed=seed, method=m,
                        workers=w),
                    check=self._check_ensemble(method, w),
                    meta={"method": method, "workers": w}))
        ops.append(Op(
            label="single_trajectory", layer="wavepacket",
            kind="single_trajectory",
            call=lambda seed: cw.single_trajectory(
                eq, tau / 100, SINGLE_STEPS * tau / 100, seed=seed),
            check=self._check_single))
        return ops

    def perturbations(self, last: dict) -> list:
        ops = _by_label(self.ops())
        cases = []
        label = "f_mc_oracle.rotate.w2"
        if label in last:
            res, seed = last[label]
            cases.append(("oracle estimate moved by 10 standard errors",
                          ops[label], dataclasses.replace(
                              res, value=res.value + 10 * res.est_error), seed))
        label = "simulate_ensemble.euler-maruyama.w2"
        if label in last:
            stats, seed = last[label]
            q = list(stats.mean_sq_Q)
            q[-1] *= 1 + 1e-12
            cases.append(("ensemble with one last-digit change", ops[label],
                          dataclasses.replace(stats, mean_sq_Q=tuple(q)), seed))
        if "single_trajectory" in last:
            path, seed = last["single_trajectory"]
            path = list(path)
            k = len(path) // 2
            path[k] = dataclasses.replace(path[k], b_real=path[k].b_real * 1.01
                                          + 1e-3 * self.eq.s_inf)
            cases.append(("trajectory with one displaced state",
                          ops["single_trajectory"], path, seed))
        return cases

    def layer_metrics(self, records: list, n_traced_rounds: int) -> dict:
        traced = [r for r in records if r.traced]
        orc = [r for r in traced if r.op.layer == "oracle"]
        out = {}
        for _, mode in ORACLE_CASES:
            out[f"oracle.busy_s.{mode}"] = sum(
                r.wall for r in orc if r.op.meta["mode"] == mode) / n_traced_rounds
        out["oracle.pairs_per_s"] = len(orc) * ORACLE_PAIRS / sum(r.wall for r in orc)
        out["oracle.worker_speedup"] = (
            sum(r.wall for r in orc if r.op.meta["workers"] == 1)
            / sum(r.wall for r in orc if r.op.meta["workers"] == 2))
        out["oracle.efficiency"] = median(
            [1.0 / (r.obs["est_error"] ** 2 * r.wall) for r in orc if r.ok])
        out["oracle.max_pull"] = max(
            (r.obs.get("pull", 0.0) for r in records if r.op.layer == "oracle"),
            default=0.0)
        out["oracle.failed"] = sum(1 for r in records
                                   if r.op.layer == "oracle" and not r.ok)
        ens = [r for r in traced if r.op.kind == "simulate_ensemble"]
        for method in ENSEMBLE_METHODS:
            busy = sum(r.wall for r in ens if r.op.meta["method"] == method)
            n = sum(1 for r in ens if r.op.meta["method"] == method)
            out[f"wavepacket.busy_s.{method}"] = busy / n_traced_rounds
            out[f"wavepacket.traj_steps_per_s.{method}"] = (
                n * ENSEMBLE_TRAJ * ENSEMBLE_STEPS / busy)
        out["wavepacket.worker_speedup"] = (
            sum(r.wall for r in ens if r.op.meta["workers"] == 1)
            / sum(r.wall for r in ens if r.op.meta["workers"] == 2))
        out["wavepacket.single_trajectory_s"] = median(
            [r.wall for r in traced if r.op.kind == "single_trajectory"])
        out["wavepacket.failed"] = sum(1 for r in records
                                       if r.op.layer == "wavepacket" and not r.ok)
        return out


# ---------------------------------------------------------------------------
# library: both in-process parts in one closed loop


class Library(Workload):
    """The figure grids and the stochastic engines, in one process.

    One workload, not two, so that each run can be long enough to average
    out the minute-scale speed swings of a shared machine.  Each part still
    owns its operations, checks and layer metrics.
    """

    name = "library"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.parts = (FigureGrids(seed), Stochastic(seed))

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def ops(self) -> list[Op]:
        return [op for part in self.parts for op in part.ops()]

    def perturbations(self, last: dict) -> list:
        return [case for part in self.parts for case in part.perturbations(last)]

    def layer_metrics(self, records: list, n_traced_rounds: int) -> dict:
        out = {}
        for part in self.parts:
            out.update(part.layer_metrics(records, n_traced_rounds))
        return out


WORKLOADS = {w.name: w for w in (CliReadme, Library)}
