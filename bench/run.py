"""Benchmark of cslwalk: two workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeat K [--workload NAME] --seconds S [--trace 0|1]

Run from the root of a checkout; cslwalk is imported from its src/.
Workloads: cli-readme and library (see workloads.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds of the workload (for trace.overhead_ratio), adds one traced
round of every other workload and the import/cli probes, and prints every
per-layer metric.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
machine, the inputs, percentile sample counts and a readable table.
Spans and the top import entries go to .bench_build/trace-*.json.

--repeat K runs each workload K times on seeds N..N+K-1 in child
processes and prints each metric's median, quartiles, IQR/median and
(max - min)/median, which is how the bounds in BENCHMARK.json were set.
"""

from __future__ import annotations

import argparse
import compileall
import json
import random
import statistics
import sys
import time

from harness import (BUILD, MIN_ROUNDS, ROOT, SRC, BenchError, Tracer,
                     closed_loop, machine_gauge, machine_info, median,
                     require_sources, run_child, tail, use_sources,
                     write_json)
from workloads import WORKLOADS

SETUP_SAMPLES = 5


def setup_child(name: str, seed: int) -> int:
    """Time one set-up of `name` in this fresh interpreter."""
    use_sources()
    t0 = time.perf_counter()
    WORKLOADS[name](seed).setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def setup_sample(name: str, seed: int) -> float:
    rc, out, err, _ = run_child([__file__, "--setup-child", name,
                                 "--seed", str(seed)])
    if rc != 0:
        raise BenchError(f"set-up of {name} failed: {err.decode()[-500:]}")
    return json.loads(out.decode().splitlines()[-1])["setup_s"]


def self_test(workloads: list, last: dict) -> list:
    """Feed each check a deliberately wrong output; return those it missed."""
    missed = []
    for wl in workloads:
        for desc, op, wrong, seed in wl.perturbations(last):
            problems, _ = op.check(wrong, seed)
            if not problems:
                missed.append(f"{wl.name}: {desc}")
    return missed


def end_to_end(wl, records, round_walls, setup_samples) -> tuple[dict, dict]:
    walls = [r.wall for r in records]
    per_round = len(records) // len(round_walls)
    pct, tail_value = tail(walls, per_round)
    metrics = {
        "setup_s": median(setup_samples),
        # every round runs the same operations; the median round resists
        # the bursts of a shared machine better than the total does
        "ops_per_s": per_round / median(round_walls),
        "op_p50_s": median(walls),
        "op_tail_s": tail_value,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    notes = {"samples": len(walls), "round_walls_s": round_walls,
             "tail_percentile": pct, "setup_samples_s": setup_samples}
    return metrics, notes


def layer_run(wl, seed, seconds, rng, tracer, records, last) -> tuple[dict, dict]:
    """Traced run: alternate rounds of `wl`, then sweep the other layers."""
    wl.setup()
    walls = closed_loop(wl.name, wl.ops(), rng, seconds, tracer, records, last,
                        trace_pattern=lambda i: i % 2 == 1, min_rounds=3)
    # round 0 is the first at full size; it is left out of the comparison
    plain, traced = walls[2::2], walls[1::2]
    metrics = {"trace.overhead_ratio": (sum(traced) / len(traced))
               / (sum(plain) / len(plain))}
    workloads = {wl.name: wl}
    for name, cls in WORKLOADS.items():
        if name != wl.name:
            other = workloads[name] = cls(seed)
            other.setup()
            closed_loop(name, other.ops(), rng, 0.0, tracer, records, last,
                        trace_pattern=lambda i: True)
    tracer.enabled = True
    for other in workloads.values():
        tracer.workload = other.name
        metrics.update(other.probe(tracer))
    tracer.enabled = False

    n_rounds = {name: len({r.round for r in records
                           if r.workload == name and r.traced})
                for name in workloads}
    for name, other in workloads.items():
        own = [r for r in records if r.workload == name]
        metrics.update(other.layer_metrics(own, n_rounds[name]))
    for (name, layer), s in tracer.self_times().items():
        key = f"{layer}.self_s"
        metrics[key] = metrics.get(key, 0.0) + s / n_rounds[name]
    return metrics, workloads


def load_units() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def run(args) -> int:
    compileall.compile_dir(str(SRC / "cslwalk"), quiet=1)
    use_sources()
    wl = WORKLOADS[args.workload](args.seed)
    rng = random.Random(args.seed)
    tracer = Tracer()
    records: list = []
    last: dict = {}
    context = {"machine": machine_info(), "workload": args.workload,
               "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "gauge_per_s": [machine_gauge()]}

    if args.trace:
        metrics, workloads = layer_run(wl, args.seed, args.seconds, rng,
                                       tracer, records, last)
        top_imports = workloads["cli-readme"].top_imports
        context["top_imports"] = top_imports[:5]
        write_json(BUILD / f"trace-{args.workload}-seed{args.seed}.json", {
            "context": context, "top_imports": top_imports,
            "metrics": metrics, "spans": tracer.dump()})
        workloads = list(workloads.values())
    else:
        # Set-up samples are spread over the run, so that one slow stretch
        # of a shared machine does not set them all.
        setup_samples = [setup_sample(args.workload, args.seed)]
        gap = args.seconds / (SETUP_SAMPLES - 1)

        def sample_between_rounds(timed):
            if (len(setup_samples) < SETUP_SAMPLES - 1
                    and timed >= len(setup_samples) * gap):
                setup_samples.append(setup_sample(args.workload, args.seed))

        wl.setup()
        round_walls = closed_loop(wl.name, wl.ops(), rng, args.seconds, tracer,
                                  records, last, min_rounds=MIN_ROUNDS,
                                  after_round=sample_between_rounds)
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample(args.workload, args.seed))
        metrics, notes = end_to_end(wl, records, round_walls, setup_samples)
        context.update(notes)
        workloads = [wl]

    context["gauge_per_s"].append(machine_gauge())
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    missed = self_test(workloads, last)
    context["fail_ratio"] = failed / attempted
    context["perturbations_missed"] = missed
    for r in records:
        if not r.ok:
            print(f"FAILED {r.workload} {r.op.label}: {'; '.join(r.problems)}")
    for m in missed:
        print(f"CHECK MISSED a perturbed output: {m}")
    print("context " + json.dumps(context, sort_keys=True))
    units = dict(load_units(), fail_ratio="ratio")
    for k, v in sorted(dict(metrics, fail_ratio=failed / attempted).items()):
        print(f"  {k:42s} {v:14.6g} {units[k]}")
    result = {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def repeat(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    summary = {}
    for name in names:
        runs = []
        for k in range(args.repeat):
            seed = args.seed + k
            rc, out, err, wall = run_child(
                [__file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                timeout=900)
            if rc != 0:
                print(f"{name} seed {seed}: exit {rc}\n{err.decode()[-800:]}")
                return 1
            lines = out.decode().splitlines()
            doc = json.loads(lines[-1])
            runs.append(doc)
            gauge = [json.loads(line[len("context "):])["gauge_per_s"]
                     for line in lines if line.startswith("context ")][0]
            print(f"{name} seed {seed}: {wall:.1f} s, correct={doc['correct']}, "
                  f"failed={doc['failed']}/{doc['attempted']}, gauge "
                  f"{gauge[0]:.0f}/{gauge[1]:.0f} per s", flush=True)
        rows = {}
        for key in runs[0]["metrics"]:
            vals = [r["metrics"][key]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            rows[key] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_over_median": (q3 - q1) / med if med else None,
                         "range_over_median": ((max(vals) - min(vals)) / med
                                               if med else None)}
            iqr = rows[key]["iqr_over_median"]
            rng_ = rows[key]["range_over_median"]
            print(f"  {name:13s} {key:42s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  iqr/med {iqr if iqr is None else f'{iqr:.4f}'}"
                  f"  range/med {rng_ if rng_ is None else f'{rng_:.4f}'}")
        summary[name] = {"runs": len(runs),
                         "all_correct": all(r["correct"] for r in runs),
                         "metrics": rows}
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run each workload this many times on successive seeds")
    p.add_argument("--setup-child", choices=sorted(WORKLOADS),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        require_sources()
        if args.setup_child:
            return setup_child(args.setup_child, args.seed)
        if args.repeat:
            return repeat(args)
        if not args.workload:
            p.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
