"""Workload-independent machinery of the benchmark.

Timing loop, spans, percentiles, child processes and the record of the
machine a result was measured on.  Nothing here imports numpy or cslwalk,
so a set-up measurement started from this module times their import too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
REFS = BENCH / "refs.json"

# Sample count beyond the reported tail percentile, and the fewest rounds
# a timed run makes.
TAIL_BEYOND = 10
MIN_ROUNDS = 4


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or references)."""


def require_sources() -> None:
    if not (SRC / "cslwalk" / "__init__.py").is_file():
        raise BenchError(f"no cslwalk sources under {SRC}")
    if not REFS.is_file():
        raise BenchError(f"missing pinned references {REFS}")


def use_sources() -> None:
    """Import cslwalk from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], timeout: float = 150.0):
    """Run a Python child from the checkout root; return (rc, out, err, wall)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# spans

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    op: int              # operation id, -1 outside operations
    round: int | None    # round index of the owning workload, None for probes
    workload: str


class Tracer:
    """In-memory spans around every call the benchmark makes into a layer.

    A disabled tracer records nothing; its span() is a bare yield.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self.op = -1
        self.round: int | None = None
        self.workload = ""

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter() - self._t0, math.nan,
                               parent, self.op, self.round, self.workload))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter() - self._t0

    def self_times(self) -> dict:
        """Self seconds per (workload, layer) over the spans of rounds.

        A span's layer is the first dotted part of its name; its self time
        is its duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict = {}
        for s, c in zip(self.spans, child):
            if s.round is None:
                continue
            key = (s.workload, s.name.split(".", 1)[0])
            out[key] = out.get(key, 0.0) + (s.end - s.start) - c
        return out

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "round": s.round,
                 "workload": s.workload} for s in self.spans]


# ---------------------------------------------------------------------------
# operations and the closed loop

@dataclass
class Op:
    """One operation: a single call into one layer, plus its correctness check.

    call(round_seed) returns the output; check(output, round_seed) returns
    (problems, observations).  An operation fails when it raises or when
    problems is non-empty.
    """

    label: str
    layer: str
    kind: str
    call: Callable[[int], Any]
    check: Callable[[Any, int], tuple]
    meta: dict = field(default_factory=dict)


@dataclass
class Record:
    workload: str
    op: Op
    round: int
    traced: bool
    wall: float
    ok: bool
    problems: list
    obs: dict


def run_op(op: Op, op_id: int, workload: str, round_idx: int,
           round_seed: int, tracer: Tracer, last_outputs: dict) -> Record:
    tracer.op = op_id
    problems: list = []
    obs: dict = {}
    with tracer.span("bench.op"):
        try:
            with tracer.span(f"{op.layer}.{op.kind}"):
                t0 = time.perf_counter()
                out = op.call(round_seed)
                wall = time.perf_counter() - t0
        except Exception as exc:   # any error of the program is a failed op
            wall = time.perf_counter() - t0
            problems.append(f"{type(exc).__name__}: {exc}")
        else:
            last_outputs[op.label] = (out, round_seed)
            with tracer.span("bench.check"):
                try:
                    problems, obs = op.check(out, round_seed)
                except Exception as exc:   # a crashing check is a failed op
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
    tracer.op = -1
    return Record(workload, op, round_idx, tracer.enabled, wall, not problems,
                  problems, obs)


def closed_loop(workload: str, ops: list[Op], rng, seconds: float,
                tracer: Tracer,
                records: list[Record], last_outputs: dict,
                trace_pattern: Callable[[int], bool] = lambda i: False,
                min_rounds: int = 1,
                after_round: Callable[[float], None] = lambda timed: None
                ) -> list[float]:
    """One client, whole rounds over the operation set in seed-shuffled order.

    Call it once per workload and run: round indices restart at 0.

    Rounds repeat until their wall times add up to `seconds` and at least
    `min_rounds` ran; each round is completed so every run times the same
    mix of operations.  after_round(timed seconds so far) runs between
    rounds, outside the timing.  Returns the wall time of each round.
    """
    round_walls: list[float] = []
    while sum(round_walls) < seconds or len(round_walls) < min_rounds:
        r = len(round_walls)
        order = rng.sample(ops, len(ops))
        round_seed = rng.randrange(1, 2 ** 31)
        tracer.enabled = trace_pattern(r)
        tracer.round = r
        tracer.workload = workload
        t0 = time.perf_counter()
        for op in order:
            records.append(run_op(op, len(records), workload, r, round_seed,
                                  tracer, last_outputs))
        round_walls.append(time.perf_counter() - t0)
        tracer.enabled = False
        tracer.round = None
        after_round(sum(round_walls))
    return round_walls


# ---------------------------------------------------------------------------
# statistics

def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        return math.nan
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def tail(values, per_round: int) -> tuple[float, float]:
    """(percentile, value) at the workload's tail percentile.

    The percentile is the highest that keeps TAIL_BEYOND samples beyond it
    in a run of MIN_ROUNDS rounds, so it is fixed per workload and every
    run, however long, has at least that many samples beyond it.  The
    value is the nearest-rank sample.
    """
    q = max(0.5, 1.0 - TAIL_BEYOND / (per_round * MIN_ROUNDS))
    v = sorted(values)
    return 100.0 * q, v[min(len(v) - 1, math.ceil(q * len(v)) - 1)]


# ---------------------------------------------------------------------------
# machine and inputs

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cslwalk").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "cslwalk_source_sha256_16": source_digest(),
    }


def machine_gauge(seconds: float = 0.25) -> float:
    """Passes per second of a fixed pure-Python loop.

    Not a metric: it is printed beside each result, so that a shared
    machine running slower for a while can be told apart from a slower
    cslwalk.
    """
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        sum(i * i for i in range(1000))
        n += 1
    return n / (time.perf_counter() - t0)


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
