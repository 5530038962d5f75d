"""Write bench/refs.json, the pinned outputs the benchmark checks against.

Run from the root of a checkout of the commit to pin:

    python3 bench/capture_refs.py

It records the sha256 of each deterministic README command's stdout, every
factor value of the library workload's figure grid with its est_error, the
monotonic_in_alpha flags fig1_dataset gives on that grid, and the sha256
of both fig2 masks.  Re-pin only for a deliberate, documented output change.
"""

from __future__ import annotations

import hashlib
import sys

from harness import REFS, machine_info, run_child, use_sources, write_json
from workloads import (DISC_FACTORS, FACTOR_ALPHAS, FACTOR_BETAS, LATTICES,
                       LAUNCH, README_LINES, factor_key, log_grid, mask_digest)


def main() -> int:
    use_sources()
    import cslwalk

    cli = {}
    for sub, argv in README_LINES:
        if sub == "simulate":
            continue            # checked for shape and determinism instead
        rc, out, err, _ = run_child(["-c", LAUNCH, *argv])
        if rc != 0:
            print(f"{sub} failed: {err.decode()}", file=sys.stderr)
            return 1
        cli[sub] = hashlib.sha256(out).hexdigest()

    factors = {}
    for fn in DISC_FACTORS:
        for alpha in FACTOR_ALPHAS:
            for beta in FACTOR_BETAS:
                res = getattr(cslwalk, fn)(cslwalk.DiscAspect(alpha, beta))
                factors[factor_key(fn, alpha, beta)] = [float(res.value),
                                                        float(res.est_error)]
    for alpha in FACTOR_ALPHAS:
        res = cslwalk.f_sphere(alpha)
        factors[factor_key("f_sphere", alpha, None)] = [float(res.value),
                                                        float(res.est_error)]
    mono = cslwalk.fig1_dataset(FACTOR_ALPHAS, FACTOR_BETAS)["monotonic_in_alpha"]

    fig2 = {}
    for which, (ga, gl) in LATTICES.items():
        cmap = cslwalk.fig2_dataset(log_grid(*ga), log_grid(*gl))
        fig2[which] = {"sha256": mask_digest(cmap),
                       "true_count": int(cmap.mask().sum())}

    info = machine_info()
    write_json(REFS, {
        "pinned_at": {"git_commit": info["git_commit"],
                      "cslwalk_source_sha256_16": info["cslwalk_source_sha256_16"]},
        "cli": cli, "factors": factors,
        "fig1_monotonic": {f"{b:g}": bool(v) for b, v in mono.items()},
        "fig2": fig2})
    print(f"wrote {REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
