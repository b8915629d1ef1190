"""Run the benchmark over several seeds and report medians and spreads.

Usage (from the repository root)::

    python3 perfbench/baseline.py [--seeds 10] [--workload NAME ...] [--write]

For each workload it makes one untraced run per seed and one traced run, and
prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.
``--write`` stores the medians, spreads, traced per-layer metrics, layer-share
table, tracing overhead and environment in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from time import perf_counter

import run

HERE = Path(__file__).resolve().parent


def main() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {k: [] for k in bounds}
        walls, attempted, failed, errors = [], 0, 0, set()
        for seed in seeds:
            start = perf_counter()
            res = run.run(workload, seed, seconds, trace=False)
            walls.append(perf_counter() - start)
            attempted += res["attempted"]
            failed += res["failed"]
            errors.update(f"seed {seed}: {e}" for e in res["errors"])
            for k in bounds:
                values[k].append(res["end_to_end"][k])
            print(f"{workload} seed {seed} wall {walls[-1]:.1f}s "
                  + " ".join(f"{k}={res['end_to_end'][k]:.5g}" for k in bounds), flush=True)
        entry = {"max_wall_s": max(walls), "tail": res["tail"], "env": res["env"],
                 "attempted": attempted, "failed": failed, "errors": sorted(errors), "end_to_end": {}}
        for k, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[k], n=4)
            rel = (q3 - q1) / median
            entry["end_to_end"][k] = {"median": median, "q1": q1, "q3": q3, "spread": rel, "bound": bound}
            flag = "" if k == "setup_s" or rel < bound / 3 else "  <-- not below bound/3"
            print(f"  {k}: median {median:.6g}, spread {rel:.2%} (bound {bound:.0%}){flag}", flush=True)
        print(f"  failed_frac: {failed / attempted:.4g} ({failed} of {attempted} ops)")
        for err in sorted(errors):
            print(f"  CHECK FAILED {err}")
        traced = run.run(workload, seeds[0], seconds, trace=True)
        entry["per_layer"] = traced["per_layer"]
        entry["layer_shares"] = traced["layer_shares"]
        entry["trace_overhead"] = traced["trace_overhead"]
        print("  layer shares: " + ", ".join(f"{k} {v:.3f}" for k, v in traced["layer_shares"].items()))
        print(f"  trace overhead: {traced['trace_overhead']['fraction']:.2%}", flush=True)
        report["workloads"][workload] = entry
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
