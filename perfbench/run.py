"""delaycent benchmark: one workload, one closed-loop client, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oneshot-n1000 --seed 1 --seconds 30 --trace 0

Workloads: oneshot-n1000, sweep-n300, oracle-n24 (see ``workloads.py``).
The program under test is ``src/delaycent`` of the checkout; it receives only
generated edge-list files and CLI flags.  The timed pass runs in a separate process with the
BLAS thread count pinned and ``DELAYCENT_THREADS`` unset; this process
generates the inputs, computes the reference results and checks every output
afterwards, outside the timed pass.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass plus the layer-share table.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SOURCE = ROOT / "src" / "delaycent" / "__init__.py"
WORKLOADS = ("oneshot-n1000", "sweep-n300", "oracle-n24")
# Set-up is measured this many times (the timed process plus extra set-up
# processes) and reported as the median.
SETUP_SAMPLES = 5
# Every run must end within this many seconds.
DEADLINE_S = 170.0
# The timed pass uses one BLAS thread: steadier on a small shared machine,
# and within nproc everywhere.
BLAS_THREADS = "1"
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in PINNED:
        env[var] = BLAS_THREADS
    env.pop("DELAYCENT_THREADS", None)  # measure sweeps in the default sequential mode
    # glibc's default raises its mmap threshold as large blocks are freed, so
    # later n x n arrays land on the heap and freed memory stays resident
    # depending on allocation history.  A fixed threshold (glibc's initial
    # 128 KiB) returns every large array on free, as separate CLI processes
    # would, and makes peak RSS the largest live set.
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(plan: dict, tag: str, deadline: float) -> dict:
    plan = {**plan, "tag": tag}
    plan_path, result_path = WORK / f"{tag}-plan.json", WORK / f"{tag}-result.json"
    plan_path.write_text(json.dumps(plan))
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchmarkError("out of time before the timed pass")
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path), str(result_path)],
            cwd=ROOT, env=pinned_env(), timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise BenchmarkError(f"worker {tag} exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 ops beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def check_outputs(checker, cycles, records) -> list[str | None]:
    """One verdict per op record: None if its output is correct.  Identical
    outputs of the same op are checked once."""
    cache: dict[tuple[int, int, str], str | None] = {}
    verdicts = []
    for rec in records:
        op = cycles[rec["variant"]][rec["op"]]
        if not rec["ok"]:
            verdicts.append(f"{op.name}: op failed")
            continue
        text = Path(rec["output"]).read_text()
        key = (rec["variant"], rec["op"], hashlib.sha256(text.encode()).hexdigest())
        if key not in cache:
            cache[key] = checker.check(op.check, text)
        verdicts.append(cache[key] and f"{op.name}: {cache[key]}")
    return verdicts


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    deadline = perf_counter() + DEADLINE_S
    if not SOURCE.is_file():
        raise BenchmarkError(f"program source not found: {SOURCE.relative_to(ROOT)}")
    for var in PINNED:  # the reference computation runs pinned too
        os.environ[var] = BLAS_THREADS
    import reference
    import workloads

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "out").mkdir(parents=True)
    cycles = workloads.build(workload, seed, WORK, smoke)
    plan = {"cycles": [[op.to_plan() for op in ops] for ops in cycles], "seconds": seconds,
            "trace": trace, "setup_only": False, "outdir": str(WORK / "out")}

    timed_run = run_worker(plan, "timed", deadline)
    setups = [timed_run["setup_s"]]
    if not trace:
        for k in range(1, SETUP_SAMPLES):
            setups.append(run_worker({**plan, "setup_only": True}, f"setup{k}", deadline)["setup_s"])

    checker = reference.Checker()
    records = [rec for p in timed_run["passes"] for rec in p["ops"]]
    errors = [v for v in check_outputs(checker, cycles, records) if v]
    result = {"workload": workload, "seed": seed, "env": timed_run["env"], "errors": sorted(set(errors)),
              "attempted": len(records), "failed": len(errors), "setup_samples_s": setups}

    timed = timed_run["passes"][0]  # in a traced run, the untraced pass
    latencies = [rec["latency_s"] for rec in timed["ops"]]
    tail_value, tail_pct = tail(latencies)
    result["tail"] = {"percentile": tail_pct, "samples": len(latencies)}
    result["end_to_end"] = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed_run["peak_rss_mb"],
    }
    if trace:
        import tracing

        plain, traced = timed_run["passes"]
        first_cycle = len(cycles[0])
        out_bytes = sum(Path(r["output"]).stat().st_size for r in traced["ops"][:first_cycle])
        traced_time = sum(r["latency_s"] for r in traced["ops"])
        plain_mean = sum(r["latency_s"] for r in plain["ops"]) / len(plain["ops"])
        result["per_layer"] = tracing.layer_metrics(timed_run["spans"], len(traced["ops"]), first_cycle, out_bytes)
        result["layer_shares"] = tracing.layer_shares(timed_run["spans"], traced_time)
        overhead = traced_time / len(traced["ops"]) - plain_mean
        result["trace_overhead"] = {"seconds_per_op": overhead, "fraction": overhead / plain_mean}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny graphs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {res['workload']} seed {res['seed']} trace {args.trace}")
    print("env " + " ".join(f"{k}={'unset' if v is None else v}" for k, v in res["env"].items()))
    for err in res["errors"][:20]:
        print(f"CHECK FAILED {err}")
    e2e = res["end_to_end"]
    for name, unit in END_TO_END_UNITS.items():
        extra = ""
        if name == "latency_tail_s":
            extra = f"  (p{res['tail']['percentile']:.1f} of {res['tail']['samples']} ops)"
        if name == "setup_s":
            extra = "  (median of " + ", ".join(f"{s:.4f}" for s in res["setup_samples_s"]) + ")"
        print(f"{name} {e2e[name]:.6g} {unit}{extra}")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} fraction  ({res['failed']} of {res['attempted']} ops)")
    if args.trace:
        import tracing

        for name, value in res["per_layer"].items():
            print(f"{name} {value:.6g} {tracing.UNITS[name]}")
        print("layer shares of traced op time: " + ", ".join(f"{k} {v:.3f}" for k, v in res["layer_shares"].items()))
        ov = res["trace_overhead"]
        print(f"trace overhead {ov['seconds_per_op']:.6g} s per op ({ov['fraction']:.2%})")
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
