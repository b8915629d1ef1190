"""Timed pass: runs one workload's op cycle in a closed loop in its own process.

Usage: ``python3 perfbench/worker.py PLAN.json RESULT.json``.  The plan
holds the op cycles (one per input variant), the measuring time and the
output directory.  The process times its own set-up (``import delaycent``
plus the first op as an untimed warm-up), then runs whole cycles, one op at
a time, until the time is up.  In
a traced plan it runs an untraced pass and then a traced pass of half the
time each, and writes the spans of the traced pass.  It never imports the
benchmark's reference code, so its peak RSS is the program's alone.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import traceback
from pathlib import Path
from time import perf_counter


def run_op(op: dict, output: Path) -> bool:
    """Run one op, writing its output; False if it failed."""
    from delaycent import cli

    try:
        return cli.run([*op["argv"], "--output", str(output)]) == 0
    except Exception:  # a failing op is counted, and the loop goes on
        traceback.print_exc()
        return False


def closed_loop(cycles: list[list[dict]], seconds: float, outdir: Path, tag: str, tracer=None) -> dict:
    """Run whole op cycles, taking the variants in turn, until ``seconds``
    have passed; one op in flight."""
    records = []
    start = perf_counter()
    n_cycles = 0
    while n_cycles == 0 or perf_counter() - start < seconds:
        variant = n_cycles % len(cycles)
        for k, op in enumerate(cycles[variant]):
            output = outdir / f"{tag}-{len(records):05d}.json"
            if tracer is not None:
                tracer.op = len(records)
            # Untimed: each op starts from a collected heap, as a fresh CLI
            # process would, so garbage of one op does not add to the next
            # op's time or to the peak RSS.
            gc.collect()
            t0 = perf_counter()
            ok = run_op(op, output)
            records.append({"variant": variant, "op": k, "latency_s": perf_counter() - t0,
                            "ok": ok, "output": str(output)})
        n_cycles += 1
    return {"ops": records}


def peak_rss_mb() -> float:
    """Peak RSS of this process since it started.  ``getrusage`` is not used:
    its maximum carries over the parent's RSS at fork through exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "DELAYCENT_THREADS": os.environ.get("DELAYCENT_THREADS"),
    }


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    outdir = Path(plan["outdir"])
    cycles = plan["cycles"]

    t0 = perf_counter()
    import delaycent.cli  # noqa: F401  (set-up cost: the package and numpy)

    if not run_op(cycles[0][0], outdir / f"{plan['tag']}-warmup.json"):
        sys.exit("warm-up op failed")
    result = {"setup_s": perf_counter() - t0, "env": environment(), "passes": []}

    if not plan["setup_only"]:
        if plan["trace"]:
            from tracing import Tracer

            half = plan["seconds"] / 2.0
            result["passes"].append(closed_loop(cycles, half, outdir, plan["tag"] + "-plain"))
            tracer = Tracer()
            tracer.instrument()
            try:
                result["passes"].append(closed_loop(cycles, half, outdir, plan["tag"] + "-traced", tracer))
            finally:
                tracer.restore()
            result["spans"] = tracer.spans
        else:
            result["passes"].append(closed_loop(cycles, plan["seconds"], outdir, plan["tag"]))
    result["peak_rss_mb"] = peak_rss_mb()
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
