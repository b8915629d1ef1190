"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.UNITS
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for m in SPEC["end_to_end"]:
        assert any(re.match(rf"{re.escape(m['name'])} \S+ {re.escape(m['unit'])}\b", ln) for ln in lines)
    assert any(ln.startswith("failed_frac 0 fraction") for ln in lines)
    if trace:
        assert any(ln.startswith("layer shares of traced op time:") for ln in lines)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oneshot-n1000", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each smoke op run once through the program, with its checker spec."""
    from delaycent import cli

    work = tmp_path_factory.mktemp("work")
    got = {}
    for name in run.WORKLOADS:
        for op in workloads.build(name, 5, work, smoke=True)[0]:
            path = work / f"{op.name}.json"
            assert cli.run([*op.argv, "--output", str(path)]) == 0
            got[op.name] = (op.check, json.loads(path.read_text()))
    return got


def test_unperturbed_outputs_pass(outputs):
    checker = reference.Checker()
    for name, (spec, out) in outputs.items():
        assert checker.check(spec, json.dumps(out)) is None, name


def _scale_index(out, rel):
    out["indices"][0] += rel * max(abs(x) for x in out["indices"])


PERTURBATIONS = {
    "centrality-dynamics": lambda out: _scale_index(out, 1e-6),
    "centrality-measurement": lambda out: _scale_index(out, 1e-6),
    "rank-dynamics": lambda out: out["ranking"].reverse(),
    "sensitivity-sensor": lambda out: out["kappa"].__setitem__(2, out["kappa"][2] * (1 + 1e-6)),
    "perf-dynamics": lambda out: out.__setitem__("rho_ss", out["rho_ss"] * (1 + 1e-7)),
    "stability": lambda out: out.__setitem__("tau_max", out["tau_max"] * (1 + 1e-7)),
    "sweep-tau-dynamics": lambda out: out["rank_changes"].pop(),
    "sweep-scale-dynamics": lambda out: _scale_index(out["reports"][3], 1e-6),
    "second-order": lambda out: _scale_index(out, 1e-7),
    "simulate-tau0.5": lambda out: out.__setitem__("rho_hat", out["rho_hat"] * 1.3),
    "simulate-tau0.25": lambda out: out.__setitem__("std_err", out["std_err"] / 100),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_perturbed_output_is_flagged(outputs, name):
    spec, out = outputs[name]
    bad = json.loads(json.dumps(out))
    PERTURBATIONS[name](bad)
    assert reference.Checker().check(spec, json.dumps(bad)) is not None


def test_reference_flips_match_pairwise_definition():
    rng = np.random.default_rng(0)
    series = [rng.normal(size=12) for _ in range(4)]
    series[1][3] = series[1][4]  # a tie is not a flip in either direction
    want = []
    for k in range(3):
        a, b = series[k], series[k + 1]
        ta, tb = 1e-9 * np.abs(a).max(), 1e-9 * np.abs(b).max()
        for i in range(12):
            for j in range(i + 1, 12):
                sa = int(a[i] > a[j] + ta) - int(a[j] > a[i] + ta)
                sb = int(b[i] > b[j] + tb) - int(b[j] > b[i] + tb)
                if sa * sb == -1:
                    want.append((k, i, j) if sa > 0 else (k, j, i))
    assert reference.reference_flips(series) == want


def test_euler_maruyama_mean_tends_to_the_closed_form(tmp_path):
    g = workloads.make_graph(8, (0, 0), tmp_path / "g.edges")
    lam, tau = g.eigenvalues[1:], 0.5 * g.tau_max
    want = reference.mode_closed_form(lam, tau).sum()
    gaps = []
    for steps in (20, 80):
        mean, sd = reference.euler_maruyama_moments(lam, tau / steps, steps, 50 * steps, 200 * steps)
        assert 0 < sd < mean
        gaps.append(mean - want)
    assert 0 < gaps[1] < gaps[0] / 3 and gaps[0] < 0.05 * want  # first order in dt


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(x) for x in range(40)])
    assert value == 29.0 and pct == 75.0


@pytest.mark.xfail(strict=True, reason="integrate_adaptive accepts a coarse panel whose 7- and 15-point"
                   " rules agree by chance over many oscillations; mode_integral is left out of"
                   " oracle-n24 until this passes")
def test_mode_integral_meets_the_release_tolerance():
    """A mode of the n=24 oracle graph (seed 1089420790, variant 7) at
    tau = tau_max / 2, where ``mode_integral`` misses the closed form by
    1.6e-6 relative (1.3e-7 absolute at ``eps_q=1e-9``)."""
    from delaycent import oracles

    lam, tau = 8.073688633488187, 0.03946400843063006
    got = oracles.mode_integral(lam, tau, eps_q=1e-9)
    want = math.cos(lam * tau) / (2.0 * lam * (1.0 - math.sin(lam * tau)))
    assert abs(got - want) <= 1e-6 * want
