"""Workload definitions: seeded graphs, delay grids and the op list of each workload.

Every input is derived from the run seed.  Graphs are a ring plus random
chords (connected by construction, mean degree 8) with weights drawn from
U[0.5, 2].  Delays are fixed fractions of the first-order boundary
``tau_max = pi / (2 lambda_max)``, with ``lambda_max`` taken from this
module's own ``eigvalsh``; the second-order delay is a fraction of the
closed-form crossing delay ``tau_c(lambda_max)``.

A run cycles through ``VARIANTS`` versions of the workload's op list, each
on its own graphs, so that one run averages over several inputs where op
cost depends on the graph (rank flips, quadrature panels).  An op is a
CLI invocation (``argv`` for ``delaycent.cli.run``; the benchmark appends
``--output``) and names the reference ``check`` that validates its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MEAN_DEGREE = 8
WEIGHT_RANGE = (0.5, 2.0)

# Graph sizes per workload; the smoke sizes keep the test suite fast.
SIZES = {
    "full": {"oneshot": 1000, "sweep": 300, "sweep_links": 100, "sim": 24, "second_order": 200},
    "smoke": {"oneshot": 40, "sweep": 30, "sweep_links": 16, "sim": 8, "second_order": 12},
}

# Op cost at n=1000 depends on n and m only, which are fixed.
VARIANTS = {"oneshot-n1000": 3, "sweep-n300": 8, "oracle-n24": 8}
SWEEP_POINTS = 20
SWEEP_TOP = 0.95
SCALE_POINTS = 8
SIM_TRAJ = 8
SIM_STEPS_PER_TAU = 20
SIM_TAU_FRACTIONS = (0.5, 0.25)
SECOND_ORDER_B = 1.0
SECOND_ORDER_FRACTION = 0.9
SECOND_ORDER_QUAD_TOL = 1e-12


@dataclass
class Graph:
    """A generated graph: edges sorted by (i, j), as the program canonicalizes them."""

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    path: Path
    eigenvalues: np.ndarray

    @property
    def m(self) -> int:
        return int(self.w.size)

    @property
    def tau_max(self) -> float:
        return math.pi / (2.0 * float(self.eigenvalues[-1]))


@dataclass
class Op:
    name: str
    check: dict
    argv: list

    def to_plan(self) -> dict:
        return {"name": self.name, "argv": self.argv}


def laplacian(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    lap = np.zeros((n, n))
    np.add.at(lap, (i, j), -w)
    np.add.at(lap, (j, i), -w)
    np.add.at(lap, (i, i), w)
    np.add.at(lap, (j, j), w)
    return lap


def make_graph(n: int, seed: tuple, path: Path) -> Graph:
    """Ring plus uniformly random chords up to mean degree 8, written as an edge list.

    ``seed`` is a sequence of nonnegative integers (run seed, variant).
    """
    rng = np.random.default_rng([*seed, n])
    m = min(n * MEAN_DEGREE // 2, n * (n - 1) // 2)
    pairs = {(k, k + 1) for k in range(n - 1)} | {(0, n - 1)}
    while len(pairs) < m:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    ij = np.array(sorted(pairs))
    w = rng.uniform(*WEIGHT_RANGE, ij.shape[0])
    lines = [f"n={n}"] + [f"{a} {b} {float(x)!r}" for (a, b), x in zip(ij.tolist(), w)]
    path.write_text("\n".join(lines) + "\n")
    eig = np.linalg.eigvalsh(laplacian(n, ij[:, 0], ij[:, 1], w))
    return Graph(n=n, i=ij[:, 0], j=ij[:, 1], w=w, path=path, eigenvalues=eig)


def second_order_tau_c(lam: float, b: float) -> float:
    """Delay at which mode ``lam`` of ``s^2 + lam (1 + b s) e^{-s tau}`` crosses the axis."""
    omega = math.sqrt((b * b * lam * lam + math.sqrt(b**4 * lam**4 + 4.0 * lam * lam)) / 2.0)
    return math.atan(b * omega) / omega


def _grid(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _oneshot(seed: tuple, work: Path, sizes: dict) -> list[Op]:
    g = make_graph(sizes["oneshot"], seed, work / "oneshot.edges")
    tau = 0.5 * g.tau_max
    base = ["--graph", str(g.path), "--tau", repr(tau)]
    ops = []
    for s in ("dynamics", "sensor", "receiver", "emitter", "comm-channel", "measurement"):
        ops.append(Op(f"centrality-{s}", {"kind": "centrality", "graph": g, "structure": s, "tau": tau},
                      argv=["centrality", *base, "--structure", s]))
    ops.append(Op("rank-dynamics", {"kind": "rank", "graph": g, "structure": "dynamics", "tau": tau},
                  argv=["rank", *base, "--structure", "dynamics"]))
    for s in ("dynamics", "sensor"):
        ops.append(Op(f"sensitivity-{s}", {"kind": "sensitivity", "graph": g, "structure": s, "tau": tau},
                      argv=["sensitivity", *base, "--structure", s]))
    ops.append(Op("perf-dynamics", {"kind": "perf", "graph": g, "structure": "dynamics", "tau": tau},
                  argv=["perf", *base, "--structure", "dynamics"]))
    ops.append(Op("stability", {"kind": "stability", "graph": g, "tau": tau},
                  argv=["stability", *base]))
    return ops


def _sweep(seed: tuple, work: Path, sizes: dict) -> list[Op]:
    g = make_graph(sizes["sweep"], seed, work / "sweep.edges")
    gl = make_graph(sizes["sweep_links"], seed, work / "sweep_links.edges")
    tau = 0.5 * g.tau_max
    # alpha * tau must stay below tau_max, i.e. alpha < 2 at tau = tau_max / 2.
    alphas = np.geomspace(1.0 / 16.0, 2.0 * SWEEP_TOP, SCALE_POINTS)
    # The scale sweep, the cheapest op, comes first: it is the warm-up op.
    ops = [Op("sweep-scale-dynamics",
              {"kind": "sweep-scale", "graph": g, "structure": "dynamics", "tau": tau, "alphas": alphas},
              argv=["sweep-scale", "--graph", str(g.path), "--structure", "dynamics",
                    "--tau", repr(tau), "--alpha-grid", _grid(alphas)])]
    for graph, structure in ((g, "dynamics"), (gl, "measurement")):
        taus = np.linspace(0.0, SWEEP_TOP, SWEEP_POINTS) * graph.tau_max
        ops.append(Op(f"sweep-tau-{structure}",
                      {"kind": "sweep-tau", "graph": graph, "structure": structure, "taus": taus},
                      argv=["sweep-tau", "--graph", str(graph.path), "--structure", structure,
                            "--tau-grid", _grid(taus)]))
    return ops


def _oracle(seed: tuple, work: Path, sizes: dict) -> list[Op]:
    g = make_graph(sizes["sim"], seed, work / "oracle_sim.edges")
    ops = []
    # Two delays on one graph.  With dt, burn-in and horizon fixed multiples
    # of tau, both runs take the same number of steps, and two simulations to
    # one second-order op keep the median op a simulation rather than a mix
    # of the two op kinds.  Burn-in: 50 tau is several relaxation times
    # 1/lambda_2 at either delay.
    for k, frac in enumerate(SIM_TAU_FRACTIONS):
        tau = frac * g.tau_max
        dt = tau / SIM_STEPS_PER_TAU
        burn_in, horizon = 50.0 * tau, 200.0 * tau
        sim_seed = (seed[0] * VARIANTS["oracle-n24"] + seed[1]) * len(SIM_TAU_FRACTIONS) + k
        ops.append(Op(f"simulate-tau{frac}",
                      {"kind": "simulate", "graph": g, "tau": tau, "dt": dt, "burn_in": burn_in,
                       "horizon": horizon, "traj": SIM_TRAJ},
                      argv=["simulate", "--graph", str(g.path), "--structure", "dynamics", "--tau", repr(tau),
                            "--dt", repr(dt), "--burn-in", repr(burn_in), "--horizon", repr(horizon),
                            "--traj", str(SIM_TRAJ), "--seed", str(sim_seed)]))
    g2 = make_graph(sizes["second_order"], seed, work / "oracle_so.edges")
    tau2 = SECOND_ORDER_FRACTION * second_order_tau_c(float(g2.eigenvalues[-1]), SECOND_ORDER_B)
    ops.append(Op("second-order",
                  {"kind": "second-order", "graph": g2, "tau": tau2, "b": SECOND_ORDER_B},
                  argv=["second-order", "--graph", str(g2.path), "--b", repr(SECOND_ORDER_B),
                        "--tau", repr(tau2), "--quad-tol", repr(SECOND_ORDER_QUAD_TOL)]))
    return ops


BUILDERS = {"oneshot-n1000": _oneshot, "sweep-n300": _sweep, "oracle-n24": _oracle}


def build(name: str, seed: int, work: Path, smoke: bool = False) -> list[list[Op]]:
    """Write the workload's input files under ``work`` and return its op
    cycles, one per variant."""
    sizes = SIZES["smoke" if smoke else "full"]
    cycles = []
    for v in range(VARIANTS[name]):
        (work / f"v{v}").mkdir(parents=True, exist_ok=True)
        cycles.append(BUILDERS[name]((seed, v), work / f"v{v}", sizes))
    return cycles
