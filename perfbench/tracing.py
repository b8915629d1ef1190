"""Spans around the public calls ``cli.run`` makes, recorded from outside the package.

``instrument`` rebinds each traced function in every loaded ``delaycent``
module namespace to a wrapper that records a span (name, start, end,
parent, op id, attributes) in memory; ``restore`` undoes it.  The package
itself is not modified.  ``layer_metrics`` turns the spans of a traced pass
into the per-layer metrics and the layer-share table.

Span names are the stage names ``<module>.<function>``.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# Span name -> (defining module, function).  Every binding of the function
# object in a delaycent namespace is wrapped, so calls through
# ``from .x import f`` and through ``module.f`` are both seen.
TRACED = {
    "graph.parse": [("delaycent.graph", "tokenize_edge_lines"), ("delaycent.cli", "remap_node_ids")],
    "graph.build_matrices": [("delaycent.graph", "build_matrices")],
    "spectral.decompose": [("delaycent.spectral", "decompose")],
    "spectral.kernel": [("delaycent.spectral", "kernel")],
    "centrality.centrality_report": [("delaycent.centrality", "centrality_report")],
    "centrality.node_centrality": [("delaycent.centrality", "node_centrality")],
    "centrality.link_centrality": [("delaycent.centrality", "link_centrality")],
    "centrality.link_sensitivity": [("delaycent.centrality", "link_sensitivity")],
    "centrality.performance": [("delaycent.centrality", "performance")],
    "centrality.tau_sweep": [("delaycent.centrality", "tau_sweep")],
    "centrality.scale_sweep": [("delaycent.centrality", "scale_sweep")],
    "report.rank_with_ties": [("delaycent.report", "rank_with_ties")],
    "quadrature.integrate_adaptive": [("delaycent.quadrature", "integrate_adaptive")],
    "secondorder.so_node_centrality": [("delaycent.secondorder", "so_node_centrality")],
    "oracles.simulate": [("delaycent.oracles", "simulate")],
    "cli.run": [("delaycent.cli", "run")],
}


class Tracer:
    """In-memory span log.  ``op`` is the id of the op being run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1, "op": self.op}
            counter = None
            if name == "quadrature.integrate_adaptive":
                counter = _Counter(args[0])
                args = (counter, *args[1:])
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["start"], span["end"] = start, perf_counter()
                self._stack.pop()
            if counter is not None:
                span["evals"] = counter.evals
            elif name == "graph.build_matrices":
                span["mb"] = sum(getattr(v, "nbytes", 0) for v in vars(result).values()) / 1e6
            elif name == "centrality.tau_sweep":
                span["flips"] = len(result.rank_changes)
            elif name == "oracles.simulate":
                cfg = args[3] if len(args) > 3 else kwargs["cfg"]
                span["steps"] = (round(cfg.burn_in / cfg.dt) + round(cfg.horizon / cfg.dt)) * cfg.n_traj
            return result

        return traced

    def instrument(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "delaycent" or k.startswith("delaycent.")]
        for name, targets in TRACED.items():
            for module_name, attr in targets:
                original = getattr(importlib.import_module(module_name), attr, None)
                if original is None:  # a stage the program no longer has reports 0
                    continue
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._restore.append((module, key, original))

    def restore(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()


class _Counter:
    """The integrand the benchmark passes in: counts abscissae evaluated."""

    def __init__(self, f):
        self.f = f
        self.evals = 0

    def __call__(self, x):
        self.evals += getattr(x, "size", 1)
        return self.f(x)


# Per-layer metric -> (span name, how).  "self": time not covered by child
# spans; "total": whole span duration; "points": total of the per-point
# centrality_report spans directly under a tau sweep.
LAYER_METRICS = {
    "graph.parse_s": ("graph.parse", "self"),
    "graph.build_matrices_s": ("graph.build_matrices", "self"),
    "spectral.decompose_s": ("spectral.decompose", "self"),
    "spectral.kernel_s": ("spectral.kernel", "self"),
    "centrality.node_centrality_s": ("centrality.node_centrality", "self"),
    "centrality.link_centrality_s": ("centrality.link_centrality", "self"),
    "centrality.link_sensitivity_s": ("centrality.link_sensitivity", "self"),
    "centrality.performance_s": ("centrality.performance", "self"),
    "centrality.tau_sweep_s": ("centrality.tau_sweep", "total"),
    "centrality.scale_sweep_s": ("centrality.scale_sweep", "total"),
    "centrality.points_s": ("centrality.centrality_report", "points"),
    "report.rank_with_ties_s": ("report.rank_with_ties", "self"),
    "report.flip_detect_s": ("centrality.tau_sweep", "self"),
    "cli.run_s": ("cli.run", "total"),
    "cli.serialize_s": ("cli.run", "self"),
    "quadrature.integrate_adaptive_s": ("quadrature.integrate_adaptive", "self"),
    "secondorder.so_node_centrality_s": ("secondorder.so_node_centrality", "self"),
    "oracles.simulate_s": ("oracles.simulate", "self"),
}

UNITS = {
    **{k: "s" for k in LAYER_METRICS},
    "graph.matrices_mb": "MB",
    "report.flips": "count",
    "cli.output_bytes": "bytes",
    "quadrature.integrand_evals": "count",
    "oracles.mc_steps_per_s": "1/s",
}


def self_times(spans: list[dict]) -> list[float]:
    times = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            times[s["parent"]] -= s["end"] - s["start"]
    return times


def layer_metrics(spans: list[dict], n_ops: int, first_cycle: int, first_cycle_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``n_ops`` ops.

    Times are seconds per op over the pass.  Counts are exact: they cover the
    pass's first cycle (ops ``0 .. first_cycle - 1``), which is the same for a
    given seed whatever the speed of the machine.
    """
    own = self_times(spans)
    out = {}
    for metric, (name, how) in LAYER_METRICS.items():
        total = 0.0
        for k, s in enumerate(spans):
            if s["name"] != name:
                continue
            if how == "self":
                total += own[k]
            elif how == "total":
                total += s["end"] - s["start"]
            elif s["parent"] >= 0 and spans[s["parent"]]["name"] == "centrality.tau_sweep":
                total += s["end"] - s["start"]
        out[metric] = total / n_ops
    first = [s for s in spans if s["op"] < first_cycle]
    out["graph.matrices_mb"] = max((s["mb"] for s in first if "mb" in s), default=0.0)
    out["report.flips"] = sum(s.get("flips", 0) for s in first)
    out["cli.output_bytes"] = first_cycle_bytes
    out["quadrature.integrand_evals"] = sum(s.get("evals", 0) for s in first)
    sim_time = sum(s["end"] - s["start"] for s in spans if s["name"] == "oracles.simulate")
    steps = sum(s.get("steps", 0) for s in spans)
    out["oracles.mc_steps_per_s"] = steps / sim_time if sim_time > 0 else 0.0
    return {k: out[k] for k in UNITS}


# The self time of a tau sweep is its pairwise rank-flip loop.
SHARE_LAYER = {"centrality.tau_sweep": "report"}


def layer_shares(spans: list[dict], op_time: float) -> dict[str, float]:
    """Share of traced op time spent in each layer's self time; the rest is
    the benchmark's own loop around library ops."""
    own = self_times(spans)
    shares: dict[str, float] = {}
    for s, t in zip(spans, own):
        layer = SHARE_LAYER.get(s["name"], s["name"].split(".")[0])
        shares[layer] = shares.get(layer, 0.0) + t / op_time
    shares["untraced"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items()))
