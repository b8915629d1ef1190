"""Command-line frontend: graph ingestion, analyses, sweeps, simulation, reports.

Exit codes: 0 success, 2 usage or input errors, 3 stability violations
(the diagnostic names the admissible delay bound), 4 numeric failures.
Diagnostics go to stderr; report data goes to the output path or stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager, nullcontext
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import centrality as ct
from . import oracles, secondorder
from .graph import (
    GraphError,
    GraphMatrices,
    GraphParseError,
    WeightedGraph,
    build_matrices,
    tokenize_edge_lines,
)
from .report import CentralityReport
from .secondorder import SecondOrderConfig, SecondOrderStabilityError
from .spectral import (
    DisconnectedGraphError,
    SpectralError,
    StabilityError,
    stability_margin,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSTABLE = 3
EXIT_NUMERIC = 4

_SIG_DIGITS = 12


# A float as text with 12 significant digits.
_fmt_float = f"{{:.{_SIG_DIGITS}g}}".format


def _json_float(x: float) -> str:
    """A float rounded to 12 significant digits, as ``json`` writes it; non-finite -> null."""
    return repr(float(_fmt_float(x))) if math.isfinite(x) else "null"


def _json_floats(items: list | tuple) -> list[str]:
    """``_json_float`` of every element of a flat list of floats.

    A decimal of at most 12 significant digits is the shortest round-trip
    text of its nearest normal double, so its ``%g`` text is already what
    ``repr`` prints, except where the value is integral ("3" against
    "3.0"), at least 1e12 (exponent against digits) or subnormal.  One mask
    flags a superset of those, and only they take the ``repr`` path."""
    values = np.array(items)
    if not np.isfinite(values).all():
        return list(map(_json_float, items))
    texts = ("\0".join([f"%.{_SIG_DIGITS}g"] * len(items)) % tuple(items)).split("\0")
    size = np.abs(values)
    odd = (size >= 1e12) | (size < 2.3e-308) | (np.abs(values - np.round(values)) <= 1e-11 * size)
    for k in np.flatnonzero(odd).tolist():
        texts[k] = repr(float(texts[k]))
    return texts


# Rows of a 2-D int array written at a time: a flip-log block of 1024
# rows is about 44 KB of text and 24 KB of gathered cell texts, so no piece
# of a streamed report comes near the 128 KiB at which glibc's allocator
# maps fresh pages for a temporary.
_ROW_BLOCK = 1024


def _json_parts(obj: Any, nl: str):
    """``obj`` as ``json.dumps(indent=2, sort_keys=True)`` writes it after rounding
    every float to 12 significant digits (non-finite ones to null), yielded in
    pieces; numpy scalars and arrays count as numbers and lists, tuples as
    lists, and dict keys must be strings.  ``nl`` is the newline plus the
    indentation of the line ``obj`` starts on.  Flat lists of floats or of
    ints are one piece each; 2-D int arrays (rank flips, link pairs) come
    ``_ROW_BLOCK`` rows to a piece.  Where an array's values span fewer
    integers than it has rows, each column's texts come from a table made
    once per array; otherwise, as for sparse raw ids, from a ``%d`` row
    template."""
    if isinstance(obj, str):
        yield _json_str(obj)
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, (float, np.floating)):
        yield _json_float(float(obj))
    elif isinstance(obj, (int, np.integer)):
        yield int.__repr__(int(obj))
    elif obj is None:
        yield "null"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner, sep = nl + "  ", "{"
        for k, v in sorted(obj.items()):
            yield f"{sep}{inner}{_json_str(k)}: "
            yield from _json_parts(v, inner)
            sep = ","
        yield nl + "}"
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.size and np.issubdtype(obj.dtype, np.integer):
        inner, cell = nl + "  ", nl + "    "
        (n_rows, n_cols), lo, hi = obj.shape, int(obj.min()), int(obj.max())
        dense = hi - lo < n_rows
        if dense:
            # Dense values (flip logs, link ends): one text per column and value,
            # brackets and separators included; column c's texts sit at c * span.
            # Offsets are int64 (uint64 for unsigned input), where a sum that
            # wraps lands back on the exact index; "clip" only skips a buffer.
            span, wide = hi - lo + 1, np.uint64 if obj.dtype.kind == "u" else np.int64
            heads = ["[" + cell] + ["," + cell] * (n_cols - 1)
            tails = [""] * (n_cols - 1) + [inner + "]," + inner]
            texts = [h + str(v) + t for h, t in zip(heads, tails) for v in range(lo, hi + 1)]
            table = np.array(texts, dtype=object)
            shift = np.arange(n_cols, dtype=wide) * wide(span) - wide(lo)
            gathered = np.empty(min(n_rows, _ROW_BLOCK) * n_cols, dtype=object)
        else:
            row = "[" + cell + ("," + cell).join(["%d"] * n_cols) + inner + "]"
        sep = "["
        for start in range(0, n_rows, _ROW_BLOCK):
            block = obj[start : start + _ROW_BLOCK]
            if dense:
                picks = gathered[: block.size]
                np.take(table, (block + shift).ravel(), out=picks, mode="clip")
                text = "".join(picks.tolist())[: -len(inner) - 1]  # less the last "," + inner
            else:
                text = ("," + inner).join([row] * len(block)) % tuple(block.ravel().tolist())
            yield sep + inner + text
            sep = ","
        yield nl + "]"
    else:
        if isinstance(obj, np.ndarray):
            obj = obj.tolist()
        if not isinstance(obj, (list, tuple)):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if not obj:
            yield "[]"
            return
        inner = nl + "  "
        types = set(map(type, obj))
        if types == {float} or types == {int}:
            texts = _json_floats(obj) if types == {float} else map(int.__repr__, obj)
            yield "[" + inner + ("," + inner).join(texts) + nl + "]"
            return
        sep = "["
        for v in obj:
            yield sep + inner
            yield from _json_parts(v, inner)
            sep = ","
        yield nl + "]"


def _to_json(obj: Any) -> str:
    return "".join(_json_parts(obj, "\n"))


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value)) if math.isfinite(value) else ""
    return str(value)


@contextmanager
def _writing(path: str | Path | None):
    """A text handle on ``path`` (stdout when None); any OSError opening or
    writing it becomes a usage error that names the path."""
    try:
        with (open(path, "w", newline="") if path else nullcontext(sys.stdout)) as handle:
            yield handle
    except OSError as exc:
        raise ValueError(f"cannot write {path or 'standard output'}: {exc}") from exc


def _emit(payload: dict, header, rows, fmt: str, output: str | None) -> None:
    """Write one report.  JSON is written piece by piece, int rows in blocks,
    and CSV row by row, so a long sweep never holds its whole report as text."""
    with _writing(output) as handle:
        if fmt == "json":
            handle.writelines(_json_parts(payload, "\n"))
            handle.write("\n")
            return
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


class _IdMap:
    """Mapping between raw (possibly sparse) input node ids and internal ids:
    ``ids[k]`` (also ``original[k]``, as Python ints) is the raw id of node k."""

    def __init__(self, ids: np.ndarray):
        self.ids = ids
        self.original = ids.tolist()
        self.identity = self.original == list(range(len(self.original)))


def remap_node_ids(records, declared_n: int | None) -> tuple[WeightedGraph, _IdMap]:
    """Densify arbitrary nonnegative node ids into 0..n-1.

    ``records`` are the raw ``(line, i, j, w)`` tuples from
    :func:`delaycent.graph.tokenize_edge_lines`.  When the raw ids are
    already dense, the map is the identity and declared isolated nodes are
    preserved.  More distinct ids than a declared count are refused.
    """
    lines, i, j, w = list(zip(*records)) or [()] * 4
    ids, internal = np.unique(np.array(i + j), return_inverse=True)
    # ids are sorted and unique, so they are dense iff the last one is len - 1.
    if not len(ids) or ids[-1] == len(ids) - 1:
        n = len(ids) if declared_n is None else declared_n
        if n < len(ids):
            WeightedGraph.from_arrays(n, i, j, w, lines=lines)  # raises as parse_edge_list does
        ids = np.arange(n)
    elif declared_n is not None and len(ids) > declared_n:
        raw = np.ravel([i, j], order="F")  # the ids in reading order
        k = np.sort(np.unique(raw, return_index=True)[1])[declared_n]
        raise GraphParseError(f"line {lines[k // 2]}: node id {raw[k]} is one too many for n={declared_n}")
    id_map = _IdMap(ids)
    edges = (internal[: len(i)], internal[len(i) :], w)
    return WeightedGraph.from_arrays(len(ids), *edges, lines=lines, names=ids), id_map


def _load_graph(args) -> tuple[GraphMatrices, _IdMap]:
    path = Path(args.graph)
    try:
        text = path.read_text()
    except OSError as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from exc
    declared_n, records = tokenize_edge_lines(text)
    if not records and declared_n is None:
        raise GraphError(f"graph file {path} contains no edges and no n= header")
    graph, id_map = remap_node_ids(records, declared_n)
    if not id_map.identity:
        side = Path(args.output + ".idmap.json") if args.output else path.with_suffix(path.suffix + ".idmap.json")
        with _writing(side) as handle:
            handle.write(_to_json({str(orig): k for k, orig in enumerate(id_map.original)}) + "\n")
        print(f"note: sparse node ids remapped; map written to {side}", file=sys.stderr)
    if getattr(args, "verbose", False):
        print(
            f"loaded {path}: n={graph.n}, edges={graph.num_edges},"
            f" remapped={not id_map.identity}",
            file=sys.stderr,
        )
    return build_matrices(graph), id_map


def _parse_grid(text: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of numbers: {text!r}") from None
    if not values:
        raise ValueError(f"{name} is empty")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must hold finite numbers: {text!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing: {text!r}")
    return values


def _load_sigma(path: str | None):
    """The parsed content of a JSON variance file (None without one); the
    library checks it against the noise channels."""
    if path is None:
        return None
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read variance file {path}: {exc}") from exc


def _channels(gm: GraphMatrices, id_map: _IdMap, links: bool) -> tuple[np.ndarray | None, list]:
    """Raw names of the noise channels: for links, the (m, 2) raw endpoint
    ids of every edge in the ids' own dtype, and the id cells ``(e, i, j)``
    of each link; for nodes, None and the id cell ``(raw id,)`` of each node."""
    if not links:
        return None, list(zip(id_map.original))
    ends = id_map.ids[np.stack([gm.graph.i, gm.graph.j], axis=1)]
    return ends, [(e, i, j) for e, (i, j) in enumerate(ends.tolist())]


def _report_payload(report: CentralityReport, id_map: _IdMap, links: np.ndarray | None) -> dict:
    """A report in raw ids: link reports (``links`` given) carry the edge
    list, node reports over remapped ids carry their ids."""
    payload = report.to_dict()
    if links is not None:
        payload["links"] = links
    elif not id_map.identity:
        payload["ids"] = list(id_map.original)
        payload["ranking"] = [id_map.original[k] for k in report.ranking]
        payload["tie_groups"] = [[id_map.original[k] for k in g] for g in report.tie_groups]
    return payload


def _index_rows(report: CentralityReport, ids: list, lead=(), tail=()):
    """CSV rows ``[*lead, *id, index, rank, *tail]`` of a report, one per
    channel k, with ``id`` the cells ``ids[k]``."""
    rank_of = dict(zip(report.ranking, range(report.size)))
    return ([*lead, *ids[k], x, rank_of[k], *tail] for k, x in enumerate(report.indices))


def _report_output(report: CentralityReport, id_map: _IdMap, links: np.ndarray | None, ids: list):
    """Payload, CSV header and rows of one report; link rows name both ends."""
    header = ["id", "i", "j", "index", "rank"] if links is not None else ["id", "index", "rank"]
    return _report_payload(report, id_map, links), header, _index_rows(report, ids)


def _fields(payload: dict, header: list):
    """A one-row report: its CSV row is the payload's ``header`` fields."""
    return payload, header, [[payload[k] for k in header]]


def _cmd_stability(args, gm, id_map):
    info = stability_margin(gm.eigenvalue_spectrum, args.tau)
    payload = {
        "tau": args.tau,
        "tau_max": info.tau_max,
        "margin": info.margin,
        "stable": info.stable,
        "n": gm.n,
        "num_edges": gm.num_edges,
    }
    return _fields(payload, ["tau", "tau_max", "margin", "stable", "n", "num_edges"])


def _cmd_centrality(args, gm, id_map):
    structure = ct.NoiseStructure.from_name(args.structure)
    report = ct.centrality_report(gm, structure, args.tau)
    return _report_output(report, id_map, *_channels(gm, id_map, structure.indexes_links))


def _cmd_rank(args, gm, id_map):
    structure = ct.NoiseStructure.from_name(args.structure)
    report = ct.centrality_report(gm, structure, args.tau)
    links, _ = _channels(gm, id_map, structure.indexes_links)
    full = _report_payload(report, id_map, links)
    payload = {k: full[k] for k in ("tau", "structure", "ranking", "tie_groups", "tau_max", "margin")}
    rows = [[pos, idx] for pos, idx in enumerate(payload["ranking"])]
    return payload, ["rank", "id"], rows


def _cmd_sensitivity(args, gm, id_map):
    structure = ct.NoiseStructure.from_name(args.structure)
    kappa = ct.link_sensitivity(gm, structure, args.tau)
    info = stability_margin(gm.spectrum, args.tau)
    links, ids = _channels(gm, id_map, True)
    payload = {
        "tau": args.tau,
        "structure": structure.value,
        "kappa": kappa.tolist(),
        "links": links,
        "tau_max": info.tau_max,
        "margin": info.margin,
    }
    return payload, ["id", "i", "j", "kappa"], ([*cells, k] for cells, k in zip(ids, kappa))


def _cmd_perf(args, gm, id_map):
    structure = ct.NoiseStructure.from_name(args.structure)
    rho = ct.performance(gm, ct.NoiseSpec(structure, _load_sigma(args.sigma)), args.tau)
    info = stability_margin(gm.spectrum, args.tau)
    payload = {
        "tau": args.tau,
        "structure": structure.value,
        "rho_ss": rho,
        "tau_max": info.tau_max,
        "margin": info.margin,
    }
    return _fields(payload, ["tau", "structure", "rho_ss", "tau_max", "margin"])


def _cmd_sweep_tau(args, gm, id_map):
    structure = ct.NoiseStructure.from_name(args.structure)
    grid = _parse_grid(args.tau_grid, "--tau-grid")
    result = ct.tau_sweep(gm, structure, grid)
    links, cells = _channels(gm, id_map, structure.indexes_links)
    ids = [c[:1] for c in cells]  # sweep rows name a link by its id alone
    rank_changes = result.rank_changes
    if links is None and not id_map.identity:
        # Raw ids keep their own dtype: uint64 or object ids never pass through float.
        rank_changes = np.empty(rank_changes.shape, dtype=id_map.ids.dtype)
        rank_changes[:, 0] = result.rank_changes[:, 0]
        rank_changes[:, 1:] = id_map.ids[result.rank_changes[:, 1:]]
    payload = {
        "structure": structure.value,
        "tau_grid": grid,
        "reports": [_report_payload(r, id_map, links) for r in result.reports],
        "rank_changes": rank_changes,
    }
    rows = (row for t, r in zip(grid, result.reports) for row in _index_rows(r, ids, [t]))
    return payload, ["tau", "id", "index", "rank"], rows


def _cmd_sweep_scale(args, gm, id_map):
    structure = ct.NoiseStructure.from_name(args.structure)
    grid = _parse_grid(args.alpha_grid, "--alpha-grid")
    result = ct.scale_sweep(gm, structure, args.tau, grid)
    links, cells = _channels(gm, id_map, structure.indexes_links)
    ids = [c[:1] for c in cells]  # sweep rows name a link by its id alone
    payload = {
        "structure": structure.value,
        "tau": args.tau,
        "alpha_grid": grid,
        "reports": [_report_payload(r, id_map, links) for r in result.reports],
        "baseline": _report_payload(result.baseline, id_map, links),
        "matches_baseline": result.matches_baseline,
    }
    reports = zip(grid, result.reports, result.matches_baseline)
    rows = (row for a, r, match in reports for row in _index_rows(r, ids, [a], [match]))
    return payload, ["alpha", "id", "index", "rank", "matches_baseline"], rows


def _cmd_second_order(args, gm, id_map):
    cfg = SecondOrderConfig(b=args.b, tau=args.tau, quad_tol=args.quad_tol)
    report = secondorder.so_node_centrality(gm, cfg)
    return _report_output(report, id_map, *_channels(gm, id_map, False))


def _sim_config(args) -> oracles.SimConfig:
    return oracles.SimConfig(
        tau=args.tau,
        dt=args.dt,
        burn_in=args.burn_in,
        horizon=args.horizon,
        n_traj=args.traj,
        seed=args.seed,
    )


def _cmd_simulate(args, gm, id_map):
    structure = ct.NoiseStructure.from_name(args.structure)
    var = ct.NoiseSpec(structure, _load_sigma(args.sigma)).resolve_variances(gm)
    result = oracles.simulate(gm, ct.input_matrix(gm, structure), var, _sim_config(args))
    payload = result.to_dict()
    if not id_map.identity:
        payload["ids"] = list(id_map.original)
    header = ["rho_hat", "std_err", "tau_snapped", "effective_samples"]
    row = [payload[k] for k in header] + payload["per_node_var"]
    return payload, header + [f"var_{k}" for k in id_map.original], [row]


def _cmd_verify(args, gm, id_map):
    """Closed form against Monte Carlo; the verdict goes to stderr, and a
    failed one (``passed`` false in the payload) exits 4."""
    if args.traj < 2:
        raise ValueError("verify needs at least two trajectories (--traj >= 2)")
    structure = ct.NoiseStructure.from_name(args.structure)
    channels = np.ones(ct.noise_channels(gm, structure))
    b, cfg = ct.input_matrix(gm, structure), _sim_config(args)
    gm.spectrum  # one solve: the simulator's gate then reads it, as does the closed form
    result = oracles.simulate(gm, b, channels, cfg)
    # The run steps at the snapped delay, so the closed form is scored there too.
    rho_closed = ct.performance(gm, ct.NoiseSpec(structure), result.tau_snapped)
    z = (result.rho_hat - rho_closed) / result.std_err if result.std_err else math.inf
    passed = math.isfinite(z) and abs(z) <= 3.0
    payload = {
        "tau": args.tau,
        "tau_snapped": result.tau_snapped,
        "structure": structure.value,
        "rho_closed_form": rho_closed,
        "rho_hat": result.rho_hat,
        "std_err": result.std_err,
        "z_score": z,
        "n_sigma": 3.0,
        "passed": passed,
    }
    verdict = "PASS" if passed else "FAIL"
    print(
        f"{verdict}: closed form {rho_closed:.6g} vs MC {result.rho_hat:.6g}"
        f" +/- {result.std_err:.3g} (z = {z:.2f}) at tau_snapped = {result.tau_snapped:.6g}",
        file=sys.stderr,
    )
    header = ["tau", "structure", "rho_closed_form", "rho_hat", "std_err", "z_score", "passed"]
    return _fields(payload, header)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaycent",
        description="Performance and centrality analysis of time-delay consensus networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, structure=True, tau=True) -> None:
        p.add_argument("--graph", required=True, help="edge-list file (i j [w] per line)")
        if structure:
            p.add_argument(
                "--structure",
                required=True,
                help="noise structure: dynamics|sensor|receiver|emitter|comm-channel|measurement",
            )
        if tau:
            p.add_argument("--tau", type=float, default=0.0, help="communication delay")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write report here instead of stdout")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("stability", help="stability boundary and margin at a delay")
    common(p, structure=False)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("centrality", help="node or link centrality indices")
    common(p)
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("rank", help="ranking only (ids in descending index order)")
    common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("sensitivity", help="per-link weight sensitivities (dynamics|sensor)")
    common(p)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("perf", help="steady-state dispersion rho_ss")
    common(p)
    p.add_argument("--sigma", help="JSON file with per-channel variances")
    p.set_defaults(func=_cmd_perf)

    p = sub.add_parser("sweep-tau", help="centrality along a delay grid with rank-flip log")
    common(p, tau=False)
    p.add_argument("--tau-grid", required=True, help="comma-separated increasing delays")
    p.set_defaults(func=_cmd_sweep_tau)

    p = sub.add_parser("sweep-scale", help="centrality under uniform weight scaling")
    common(p)
    p.add_argument("--alpha-grid", required=True, help="comma-separated increasing scale factors")
    p.set_defaults(func=_cmd_sweep_scale)

    p = sub.add_parser("second-order", help="second-order (position/velocity) node centrality")
    common(p, structure=False)
    p.add_argument("--b", type=float, required=True, help="velocity coupling gain")
    p.add_argument("--quad-tol", type=float, default=1e-9, help="absolute accuracy per mode, else exit 4")
    p.set_defaults(func=_cmd_second_order)

    def sim_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--burn-in", type=float, default=50.0)
        p.add_argument("--horizon", type=float, default=500.0)
        p.add_argument("--traj", type=int, default=32)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the dispersion")
    common(p)
    p.add_argument("--sigma", help="JSON file with per-channel variances")
    sim_options(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="closed form vs Monte Carlo at 3 sigma")
    common(p)
    sim_options(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run the subcommand, write its report, map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        gm, id_map = _load_graph(args)
        payload, header, rows = args.func(args, gm, id_map)
        _emit(payload, header, rows, args.format, args.output)
    except (StabilityError, DisconnectedGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (
        SpectralError,
        SecondOrderStabilityError,
        oracles.SimulationError,
        ArithmeticError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_NUMERIC if payload.get("passed") is False else EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
