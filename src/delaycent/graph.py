"""Undirected weighted graphs and the Laplacian derived from them.

A :class:`WeightedGraph` is the single source of truth for everything
downstream: its canonical edge arrays define link indexing for every report
in the package, and :func:`build_matrices` derives the Laplacian and the
degrees from them.  A :class:`GraphMatrices` holds the one
eigendecomposition of its Laplacian that every index is computed from, and
computes no eigenvector where only eigenvalues are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .spectral import DisconnectedGraphError, SpectralDecomposition, decompose


class GraphError(ValueError):
    """Invalid graph structure or construction input."""


class GraphParseError(GraphError):
    """Malformed edge-list text; the message names the offending line."""


def _columns(edges: tuple):
    """Endpoint and weight arrays of ``(i, j, w)`` triples up to the first
    malformed one, and the error naming that one (None if there is none)."""
    try:
        rows = np.array(edges, dtype=object).reshape(len(edges), 3)
        i, j = (np.array(col.tolist()) for col in rows[:, :2].T)
        if i.dtype.kind in "iu" and j.dtype.kind in "iu" or not edges:
            return i, j, rows[:, 2].astype(float), None
    except ValueError:
        pass
    for p, edge in enumerate(edges):
        try:
            i, j, _ = edge
        except (TypeError, ValueError):
            return (*_columns(edges[:p])[:3], f"edge must be an (i, j, w) triple, got {edge!r}")
        if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
            return (*_columns(edges[:p])[:3], f"edge endpoints must be integers, got ({i!r}, {j!r})")
    i, j, w = (np.array(col, dtype=object) for col in zip(*edges))
    return i, j, w.astype(float), None


def _canonical_edges(n: int, i, j, w, lines=None, names=None, malformed=None):
    """Validate edges given as arrays and return them canonical: endpoints
    ``i < j`` (intp), sorted by ``(i, j)``, with their weights.

    Without ``lines`` the first edge that is a self-loop, leaves ``[0, n)``,
    names an id that does not fit ``intp`` or has a weight that is not finite
    and positive is reported, else the error ``malformed`` of the triple
    after these edges, else the smallest repeated pair.  With ``lines``
    (records of an edge-list file) the record on the lowest line is
    reported, for the first of those faults it has, a repeat with the line
    its pair was first seen on; ``names``, the ids as written for remapped
    input, name the pair as written.
    """
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    loop, out, bad_w = i == j, (lo < 0) | (hi >= n), ~(np.isfinite(w) & (w > 0.0))
    wide = hi > np.iinfo(np.intp).max
    key_lo, key_hi = (np.where(out | wide, -1, x).astype(np.intp) for x in (lo, hi))
    order = np.lexsort((key_hi, key_lo))
    lo_s, hi_s = key_lo[order], key_hi[order]
    repeat = np.zeros(len(order), dtype=bool)
    repeat[1:] = (lo_s[1:] == lo_s[:-1]) & (hi_s[1:] == hi_s[:-1])
    if lines is None:
        bad = np.flatnonzero(loop | out | wide | bad_w)
        if bad.size:
            r = bad[0]
            if loop[r]:
                raise GraphError(f"self-loop at node {i[r]}")
            if out[r]:
                raise GraphError(f"edge ({i[r]}, {j[r]}) references a node id outside [0, {n})")
            if wide[r]:
                raise GraphError(f"edge ({i[r]}, {j[r]}): node id {hi[r]} does not fit intp")
            raise GraphError(f"edge ({i[r]}, {j[r]}) has non-positive weight {float(w[r])}")
        if malformed:
            raise GraphError(malformed)
        if repeat.any():
            s = np.argmax(repeat)
            raise GraphError(f"duplicate edge ({lo_s[s]}, {hi_s[s]})")
        return lo_s, hi_s, w[order]
    dup = np.zeros_like(repeat)
    dup[order] = repeat
    bad = np.flatnonzero(loop | out | wide | bad_w | dup)
    if bad.size:
        r = bad[0]
        a, b = (lo[r], hi[r]) if names is None else (names[i[r]], names[j[r]])
        first = lines[np.flatnonzero((key_lo == key_lo[r]) & (key_hi == key_hi[r]))[0]]
        faults = [
            (loop, f"self-loop at node {a}"),
            (out, f"node id {b} >= declared node count {n}"),
            (wide, f"node id {b} does not fit intp"),
            (bad_w, f"non-positive weight {float(w[r])}"),
            (dup, f"duplicate edge ({a}, {b}), first seen on line {first}"),
        ]
        message = next(text for mask, text in faults if mask[r])
        raise GraphParseError(f"line {lines[r]}: {message}")
    return lo_s, hi_s, w[order]


class WeightedGraph:
    """Undirected, positively weighted graph over dense 0-based node ids.

    Edges are validated and canonicalized once, on construction: endpoint
    arrays ``i < j`` (intp) sorted lexicographically by ``(i, j)`` and the
    weights ``w`` in the same order, all read-only.  Link id ``e`` in every
    report refers to edge ``(i[e], j[e], w[e])``.
    """

    def __init__(self, n: int, edges: Iterable = ()):
        if not isinstance(n, int) or n <= 0:
            raise GraphError(f"node count must be a positive integer, got {n!r}")
        i, j, w, malformed = _columns(tuple(edges))
        self._set(n, *_canonical_edges(n, i, j, w, malformed=malformed))

    @classmethod
    def from_arrays(cls, n: int, i, j, w, *, lines=None, names=None) -> "WeightedGraph":
        """A graph from 1-d edge arrays of one length with integer endpoints, checked
        by :func:`_canonical_edges` (ids of 2**63 and more come as an object array)."""
        i, j, w = np.asarray(i), np.asarray(j), np.asarray(w, dtype=float)
        if not (w.ndim == 1 and i.shape == j.shape == w.shape):
            raise GraphError(f"edge arrays must be 1-d of one length, got shapes {i.shape}, {j.shape}, {w.shape}")
        if not all(x.dtype.kind in "iu" or all(isinstance(v, (int, np.integer)) for v in x.tolist()) for x in (i, j)):
            raise GraphError(f"edge endpoints must be integers, got arrays of {i.dtype} and {j.dtype}")
        graph = cls(n)
        graph._set(n, *_canonical_edges(n, i, j, w, lines=lines, names=names))
        return graph

    def _set(self, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> None:
        for array in (i, j, w):
            array.flags.writeable = False
        self.n, self.i, self.j, self.w = n, i, j, w

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.i.tolist(), self.j.tolist(), self.w.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        pairs = zip((self.i, self.j, self.w), (other.i, other.j, other.w))
        return self.n == other.n and all(np.array_equal(a, b) for a, b in pairs)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={self.edges!r})"

    @property
    def num_edges(self) -> int:
        return len(self.w)


@dataclass(frozen=True, eq=False)
class GraphMatrices:
    """The Laplacian and the degree vector of one graph, both read-only.

    ``laplacian == diag(degrees) - A`` with ``A`` the weighted adjacency;
    no index needs a dense input matrix B: only the Monte Carlo oracles and
    ``verify`` ask :func:`delaycent.centrality.input_matrix`.
    The eigendecomposition is cached once per graph: :attr:`spectrum` with
    eigenvectors for the indices, :attr:`eigenvalue_spectrum` without them
    where none is read.  :func:`build_matrices` builds them only for a
    connected graph, so its Laplacian has one zero mode.
    """

    graph: WeightedGraph
    laplacian: np.ndarray
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        """The Laplacian's eigendecomposition, computed on first access."""
        return decompose(self.laplacian)

    @cached_property
    def eigenvalue_spectrum(self) -> SpectralDecomposition:
        """:attr:`spectrum` if it is already computed, else the Laplacian's
        eigenvalues alone (``eigenvectors`` None): the route of callers that
        read no eigenvector, such as the stability boundary."""
        if "spectrum" in self.__dict__:
            return self.spectrum
        return decompose(self.laplacian, vectors=False)


def build_matrices(g: WeightedGraph) -> GraphMatrices:
    """The Laplacian ``D - A`` and the degrees of a connected graph, filled
    from the edge arrays into one n x n array: degrees are row sums of ``A``,
    then ``A`` is negated in place (``+ 0.0`` keeps zeros unsigned) and takes
    them as its diagonal.  Both are read-only, so :attr:`GraphMatrices.spectrum`
    cannot go stale.  A disconnected graph is refused first, before that
    array exists (:func:`require_connected`)."""
    require_connected(g.n, g.num_edges, g)
    lap = np.zeros((g.n, g.n))
    lap[g.i, g.j] = g.w
    lap[g.j, g.i] = g.w
    degrees = lap.sum(axis=1)
    np.negative(lap, out=lap)
    lap += 0.0
    lap[np.diag_indices(g.n)] = degrees
    lap.flags.writeable = degrees.flags.writeable = False
    return GraphMatrices(graph=g, laplacian=lap, degrees=degrees)


def require_connected(n: int, m: int, g: WeightedGraph | None = None) -> None:
    """Raise :class:`DisconnectedGraphError` for a graph of ``n`` nodes and
    ``m`` edges that is not connected: under n - 1 edges, decided in O(1)
    from the counts alone; otherwise, given the graph ``g``, by
    :func:`is_connected` in O(m)."""
    if m < n - 1 or g is not None and not is_connected(g):
        raise DisconnectedGraphError(f"graph is disconnected ({n} nodes, {m} edge{'s' * (m != 1)})")


def is_connected(g: WeightedGraph) -> bool:
    """True iff a single component spans all nodes, i.e. every node's label
    reaches 0 under min-label hooking over the edges and pointer jumping."""
    labels = np.arange(g.n)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, g.i, labels[g.j])
        np.minimum.at(hooked, g.j, labels[g.i])
        while not np.array_equal(hooked, hooked[hooked]):
            hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return not labels.any()
        labels = hooked


def check_scale(alpha: float) -> float:
    """``alpha`` as a float; a GraphError unless it is finite and positive."""
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise GraphError(f"scale factor must be positive, got {alpha}")
    return alpha


def id_array(ids: tuple) -> np.ndarray:
    """Raw node ids as int64 or uint64 where one holds them all, else as Python ints, never float."""
    array = np.array(ids, dtype=None if ids else int)
    return np.array(ids, dtype=object) if array.dtype.kind == "f" else array


def tokenize_edge_lines(text: str):
    """Split edge-list text into raw (line_no, i, j, w) records plus header count.

    Lines that are blank or start with ``#`` are skipped.  A line of the form
    ``n=<k>`` declares the node count.  Node ids are validated as nonnegative
    integers but are otherwise unconstrained, so callers may remap sparse ids
    before constructing a :class:`WeightedGraph`.
    """
    declared_n: int | None = None
    records: list[tuple[int, int, int, float]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("n="):
            if declared_n is not None:
                raise GraphParseError(f"line {line_no}: duplicate n= header")
            try:
                declared_n = int(stripped[2:])
            except ValueError:
                raise GraphParseError(
                    f"line {line_no}: malformed node-count header {stripped!r}"
                ) from None
            if declared_n <= 0:
                raise GraphParseError(f"line {line_no}: node count must be positive")
            continue
        tokens = stripped.split()
        if len(tokens) not in (2, 3):
            raise GraphParseError(
                f"line {line_no}: expected 'i j [w]', got {len(tokens)} tokens"
            )
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(
                f"line {line_no}: malformed node id in {stripped!r}"
            ) from None
        if i < 0 or j < 0:
            raise GraphParseError(f"line {line_no}: negative node id in {stripped!r}")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise GraphParseError(
                    f"line {line_no}: malformed weight token {tokens[2]!r}"
                ) from None
        records.append((line_no, i, j, w))
    return declared_n, records


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse whitespace-separated ``i j [w]`` lines into a canonical graph.

    Weight defaults to 1.0.  Node count is ``1 + max id`` unless an ``n=<k>``
    header overrides it.  Every invariant violation is reported with the
    offending line number.
    """
    declared_n, records = tokenize_edge_lines(text)
    if not records and declared_n is None:
        raise GraphParseError("no edges and no n= header: empty graph is not valid")
    lines, i, j, w = list(zip(*records)) or [()] * 4
    ids = id_array(i + j)
    n = declared_n if declared_n is not None else int(ids.max(initial=-1)) + 1
    return WeightedGraph.from_arrays(n, ids[: len(i)], ids[len(i) :], w, lines=lines)
