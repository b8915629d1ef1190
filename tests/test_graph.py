import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delaycent import (
    ALL_STRUCTURES,
    COMM_CHANNEL,
    EMITTER,
    MEASUREMENT,
    RECEIVER,
    GraphError,
    GraphParseError,
    WeightedGraph,
    build_matrices,
    input_matrix,
    is_connected,
    parse_edge_list,
)
from delaycent.cli import remap_node_ids
from delaycent.graph import tokenize_edge_lines

from conftest import (
    FIXTURES,
    complete_graph,
    dense_reference,
    random_connected_graph,
    reference_input_matrix,
    ring_chord_graph,
)

FIXTURE_NAMES = ["k2", "p3", "c4", "s5", "ex1_8n20e", "sparse9w"]


class TestParseEdgeList:
    def test_single_edge(self):
        g = parse_edge_list("0 1 1.0")
        assert g.n == 2
        assert g.edges == ((0, 1, 1.0),)

    def test_default_weight(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3
        assert all(w == 1.0 for _, _, w in g.edges)

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list("# a path\n\n0 1\n# middle\n1 2\n")
        assert g.num_edges == 2

    def test_header_overrides_node_count(self):
        g = parse_edge_list("n=5\n0 1\n")
        assert g.n == 5

    def test_self_loop_names_line(self):
        with pytest.raises(GraphParseError, match="line 1.*self-loop"):
            parse_edge_list("0 0 2.0")

    def test_duplicate_edge_names_both_lines(self):
        with pytest.raises(GraphParseError, match="line 3.*duplicate.*line 1"):
            parse_edge_list("0 1\n1 2\n1 0 3.0\n")

    def test_non_positive_weight(self):
        with pytest.raises(GraphParseError, match="line 2.*non-positive"):
            parse_edge_list("0 1\n1 2 -0.5\n")

    def test_malformed_tokens(self):
        with pytest.raises(GraphParseError, match="line 1.*malformed node id"):
            parse_edge_list("a b\n")
        with pytest.raises(GraphParseError, match="line 1.*malformed weight"):
            parse_edge_list("0 1 heavy\n")
        with pytest.raises(GraphParseError, match="line 1.*expected"):
            parse_edge_list("0 1 2 3\n")

    def test_id_beyond_declared_count(self):
        with pytest.raises(GraphParseError, match="line 2.*node id 3 >= declared"):
            parse_edge_list("n=3\n0 3\n")

    def test_empty_input_rejected(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("# nothing here\n")


class TestWeightedGraph:
    def test_edges_canonicalized(self):
        g = WeightedGraph(n=3, edges=((2, 0, 1.5), (1, 0, 2.0)))
        assert g.edges == ((0, 1, 2.0), (0, 2, 1.5))

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(GraphError, match="duplicate"):
            WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 0, 2.0)))

    def test_invalid_inputs(self):
        with pytest.raises(GraphError):
            WeightedGraph(n=0, edges=())
        with pytest.raises(GraphError, match="self-loop"):
            WeightedGraph(n=2, edges=((1, 1, 1.0),))
        with pytest.raises(GraphError, match="outside"):
            WeightedGraph(n=2, edges=((0, 2, 1.0),))
        with pytest.raises(GraphError, match="weight"):
            WeightedGraph(n=2, edges=((0, 1, 0.0),))

    def test_header_only_graph_is_edgeless(self):
        g = parse_edge_list("n=3\n")
        assert g.n == 3 and g.num_edges == 0

    def test_edge_text_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            text = f"n={g.n}\n" + "".join(f"{i} {j} {w!r}\n" for i, j, w in g.edges)
            assert parse_edge_list(text) == g


class TestBuildMatrices:
    def test_k2_laplacian(self, k2):
        np.testing.assert_allclose(k2.laplacian, [[1, -1], [-1, 1]])

    def test_p3_laplacian(self, p3):
        np.testing.assert_allclose(p3.laplacian, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_weighted_triangle_degrees(self, triangle_123):
        np.testing.assert_allclose(triangle_123.degrees, [3.0, 4.0, 5.0])

    def test_incidence_orientation(self, p3):
        # +1 at the smaller endpoint, -1 at the larger, canonical column order.
        np.testing.assert_allclose(input_matrix(p3, COMM_CHANNEL), [[1, 0], [-1, 1], [0, -1]])
        np.testing.assert_allclose(-input_matrix(p3, MEASUREMENT), [[1, 0], [-1, 1], [0, -1]])

    def test_matrix_identities_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            gm = build_matrices(g)
            lap = gm.laplacian
            degree_diag, adjacency = input_matrix(gm, RECEIVER), input_matrix(gm, EMITTER)
            incidence = -input_matrix(gm, MEASUREMENT)
            assert np.array_equal(np.diag(degree_diag), gm.degrees)
            assert np.max(np.abs(lap - (degree_diag - adjacency))) <= 1e-12
            ewet = incidence @ np.diag(g.weights()) @ incidence.T
            assert np.max(np.abs(lap - ewet)) <= 1e-12
            assert np.array_equal(input_matrix(gm, COMM_CHANNEL), incidence @ np.diag(g.weights()))
            np.testing.assert_allclose(lap @ np.ones(g.n), 0.0, atol=1e-12)
            eigs = np.linalg.eigvalsh(lap)
            assert eigs[0] >= -1e-9 * max(1.0, eigs[-1])


def _reference_graphs():
    for name in FIXTURE_NAMES:
        yield name, parse_edge_list((FIXTURES / f"{name}.edges").read_text())
    for n in (100, 300):
        for seed in (1, 2, 3):
            yield f"ring{n}-{seed}", ring_chord_graph(n, seed)


REFERENCE_GRAPHS = list(_reference_graphs())


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestArrayLayer:
    """The array-backed layer against the dense per-edge construction it replaced."""

    @pytest.mark.parametrize("name,g", REFERENCE_GRAPHS, ids=[k for k, _ in REFERENCE_GRAPHS])
    def test_laplacian_and_degrees_bit_identical(self, name, g):
        gm = build_matrices(g)
        ref = dense_reference(g)
        assert _same_bits(gm.laplacian, ref["laplacian"])
        assert _same_bits(gm.degrees, np.diag(ref["degree_diag"]))

    @pytest.mark.parametrize("name,g", REFERENCE_GRAPHS, ids=[k for k, _ in REFERENCE_GRAPHS])
    def test_builtin_input_matrices_bit_identical(self, name, g):
        gm = build_matrices(g)
        for structure in ALL_STRUCTURES:
            assert _same_bits(input_matrix(gm, structure), reference_input_matrix(g, structure.value)), structure.value

    @pytest.mark.parametrize(
        "g", [complete_graph(6), ring_chord_graph(100, 4), WeightedGraph(n=3, edges=())]
    )
    def test_no_array_larger_than_n_squared(self, g):
        gm = build_matrices(g)
        arrays = [v for v in vars(gm).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.size <= g.n * g.n for a in arrays)
        assert sum(a.nbytes for a in arrays) == 8 * (g.n * g.n + g.n)

    def test_edge_arrays(self):
        g = WeightedGraph(n=4, edges=((3, 1, 0.5), (0, 2, 1.5), (1, 0, 2.0)))
        assert g.i.dtype == np.intp and g.j.dtype == np.intp and g.w.dtype == float
        assert g.i.tolist() == [0, 0, 1] and g.j.tolist() == [1, 2, 3]
        assert g.w.tolist() == [2.0, 1.5, 0.5]
        assert g.edges == ((0, 1, 2.0), (0, 2, 1.5), (1, 3, 0.5))
        assert g.edge_pairs() == [(0, 1), (0, 2), (1, 3)]
        assert g.weights().tolist() == [2.0, 1.5, 0.5]
        with pytest.raises(ValueError):
            g.w[0] = 9.0
        same = WeightedGraph(n=4, edges=((1, 0, 2.0), (1, 3, 0.5), (2, 0, 1.5)))
        assert g == same and hash(g) == hash(same)
        assert g != WeightedGraph(n=5, edges=g.edges)
        assert g != WeightedGraph(n=4, edges=((0, 1, 2.0), (0, 2, 1.5), (1, 3, 0.25)))
        assert repr(g) == "WeightedGraph(n=4, edges=((0, 1, 2.0), (0, 2, 1.5), (1, 3, 0.5)))"


def sequential_parse(text):
    """parse_edge_list as the per-record loop it once was: the oracle."""
    declared_n, records = tokenize_edge_lines(text)
    if not records and declared_n is None:
        raise GraphParseError("no edges and no n= header: empty graph is not valid")
    return sequential_records(declared_n, records)


def sequential_records(declared_n, records):
    """The per-record loop of :func:`sequential_parse` on tokenized records."""
    max_id = max((max(i, j) for _, i, j, _ in records), default=-1)
    n = declared_n if declared_n is not None else max_id + 1
    seen = {}
    edges = []
    for line_no, i, j, w in records:
        if i == j:
            raise GraphParseError(f"line {line_no}: self-loop at node {i}")
        if i >= n or j >= n:
            raise GraphParseError(
                f"line {line_no}: node id {max(i, j)} >= declared node count {n}"
            )
        if not (np.isfinite(w) and w > 0.0):
            raise GraphParseError(f"line {line_no}: non-positive weight {w}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphParseError(
                f"line {line_no}: duplicate edge ({key[0]}, {key[1]}),"
                f" first seen on line {seen[key]}"
            )
        seen[key] = line_no
        edges.append((key[0], key[1], w))
    return n, tuple(sorted(edges))


def sequential_remap(records, declared_n):
    """The CLI id remap and per-record loop as they once were, refusing more
    distinct ids than a declared count: the oracle."""
    ids = sorted({i for _, i, j, _ in records} | {j for _, i, j, _ in records})
    max_id = ids[-1] if ids else -1
    if ids == list(range(max_id + 1)):
        if declared_n is not None and declared_n <= max_id:
            sequential_records(declared_n, records)  # raises as parse_edge_list does
        ids = list(range(declared_n if declared_n is not None else max_id + 1))
    elif declared_n is not None and len(ids) > declared_n:
        seen = []
        for line_no, i, j, _ in records:
            for x in (i, j):
                if x not in seen:
                    seen.append(x)
                if len(seen) > declared_n:
                    raise GraphParseError(f"line {line_no}: node id {x} is one too many for n={declared_n}")
    if not ids:
        raise GraphError("node count must be a positive integer, got 0")
    to_internal = {orig: k for k, orig in enumerate(ids)}
    seen = {}
    edges = []
    for line_no, i, j, w in records:
        a, b = to_internal[i], to_internal[j]
        if a == b:
            raise GraphError(f"line {line_no}: self-loop at node {i}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphError(
                f"line {line_no}: duplicate edge ({i}, {j}), first seen on line {seen[key]}"
            )
        if not (np.isfinite(w) and w > 0.0):
            raise GraphError(f"line {line_no}: non-positive weight {w}")
        seen[key] = line_no
        edges.append((key[0], key[1], w))
    return len(ids), tuple(sorted(edges)), ids


def sequential_graph(n, edges):
    """WeightedGraph's per-edge check and sort as they once were: the oracle."""
    canonical = []
    for edge in edges:
        try:
            i, j, w = edge
        except (TypeError, ValueError):
            raise GraphError(f"edge must be an (i, j, w) triple, got {edge!r}") from None
        if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
            raise GraphError(f"edge endpoints must be integers, got ({i!r}, {j!r})")
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise GraphError(f"self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i}, {j}) references a node id outside [0, {n})")
        if not (np.isfinite(w) and w > 0.0):
            raise GraphError(f"edge ({i}, {j}) has non-positive weight {w}")
        canonical.append((min(i, j), max(i, j), w))
    canonical.sort(key=lambda e: (e[0], e[1]))
    for a, b in zip(canonical, canonical[1:]):
        if a[:2] == b[:2]:
            raise GraphError(f"duplicate edge ({a[0]}, {a[1]})")
    return tuple(canonical)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except GraphError as exc:
        return type(exc).__name__, str(exc)


weights = st.one_of(
    st.floats(min_value=0.1, max_value=10.0),
    st.sampled_from([1.0, 0.0, -0.0, -1.5, math.nan, math.inf, -math.inf, 5e-324]),
)
records = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.integers(0, 6),
        st.none() | weights,
        st.sampled_from(["", "# note", "   "]),
    ),
    max_size=10,
)


def _edge_text(header, rows):
    lines = [] if header is None else [f"n={header}"]
    for i, j, w, filler in rows:
        lines += [filler] if filler else []
        lines.append(f"{i} {j}" if w is None else f"{i}  {j} {w!r}")
    return "\n".join(lines) + "\n"


class TestValidatorMatchesSequentialLoops:
    """One vectorized validator reports the error the per-edge loops reported:
    the record on the lowest line, with the same text."""

    @settings(max_examples=400, deadline=None)
    @example(header=3, rows=[(0, 1, None, ""), (1, 0, -1.0, "# c"), (0, 5, None, "")])
    @given(header=st.none() | st.integers(1, 8), rows=records)
    def test_parse_edge_list(self, header, rows):
        text = _edge_text(header, rows)
        got = _outcome(parse_edge_list, text)
        if got[0] == "ok":
            got = "ok", (got[1].n, got[1].edges)
        assert got == _outcome(sequential_parse, text)

    @settings(max_examples=400, deadline=None)
    @example(header=None, rows=[(1, 3, None, ""), (3, 1, -1.0, "# c")], offset=10**6)
    @example(header=2, rows=[(0, 1, None, ""), (1, 2, None, "")], offset=0)
    @example(header=2, rows=[(5, 9, None, ""), (9, 11, None, "")], offset=0)
    @given(header=st.none() | st.integers(1, 8), rows=records, offset=st.sampled_from([0, 3, 10**6]))
    def test_cli_remap(self, header, rows, offset):
        rows = [(i if i % 2 else i + offset, j, w, f) for i, j, w, f in rows]
        declared_n, recs = tokenize_edge_lines(_edge_text(header, rows))
        want = _outcome(sequential_remap, recs, declared_n)
        got = _outcome(remap_node_ids, recs, declared_n)
        if got[0] == "ok":
            graph, id_map = got[1]
            got = "ok", (graph.n, graph.edges, id_map.original)
        else:  # a GraphError as before, now a GraphParseError where a record is named
            assert {got[0], want[0]} <= {"GraphError", "GraphParseError"}
            want = got[0], want[1]
        assert got == want

    @settings(max_examples=400, deadline=None)
    @example(n=2, edges=[(0, 1, 1.0), (0, 1, 1.0), (0, 1.0, 1.0)])
    @example(n=3, edges=[(2, 1, 1.0), (0, 1, -1.0), (0, 1)])
    @given(
        n=st.integers(1, 6),
        edges=st.lists(
            st.one_of(
                st.tuples(st.integers(-1, 6), st.integers(-1, 6), weights),
                st.tuples(st.integers(0, 5), st.sampled_from([1.0, "1"]), weights),
                st.tuples(st.integers(0, 5), st.integers(0, 5)),
            ),
            max_size=8,
        ),
    )
    def test_weighted_graph(self, n, edges):
        got = _outcome(lambda: WeightedGraph(n=n, edges=tuple(edges)).edges)
        assert got == _outcome(sequential_graph, n, edges)

    def test_first_seen_line_counts_comments(self):
        with pytest.raises(GraphParseError, match=r"^line 5: duplicate edge \(1, 2\), first seen on line 2$"):
            parse_edge_list("# x\n2 1\n\n0 1\n1 2 0.5\n")

    def test_repeat_outranks_bad_weight_on_cli_records(self):
        declared_n, recs = tokenize_edge_lines("5 9\n9 5 -1\n")
        with pytest.raises(GraphError, match=r"^line 2: duplicate edge \(9, 5\), first seen on line 1$"):
            remap_node_ids(recs, declared_n)
        with pytest.raises(GraphParseError, match=r"^line 2: non-positive weight -1.0$"):
            parse_edge_list("5 9\n9 5 -1\n")


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(parse_edge_list("0 1\n1 2"))

    def test_isolated_nodes(self):
        assert not is_connected(WeightedGraph(n=2, edges=()))

    def test_two_components(self):
        assert not is_connected(parse_edge_list("0 1\n2 3"))

    def test_single_node(self):
        assert is_connected(WeightedGraph(n=1, edges=()))

    def test_matches_depth_first_search(self):
        def dfs_connected(g):
            neighbors = [[] for _ in range(g.n)]
            for i, j in g.edge_pairs():
                neighbors[i].append(j)
                neighbors[j].append(i)
            seen, stack = {0}, [0]
            while stack:
                for v in neighbors[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            return len(seen) == g.n

        rng = np.random.default_rng(5)
        verdicts = []
        for _ in range(200):
            n = int(rng.integers(1, 40))
            perm = rng.permutation(n)
            pairs = {tuple(sorted((int(perm[k]), int(perm[k + 1])))) for k in range(n - 1) if rng.random() < 0.97}
            g = WeightedGraph(n=n, edges=tuple((i, j, 1.0) for i, j in pairs))
            verdicts.append(is_connected(g))
            assert verdicts[-1] == dfs_connected(g)
        assert any(verdicts) and not all(verdicts)


class TestScaleWeights:
    def test_doubling(self, k2):
        g = k2.graph
        assert WeightedGraph.from_arrays(g.n, g.i, g.j, 2.0 * g.w).edges == ((0, 1, 2.0),)

    def test_identity(self, p3):
        g = p3.graph
        assert WeightedGraph.from_arrays(g.n, g.i, g.j, 1.0 * g.w) == g

    def test_laplacian_scales(self, p3):
        g = p3.graph
        gm_half = build_matrices(WeightedGraph.from_arrays(g.n, g.i, g.j, 0.5 * g.w))
        np.testing.assert_allclose(gm_half.laplacian, 0.5 * p3.laplacian)

    def test_all_matrices_scale_except_incidence(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 6)
        gm = build_matrices(g)
        for alpha in (0.5, 2.0, 10.0):
            gs = build_matrices(WeightedGraph.from_arrays(g.n, g.i, g.j, alpha * g.w))
            np.testing.assert_allclose(gs.laplacian, alpha * gm.laplacian)
            np.testing.assert_allclose(input_matrix(gs, EMITTER), alpha * input_matrix(gm, EMITTER))
            np.testing.assert_allclose(gs.degrees, alpha * gm.degrees)
            np.testing.assert_allclose(gs.graph.weights(), alpha * g.weights())
            np.testing.assert_array_equal(input_matrix(gs, MEASUREMENT), input_matrix(gm, MEASUREMENT))
