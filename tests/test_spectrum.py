"""One eigendecomposition per graph: ``GraphMatrices.spectrum``.

Every index is a function of the Laplacian's eigenpairs, so a
:class:`GraphMatrices` decomposes its read-only Laplacian once, on first
use, and every analysis run on it shares that decomposition.  Callers that
read no eigenvector (the stability boundary, the simulators' gates) take
``GraphMatrices.eigenvalue_spectrum``: the cached ``spectrum`` if there is
one, else the eigenvalues alone.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import delaycent as dc
from delaycent.cli import run

from conftest import (
    FIXTURES, count_rule_scopes, graph_from_edges, mc_node_centrality, name_scopes, ring_chord_graph,
)

SHORT = dict(dt=0.01, burn_in=0.1, horizon=0.1, n_traj=2, seed=7)
FIXTURE_GRAPHS = ["k2", "p3", "triangle", "triangle_123", "c4", "star5", "path8",
                  "shared_neighbors", "ring_chord100", "ex1_graph"]


@pytest.fixture
def solves(monkeypatch):
    """A list that grows by ``"eigh"`` or ``"eigvalsh"`` per call of that solver."""
    calls = []

    def spy(name):
        solver = getattr(np.linalg, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)

        return counting

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    return calls


class TestOneDecompositionPerGraph:
    def test_readme_quick_start(self, solves):
        gm = dc.build_matrices(dc.parse_edge_list("0 1\n1 2\n"))
        assert dc.stability_margin(gm.spectrum, tau=0.3).stable
        dc.node_centrality(gm, dc.DYNAMICS, tau=0.3)
        dc.performance(gm, dc.SENSOR, tau=0.3)
        dc.link_sensitivity(gm, dc.DYNAMICS, tau=0.3)
        dc.simulate(gm, dc.input_matrix(gm, dc.DYNAMICS), [1.0, 1.0, 1.0], dc.SimConfig(tau=0.3, **SHORT))
        assert solves == ["eigh"]

    def test_readme_quick_start_runs_verbatim(self, solves, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
        exec(compile(block.group(1), "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines()[0].endswith(" True")  # info.stable
        assert solves == ["eigh"]

    def test_cli_verify(self, solves, capsys):
        argv = ["verify", "--graph", str(FIXTURES / "k2.edges"), "--structure", "dynamics",
                "--tau", "0.2", "--dt", "0.01", "--burn-in", "0.1", "--horizon", "0.1", "--traj", "2"]
        assert run(argv) in (0, 4)
        assert solves == ["eigh"]

    def test_adversarial_allocation(self, p3, solves):
        dc.adversarial_allocation(p3, dc.DYNAMICS, 0.2)
        assert solves == ["eigh"]

    def test_mc_node_centrality(self, p3, solves):
        # The simulator reads no eigenvector: its stability gate takes eigenvalues alone.
        mc_node_centrality(p3, dc.DYNAMICS, 0.2, dc.SimConfig(tau=0.0, **SHORT))
        assert solves == ["eigvalsh"]


class TestEigenvalueRoute:
    @pytest.mark.parametrize(
        "argv, want",
        [
            (["stability", "--tau", "0.1"], ["eigvalsh"]),
            (["centrality", "--structure", "measurement", "--tau", "0.1"], ["eigh"]),
            (["perf", "--structure", "dynamics", "--tau", "0.1"], ["eigh"]),
            (["sensitivity", "--structure", "sensor", "--tau", "0.1"], ["eigh"]),
        ],
        ids=["stability", "centrality", "perf", "sensitivity"],
    )
    def test_cli_ops_solve_once(self, argv, want, solves, capsys):
        assert run([*argv, "--graph", str(FIXTURES / "ex1_8n20e.edges")]) == 0
        assert solves == want

    def test_cached_spectrum_serves_the_eigenvalue_route(self, p3, solves):
        spectrum = p3.spectrum
        assert p3.eigenvalue_spectrum is spectrum
        assert solves == ["eigh"]

    def test_eigenvalue_route_computes_no_vectors(self, p3, solves):
        values = p3.eigenvalue_spectrum
        assert values.eigenvectors is None and values.eigenvalues[0] == 0.0
        assert p3.eigenvalue_spectrum is values
        np.testing.assert_allclose(values.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)
        assert p3.spectrum.eigenvectors.shape == (3, 3)
        assert solves == ["eigvalsh", "eigh"]

    @pytest.mark.parametrize("fixture", FIXTURE_GRAPHS)
    def test_tau_max_agrees_across_routes_on_fixtures(self, fixture, request):
        gm = request.getfixturevalue(fixture)
        values = dc.build_matrices(gm.graph).eigenvalue_spectrum
        assert values.eigenvectors is None
        a = dc.stability_margin(gm.spectrum, 0.0).tau_max
        b = dc.stability_margin(values, 0.0).tau_max
        assert math.isclose(a, b, rel_tol=1e-12)

    @pytest.mark.parametrize("n", [100, 300, 1000])
    def test_tau_max_agrees_across_routes_on_ring_chords(self, n):
        g = ring_chord_graph(n, 1)
        a = dc.stability_margin(dc.build_matrices(g).spectrum, 0.0).tau_max
        b = dc.stability_margin(dc.build_matrices(g).eigenvalue_spectrum, 0.0).tau_max
        assert f"{a:.12g}" == f"{b:.12g}"
        assert math.isclose(a, b, rel_tol=1e-12)


def _raw_matrices(lap):
    """A GraphMatrices over a given (possibly invalid) 3-node Laplacian."""
    lap = np.array(lap, dtype=float)
    return dc.GraphMatrices(graph=graph_from_edges(3, [(0, 1), (1, 2)]), laplacian=lap, degrees=np.diag(lap))


@pytest.mark.parametrize(
    "make, error, text",
    [
        (lambda: dc.build_matrices(dc.parse_edge_list("0 1 1\n1 2 1e-10\n2 3 1\n")),
         dc.IllConditionedGraphError,
         "found 2: graph is connected, but lambda_2 falls under the zero-mode resolution (raw lambda_2 = "),
        (lambda: _raw_matrices([[1, -1, 0], [-0.5, 1, -1], [0, -1, 1]]), dc.SpectralError,
         "matrix is not symmetric (max asymmetry 5.000e-01)"),
        (lambda: _raw_matrices([[1, -2, 0], [-2, 3, -1], [0, -1, 1]]), dc.SpectralError,
         "matrix is not positive semidefinite"),
    ],
    ids=["weak", "asymmetric", "not-psd"],
)
def test_both_routes_raise_the_same_error(make, error, text, solves):
    caught = []
    for route in ("spectrum", "eigenvalue_spectrum"):
        with pytest.raises(error) as exc:
            getattr(make(), route)
        caught.append((type(exc.value), str(exc.value)))
    assert caught[0] == caught[1]
    assert caught[0][0] is error and text in caught[0][1]


@pytest.mark.parametrize(
    "graph, message",
    [
        (graph_from_edges(4, [(0, 1), (2, 3)]), "graph is disconnected (4 nodes, 2 edges)"),  # m < n - 1
        (graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5)]),  # is_connected
         "graph is disconnected (6 nodes, 5 edges)"),
        (dc.WeightedGraph(2**40, [(0, 1, 1.0)]), "graph is disconnected (1099511627776 nodes, 1 edge)"),
    ],
    ids=["two-pairs", "triangle-and-path", "n2**40"],
)
def test_disconnected_graph_is_refused_before_any_matrix(graph, message, solves):
    # Refused from the edges, before the n x n Laplacian (8 EiB at n = 2**40) and any solve.
    with pytest.raises(dc.DisconnectedGraphError) as exc:
        dc.build_matrices(graph)
    assert type(exc.value) is dc.DisconnectedGraphError and str(exc.value) == message
    assert solves == []


def test_laplacian_and_degrees_are_read_only(p3):
    with pytest.raises(ValueError, match="read-only"):
        p3.laplacian[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        p3.degrees[0] = 5.0


def test_graph_matrices_compare_and_hash_by_identity(solves):
    g = dc.parse_edge_list("0 1\n1 2\n")
    gm, twin = dc.build_matrices(g), dc.build_matrices(g)
    assert gm == gm
    assert gm != twin
    assert {gm, twin, gm} == {gm, twin}
    assert hash(gm) == hash(gm)
    assert gm.spectrum is gm.spectrum
    assert solves == ["eigh"]


def test_ill_conditioned_spectrum_raises_on_every_access(solves):
    gm = dc.build_matrices(dc.parse_edge_list("0 1 1\n1 2 1e-10\n2 3 1\n"))
    with pytest.raises(dc.IllConditionedGraphError) as direct:
        dc.decompose(gm.laplacian)
    for _ in range(2):
        for route in ("spectrum", "eigenvalue_spectrum"):
            with pytest.raises(dc.IllConditionedGraphError) as exc:
                getattr(gm, route)
            assert type(exc.value) is dc.IllConditionedGraphError and str(exc.value) == str(direct.value)
    assert solves == ["eigh", "eigh", "eigvalsh", "eigh", "eigvalsh"]  # a failed one is not kept


def _uses(names):
    """``module:scope`` of every use of ``names`` in the package, in source order."""
    paths = sorted(Path(dc.__file__).parent.glob("*.py"))
    return [f"{path.name}:{scope}" for path in paths for scope in name_scopes(path, names)]


def test_only_graph_matrices_spectrum_decomposes():
    # Both routes, with and without eigenvectors, are the package's only solves.
    assert _uses(["decompose"]) == [
        "graph.py:GraphMatrices.spectrum",
        "graph.py:GraphMatrices.eigenvalue_spectrum",
    ]


def test_connectivity_is_decided_in_one_function():
    # is_connected and the m < n - 1 count rule serve require_connected alone,
    # which build_matrices and the CLI's header check call.
    assert _uses(["is_connected"]) == ["graph.py:require_connected"]
    paths = sorted(Path(dc.__file__).parent.glob("*.py"))
    assert [f"{p.name}:{s}" for p in paths for s in count_rule_scopes(p)] == ["graph.py:require_connected"]
    assert _uses(["require_connected"]) == ["cli.py:_load_graph", "graph.py:build_matrices"]


def test_eigensolvers_are_called_only_in_decompose():
    assert _uses(["eigh", "eigvalsh"]) == ["spectral.py:decompose", "spectral.py:decompose"]
