"""One eigendecomposition per graph: ``GraphMatrices.spectrum``.

Every index is a function of the Laplacian's eigenpairs, so a
:class:`GraphMatrices` decomposes its read-only Laplacian once, on first
use, and every analysis run on it shares that decomposition.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import delaycent as dc
from delaycent.cli import run

from conftest import FIXTURES, graph_from_edges

SHORT = dict(dt=0.01, burn_in=0.1, horizon=0.1, n_traj=2, seed=7)


@pytest.fixture
def eigh_calls(monkeypatch):
    """A list that grows by one entry per ``np.linalg.eigh`` call."""
    calls, eigh = [], np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class TestOneDecompositionPerGraph:
    def test_readme_quick_start(self, eigh_calls):
        gm = dc.build_matrices(dc.parse_edge_list("0 1\n1 2\n"))
        assert dc.stability_margin(gm.spectrum, tau=0.3).stable
        dc.node_centrality(gm, dc.DYNAMICS, tau=0.3)
        dc.performance(gm, dc.NoiseSpec(dc.SENSOR), tau=0.3)
        dc.link_sensitivity(gm, dc.DYNAMICS, tau=0.3)
        dc.simulate(gm, dc.input_matrix(gm, dc.DYNAMICS), [1.0, 1.0, 1.0], dc.SimConfig(tau=0.3, **SHORT))
        assert len(eigh_calls) == 1

    def test_cli_verify(self, eigh_calls, capsys):
        argv = ["verify", "--graph", str(FIXTURES / "k2.edges"), "--structure", "dynamics",
                "--tau", "0.2", "--dt", "0.01", "--burn-in", "0.1", "--horizon", "0.1", "--traj", "2"]
        assert run(argv) in (0, 4)
        assert len(eigh_calls) == 1

    def test_adversarial_allocation(self, p3, eigh_calls):
        dc.adversarial_allocation(p3, dc.DYNAMICS, 0.2)
        assert len(eigh_calls) == 1

    def test_mc_node_centrality(self, p3, eigh_calls):
        dc.mc_node_centrality(p3, dc.DYNAMICS, 0.2, dc.SimConfig(tau=0.0, **SHORT))
        assert len(eigh_calls) == 1


def test_laplacian_and_degrees_are_read_only(p3):
    with pytest.raises(ValueError, match="read-only"):
        p3.laplacian[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        p3.degrees[0] = 5.0


def test_disconnected_spectrum_raises_on_every_access(eigh_calls):
    gm = dc.build_matrices(graph_from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(dc.DisconnectedGraphError) as direct:
        dc.decompose(gm.laplacian, require_connected=True)
    for _ in range(2):
        with pytest.raises(dc.DisconnectedGraphError) as exc:
            gm.spectrum
        assert str(exc.value) == str(direct.value)
    assert len(eigh_calls) == 3  # a failed decomposition is not kept


class _DecomposeCalls(ast.NodeVisitor):
    """The dotted scope (``Class.method``) of every ``decompose(...)`` call."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "decompose":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_graph_matrices_spectrum_decomposes():
    callers = []
    for path in sorted(Path(dc.__file__).parent.glob("*.py")):
        visitor = _DecomposeCalls()
        visitor.visit(ast.parse(path.read_text()))
        callers += [f"{path.name}:{scope}" for scope in visitor.found]
    assert callers == ["graph.py:GraphMatrices.spectrum"]
