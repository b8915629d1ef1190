"""One eigendecomposition per graph: ``GraphMatrices.spectrum``.

Every index is a function of the Laplacian's eigenpairs, so a
:class:`GraphMatrices` decomposes its read-only Laplacian once, on first
use, and every analysis run on it shares that decomposition.
"""

from pathlib import Path

import numpy as np
import pytest

import delaycent as dc
from delaycent.cli import run

from conftest import FIXTURES, graph_from_edges, name_scopes

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


def test_graph_matrices_compare_and_hash_by_identity(eigh_calls):
    g = dc.parse_edge_list("0 1\n1 2\n")
    gm, twin = dc.build_matrices(g), dc.build_matrices(g)
    assert gm == gm
    assert gm != twin
    assert {gm, twin, gm} == {gm, twin}
    assert hash(gm) == hash(gm)
    assert gm.spectrum is gm.spectrum
    assert len(eigh_calls) == 1


def test_disconnected_spectrum_raises_on_every_access(eigh_calls):
    gm = dc.build_matrices(graph_from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(dc.DisconnectedGraphError) as direct:
        dc.decompose(gm.laplacian, require_connected=True)
    for _ in range(2):
        with pytest.raises(dc.DisconnectedGraphError) as exc:
            gm.spectrum
        assert str(exc.value) == str(direct.value)
    assert len(eigh_calls) == 3  # a failed decomposition is not kept


def test_only_graph_matrices_spectrum_decomposes():
    callers = []
    for path in sorted(Path(dc.__file__).parent.glob("*.py")):
        callers += [f"{path.name}:{scope}" for scope in name_scopes(path, ["decompose"])]
    assert callers == ["graph.py:GraphMatrices.spectrum"]
