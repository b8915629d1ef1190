import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycent import (
    ALL_STRUCTURES,
    COMM_CHANNEL,
    DYNAMICS,
    EMITTER,
    MEASUREMENT,
    RECEIVER,
    SENSOR,
    GraphError,
    NoiseSpec,
    NoiseStructure,
    StabilityError,
    WeightedGraph,
    adversarial_allocation,
    build_matrices,
    decompose,
    input_matrix,
    link_centrality,
    link_sensitivity,
    node_centrality,
    parse_edge_list,
    performance,
    scale_sweep,
    tau_sweep,
)
from delaycent import centrality as centrality_module
from delaycent import graph as graph_module
from delaycent.spectral import kernel
from delaycent.centrality import centrality_kernel, centrality_report, noise_channels
from delaycent.report import make_report

from conftest import (
    FIXTURES,
    assemble,
    complete_graph,
    cycle_graph,
    dense_indices,
    dense_performance,
    dense_reference,
    edge_quadratic_form,
    emitter_display_diagnostic,
    mp_first_order_maps,
    name_scopes,
    random_connected_graph,
    ring_chord_graph,
    star_graph,
)

EPS = np.finfo(float).eps
AGENT_STRUCTURES = (DYNAMICS, SENSOR, RECEIVER, EMITTER)
LINK_STRUCTURES = (COMM_CHANNEL, MEASUREMENT)


def generic_half_diag(gm, structure, tau):
    """Reference (1/2) diag(B^T K B) computed the blunt way."""
    dec = decompose(gm.laplacian, require_connected=True)
    k = assemble(dec, centrality_kernel(dec, tau))
    b = input_matrix(gm, structure)
    return 0.5 * np.diag(b.T @ k @ b)


def perturbed_edge(g: WeightedGraph, e: int, dw: float) -> WeightedGraph:
    edges = list(g.edges)
    i, j, w = edges[e]
    edges[e] = (i, j, w + dw)
    return WeightedGraph(n=g.n, edges=tuple(edges))


def fd_kappa(g: WeightedGraph, structure, tau: float) -> np.ndarray:
    """Independent sensitivity oracle: central difference of rho_ss in each
    edge weight at unit variances, h = 1e-5 * w_e."""
    out = np.empty(g.num_edges)
    for e, (_, _, w) in enumerate(g.edges):
        h = 1e-5 * w
        hi = performance(build_matrices(perturbed_edge(g, e, +h)), NoiseSpec(structure), tau)
        lo = performance(build_matrices(perturbed_edge(g, e, -h)), NoiseSpec(structure), tau)
        out[e] = (hi - lo) / (2 * h)
    return out


class TestInputMatrix:
    def test_dynamics_identity(self, k2):
        np.testing.assert_allclose(input_matrix(k2, DYNAMICS), np.eye(2))

    def test_sensor_is_laplacian(self, k2):
        np.testing.assert_allclose(input_matrix(k2, SENSOR), [[1, -1], [-1, 1]])

    def test_comm_channel_unit_weights_is_incidence(self, triangle):
        incidence = dense_reference(triangle.graph)["incidence"]
        np.testing.assert_allclose(input_matrix(triangle, COMM_CHANNEL), incidence)

    @pytest.mark.parametrize("name", ["k2", "p3", "c4", "s5", "ex1_8n20e", "sparse9w"])
    def test_comm_channel_equals_incidence_times_weight_diag(self, name):
        g = parse_edge_list((FIXTURES / f"{name}.edges").read_text())
        ref = dense_reference(g)
        assert np.array_equal(
            input_matrix(build_matrices(g), COMM_CHANNEL), ref["incidence"] @ ref["weight_diag"]
        )

    def test_measurement_is_negative_incidence(self, triangle):
        incidence = dense_reference(triangle.graph)["incidence"]
        np.testing.assert_allclose(input_matrix(triangle, MEASUREMENT), -incidence)

    def test_receiver_and_emitter(self, p3):
        np.testing.assert_allclose(input_matrix(p3, RECEIVER), np.diag([1.0, 2.0, 1.0]))
        np.testing.assert_allclose(input_matrix(p3, EMITTER), dense_reference(p3.graph)["adjacency"])

    def test_dense_input_is_built_only_where_asked(self):
        # No index path assembles B: only the simulator and verify.
        callers = []
        for path in sorted(Path(centrality_module.__file__).parent.glob("*.py")):
            callers += [f"{path.name}:{scope}" for scope in name_scopes(path, ["input_matrix"])]
        assert callers == ["cli.py:_cmd_simulate", "cli.py:_cmd_verify"]

    def test_from_name(self):
        assert NoiseStructure.from_name("comm-channel") == COMM_CHANNEL
        with pytest.raises(ValueError, match="unknown noise structure"):
            NoiseStructure.from_name("gremlins")

    @pytest.mark.parametrize("structure", ALL_STRUCTURES, ids=lambda s: s.value)
    def test_each_member_parses_and_sizes_its_channels(self, p3, structure):
        # p3 has 3 nodes and 2 links, so node and link channels differ.
        assert NoiseStructure.from_name(f" {structure.value.upper()} ") is structure
        assert (structure in LINK_STRUCTURES) != (structure in AGENT_STRUCTURES)
        assert structure.indexes_links == (structure in LINK_STRUCTURES)
        channels = noise_channels(p3, structure)
        assert channels == (2 if structure.indexes_links else 3)
        assert input_matrix(p3, structure).shape == (3, channels)


class TestPerformance:
    def test_k2_dynamics_no_delay(self, k2):
        assert performance(k2, NoiseSpec(DYNAMICS), 0.0) == pytest.approx(0.25, abs=1e-14)

    def test_k2_dynamics_delay(self, k2):
        # Single mode at lam = 2: cos(0.4) / (4 (1 - sin 0.4)).
        expected = math.cos(0.4) / (4.0 * (1.0 - math.sin(0.4)))
        got = performance(k2, NoiseSpec(DYNAMICS), 0.2)
        assert got == pytest.approx(expected, rel=1e-13)
        assert got == pytest.approx(0.3771244117804, rel=1e-10)

    def test_zero_variances_zero_dispersion(self, p3):
        spec = NoiseSpec(DYNAMICS, np.zeros(3))
        assert performance(p3, spec, 0.1) == 0.0

    def test_unstable_tau_rejected(self, k2):
        with pytest.raises(StabilityError):
            performance(k2, NoiseSpec(DYNAMICS), math.pi / 4)

    def test_variance_length_checked(self, p3):
        with pytest.raises(ValueError, match="shape"):
            performance(p3, NoiseSpec(DYNAMICS, np.ones(2)), 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            performance(p3, NoiseSpec(DYNAMICS, np.array([1.0, -1.0, 1.0])), 0.0)

    def test_link_spec_uses_edge_count(self, triangle):
        rho = performance(triangle, NoiseSpec(MEASUREMENT, np.ones(3)), 0.0)
        assert rho == pytest.approx(1.0, rel=1e-12)  # 3 edges x 1/3

    @pytest.mark.parametrize("structure", ALL_STRUCTURES, ids=lambda s: s.value)
    def test_single_node_has_zero_dispersion(self, structure):
        # No nonzero mode, and for link noise no channel at all.
        assert performance(build_matrices(parse_edge_list("n=1")), NoiseSpec(structure), 0.0) == 0.0

    @pytest.mark.parametrize("structure", ALL_STRUCTURES, ids=lambda s: s.value)
    @pytest.mark.parametrize("graph", ["ex1_graph", "ring_chord100"])
    def test_equals_the_dense_oracle(self, graph, structure, request):
        gm = request.getfixturevalue(graph)
        rng = np.random.default_rng(71)
        tau = 0.7 * math.pi / (2 * gm.spectrum.lambda_max)
        var = rng.uniform(0.5, 2.0, noise_channels(gm, structure))
        rho = performance(gm, NoiseSpec(structure, var), tau)
        np.testing.assert_allclose(rho, dense_performance(gm, structure, var, tau), rtol=1e-13, atol=0)


class TestNodeCentrality:
    def test_k2_dynamics_zero_delay(self, k2):
        rep = node_centrality(k2, DYNAMICS, 0.0)
        np.testing.assert_allclose(rep.indices, [0.125, 0.125], atol=1e-14)

    def test_k2_dynamics_pi_eighth(self, k2):
        expected = math.cos(math.pi / 4) / (8.0 * (1.0 - math.sin(math.pi / 4)))
        rep = node_centrality(k2, DYNAMICS, math.pi / 8)
        np.testing.assert_allclose(rep.indices, expected, rtol=1e-13)

    def test_p3_dynamics_ranking_and_tie(self, p3):
        rep = node_centrality(p3, DYNAMICS, 0.0)
        np.testing.assert_allclose(rep.indices, [5 / 18, 1 / 9, 5 / 18], atol=1e-12)
        assert rep.ranking == (0, 2, 1)
        assert rep.tie_groups == ((0, 2),)

    def test_k2_sensor(self, k2):
        rep = node_centrality(k2, SENSOR, 0.0)
        np.testing.assert_allclose(rep.indices, [0.5, 0.5], atol=1e-13)

    def test_link_structure_rejected(self, k2):
        with pytest.raises(ValueError, match="agent-indexed"):
            node_centrality(k2, MEASUREMENT, 0.0)

    def test_unstable_rejected(self, p3):
        with pytest.raises(StabilityError):
            node_centrality(p3, DYNAMICS, math.pi / 6)

    def test_near_boundary_keeps_its_digits(self, k2):
        # Indices blow up near the boundary; the report carries the margin so
        # callers can see the conditioning.
        tau_max = math.pi / 4
        rep = node_centrality(k2, DYNAMICS, tau_max - 1e-6)
        assert np.isfinite(rep.indices).all()
        assert rep.indices[0] > 1e4
        assert rep.margin == pytest.approx(1e-6, rel=1e-3)
        # Closer still, 1 - sin(tau * lam) rounds to exactly zero in doubles;
        # the delta form keeps eta = K / 4 to a few eps per relative margin.
        tau = tau_max - 2e-9
        want = mp_first_order_maps(tau, 2.0)[0] / 4
        rep = node_centrality(k2, DYNAMICS, tau)
        np.testing.assert_allclose(rep.indices, [want, want], rtol=4 * EPS * tau_max / 2e-9)
        assert want == pytest.approx(62499997.341, rel=1e-11)


class TestLinkCentrality:
    def test_triangle_measurement(self, triangle):
        rep = link_centrality(triangle, MEASUREMENT, 0.0)
        np.testing.assert_allclose(rep.indices, 1 / 3, rtol=1e-12)

    def test_triangle_comm_channel_unit_weights(self, triangle):
        rep = link_centrality(triangle, COMM_CHANNEL, 0.0)
        np.testing.assert_allclose(rep.indices, 1 / 3, rtol=1e-12)

    def test_tree_measurement_half(self, star5):
        rep = link_centrality(star5, MEASUREMENT, 0.0)
        np.testing.assert_allclose(rep.indices, 0.5, rtol=1e-12)

    def test_uniform_weighted_tree_half_inverse_weight(self):
        w = 2.5
        gm = build_matrices(star_graph(5, weight=w))
        rep = link_centrality(gm, MEASUREMENT, 0.0)
        np.testing.assert_allclose(rep.indices, 1.0 / (2.0 * w), rtol=1e-12)

    def test_agent_structure_rejected(self, triangle):
        with pytest.raises(ValueError, match="link-indexed"):
            link_centrality(triangle, DYNAMICS, 0.0)


class TestLinkSensitivity:
    def test_k2_dynamics_zero_delay(self, k2):
        np.testing.assert_allclose(link_sensitivity(k2, DYNAMICS, 0.0), [-0.25], atol=1e-13)

    def test_k2_sensor_zero_delay(self, k2):
        np.testing.assert_allclose(link_sensitivity(k2, SENSOR, 0.0), [1.0], atol=1e-13)

    def test_k2_dynamics_pi_eighth_vs_formula_and_fd(self, k2):
        g_val = (math.pi / 4 - math.cos(math.pi / 4)) / (4.0 * (1.0 - math.sin(math.pi / 4)))
        got = link_sensitivity(k2, DYNAMICS, math.pi / 8)
        np.testing.assert_allclose(got, [g_val], rtol=1e-12)
        fd = fd_kappa(k2.graph, DYNAMICS, math.pi / 8)
        np.testing.assert_allclose(got, fd, rtol=1e-6)

    def test_unsupported_structure(self, k2):
        with pytest.raises(ValueError, match="dynamics and sensor"):
            link_sensitivity(k2, RECEIVER, 0.0)

    @pytest.mark.parametrize("structure", [DYNAMICS, SENSOR])
    def test_matches_finite_differences_random(self, structure):
        rng = np.random.default_rng(23)
        for _ in range(6):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            gm = build_matrices(g)
            dec = decompose(gm.laplacian, require_connected=True)
            tau_max = math.pi / (2 * dec.lambda_max)
            for tau in (0.0, 0.3 * tau_max):
                kappa = link_sensitivity(gm, structure, tau)
                fd = fd_kappa(g, structure, tau)
                np.testing.assert_allclose(kappa, fd, rtol=1e-4)


class TestDecompositionIdentity:
    def test_all_structures_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            g = random_connected_graph(rng, int(rng.integers(3, 13)))
            gm = build_matrices(g)
            dec = decompose(gm.laplacian, require_connected=True)
            tau_max = math.pi / (2 * dec.lambda_max)
            for tau in (0.0, 0.4 * tau_max, 0.85 * tau_max):
                for structure in ALL_STRUCTURES:
                    var = rng.uniform(0.0, 2.0, noise_channels(gm, structure))
                    rho = dense_performance(gm, structure, var, tau)
                    rep = centrality_report(gm, structure, tau)
                    assert rho == pytest.approx(float(rep.indices @ var), rel=1e-10)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on n <= 12 nodes plus up to n more edges, with
    weights in [0.1, 10]."""
    n = draw(st.integers(2, 12))
    weight = st.floats(min_value=0.1, max_value=10.0)
    edges = {(draw(st.integers(0, k - 1)), k): draw(weight) for k in range(1, n)}
    node = st.integers(0, n - 1)
    for i, j, w in draw(st.lists(st.tuples(node, node, weight), max_size=n)):
        if i != j:
            edges.setdefault((min(i, j), max(i, j)), w)
    return WeightedGraph(n=n, edges=tuple((i, j, w) for (i, j), w in edges.items()))


delay_fractions = st.floats(min_value=0.0, max_value=0.999)


class TestRandomGraphProperties:
    @settings(deadline=None)
    @given(
        g=connected_graphs(),
        structure=st.sampled_from(ALL_STRUCTURES),
        f=delay_fractions,
        data=st.data(),
    )
    def test_indices_decompose_the_dispersion(self, g, structure, f, data):
        gm = build_matrices(g)
        tau = f * math.pi / (2 * gm.spectrum.lambda_max)
        m = noise_channels(gm, structure)
        var = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m)))
        rho = dense_performance(gm, structure, var, tau)
        assert float(centrality_report(gm, structure, tau).indices @ var) == pytest.approx(
            rho, rel=1e-10
        )

    @settings(deadline=None)
    @given(
        g=connected_graphs(),
        structure=st.sampled_from(AGENT_STRUCTURES),
        f=delay_fractions,
        data=st.data(),
    )
    def test_relabelling_permutes_the_indices(self, g, structure, f, data):
        perm = data.draw(st.permutations(range(g.n)))
        relabelled = WeightedGraph(n=g.n, edges=tuple((perm[i], perm[j], w) for i, j, w in g.edges))
        gm = build_matrices(g)
        tau = f * math.pi / (2 * gm.spectrum.lambda_max)
        eta = node_centrality(gm, structure, tau).indices
        moved = node_centrality(build_matrices(relabelled), structure, tau).indices
        np.testing.assert_allclose(moved[perm], eta, rtol=1e-9)

    @settings(deadline=None)
    @given(
        g=st.one_of(
            connected_graphs(),
            st.builds(star_graph, st.integers(3, 12), st.floats(0.1, 10.0)),
            st.builds(cycle_graph, st.integers(3, 12), st.floats(0.1, 10.0)),
        ),
        structure=st.sampled_from(AGENT_STRUCTURES),
        f=delay_fractions,
        data=st.data(),
    )
    def test_relabelling_maps_tie_groups_onto_tie_groups(self, g, structure, f, data):
        # Stars (the leaves) and cycles (every node) tie exactly by symmetry.
        perm = data.draw(st.permutations(range(g.n)))
        relabelled = WeightedGraph(n=g.n, edges=tuple((perm[i], perm[j], w) for i, j, w in g.edges))
        gm = build_matrices(g)
        tau = f * math.pi / (2 * gm.spectrum.lambda_max)
        groups = node_centrality(gm, structure, tau).tie_groups
        moved = node_centrality(build_matrices(relabelled), structure, tau).tie_groups
        assert {frozenset(perm[k] for k in group) for group in groups} == set(map(frozenset, moved))

    @settings(deadline=None)
    @given(
        g=connected_graphs(),
        steps=st.lists(st.integers(0, 999), min_size=2, max_size=10, unique=True),
    )
    def test_indices_increase_along_a_delay_grid(self, g, steps):
        # Every channel loads some nonzero mode, and each mode's term grows
        # strictly in tau, so no index may stall or fall between delays.
        gm = build_matrices(g)
        taus = np.sort(steps) / 1000 * math.pi / (2 * gm.spectrum.lambda_max)
        for structure in ALL_STRUCTURES:
            indices = np.array([r.indices for r in tau_sweep(gm, structure, taus).reports])
            assert (np.diff(indices, axis=0) > 0).all(), structure.value

    @settings(deadline=None)
    @given(g=connected_graphs(), f=delay_fractions)
    def test_builtin_links_equal_the_dense_oracle(self, g, f):
        # The gathered edge blocks against (1/2) K (Q^T B)^2 with a dense B.
        gm = build_matrices(g)
        tau = f * math.pi / (2 * gm.spectrum.lambda_max)
        for structure in (COMM_CHANNEL, MEASUREMENT):
            np.testing.assert_allclose(
                link_centrality(gm, structure, tau).indices,
                dense_indices(gm, structure, tau),
                rtol=1e-12,
                atol=0,
                err_msg=structure.value,
            )

    @settings(deadline=None)
    @given(g=connected_graphs(), alpha=st.floats(min_value=1e-3, max_value=1e3))
    def test_zero_delay_scaling_exponents(self, g, alpha):
        # Criterion 6: at tau = 0, scaling every weight by alpha scales each
        # index by alpha^-1 or alpha and keeps every ranking.
        gm = build_matrices(g)
        exponents = {DYNAMICS: -1, MEASUREMENT: -1, SENSOR: 1, RECEIVER: 1, EMITTER: 1, COMM_CHANNEL: 1}
        for structure, power in exponents.items():
            sweep = scale_sweep(gm, structure, 0.0, [alpha])
            assert sweep.matches_baseline == [True], structure.value
            np.testing.assert_allclose(
                sweep.reports[0].indices,
                sweep.baseline.indices * alpha**power,
                rtol=1e-9,
                atol=0,
                err_msg=structure.value,
            )


class TestMonotonicityAndPositivity:
    def test_indices_increase_with_delay(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            gm = build_matrices(g)
            dec = decompose(gm.laplacian, require_connected=True)
            tau_max = math.pi / (2 * dec.lambda_max)
            grid = np.linspace(0.0, 0.9 * tau_max, 8)
            for structure in ALL_STRUCTURES:
                prev = None
                for tau in grid:
                    rep = centrality_report(gm, structure, tau)
                    assert (rep.indices > 0).all()
                    if prev is not None:
                        assert (rep.indices > prev).all()
                    prev = rep.indices


class TestSymmetryProperties:
    def test_star_leaves_equal(self, star5):
        for structure in AGENT_STRUCTURES:
            rep = node_centrality(star5, structure, 0.2)
            leaves = rep.indices[1:]
            assert np.max(np.abs(leaves - leaves[0])) <= 1e-10

    def test_cycle_nodes_equal(self, c4):
        for structure in AGENT_STRUCTURES:
            rep = node_centrality(c4, structure, 0.3)
            assert np.max(np.abs(rep.indices - rep.indices[0])) <= 1e-10

    def test_shared_neighbor_automorphism(self, shared_neighbors):
        for structure in AGENT_STRUCTURES:
            rep = node_centrality(shared_neighbors, structure, 0.25)
            assert abs(rep.indices[0] - rep.indices[1]) <= 1e-10

    def test_edge_transitive_links_equal(self):
        for gm in (build_matrices(complete_graph(5)), build_matrices(cycle_graph(6))):
            dec = decompose(gm.laplacian, require_connected=True)
            tau = 0.5 * math.pi / (2 * dec.lambda_max)
            for structure in LINK_STRUCTURES:
                rep = link_centrality(gm, structure, tau)
                assert np.max(np.abs(rep.indices - rep.indices[0])) <= 1e-10


class TestGenericVersusShortcuts:
    @pytest.mark.parametrize("structure", [DYNAMICS, SENSOR, RECEIVER, EMITTER])
    def test_node_shortcuts(self, structure):
        rng = np.random.default_rng(41)
        for _ in range(4):
            gm = build_matrices(random_connected_graph(rng, int(rng.integers(3, 9))))
            dec = decompose(gm.laplacian, require_connected=True)
            tau = 0.45 * math.pi / (2 * dec.lambda_max)
            rep = node_centrality(gm, structure, tau)
            ref = generic_half_diag(gm, structure, tau)
            np.testing.assert_allclose(rep.indices, ref, rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("structure", [COMM_CHANNEL, MEASUREMENT])
    def test_link_shortcuts(self, structure):
        rng = np.random.default_rng(43)
        for _ in range(4):
            gm = build_matrices(random_connected_graph(rng, int(rng.integers(3, 9))))
            dec = decompose(gm.laplacian, require_connected=True)
            tau = 0.45 * math.pi / (2 * dec.lambda_max)
            rep = link_centrality(gm, structure, tau)
            ref = generic_half_diag(gm, structure, tau)
            np.testing.assert_allclose(rep.indices, ref, rtol=1e-10, atol=1e-13)


class TestEmitter:
    def test_generic_matches_per_mode_hand_formula(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            gm = build_matrices(random_connected_graph(rng, int(rng.integers(3, 9))))
            dec = decompose(gm.laplacian, require_connected=True)
            tau = 0.4 * math.pi / (2 * dec.lambda_max)
            rep = node_centrality(gm, EMITTER, tau)
            degrees = np.diag(dense_reference(gm.graph)["degree_diag"])
            k = assemble(dec, centrality_kernel(dec, tau))
            kl = k @ gm.laplacian
            l2k = gm.laplacian @ gm.laplacian @ k
            hand = 0.5 * (degrees**2 * np.diag(k) - 2 * degrees * np.diag(kl) + np.diag(l2k))
            np.testing.assert_allclose(rep.indices, hand, rtol=1e-10, atol=1e-13)

    def test_simplified_display_is_off_by_half_the_middle_term(self, p3):
        tau = 0.1
        diag = emitter_display_diagnostic(p3, tau)
        assert diag.max_abs_diff > 1e-3
        dec = decompose(p3.laplacian, require_connected=True)
        c = kernel(dec, lambda lam: np.cos(tau * lam) / (1.0 - np.sin(tau * lam)))
        degrees = np.diag(dense_reference(p3.graph)["degree_diag"])
        gap = 0.5 * degrees * np.diag(assemble(dec, c))
        np.testing.assert_allclose(
            diag.simplified_display - diag.generic, gap, rtol=1e-10
        )


def dense_edge_forms(gm, dec, values):
    """``(e_i - e_j)^T K (e_i - e_j)`` per edge, K assembled as an n x n matrix."""
    k = assemble(dec, values)
    return np.array([edge_quadratic_form(k, e) for e in gm.graph.edge_pairs()])


SENSITIVITY_MAPS = {
    "dynamics": lambda tau: lambda lam: (tau * lam - np.cos(tau * lam))
    / (lam**2 * (1.0 - np.sin(tau * lam))),
    "sensor": lambda tau: lambda lam: (tau * lam + np.cos(tau * lam)) / (1.0 - np.sin(tau * lam)),
}


class TestEdgeBlocks:
    """Link indices and sensitivities contract ``(q_i - q_j)^2`` over blocks of
    edges, sized in bytes; ``ring_chord100`` spans full blocks and a partial one."""

    def test_link_centrality_matches_dense_kernel(self, ring_chord100):
        gm = ring_chord100
        rows = centrality_module._edge_rows(gm.n - 1)
        assert rows < gm.num_edges and gm.num_edges % rows
        dec = decompose(gm.laplacian, require_connected=True)
        tau = 0.6 * math.pi / (2 * dec.lambda_max)
        forms = dense_edge_forms(gm, dec, centrality_kernel(dec, tau))
        for structure, s in ((MEASUREMENT, 1.0), (COMM_CHANNEL, gm.graph.w)):
            nu = link_centrality(gm, structure, tau).indices
            np.testing.assert_allclose(nu, 0.5 * s**2 * forms, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("structure", [DYNAMICS, SENSOR])
    def test_link_sensitivity_matches_dense_kernel(self, ring_chord100, structure):
        gm = ring_chord100
        dec = decompose(gm.laplacian, require_connected=True)
        tau = 0.6 * math.pi / (2 * dec.lambda_max)
        ref = 0.5 * dense_edge_forms(gm, dec, kernel(dec, SENSITIVITY_MAPS[structure.value](tau)))
        kappa = link_sensitivity(gm, structure, tau)
        np.testing.assert_allclose(kappa, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 100, 1000, 3000, 20000])
    def test_budget_rule_keeps_a_block_under_the_mmap_threshold(self, n):
        # Arithmetic only: a block of rows x (n - 1) doubles stays under glibc's
        # initial 128 KiB mmap threshold, unless one row alone is over it.
        modes = n - 1
        rows = centrality_module._edge_rows(modes)
        assert rows >= 1 and (rows < 4 or rows % 4 == 0)
        if 8 * modes < 128 * 1024:
            assert rows * 8 * modes < 128 * 1024
        else:
            assert rows == 1

    @pytest.mark.parametrize("n, seed", [(100, 5), (300, 1)])
    def test_block_size_does_not_move_the_indices(self, n, seed, monkeypatch):
        # (100, 5) is the ring_chord100 fixture.
        gm = build_matrices(ring_chord_graph(n, seed))
        tau = 0.5 * math.pi / (2 * gm.spectrum.lambda_max)

        def run():
            links = [link_centrality(gm, s, tau).indices for s in (MEASUREMENT, COMM_CHANNEL)]
            return links + [link_sensitivity(gm, s, tau) for s in (DYNAMICS, SENSOR)]

        ref = run()
        assert centrality_module._edge_rows(gm.n - 1) not in (1, 7)
        for rows in (1, 7):
            monkeypatch.setattr(centrality_module, "_edge_rows", lambda modes, rows=rows: rows)
            for got, want in zip(run(), ref):
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("structure", [MEASUREMENT, COMM_CHANNEL, DYNAMICS, SENSOR])
    def test_peak_memory_is_a_few_edge_blocks(self, structure, monkeypatch):
        # In the style of the GraphMatrices byte guard: an n x n kernel would
        # take 2 n^2 * 8 bytes, 25 block units here.
        block = 16
        monkeypatch.setattr(centrality_module, "_edge_rows", lambda modes: block)
        gm = build_matrices(ring_chord_graph(200, 3))
        dec = decompose(gm.laplacian, require_connected=True)
        tau = 0.5 * math.pi / (2 * dec.lambda_max)
        if structure.indexes_links:
            run = lambda: centrality_module._reports(gm, dec, structure, [tau])
        else:
            run = lambda: link_sensitivity(gm, structure, tau)
        run()  # outside the window: one-time allocations (gm.spectrum too) are not per-call memory
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * block * gm.n * 8

    @pytest.mark.parametrize("structure", [MEASUREMENT, COMM_CHANNEL], ids=lambda s: s.value)
    def test_performance_peak_memory_is_a_few_edge_blocks(self, structure, monkeypatch):
        # A dense n x m input matrix would take m n * 8 bytes, 50 block units
        # here, and its modal product as much again.
        block = 16
        monkeypatch.setattr(centrality_module, "_edge_rows", lambda modes: block)
        gm = build_matrices(ring_chord_graph(200, 3))
        spec = NoiseSpec(structure)
        tau = 0.5 * math.pi / (2 * gm.spectrum.lambda_max)
        performance(gm, spec, tau)  # outside the window, like the test above
        tracemalloc.start()
        try:
            performance(gm, spec, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * block * gm.n * 8


class TestTauSweep:
    def test_p3_rank_inversion(self, p3):
        tau_max = math.pi / 6
        result = tau_sweep(p3, DYNAMICS, [0.0, 0.9 * tau_max])
        first, last = result.reports
        assert first.indices[0] > first.indices[1]  # ends lead without delay
        assert last.indices[1] > last.indices[0]  # center leads near the boundary
        assert len(result.rank_changes) >= 1
        assert [0, 0, 1] in result.rank_changes.tolist()

    def test_k2_elementwise_increase(self, k2):
        result = tau_sweep(k2, DYNAMICS, [0.1, 0.2])
        assert (result.reports[1].indices > result.reports[0].indices).all()

    def test_single_point_grid(self, c4):
        result = tau_sweep(c4, DYNAMICS, [0.0])
        assert len(result.reports) == 1
        assert result.rank_changes.shape == (0, 3)
        assert result.rank_changes.dtype == np.intp

    def test_grid_beyond_boundary_rejected(self, k2):
        with pytest.raises(StabilityError):
            tau_sweep(k2, DYNAMICS, [0.0, math.pi / 4])


class TestScaleSweep:
    def test_zero_delay_ranking_invariant_and_exponents(self):
        rng = np.random.default_rng(53)
        gm = build_matrices(random_connected_graph(rng, 7))
        alphas = (1.0, 2.0, 5.0)
        dyn = scale_sweep(gm, DYNAMICS, 0.0, alphas)
        assert all(dyn.matches_baseline)
        base = dyn.reports[0].indices
        for alpha, rep in zip(alphas, dyn.reports):
            np.testing.assert_allclose(rep.indices, base / alpha, rtol=1e-9)
        sens = scale_sweep(gm, SENSOR, 0.0, alphas)
        assert all(sens.matches_baseline)
        base = sens.reports[0].indices
        for alpha, rep in zip(alphas, sens.reports):
            np.testing.assert_allclose(rep.indices, base * alpha, rtol=1e-9)

    def test_small_alpha_recovers_delay_free_ranking(self):
        rng = np.random.default_rng(59)
        gm = build_matrices(random_connected_graph(rng, 10, p=0.3))
        dec = decompose(gm.laplacian, require_connected=True)
        tau = 0.6 * math.pi / (2 * dec.lambda_max)
        result = scale_sweep(gm, DYNAMICS, tau, [1e-3])
        assert result.matches_baseline == [True]

    def test_unstable_scale_rejected(self, k2):
        with pytest.raises(StabilityError):
            scale_sweep(k2, DYNAMICS, 0.5, [1.0, 2.0])

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf])
    def test_nonpositive_scale_rejected(self, k2, alpha):
        with pytest.raises(GraphError, match="scale factor"):
            scale_sweep(k2, DYNAMICS, 0.0, [1.0, alpha])

    def test_scaling_with_delay_can_reorder(self):
        # The converse of the tau=0 invariance: with a delay present,
        # uniformly strengthening the couplings does change who ranks where.
        rng = np.random.default_rng(0)
        gm = build_matrices(random_connected_graph(rng, 10, p=0.3, weight_range=(1.0, 1.0)))
        dec = decompose(gm.laplacian, require_connected=True)
        tau = 0.5 * math.pi / (2 * dec.lambda_max)
        sweep = scale_sweep(gm, DYNAMICS, tau, [0.2, 1.0, 1.8])
        rankings = {r.ranking for r in sweep.reports}
        assert len(rankings) > 1


def brute_force_flips(reports):
    """Rank flips by the pairwise definition: every id pair at every step."""

    def pair_sign(a, b, tol):
        if a > b + tol:
            return 1
        if b > a + tol:
            return -1
        return 0

    flips = []
    for k in range(len(reports) - 1):
        a, b = reports[k], reports[k + 1]
        tol_a, tol_b = a.rank_tol(), b.rank_tol()
        x, y = a.indices.tolist(), b.indices.tolist()
        for i in range(a.size):
            for j in range(i + 1, a.size):
                sa = pair_sign(x[i], x[j], tol_a)
                sb = pair_sign(y[i], y[j], tol_b)
                if sa * sb == -1:
                    flips.append([k, i, j] if sa > 0 else [k, j, i])
    return flips


FLIP_PALETTE = (1.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9, 0.25, 0.25 - 1e-9, 0.0)


class TestFlipBlocks:
    """Rank flips test ``_FLIP_BLOCK`` rows at a time against every column;
    no m x m array is formed."""

    @pytest.mark.parametrize("structure", [DYNAMICS, SENSOR, MEASUREMENT])
    def test_block_boundaries_match_brute_force(self, ring_chord100, structure, monkeypatch):
        # n = 100 is six full 16-row blocks and a partial one; m = 400 is 25.
        monkeypatch.setattr(centrality_module, "_FLIP_BLOCK", 16)
        gm = ring_chord100
        tau_max = math.pi / (2 * decompose(gm.laplacian).lambda_max)
        sweep = tau_sweep(gm, structure, np.linspace(0.0, 0.95 * tau_max, 12))
        flips = sweep.rank_changes
        assert flips.dtype == np.intp and flips.shape[1] == 3
        assert flips.tolist() == brute_force_flips(sweep.reports)
        same_block = flips[:, 1] // 16 == flips[:, 2] // 16
        assert same_block.any() and not same_block.all()

    def test_ties_and_tolerance_edges_match_brute_force(self, monkeypatch):
        # With max |x| = 1 and max |y| = 1000 the tolerances are 1e-9 and 1e-6:
        # x holds exact ties and gaps of exactly one tolerance (not strict),
        # y gaps that are strict only at the first report's tolerance.
        monkeypatch.setattr(centrality_module, "_FLIP_BLOCK", 16)
        rng = np.random.default_rng(71)
        x = rng.choice([1.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9, 0.25], size=50)
        y = rng.choice([1000.0, 0.5, 0.5 + 5e-7, 0.5 + 2e-6, 0.25], size=50)
        reports = [make_report(0.0, "dynamics", v, None, None) for v in (x, y, x)]
        flips = centrality_module._rank_flips(reports)
        assert len(flips) > 0
        assert flips.tolist() == brute_force_flips(reports)

    def test_peak_memory_is_a_few_flip_blocks(self, monkeypatch):
        # In the style of the edge-block guard: an m x m int8 sign matrix
        # alone takes m / block = 50 block units here.  The output is held
        # once, beside the sort keys of every step (8 bytes a flip, a third
        # of its size), which it is decoded from.
        block = 16
        monkeypatch.setattr(centrality_module, "_FLIP_BLOCK", block)
        gm = build_matrices(ring_chord_graph(200, 3))
        dec = decompose(gm.laplacian, require_connected=True)
        tau_max = math.pi / (2 * dec.lambda_max)
        reports = centrality_module._reports(gm, dec, MEASUREMENT, [0.3 * tau_max, 0.6 * tau_max])
        centrality_module._rank_flips(reports)  # outside the window, as above
        tracemalloc.start()
        try:
            flips = centrality_module._rank_flips(reports)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(flips) > 0
        assert peak < 16 * block * gm.num_edges + 2 * flips.nbytes

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_random_chains_match_brute_force(self, data):
        # Every report holds 1.0, so its tolerance is exactly 1e-9: the
        # palette gives ties and gaps of exactly one tolerance (not strict).
        m = data.draw(st.integers(1, 50), label="m")
        values = st.one_of(st.sampled_from(FLIP_PALETTE), st.floats(-1.0, 1.0))
        reports = []
        for _ in range(data.draw(st.integers(1, 3), label="reports")):
            x = data.draw(st.lists(values, min_size=m - 1, max_size=m - 1))
            x.insert(data.draw(st.integers(0, m - 1)), 1.0)
            reports.append(make_report(0.0, "dynamics", np.array(x), None, None))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(centrality_module, "_FLIP_BLOCK", 16)
            flips = centrality_module._rank_flips(reports)
        expected = brute_force_flips(reports)
        assert flips.dtype == np.intp and flips.shape == (len(expected), 3)
        assert flips.tolist() == expected

    def test_output_is_held_once(self, monkeypatch):
        # Until the (F, 3) output is filled only the sorted keys of each step
        # (8 bytes a flip) stay alive, not a second copy of the output.
        block = 16
        monkeypatch.setattr(centrality_module, "_FLIP_BLOCK", block)
        gm = build_matrices(ring_chord_graph(200, 3))
        tau_max = math.pi / (2 * gm.spectrum.lambda_max)
        taus = np.linspace(0.0, 0.95 * tau_max, 6)
        reports = centrality_module._reports(gm, gm.spectrum, MEASUREMENT, taus)
        centrality_module._rank_flips(reports)  # outside the window, as above
        tracemalloc.start()
        try:
            flips = centrality_module._rank_flips(reports)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(flips) > 0
        assert peak < 16 * block * gm.num_edges + 1.5 * flips.nbytes

    def test_no_m_by_m_array(self):
        # Any m x m array of one-byte entries would push the peak past m^2 bytes.
        m = 3000
        rng = np.random.default_rng(67)
        x = rng.uniform(1.0, 2.0, m)
        y = x + rng.normal(scale=1e-3, size=m)
        reports = [make_report(0.0, "dynamics", v, None, None) for v in (x, y)]
        tracemalloc.start()
        try:
            flips = centrality_module._rank_flips(reports)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(flips) > 0
        assert peak < m * m


class TestSweepSharedDecomposition:
    @pytest.mark.parametrize("graph", ["ex1_graph", "c4", "star5", "ring_chord100"])
    def test_tau_sweep_points_equal_single_calls(self, graph, request):
        gm = request.getfixturevalue(graph)
        tau_max = math.pi / (2 * decompose(gm.laplacian).lambda_max)
        grid = np.linspace(0.0, 0.95 * tau_max, 12)
        flips = 0
        for structure in ALL_STRUCTURES:
            sweep = tau_sweep(gm, structure, grid)
            for tau, rep in zip(grid, sweep.reports):
                single = centrality_report(gm, structure, tau)
                assert np.array_equal(rep.indices, single.indices)
                assert rep.ranking == single.ranking
                assert rep.tie_groups == single.tie_groups
                assert (rep.tau, rep.tau_max, rep.margin) == (single.tau, single.tau_max, single.margin)
            assert sweep.rank_changes.tolist() == brute_force_flips(sweep.reports)
            flips += len(sweep.rank_changes)
        if graph == "ex1_graph":
            assert flips > 0

    @pytest.mark.parametrize("graph", ["ex1_graph", "star5"])
    def test_scale_sweep_matches_rebuilt_graphs(self, graph, request):
        gm = request.getfixturevalue(graph)
        tau = 0.5 * math.pi / (2 * decompose(gm.laplacian).lambda_max)
        alphas = (1 / 16, 0.5, 1.0, 1.9)
        for structure in ALL_STRUCTURES:
            sweep = scale_sweep(gm, structure, tau, alphas)
            baseline = centrality_report(gm, structure, 0.0)
            for alpha, rep, match in zip(alphas, sweep.reports, sweep.matches_baseline):
                g = gm.graph
                scaled = WeightedGraph.from_arrays(g.n, g.i, g.j, alpha * g.w)
                ref = centrality_report(build_matrices(scaled), structure, tau)
                np.testing.assert_allclose(rep.indices, ref.indices, rtol=1e-12, atol=0)
                assert rep.tau_max == pytest.approx(ref.tau_max, rel=1e-12)
                assert rep.margin == pytest.approx(ref.margin, rel=1e-12)
                assert match == (ref.ranking == baseline.ranking)

    def test_all_sweeps_share_one_decomposition(self, ex1_graph, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(graph_module, "decompose", counting)
        gm = build_matrices(ex1_graph.graph)
        for structure in ALL_STRUCTURES:
            tau_sweep(gm, structure, np.linspace(0.0, 0.1, 6))
            scale_sweep(gm, structure, 0.05, [0.5, 1.0, 1.5])
        assert len(calls) == 1


class TestAdversarialAllocation:
    def test_k2(self, k2):
        result = adversarial_allocation(k2, DYNAMICS, 0.0)
        assert result.worst_rho == pytest.approx(0.25, abs=1e-12)
        assert result.variances.sum() == pytest.approx(2.0)

    def test_p3(self, p3):
        result = adversarial_allocation(p3, DYNAMICS, 0.0)
        assert result.worst_rho == pytest.approx(3 * 5 / 18, rel=1e-12)
        assert result.node in (0, 2)
        assert result.variances[result.node] == pytest.approx(3.0)

    def test_vertex_transitive_equals_uniform_performance(self, c4):
        tau = 0.2
        result = adversarial_allocation(c4, DYNAMICS, tau)
        uniform = performance(c4, NoiseSpec(DYNAMICS), tau)
        assert result.worst_rho == pytest.approx(uniform, rel=1e-10)

    def test_link_structure_rejected(self, c4):
        with pytest.raises(ValueError, match="agent structure"):
            adversarial_allocation(c4, MEASUREMENT, 0.0)


class TestReportShape:
    def test_report_invariants(self, ex1_graph):
        rep = node_centrality(ex1_graph, DYNAMICS, 0.1)
        assert sorted(rep.ranking) == list(range(8))
        ranked = rep.indices[list(rep.ranking)]
        assert (np.diff(ranked) <= rep.rank_tol()).all()
        assert (rep.indices > 0).all()

    def test_json_keys(self, p3):
        payload = node_centrality(p3, DYNAMICS, 0.0).to_dict()
        assert set(payload) == {
            "tau", "structure", "indices", "ranking", "tie_groups", "tau_max", "margin",
        }
        assert payload["structure"] == "dynamics"
