import math

import numpy as np
import pytest

from delaycent import (
    DisconnectedGraphError,
    SpectralError,
    build_matrices,
    decompose,
    kernel,
    parse_edge_list,
    stability_margin,
)

from conftest import assemble, centering_matrix, edge_quadratic_form, random_connected_graph


class TestDecompose:
    def test_k2_eigenvalues(self, k2):
        dec = decompose(k2.laplacian)
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)
        assert dec.zero_mode_count == 1

    def test_p3_eigenvalues(self, p3):
        dec = decompose(p3.laplacian)
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_zero_matrix(self):
        dec = decompose(np.zeros((3, 3)))
        np.testing.assert_allclose(dec.eigenvalues, 0.0)
        assert dec.zero_mode_count == 3

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            gm = build_matrices(random_connected_graph(rng, int(rng.integers(3, 11))))
            dec = decompose(gm.laplacian)
            q = dec.eigenvectors
            assert np.max(np.abs(q.T @ q - np.eye(gm.n))) <= 1e-10
            rebuilt = (q * dec.eigenvalues) @ q.T
            assert np.max(np.abs(rebuilt - gm.laplacian)) <= 1e-9 * max(1.0, dec.lambda_max)

    def test_connected_zero_eigenvector_is_uniform(self, p3):
        dec = decompose(p3.laplacian, require_connected=True)
        uniform = np.full(3, 1.0 / math.sqrt(3))
        q0 = dec.eigenvectors[:, 0]
        assert min(np.max(np.abs(q0 - uniform)), np.max(np.abs(q0 + uniform))) <= 1e-8

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(SpectralError, match="symmetric"):
            decompose(m)

    def test_asymmetry_within_tolerance_is_accepted(self, p3):
        # Unequal to its transpose, so the asymmetry is measured: 1e-12 passes, 1e-9 fails.
        near, far = p3.laplacian.copy(), p3.laplacian.copy()
        near[0, 1] += 1e-12
        far[0, 1] += 1e-9
        np.testing.assert_allclose(decompose(near).eigenvalues, [0.0, 1.0, 3.0], atol=1e-9)
        with pytest.raises(SpectralError, match=r"max asymmetry 1\.000e-09"):
            decompose(far)

    @pytest.mark.parametrize("require_connected", [False, True])
    def test_eigenvalues_only_matches_full(self, require_connected):
        rng = np.random.default_rng(12)
        gm = build_matrices(random_connected_graph(rng, 9))
        full = decompose(gm.laplacian, require_connected=require_connected)
        values = decompose(gm.laplacian, require_connected=require_connected, vectors=False)
        assert values.eigenvectors is None
        assert values.zero_mode_count == full.zero_mode_count == 1
        np.testing.assert_allclose(values.eigenvalues, full.eigenvalues, rtol=1e-12, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(SpectralError, match="semidefinite"):
            decompose(np.diag([-1.0, 1.0]))

    def test_require_connected_on_two_components(self):
        gm = build_matrices(parse_edge_list("0 1\n2 3"))
        with pytest.raises(DisconnectedGraphError):
            decompose(gm.laplacian, require_connected=True)

    def test_scaling_preserves_eigenspaces(self):
        rng = np.random.default_rng(9)
        gm = build_matrices(random_connected_graph(rng, 7))
        dec = decompose(gm.laplacian)
        for alpha in (0.5, 2.0, 10.0):
            dec_a = decompose(alpha * gm.laplacian)
            np.testing.assert_allclose(
                dec_a.eigenvalues, alpha * dec.eigenvalues, rtol=1e-9, atol=1e-12
            )
            # Compare spectral projectors cluster by cluster: basis-free.
            for lam in np.unique(np.round(dec.eigenvalues, 8)):
                sel = np.abs(dec.eigenvalues - lam) < 1e-8 * max(1.0, dec.lambda_max)
                sel_a = np.abs(dec_a.eigenvalues - alpha * lam) < 1e-8 * alpha * max(
                    1.0, dec.lambda_max
                )
                qa = dec.eigenvectors[:, sel]
                qb = dec_a.eigenvectors[:, sel_a]
                proj_diff = qa @ qa.T - qb @ qb.T
                # max principal angle between the subspaces
                angle = math.asin(min(1.0, np.linalg.norm(proj_diff, 2)))
                assert angle <= 1e-8

    def test_basis_independence_under_relabeling(self, c4):
        # C4 has a repeated eigenvalue; any orthonormal eigenbasis must give
        # the same spectral-kernel matrix.
        dec = decompose(c4.laplacian)
        perm = np.array([2, 0, 3, 1])
        p = np.eye(4)[perm]
        dec_p = decompose(p @ c4.laplacian @ p.T)
        k = assemble(dec, kernel(dec, lambda lam: 1.0 / lam))
        k_p = assemble(dec_p, kernel(dec_p, lambda lam: 1.0 / lam))
        assert np.max(np.abs(p @ k @ p.T - k_p)) <= 1e-10


class TestKernel:
    def test_pseudoinverse_k2(self, k2):
        dec = decompose(k2.laplacian)
        values = kernel(dec, lambda lam: 1.0 / lam)
        np.testing.assert_allclose(values, [0.0, 0.5], atol=1e-12)
        k = assemble(dec, values)
        assert k[0, 0] == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(k, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_constant_map_gives_centering(self, p3):
        dec = decompose(p3.laplacian)
        k = assemble(dec, kernel(dec, lambda lam: np.ones_like(lam)))
        np.testing.assert_allclose(k, centering_matrix(3), atol=1e-9)

    def test_identity_map_reconstructs(self, triangle_123):
        dec = decompose(triangle_123.laplacian)
        k = assemble(dec, kernel(dec, lambda lam: lam))
        np.testing.assert_allclose(k, triangle_123.laplacian, atol=1e-9)

    def test_annihilates_consensus_and_commutes(self):
        rng = np.random.default_rng(21)
        gm = build_matrices(random_connected_graph(rng, 8))
        dec = decompose(gm.laplacian)
        k = assemble(dec, kernel(dec, lambda lam: np.cos(0.1 * lam) / lam))
        assert np.max(np.abs(k @ np.ones(8))) <= 1e-9
        assert np.max(np.abs(k - k.T)) == 0.0
        comm = k @ gm.laplacian - gm.laplacian @ k
        assert np.max(np.abs(comm)) <= 1e-9

    def test_pinv_identity(self, p3):
        dec = decompose(p3.laplacian)
        values = kernel(dec, lambda lam: 1.0 / lam)
        product = assemble(dec, values) @ p3.laplacian
        np.testing.assert_allclose(product, centering_matrix(3), atol=1e-9)
        inverse = np.zeros_like(values)
        inverse[values != 0.0] = 1.0 / values[values != 0.0]
        np.testing.assert_allclose(assemble(dec, inverse), p3.laplacian, atol=1e-9)

    def test_kernel_product_rule(self):
        rng = np.random.default_rng(5)
        gm = build_matrices(random_connected_graph(rng, 6))
        dec = decompose(gm.laplacian)
        g1 = lambda lam: 1.0 / lam
        g2 = lambda lam: np.sin(0.2 * lam)
        left = assemble(dec, kernel(dec, g1)) @ assemble(dec, kernel(dec, g2))
        right = assemble(dec, kernel(dec, lambda lam: g1(lam) * g2(lam)))
        assert np.max(np.abs(left - right)) <= 1e-9

    def test_non_finite_map_reports_eigenvalue(self, p3):
        dec = decompose(p3.laplacian)
        with pytest.raises(SpectralError, match="not finite at eigenvalue"):
            kernel(dec, lambda lam: 1.0 / (lam - 3.0))

    def test_trig_identity_full_space(self):
        rng = np.random.default_rng(13)
        gm = build_matrices(random_connected_graph(rng, 7))
        dec = decompose(gm.laplacian)
        tau = 0.3 / dec.lambda_max * (math.pi / 2)
        c = assemble(dec, np.cos(tau * dec.eigenvalues))
        s = assemble(dec, np.sin(tau * dec.eigenvalues))
        assert np.max(np.abs(c @ c + s @ s - np.eye(7))) <= 1e-9

    def test_matrix_function_keeps_zero_mode(self, k2):
        dec = decompose(k2.laplacian)
        c = assemble(dec, np.cos(dec.eigenvalues))
        # cos(0) = 1 on the consensus mode: row sums are cos(0) = 1.
        np.testing.assert_allclose(c @ np.ones(2), np.ones(2), atol=1e-12)
        # kernel() pins the same mode to 0: its rows sum to 0 instead.
        k = assemble(dec, kernel(dec, np.cos))
        np.testing.assert_allclose(k @ np.ones(2), np.zeros(2), atol=1e-12)


class TestStabilityMargin:
    def test_k2_at_zero(self, k2):
        info = stability_margin(decompose(k2.laplacian), 0.0)
        assert info.tau_max == pytest.approx(math.pi / 4, abs=1e-12)
        assert info.stable

    def test_boundary_excluded(self, k2):
        info = stability_margin(decompose(k2.laplacian), math.pi / 4)
        assert not info.stable

    def test_p3_margin(self, p3):
        info = stability_margin(decompose(p3.laplacian), 0.5)
        assert info.tau_max == pytest.approx(math.pi / 6, abs=1e-12)
        assert info.stable
        assert info.margin == pytest.approx(math.pi / 6 - 0.5, abs=1e-12)

    def test_disconnected_rejected(self):
        gm = build_matrices(parse_edge_list("0 1\n2 3"))
        with pytest.raises(DisconnectedGraphError):
            stability_margin(decompose(gm.laplacian), 0.1)

    @pytest.mark.parametrize("tau", [-0.1, math.nan, math.inf, -math.inf])
    def test_delay_must_be_finite_and_nonnegative(self, k2, tau):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            stability_margin(decompose(k2.laplacian), tau)


class TestEdgeQuadraticForm:
    def test_triangle_resistance(self, triangle):
        dec = decompose(triangle.laplacian)
        lpinv = assemble(dec, kernel(dec, lambda lam: 1.0 / lam))
        for pair in triangle.graph.edge_pairs():
            assert edge_quadratic_form(lpinv, pair) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_tree_edge_resistance_is_one(self, star5):
        dec = decompose(star5.laplacian)
        lpinv = assemble(dec, kernel(dec, lambda lam: 1.0 / lam))
        for pair in star5.graph.edge_pairs():
            assert edge_quadratic_form(lpinv, pair) == pytest.approx(1.0, abs=1e-12)

    def test_centering_matrix_value(self):
        for n in (2, 3, 7):
            assert edge_quadratic_form(centering_matrix(n), (0, n - 1)) == pytest.approx(2.0)

    def test_invalid_edge(self, k2):
        with pytest.raises(ValueError):
            edge_quadratic_form(np.eye(2), (0, 0))
        with pytest.raises(ValueError):
            edge_quadratic_form(np.eye(2), (0, 5))

    def test_effective_resistance_is_a_metric(self):
        rng = np.random.default_rng(17)
        for n in range(3, 7):
            for _ in range(6):
                gm = build_matrices(random_connected_graph(rng, n))
                dec = decompose(gm.laplacian)
                lpinv = assemble(dec, kernel(dec, lambda lam: 1.0 / lam))
                r = np.zeros((n, n))
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            r[i, j] = edge_quadratic_form(lpinv, (i, j))
                assert (r[~np.eye(n, dtype=bool)] > 0).all()
                np.testing.assert_allclose(r, r.T, atol=1e-12)
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            if len({i, j, k}) == 3:
                                assert r[i, j] <= r[i, k] + r[k, j] + 1e-10
