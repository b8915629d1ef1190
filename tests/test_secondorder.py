import math

import numpy as np
import pytest

from delaycent import (
    SecondOrderConfig,
    SecondOrderStabilityError,
    build_matrices,
    f_integral,
    h_kernel,
    so_node_centrality,
    so_zero_delay_closed_form,
)
from delaycent.quadrature import QuadratureError, integrate_adaptive
from delaycent.secondorder import SECOND_ORDER_TAG

from conftest import random_connected_graph


class TestHKernel:
    def test_unit_values(self):
        assert h_kernel(1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_hand_value(self):
        # (2 - 1*cos 0)^2 + 1*(2 - 1*sin 0)^2 = 1 + 4
        assert h_kernel(2.0, 0.0, 1.0, 1.0) == pytest.approx(5.0)

    def test_even_in_omega(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            lam, tau, b, w = rng.uniform(0.1, 5.0, size=4)
            assert h_kernel(lam, tau, b, w) == pytest.approx(h_kernel(lam, tau, b, -w))

    def test_vectorized(self):
        w = np.linspace(0.0, 3.0, 7)
        vals = h_kernel(1.5, 0.2, 0.8, w)
        assert vals.shape == w.shape
        assert (vals >= 0).all()


class TestFIntegral:
    def test_zero_delay_closed_form(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            lam = float(rng.uniform(0.2, 8.0))
            b = float(rng.uniform(0.3, 3.0))
            assert f_integral(lam, 0.0, b) == pytest.approx(
                1.0 / (2.0 * b * lam**2), abs=1e-8, rel=1e-7
            )

    def test_reference_point(self):
        assert f_integral(1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-8)

    def test_b_scaling_at_zero_delay(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            lam = float(rng.uniform(0.5, 4.0))
            assert f_integral(lam, 0.0, 2.0) == pytest.approx(
                0.5 * f_integral(lam, 0.0, 1.0), rel=1e-6
            )

    def test_monotone_decreasing_in_b_at_zero_delay(self):
        vals = [f_integral(1.7, 0.0, b) for b in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tolerance_self_consistency(self):
        coarse = f_integral(2.3, 0.12, 1.1, quad_tol=1e-7)
        fine = f_integral(2.3, 0.12, 1.1, quad_tol=5e-8)
        assert abs(coarse - fine) < 1e-7

    def test_matches_naive_two_sided_integration(self):
        lam, tau, b = 1.9, 0.1, 0.7
        got = f_integral(lam, tau, b, quad_tol=1e-10)
        naive = integrate_adaptive(
            lambda w: 1.0 / h_kernel(lam, tau, b, w), -200.0, 200.0, abs_tol=1e-11
        ) / (2 * math.pi)
        # The naive version has no tail correction; compare loosely.
        assert got == pytest.approx(naive, rel=1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            f_integral(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            f_integral(1.0, 0.0, -1.0)

    def test_marginal_configuration_detected(self):
        # h(0.5, pi/3, sqrt(3), w) vanishes at w = 1, a double pole of the
        # integrand; refinement must report it rather than return a number.
        with pytest.raises(SecondOrderStabilityError):
            f_integral(0.5, math.pi / 3, math.sqrt(3.0))

    def test_budget_exhaustion_reported(self):
        with pytest.raises(QuadratureError, match="budget"):
            f_integral(1.0, 0.4, 1.0, quad_tol=1e-13, panel_budget=8)


class TestSoNodeCentrality:
    def test_k2_reference(self, k2):
        rep = so_node_centrality(k2, SecondOrderConfig(b=1.0))
        np.testing.assert_allclose(rep.indices, 0.0625, atol=1e-8)

    def test_p3_reference(self, p3):
        rep = so_node_centrality(p3, SecondOrderConfig(b=1.0))
        np.testing.assert_allclose(rep.indices, [7 / 27, 1 / 27, 7 / 27], atol=1e-8)

    def test_gain_halves_indices(self, c4):
        one = so_node_centrality(c4, SecondOrderConfig(b=1.0))
        two = so_node_centrality(c4, SecondOrderConfig(b=2.0))
        np.testing.assert_allclose(two.indices, one.indices / 2.0, rtol=1e-6)

    def test_corollary_consistency_random(self):
        rng = np.random.default_rng(73)
        for _ in range(6):
            gm = build_matrices(random_connected_graph(rng, int(rng.integers(3, 9))))
            for b in (0.5, 1.0, 2.0):
                cfg = SecondOrderConfig(b=b, quad_tol=1e-9)
                rep = so_node_centrality(gm, cfg)
                closed = so_zero_delay_closed_form(gm, b)
                assert np.max(np.abs(rep.indices - closed)) <= max(10 * cfg.quad_tol, 1e-8)

    def test_report_shape(self, p3):
        rep = so_node_centrality(p3, SecondOrderConfig(b=1.5, tau=0.1, quad_tol=1e-8))
        assert rep.structure == SECOND_ORDER_TAG
        assert rep.tau_max is None and rep.margin is None
        payload = rep.to_dict()
        assert payload["b"] == 1.5
        assert payload["quad_tol"] == 1e-8
        assert payload["tau_max"] is None

    def test_delay_increases_indices(self, p3):
        base = so_node_centrality(p3, SecondOrderConfig(b=1.0))
        delayed = so_node_centrality(p3, SecondOrderConfig(b=1.0, tau=0.15))
        assert (delayed.indices > base.indices).all()

    def test_quadrature_failure_names_eigenvalue(self, p3):
        cfg = SecondOrderConfig(b=1.0, tau=0.3, quad_tol=1e-13, panel_budget=8)
        with pytest.raises(QuadratureError, match="eigenvalue"):
            so_node_centrality(p3, cfg)


class TestClosedForm:
    def test_matches_squared_pseudoinverse(self, p3):
        lap = p3.laplacian
        l2pinv = np.linalg.pinv(lap @ lap)
        np.testing.assert_allclose(
            so_zero_delay_closed_form(p3, 1.25), np.diag(l2pinv) / 2.5, atol=1e-10
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SecondOrderConfig(b=0.0)
        for tau in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                SecondOrderConfig(b=1.0, tau=tau)
        with pytest.raises(ValueError):
            SecondOrderConfig(b=1.0, quad_tol=0.0)
