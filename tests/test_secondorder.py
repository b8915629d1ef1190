import math
import re
import tracemalloc

import numpy as np
import pytest

from delaycent import (
    SecondOrderConfig,
    SecondOrderStabilityError,
    WeightedGraph,
    build_matrices,
    f_integral,
    h_kernel,
    so_node_centrality,
    so_zero_delay_closed_form,
)
from delaycent import SimConfig, SimulationError, StabilityError, decompose, oracles, quadrature, secondorder
from delaycent import simulate_second_order
from delaycent.quadrature import QuadratureError, integrate_adaptive
from delaycent.secondorder import SECOND_ORDER_TAG, _f_per_eigenvalue, critical_delay

from conftest import per_mode_second_order, random_connected_graph, ring_chord_graph


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


def _eigenvalues(gm):
    return decompose(gm.laplacian, require_connected=True).nonzero_eigenvalues()


@pytest.fixture
def refined_panels(monkeypatch):
    """Panels per mode of the next batched refinement: each integrand call a
    row takes part in adds one panel to it (the first call evaluates its
    single starting panel)."""
    seen = {}

    def spy(f, a, b, *args):
        calls = seen["panels"] = np.zeros(len(a), dtype=int)

        def counted(rows, x):
            calls[rows] += 1
            return f(rows, x)

        return quadrature.integrate_rows(counted, a, b, *args)

    monkeypatch.setattr(secondorder, "integrate_rows", spy)
    return seen


@pytest.fixture(scope="module")
def ring_chord200():
    return build_matrices(ring_chord_graph(200, 7))


class TestBatchedModes:
    """All modes of a graph in one batched refinement against the former
    per-mode loop, kept in ``conftest.per_mode_second_order``."""

    @pytest.mark.parametrize("graph", ["k2", "p3", "ring_chord100", "ring_chord200"])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("b", [0.5, 1.0, 4.0])
    def test_matches_the_per_mode_loop(self, graph, fraction, b, request, refined_panels):
        lam = _eigenvalues(request.getfixturevalue(graph))
        cfg = SecondOrderConfig(b=b, tau=fraction * critical_delay(lam[-1], b))
        want, want_panels = per_mode_second_order(lam, cfg)
        got = _f_per_eigenvalue(lam, cfg)
        assert np.max(np.abs(got - want) / want) <= 1e-15
        np.testing.assert_array_equal(refined_panels["panels"], want_panels)

    def test_repeated_eigenvalues_are_integrated_once(self, c4, refined_panels):
        # C4 has eigenvalues 2, 2, 4 (up to rounding): two distinct modes.
        lam = _eigenvalues(c4)
        cfg = SecondOrderConfig(b=1.0, tau=0.1)
        got = _f_per_eigenvalue(lam, cfg)
        assert refined_panels["panels"].size == 2
        assert got[0] == got[1]
        np.testing.assert_array_equal(got, per_mode_second_order(lam, cfg)[0])

    def test_lowest_faulting_mode_wins(self, refined_panels):
        # At this (b, tau) mode 1 is marginal: h has a double zero at
        # omega_c = sqrt(sec theta), where the crossing check evaluates it.  A
        # four-panel budget is too small for mode 0.5; mode 2 is past its tau_c.
        theta = 0.78125
        omega_c = math.sqrt(1.0 / math.cos(theta))
        cfg = SecondOrderConfig(b=math.tan(theta) / omega_c, tau=theta / omega_c, panel_budget=4)
        with pytest.raises(SecondOrderStabilityError, match=f"near w={omega_c:.6g}"):
            _f_per_eigenvalue(np.array([1.0]), cfg)
        assert refined_panels["panels"].size == 0  # found before refinement: nothing refined
        lam = np.array([0.5, 1.0])
        with pytest.raises((QuadratureError, SecondOrderStabilityError)) as want:
            per_mode_second_order(lam, cfg)
        with pytest.raises(want.type, match="^" + re.escape(str(want.value)) + "$"):
            _f_per_eigenvalue(lam, cfg)
        assert want.type is QuadratureError
        with pytest.raises(StabilityError, match=f"tau_max={critical_delay(2.0, cfg.b):.6g}"):
            _f_per_eigenvalue(np.array([1.0, 2.0]), cfg)

    def test_memory_before_refinement_is_linear_in_the_modes(self, ring_chord200, monkeypatch):
        class Refining(Exception):
            pass

        def stop(*args):
            raise Refining(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(secondorder, "integrate_rows", stop)
        lam = _eigenvalues(ring_chord200)
        cfg = SecondOrderConfig(b=1.0, tau=0.9 * critical_delay(lam[-1], 1.0))
        tracemalloc.start()
        try:
            with pytest.raises(Refining) as done:
                _f_per_eigenvalue(lam, cfg)
        finally:
            tracemalloc.stop()
        # A few dozen floats per mode; one 2049-point grid per mode would be 16 kB.
        assert done.value.args[0] <= 64 * 8 * lam.size


class TestCriticalDelay:
    @pytest.mark.parametrize("lam", [1e-3, 0.5, 2.0, 20.0, 1e3])
    @pytest.mark.parametrize("b", [0.1, 1.0, 10.0])
    def test_root_on_the_imaginary_axis(self, lam, b):
        tau = critical_delay(lam, b)
        omega = math.sqrt((b * b * lam * lam + math.sqrt(b**4 * lam**4 + 4.0 * lam * lam)) / 2.0)
        s = 1j * omega
        residual = s * s + lam * (1.0 + b * s) * np.exp(-s * tau)
        assert abs(residual) <= 1e-12 * max(omega**2, lam)

    @pytest.mark.parametrize("lam", [1e-3, 0.5, 2.0, 20.0, 1e3, 1e10, 1e40, 1e77, 1e80])
    @pytest.mark.parametrize("b", [0.1, 1.0, 10.0])
    def test_matches_50_digit_reference(self, lam, b):
        # b^4 lam^4 overflows a double once b lam passes ~1e77; the hypot form does not.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            lm, bm = mpmath.mpf(lam), mpmath.mpf(b)
            omega = mpmath.sqrt((bm**2 * lm**2 + mpmath.sqrt(bm**4 * lm**4 + 4 * lm**2)) / 2)
            want = mpmath.atan(bm * omega) / omega
            assert abs((critical_delay(lam, b) - want) / want) <= 1e-15

    def test_decreasing_in_the_eigenvalue(self):
        lam = np.geomspace(1e-3, 1e3, 61)
        for b in (0.1, 1.0, 10.0):
            taus = [critical_delay(x, b) for x in lam]
            assert all(a > c for a, c in zip(taus, taus[1:]))

    def test_k2_boundary(self, k2):
        tau_c = critical_delay(2.0, 1.0)
        assert tau_c == pytest.approx(0.52049, abs=1e-5)
        so_node_centrality(k2, SecondOrderConfig(b=1.0, tau=0.9 * tau_c))
        for tau in (1.0001 * tau_c, 0.8, 1.2):
            with pytest.raises(StabilityError, match=f"tau_max={tau_c:.6g}"):
                so_node_centrality(k2, SecondOrderConfig(b=1.0, tau=tau))

    def test_simulation_diverges_only_past_the_boundary(self, k2):
        tau_c = critical_delay(2.0, 1.0)
        for fraction, diverges in ((0.9, False), (1.1, True)):
            tau = fraction * tau_c
            cfg = SimConfig(tau=tau, dt=tau / 20, burn_in=10 * tau, horizon=300 * tau, n_traj=2, seed=1)
            if diverges:
                # simulate_second_order refuses the delay; its stepping loop would blow up.
                with pytest.raises(StabilityError, match=f"tau_max={tau_c:.6g}"):
                    simulate_second_order(k2, 1.0, np.ones(2), cfg)
                with pytest.raises(SimulationError, match="blew up"):
                    oracles._run_euler_maruyama(cfg, k2.laplacian, 2, lambda z, out: np.copyto(out, z), 1.0)
            else:
                assert simulate_second_order(k2, 1.0, np.ones(2), cfg).rho_hat < 10.0

    def test_simulation_refuses_delays_past_the_boundary(self, p3):
        # Just past tau_c a short run does not blow up, so only the gate can
        # keep it from returning a large, meaningless rho_hat.
        tau_c = critical_delay(3.0, 0.7)
        tau = 1.01 * tau_c
        cfg = SimConfig(tau=tau, dt=tau / 20, burn_in=10 * tau, horizon=100 * tau, n_traj=4, seed=1)
        with pytest.raises(StabilityError, match=f"tau={tau:.6g} .*tau_max={tau_c:.6g}"):
            simulate_second_order(p3, 0.7, np.ones(3), cfg)
        # A stable request whose delay snaps past tau_c is refused at the snapped delay.
        cfg = SimConfig(tau=0.9999 * tau_c, dt=tau_c / 199.6, burn_in=1.0, horizon=1.0, n_traj=2)
        assert cfg.tau < tau_c < cfg.tau_snapped
        with pytest.raises(StabilityError) as exc:
            simulate_second_order(p3, 0.7, np.ones(3), cfg)
        assert exc.value.tau == cfg.tau_snapped

    def test_boundary_itself_is_reported_as_marginal(self):
        # At tau = tau_c exactly the kernel has a zero on the frequency axis.
        gm = build_matrices(WeightedGraph(2, [(0, 1, 0.25)]))
        cfg = SecondOrderConfig(b=math.sqrt(3.0), tau=math.pi / 3)
        assert cfg.tau == critical_delay(0.5, cfg.b)
        with pytest.raises(SecondOrderStabilityError, match="marginal"):
            so_node_centrality(gm, cfg)


# (lam, b) pairs for the closed-form stability gate; (0.5, sqrt 3) crosses at
# tau_c = pi/3 exactly.
GATE_MODES = [(0.5, math.sqrt(3.0)), (2.0, 1.0), (8.0, 0.5), (1.0, 4.0)]


class TestStabilityGate:
    @pytest.mark.parametrize("lam,b", GATE_MODES)
    @pytest.mark.parametrize("eps", [1e-9, 1e-3, 0.2])
    def test_f_integral_refuses_past_the_crossing_delay(self, lam, b, eps):
        tau_c = critical_delay(lam, b)
        with pytest.raises(StabilityError, match=f"tau_max={tau_c:.6g}"):
            f_integral(lam, (1.0 + eps) * tau_c, b)

    @pytest.mark.parametrize("lam,b", GATE_MODES)
    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7, 1e-9, 0.0])
    def test_matches_the_scanning_loop_below_the_crossing_delay(self, lam, b, eps):
        # Both paths refine the same way once their up-front checks pass, and
        # the oracle's refinement is quadratic in panels: a small budget keeps
        # it fast and leaves the up-front checks to decide the outcome.
        tau = (1.0 - eps) * critical_delay(lam, b)
        cfg = SecondOrderConfig(b=b, tau=tau, panel_budget=1024)
        modes = np.array([lam])
        try:
            want = per_mode_second_order(modes, cfg)[0]
        except (QuadratureError, SecondOrderStabilityError) as exc:
            with pytest.raises(type(exc)):
                _f_per_eigenvalue(modes, cfg)
        else:
            np.testing.assert_array_equal(_f_per_eigenvalue(modes, cfg), want)
