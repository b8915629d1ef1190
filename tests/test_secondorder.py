import ast
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from delaycent import (
    SecondOrderConfig,
    SecondOrderStabilityError,
    WeightedGraph,
    build_matrices,
    so_node_centrality,
)
from delaycent import SimConfig, SimulationError, StabilityError, decompose, oracles, quadrature, secondorder
from delaycent import simulate_second_order
from delaycent.quadrature import integrate_adaptive
from delaycent.secondorder import SECOND_ORDER_TAG, _delay_lyapunov, _f_and_error, _f_per_eigenvalue, critical_delay

from conftest import (
    mp_first_order_maps,
    name_scopes,
    random_connected_graph,
    ring_chord_graph,
    so_zero_delay_closed_form,
)


def h_kernel(lam, tau, b, omega):
    """Denominator of the per-mode spectral density:
    ``(lam - w^2 cos(w tau))^2 + w^2 (b lam - w sin(w tau))^2``."""
    omega = np.asarray(omega, dtype=float)
    value = (lam - omega**2 * np.cos(omega * tau)) ** 2 + omega**2 * (
        b * lam - omega * np.sin(omega * tau)
    ) ** 2
    return value if value.ndim else float(value)


def f_integral(lam, tau, b, quad_tol=1e-9):
    """Steady-state position variance ``(1/2pi) int dw / h`` of one mode: the
    one-mode call of :func:`_f_per_eigenvalue`, with its refusals."""
    cfg = SecondOrderConfig(b=b, tau=tau, quad_tol=quad_tol)
    return float(_f_per_eigenvalue(np.array([float(lam)]), cfg)[0])


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
            f_integral(1.0, 0.0, -1.0)

    def test_marginal_configuration_detected(self):
        # h(0.5, pi/3, sqrt(3), w) vanishes at w = 1, a double pole of the
        # integrand; refinement must report it rather than return a number.
        with pytest.raises(SecondOrderStabilityError):
            f_integral(0.5, math.pi / 3, math.sqrt(3.0))

    def test_unmeetable_tolerance_reported(self):
        with pytest.raises(SecondOrderStabilityError, match=r"error estimate .* exceeds quad_tol=1e-30"):
            f_integral(1.0, 0.4, 1.0, quad_tol=1e-30)


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

    def test_refusal_names_the_eigenvalue(self, p3):
        cfg = SecondOrderConfig(b=1.0, tau=0.3, quad_tol=1e-30)
        with pytest.raises(SecondOrderStabilityError, match="at eigenvalue 1 "):
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
    return gm.spectrum.nonzero_eigenvalues()


@pytest.fixture(scope="module")
def ring_chord200():
    return build_matrices(ring_chord_graph(200, 7))


class TestBatchedModes:
    """All modes of a graph in one batched solve against one mode at a time."""

    @pytest.mark.parametrize("graph", ["k2", "p3", "ring_chord100", "ring_chord200"])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("b", [0.5, 1.0, 4.0])
    def test_matches_one_mode_at_a_time(self, graph, fraction, b, request):
        lam = _eigenvalues(request.getfixturevalue(graph))
        cfg = SecondOrderConfig(b=b, tau=fraction * critical_delay(lam[-1], b))
        got = _f_per_eigenvalue(lam, cfg)
        want = [f_integral(x, cfg.tau, b) for x in lam]
        np.testing.assert_array_equal(got, want)
        if fraction == 0.0:
            np.testing.assert_allclose(got, 1.0 / (2.0 * b * lam**2), rtol=1e-14)

    def test_equal_eigenvalues_give_equal_bits(self, c4):
        lam = np.array([2.0, 2.0, 3.0, 3.0, 3.0])
        got = _f_per_eigenvalue(lam, SecondOrderConfig(b=1.0, tau=0.1))
        assert got[0] == got[1] and got[2] == got[3] == got[4]
        # C4 has eigenvalues 2, 2, 4 up to rounding: the close pair stays close.
        got = _f_per_eigenvalue(_eigenvalues(c4), SecondOrderConfig(b=1.0, tau=0.1))
        assert abs(got[0] - got[1]) <= 1e-14 * got[0]

    def test_lowest_faulting_mode_wins(self):
        # At this (b, tau) mode 1 is marginal: h has a double zero at
        # omega_c = sqrt(sec theta).  Mode 0.5 is stable, and refused only
        # by a tolerance below its error estimate; mode 2 is past its tau_c.
        theta = 0.78125
        omega_c = math.sqrt(1.0 / math.cos(theta))
        cfg = SecondOrderConfig(b=math.tan(theta) / omega_c, tau=theta / omega_c)
        assert cfg.tau == pytest.approx(critical_delay(1.0, cfg.b), rel=1e-15)
        lam = np.array([0.5, 1.0])
        with pytest.raises(SecondOrderStabilityError, match="marginal.* at eigenvalue 1 "):
            _f_per_eigenvalue(lam, cfg)
        strict = SecondOrderConfig(b=cfg.b, tau=cfg.tau, quad_tol=1e-30)
        with pytest.raises(SecondOrderStabilityError, match="at eigenvalue 0.5 "):
            _f_per_eigenvalue(lam, strict)
        with pytest.raises(StabilityError, match=f"tau_max={critical_delay(2.0, cfg.b):.6g}"):
            _f_per_eigenvalue(np.array([1.0, 2.0]), cfg)

    def test_memory_is_linear_in_the_modes(self, ring_chord200):
        lam = _eigenvalues(ring_chord200)
        cfg = SecondOrderConfig(b=1.0, tau=0.9 * critical_delay(lam[-1], 1.0))
        tracemalloc.start()
        try:
            _f_per_eigenvalue(lam, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few 8 x 8 matrices of doubles per mode, and nothing that grows faster.
        assert peak <= 10 * 8 * 8 * 8 * lam.size


def mp_mode_integral(lam, tau, b, dps=40):
    """``f(lam, tau, b) = lam^{-3/2} (1/pi) int_0^inf dnu / h(1, sqrt(lam) tau,
    b sqrt(lam), nu)`` by ``mpmath.quad`` at ``dps`` digits, split around the
    crossing frequency, along a doubling grid and at the half-periods of the
    delay terms.  It made :data:`REFERENCES`."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        lam, tau, b = mpmath.mpf(lam), mpmath.mpf(tau), mpmath.mpf(b)
        t, beta = mpmath.sqrt(lam) * tau, b * mpmath.sqrt(lam)
        nu_c = mpmath.sqrt((beta**2 + mpmath.sqrt(beta**4 + 4)) / 2)

        def inv_h(nu):
            return 1 / ((1 - nu**2 * mpmath.cos(nu * t)) ** 2 + nu**2 * (beta - nu * mpmath.sin(nu * t)) ** 2)

        points = {mpmath.mpf(0), nu_c}
        points |= {nu_c * (1 + s * mpmath.mpf(2) ** -j) for j in range(1, 60) for s in (-1, 1)}
        lo, hi = min(nu_c, 1 / beta, 1) / 1000, 10000 * max(nu_c, beta, 1)
        while lo < hi:
            points.add(lo)
            lo *= 2
        if t > 0:
            step = mpmath.pi / t
            points |= {k * step for k in range(1, 400) if k * step < hi}
        points = sorted(points)
        total = mpmath.quad(inv_h, points) + mpmath.quad(inv_h, [points[-1], mpmath.inf])
        return total / mpmath.pi / lam ** mpmath.mpf(1.5)


# (lam, b, tau, f) with tau = (0.3, 0.9, 0.99) * critical_delay(lam, b) and f
# from mp_mode_integral, printed by
#   for lam in (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
#       for b in (0.3, 1.0, 3.0):
#           for frac in (0.3, 0.9, 0.99):
#               tau = frac * critical_delay(lam, b)
#               print((lam, b, tau, mpmath.nstr(mp_mode_integral(lam, tau, b), 17)))
# An mpmath (40-digit) expm-and-solve of the delay Lyapunov equation agrees
# with every value to better than 1e-17.
REFERENCES = [
    (0.0001, 0.3, 0.08999973000024299, 238095055.95228874),
    (0.0001, 0.3, 0.269999190000729, 1666664191.6568402),
    (0.0001, 0.3, 0.2969991090008019, 16666641669.048937),
    (0.0001, 1.0, 0.29999000010000465, 71427964.282300643),
    (0.0001, 1.0, 0.899970000300014, 499991749.63611144),
    (0.0001, 1.0, 0.9899670003300153, 4999916670.6387042),
    (0.0001, 3.0, 0.8997300243101521, 23807702.288924320),
    (0.0001, 3.0, 2.6991900729304565, 166641906.84413348),
    (0.0001, 3.0, 2.969109080223502, 1666416573.9370817),
    (0.01, 0.3, 0.08997300243101519, 23807.702288924320),
    (0.01, 0.3, 0.2699190072930456, 166641.90684413312),
    (0.01, 0.3, 0.29691090802235015, 1666416.5739370572),
    (0.01, 1.0, 0.29900100463327955, 7136.7823648744834),
    (0.01, 1.0, 0.8970030138998387, 49917.137244587411),
    (0.01, 1.0, 0.9867033152898226, 499162.40016535806),
    (0.01, 3.0, 0.873252957145249, 2362.6616485111673),
    (0.01, 3.0, 2.619758871435747, 16409.632016274189),
    (0.01, 3.0, 2.881734758579322, 164052.11853860712),
    (1.0, 0.3, 0.0873252957145249, 2.3626616485111675),
    (1.0, 0.3, 0.26197588714357467, 16.409632016274170),
    (1.0, 0.3, 0.2881734758579321, 164.05211853860456),
    (1.0, 1.0, 0.2133355946147379, 0.65581980458768015),
    (1.0, 1.0, 0.6400067838442137, 3.9614648422652971),
    (1.0, 1.0, 0.7040074622286351, 38.937824056765448),
    (1.0, 3.0, 0.1451974468736185, 0.17783549985178006),
    (1.0, 3.0, 0.43559234062085544, 0.38967935411313844),
    (1.0, 3.0, 0.479151574682941, 2.6038578433050651),
    (100.0, 0.3, 0.014519744687361847, 0.00017783549985178006),
    (100.0, 0.3, 0.04355923406208555, 0.00038967935411313855),
    (100.0, 0.3, 0.0479151574682941, 0.0026038578433050438),
    (100.0, 1.0, 0.00468215740129958, 5.0314945651976996e-5),
    (100.0, 1.0, 0.01404647220389874, 5.5880473817826983e-5),
    (100.0, 1.0, 0.015451119424288614, 0.00011353990757224771),
    (100.0, 3.0, 0.0015696842478875029, 1.6678363714927263e-5),
    (100.0, 3.0, 0.004709052743662509, 1.6883565165230583e-5),
    (100.0, 3.0, 0.005179958018028759, 1.9007559947303952e-5),
    (10000.0, 0.3, 0.00015696842478875027, 1.6678363714927264e-8),
    (10000.0, 0.3, 0.0004709052743662508, 1.6883565165230583e-8),
    (10000.0, 0.3, 0.0005179958018028759, 1.9007559947303925e-8),
    (10000.0, 1.0, 4.7120889568267446e-05, 5.0003159163796325e-9),
    (10000.0, 1.0, 0.00014136266870480235, 5.0058533876848877e-9),
    (10000.0, 1.0, 0.00015549893557528256, 5.0631645920937578e-9),
    (10000.0, 3.0, 1.5707852155868246e-05, 1.6666783675849021e-9),
    (10000.0, 3.0, 4.712355646760474e-05, 1.6668834494104243e-9),
    (10000.0, 3.0, 5.183591211436521e-05, 1.6690059668277361e-9),
    (1000000.0, 0.3, 1.5707852155868245e-06, 1.6666783675849021e-12),
    (1000000.0, 0.3, 4.712355646760474e-06, 1.6668834494104244e-12),
    (1000000.0, 0.3, 5.183591211436521e-06, 1.6690059668277361e-12),
    (1000000.0, 1.0, 4.7123859803823335e-07, 5.0000031592574896e-13),
    (1000000.0, 1.0, 1.4137157941147001e-06, 5.0000585310522241e-13),
    (1000000.0, 1.0, 1.55508737352617e-06, 5.0006316070748607e-13),
    (1000000.0, 3.0, 1.5707962156837756e-07, 1.6666667836762345e-13),
    (1000000.0, 3.0, 4.7123886470513273e-07, 1.6666688344824760e-13),
    (1000000.0, 3.0, 5.18362751175646e-07, 1.6666900595083688e-13),
]
# tau = 0, where f = 1 / (2 b lam^2) exactly.
REFERENCES += [(lam, b, 0.0, 1.0 / (2.0 * b * lam**2)) for lam in (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6) for b in (0.3, 1.0, 3.0)]


class TestDelayLyapunov:
    @pytest.mark.parametrize("lam,b,tau,want", REFERENCES)
    def test_matches_the_40_digit_references(self, lam, b, tau, want):
        # Every value is within 1e-13 relative, and its error estimate bounds
        # the actual error.  Asked for 1e-13 relative, a mode whose estimate
        # exceeds that is refused with the estimate named.
        got, err = (float(x[0]) for x in _f_and_error(np.array([lam]), tau, b))
        assert abs(got - want) <= min(err, 1e-13 * want)
        cfg = SecondOrderConfig(b=b, tau=tau, quad_tol=1e-13 * want)
        if err > cfg.quad_tol:
            with pytest.raises(SecondOrderStabilityError, match=f"error estimate {err:.3e}"):
                _f_per_eigenvalue(np.array([lam]), cfg)
        else:
            assert _f_per_eigenvalue(np.array([lam]), cfg)[0] == got

    def test_a_reference_reproduces(self):
        lam, b, tau, want = REFERENCES[0]
        assert float(mp_mode_integral(lam, tau, b)) == pytest.approx(want, rel=1e-16)

    @pytest.mark.parametrize("lam", [1e-3, 0.5, 2.0, 40.0, 1e4])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.9, 0.99, 0.999, 1.0 - 1e-6])
    def test_first_order_tie(self, lam, fraction):
        # With A0 = 0 and A1 = -lam the same solve is the first-order mode,
        # whose variance is K / 2 = cos(tau lam) / (2 lam (1 - sin(tau lam))):
        # within 1e-14 up to 0.9 tau_max, within the error estimate above.
        tau = fraction * math.pi / (2.0 * lam)
        u0, err = _delay_lyapunov(np.zeros((1, 1, 1)), np.full((1, 1, 1), -lam), np.array([tau]), np.eye(1))
        got, err, want = u0[0, 0, 0], err[0, 0, 0], 0.5 * mp_first_order_maps(tau, lam)[0]
        assert abs(got - want) <= err
        if fraction <= 0.9:
            assert abs(got - want) <= 1e-14 * want

    def test_heavy_edge_gives_the_closed_form(self):
        # lam = 2e6: the former quadrature returned 6.64e-19 per node here.
        gm = build_matrices(WeightedGraph(2, [(0, 1, 1e6)]))
        rep = so_node_centrality(gm, SecondOrderConfig(b=1.0))
        np.testing.assert_allclose(rep.indices, 6.25e-14, rtol=1e-15)
        np.testing.assert_allclose(rep.indices, so_zero_delay_closed_form(gm, 1.0), rtol=1e-15)

    def test_mode_near_the_crossing_delay_is_decided_at_once(self):
        # 1e-5 below tau_c(0.5, sqrt 3) = pi/3; the former quadrature spent
        # 7 s there and then gave up.
        eps, b = 1e-5, math.sqrt(3.0)
        tau = (1.0 - eps) * math.pi / 3
        start = time.perf_counter()
        with pytest.raises(SecondOrderStabilityError, match=r"marginal.*error estimate \d\.\d{3}e-05 exceeds quad_tol=1e-09"):
            f_integral(0.5, tau, b)
        assert f_integral(0.5, tau, b, quad_tol=1e-3) * eps == pytest.approx(0.763947, abs=1e-6)
        assert time.perf_counter() - start < 1.0


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
    def test_value_or_marginal_refusal_below_the_crossing_delay(self, lam, b, eps):
        # Below tau_c, f = c (1 + O(eps)) / eps.  Each eps > 0 gives a value
        # on that pole; at the default tolerance each delay gives the value or
        # a refusal as marginal, as its error estimate says, and tau_c itself
        # is refused.
        tau_c = critical_delay(lam, b)
        c = _f_and_error(np.array([lam]), (1.0 - 1e-9) * tau_c, b)[0][0] * 1e-9
        f, err = (float(x[0]) for x in _f_and_error(np.array([lam]), (1.0 - eps) * tau_c, b))
        if eps:
            assert abs(f * eps / c - 1.0) <= 20.0 * eps + 1e-6
        try:
            got = f_integral(lam, (1.0 - eps) * tau_c, b)
        except SecondOrderStabilityError as exc:
            assert "marginal" in str(exc) and not err <= 1e-9
        else:
            assert eps > 0 and got == f and err <= 1e-9


def test_only_the_oracles_name_anything_from_quadrature():
    # mode_integral is the quadrature's one importer in the package.
    skip = ("np", "annotations", "heapq", "itertools")
    names = [name for name in vars(quadrature) if not name.startswith("__") and name not in skip]
    for path in sorted(Path(quadrature.__file__).parent.glob("*.py")):
        if path.name in ("oracles.py", "quadrature.py", "__init__.py"):
            continue
        assert name_scopes(path, ["quadrature", *names]) == [], path.name
        imports = [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ImportFrom)]
        assert all(node.module != "quadrature" and "quadrature" not in [a.name for a in node.names] for node in imports)


def test_matrix_exponential_serves_only_the_delay_lyapunov_solve():
    callers = []
    for path in sorted(Path(secondorder.__file__).parent.glob("*.py")):
        callers += [f"{path.name}:{scope}" for scope in name_scopes(path, ["_expm"])]
    assert callers == ["secondorder.py:_delay_lyapunov"]
