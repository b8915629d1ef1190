import math
import tracemalloc

import numpy as np
import pytest

from delaycent import (
    ALL_STRUCTURES,
    COMM_CHANNEL,
    DYNAMICS,
    MEASUREMENT,
    SENSOR,
    NoiseSpec,
    SimConfig,
    SimulationError,
    StabilityError,
    build_matrices,
    input_matrix,
    link_centrality,
    mode_integral,
    node_centrality,
    performance,
    simulate,
    simulate_second_order,
)
from delaycent import oracles
from delaycent.centrality import noise_channels

import conftest
from conftest import (
    mc_node_centrality,
    name_scopes,
    random_connected_graph,
    ring_chord_graph,
    so_zero_delay_closed_form,
    stepwise_simulate,
    stepwise_simulate_second_order,
)


def closed_form_mode(lam: float, tau: float) -> float:
    return math.cos(lam * tau) / (2.0 * lam * (1.0 - math.sin(lam * tau)))


class TestModeIntegral:
    def test_no_delay(self):
        assert mode_integral(2.0, 0.0) == pytest.approx(0.25, rel=1e-8)

    def test_pi_eighth(self):
        assert mode_integral(2.0, math.pi / 8) == pytest.approx(
            closed_form_mode(2.0, math.pi / 8), rel=1e-7
        )

    def test_moderate_delay(self):
        assert mode_integral(1.0, 0.4) == pytest.approx(
            closed_form_mode(1.0, 0.4), rel=1e-7
        )

    def test_agreement_over_stability_region(self):
        rng = np.random.default_rng(79)
        for _ in range(15):
            lam = float(rng.uniform(0.2, 15.0))
            tau = float(rng.uniform(0.0, 0.95)) * math.pi / 2 / lam
            got = mode_integral(lam, tau, eps_q=1e-9)
            assert got == pytest.approx(closed_form_mode(lam, tau), rel=1e-6)

    def test_divergent_configuration_rejected(self):
        with pytest.raises(StabilityError):
            mode_integral(2.0, math.pi / 4)

    def test_invalid_eigenvalue(self):
        with pytest.raises(ValueError):
            mode_integral(-1.0, 0.0)

    @pytest.mark.parametrize("tau", [-0.1, math.nan, math.inf])
    def test_invalid_delay(self, tau):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mode_integral(1.0, tau)


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig(tau=0.2)
        assert cfg.delay_steps == 200
        assert cfg.tau_snapped == pytest.approx(0.2)

    def test_dt_must_resolve_delay(self):
        with pytest.raises(ValueError, match="tau/20"):
            SimConfig(tau=0.01, dt=1e-3)

    def test_snapping_tolerance_enforced(self):
        # tau = 20.4 dt rounds to 20 dt: 1.96% off, beyond the 0.5% budget.
        with pytest.raises(ValueError, match="0.5%"):
            SimConfig(tau=0.0204, dt=1e-3)

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            SimConfig(tau=0.0, dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(tau=0.0, burn_in=0.0)
        with pytest.raises(ValueError):
            SimConfig(tau=0.0, n_traj=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_refused(self, seed):
        # Each would alias a seed in range: -1 as 2**64 - 1, 2**64 + 5 as 5.
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            SimConfig(tau=0.0, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        assert SimConfig(tau=0.0, seed=seed).seed == seed

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("n_traj", 2.5), ("seed", np.float64(3.0)), ("n_traj", np.float64(3.0))],
    )
    def test_non_integer_counts_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(tau=0.0, **{field: value})

    @pytest.mark.parametrize("value", [7, np.int64(7)])
    def test_integer_counts_kept_as_int(self, p3, value):
        cfg = SimConfig(tau=0.0, dt=5e-3, burn_in=1.0, horizon=1.0, n_traj=value, seed=value)
        assert (cfg.seed, cfg.n_traj) == (7, 7) and type(cfg.seed) is type(cfg.n_traj) is int
        # A numpy seed would overflow the generator key (t << 64) | seed.
        assert simulate(p3, np.eye(3), np.ones(3), cfg).config.seed == 7

    @pytest.mark.parametrize("horizon", [4e-4, 5e-4])
    def test_horizon_must_exceed_half_a_step(self, horizon):
        # round(horizon / dt) measured steps: none at or under half a step.
        with pytest.raises(ValueError, match=rf"horizon={horizon:g} .*dt=0\.001"):
            SimConfig(tau=0.0, horizon=horizon)
        assert SimConfig(tau=0.0, horizon=6e-4).horizon == 6e-4

    @pytest.mark.parametrize("tau", [-0.1, math.nan, math.inf])
    def test_delay_must_be_finite_and_nonnegative(self, tau):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SimConfig(tau=tau)


class TestSimulate:
    def test_zero_noise_zero_dispersion(self, p3):
        cfg = SimConfig(tau=0.1, dt=5e-3, burn_in=1.0, horizon=5.0, n_traj=2, seed=1)
        res = simulate(p3, input_matrix(p3, DYNAMICS), np.zeros(3), cfg)
        assert res.rho_hat == 0.0
        assert res.std_err == 0.0

    def test_deterministic_given_seed(self, k2):
        cfg = SimConfig(tau=0.1, dt=5e-3, burn_in=2.0, horizon=20.0, n_traj=4, seed=42)
        a = simulate(k2, np.eye(2), np.ones(2), cfg)
        b = simulate(k2, np.eye(2), np.ones(2), cfg)
        assert a.rho_hat == b.rho_hat
        assert (a.per_node_var == b.per_node_var).all()
        assert (a.per_traj_mean == b.per_traj_mean).all()

    def test_trajectory_streams_independent_of_count(self, k2):
        base = dict(tau=0.0, dt=5e-3, burn_in=2.0, horizon=20.0, seed=9)
        few = simulate(k2, np.eye(2), np.ones(2), SimConfig(n_traj=3, **base))
        many = simulate(k2, np.eye(2), np.ones(2), SimConfig(n_traj=6, **base))
        np.testing.assert_array_equal(few.per_traj_mean, many.per_traj_mean[:3])

    def test_seeds_in_one_block_draw_different_streams(self, k2):
        # 12 and 13 lie in one aligned block of 4 seeds; no trajectory of
        # one seed may share its stream with a trajectory of the other.
        base = dict(tau=0.0, dt=5e-3, burn_in=2.0, horizon=20.0, n_traj=4)
        a = simulate(k2, np.eye(2), np.ones(2), SimConfig(seed=12, **base))
        b = simulate(k2, np.eye(2), np.ones(2), SimConfig(seed=13, **base))
        assert np.intersect1d(a.per_traj_mean, b.per_traj_mean).size == 0
        assert a.rho_hat != pytest.approx(b.rho_hat, rel=1e-6)

    def test_rho_is_sum_of_node_variances(self, p3):
        cfg = SimConfig(tau=0.0, dt=5e-3, burn_in=2.0, horizon=30.0, n_traj=4, seed=5)
        res = simulate(p3, input_matrix(p3, SENSOR), np.ones(3), cfg)
        assert res.rho_hat == pytest.approx(float(res.per_node_var.sum()), abs=1e-12)
        assert res.effective_samples == res.config.n_traj * round(cfg.horizon / cfg.dt)

    def test_tau_snapped_recorded(self, k2):
        cfg = SimConfig(tau=0.10003, dt=5e-3, burn_in=2.0, horizon=10.0, n_traj=2, seed=3)
        res = simulate(k2, np.eye(2), np.ones(2), cfg)
        assert res.tau_snapped == pytest.approx(0.1)

    def test_unstable_tau_rejected(self, k2):
        cfg = SimConfig(tau=0.8, dt=5e-3, burn_in=1.0, horizon=5.0, n_traj=2, seed=1)
        with pytest.raises(StabilityError):
            simulate(k2, np.eye(2), np.ones(2), cfg)

    def test_unstable_snapped_tau_rejected(self, k2):
        # The requested delay is stable, but the run would use the delay
        # snapped to the step grid, 200 dt, which lies past tau_max = pi/4.
        tau = math.pi / 4 * (1 - 1e-3)
        cfg = SimConfig(tau=tau, dt=tau / 199.6, burn_in=1.0, horizon=5.0, n_traj=2, seed=1)
        assert cfg.tau_snapped > math.pi / 4
        with pytest.raises(StabilityError, match=r"delay tau=0\.786185 ") as exc:
            simulate(k2, np.eye(2), np.ones(2), cfg)
        assert exc.value.tau == cfg.tau_snapped

    def test_divergence_detected(self, k2):
        # Stable continuous system, but dt beyond the explicit-Euler limit.
        cfg = SimConfig(tau=0.0, dt=1.5, burn_in=15.0, horizon=150.0, n_traj=2, seed=1)
        with pytest.raises(SimulationError, match="unstable"):
            simulate(k2, np.eye(2), np.ones(2), cfg)

    def test_input_validation(self, k2):
        cfg = SimConfig(tau=0.0, dt=5e-3, burn_in=1.0, horizon=5.0, n_traj=2, seed=1)
        with pytest.raises(ValueError, match="rows"):
            simulate(k2, np.eye(3), np.ones(3), cfg)
        with pytest.raises(ValueError, match="channels"):
            simulate(k2, np.eye(2), np.ones(3), cfg)
        with pytest.raises(ValueError, match="nonnegative"):
            simulate(k2, np.eye(2), np.array([1.0, -1.0]), cfg)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate(k2, np.eye(2), np.array([1.0, np.nan]), cfg)
        with pytest.raises(ValueError, match="channels"):
            simulate_second_order(k2, 1.0, np.ones(3), cfg)
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                simulate_second_order(k2, 1.0, np.array([1.0, bad]), cfg)

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3, 1)])
    def test_input_must_be_a_matrix(self, p3, shape):
        # The simulator is the one entry that takes an arbitrary B.
        cfg = SimConfig(tau=0.0, dt=5e-3, burn_in=1.0, horizon=5.0, n_traj=2, seed=1)
        with pytest.raises(ValueError, match="2-D with 3 rows"):
            simulate(p3, np.ones(shape), np.ones(3), cfg)

    def test_matches_closed_form_k2(self, k2):
        cfg = SimConfig(tau=0.2, dt=2e-3, burn_in=20.0, horizon=150.0, n_traj=16, seed=101)
        res = simulate(k2, np.eye(2), np.ones(2), cfg)
        closed = performance(k2, NoiseSpec(DYNAMICS), 0.2)
        assert abs(res.rho_hat - closed) <= 3.0 * res.std_err

    def test_dt_refinement_bias_within_noise(self, k2):
        shared = dict(tau=0.2, burn_in=20.0, horizon=150.0, n_traj=16, seed=77)
        coarse = simulate(k2, np.eye(2), np.ones(2), SimConfig(dt=4e-3, **shared))
        fine = simulate(k2, np.eye(2), np.ones(2), SimConfig(dt=2e-3, **shared))
        tol = 2.0 * math.hypot(coarse.std_err, fine.std_err)
        assert abs(coarse.rho_hat - fine.rho_hat) < tol


class TestOracleAgreementAllStructures:
    def test_default_budget_random_graph(self):
        rng = np.random.default_rng(83)
        gm = build_matrices(random_connected_graph(rng, 4, p=0.6))
        lam_max = float(np.linalg.eigvalsh(gm.laplacian)[-1])
        tau = 0.3 * math.pi / (2 * lam_max)
        for structure in ALL_STRUCTURES:
            cfg = SimConfig(tau=tau, seed=201)
            var = np.ones(noise_channels(gm, structure))
            res = simulate(gm, input_matrix(gm, structure), var, cfg)
            closed = performance(gm, NoiseSpec(structure), tau)
            assert abs(res.rho_hat - closed) <= 3.0 * res.std_err, structure.value
            assert res.std_err <= 0.05 * closed, structure.value


class TestMeasure:
    """``oracles._measure`` against ``math.fsum`` of explicit squared deviations."""

    @staticmethod
    def explicit(y):
        """The (node, trajectory) table of ``sum_s (y[s,i,t] - mean_i y[s,i,t])^2``."""
        k, n, n_traj = y.shape
        table = np.empty((n, n_traj))
        for t in range(n_traj):
            means = [math.fsum(y[s, :, t]) / n for s in range(k)]
            for i in range(n):
                table[i, t] = math.fsum((y[s, i, t] - means[s]) ** 2 for s in range(k))
        return table

    @staticmethod
    def measured(chunks, n, n_traj, capacity):
        sum_sq = np.zeros((n, n_traj))
        centres, scratch = np.empty((capacity, n_traj)), np.empty((capacity, n, n_traj))
        for y in chunks:
            oracles._measure(y, sum_sq, centres, scratch)
        return sum_sq

    def assert_totals(self, got, y):
        want = self.explicit(y)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        for axis in (0, 1):
            totals = [math.fsum(v) for v in np.moveaxis(want, axis, -1)]
            np.testing.assert_allclose(got.sum(axis=axis), totals, rtol=1e-14, atol=0)

    def test_single_trajectory(self):
        y = np.random.default_rng(3).normal(1.0, 2.0, size=(37, 5, 1))
        self.assert_totals(self.measured([y], 5, 1, 40), y)

    def test_strided_position_view(self):
        # Second-order states stack positions over velocities; only the
        # positions are measured, through a view with the full row stride.
        hist = np.random.default_rng(5).normal(size=(50, 8, 3))
        y = hist[7:40, :4]
        assert not y.flags.c_contiguous
        self.assert_totals(self.measured([y], 4, 3, 33), y)

    def test_two_chunks_add_up(self):
        y = np.random.default_rng(7).normal(-0.5, 1.5, size=(45, 6, 4))
        self.assert_totals(self.measured([y[:30], y[30:]], 6, 4, 30), y)

    def test_trajectory_means_average_to_rho_hat(self, p3):
        cfg = SimConfig(tau=0.02, dt=1e-3, burn_in=0.5, horizon=4.0, n_traj=5, seed=23)
        res = simulate(p3, np.eye(3), np.array([1.0, 0.5, 2.0]), cfg)
        assert float(np.mean(res.per_traj_mean)) == pytest.approx(res.rho_hat, rel=1e-13)

    def test_squared_deviations_summed_only_in_the_helper(self):
        # Both loops reach the step sums through _measure, so the stepwise
        # oracle below checks the same measurement and only the stepping.
        assert name_scopes(oracles.__file__, ["sum", "mean", "einsum"]) == [
            "_finish", "_finish", "_finish", "_measure", "_measure",
        ]
        assert name_scopes(oracles.__file__, ["_measure"]) == ["_run_euler_maruyama"]
        assert name_scopes(conftest.__file__, ["_measure"]) == ["stepwise_euler_maruyama"]
        assert "stepwise_euler_maruyama" not in name_scopes(conftest.__file__, ["sum", "mean", "einsum"])


class TestBlockedLoopMatchesStepwise:
    """The method of steps against the former one-step-at-a-time loop
    (:func:`conftest.stepwise_euler_maruyama`)."""

    # Blocks of d+1 = 2 and 64 steps divide the 4096-step chunk, 21 does
    # not; a 7-step chunk is not divided by 2 and is shorter than 21 and 64.
    DELAYS = (0, 1, 20, 63)

    @staticmethod
    def config(d, monkeypatch, n_traj=3):
        # d = 1 needs dt > tau/20, which SimConfig refuses; the loop must be
        # exact at any d, so the check is lifted here.
        monkeypatch.setattr(SimConfig, "__post_init__", lambda self: None)
        dt = 1e-3
        return SimConfig(tau=d * dt, dt=dt, burn_in=0.5, horizon=4.0, n_traj=n_traj, seed=17)

    @staticmethod
    def assert_identical(got, want):
        for field in ("rho_hat", "std_err", "per_node_var", "per_traj_mean"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    @pytest.fixture(params=[None, 7], ids=["chunk4096", "chunk7"])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(oracles, "_NOISE_CHUNK", request.param)

    @pytest.mark.parametrize("n_traj", [3, 1])
    @pytest.mark.parametrize("d", DELAYS)
    def test_first_order_identity_input(self, p3, d, n_traj, chunk, monkeypatch):
        cfg = self.config(d, monkeypatch, n_traj)
        var = np.array([1.0, 0.5, 2.0])
        got = simulate(p3, np.eye(3), var, cfg)
        self.assert_identical(got, stepwise_simulate(p3, np.eye(3), var, cfg))

    @pytest.mark.parametrize("d", DELAYS)
    def test_second_order(self, p3, d, chunk, monkeypatch):
        cfg = self.config(d, monkeypatch)
        var = np.array([1.0, 0.5, 2.0])
        got = simulate_second_order(p3, 0.7, var, cfg)
        self.assert_identical(got, stepwise_simulate_second_order(p3, 0.7, var, cfg))

    @pytest.mark.parametrize("structure", [SENSOR, COMM_CHANNEL], ids=lambda s: s.value)
    @pytest.mark.parametrize("d", [0, 20])
    def test_mixed_input(self, structure, d, monkeypatch):
        # A dense B: the GEMM noise mix sums each row in another order than
        # the former einsum, which moves the last bits at this size.
        gm = build_matrices(ring_chord_graph(24, 3, mean_degree=4))
        cfg = self.config(d, monkeypatch)
        b = input_matrix(gm, structure)
        var = np.linspace(0.5, 1.5, b.shape[1])
        got = simulate(gm, b, var, cfg)
        want = stepwise_simulate(gm, b, var, cfg)
        for field in ("rho_hat", "std_err", "per_node_var", "per_traj_mean"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=1e-12)


class TestWorkingSet:
    """A run holds a chunk of about ``_CHUNK_BYTES`` per array plus the
    d+1-state history, whatever the graph size and the horizon."""

    def test_peak_is_the_chunk_budget_plus_the_history(self):
        n, n_traj, d = 100, 32, 20
        gm = build_matrices(ring_chord_graph(n, 5, mean_degree=4))
        tau = 0.5 * math.pi / (2 * float(np.linalg.eigvalsh(gm.laplacian)[-1]))
        dt = tau / d
        cfg = SimConfig(tau=tau, dt=dt, burn_in=200 * dt, horizon=800 * dt, n_traj=n_traj, seed=5)
        b, var = np.eye(n), np.ones(n)
        tracemalloc.start()
        try:
            simulate(gm, b, var, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Four chunk-sized arrays (draws, noise, forcing, new states), and
        # the history with twice its size in method-of-steps rows.
        history = (d + 1) * n * n_traj * 8
        assert peak <= 5 * oracles._CHUNK_BYTES + 3 * history

    # p3 with d = 20: a chunk of d+1 steps (the floor under any budget), of
    # 34 steps (no multiple of 21), and of 13 (a cap below the floor).
    @pytest.mark.parametrize("steps, cap, want", [(1, None, 21), (34, None, 34), (1, 13, 13)])
    @pytest.mark.parametrize("second_order", [False, True], ids=["first", "second"])
    def test_chunk_length_moves_only_the_sum_grouping(self, p3, second_order, steps, cap, want, monkeypatch):
        cfg = SimConfig(tau=0.02, dt=1e-3, burn_in=0.5, horizon=4.0, n_traj=3, seed=17)
        var = np.array([1.0, 0.5, 2.0])
        run = (lambda: simulate_second_order(p3, 0.7, var, cfg)) if second_order else (
            lambda: simulate(p3, np.eye(3), var, cfg))
        default = run()
        rows = 6 if second_order else 3
        monkeypatch.setattr(oracles, "_CHUNK_BYTES", steps * 8 * rows * cfg.n_traj)
        if cap is not None:
            monkeypatch.setattr(oracles, "_NOISE_CHUNK", cap)
        assert oracles._chunk_steps(rows, cfg.n_traj, cfg.delay_steps) == want
        got = run()
        for field in ("rho_hat", "std_err", "per_node_var", "per_traj_mean"):
            np.testing.assert_allclose(getattr(got, field), getattr(default, field), rtol=1e-12)


class TestMcNodeCentrality:
    CFG = dict(dt=2e-3, burn_in=20.0, horizon=120.0, n_traj=16, seed=11)

    def test_config_delay_replaced_by_argument(self, k2):
        fast = dict(self.CFG, burn_in=1.0, horizon=4.0, n_traj=3)
        got = mc_node_centrality(k2, DYNAMICS, 0.0, SimConfig(tau=0.2, **fast))
        want = mc_node_centrality(k2, DYNAMICS, 0.0, SimConfig(tau=0.0, **fast))
        np.testing.assert_array_equal(got.eta_hat, want.eta_hat)
        np.testing.assert_array_equal(got.std_err, want.std_err)

    def test_k2_dynamics(self, k2):
        mc = mc_node_centrality(k2, DYNAMICS, 0.0, SimConfig(tau=0.0, **self.CFG))
        np.testing.assert_array_less(np.abs(mc.eta_hat - 0.125), 3.0 * mc.std_err)

    def test_p3_dynamics(self, p3):
        mc = mc_node_centrality(p3, DYNAMICS, 0.0, SimConfig(tau=0.0, **self.CFG))
        expected = np.array([5 / 18, 1 / 9, 5 / 18])
        np.testing.assert_array_less(np.abs(mc.eta_hat - expected), 3.0 * mc.std_err)

    def test_k2_sensor(self, k2):
        mc = mc_node_centrality(k2, SENSOR, 0.0, SimConfig(tau=0.0, **self.CFG))
        np.testing.assert_array_less(np.abs(mc.eta_hat - 0.5), 3.0 * mc.std_err)

    @pytest.mark.parametrize("structure", [DYNAMICS, MEASUREMENT], ids=lambda s: s.value)
    def test_p3_at_half_the_delay_bound(self, p3, structure):
        # About half of tau_max, on the step grid, so the closed form and the
        # run see the same delay.
        dt = self.CFG["dt"]
        lam_max = float(np.linalg.eigvalsh(p3.laplacian)[-1])
        tau = dt * round(0.5 * math.pi / (2 * lam_max) / dt)
        mc = mc_node_centrality(p3, structure, tau, SimConfig(tau=tau, **self.CFG))
        closed_form = link_centrality if structure.indexes_links else node_centrality
        expected = closed_form(p3, structure, tau).indices
        np.testing.assert_array_less(np.abs(mc.eta_hat - expected), 3.0 * mc.std_err)

    def test_each_index_is_the_channel_alone(self, p3):
        cfg = SimConfig(tau=0.1, **dict(self.CFG, burn_in=1.0, horizon=4.0, n_traj=3))
        mc = mc_node_centrality(p3, SENSOR, 0.1, cfg)
        b = input_matrix(p3, SENSOR)
        for i in range(b.shape[1]):
            alone = simulate(p3, b[:, [i]], np.ones(1), cfg)
            assert mc.eta_hat[i] == alone.rho_hat and mc.std_err[i] == alone.std_err


class TestSecondOrderOracle:
    def test_reproduces_second_order_centrality(self, p3):
        cfg = SimConfig(tau=0.0, dt=5e-4, burn_in=40.0, horizon=250.0, n_traj=24, seed=301)
        res = simulate_second_order(p3, 1.0, np.ones(3), cfg)
        eta = so_zero_delay_closed_form(p3, 1.0)
        # Per-node variances are the centrality indices for identity noise.
        per_node_err = 3.0 * res.std_err  # conservative bound per node
        assert np.max(np.abs(res.per_node_var - eta)) <= per_node_err
        assert abs(res.rho_hat - eta.sum()) <= 3.0 * res.std_err

    def test_reproduces_delayed_quadrature_values(self, p3):
        # End-to-end check of the tau > 0 frequency integrals: per-node
        # position variances from the delayed simulation match the
        # quadrature-built indices.
        from delaycent import SecondOrderConfig, so_node_centrality

        tau = 0.1
        cfg = SimConfig(tau=tau, dt=1e-3, burn_in=40.0, horizon=250.0, n_traj=24, seed=307)
        res = simulate_second_order(p3, 1.0, np.ones(3), cfg)
        rep = so_node_centrality(p3, SecondOrderConfig(b=1.0, tau=tau))
        assert np.max(np.abs(res.per_node_var - rep.indices)) <= 3.0 * res.std_err
        assert abs(res.rho_hat - rep.indices.sum()) <= 3.0 * res.std_err

    def test_invalid_gain(self, p3):
        cfg = SimConfig(tau=0.0, dt=5e-3, burn_in=1.0, horizon=5.0, n_traj=2, seed=1)
        with pytest.raises(ValueError):
            simulate_second_order(p3, 0.0, np.ones(3), cfg)
