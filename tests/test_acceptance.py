"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its stated tolerance.  Run with ``pytest -v -s``.
"""

import math
import time

import numpy as np
import pytest

from delaycent import (
    ALL_STRUCTURES,
    COMM_CHANNEL,
    DYNAMICS,
    EMITTER,
    MEASUREMENT,
    RECEIVER,
    SENSOR,
    NoiseSpec,
    SecondOrderConfig,
    SimConfig,
    adversarial_allocation,
    build_matrices,
    decompose,
    input_matrix,
    link_centrality,
    link_sensitivity,
    mode_integral,
    node_centrality,
    performance,
    scale_sweep,
    simulate,
    so_node_centrality,
    tau_sweep,
)
from delaycent.centrality import centrality_kernel, centrality_report, noise_channels

from conftest import (
    assemble,
    complete_graph,
    cycle_graph,
    dense_performance,
    emitter_display_diagnostic,
    path_graph,
    random_connected_graph,
    so_zero_delay_closed_form,
    star_graph,
)
from test_centrality import fd_kappa


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPT-{criterion:02d} {verdict}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def tau_max_of(gm) -> float:
    dec = decompose(gm.laplacian, require_connected=True)
    return math.pi / (2.0 * dec.lambda_max)


def test_criterion_01_per_mode_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        lam = float(rng.uniform(0.2, 20.0))
        tau = float(rng.uniform(0.0, 0.95)) * math.pi / 2.0 / lam
        got = mode_integral(lam, tau, eps_q=1e-9)
        want = math.cos(lam * tau) / (2.0 * lam * (1.0 - math.sin(lam * tau)))
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-6 and elapsed < 5.0,
        f"mode integral vs closed form on 50 pairs: worst rel err {worst:.2e}"
        f" (tol 1e-6), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_decomposition_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        gm = build_matrices(random_connected_graph(rng, int(rng.integers(3, 13))))
        tau_max = tau_max_of(gm)
        for tau in (0.0, 0.4 * tau_max, 0.85 * tau_max):
            for structure in ALL_STRUCTURES:
                var = rng.uniform(0.0, 2.0, noise_channels(gm, structure))
                rho = dense_performance(gm, structure, var, tau)
                rep = centrality_report(gm, structure, tau)
                err = abs(rho - float(rep.indices @ var))
                worst = max(worst, err / rho if rho else err)
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-10 and elapsed < 10.0,
        f"dense rho_ss = sum(index * sigma^2) on 20 graphs x 6 structures x 3 taus:"
        f" worst rel err {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_03_monte_carlo_agreement():
    start = time.perf_counter()
    graphs = {
        "K2": build_matrices(path_graph(2)),
        "P3": build_matrices(path_graph(3)),
    }
    worst_z = 0.0
    worst_rel_se = 0.0
    for name, gm in graphs.items():
        tau_max = tau_max_of(gm)
        for structure in (DYNAMICS, SENSOR):
            for frac in (0.0, 0.2, 0.6):
                tau = frac * tau_max
                cfg = SimConfig(tau=tau, seed=103)
                var = np.ones(noise_channels(gm, structure))
                res = simulate(gm, input_matrix(gm, structure), var, cfg)
                closed = performance(gm, NoiseSpec(structure), tau)
                z = abs(res.rho_hat - closed) / res.std_err
                rel_se = res.std_err / closed
                worst_z = max(worst_z, z)
                worst_rel_se = max(worst_rel_se, rel_se)
    elapsed = time.perf_counter() - start
    report(
        3,
        worst_z <= 3.0 and worst_rel_se <= 0.05 and elapsed < 120.0,
        f"Euler-Maruyama vs closed form on K2/P3 x dynamics,sensor x 3 taus:"
        f" worst |z| {worst_z:.2f} (<= 3), worst rel std err {worst_rel_se:.2%}"
        f" (<= 5%), {elapsed:.1f}s (< 120s)",
    )


def test_criterion_04_sensitivity_vs_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        gm = build_matrices(g)
        tau = 0.3 * tau_max_of(gm)
        for structure in (DYNAMICS, SENSOR):
            kappa = link_sensitivity(gm, structure, tau)
            fd = fd_kappa(g, structure, tau)
            worst = max(worst, float(np.max(np.abs(kappa - fd) / np.abs(fd))))
    elapsed = time.perf_counter() - start
    report(
        4,
        worst <= 1e-4 and elapsed < 10.0,
        f"kappa vs central differences on 10 graphs x dynamics,sensor:"
        f" worst rel err {worst:.2e} (tol 1e-4), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_05_monotonicity_in_delay():
    rng = np.random.default_rng(105)
    for _ in range(10):
        gm = build_matrices(random_connected_graph(rng, int(rng.integers(3, 9))))
        grid = np.linspace(0.0, 0.9 * tau_max_of(gm), 20)
        for structure in ALL_STRUCTURES:
            prev = None
            for tau in grid:
                idx = centrality_report(gm, structure, tau).indices
                if prev is not None and not (idx > prev).all():
                    report(5, False, f"indices not increasing for {structure.value}")
                prev = idx
    report(5, True, "eta/nu strictly increase along 20-point tau grids on 10 graphs x 6 structures")


def test_criterion_06_scaling_invariance():
    rng = np.random.default_rng(106)
    gm = build_matrices(random_connected_graph(rng, 8))
    alphas = (0.1, 1.0, 10.0)
    exponents = {
        DYNAMICS: -1.0,
        MEASUREMENT: -1.0,
        SENSOR: 1.0,
        RECEIVER: 1.0,
        EMITTER: 1.0,
        COMM_CHANNEL: 1.0,
    }
    worst = 0.0
    for structure, power in exponents.items():
        sweep = scale_sweep(gm, structure, 0.0, alphas)
        if not all(sweep.matches_baseline):
            report(6, False, f"tau=0 ranking changed under scaling for {structure.value}")
        ref = sweep.reports[1].indices  # alpha = 1
        for alpha, rep in zip(alphas, sweep.reports):
            expected = ref * alpha**power
            worst = max(worst, float(np.max(np.abs(rep.indices - expected) / expected)))
    ten = build_matrices(random_connected_graph(np.random.default_rng(1066), 10, p=0.3))
    tau = 0.6 * tau_max_of(ten)
    small = scale_sweep(ten, DYNAMICS, tau, [1e-3])
    report(
        6,
        worst <= 1e-9 and small.matches_baseline == [True],
        f"tau=0 rankings invariant with index scaling exponents (worst rel err"
        f" {worst:.2e}, tol 1e-9); alpha=1e-3 at tau>0 recovers the delay-free"
        f" ranking on a 10-node fixture",
    )


def test_criterion_07_rank_inversion_on_path():
    # KNOWN RED, kept as stated.  The end/center crossover on the unit P8
    # path with dynamics noise happens at ~0.952 tau_max (verified against
    # an independent pinv + Taylor-series evaluation agreeing to 1e-14), so
    # at the stipulated 0.9 tau_max the end nodes still lead and no flip
    # can be logged.  The inversion itself is real and is demonstrated at
    # 0.97 tau_max by the supplementary test below.
    gm = build_matrices(path_graph(8))
    tau_max = tau_max_of(gm)
    sweep = tau_sweep(gm, DYNAMICS, [0.0, 0.9 * tau_max])
    first, last = sweep.reports
    ends, centers = (0, 7), (3, 4)
    ends_lead = all(first.indices[e] > first.indices[c] for e in ends for c in centers)
    center_leads = all(last.indices[c] > last.indices[e] for e in ends for c in centers)
    flipped = len(sweep.rank_changes) >= 1
    report(
        7,
        ends_lead and center_leads and flipped,
        f"P8 dynamics at 0.9 tau_max: end index {last.indices[0]:.4f} vs center"
        f" index {last.indices[3]:.4f} (center must lead; measured crossover is"
        f" at ~0.952 tau_max), {len(sweep.rank_changes)} rank flips logged",
    )


def test_supplementary_07_rank_inversion_reproduces_near_boundary():
    """The phenomenon behind criterion 7, evaluated inside its actual window:
    ends lead without delay, the center leads at 0.97 tau_max, flips logged."""
    gm = build_matrices(path_graph(8))
    tau_max = tau_max_of(gm)
    sweep = tau_sweep(gm, DYNAMICS, [0.0, 0.97 * tau_max])
    first, last = sweep.reports
    ends, centers = (0, 7), (3, 4)
    assert all(first.indices[e] > first.indices[c] for e in ends for c in centers)
    assert all(last.indices[c] > last.indices[e] for e in ends for c in centers)
    assert len(sweep.rank_changes) >= 1
    print(
        "ACCEPT-07-SUPPLEMENT PASS: P8 inversion reproduced at 0.97 tau_max"
        f" ({len(sweep.rank_changes)} flips logged)"
    )


def test_criterion_08_structure_propositions():
    ok = True
    details = []
    for name, gm in (("C6", build_matrices(cycle_graph(6))),
                     ("K5", build_matrices(complete_graph(5)))):
        tau = 0.5 * tau_max_of(gm)
        for structure in (DYNAMICS, SENSOR, RECEIVER, EMITTER):
            eta = node_centrality(gm, structure, tau).indices
            ok &= float(np.max(np.abs(eta - eta[0]))) <= 1e-10
        for structure in (COMM_CHANNEL, MEASUREMENT):
            nu = link_centrality(gm, structure, tau).indices
            ok &= float(np.max(np.abs(nu - nu[0]))) <= 1e-10
        details.append(f"{name}: all eta equal, all nu equal")
    star = build_matrices(star_graph(5))
    nu = link_centrality(star, MEASUREMENT, 0.0).indices
    star_ok = bool(np.max(np.abs(nu - 0.5)) <= 1e-10)
    ok &= star_ok
    details.append(
        "unit star S5 measurement nu_e = 0.5 each (derived value; the often-quoted"
        " uniform-tree constant 1/w remains an open discrepancy: direct"
        " evaluation gives 1/(2w))"
    )
    report(8, ok, "; ".join(details))


def test_criterion_09_second_order_corollary():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(10):
        gm = build_matrices(random_connected_graph(rng, int(rng.integers(3, 9))))
        for b in (0.5, 1.0, 2.0):
            rep = so_node_centrality(gm, SecondOrderConfig(b=b, quad_tol=1e-9))
            closed = so_zero_delay_closed_form(gm, b)
            worst = max(worst, float(np.max(np.abs(rep.indices - closed))))
    k2 = build_matrices(path_graph(2))
    k2_val = so_node_centrality(k2, SecondOrderConfig(b=1.0)).indices
    k2_ok = bool(np.max(np.abs(k2_val - 0.0625)) <= 1e-7)
    elapsed = time.perf_counter() - start
    report(
        9,
        worst <= 1e-7 and k2_ok and elapsed < 30.0,
        f"second-order delay-Lyapunov values vs (1/2b) diag((L^2)^+) on 10 graphs x 3 gains:"
        f" worst abs err {worst:.2e} (tol 1e-7); K2 value 0.0625; {elapsed:.2f}s (< 30s)",
    )


def test_criterion_10_adversarial_allocation():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(10):
        gm = build_matrices(random_connected_graph(rng, int(rng.integers(3, 10))))
        tau = 0.4 * tau_max_of(gm)
        result = adversarial_allocation(gm, DYNAMICS, tau)
        eta = node_centrality(gm, DYNAMICS, tau).indices
        expected = gm.n * float(eta.max())
        check = dense_performance(gm, DYNAMICS, result.variances, tau)
        worst = max(
            worst,
            abs(result.worst_rho - expected) / expected,
            abs(result.worst_rho - check) / check,
        )
    report(
        10,
        worst <= 1e-10,
        f"worst-case rho = n * max eta = dense rho(sigma*) on 10 graphs:"
        f" worst rel err {worst:.2e} (tol 1e-10)",
    )


def test_criterion_11_emitter_cross_check():
    rng = np.random.default_rng(111)
    worst = 0.0
    max_gap = 0.0
    for _ in range(8):
        gm = build_matrices(random_connected_graph(rng, int(rng.integers(3, 9))))
        tau = 0.4 * tau_max_of(gm)
        rep = node_centrality(gm, EMITTER, tau)
        dec = decompose(gm.laplacian, require_connected=True)
        degrees = gm.degrees
        k = assemble(dec, centrality_kernel(dec, tau))
        kl = k @ gm.laplacian
        l2k = gm.laplacian @ gm.laplacian @ k
        hand = 0.5 * (degrees**2 * np.diag(k) - 2 * degrees * np.diag(kl) + np.diag(l2k))
        worst = max(worst, float(np.max(np.abs(rep.indices - hand))))
        diag = emitter_display_diagnostic(gm, tau)
        max_gap = max(max_gap, diag.max_abs_diff)
    report(
        11,
        worst <= 1e-10,
        f"emitter generic form equals per-mode hand formula (worst abs err"
        f" {worst:.2e}, tol 1e-10); the single-matrix simplified display differs by up to"
        f" {max_gap:.3g} across fixtures (documented discrepancy, not a failure)",
    )
