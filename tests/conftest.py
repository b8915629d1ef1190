import ast
import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from delaycent import EMITTER, WeightedGraph, build_matrices, input_matrix, is_connected, node_centrality
from delaycent import oracles, parse_edge_list, quadrature, simulate
from delaycent.centrality import centrality_kernel
from delaycent.cli import remap_node_ids
from delaycent.graph import tokenize_edge_lines
from delaycent.report import RANK_TOL_FACTOR

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_graph(name):
    """The graph of ``fixtures/<name>.edges`` as the CLI reads it: sparse raw
    ids (sparse9w) remapped onto a connected graph over 0..n-1."""
    declared_n, records = tokenize_edge_lines((FIXTURES / f"{name}.edges").read_text())
    return remap_node_ids(records, declared_n)[0]


def graph_from_edges(n, pairs, weight=1.0):
    return WeightedGraph(n=n, edges=tuple((i, j, weight) for i, j in pairs))


def path_graph(n, weight=1.0):
    return graph_from_edges(n, [(k, k + 1) for k in range(n - 1)], weight)


def cycle_graph(n, weight=1.0):
    pairs = [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)]
    return graph_from_edges(n, pairs, weight)


def complete_graph(n, weight=1.0):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)], weight)


def star_graph(n, weight=1.0):
    return graph_from_edges(n, [(0, k) for k in range(1, n)], weight)


def random_connected_graph(rng, n, p=0.45, weight_range=(0.5, 2.0)):
    """Erdos-Renyi-style connected graph with random weights; retries until connected."""
    while True:
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, float(rng.uniform(*weight_range))))
        if not edges:
            continue
        g = WeightedGraph(n=n, edges=tuple(edges))
        if is_connected(g):
            return g


def ring_chord_graph(n, seed, mean_degree=8, weight_range=(0.5, 2.0)):
    """Ring plus uniformly random chords up to ``mean_degree``, random weights."""
    rng = np.random.default_rng([seed, n])
    pairs = {(k, k + 1) for k in range(n - 1)} | {(0, n - 1)}
    while len(pairs) < min(n * mean_degree // 2, n * (n - 1) // 2):
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    weights = rng.uniform(*weight_range, len(pairs)).tolist()
    return WeightedGraph(n=n, edges=tuple((i, j, w) for (i, j), w in zip(sorted(pairs), weights)))


def dense_reference(g):
    """The dense matrices the graph layer once stored, built by its per-edge
    loop: adjacency A, incidence E (+1 at the smaller endpoint), weight
    diagonal W, degree diagonal D and the Laplacian D - A.  The oracle for
    the array-backed layer and for ``input_matrix``."""
    n, m = g.n, g.num_edges
    adjacency = np.zeros((n, n))
    incidence = np.zeros((n, m))
    for e, (i, j, w) in enumerate(g.edges):
        adjacency[i, j] = adjacency[j, i] = w
        incidence[i, e] = 1.0
        incidence[j, e] = -1.0
    degree_diag = np.diag(adjacency.sum(axis=1))
    return {
        "adjacency": adjacency,
        "incidence": incidence,
        "weight_diag": np.diag(g.w) if m else np.zeros((0, 0)),
        "degree_diag": degree_diag,
        "laplacian": degree_diag - adjacency,
    }


def reference_input_matrix(g, name):
    """B of a built-in structure as it was built from :func:`dense_reference`."""
    ref = dense_reference(g)
    return {
        "dynamics": lambda: np.eye(g.n),
        "sensor": lambda: ref["laplacian"].copy(),
        "receiver": lambda: ref["degree_diag"].copy(),
        "emitter": lambda: ref["adjacency"].copy(),
        "comm-channel": lambda: ref["incidence"] * g.w,
        "measurement": lambda: -ref["incidence"],
    }[name]()


def dense_indices(gm, structure, tau):
    """The indices ``(1/2) K (Q^T B)^2`` over all modes with the dense B of
    :func:`reference_input_matrix`, the channel scale s inside B: the oracle
    for the gathered edge blocks of the link indices."""
    dec = gm.spectrum
    power = (dec.eigenvectors.T @ reference_input_matrix(gm.graph, structure.value)) ** 2
    return 0.5 * centrality_kernel(dec, tau) @ power


def dense_performance(gm, structure, var, tau):
    """The dispersion as ``(1/2) sum_k [Q^T B diag(sigma^2) B^T Q]_kk K_k``
    with the dense B of :func:`reference_input_matrix`.  The oracle for
    ``performance`` and for ``rho = sigma^2 . eta``, independent of the
    index contraction."""
    return float(dense_indices(gm, structure, tau) @ np.asarray(var, dtype=float))


class EmitterDiagnostic(NamedTuple):
    """Side-by-side of two emitter-centrality expressions.

    ``generic`` is (1/2) diag(B^T K B) with B the adjacency matrix, the
    form that satisfies the performance decomposition identity (verified by
    tests against finite differences and Monte Carlo).  The tempting
    single-matrix shortcut diag((D^2 L^+ - D + L) cos(tau L)(M_n -
    sin(tau L))^+)/2, obtained by rearranging the quadratic form as if the
    diagonal were cyclic-shift invariant, carries half the coefficient on
    its middle term; the gap is exactly ``(d_i / 2) [cos(tau L)(M_n -
    sin(tau L))^+]_ii`` per node, so the two differ entrywise and in trace
    whenever stable dynamics exist.
    """

    generic: np.ndarray
    simplified_display: np.ndarray
    max_abs_diff: float


def emitter_display_diagnostic(gm, tau):
    """The emitter index next to the simplified display of :class:`EmitterDiagnostic`."""
    dec = gm.spectrum
    generic = node_centrality(gm, EMITTER, tau).indices
    degrees = gm.degrees
    q2 = dec.eigenvectors**2  # diag(Q diag(v) Q^T) = Q^2 v
    k = centrality_kernel(dec, tau)
    c = k * dec.eigenvalues  # K L
    lc = c * dec.eigenvalues  # L^2 K
    simplified = 0.5 * (degrees**2 * (q2 @ k) - degrees * (q2 @ c) + q2 @ lc)
    return EmitterDiagnostic(
        generic=generic,
        simplified_display=simplified,
        max_abs_diff=float(np.max(np.abs(generic - simplified))),
    )


def so_zero_delay_closed_form(gm, b):
    """Delay-free second-order centrality ``(1/(2b)) diag((L^2)^+)``, as a
    modal sum over the nonzero modes."""
    dec = gm.spectrum
    lam = dec.nonzero_eigenvalues()
    q = dec.eigenvectors[:, 1:]
    return (q**2) @ (1.0 / (2.0 * b * lam**2))


def assemble(dec, values):
    """Q diag(values) Q^T, symmetrized to kill last-ulp rounding asymmetry:
    the dense kernel matrix that the package contracts away.  The oracle for
    kernel values and modal contractions."""
    q = dec.eigenvectors
    m = (q * values) @ q.T
    return 0.5 * (m + m.T)


def mp_first_order_maps(tau, lam):
    """``K = cos x / (lam (1 - sin x))``, ``kappa_dyn = (x - cos x) / (lam^2
    (1 - sin x))`` and ``kappa_sens = (x + cos x) / (1 - sin x)`` of one mode,
    x = tau lam, in 50-digit arithmetic at the given floats and rounded to
    floats.  The reference for the delta form near the stability boundary."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        t, lm = mpmath.mpf(tau), mpmath.mpf(lam)
        x = t * lm
        cos_x, inv = mpmath.cos(x), 1 / (1 - mpmath.sin(x))
        return float(cos_x * inv / lm), float((x - cos_x) * inv / lm**2), float((x + cos_x) * inv)


class _NameScopes(ast.NodeVisitor):
    """The dotted scope (``Class.method``) of every use of one of ``names``,
    bare (``decompose(...)``) or as an attribute (``np.sin``)."""

    def __init__(self, names):
        self.names, self.scope, self.found = names, [], []

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Name(self, node):
        if node.id in self.names:
            self.found.append(".".join(self.scope))

    def visit_Attribute(self, node):
        if node.attr in self.names:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def name_scopes(path, names):
    """The dotted scope of every use of one of ``names`` in the module at
    ``path``, in source order: the oracle of the single-site ``ast`` guards."""
    visitor = _NameScopes(set(names))
    visitor.visit(ast.parse(Path(path).read_text()))
    return visitor.found


class _TextScopes(_NameScopes):
    """The dotted scope of every string literal that holds one of ``names``."""

    def visit_Constant(self, node):
        if isinstance(node.value, str) and any(text in node.value for text in self.names):
            self.found.append(".".join(self.scope))


def text_scopes(path, fragments):
    """The dotted scope of every string literal (docstrings and f-string
    parts included) in the module at ``path`` that holds one of
    ``fragments``, in source order."""
    visitor = _TextScopes(set(fragments))
    visitor.visit(ast.parse(Path(path).read_text()))
    return visitor.found


def centering_matrix(n):
    """I - (1/n) * ones; projects out the network average."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def edge_quadratic_form(matrix, e):
    """``M_ii + M_jj - 2 M_ij`` for the endpoints of an edge: the effective
    resistance for the Laplacian pseudoinverse, the per-link quadratic form
    of the link formulas for a delay kernel."""
    i, j = int(e[0]), int(e[1])
    n = matrix.shape[0]
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"invalid edge ({i}, {j}) for a {n}-node matrix")
    return float(matrix[i, i] + matrix[j, j] - 2.0 * matrix[i, j])


def reference_rank_with_ties(indices):
    """The former ``rank_with_ties``: a Python sort by ``(-value, id)`` and a
    chain of neighbors closer than the tolerance.  The oracle for the
    vectorized ranking."""
    values = np.asarray(indices, dtype=float)
    tol = RANK_TOL_FACTOR * float(np.max(np.abs(values)))
    order = sorted(range(values.size), key=lambda k: (-values[k], k))
    groups = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if values[prev] - values[cur] < tol:
            groups[-1].append(cur)
        else:
            groups.append([cur])
    ranking, tie_groups = [], []
    for group in groups:
        group.sort()
        ranking.extend(group)
        if len(group) > 1:
            tie_groups.append(tuple(group))
    return tuple(ranking), tuple(tie_groups)


def reference_integrate_adaptive(f, a, b, abs_tol, max_panels=65536):
    """The first ``integrate_adaptive``: a plain panel list, one integrand
    call (two ``ddot``) per panel, the first worst panel split per pass and
    the error estimate re-summed each pass.  Returns the value and the panel
    count.  The oracle for the heap of ``quadrature.integrate_adaptive``."""
    kronrod_w, gauss_w = (np.ascontiguousarray(w) for w in quadrature._RULES.T)

    def gk15(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        fx = np.asarray(f(mid + half * quadrature._NODES), dtype=float)
        k15 = half * float(kronrod_w @ fx)
        return k15, abs(k15 - half * float(gauss_w @ fx))

    panels = [(a, b, *gk15(a, b))]
    while sum(p[3] for p in panels) > abs_tol:
        if len(panels) >= max_panels:
            raise quadrature.QuadratureError(
                f"refinement budget of {max_panels} panels exhausted"
                f" (error estimate {sum(p[3] for p in panels):.3e} > {abs_tol:.3e})"
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        pa, pb, _, _ = panels.pop(worst)
        pm = 0.5 * (pa + pb)
        panels += [(pa, pm, *gk15(pa, pm)), (pm, pb, *gk15(pm, pb))]
    panels.sort(key=lambda p: p[0])
    value = 0.0
    for p in panels:  # left to right, uncompensated
        value += p[2]
    return value, len(panels)


def stepwise_euler_maruyama(cfg, n_state, n_channels, mix_noise, step_fn, observe_rows):
    """The former Euler-Maruyama loop: one Python step per time step, the
    delayed state read from a ring buffer of d+1 slots, noise mixed by
    ``mix_noise`` one chunk of ``oracles._chunk_steps`` steps at a time.
    The oracle for the stepping of the blocked loop of :mod:`delaycent.oracles`;
    each chunk is measured by the same ``oracles._measure``, which
    ``test_oracles.TestMeasure`` checks on its own."""
    dt = cfg.dt
    d = cfg.delay_steps
    burn_steps = int(round(cfg.burn_in / dt))
    meas_steps = int(round(cfg.horizon / dt))
    total_steps = burn_steps + meas_steps
    n_traj = cfg.n_traj
    gens = oracles._trajectory_generators(cfg.seed, n_traj)
    sqrt_dt = math.sqrt(dt)

    history = np.zeros((d + 1, n_state, n_traj))
    state = history[0]
    n_obs = len(range(*observe_rows.indices(n_state)))
    sum_sq = np.zeros((n_obs, n_traj))

    chunk_steps = oracles._chunk_steps(max(n_state, n_channels), n_traj, d)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while step < total_steps:
            chunk = min(chunk_steps, total_steps - step)
            z = np.empty((chunk, n_channels, n_traj))
            for t, gen in enumerate(gens):
                z[:, :, t] = gen.standard_normal((chunk, n_channels))
            forcing = mix_noise(z * sqrt_dt)
            recorded = np.empty((chunk, n_obs, n_traj))
            for s in range(chunk):
                slot = (step + 1) % (d + 1)
                delayed = history[slot]  # holds the state d steps back (0 pre-history)
                state = step_fn(state, delayed, forcing[s])
                history[slot] = state
                recorded[s] = state[observe_rows]
                step += 1
            oracles._check_finite(state, step)
            first_measured = max(0, burn_steps - (step - chunk))
            if first_measured < chunk:
                y = recorded[first_measured:]
                oracles._measure(y, sum_sq, np.empty((len(y), n_traj)), np.empty_like(y))
    return oracles._finish(sum_sq, meas_steps, cfg)


class McNodeCentrality(NamedTuple):
    """Monte Carlo estimate of per-channel centralities, one run per channel."""

    eta_hat: np.ndarray
    std_err: np.ndarray


def mc_node_centrality(gm, structure, tau, cfg):
    """Estimate each channel's centrality as its dispersion alone.

    The dispersion is linear in the variances, ``rho = sum_i eta_i sigma_i^2``,
    so ``eta_i`` is the dispersion when channel ``i`` alone carries unit
    noise: one :func:`delaycent.simulate` run on input column ``i``, with no
    cross term from the other channels.  The ``tau`` argument replaces
    ``cfg.tau``.
    """
    cfg = replace(cfg, tau=tau)
    b = input_matrix(gm, structure)
    runs = [simulate(gm, b[:, [i]], np.ones(1), cfg) for i in range(b.shape[1])]
    return McNodeCentrality(
        eta_hat=np.array([r.rho_hat for r in runs]),
        std_err=np.array([r.std_err for r in runs]),
    )


def stepwise_simulate(gm, b, variances, cfg):
    """:func:`delaycent.simulate` on :func:`stepwise_euler_maruyama`, with
    the former ``einsum`` noise mix."""
    lap = gm.laplacian
    b = np.asarray(b, dtype=float)
    b_sigma = b * np.sqrt(np.asarray(variances, dtype=float))[None, :]
    return stepwise_euler_maruyama(
        cfg,
        n_state=gm.n,
        n_channels=b.shape[1],
        mix_noise=lambda z: np.einsum("nm,smt->snt", b_sigma, z),
        step_fn=lambda x, x_del, forcing: x - cfg.dt * (lap @ x_del) + forcing,
        observe_rows=slice(0, gm.n),
    )


def stepwise_simulate_second_order(gm, b_gain, variances, cfg):
    """:func:`delaycent.simulate_second_order` on :func:`stepwise_euler_maruyama`."""
    lap = gm.laplacian
    n = gm.n
    sigma = np.sqrt(np.asarray(variances, dtype=float))

    def mix_noise(z):
        forcing = np.zeros((z.shape[0], 2 * n, z.shape[2]))
        forcing[:, n:, :] = sigma[None, :, None] * z
        return forcing

    def step(state, state_del, forcing):
        new = np.empty_like(state)
        new[:n] = state[:n] + cfg.dt * state[n:]
        new[n:] = (
            state[n:]
            - cfg.dt * (lap @ state_del[:n] + b_gain * (lap @ state_del[n:]))
            + forcing[n:]
        )
        return new

    return stepwise_euler_maruyama(
        cfg, n_state=2 * n, n_channels=n, mix_noise=mix_noise, step_fn=step,
        observe_rows=slice(0, n),
    )


@pytest.fixture
def k2():
    return build_matrices(parse_edge_list("0 1"))


@pytest.fixture
def p3():
    return build_matrices(path_graph(3))


@pytest.fixture
def triangle():
    return build_matrices(complete_graph(3))


@pytest.fixture
def triangle_123():
    return build_matrices(
        WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)))
    )


@pytest.fixture
def c4():
    return build_matrices(cycle_graph(4))


@pytest.fixture
def star5():
    return build_matrices(star_graph(5))


@pytest.fixture
def path8():
    return build_matrices(path_graph(8))


@pytest.fixture
def shared_neighbors():
    """Nodes 0 and 1 share the neighbor set {2, 3} and are not adjacent,
    so the swap (0 1) is a graph automorphism."""
    return build_matrices(graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))


@pytest.fixture
def ring_chord100():
    """m = 400 edges: full blocks of the link contraction (148 edges each at
    n = 100) and a partial one."""
    return build_matrices(ring_chord_graph(100, 5))


@pytest.fixture
def ex1_graph():
    return build_matrices(parse_edge_list((FIXTURES / "ex1_8n20e.edges").read_text()))


class _CountRuleScopes(_NameScopes):
    """The dotted scope of every ordering comparison against ``<expr> - 1``."""

    def visit_Compare(self, node):
        ordering = not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if ordering and any(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Sub) and getattr(side.right, "value", None) == 1
            for side in (node.left, *node.comparators)
        ):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def count_rule_scopes(path):
    """The dotted scope of every comparison such as ``m < n - 1`` in the
    module at ``path``, in source order."""
    visitor = _CountRuleScopes(set())
    visitor.visit(ast.parse(Path(path).read_text()))
    return visitor.found
