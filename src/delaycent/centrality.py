"""Performance, node/link centrality, and link sensitivity of delayed consensus.

The network is ``dx/dt = -L x(t - tau) + B xi(t)`` with output deviation
``y = M_n x``.  Steady-state dispersion decomposes over noise channels as
``rho_ss = sum_i eta_i sigma_i^2`` (agent noise) or ``sum_e nu_e sigma_e^2``
(link noise); the eta/nu coefficients are the centrality indices computed
here, together with the per-link weight sensitivities kappa.

All quantities are spectral sums over the nonzero Laplacian eigenvalues of maps
of x = tau lam, chiefly the kernel ``g(lam) = cos x / (lam (1 - sin x))``, applied
by :func:`delaycent.spectral.kernel` in delta = pi/2 - x (relative error ~ eps x/delta).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from numbers import Real
from typing import Sequence

import numpy as np

from .graph import GraphMatrices, check_scale
from .report import CentralityReport, make_report
from .spectral import SpectralDecomposition, kernel, require_stable


class NoiseStructure(Enum):
    """Where white noise enters the network, by CLI name (the value).  The
    input matrix is I (dynamics), L (sensor), the degree diagonal (receiver),
    the adjacency (emitter), E W (comm-channel) or -E (measurement)."""

    DYNAMICS = "dynamics"
    SENSOR = "sensor"
    RECEIVER = "receiver"
    EMITTER = "emitter"
    COMM_CHANNEL = "comm-channel"
    MEASUREMENT = "measurement"

    @property
    def indexes_links(self) -> bool:
        return self is NoiseStructure.COMM_CHANNEL or self is NoiseStructure.MEASUREMENT

    @classmethod
    def from_name(cls, name: str) -> "NoiseStructure":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown noise structure {name!r}; expected one of: {valid}") from None


ALL_STRUCTURES = tuple(NoiseStructure)
DYNAMICS, SENSOR, RECEIVER, EMITTER, COMM_CHANNEL, MEASUREMENT = ALL_STRUCTURES


def input_matrix(gm: GraphMatrices, structure: NoiseStructure) -> np.ndarray:
    """The dense input matrix B of the structure (D, D - L or the incidence E:
    +1 at each edge's smaller endpoint, -1 at the larger), for the simulator
    and ``verify``; no index uses it."""
    if structure is DYNAMICS:
        return np.eye(gm.n)
    if structure is SENSOR:
        return gm.laplacian.copy()
    if structure is RECEIVER:
        return np.diag(gm.degrees)
    if structure is EMITTER:
        return np.diag(gm.degrees) - gm.laplacian
    b, e, g = np.zeros((gm.n, gm.num_edges)), np.arange(gm.num_edges), gm.graph
    b[g.i, e], b[g.j, e] = 1.0, -1.0
    return np.multiply(b, g.w, out=b) if structure is COMM_CHANNEL else np.negative(b, out=b)


def noise_channels(gm: GraphMatrices, structure: NoiseStructure) -> int:
    """Number of independent noise channels for this structure."""
    return gm.num_edges if structure.indexes_links else gm.n


def check_variances(variances, channels: int) -> np.ndarray:
    """``variances`` as a float vector of one finite, nonnegative real number
    per noise channel; anything else, a string or a boolean included, raises
    :class:`ValueError`."""
    entries = np.array(variances, dtype=object)
    bad = [x for x in entries.flat if isinstance(x, bool) or not isinstance(x, Real)]
    if bad:
        raise ValueError(f"variances must be numbers, got {bad[0]!r}")
    var = entries.astype(float)
    if var.shape != (channels,):
        raise ValueError(
            f"variance vector has shape {var.shape}; {channels} noise channels"
            f" need shape ({channels},)"
        )
    if not (np.isfinite(var).all() and (var >= 0).all()):
        raise ValueError("variances must be finite and nonnegative")
    return var


@dataclass(frozen=True)
class NoiseSpec:
    """A noise structure plus per-channel variances (defaults to all ones)."""

    structure: NoiseStructure
    variances: np.ndarray | None = None

    def resolve_variances(self, gm: GraphMatrices) -> np.ndarray:
        m = noise_channels(gm, self.structure)
        return np.ones(m) if self.variances is None else check_variances(self.variances, m)


def _delay_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cos x`` and ``1 / (1 - sin x)`` as ``sin delta`` and ``(1 + cos delta)
    / sin(delta)^2`` with ``delta = pi/2 - x``: no cancellation as x nears
    pi/2, and exactly 1 and 1 at x = 0."""
    delta = np.pi / 2 - x
    cos_x = np.sin(delta)
    return cos_x, (1.0 + np.cos(delta)) / cos_x**2


def centrality_kernel(dec: SpectralDecomposition, tau: float) -> np.ndarray:
    """Values of K = L^+ cos(tau L) (M_n - sin(tau L))^+ per mode, zero modes 0."""
    return kernel(dec, lambda lam: np.multiply(*_delay_terms(tau * lam)) / lam)


def performance(gm: GraphMatrices, spec: NoiseSpec, tau: float) -> float:
    """Steady-state dispersion ``rho_ss = sigma^2 . eta`` (``sigma^2 . nu`` for
    link noise) of a connected, stable configuration, with the indices of
    :func:`centrality_report`; variances are checked before the delay."""
    var = spec.resolve_variances(gm)
    dec = gm.spectrum
    require_stable(dec, tau)
    return float(_modal_power(gm, dec, spec.structure, [centrality_kernel(dec, tau)], 1.0)[0] @ var)


# Bytes per gathered block of the link modal power: under glibc's initial
# 128 KiB mmap threshold, so a block is heap memory, not a fresh mapping.
_EDGE_BLOCK_BYTES = 120_000


def _edge_rows(modes: int) -> int:
    """Edges per block of the link modal power: as many as keep ``modes``
    doubles per edge within ``_EDGE_BLOCK_BYTES``, at least one, and a
    multiple of 4 where that fits (OpenBLAS ``gemv`` takes rows in fours, so
    then the indices do not depend on the block size down to the last bit)."""
    rows = _EDGE_BLOCK_BYTES // (8 * max(modes, 1))
    return rows - rows % 4 if rows >= 4 else max(rows, 1)


def _modal_power(
    gm: GraphMatrices, dec: SpectralDecomposition, structure: NoiseStructure, gs: list, alpha: float
) -> np.ndarray:
    """The indices ``(1/2) s^2 (Q^T B)^2 g`` over the nonzero modes for each
    vector g of kernel values in ``gs``: one row per g, one column per noise
    channel, with every weight scaled by ``alpha``.  The channel scale s is
    ``alpha w_e`` for the communication channel and 1 otherwise.  No dense
    B is built: column i of ``Q^T B`` is row i of Q times 1, lam, d_i or
    d_i - lam (A = D - L), and a link column is ``q_i - q_j`` up to s,
    squared :func:`_edge_rows` edges at a time (each gather under 128 KiB)
    with one product per g per block."""
    q = dec.eigenvectors[:, dec.zero_mode_count :]
    gs = [g[dec.zero_mode_count :] for g in gs]
    if structure.indexes_links:
        out = np.empty((len(gs), gm.num_edges))
        block = _edge_rows(q.shape[1])
        for start in range(0, gm.num_edges, block):
            rows = slice(start, start + block)
            d = q[gm.graph.i[rows]]
            d -= q[gm.graph.j[rows]]
            d *= d
            for k, g in enumerate(gs):
                out[k, rows] = d @ g
        s = alpha * gm.graph.w if structure is COMM_CHANNEL else 1.0
        return 0.5 * s**2 * out
    lam = dec.nonzero_eigenvalues()
    degrees = alpha * gm.degrees[:, None]
    if structure is DYNAMICS:
        power = q**2
    elif structure is SENSOR:
        power = (q * lam) ** 2
    elif structure is RECEIVER:
        power = (degrees * q) ** 2
    else:
        power = (q * (degrees - lam)) ** 2
    return 0.5 * np.array([power @ g for g in gs])


def _reports(
    gm: GraphMatrices,
    dec: SpectralDecomposition,
    structure: NoiseStructure,
    taus: Sequence[float],
    alpha: float = 1.0,
) -> list[CentralityReport]:
    """Centrality at each delay from one decomposition ``dec`` of the graph
    with every weight scaled by ``alpha``; all delays are checked first, and
    link noise on a graph with no edge is refused: it has nothing to rank."""
    infos = [require_stable(dec, t) for t in taus]
    if structure.indexes_links and not gm.num_edges:
        raise ValueError(f"graph has no edge to rank for {structure.value} noise")
    indices = _modal_power(gm, dec, structure, [centrality_kernel(dec, t) for t in taus], alpha)
    return [
        make_report(t, structure.value, x, info.tau_max, info.margin)
        for t, x, info in zip(taus, indices, infos)
    ]


def node_centrality(gm: GraphMatrices, structure: NoiseStructure, tau: float) -> CentralityReport:
    """Per-agent centrality eta for an agent-indexed noise structure."""
    if structure.indexes_links:
        raise ValueError(
            f"node centrality needs an agent-indexed structure, got {structure.value}"
        )
    return _reports(gm, gm.spectrum, structure, [tau])[0]


def link_centrality(gm: GraphMatrices, structure: NoiseStructure, tau: float) -> CentralityReport:
    """Per-link centrality nu for a link-indexed noise structure."""
    if not structure.indexes_links:
        raise ValueError(
            f"link centrality needs a link-indexed structure, got {structure.value}"
        )
    return _reports(gm, gm.spectrum, structure, [tau])[0]


def centrality_report(gm: GraphMatrices, structure: NoiseStructure, tau: float) -> CentralityReport:
    """Dispatch to node or link centrality based on what the structure indexes."""
    if structure.indexes_links:
        return link_centrality(gm, structure, tau)
    return node_centrality(gm, structure, tau)


def link_sensitivity(gm: GraphMatrices, structure: NoiseStructure, tau: float) -> np.ndarray:
    """Per-link weight sensitivities kappa_e = d rho_ss / d w_e (unit variances).

    Supported for the dynamics and sensor structures, where closed forms
    exist; the sensor map accounts for B = L itself changing with the
    weight.
    """
    dec = gm.spectrum
    require_stable(dec, tau)
    dynamics = structure is DYNAMICS
    if not dynamics and structure is not SENSOR:
        raise ValueError(
            f"link sensitivity is defined for dynamics and sensor noise, got {structure.value}"
        )

    def g(lam):
        cos_x, inv = _delay_terms(tau * lam)
        return (tau * lam - cos_x) * inv / lam**2 if dynamics else (tau * lam + cos_x) * inv

    # Measurement rows of (Q^T B)^2 are the bare (q_i - q_j)^2 of each edge.
    return _modal_power(gm, dec, MEASUREMENT, [kernel(dec, g)], 1.0)[0]


# Rows per block of the pairwise flip test: its boolean mask is block x m.
_FLIP_BLOCK = 256


def _flip_keys(a: CentralityReport, b: CentralityReport) -> np.ndarray:
    """The flips from report ``a`` to ``b`` as sorted keys
    ``2 (m min(i, j) + max(i, j)) + [i > j]``, one per pair with ``i`` strictly
    ahead of ``j`` in ``a`` and strictly behind it in ``b``.  ``_FLIP_BLOCK``
    rows ``i`` are tested at a time against every column ``j``."""
    x, y = a.indices, b.indices
    x_tol, y_tol = x + a.rank_tol(), y + b.rank_tol()
    m = x.size
    blocks = []
    for start in range(0, m, _FLIP_BLOCK):
        rows = slice(start, start + _FLIP_BLOCK)
        ahead = x[rows, None] > x_tol
        ahead &= y > y_tol[rows, None]
        i, j = divmod(np.flatnonzero(ahead), m)
        i += start
        blocks.append(2 * (m * np.minimum(i, j) + np.maximum(i, j)) + (i > j))
    keys = np.concatenate(blocks)
    keys.sort()
    return keys


def _rank_flips(reports: Sequence[CentralityReport]) -> np.ndarray:
    """Strict-order reversals between neighboring reports as an ``(F, 3)``
    intp array of rows ``(k, i, j)``: ``x_i > x_j + tol`` at report k and
    the reverse, beyond its own tolerance, at report k + 1.  Rows are
    ordered by k, then by the pair ``(min, max)``.  Until the output is
    filled, each step holds only its keys from :func:`_flip_keys`."""
    steps = [_flip_keys(a, b) for a, b in zip(reports, reports[1:])]
    flips = np.empty((sum(map(len, steps)), 3), dtype=np.intp)
    end = 0
    for k in range(len(steps)):
        keys, steps[k] = steps[k], None  # a decoded step frees its keys
        start, end = end, end + len(keys)
        flips[start:end, 0] = k
        lead, trail = flips[start:end, 1], flips[start:end, 2]
        np.divmod(keys, 2 * reports[k].size, out=(lead, trail))  # min, 2 max + [i > j]
        later = np.bitwise_and(trail, 1, out=keys).astype(bool)
        trail >>= 1
        # Where the later id leads, swap: min + d and max - d, d = max - min.
        d = np.subtract(trail, lead, out=keys)
        d *= later
        lead += d
        trail -= d
    return flips


@dataclass(frozen=True)
class TauSweepResult:
    """Reports along a delay grid plus the rank flips between neighbors.

    Each flip is a row ``(k, i, j)`` of the ``(F, 3)`` intp array
    ``rank_changes``: id ``i`` strictly precedes ``j`` at ``taus[k]`` and
    strictly trails it at ``taus[k+1]`` (ties do not count as flips in
    either direction).
    """

    taus: tuple[float, ...]
    reports: list[CentralityReport]
    rank_changes: np.ndarray


def tau_sweep(gm: GraphMatrices, structure: NoiseStructure, taus: Sequence[float]) -> TauSweepResult:
    """Evaluate centrality along a delay grid and log rank inversions.

    One decomposition serves the whole grid; each point equals
    :func:`centrality_report` at that delay exactly."""
    taus = tuple(float(t) for t in taus)
    if not taus:
        raise ValueError("delay grid is empty")
    reports = _reports(gm, gm.spectrum, structure, taus)
    return TauSweepResult(taus=taus, reports=reports, rank_changes=_rank_flips(reports))


@dataclass(frozen=True)
class ScaleSweepResult:
    """Reports for uniformly rescaled weights, compared against the
    delay-free ranking of the unscaled graph."""

    alphas: tuple[float, ...]
    reports: list[CentralityReport]
    baseline: CentralityReport
    matches_baseline: list[bool]


def scale_sweep(
    gm: GraphMatrices, structure: NoiseStructure, tau: float, alphas: Sequence[float]
) -> ScaleSweepResult:
    """Evaluate centrality with all weights scaled by each alpha at fixed tau.

    Scaling keeps the eigenvectors and maps lam to alpha * lam, so the
    unscaled decomposition serves every alpha."""
    alphas = tuple(check_scale(a) for a in alphas)
    if not alphas:
        raise ValueError("scale grid is empty")
    dec = gm.spectrum
    baseline = _reports(gm, dec, structure, [0.0])[0]
    reports = [
        _reports(gm, replace(dec, eigenvalues=alpha * dec.eigenvalues), structure, [tau], alpha)[0]
        for alpha in alphas
    ]
    matches = [r.ranking == baseline.ranking for r in reports]
    return ScaleSweepResult(
        alphas=alphas, reports=reports, baseline=baseline, matches_baseline=matches
    )


@dataclass(frozen=True)
class AdversarialAllocation:
    """Worst-case fixed-power noise assignment and the dispersion it causes."""

    variances: np.ndarray
    worst_rho: float
    node: int


def adversarial_allocation(
    gm: GraphMatrices, structure: NoiseStructure, tau: float
) -> AdversarialAllocation:
    """Concentrate a total noise power of n on a maximally central agent.

    Under the budget ``sum sigma_i^2 = n`` the dispersion is maximized by
    putting all power on an agent of maximal centrality, so the worst value
    is ``n * max_i eta_i``.
    """
    if structure.indexes_links:
        raise ValueError(f"adversarial allocation needs an agent structure, got {structure.value}")
    report = node_centrality(gm, structure, tau)
    k = int(np.argmax(report.indices))
    n = gm.n
    variances = np.zeros(n)
    variances[k] = float(n)
    worst_rho = float(n * report.indices[k])
    return AdversarialAllocation(variances=variances, worst_rho=worst_rho, node=k)
