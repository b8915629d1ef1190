"""Eigendecomposition of graph Laplacians and spectral matrix functions.

Every formula in this package is diagonal in the Laplacian eigenbasis, so
matrix functions (cos, sin, pseudoinverses, composite kernels) are realized
by applying a scalar map to the eigenvalues and reassembling.  For the
symmetric PSD matrices we deal with this is exact up to eigensolver error;
no series summation or rational approximation is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# Relative threshold below which an eigenvalue counts as a zero mode; the
# same relative rule defines which kernel values are invertible.  Relative
# (not absolute) so that uniform weight scaling does not change mode counts.
ZERO_REL_TOL = 1e-9

# A delay is only accepted as stable if it clears the boundary by this much.
STABILITY_SLACK = 1e-9


class SpectralError(ValueError):
    """Input matrix violates the symmetric-PSD contract."""


class DisconnectedGraphError(SpectralError):
    """Operation requires a connected graph (exactly one zero mode)."""


class StabilityError(ValueError):
    """Requested delay is at or beyond the stability boundary."""

    def __init__(self, tau: float, tau_max: float):
        self.tau = tau
        self.tau_max = tau_max
        super().__init__(
            f"delay tau={tau:.6g} is not inside the stability region"
            f" (tau_max={tau_max:.6g})"
        )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a symmetric PSD matrix, eigenvalues ascending.

    Eigenvalues within ``ZERO_REL_TOL * max(1, lambda_max)`` of zero are
    clamped to exactly 0 and counted in ``zero_mode_count``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_mode_count: int

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def nonzero_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.zero_mode_count :]


@dataclass(frozen=True)
class SpectralKernel:
    """A scalar map applied to nonzero eigenvalues, zero pinned on zero modes.

    ``matrix`` is ``Q diag(values) Q^T``, assembled on first use; it is symmetric,
    annihilates the consensus direction, and commutes with the decomposed matrix.
    """

    decomposition: SpectralDecomposition
    values: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        return _assemble(self.decomposition.eigenvectors, self.values)

    def pinv(self) -> "SpectralKernel":
        """Spectral pseudoinverse: reciprocal where the kernel value is
        resolvably nonzero (same relative threshold as zero-mode clamping),
        zero otherwise."""
        scale = max(1.0, float(np.max(np.abs(self.values)))) if self.values.size else 1.0
        inv = np.zeros_like(self.values)
        mask = np.abs(self.values) > ZERO_REL_TOL * scale
        inv[mask] = 1.0 / self.values[mask]
        return SpectralKernel(self.decomposition, inv)


def decompose(matrix: np.ndarray, require_connected: bool = False) -> SpectralDecomposition:
    """Symmetric eigendecomposition with zero-mode clamping.

    Rejects matrices with asymmetry above 1e-10 or eigenvalues below the
    (relative) PSD tolerance.  With ``require_connected`` the decomposition
    must have exactly one zero mode.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SpectralError(f"expected a square matrix, got shape {matrix.shape}")
    asym = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
    if asym > 1e-10:
        raise SpectralError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    lam_max = max(float(eigenvalues[-1]), 0.0)
    tol = ZERO_REL_TOL * max(1.0, lam_max)
    if eigenvalues[0] < -tol:
        raise SpectralError(
            f"matrix is not positive semidefinite (lambda_min={eigenvalues[0]:.3e})"
        )
    clamped = np.where(np.abs(eigenvalues) < tol, 0.0, eigenvalues)
    zero_modes = int(np.count_nonzero(clamped == 0.0))
    dec = SpectralDecomposition(
        eigenvalues=clamped, eigenvectors=eigenvectors, zero_mode_count=zero_modes
    )
    if require_connected and zero_modes != 1:
        raise DisconnectedGraphError(
            f"expected exactly one zero mode, found {zero_modes}: graph is disconnected"
        )
    return dec


def _assemble(q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Q diag(values) Q^T, symmetrized to kill last-ulp rounding asymmetry."""
    m = (q * values) @ q.T
    return 0.5 * (m + m.T)


def kernel(dec: SpectralDecomposition, g: Callable[[np.ndarray], np.ndarray]) -> SpectralKernel:
    """Apply scalar map ``g`` to the nonzero eigenvalues; zero modes pinned to 0."""
    values = np.zeros(dec.n)
    nz = dec.nonzero_eigenvalues()
    if nz.size:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mapped = np.asarray(g(nz), dtype=float)
        if mapped.shape != nz.shape:
            raise SpectralError(
                f"kernel map returned shape {mapped.shape}, expected {nz.shape}"
            )
        bad = ~np.isfinite(mapped)
        if bad.any():
            lam = float(nz[np.argmax(bad)])
            raise SpectralError(f"kernel map is not finite at eigenvalue {lam:.6g}")
        values[dec.zero_mode_count :] = mapped
    return SpectralKernel(dec, values)


def matrix_function(dec: SpectralDecomposition, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Matrix function over the full spectrum (zero modes included)."""
    values = np.asarray(g(dec.eigenvalues), dtype=float)
    if not np.isfinite(values).all():
        raise SpectralError("matrix function is not finite at some eigenvalue")
    return _assemble(dec.eigenvectors, values)


def cos_lap(dec: SpectralDecomposition, tau: float) -> np.ndarray:
    """cos(tau * L); equals the identity on the consensus mode."""
    return matrix_function(dec, lambda lam: np.cos(tau * lam))


def sin_lap(dec: SpectralDecomposition, tau: float) -> np.ndarray:
    """sin(tau * L); vanishes on the consensus mode."""
    return matrix_function(dec, lambda lam: np.sin(tau * lam))


def centering_matrix(n: int) -> np.ndarray:
    """I - (1/n) * ones; projects out the network average."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


@dataclass(frozen=True)
class StabilityInfo:
    """Delay stability of a connected network: boundary, margin, verdict."""

    tau_max: float
    margin: float
    stable: bool


def check_delay(tau: float) -> None:
    """Reject a delay that is not a finite nonnegative number."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"delay must be finite and nonnegative, got {tau}")


def check_positive(value: float, name: str) -> None:
    """Reject a parameter ``name`` that is not a finite positive number."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def stability_margin(dec: SpectralDecomposition, tau: float) -> StabilityInfo:
    """Stability boundary ``tau_max = pi / (2 * lambda_max)`` and the margin at ``tau``.

    The boundary itself is excluded: a configuration counts as stable only
    when ``tau < tau_max - STABILITY_SLACK`` (and the graph is connected).
    """
    check_delay(tau)
    if dec.zero_mode_count != 1:
        raise DisconnectedGraphError(
            f"stability is defined for connected graphs; found {dec.zero_mode_count} zero modes"
        )
    lam_max = dec.lambda_max
    tau_max = math.pi / (2.0 * lam_max) if lam_max > 0 else math.inf
    margin = tau_max - tau
    return StabilityInfo(tau_max=tau_max, margin=margin, stable=tau < tau_max - STABILITY_SLACK)


def edge_quadratic_form(m, e: tuple[int, int]) -> float:
    """``M_ii + M_jj - 2 M_ij`` for the endpoints of an edge.

    Passing the Laplacian pseudoinverse recovers the classic effective
    resistance between the endpoints; passing one of the delay kernels gives
    the generalized per-link quadratic forms the link formulas use.
    """
    matrix = m.matrix if isinstance(m, SpectralKernel) else np.asarray(m, dtype=float)
    i, j = int(e[0]), int(e[1])
    n = matrix.shape[0]
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"invalid edge ({i}, {j}) for a {n}-node matrix")
    return float(matrix[i, i] + matrix[j, j] - 2.0 * matrix[i, j])
