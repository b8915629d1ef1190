"""Eigendecomposition of graph Laplacians and spectral kernel values.

Every formula in this package is diagonal in the Laplacian eigenbasis, so
a kernel (cos, sin, pseudoinverses and their composites) is a scalar map
applied to the eigenvalues, and an index contracts those values with
squared modal coordinates; no n x n kernel matrix is ever formed.  For the
symmetric PSD matrices we deal with this is exact up to eigensolver error;
no series summation or rational approximation is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Relative threshold below which an eigenvalue counts as a zero mode.
# Relative (not absolute) so that uniform weight scaling does not change
# mode counts.
ZERO_REL_TOL = 1e-9

# A delay is only accepted as stable if it clears the boundary by this much.
STABILITY_SLACK = 1e-9


class SpectralError(ValueError):
    """Input matrix violates the symmetric-PSD contract."""


class DisconnectedGraphError(SpectralError):
    """The graph's edges do not connect all of its nodes."""


class IllConditionedGraphError(DisconnectedGraphError):
    """The graph is connected, but its lambda_2 falls under the zero-mode resolution."""


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
    """Eigenvalues of a connected graph's Laplacian, ascending, and their
    eigenvectors as columns (None when only the eigenvalues were computed).

    The first eigenvalue is the one zero mode, clamped to exactly 0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def nonzero_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[1:]


def decompose(matrix: np.ndarray, vectors: bool = True) -> SpectralDecomposition:
    """Symmetric eigendecomposition of a connected graph's Laplacian.

    Rejects matrices with asymmetry above 1e-10 or eigenvalues below the
    (relative) PSD tolerance.  Without ``vectors`` only the eigenvalues are
    computed (``eigvalsh``), with the same checks.  Connectivity is decided
    from the edges before the Laplacian is built (see
    :func:`delaycent.graph.build_matrices`), so a zero-mode count other than
    one means lambda_2 falls under the zero-mode resolution:
    :class:`IllConditionedGraphError`.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SpectralError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.array_equal(matrix, matrix.T):
        asym = float(np.max(np.abs(matrix - matrix.T)))
        if asym > 1e-10:
            raise SpectralError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    if vectors:
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    else:
        eigenvalues, eigenvectors = np.linalg.eigvalsh(matrix), None
    lam_max = max(float(eigenvalues[-1]), 0.0)
    tol = ZERO_REL_TOL * max(1.0, lam_max)
    if eigenvalues[0] < -tol:
        raise SpectralError(
            f"matrix is not positive semidefinite (lambda_min={eigenvalues[0]:.3e})"
        )
    zero_modes = int(np.count_nonzero(np.abs(eigenvalues) < tol))
    if zero_modes != 1:
        lam2 = float(eigenvalues[min(1, len(eigenvalues) - 1)])
        raise IllConditionedGraphError(
            f"expected exactly one zero mode, found {zero_modes}: graph is connected, but lambda_2"
            f" falls under the zero-mode resolution (raw lambda_2 = {lam2:.3e}, lambda_max ="
            f" {lam_max:.6g}; eigenvalues under ZERO_REL_TOL * max(1, lambda_max) = {tol:.3e}"
            " count as zero)"
        )
    eigenvalues[0] = 0.0
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def kernel(dec: SpectralDecomposition, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Kernel values: the scalar map ``g`` on the nonzero eigenvalues, one
    value per mode in eigenvalue order, with zero modes pinned to 0."""
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
        values[1:] = mapped
    return values


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
    when ``tau < tau_max - STABILITY_SLACK``; the one-node graph
    (``lambda_max = 0``) is stable at every delay.
    """
    check_delay(tau)
    lam_max = dec.lambda_max
    tau_max = math.pi / (2.0 * lam_max) if lam_max > 0 else math.inf
    margin = tau_max - tau
    return StabilityInfo(tau_max=tau_max, margin=margin, stable=tau < tau_max - STABILITY_SLACK)


def require_stable(dec: SpectralDecomposition, tau: float) -> StabilityInfo:
    """:func:`stability_margin` at a delay that must be stable: raises
    :class:`StabilityError`, naming ``tau_max``, when it is not."""
    info = stability_margin(dec, tau)
    if not info.stable:
        raise StabilityError(tau, info.tau_max)
    return info
