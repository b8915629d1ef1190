"""Centrality for second-order (position/velocity) delayed consensus.

Each agent carries a position and a velocity; positions integrate
velocities and velocities run delayed Laplacian feedback on both, with
gain ``b`` on the velocity coupling and white noise on the velocity
equation.  Per-mode steady-state position variance is a frequency integral
with no closed form for ``tau > 0``, so the node indices are assembled
from adaptive quadrature; at ``tau = 0`` the integral collapses to
``1 / (2 b lam^2)``, which doubles as a self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphMatrices
from .quadrature import QuadratureError, integrate_adaptive
from .report import CentralityReport, make_report
from .spectral import check_delay, check_positive, decompose

SECOND_ORDER_TAG = "second-order-dynamics"

# Panels scanned up front for near-zeros of the denominator kernel.
_SCAN_POINTS = 2048
# Factor by which the truncation frequency grows until the analytic
# ~1/omega^4 tail bound passes.
_OMEGA_GROWTH = 2.0


class SecondOrderStabilityError(RuntimeError):
    """Denominator kernel nearly vanishes: marginal or unstable configuration."""


@dataclass(frozen=True)
class SecondOrderConfig:
    """Second-order evaluation parameters.

    ``quad_tol`` is the absolute accuracy of each frequency integral;
    ``panel_budget`` caps adaptive refinement.
    """

    b: float
    tau: float = 0.0
    quad_tol: float = 1e-9
    panel_budget: int = 65536

    def __post_init__(self) -> None:
        check_positive(self.b, "velocity gain b")
        check_delay(self.tau)
        check_positive(self.quad_tol, "quadrature tolerance quad_tol")
        if self.panel_budget < 4:
            raise ValueError("panel_budget must be >= 4")


def h_kernel(lam: float, tau: float, b: float, omega) -> np.ndarray | float:
    """Denominator of the per-mode spectral density:
    ``(lam - w^2 cos(w tau))^2 + w^2 (b lam - w sin(w tau))^2``."""
    omega = np.asarray(omega, dtype=float)
    value = (lam - omega**2 * np.cos(omega * tau)) ** 2 + omega**2 * (
        b * lam - omega * np.sin(omega * tau)
    ) ** 2
    return value if value.ndim else float(value)


def _truncation_frequency(lam: float, tau: float, b: float, tol: float) -> float:
    """Smallest scanned cutoff with a certified tail below ``tol / 2``.

    For ``omega >= max(sqrt(8 lam), 8 b lam)`` the kernel dominates
    ``omega^4 / 2``, so the (already doubled and 1/2pi-normalized) tail
    beyond ``omega_max`` is at most ``2 / (3 pi omega_max^3)``.
    """
    floor = max(math.sqrt(8.0 * lam), 8.0 * b * lam, 1.0)
    omega_max = max(10.0 * lam * (1.0 + b), floor)
    if tau > 0:
        omega_max = max(omega_max, 50.0 / tau)
    while 2.0 / (3.0 * math.pi * omega_max**3) > 0.5 * tol:
        omega_max *= _OMEGA_GROWTH
    return omega_max


def f_integral(
    lam: float,
    tau: float,
    b: float,
    quad_tol: float = 1e-9,
    panel_budget: int = 65536,
) -> float:
    """Per-mode steady-state position variance ``(1/2pi) int dw / h``.

    The integrand is even, so only ``[0, omega_max]`` is integrated and
    doubled.  Near-zeros of ``h`` anywhere on the evaluation grid abort
    with :class:`SecondOrderStabilityError` (the integral diverges at a
    marginally stable configuration).
    """
    check_positive(lam, "eigenvalue")
    check_positive(b, "velocity gain b")
    omega_max = _truncation_frequency(lam, tau, b, quad_tol)
    h_floor = 1e-12 * max(1.0, lam) ** 2

    def integrand(omega: np.ndarray) -> np.ndarray:
        h = h_kernel(lam, tau, b, omega)
        if np.min(h) < h_floor:
            raise SecondOrderStabilityError(
                f"marginal/unstable configuration: h({lam:.6g}, {tau:.6g}, {b:.6g}, w)"
                f" falls below {h_floor:.3e} near w={float(np.asarray(omega).flat[int(np.argmin(h))]):.6g}"
            )
        return 1.0 / h

    # Coarse scan first so a divergence is reported even where adaptive
    # refinement would not happen to sample.
    integrand(np.linspace(0.0, omega_max, _SCAN_POINTS + 1))
    half_line = integrate_adaptive(
        integrand, 0.0, omega_max, abs_tol=0.5 * quad_tol * math.pi, max_panels=panel_budget
    )
    return half_line / math.pi


def _f_per_eigenvalue(eigenvalues: np.ndarray, cfg: SecondOrderConfig) -> np.ndarray:
    """Evaluate the frequency integral once per distinct eigenvalue."""
    out = np.empty_like(eigenvalues)
    cache: list[tuple[float, float]] = []
    for idx, lam in enumerate(eigenvalues):
        hit = next((f for known, f in cache if abs(known - lam) <= 1e-12 * max(known, 1.0)), None)
        if hit is None:
            try:
                hit = f_integral(
                    float(lam),
                    cfg.tau,
                    cfg.b,
                    quad_tol=cfg.quad_tol,
                    panel_budget=cfg.panel_budget,
                )
            except QuadratureError as exc:
                raise QuadratureError(f"mode at eigenvalue {lam:.6g}: {exc}") from exc
            cache.append((float(lam), hit))
        out[idx] = hit
    return out


def so_node_centrality(gm: GraphMatrices, cfg: SecondOrderConfig) -> CentralityReport:
    """Second-order agent centrality ``eta_i = sum_j Q_ij^2 f(lam_j, tau, b)``.

    The sum runs over nonzero modes only: on the consensus mode the
    spectral density is non-integrable, and the output deviation
    ``y = M_n x`` does not observe it.
    """
    dec = decompose(gm.laplacian, require_connected=True)
    lam = dec.nonzero_eigenvalues()
    f_vals = _f_per_eigenvalue(lam, cfg)
    q = dec.eigenvectors[:, dec.zero_mode_count :]
    eta = (q**2) @ f_vals
    return make_report(
        cfg.tau,
        SECOND_ORDER_TAG,
        eta,
        tau_max=None,
        margin=None,
        extras={"b": cfg.b, "quad_tol": cfg.quad_tol},
    )


def so_zero_delay_closed_form(gm: GraphMatrices, b: float) -> np.ndarray:
    """Delay-free second-order centrality ``(1/(2b)) diag((L^2)^+)``."""
    check_positive(b, "velocity gain b")
    dec = decompose(gm.laplacian, require_connected=True)
    lam = dec.nonzero_eigenvalues()
    q = dec.eigenvectors[:, dec.zero_mode_count :]
    return (q**2) @ (1.0 / (2.0 * b * lam**2))
