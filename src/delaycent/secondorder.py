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
from .quadrature import QuadratureError, integrate_rows
from .report import CentralityReport, make_report
from .spectral import StabilityError, check_delay, check_positive, decompose

SECOND_ORDER_TAG = "second-order-dynamics"

# Panels scanned up front for near-zeros of the denominator kernel.
_SCAN_POINTS = 2048
# Modes scanned at a time: bounds the scan's memory to this many grids.
_SCAN_BLOCK = 16
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


def critical_delay(lam: float, b: float) -> float:
    """Delay at which mode ``lam`` of ``s^2 + lam (1 + b s) e^{-s tau}`` crosses
    the imaginary axis.  It decreases in ``lam``, so ``critical_delay(lambda_max)``
    bounds the stable delays of a graph."""
    omega = math.sqrt((b * b * lam * lam + math.sqrt(b**4 * lam**4 + 4.0 * lam * lam)) / 2.0)
    return math.atan(b * omega) / omega


def f_integral(
    lam: float,
    tau: float,
    b: float,
    quad_tol: float = 1e-9,
    panel_budget: int = 65536,
) -> float:
    """Steady-state position variance ``(1/2pi) int dw / h`` of one mode: a
    near-zero of ``h`` raises :class:`SecondOrderStabilityError`, an exhausted
    panel budget :class:`QuadratureError`."""
    check_positive(lam, "eigenvalue")
    cfg = SecondOrderConfig(b=b, tau=tau, quad_tol=quad_tol, panel_budget=panel_budget)
    return float(_f_per_eigenvalue(np.array([float(lam)]), cfg)[0])


def _f_per_eigenvalue(eigenvalues: np.ndarray, cfg: SecondOrderConfig) -> np.ndarray:
    """Per-mode steady-state position variances ``(1/2pi) int dw / h``, once
    per distinct eigenvalue (``eigenvalues`` ascend, so only the last distinct
    one can be within 1e-12 relative), all modes refined together.

    The integrand is even, so ``[0, omega_max]`` is integrated and doubled.
    Near-zeros of ``h`` raise :class:`SecondOrderStabilityError` (the integral
    diverges at a marginally stable configuration), on a coarse grid scanned
    first or on a refined panel.  Of faulting modes the lowest one's error is
    raised.
    """
    distinct: list[float] = []
    group = []
    for lam in eigenvalues.tolist():
        if not distinct or abs(distinct[-1] - lam) > 1e-12 * max(distinct[-1], 1.0):
            distinct.append(lam)
        group.append(len(distinct) - 1)
    lam = np.array(distinct)
    tau, b = cfg.tau, cfg.b
    omega_max = np.array([_truncation_frequency(x, tau, b, cfg.quad_tol) for x in distinct])
    h_floor = 1e-12 * np.maximum(1.0, lam) ** 2
    faults: dict[int, Exception] = {}

    def integrand(rows: np.ndarray, omega: np.ndarray) -> np.ndarray:
        h = h_kernel(lam[rows, None, None], tau, b, omega)
        low = h < h_floor[rows, None, None]
        bad = low.any(axis=(1, 2))
        for r in np.flatnonzero(bad):
            p = np.argmax(low[r].any(axis=1))  # the first panel that falls low
            faults.setdefault(int(rows[r]), SecondOrderStabilityError(
                f"marginal/unstable configuration: h({lam[rows[r]]:.6g}, {tau:.6g}, {b:.6g}, w) falls"
                f" below {h_floor[rows[r]]:.3e} near w={omega[r, p, np.argmin(h[r, p])]:.6g}"
            ))
        h[bad] = np.nan  # stops the row's refinement
        return 1.0 / h

    for start in range(0, lam.size, _SCAN_BLOCK):
        rows = np.arange(start, min(start + _SCAN_BLOCK, lam.size))
        integrand(rows, np.linspace(0.0, omega_max[rows], _SCAN_POINTS + 1, axis=1)[:, None])
        if faults:
            break
    count = min(faults, default=lam.size)  # modes past a scan fault need no refinement
    half_line, spent = integrate_rows(
        integrand, np.zeros(count), omega_max[:count], 0.5 * cfg.quad_tol * math.pi, cfg.panel_budget
    )
    for k, exc in spent.items():
        faults.setdefault(k, QuadratureError(f"mode at eigenvalue {lam[k]:.6g}: {exc}"))
    if faults:
        raise faults[min(faults)]
    return (half_line / math.pi)[group]


def so_node_centrality(gm: GraphMatrices, cfg: SecondOrderConfig) -> CentralityReport:
    """Second-order agent centrality ``eta_i = sum_j Q_ij^2 f(lam_j, tau, b)``.

    The sum runs over nonzero modes only: on the consensus mode the
    spectral density is non-integrable, and the output deviation
    ``y = M_n x`` does not observe it.  A delay past
    ``tau_c(lambda_max)`` (see :func:`critical_delay`) raises
    :class:`StabilityError`; at ``tau_c`` itself the kernel has a zero on the
    frequency axis, which the near-zero checks report.
    """
    dec = decompose(gm.laplacian, require_connected=True)
    lam = dec.nonzero_eigenvalues()
    tau_c = critical_delay(dec.lambda_max, cfg.b) if lam.size else math.inf
    if cfg.tau > tau_c:
        raise StabilityError(cfg.tau, tau_c)
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
