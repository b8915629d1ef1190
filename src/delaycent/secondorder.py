"""Centrality for second-order (position/velocity) delayed consensus.

Each agent carries a position and a velocity; positions integrate
velocities and velocities run delayed Laplacian feedback on both, with
gain ``b`` on the velocity coupling and white noise on the velocity
equation.  Per-mode steady-state position variance is a frequency integral
with no closed form for ``tau > 0``, so the node indices are assembled
from adaptive quadrature (``1 / (2 b lam^2)`` at ``tau = 0``, a self-check).
Stability is closed form: mode ``lam`` crosses the imaginary axis at delay
``tau_c(lam)`` and frequency ``omega_c(lam)``, the only place the kernel can vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphMatrices
from .quadrature import QuadratureError, integrate_rows
from .report import CentralityReport, make_report
from .spectral import StabilityError, check_delay, check_positive

SECOND_ORDER_TAG = "second-order-dynamics"

# Factor by which the truncation frequency grows until the analytic
# ~1/omega^4 tail bound passes.
_OMEGA_GROWTH = 2.0
# Past this truncation frequency h <= 3 omega^4 could overflow a double.
_OMEGA_LIMIT = 0.5 * np.finfo(float).max ** 0.25


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
    """Smallest cutoff on a doubling ladder with a certified tail below ``tol / 2``.

    For ``omega >= max(sqrt(8 lam), 8 b lam)`` the kernel dominates
    ``omega^4 / 2``, so the (already doubled and 1/2pi-normalized) tail
    beyond ``omega_max`` is at most ``2 / (3 pi omega_max^3)``.  It stops,
    before the cube can overflow, past ``_OMEGA_LIMIT``, which callers refuse.
    """
    omega_max = max(10.0 * lam * (1.0 + b), math.sqrt(8.0 * lam), 8.0 * b * lam, 1.0)
    if tau > 0:
        omega_max = max(omega_max, 50.0 / tau)
    while omega_max <= _OMEGA_LIMIT and 2.0 / (3.0 * math.pi * omega_max**3) > 0.5 * tol:
        omega_max *= _OMEGA_GROWTH
    return omega_max


def _crossing(lam, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequency and delay at which modes ``lam`` of ``s^2 + lam (1 + b s) e^{-s tau}``
    cross the imaginary axis: ``omega_c^2 = lam (b^2 lam + hypot(b^2 lam, 2)) / 2``."""
    bl = b * b * np.asarray(lam, dtype=float)
    omega = np.sqrt(lam * (bl + np.hypot(bl, 2.0)) / 2.0)
    return omega, np.arctan(b * omega) / omega


def critical_delay(lam: float, b: float) -> float:
    """Crossing delay tau_c(lam); it falls in lam, so tau_c(lambda_max) bounds a graph's delays."""
    return float(_crossing(lam, b)[1])


def f_integral(
    lam: float,
    tau: float,
    b: float,
    quad_tol: float = 1e-9,
    panel_budget: int = 65536,
) -> float:
    """Steady-state position variance ``(1/2pi) int dw / h`` of one mode: past
    ``tau_c`` it raises :class:`StabilityError`, at a near-zero of ``h``
    :class:`SecondOrderStabilityError`, on an exhausted budget :class:`QuadratureError`."""
    check_positive(lam, "eigenvalue")
    cfg = SecondOrderConfig(b=b, tau=tau, quad_tol=quad_tol, panel_budget=panel_budget)
    return float(_f_per_eigenvalue(np.array([float(lam)]), cfg)[0])


def _f_per_eigenvalue(eigenvalues: np.ndarray, cfg: SecondOrderConfig) -> np.ndarray:
    """Per-mode steady-state position variances ``(1/2pi) int dw / h``, once
    per distinct eigenvalue (``eigenvalues`` ascend, so only the last distinct
    one can be within 1e-12 relative), all modes refined together.

    The integrand is even, so ``[0, omega_max]`` is integrated and doubled.
    A delay past ``tau_c`` of the top mode (so of none below) raises
    :class:`StabilityError` before any quadrature.  Below ``tau_c`` only
    ``h(omega_c)`` can near zero; it and every refined panel are checked, and
    ``h < h_floor`` raises :class:`SecondOrderStabilityError`, as the integral
    diverges there.  Of faulting modes the lowest one's error is raised.
    """
    distinct: list[float] = []
    group = []
    for lam in eigenvalues.tolist():
        if not distinct or abs(distinct[-1] - lam) > 1e-12 * max(distinct[-1], 1.0):
            distinct.append(lam)
        group.append(len(distinct) - 1)
    lam = np.array(distinct)
    tau, b = cfg.tau, cfg.b
    omega_c, tau_c = _crossing(lam, b)
    if lam.size and tau > tau_c[-1]:
        raise StabilityError(tau, float(tau_c[-1]))
    omega_max = np.array([_truncation_frequency(x, tau, b, cfg.quad_tol) for x in distinct])
    if (omega_max > _OMEGA_LIMIT).any():
        raise OverflowError(f"h(w) overflows at lambda_max={lam[-1]:.6g}, b={b:.6g}, tau={tau:.6g}")
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

    integrand(np.arange(lam.size), omega_c[:, None, None])
    count = min(faults, default=lam.size)  # modes past a crossing fault need no refinement
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
    :class:`StabilityError`; at ``tau_c`` itself the kernel has a zero at
    ``omega_c``, which raises :class:`SecondOrderStabilityError`.
    """
    dec = gm.spectrum
    f_vals = _f_per_eigenvalue(dec.nonzero_eigenvalues(), cfg)
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
    dec = gm.spectrum
    lam = dec.nonzero_eigenvalues()
    q = dec.eigenvectors[:, dec.zero_mode_count :]
    return (q**2) @ (1.0 / (2.0 * b * lam**2))
