"""Centrality for second-order (position/velocity) delayed consensus.

Each agent carries a position and a velocity; positions integrate
velocities and velocities run delayed Laplacian feedback on both, with
gain ``b`` on the velocity coupling and white noise on the velocity
equation.  The steady-state position variance of one mode is the squared
H2 norm of a two-state delay system, ``B^T U(0) B`` with ``U`` its delay
Lyapunov matrix (Jarlebring, Vanbiervliet & Michiels, IEEE TAC 56(4),
2011): one 8x8 matrix exponential and one 8x8 solve per mode, batched over
the modes (``1 / (2 b lam^2)`` at ``tau = 0``, a self-check).  Stability is
closed form: mode ``lam`` crosses the imaginary axis at delay
``tau_c(lam)`` and frequency ``omega_c(lam)``; there the solve is singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphMatrices
from .report import CentralityReport, make_report
from .spectral import StabilityError, check_delay, check_positive

SECOND_ORDER_TAG = "second-order-dynamics"


class SecondOrderStabilityError(RuntimeError):
    """A mode's value cannot meet ``quad_tol``: marginal or ill-conditioned configuration."""


@dataclass(frozen=True)
class SecondOrderConfig:
    """Second-order evaluation parameters.

    ``quad_tol`` is the absolute accuracy asked of each mode's value; a mode
    whose error estimate exceeds it is refused.
    """

    b: float
    tau: float = 0.0
    quad_tol: float = 1e-9

    def __post_init__(self) -> None:
        check_positive(self.b, "velocity gain b")
        check_delay(self.tau)
        check_positive(self.quad_tol, "per-mode accuracy quad_tol")


def _crossing(lam, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequency and delay at which modes ``lam`` of ``s^2 + lam (1 + b s) e^{-s tau}``
    cross the imaginary axis: ``omega_c^2 = lam (b^2 lam + hypot(b^2 lam, 2)) / 2``."""
    bl = b * b * np.asarray(lam, dtype=float)
    omega = np.sqrt(lam * (bl + np.hypot(bl, 2.0)) / 2.0)
    return omega, np.arctan(b * omega) / omega


def critical_delay(lam: float, b: float) -> float:
    """Crossing delay tau_c(lam); it falls in lam, so tau_c(lambda_max) bounds a graph's delays."""
    return float(_crossing(lam, b)[1])


def _expm(a: np.ndarray) -> np.ndarray:
    """``e^a`` of each matrix of a stack: scaled by ``2^-s`` to 1-norm at
    most 1/2, a 16-term Taylor sum, then ``s`` squarings."""
    s = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))[1] + 1, 0)
    x = np.ldexp(a, -s[..., None, None])
    e = eye = np.eye(a.shape[-1])
    for k in range(16, 0, -1):
        e = eye + x @ e / k
    for k in range(s.max(initial=0)):
        e = np.where((k < s)[..., None, None], e @ e, e)
    return e


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product of matching stacks of n x n matrices."""
    n = x.shape[-1]
    return (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(*x.shape[:-2], n * n, n * n)


def _delay_lyapunov(a0: np.ndarray, a1: np.ndarray, tau, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``U(0)`` of ``x' = A0 x + A1 x(t - tau)`` with output weight ``q``,
    ``U(t) = int_0^inf K(s)^T q K(s + t) ds``, for stacks of (A0, A1, tau),
    and an error estimate of each entry.

    ``Y(t) = U(t)`` and ``Z(t) = U(t - tau)`` on ``[0, tau]`` solve
    ``Y' = Y A0 + Z A1`` and ``Z' = -A0^T Z - A1^T Y``; in row-major vec form
    ``(Y, Z)(tau) = e^{M tau} (Y, Z)(0)``.  The boundary conditions
    ``Y(0) = Z(tau)`` and ``Y(0) A0 + A0^T Y(0) + Z(0) A1 + A1^T Y(tau) = -q``
    give one ``2n^2`` system per stack entry.  Rounding, that of ``e^{M tau}``
    included, perturbs each row by about eps times the largest term it sums,
    so the estimate is ``eps |S^-1| rows |u|_1``, and cancellation shows in it.
    """
    n2 = a0.shape[-1] ** 2
    eye = np.broadcast_to(np.eye(a0.shape[-1]), a0.shape)
    a0t, a1t = a0.swapaxes(-1, -2), a1.swapaxes(-1, -2)
    y_a0, y_a1, a1t_y, a0t_z = _kron(eye, a0t), _kron(eye, a1t), _kron(a1t, eye), _kron(a0t, eye)
    e = _expm(np.block([[y_a0, y_a1], [-a1t_y, -a0t_z]]) * np.asarray(tau)[..., None, None])
    head = np.eye(n2, 2 * n2)  # picks Y(0) out of (Y, Z)(0)
    jump = np.concatenate([y_a0 + a0t_z, y_a1], axis=-1)
    system = np.concatenate([e[..., n2:, :] - head, jump + a1t_y @ e[..., :n2, :]], axis=-2)
    ae = np.abs(e)
    rows = np.concatenate([ae[..., n2:, :] + head, np.abs(jump) + np.abs(a1t_y) @ ae[..., :n2, :]], axis=-2)
    u = np.linalg.solve(system, np.concatenate([np.zeros(n2), -q.ravel()])[:, None])[..., 0]
    err = (np.abs(np.linalg.inv(system)) @ rows.max(axis=-1, keepdims=True))[..., 0]
    err *= np.finfo(float).eps * np.abs(u).sum(axis=-1, keepdims=True)
    return u[..., :n2].reshape(a0.shape), err[..., :n2].reshape(a0.shape)


def _f_and_error(lam: np.ndarray, tau: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode squared H2 norms ``f(lam, tau, b)`` and their error estimates,
    from the mode scaled to unit eigenvalue:
    ``f(lam, tau, b) = lam^{-3/2} f(1, sqrt(lam) tau, b sqrt(lam))``."""
    root = np.sqrt(lam)
    a0 = np.broadcast_to([[0.0, 1.0], [0.0, 0.0]], (lam.size, 2, 2))
    a1 = np.zeros((lam.size, 2, 2))
    a1[:, 1, 0], a1[:, 1, 1] = -1.0, -b * root
    u0, err = _delay_lyapunov(a0, a1, root * tau, np.diag([1.0, 0.0]))
    scale = lam**-1.5
    return u0[:, 1, 1] * scale, err[:, 1, 1] * scale


def _f_per_eigenvalue(eigenvalues: np.ndarray, cfg: SecondOrderConfig) -> np.ndarray:
    """Per-mode steady-state position variances, all modes solved together.

    A delay past ``tau_c`` of the top mode (so of none below; ``eigenvalues``
    ascend) raises :class:`StabilityError` before any solve.  Of the modes
    whose error estimate exceeds ``quad_tol`` (at ``tau_c`` the system is
    singular) the lowest raises :class:`SecondOrderStabilityError`.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size and cfg.tau > critical_delay(lam[-1], cfg.b):
        raise StabilityError(cfg.tau, critical_delay(lam[-1], cfg.b))
    f, err = _f_and_error(lam, cfg.tau, cfg.b)
    bad = np.flatnonzero(~(err <= cfg.quad_tol))
    if bad.size:
        k = bad[0]
        raise SecondOrderStabilityError(
            f"marginal/ill-conditioned mode at eigenvalue {lam[k]:.6g} (tau={cfg.tau:.6g},"
            f" b={cfg.b:.6g}): error estimate {err[k]:.3e} exceeds quad_tol={cfg.quad_tol:.3g}"
        )
    return f


def so_node_centrality(gm: GraphMatrices, cfg: SecondOrderConfig) -> CentralityReport:
    """Second-order agent centrality ``eta_i = sum_j Q_ij^2 f(lam_j, tau, b)``.

    The sum runs over nonzero modes only: on the consensus mode the
    spectral density is non-integrable, and the output deviation
    ``y = M_n x`` does not observe it.  A delay past
    ``tau_c(lambda_max)`` (see :func:`critical_delay`) raises
    :class:`StabilityError`; a mode whose error estimate exceeds ``quad_tol``,
    as at ``tau_c`` itself, raises :class:`SecondOrderStabilityError`.
    """
    dec = gm.spectrum
    f_vals = _f_per_eigenvalue(dec.nonzero_eigenvalues(), cfg)
    q = dec.eigenvectors[:, 1:]
    eta = (q**2) @ f_vals
    return make_report(
        cfg.tau,
        SECOND_ORDER_TAG,
        eta,
        tau_max=None,
        margin=None,
        extras={"b": cfg.b, "quad_tol": cfg.quad_tol},
    )
