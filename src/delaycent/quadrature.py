"""Adaptive Gauss-Kronrod panel integration with a hard refinement budget.

One core, :func:`integrate_rows`, refines a batch of integrals together:
each round splits the worst panel of every integral that has not yet
converged and evaluates all new panels in one integrand call.  Within an
integral the policy is deterministic: the panel to split is always the one
with the largest error estimate (the first inserted on ties), and the final
value is accumulated over panels sorted by left endpoint.
:func:`integrate_adaptive` is the one-integral case.
"""

from __future__ import annotations

import numpy as np


class QuadratureError(RuntimeError):
    """Refinement budget exhausted before reaching the requested accuracy."""


# 15-point Kronrod nodes on [-1, 1] (positive half; node 0 is shared) with
# the embedded 7-point Gauss rule.  Standard QUADPACK constants.
_XGK = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
])
_WGK = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

# Full 15-node layout, ascending, and the weights of both rules as the
# columns of one matrix, so that one product evaluates a batch of panels.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_RULES = np.zeros((15, 2))
_RULES[:, 0] = np.concatenate([_WGK[:-1], _WGK[::-1]])
_RULES[1:14:2, 1] = np.concatenate([_WG[:-1], _WG[::-1]])


def _panels(f, rows, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimates and |Kronrod - Gauss| error estimates of the panels
    ``[lo, hi]`` of the batch rows ``rows``, from one call of ``f``."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    fx = f(rows, mid[..., None] + half[..., None] * _NODES)
    kg = (fx.reshape(-1, _NODES.size) @ _RULES).reshape(*fx.shape[:-1], 2)
    k15 = half * kg[..., 0]
    return k15, np.abs(k15 - half * kg[..., 1])


def gk15(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 panel of ``f``, which takes an ndarray of
    abscissae, over [a, b]: the Kronrod estimate and its error estimate."""
    k15, err = _panels(lambda rows, x: np.asarray(f(x), dtype=float), None, np.float64(a), np.float64(b))
    return float(k15), float(err)


def integrate_rows(f, a, b, abs_tol: float, max_panels: int = 65536):
    """Integrate a batch of integrands, row k over ``[a[k], b[k]]``, each to
    absolute accuracy ``abs_tol``.

    ``f(rows, x)`` evaluates the batch rows ``rows`` at abscissae ``x`` of
    shape (rows, panels, 15).  Each round splits the worst panel of every
    row whose running error total exceeds ``abs_tol``; a row stops when it
    converges, when its total turns NaN, or at ``max_panels`` panels.
    Returns the values and a :class:`QuadratureError` per row that ran out
    of panels, keyed by row.
    """
    if not (abs_tol > 0):
        raise ValueError(f"tolerance must be positive, got {abs_tol}")
    rows = np.arange(len(a))
    values = np.empty(rows.size)
    faults = {}
    # Panel slots per row in insertion order: ends, value, error estimate.
    # A split panel stays as a dead slot (left end inf, value 0, error
    # -inf), so argmax picks the first inserted of equal errors.
    pan = np.empty((4, rows.size, 64))
    pan[:2, :, 0] = a, b
    pan[2:, :, :1] = _panels(f, rows, pan[0, :, :1], pan[1, :, :1])
    total = pan[3, :, 0].copy()
    count = 1  # panels held by each row still refining
    while True:
        slots = 2 * count - 1
        out = ~(total > abs_tol) | (count >= max_panels)
        if out.any():
            order = np.argsort(pan[0, out, :slots], axis=1)
            ordered = np.take_along_axis(pan[2, out, :slots], order, axis=1)
            values[rows[out]] = ordered.cumsum(axis=1)[:, -1]
            for r, err in zip(rows[out].tolist(), total[out].tolist()):
                if err > abs_tol:
                    faults[r] = QuadratureError(
                        f"refinement budget of {max_panels} panels exhausted"
                        f" (error estimate {err:.3e} > {abs_tol:.3e})"
                    )
            rows, pan, total = rows[~out], pan[:, ~out], total[~out]
        if not rows.size:
            return values, faults
        if slots + 2 > pan.shape[2]:
            pan = np.concatenate([pan, np.empty_like(pan)], axis=2)
        at = np.arange(rows.size)
        worst = pan[3, :, :slots].argmax(axis=1)
        lo, hi = pan[0, at, worst], pan[1, at, worst]
        mid = 0.5 * (lo + hi)
        total -= pan[3, at, worst]
        pan[:, at, worst] = np.array([[np.inf], [np.nan], [0.0], [-np.inf]])
        new = pan[:, :, slots : slots + 2]
        new[:2] = np.stack([lo, mid], axis=1), np.stack([mid, hi], axis=1)
        new[2:] = _panels(f, rows, new[0], new[1])
        total += new[3, :, 0] + new[3, :, 1]
        count += 1


def integrate_adaptive(f, a: float, b: float, abs_tol: float, max_panels: int = 65536) -> float:
    """Integrate ``f``, which takes one ndarray of abscissae, over [a, b] to
    absolute accuracy ``abs_tol``: the one-row case of :func:`integrate_rows`.
    Raises :class:`QuadratureError` if ``max_panels`` panels are not enough."""
    values, faults = integrate_rows(
        lambda rows, x: np.asarray(f(x.ravel()), dtype=float).reshape(x.shape), [a], [b], abs_tol, max_panels
    )
    if faults:
        raise faults[0]
    return float(values[0])
