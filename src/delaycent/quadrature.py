"""Adaptive Gauss-Kronrod panel integration with a hard refinement budget.

:func:`integrate_adaptive` keeps the live panels of one integral in a heap
and always splits the one with the largest error estimate (the first
inserted on ties), evaluating both halves in one integrand call.  It stops
when the running error total meets the tolerance or turns NaN, and sums the
panel values in order of left endpoint.
"""

from __future__ import annotations

import heapq
import itertools

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
# columns of one matrix, so that one product evaluates a stack of panels.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_RULES = np.zeros((15, 2))
_RULES[:, 0] = np.concatenate([_WGK[:-1], _WGK[::-1]])
_RULES[1:14:2, 1] = np.concatenate([_WG[:-1], _WG[::-1]])


def _estimates(f, lo, hi) -> tuple[list[float], list[float]]:
    """Kronrod estimates and |Kronrod - Gauss| error estimates of the panels
    ``[lo[k], hi[k]]``, from one call of ``f`` on all their nodes."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    kg = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape) @ _RULES
    k15 = half * kg[:, 0]
    return k15.tolist(), np.abs(k15 - half * kg[:, 1]).tolist()


def integrate_adaptive(f, a: float, b: float, abs_tol: float, max_panels: int = 65536) -> float:
    """Integrate ``f``, which takes one ndarray of abscissae, over [a, b] to
    absolute accuracy ``abs_tol``.  A NaN error total stops refinement without
    raising; the value is then the panel sum, NaN or +-inf.  Raises
    :class:`QuadratureError` if ``max_panels`` panels are not enough."""
    if not (abs_tol > 0):
        raise ValueError(f"tolerance must be positive, got {abs_tol}")
    (value,), (total,) = _estimates(f, [a], [b])
    order = itertools.count()
    # Live panels keyed by (-error, insertion order): the heap top is the
    # worst panel, the first inserted of equal errors.
    heap = [(-total, next(order), float(a), float(b), value)]
    while total > abs_tol and len(heap) < max_panels:
        neg_err, _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        values, errors = _estimates(f, [lo, mid], [mid, hi])
        total = (total + neg_err) + (errors[0] + errors[1])
        for err, val, p_lo, p_hi in zip(errors, values, (lo, mid), (mid, hi)):
            heapq.heappush(heap, (-err, next(order), p_lo, p_hi, val))
    if total > abs_tol:
        raise QuadratureError(
            f"refinement budget of {max_panels} panels exhausted (error estimate {total:.3e} > {abs_tol:.3e})"
        )
    # cumsum adds strictly left to right, whatever the count of panels.
    return float(np.cumsum([p[4] for p in sorted(heap, key=lambda p: p[2])])[-1])
