"""Centrality report container: index vectors, tie-aware rankings, JSON shape."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

# Indices closer than this fraction of the largest magnitude are tied.
RANK_TOL_FACTOR = 1e-9


def rank_with_ties(
    indices: np.ndarray, tol_factor: float = RANK_TOL_FACTOR
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Descending ranking of ``indices`` with deterministic tie handling.

    Ids whose indices differ by less than ``tol_factor * max|index|`` chain
    into a tie group; within a group, ids ascend.  Returns the ranking
    permutation and the tie groups (size >= 2 only) in rank order.
    """
    values = np.asarray(indices, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("indices must be a nonempty 1-d vector")
    tol = tol_factor * float(np.max(np.abs(values)))
    order = np.argsort(-values, kind="stable")
    ranked = values[order]
    # A gap of at least tol after an id opens a new group; smaller gaps chain.
    opens = np.r_[True, ~(ranked[:-1] - ranked[1:] < tol)]
    ranking = order[np.lexsort((order, np.cumsum(opens)))].tolist()
    bounds = np.flatnonzero(np.r_[opens, True])
    tied = np.flatnonzero(np.diff(bounds) > 1)
    tie_groups = zip(bounds[tied].tolist(), bounds[tied + 1].tolist())
    return tuple(ranking), tuple(tuple(ranking[s:e]) for s, e in tie_groups)


@dataclass(frozen=True)
class CentralityReport:
    """One centrality evaluation: indices over nodes or links plus ranking.

    ``tau_max``/``margin`` describe the first-order stability region; they
    are None for second-order reports, whose boundary is checked but not
    reported.  ``extras`` carries structure-specific fields (for the
    second-order report: the velocity gain and the absolute accuracy
    ``quad_tol`` each mode's value met).
    """

    tau: float
    structure: str
    indices: np.ndarray
    ranking: tuple[int, ...]
    tie_groups: tuple[tuple[int, ...], ...]
    tau_max: float | None
    margin: float | None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])

    def rank_tol(self) -> float:
        return RANK_TOL_FACTOR * float(np.max(np.abs(self.indices)))

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "tau": float(self.tau),
            "structure": self.structure,
            "indices": self.indices.tolist(),
            "ranking": list(self.ranking),
            "tie_groups": [list(g) for g in self.tie_groups],
            "tau_max": None if self.tau_max is None else float(self.tau_max),
            "margin": None if self.margin is None else float(self.margin),
        }
        payload.update(self.extras)
        return payload


def make_report(
    tau: float,
    structure: str,
    indices: np.ndarray,
    tau_max: float | None,
    margin: float | None,
    extras: dict[str, Any] | None = None,
) -> CentralityReport:
    indices = np.asarray(indices, dtype=float)
    ranking, tie_groups = rank_with_ties(indices)
    return CentralityReport(
        tau=float(tau),
        structure=structure,
        indices=indices,
        ranking=ranking,
        tie_groups=tie_groups,
        tau_max=tau_max,
        margin=margin,
        extras=dict(extras or {}),
    )
