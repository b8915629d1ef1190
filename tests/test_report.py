"""Tie-aware rankings against the sort-and-chain implementation they replaced
(``reference_rank_with_ties`` in conftest)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from delaycent.report import RANK_TOL_FACTOR, rank_with_ties

from conftest import reference_rank_with_ties


def _same_as_reference(values, tol_factor=RANK_TOL_FACTOR):
    got = rank_with_ties(values, tol_factor)
    assert got == reference_rank_with_ties(values, tol_factor)
    ranking, tie_groups = got
    assert all(type(k) is int for k in ranking)
    assert all(type(k) is int for g in tie_groups for k in g)


finite = st.floats(allow_nan=False, allow_infinity=False)
# Few distinct values (exact ties, +-0.0) and values within a few tolerances
# of each other (chains), besides arbitrary finite ones.
tied = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 1e-10, 1.0 - 1e-10, 2.5, 5e-324])
near = st.integers(-8, 8).map(lambda k: 1.0 + k * 0.9 * RANK_TOL_FACTOR)
vectors = st.one_of(
    hnp.arrays(np.float64, st.integers(1, 40), elements=finite),
    hnp.arrays(np.float64, st.integers(1, 40), elements=tied),
    hnp.arrays(np.float64, st.integers(1, 40), elements=near),
    hnp.arrays(np.float64, st.integers(1, 40), elements=near.map(lambda v: -v)),
)


@settings(max_examples=400, deadline=None)
@given(vectors, st.sampled_from([RANK_TOL_FACTOR, 0.0, 1e-6, 0.5]))
def test_matches_reference(values, tol_factor):
    _same_as_reference(values, tol_factor)


@pytest.mark.parametrize(
    "values",
    [
        [1.0, 2.0, 1.0, 2.0, 0.5],  # exact ties
        [0.0, -0.0, 1.0, -0.0, 0.0],  # signed zeros tie at tol > 0
        [0.0, -0.0, 0.0],  # all zero: tol = 0, so no ties
        [1.0 - k * 0.9e-9 for k in (3, 0, 5, 1, 4, 2)],  # a chain spanning 4.5 tol
        [1.0, 1.0 - 0.9e-9, 1.0 - 2.0e-9],  # a tie of two, then a gap of 1.1 tol
        [3.0] * 6,  # all equal
        [2.5],  # a single element
        [-3.0, -1.0, -1.0 + 5e-10, -2.0, -1.0 - 2e-9],  # negative values
    ],
)
def test_pinned_cases(values):
    _same_as_reference(np.array(values))


def test_pinned_chain_is_one_group():
    values = np.array([1.0 - k * 0.9e-9 for k in (3, 0, 5, 1, 4, 2)])
    assert rank_with_ties(values) == ((0, 1, 2, 3, 4, 5), ((0, 1, 2, 3, 4, 5),))


@pytest.mark.parametrize("values", [[], [[1.0, 2.0]]])
def test_refuses_empty_or_matrix(values):
    with pytest.raises(ValueError, match="nonempty 1-d"):
        rank_with_ties(np.array(values))
