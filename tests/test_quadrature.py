import math

import numpy as np
import pytest

from delaycent.quadrature import QuadratureError, gk15, integrate_adaptive, integrate_rows

from conftest import reference_integrate_adaptive


def test_single_panel_exact_on_low_degree_polynomials():
    # The embedded 7-point Gauss rule is exact to degree 13, Kronrod higher;
    # both must integrate a cubic exactly, so the error estimate vanishes.
    val, err = gk15(lambda x: 3 * x**2 + 2 * x + 1, -1.0, 2.0)
    exact = (2.0**3 + 2.0**2 + 2.0) - (-1.0 + 1.0 - 1.0)
    assert val == pytest.approx(exact, rel=1e-14)
    assert err < 1e-12


def test_adaptive_known_integrals():
    assert integrate_adaptive(np.sin, 0.0, math.pi, abs_tol=1e-12) == pytest.approx(
        2.0, abs=1e-11
    )
    assert integrate_adaptive(
        lambda x: np.exp(-(x**2)), -8.0, 8.0, abs_tol=1e-12
    ) == pytest.approx(math.sqrt(math.pi), abs=1e-10)


def test_adaptive_resolves_narrow_peak():
    # Lorentzian of width 1e-3 centered mid-interval.
    gamma = 1e-3
    got = integrate_adaptive(
        lambda x: gamma / ((x - 0.3) ** 2 + gamma**2), 0.0, 1.0, abs_tol=1e-10
    )
    exact = math.atan(0.7 / gamma) + math.atan(0.3 / gamma)
    assert got == pytest.approx(exact, rel=1e-9)


def test_budget_exhaustion():
    with pytest.raises(QuadratureError, match="budget"):
        integrate_adaptive(
            lambda x: np.abs(x - math.pi / 10) ** -0.5, 0.0, 1.0, abs_tol=1e-14, max_panels=16
        )


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, 0.0, 1.0, abs_tol=0.0)


ROW_INTEGRANDS = [
    (np.sin, 0.0, math.pi),
    (lambda x: np.exp(-(x**2)), -8.0, 8.0),  # symmetric: equal error estimates tie
    (lambda x: 1e-3 / ((x - 0.3) ** 2 + 1e-6), 0.0, 1.0),
    (lambda x: np.cos(40.0 * x) / (1.0 + x * x), 0.0, 5.0),
]


def _batch(fs):
    def f(rows, x):
        return np.stack([fs[r](xr) for r, xr in zip(rows.tolist(), x)])

    return f


def test_rows_match_the_one_row_loop():
    fs, a, b = zip(*ROW_INTEGRANDS)
    calls = np.zeros(len(fs), dtype=int)

    def counted(rows, x):
        calls[rows] += 1
        return _batch(fs)(rows, x)

    values, faults = integrate_rows(counted, a, b, 1e-12)
    assert faults == {}
    for k, (f, lo, hi) in enumerate(ROW_INTEGRANDS):
        want, panels = reference_integrate_adaptive(f, lo, hi, 1e-12)
        assert values[k] == pytest.approx(want, rel=1e-15, abs=0.0)
        assert calls[k] == panels  # each call on a row adds one panel to it


def test_budget_and_nan_stop_only_their_rows():
    fs = [np.sin, lambda x: np.abs(x - math.pi / 10) ** -0.5, lambda x: np.full_like(x, np.nan)]
    values, faults = integrate_rows(_batch(fs), [0.0, 0.0, 0.0], [math.pi, 1.0, 1.0], 1e-12, max_panels=16)
    assert values[0] == pytest.approx(2.0, abs=1e-11)
    assert list(faults) == [1] and "budget of 16 panels" in str(faults[1])
    assert math.isnan(values[2])
