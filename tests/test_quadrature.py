import math

import numpy as np
import pytest

from delaycent.quadrature import QuadratureError, integrate_adaptive

from conftest import reference_integrate_adaptive


def test_single_panel_exact_on_low_degree_polynomials():
    # The embedded 7-point Gauss rule is exact to degree 13, Kronrod higher;
    # both must integrate a cubic exactly, so one panel meets the tolerance.
    val = integrate_adaptive(lambda x: 3 * x**2 + 2 * x + 1, -1.0, 2.0, abs_tol=1e-12, max_panels=1)
    exact = (2.0**3 + 2.0**2 + 2.0) - (-1.0 + 1.0 - 1.0)
    assert val == pytest.approx(exact, rel=1e-14)


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
    with pytest.raises(QuadratureError, match="budget of 16 panels"):
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


@pytest.mark.parametrize("f,a,b", ROW_INTEGRANDS, ids=["sin", "gaussian", "lorentzian", "oscillating"])
def test_matches_the_panel_list_reference(f, a, b):
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    want, panels = reference_integrate_adaptive(f, a, b, 1e-12)
    assert integrate_adaptive(counted, a, b, 1e-12) == want
    # One call for the first panel, then one per split, on both halves' nodes.
    assert calls == [15] + [30] * (panels - 1)


def test_nan_integrand_gives_nan():
    assert math.isnan(integrate_adaptive(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 1e-12))


def test_inf_integrand_stops_without_raising():
    # The Gauss estimate is NaN (inf times the zero weights), so the error is
    # NaN and stops refinement; the Kronrod value stays infinite.
    with np.errstate(invalid="ignore"):
        assert integrate_adaptive(lambda x: np.full_like(x, np.inf), 0.0, 1.0, 1e-12) == np.inf
        assert integrate_adaptive(lambda x: np.full_like(x, -np.inf), 0.0, 1.0, 1e-12) == -np.inf
