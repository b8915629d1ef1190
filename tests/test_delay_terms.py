"""The first-order delay map in delta form.

Every first-order index is a per-mode function of x = tau lam through
``cos x / (1 - sin x)``, which cancels catastrophically as x nears pi/2 when
spelled directly.  On a single edge of weight w there is one nonzero mode,
lam = 2 w, with modal coordinates +-1/sqrt(2), so K, rho and kappa each
reduce to one value of a map that a 50-digit reference evaluates exactly.
"""

import numpy as np
import pytest

from delaycent import (
    DYNAMICS,
    SENSOR,
    build_matrices,
    link_sensitivity,
    parse_edge_list,
    performance,
    stability_margin,
)
from delaycent import centrality
from delaycent.centrality import centrality_kernel

from conftest import mp_first_order_maps, name_scopes

EPS = np.finfo(float).eps
# k2 (lam = 2) and an edge whose eigenvalue 3.7 is not a power of two.
EDGES = {"k2": "0 1", "lam3.7": "0 1 1.85"}


@pytest.mark.parametrize("margin", [1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("edge", EDGES.values(), ids=EDGES.keys())
def test_single_edge_matches_50_digit_reference(edge, margin):
    gm = build_matrices(parse_edge_list(edge))
    dec = gm.spectrum
    tau = stability_margin(dec, 0.0).tau_max * (1.0 - margin)
    k, kappa_dyn, kappa_sens = mp_first_order_maps(tau, dec.lambda_max)
    pairs = {
        "K": (centrality_kernel(dec, tau)[1], k),
        "rho dynamics": (performance(gm, DYNAMICS, tau), k / 2),
        "kappa dynamics": (link_sensitivity(gm, DYNAMICS, tau)[0], kappa_dyn),
        "kappa sensor": (link_sensitivity(gm, SENSOR, tau)[0], kappa_sens),
    }
    errors = {name: abs(got - want) / want for name, (got, want) in pairs.items()}
    assert max(errors.values()) <= 4 * EPS / margin, errors


def test_zero_delay_is_exact(k2):
    assert centrality_kernel(k2.spectrum, 0.0).tolist() == [0.0, 0.5]


def test_trig_only_inside_the_delay_helper():
    assert name_scopes(centrality.__file__, ["sin", "cos"]) == ["_delay_terms", "_delay_terms"]
