"""What the benchmark reaches in the package has to exist.

``perfbench/tracing.py`` imports every module named in its ``TRACED`` table
with no guard and wraps the named function, and the benchmark's own tests
read ``oracles.mode_integral``.  A module removed from under either makes
every traced benchmark run fail; this guard fails first, in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

from delaycent import oracles

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    """``perfbench/tracing.py``, loaded by path: it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    # ROADMAP item 1 retires the quadrature entries of TRACED before item 2
    # removes delaycent.quadrature from the package.
    targets = [target for group in _load_tracing().TRACED.values() for target in group]
    assert ("delaycent.cli", "run") in targets
    missing = [(name, attr) for name, attr in targets if not hasattr(importlib.import_module(name), attr)]
    assert missing == []


def test_the_benchmark_quadrature_oracle_exists():
    assert callable(oracles.mode_integral)
