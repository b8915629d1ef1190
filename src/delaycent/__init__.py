"""delaycent: performance and centrality analysis of time-delay consensus networks.

Closed-form steady-state dispersion, node/link centrality indices, and
link weight sensitivities for first- and second-order linear consensus
dynamics with a uniform communication delay, under six structured noise
models, verified against quadrature and Monte Carlo oracles.
"""

from .centrality import (
    ALL_STRUCTURES,
    COMM_CHANNEL,
    DYNAMICS,
    EMITTER,
    MEASUREMENT,
    RECEIVER,
    SENSOR,
    AdversarialAllocation,
    NoiseStructure,
    adversarial_allocation,
    centrality_report,
    check_variances,
    input_matrix,
    link_centrality,
    link_sensitivity,
    node_centrality,
    performance,
    scale_sweep,
    tau_sweep,
)
from .graph import (
    GraphError,
    GraphMatrices,
    GraphParseError,
    WeightedGraph,
    build_matrices,
    is_connected,
    parse_edge_list,
)
from .oracles import (
    SimConfig,
    SimResult,
    SimulationError,
    mode_integral,
    simulate,
    simulate_second_order,
)
from .report import CentralityReport, rank_with_ties
from .secondorder import (
    SecondOrderConfig,
    SecondOrderStabilityError,
    so_node_centrality,
)
from .spectral import (
    DisconnectedGraphError,
    IllConditionedGraphError,
    SpectralDecomposition,
    SpectralError,
    StabilityError,
    StabilityInfo,
    decompose,
    kernel,
    require_stable,
    stability_margin,
)

__version__ = "0.1.0"
