"""netaug: densify networks while preserving a distance-based controllability bound.

The package adds as many edges as possible to an undirected network without
shortening the leader-to-node distances that certify a lower bound on the
dimension of its strong structurally controllable subspace. Denser graphs
are more robust (their Kirchhoff index drops), so the two augmenters here
trade no controllability guarantee for that robustness gain.
"""

from .augmentation import (
    AugmentationResult,
    addable_edge_upper_bound,
    augment_intersection,
    augment_pair,
    augment_randomized,
    build_clique_chain,
    classify_fixed_nodes,
    level_partition,
    success_probability_bound,
)
from .controllability import (
    DistanceVector,
    PMICheck,
    PMISequence,
    RankValidationReport,
    controllability_rank,
    distance_to_leader_vectors,
    input_matrix,
    is_pmi,
    kirchhoff_index,
    pmi_exact,
    pmi_greedy,
    validate_ssc_bound,
)
from .errors import DisconnectedGraphError, EdgeListParseError, SizeGuardError
from .experiments import (
    ExperimentAggregate,
    ExperimentConfig,
    ExperimentRecord,
    aggregates_to_csv,
    records_to_csv,
    run_experiment,
    trial_seed,
)
from .graphs import (
    Edge,
    GenSpec,
    Graph,
    barabasi_albert,
    bfs_distances,
    erdos_renyi,
    generate,
    is_connected,
    laplacian,
    parse_edge_list,
    write_edge_list,
)

__all__ = [
    "AugmentationResult",
    "DisconnectedGraphError",
    "DistanceVector",
    "Edge",
    "EdgeListParseError",
    "ExperimentAggregate",
    "ExperimentConfig",
    "ExperimentRecord",
    "GenSpec",
    "Graph",
    "PMICheck",
    "PMISequence",
    "RankValidationReport",
    "SizeGuardError",
    "addable_edge_upper_bound",
    "aggregates_to_csv",
    "augment_intersection",
    "augment_pair",
    "augment_randomized",
    "barabasi_albert",
    "bfs_distances",
    "build_clique_chain",
    "classify_fixed_nodes",
    "controllability_rank",
    "distance_to_leader_vectors",
    "erdos_renyi",
    "generate",
    "input_matrix",
    "is_connected",
    "is_pmi",
    "kirchhoff_index",
    "laplacian",
    "level_partition",
    "parse_edge_list",
    "pmi_exact",
    "pmi_greedy",
    "records_to_csv",
    "run_experiment",
    "success_probability_bound",
    "trial_seed",
    "validate_ssc_bound",
    "write_edge_list",
]

__version__ = "0.1.0"
