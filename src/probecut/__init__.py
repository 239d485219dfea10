"""probecut: exact d-cut, matching cut and perfect matching cut machinery
for partitioned probe graphs, with brute-force oracles, hardness-reduction
generators and a batch CLI."""

from .errors import (
    GenerationTimeout,
    InvalidCertificate,
    InvalidEdge,
    InvalidInstance,
    InvalidSatInstance,
    NoEdges,
    NotBipartite,
    NotConnected,
    NotCubic,
    OracleScaleExceeded,
    ParseError,
    PartialColouring,
    PreconditionViolation,
    ProbeCutError,
    UnsupportedD,
    UnsupportedPattern,
)
from .graph import (
    Graph,
    Pattern,
    PartitionedProbeGraph,
    ProbeCertificate,
    build_graph,
    cograph_split,
    connected_components,
    cycle_pattern,
    diamond_pattern,
    find_induced,
    independent_pattern,
    is_connected,
    is_p4_free,
    parse_pattern,
    path_pattern,
    random_probe_hfree,
    sp1_p4_pattern,
    split_forbidden_patterns,
    star_pattern,
    two_p2_pattern,
    verify_probe_certificate,
)
from .colouring import (
    BLUE,
    RED,
    Colouring,
    CutCertificate,
    Violation,
    complete_independent_max_cut,
    complete_independent_perfect,
    max_bipartite_matching,
    validate_colouring,
)
from .oracles import (
    backtrack_dcut,
    brute_dcut,
    brute_mmc,
    brute_pmc,
    brute_probe_certificate,
    brute_sat,
)
from .reductions import (
    SatInstance,
    bipartite_to_split,
    moshi_double,
    random_sat_instance,
    sat_to_4p1,
    subdivide4,
    validate_sat_shape,
)
from .solvers import (
    SolveReport,
    solve_dcut,
    solve_mmc,
    solve_pmc,
)

__all__ = [
    # errors
    "GenerationTimeout", "InvalidCertificate", "InvalidEdge",
    "InvalidInstance", "InvalidSatInstance", "NoEdges", "NotBipartite",
    "NotConnected", "NotCubic", "OracleScaleExceeded",
    "ParseError", "PartialColouring", "PreconditionViolation", "ProbeCutError",
    "UnsupportedD", "UnsupportedPattern",
    # graph
    "Graph", "Pattern", "PartitionedProbeGraph", "ProbeCertificate",
    "build_graph", "cograph_split", "connected_components", "cycle_pattern",
    "diamond_pattern", "find_induced", "independent_pattern", "is_connected",
    "is_p4_free", "parse_pattern", "path_pattern", "random_probe_hfree",
    "sp1_p4_pattern",
    "split_forbidden_patterns", "star_pattern", "two_p2_pattern",
    "verify_probe_certificate",
    # colouring
    "BLUE", "RED", "Colouring", "CutCertificate", "Violation",
    "complete_independent_max_cut", "complete_independent_perfect",
    "max_bipartite_matching", "validate_colouring",
    # oracles
    "backtrack_dcut", "brute_dcut", "brute_mmc", "brute_pmc",
    "brute_probe_certificate", "brute_sat",
    # reductions
    "SatInstance", "bipartite_to_split", "moshi_double", "random_sat_instance",
    "sat_to_4p1", "subdivide4", "validate_sat_shape",
    # solvers
    "SolveReport", "solve_dcut", "solve_mmc", "solve_pmc",
]
