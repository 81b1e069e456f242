"""Reconfiguration between longest increasing subsequences.

Decide whether one maximum increasing index set can be turned into
another by single element swaps, produce witness sequences, compute
provably shortest sequences when the underlying permutation graph is
bipartite, and cross-check everything against an exhaustive oracle.
"""

from .bipartite import (
    Bipartition,
    MixedPile,
    NoSequence,
    NotBipartite,
    OddCycle,
    PermutationGraph,
    build_graph,
    find_forbidden_pair,
    mixed_piles,
    shortest_sequence,
    two_coloring,
)
from .errors import (
    DuplicateValue,
    GenerationFailed,
    IndexOutOfRange,
    Infeasible,
    LisrcError,
    NotMaximum,
    ParseError,
    SizeMismatch,
    TooLarge,
)
from .oracle import (
    DEFAULT_BOUND,
    ReconfGraph,
    build_reconfig_graph,
    connected_components,
    enumerate_feasible,
    oracle_decide,
    oracle_shortest,
)
from .piles import (
    PileSystem,
    build_piles,
    extract_canonical_max,
    pile_coord,
    placement_pile,
)
from .reconfig import (
    Answer,
    ReconfSequence,
    SwapStep,
    apply_step,
    decide,
    downward_moves,
    is_maximum_feasible,
    minimal_set,
    reconfigure,
    witness,
)
from .seqcore import (
    FeasibleSet,
    Sequence,
    is_feasible,
    normalize,
    precedes,
    require_feasible,
)

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "Bipartition",
    "DEFAULT_BOUND",
    "DuplicateValue",
    "FeasibleSet",
    "GenerationFailed",
    "IndexOutOfRange",
    "Infeasible",
    "LisrcError",
    "MixedPile",
    "NoSequence",
    "NotBipartite",
    "NotMaximum",
    "OddCycle",
    "ParseError",
    "PermutationGraph",
    "PileSystem",
    "ReconfGraph",
    "ReconfSequence",
    "Sequence",
    "SizeMismatch",
    "SwapStep",
    "TooLarge",
    "apply_step",
    "build_graph",
    "build_piles",
    "build_reconfig_graph",
    "connected_components",
    "decide",
    "downward_moves",
    "enumerate_feasible",
    "extract_canonical_max",
    "find_forbidden_pair",
    "is_feasible",
    "is_maximum_feasible",
    "minimal_set",
    "mixed_piles",
    "normalize",
    "oracle_decide",
    "oracle_shortest",
    "pile_coord",
    "placement_pile",
    "precedes",
    "reconfigure",
    "require_feasible",
    "shortest_sequence",
    "two_coloring",
    "witness",
]
