"""Reconfiguration between longest increasing subsequences.

Decide whether one maximum increasing index set can be turned into
another by single element swaps, produce witness sequences, compute
provably shortest sequences when every patience pile holds at most two
entries, and cross-check everything against an exhaustive oracle.
"""

from .bipartite import (
    Bipartition,
    MixedPile,
    NoSequence,
    NotBipartite,
    PermutationGraph,
    build_graph,
    find_forbidden_pair,
    mixed_piles,
    shortest_sequence,
    two_coloring,
)
from .errors import (
    DuplicateValue,
    IndexOutOfRange,
    Infeasible,
    LisrcError,
    NotMaximum,
    ParseError,
    SizeMismatch,
    TallPile,
    TooLarge,
)
from .oracle import (
    DEFAULT_BOUND,
    ReconfGraph,
    build_reconfig_graph,
    enumerate_feasible,
    oracle_shortest,
)
from .piles import PileSystem, build_piles
from .reconfig import (
    Answer,
    ReconfSequence,
    minimal_set,
    reconfigure,
)
from .seqcore import (
    FeasibleSet,
    Sequence,
    is_feasible,
    normalize,
    require_feasible,
)

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "Bipartition",
    "DEFAULT_BOUND",
    "DuplicateValue",
    "FeasibleSet",
    "IndexOutOfRange",
    "Infeasible",
    "LisrcError",
    "MixedPile",
    "NoSequence",
    "NotBipartite",
    "NotMaximum",
    "ParseError",
    "PermutationGraph",
    "PileSystem",
    "ReconfGraph",
    "ReconfSequence",
    "Sequence",
    "SizeMismatch",
    "TallPile",
    "TooLarge",
    "build_graph",
    "build_piles",
    "build_reconfig_graph",
    "enumerate_feasible",
    "find_forbidden_pair",
    "is_feasible",
    "minimal_set",
    "mixed_piles",
    "normalize",
    "oracle_shortest",
    "reconfigure",
    "require_feasible",
    "shortest_sequence",
    "two_coloring",
]
