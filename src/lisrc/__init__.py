"""Reconfiguration between longest increasing subsequences.

Decide whether one maximum increasing index set can be turned into
another by single element swaps, produce witness sequences, compute
provably shortest sequences when every patience pile holds at most two
entries, and cross-check everything against an exhaustive oracle.
"""

from .bipartite import MixedPile, NoSequence, shortest_sequence
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
from .oracle import DEFAULT_BOUND, enumerate_feasible, oracle_shortest
from .piles import PileSystem, build_piles
from .reconfig import Answer, ReconfSequence, reconfigure
from .seqcore import FeasibleSet, Sequence, normalize, require_feasible

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "DEFAULT_BOUND",
    "DuplicateValue",
    "FeasibleSet",
    "IndexOutOfRange",
    "Infeasible",
    "LisrcError",
    "MixedPile",
    "NoSequence",
    "NotMaximum",
    "ParseError",
    "PileSystem",
    "ReconfSequence",
    "Sequence",
    "SizeMismatch",
    "TallPile",
    "TooLarge",
    "build_piles",
    "enumerate_feasible",
    "normalize",
    "oracle_shortest",
    "reconfigure",
    "require_feasible",
    "shortest_sequence",
]
