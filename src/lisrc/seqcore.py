"""Sequences of distinct integers and their increasing index sets.

A sequence is stored twice: as the raw values supplied by the caller and as
the rank-normalized permutation of 1..n that all algorithms work on.  Index
sets are 1-based and always reported in terms of the original positions.
Index 0 is reserved for the sentinel element of value 0 that the pile
construction prepends; it never appears in user-facing sets.

`require_feasible` is the only validation of a caller's index set; every
entry point of the package runs it (directly or through
`reconfig.require_maximum`) before touching the set.  The longest
increasing subsequence length is `piles.build_piles(seq).k`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DuplicateValue, IndexOutOfRange, Infeasible

FeasibleSet = tuple[int, ...]


@dataclass(frozen=True)
class Sequence:
    """A sequence of distinct integers plus its rank-normalized form.

    `perm[i]` and `raw[i]` compare identically against any other position,
    so every order-based algorithm may work on `perm` alone.
    """

    raw: tuple[int, ...]
    perm: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.raw)

    def value(self, i: int) -> int:
        """Normalized value at 1-based index `i`; index 0 is the sentinel 0."""
        if not 0 <= i <= len(self.perm):
            raise IndexOutOfRange(i, len(self.perm))
        return 0 if i == 0 else self.perm[i - 1]


def normalize(raw: Iterable[int]) -> Sequence:
    """Build a Sequence, replacing each value by its rank in 1..n.

    >>> normalize((7, 8, 5, 6)).perm
    (3, 4, 1, 2)
    >>> normalize((1, 2, 3)).perm
    (1, 2, 3)
    """
    raw = tuple(raw)
    order = sorted(raw)
    for a, b in zip(order, order[1:]):
        if a == b:
            raise DuplicateValue(a)
    rank = {v: r for r, v in enumerate(order, start=1)}
    return Sequence(raw=raw, perm=tuple(rank[v] for v in raw))


def precedes(seq: Sequence, i: int, j: int) -> bool:
    """Order test on positions: i before j and value(i) below value(j).

    Reflexive: precedes(seq, k, k) is True.  Index 0 stands for the
    sentinel, which precedes every position.

    >>> s = normalize((7, 8, 5, 6))
    >>> precedes(s, 1, 2), precedes(s, 1, 3), precedes(s, 2, 2)
    (True, False, True)
    """
    vi, vj = seq.value(i), seq.value(j)
    return i == j or (i < j and vi < vj)


def require_feasible(seq: Sequence, s: Iterable[int]) -> FeasibleSet:
    """Validate an index set and return it as a sorted tuple.

    The one check every entry point runs on a caller's index set.  Each
    member must be an int in 1..n (a bool, float or str raises
    IndexOutOfRange like an index out of range), and the values at the
    members must increase with position, else Infeasible reports the
    first offending pair.  Repeated members count once.

    >>> require_feasible(normalize((7, 8, 5, 6)), [4, 3])
    (3, 4)
    """
    items = list(s)
    for i in items:
        if type(i) is not int:
            raise IndexOutOfRange(i, seq.n)
    members = tuple(sorted(set(items)))
    for i in members:
        if not 1 <= i <= seq.n:
            raise IndexOutOfRange(i, seq.n)
    perm = seq.perm
    for i, j in zip(members, members[1:]):
        if perm[i - 1] > perm[j - 1]:
            raise Infeasible(i, j, seq.raw[i - 1], seq.raw[j - 1])
    return members


def is_feasible(seq: Sequence, s: Iterable[int]) -> bool:
    """True iff the values at the given positions increase with position.

    The boolean form of `require_feasible`; invalid indices still raise.
    """
    try:
        require_feasible(seq, s)
    except Infeasible:
        return False
    return True
