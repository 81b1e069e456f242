"""Patience-sorting piles with a sentinel, blockers, and pile coordinates.

Every element is dealt onto the leftmost pile whose top value exceeds it.
A sentinel of value 0 at index 0 is dealt first and forms pile 0 on its
own; because normalized values are all >= 1, no real element ever lands
there.  When an element lands on pile t >= 1, the element then on top of
pile t-1 is its blocker.  Blocker chains run leftward pile by pile and
end at the sentinel.

Within a pile, entries from bottom to top have strictly increasing index
and strictly decreasing value, so each pile is an antichain of the
position order and the pile count equals the longest-chain length.

Dealing records only the piles themselves.  The per-element coordinates
(`pile_of`, `depth_of`, `blocker`) follow from the piles and are derived
on first use, in O(n) once per `PileSystem`; the query paths never need
them, since each of their k members is located by one binary search in
its own pile (`reconfig._per_pile`).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .seqcore import FeasibleSet, Sequence


@dataclass(frozen=True)
class PileSystem:
    """Immutable result of dealing one sequence into piles.

    piles[t] lists the 1-based element indices of pile t from bottom to
    top; piles[0] == (0,) is the sentinel pile.  It is the only field.
    pile_of, depth_of and blocker are indexed by element index (slot 0 is
    the sentinel; the sentinel has no blocker, its slot holds -1); they
    and n are computed from the piles on first access and then kept.
    """

    piles: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        """Id of the last pile; equals the maximum feasible-set size."""
        return len(self.piles) - 1

    @cached_property
    def n(self) -> int:
        return sum(map(len, self.piles)) - 1

    @cached_property
    def pile_of(self) -> tuple[int, ...]:
        """Pile id of each element index."""
        pile_of = [0] * (self.n + 1)
        for t, pile in enumerate(self.piles):
            for i in pile:
                pile_of[i] = t
        return tuple(pile_of)

    @cached_property
    def depth_of(self) -> tuple[int, ...]:
        """Depth of each element index in its pile, 0 at the bottom."""
        depth_of = [0] * (self.n + 1)
        for pile in self.piles:
            for d, i in enumerate(pile):
                depth_of[i] = d
        return tuple(depth_of)

    @cached_property
    def blocker(self) -> tuple[int, ...]:
        """The top of pile t - 1 when each element landed on pile t.

        That top is the last entry of pile t - 1 dealt before the element,
        so one merge of the two index-sorted piles finds it for every
        entry of pile t.
        """
        blocker = [-1] * (self.n + 1)
        for below, pile in zip(self.piles, self.piles[1:]):
            j, last = 0, len(below) - 1
            for i in pile:
                while j < last and below[j + 1] < i:
                    j += 1
                blocker[i] = below[j]
        return tuple(blocker)

    def entries(self, seq: Sequence, t: int) -> list[tuple[int, int]]:
        """Pile t as (index, raw value) pairs, bottom to top.

        The sentinel appears as (0, 0); it has no raw value of its own.
        """
        return [(i, seq.raw[i - 1] if i else 0) for i in self.piles[t]]


def build_piles(seq: Sequence) -> PileSystem:
    """Deal the sequence (sentinel first) into piles.

    O(n log n): one binary search over the pile tops per element finds
    the leftmost pile whose top exceeds it.  Only the piles and their top
    values are kept while dealing; the per-element coordinates are
    derived from the piles when first read.

    >>> from lisrc.seqcore import normalize
    >>> ps = build_piles(normalize((7, 8, 5, 6)))
    >>> ps.piles
    ((0,), (1, 3), (2, 4))
    >>> ps.pile_of
    (0, 1, 2, 1, 2)
    """
    piles: list[list[int]] = [[0]]
    tops = [0]
    k = 0
    for i, v in enumerate(seq.perm, 1):
        t = bisect_right(tops, v)
        if t > k:
            k = t
            piles.append([i])
            tops.append(v)
        else:
            piles[t].append(i)
            tops[t] = v
    return PileSystem(piles=tuple(map(tuple, piles)))


def extract_canonical_max(ps: PileSystem) -> FeasibleSet:
    """One maximum feasible set: blocker chain from the bottom of the last pile.

    Deterministic; any entry of the last pile would start a valid chain,
    the bottom entry is the fixed choice here.  The sentinel is dropped
    from the result.
    """
    chain: list[int] = []
    cur = ps.piles[ps.k][0]
    while cur != 0:
        chain.append(cur)
        cur = ps.blocker[cur]
    return tuple(sorted(chain))
