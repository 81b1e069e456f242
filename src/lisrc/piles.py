"""Patience-sorting piles with a sentinel, blockers, and pile coordinates.

Every element is dealt onto the leftmost pile whose top value exceeds it.
A sentinel of value 0 at index 0 is dealt first and forms pile 0 on its
own; because normalized values are all >= 1, no real element ever lands
there.  When an element lands on pile t >= 1, the element currently on top
of pile t-1 is recorded as its blocker.  Blocker chains run leftward pile
by pile and end at the sentinel.

Within a pile, entries from bottom to top have strictly increasing index
and strictly decreasing value, so each pile is an antichain of the
position order and the pile count equals the longest-chain length.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import IndexOutOfRange
from .seqcore import FeasibleSet, Sequence


@dataclass(frozen=True)
class PileSystem:
    """Immutable result of dealing one sequence into piles.

    piles[t] lists the 1-based element indices of pile t from bottom to
    top; piles[0] == (0,) is the sentinel pile.  pile_of, depth_of and
    blocker are indexed by element index (slot 0 is the sentinel; the
    sentinel has no blocker, its slot holds -1).
    """

    piles: tuple[tuple[int, ...], ...]
    pile_of: tuple[int, ...]
    depth_of: tuple[int, ...]
    blocker: tuple[int, ...]

    @property
    def k(self) -> int:
        """Id of the last pile; equals the maximum feasible-set size."""
        return len(self.piles) - 1

    @property
    def n(self) -> int:
        return len(self.pile_of) - 1

    def entries(self, seq: Sequence, t: int) -> list[tuple[int, int]]:
        """Pile t as (index, raw value) pairs, bottom to top.

        The sentinel appears as (0, 0); it has no raw value of its own.
        """
        return [(i, seq.raw[i - 1] if i else 0) for i in self.piles[t]]


def placement_pile(tops: list[int], v: int) -> int:
    """Leftmost pile whose top exceeds v, given the current pile tops.

    `tops` must be strictly increasing; returns len(tops) when every top
    is below v, i.e. a new pile is opened.

    >>> placement_pile([0, 7, 8], 5)
    1
    >>> placement_pile([0], 9)
    1
    >>> placement_pile([0, 5, 8], 6)
    2
    """
    return bisect_right(tops, v)


def build_piles(seq: Sequence) -> PileSystem:
    """Deal the sequence (sentinel first) into piles.

    O(n log n): one binary search over the pile tops per element, the
    search of `placement_pile` inlined.  An element's depth is the height
    of its pile before it lands, and its blocker is read off `top_index`,
    the index of each pile's current top.
    """
    n = seq.n
    piles: list[list[int]] = [[0]]
    tops = [0]
    top_index = [0]
    pile_of = [0] * (n + 1)
    depth_of = [0] * (n + 1)
    blocker = [-1] * (n + 1)
    k = 0
    for i, v in enumerate(seq.perm, 1):
        t = bisect_right(tops, v)
        blocker[i] = top_index[t - 1]
        pile_of[i] = t
        if t > k:
            k = t
            piles.append([i])
            tops.append(v)
            top_index.append(i)
        else:
            pile = piles[t]
            depth_of[i] = len(pile)
            pile.append(i)
            tops[t] = v
            top_index[t] = i
    return PileSystem(
        piles=tuple(map(tuple, piles)),
        pile_of=tuple(pile_of),
        depth_of=tuple(depth_of),
        blocker=tuple(blocker),
    )


def pile_coord(ps: PileSystem, i: int) -> tuple[int, int]:
    """(pile id, depth from the bottom) of element index i; 0 is the sentinel."""
    if not 0 <= i <= ps.n:
        raise IndexOutOfRange(i, ps.n)
    return ps.pile_of[i], ps.depth_of[i]


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
