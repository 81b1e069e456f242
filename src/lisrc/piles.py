"""Patience-sorting piles with a sentinel, and blocker chains.

Every element is dealt onto the leftmost pile whose top value exceeds it.
A sentinel of value 0 at index 0 is dealt first and forms pile 0 on its
own; because normalized values are all >= 1, no real element ever lands
there.  When an element lands on pile t >= 1, the element then on top of
pile t-1 is its blocker.  Blocker chains run leftward pile by pile and
end at the sentinel.

Within a pile, entries from bottom to top have strictly increasing index
and strictly decreasing value, so each pile is an antichain of the
position order and the pile count equals the longest-chain length.

Dealing records only the piles themselves, and a `PileSystem` keeps
nothing else.  Each query locates its k members by one binary search in
their own piles (`reconfig._placed`), and a blocker is found the same
way: it is the last entry of pile t - 1 whose index is below the
element's.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .seqcore import FeasibleSet, Sequence


@dataclass(frozen=True)
class PileSystem:
    """Immutable result of dealing one sequence into piles.

    piles[t] lists the 1-based element indices of pile t from bottom to
    top; piles[0] == (0,) is the sentinel pile.  It is the only field.
    """

    piles: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        """Id of the last pile; equals the maximum feasible-set size."""
        return len(self.piles) - 1

    def entries(self, seq: Sequence, t: int) -> list[tuple[int, int]]:
        """Pile t as (index, raw value) pairs, bottom to top.

        The sentinel appears as (0, 0); it has no raw value of its own.
        """
        return [(i, seq.raw[i - 1] if i else 0) for i in self.piles[t]]


def build_piles(seq: Sequence) -> PileSystem:
    """Deal the sequence (sentinel first) into piles.

    O(n log n): one binary search over the pile tops per element finds
    the leftmost pile whose top exceeds it.  Only the piles and their top
    values are kept while dealing.

    >>> from lisrc.seqcore import normalize
    >>> ps = build_piles(normalize((7, 8, 5, 6)))
    >>> ps.piles
    ((0,), (1, 3), (2, 4))
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
    the bottom entry is the fixed choice here.  The blocker of i on pile
    t, the top of pile t - 1 when i was dealt, is the last entry of pile
    t - 1 with a smaller index: one binary search per pile, O(k log n).
    The sentinel is dropped from the result.

    >>> from lisrc.seqcore import normalize
    >>> extract_canonical_max(build_piles(normalize((7, 8, 5, 6))))
    (1, 2)
    """
    chain: list[int] = []
    cur = ps.piles[ps.k][0]
    for below in reversed(ps.piles[: ps.k]):
        chain.append(cur)
        cur = below[bisect_left(below, cur) - 1]
    return tuple(reversed(chain))
