"""Patience-sorting piles with a sentinel, and uniform maximum sets.

Every element is dealt onto the leftmost pile whose top value exceeds it.
A sentinel of value 0 at index 0 is dealt first and forms pile 0 on its
own; because normalized values are all >= 1, no real element ever lands
there.

Within a pile, entries from bottom to top have strictly increasing index
and strictly decreasing value, so each pile is an antichain of the
position order and the pile count equals the longest-chain length.

Dealing records only the piles themselves, and a `PileSystem` keeps
nothing else: no values, which `lisrc piles` reads from the sequence.
Each query locates the members of its two sets by one binary search
per pile, and a second where the sets differ (`reconfig._placed`).
`random_max_sets` counts the maximum sets through each entry and draws
them uniformly; it serves `lisrc gen` and no query.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from random import Random
from typing import Iterator

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


def random_max_sets(
    seq: Sequence, ps: PileSystem, rng: Random
) -> Iterator[FeasibleSet]:
    """Independent draws, each uniform over all maximum feasible sets.

    A maximum set is a chain with one entry per pile, each after an
    entry of the pile to its left with a smaller index and value.  On
    pile t - 1 indices rise and values fall with depth, so entry d of
    pile t follows the depths [lo, hi) there: lo is the first of smaller
    value, hi the first of index at least d's.  Both ends rise with d,
    so two pointers find every range in one O(n) sweep; none is empty,
    as it holds the top of pile t - 1 when d was dealt.  `counts[t]`
    holds prefix sums over pile t of the chains ending at each entry.

    A draw walks down from the last pile, picking within the range that
    the entry above allows, each entry with probability its chain count
    over the range's total.  The product telescopes to one over the
    number of maximum sets, whichever set is drawn.  The table is built
    once, before the first draw; a draw costs O(k log n).

    >>> from itertools import islice
    >>> from lisrc.seqcore import normalize
    >>> seq = normalize((7, 8, 5, 6))
    >>> draws = random_max_sets(seq, build_piles(seq), Random(1))
    >>> sorted(set(islice(draws, 50)))
    [(1, 2), (3, 4)]
    """
    value = (0, *seq.perm)
    counts = [[0, 1]]
    ranges: list[list[tuple[int, int]]] = [[]]
    for below, pile in zip(ps.piles, ps.piles[1:]):
        under = counts[-1]
        sums, spans = [0], []
        lo = hi = 0
        for i in pile:
            while hi < len(below) and below[hi] < i:
                hi += 1
            while value[below[lo]] > value[i]:
                lo += 1
            sums.append(sums[-1] + under[hi] - under[lo])
            spans.append((lo, hi))
        counts.append(sums)
        ranges.append(spans)
    while True:
        chain = []
        lo, hi = 0, len(ps.piles[-1])
        for t in range(ps.k, 0, -1):
            sums = counts[t]
            d = bisect_right(sums, sums[lo] + rng.randrange(sums[hi] - sums[lo])) - 1
            chain.append(ps.piles[t][d])
            lo, hi = ranges[t][d]
        yield tuple(reversed(chain))
