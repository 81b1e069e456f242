"""Exhaustive ground truth for small sequences.

The swap graph has the feasible sets of one size as nodes, adjacent when
they differ in exactly one element.  `oracle_shortest` and
`oracle_decide` search it breadth-first from I without building it:
each set's neighbours are generated on the fly.  The search runs
through I's whole component rather than stopping at J, so a query costs
in proportion to the size of that component, not to how far J lies from
I.  `enumerate_feasible` and `build_reconfig_graph` materialise every
set and every edge; they serve `lisrc oracle --enumerate` and `--dot`.
Every entry point is guarded by a size bound, because the number of
feasible sets can grow exponentially; callers may raise the bound
explicitly.

>>> from lisrc.seqcore import normalize
>>> oracle_shortest(normalize((7, 8, 5, 6)), (1, 2), (3, 4)) is None
True
>>> length, walk = oracle_shortest(
...     normalize((15, 11, 16, 13, 17, 12, 14)), (1, 3, 5), (2, 6, 7))
>>> length
4
>>> list(walk.sets())
[(1, 3, 5), (2, 3, 5), (2, 4, 5), (2, 4, 7), (2, 6, 7)]
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SizeMismatch, TooLarge
from .piles import build_piles
from .reconfig import ReconfSequence, require_pair
from .seqcore import FeasibleSet, Sequence

DEFAULT_BOUND = 16


@dataclass(frozen=True)
class ReconfGraph:
    """All feasible sets of one cardinality, adjacent when one swap apart."""

    nodes: tuple[FeasibleSet, ...]
    edges: tuple[tuple[int, int], ...]


def _check_bound(seq: Sequence, bound: int) -> None:
    if seq.n > bound:
        raise TooLarge(seq.n, bound)


def enumerate_feasible(
    seq: Sequence, size: int, bound: int = DEFAULT_BOUND
) -> list[FeasibleSet]:
    """Every feasible set of the given cardinality, lexicographically sorted.

    A depth-first search over increasing prefixes, trying indices in
    ascending order, so the sets come out sorted.  The search keeps its
    own stack, one index range per prefix member, so the prefix length
    (up to n) is not bounded by Python's recursion limit.
    """
    _check_bound(seq, bound)
    if size == 0:
        return [()]
    perm, n = seq.perm, seq.n
    out: list[FeasibleSet] = []
    prefix: list[int] = []
    # ranges[m]: the indices still to try at position m of the prefix,
    # leaving enough positions after them to reach the target size.
    ranges = [iter(range(1, n - size + 2))]
    while ranges:
        last_value = perm[prefix[-1] - 1] if prefix else 0
        for i in ranges[-1]:
            if perm[i - 1] > last_value:
                if len(prefix) + 1 == size:
                    out.append((*prefix, i))
                    continue
                prefix.append(i)
                ranges.append(iter(range(i + 1, n - size + len(prefix) + 2)))
                break
        else:
            ranges.pop()
            if prefix:
                prefix.pop()
    return out


def build_reconfig_graph(sets: Iterable[FeasibleSet]) -> ReconfGraph:
    """Connect sets that differ in exactly one element.

    Neighbors are generated, not scanned pairwise: for m sets of size s
    this costs O(m * s * n) dictionary lookups.
    """
    nodes = sorted(tuple(s) for s in sets)
    sizes = {len(s) for s in nodes}
    if len(sizes) > 1:
        raise SizeMismatch(min(sizes), max(sizes))
    index = {s: i for i, s in enumerate(nodes)}
    universe = sorted({i for s in nodes for i in s})
    edges = set()
    for s in nodes:
        u = index[s]
        members = set(s)
        for out in s:
            rest = members - {out}
            for into in universe:
                if into in members:
                    continue
                v = index.get(tuple(sorted(rest | {into})))
                if v is not None and v != u:
                    edges.add((min(u, v), max(u, v)))
    return ReconfGraph(nodes=tuple(nodes), edges=tuple(sorted(edges)))


def _neighbours(perm: tuple[int, ...], s: FeasibleSet) -> Iterator[FeasibleSet]:
    """Every feasible set one swap away from the sorted set `s`.

    `perm` is the permutation framed by its sentinels: 0 at index 0 and
    n + 1 at index n + 1.  Dropping `s[r]` leaves `rest`; an index
    strictly inside a gap (lo, hi) of the framed `rest` keeps it
    increasing exactly when its value lies between perm[lo] and
    perm[hi], and inserting it at that gap keeps the tuple sorted.  A
    neighbour determines both the dropped member and the added index, so
    each one is generated once.
    """
    last = len(perm) - 1
    for r, out in enumerate(s):
        rest = s[:r] + s[r + 1 :]
        frame = (0, *rest, last)
        for g in range(len(rest) + 1):
            lo, hi = frame[g], frame[g + 1]
            low, high = perm[lo], perm[hi]
            head, tail = rest[:g], rest[g:]
            for into in range(lo + 1, hi):
                if into != out and low < perm[into] < high:
                    yield head + (into,) + tail


def oracle_decide(
    seq: Sequence,
    i_set: Iterable[int],
    j_set: Iterable[int],
    maximum_only: bool = True,
    bound: int = DEFAULT_BOUND,
) -> bool:
    """Whether J is reachable from I in the swap graph."""
    return oracle_shortest(seq, i_set, j_set, maximum_only, bound) is not None


def oracle_shortest(
    seq: Sequence,
    i_set: Iterable[int],
    j_set: Iterable[int],
    maximum_only: bool = True,
    bound: int = DEFAULT_BOUND,
) -> tuple[int, ReconfSequence] | None:
    """Minimal swap count and one shortest sequence, or None if disconnected.

    Breadth-first from I over neighbours generated by `_neighbours`,
    through I's whole component.  In maximum mode every set of I's size
    is maximum, so the search over all sets of that size is the search
    over maximum sets.
    """
    _check_bound(seq, bound)
    ps = build_piles(seq) if maximum_only else None
    members_i, members_j = require_pair(seq, ps, i_set, j_set)
    perm = (0, *seq.perm, seq.n + 1)
    prev: dict[FeasibleSet, FeasibleSet | None] = {members_i: None}
    queue = deque([members_i])
    while queue:
        s = queue.popleft()
        for t in _neighbours(perm, s):
            if t not in prev:
                prev[t] = s
                queue.append(t)
    if members_j not in prev:
        return None
    removed: list[int] = []
    added: list[int] = []
    t = members_j
    while (s := prev[t]) is not None:
        (out,) = set(s) - set(t)
        (into,) = set(t) - set(s)
        removed.append(out)
        added.append(into)
        t = s
    walk = ReconfSequence(
        start=members_i, removed=tuple(removed[::-1]), added=tuple(added[::-1])
    )
    return len(walk), walk
