"""Exhaustive ground truth for small sequences.

The swap graph has the feasible sets of one size as nodes, adjacent when
they differ in exactly one element.  `oracle_shortest` searches it
breadth-first from I without building it, and returns None when J is
out of reach, so `lisrc oracle` answers connectivity by that test.
A state is an int bitmask over the indices 1..n, and its neighbours are
read off two tables of per-index masks built once per query (which later
indices hold a larger value, which earlier ones a smaller), at a cost of
O(k) big-int operations per state for sets of size k, plus one per
set generated; the neighbour order, and so the walk found, is that of
dropping each member in turn and adding each index that fits, lowest
first.  The search runs through I's whole component rather than
stopping at J, so a query costs in proportion to the size of that
component, not to how far J lies from I.  The sets one drop away from a
common (k - 1)-set are pairwise one swap apart, so the first state to
drop into that (k - 1)-set discovers all of them, and later states skip
it: each set is generated at most k times, not once per edge.
`enumerate_feasible` materialises every set and serves
`lisrc oracle --enumerate`; `build_reconfig_graph` materialises every
edge and serves the tests.
Every entry point is guarded by a size bound, because the number of
feasible sets can grow exponentially; callers may raise the bound
explicitly.

>>> from lisrc.seqcore import normalize
>>> oracle_shortest(normalize((7, 8, 5, 6)), (1, 2), (3, 4)) is None
True
>>> walk = oracle_shortest(
...     normalize((15, 11, 16, 13, 17, 12, 14)), (1, 3, 5), (2, 6, 7))
>>> len(walk)
4
>>> list(walk.sets())
[(1, 3, 5), (2, 3, 5), (2, 4, 5), (2, 4, 7), (2, 6, 7)]
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import LisrcError, SizeMismatch, TooLarge
from .piles import build_piles
from .reconfig import ReconfSequence, require_pair
from .seqcore import FeasibleSet, Sequence

DEFAULT_BOUND = 16


@dataclass(frozen=True)
class ReconfGraph:
    """All feasible sets of one cardinality, adjacent when one swap apart."""

    nodes: tuple[FeasibleSet, ...]
    edges: tuple[tuple[int, int], ...]


def _require_count(what: str, value: int) -> None:
    """Raise LisrcError unless `value` is an int >= 0; a bool is not an int."""
    if type(value) is not int:
        raise LisrcError(f"{what} must be an int, got {value!r}")
    if value < 0:
        raise LisrcError(f"{what} must be >= 0, got {value}")


def _check_bound(seq: Sequence, bound: int) -> None:
    _require_count("oracle bound", bound)
    if seq.n > bound:
        raise TooLarge(seq.n, bound)


def enumerate_feasible(
    seq: Sequence, size: int, bound: int = DEFAULT_BOUND
) -> list[FeasibleSet]:
    """Every feasible set of the given cardinality, lexicographically sorted.

    The prefixes grow one member per level: each prefix of a level is
    extended by every later index of larger value, ascending, so each
    level stays sorted.  A prefix is the pair (last index, prefix before
    it), ending at the sentinel (0, None), so an extension costs O(1) and
    each set is read off its chain once, at the end.  Member m stops at
    index n - size + m + 1, which leaves room for the members after it.
    """
    _check_bound(seq, bound)
    _require_count("set size", size)
    value = (0, *seq.perm)
    room = seq.n - size + 2
    level: list = [(0, None)]
    for m in range(size):
        level = [
            (i, prefix)
            for prefix in level
            for i in range(prefix[0] + 1, room + m)
            if value[i] > value[prefix[0]]
        ]
    out: list[FeasibleSet] = []
    for prefix in level:
        members = [0] * size
        for m in reversed(range(size)):
            members[m], prefix = prefix
        out.append(tuple(members))
    return out


def build_reconfig_graph(sets: Iterable[FeasibleSet]) -> ReconfGraph:
    """Connect sets that differ in exactly one element.

    Each set is filed under each of its drop-one subsets.  Two sets one
    swap apart share exactly one such subset, their intersection, and
    the sets filed under one subset are pairwise one swap apart unless
    equal, so joining the unequal sets within each bucket gives every
    edge once.  For m sets of size s this costs O(m * s^2) to file the
    subsets and O(s) per pair joined.
    """
    nodes = sorted(tuple(s) for s in sets)
    sizes = {len(s) for s in nodes}
    if len(sizes) > 1:
        raise SizeMismatch(min(sizes), max(sizes))
    buckets: dict[FeasibleSet, list[int]] = {}
    for v, s in enumerate(nodes):
        for r in range(len(s)):
            buckets.setdefault(s[:r] + s[r + 1 :], []).append(v)
    edges = sorted(
        (u, v)
        for bucket in buckets.values()
        for a, u in enumerate(bucket)
        for v in bucket[a + 1 :]
        if nodes[u] != nodes[v]
    )
    return ReconfGraph(nodes=tuple(nodes), edges=tuple(edges))


def _mask_tables(perm: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Per-index bitmasks over the permutation framed by its sentinels.

    With 0 at index 0 and n + 1 at index n + 1, `later_larger[i]` has bit
    j set for every j > i whose value exceeds that at i, and
    `earlier_smaller[i]` bit j for every j < i whose value is below it.
    Each table is filled in one pass over the values, by one growing
    mask of the indices seen so far, so it costs O(n) big-int operations.
    """
    n = len(perm)
    where = [0] * (n + 2)
    for i, v in enumerate(perm, start=1):
        where[v] = i
    where[n + 1] = n + 1
    earlier_smaller = [0] * (n + 2)
    seen = 0
    for i in where:
        earlier_smaller[i] = seen & ((1 << i) - 1)
        seen |= 1 << i
    later_larger = [0] * (n + 2)
    seen = 0
    for i in reversed(where):
        later_larger[i] = seen >> (i + 1) << (i + 1)
        seen |= 1 << i
    return later_larger, earlier_smaller


def oracle_shortest(
    seq: Sequence,
    i_set: Iterable[int],
    j_set: Iterable[int],
    maximum_only: bool = True,
    bound: int = DEFAULT_BOUND,
) -> ReconfSequence | None:
    """One shortest swap sequence, or None if disconnected.

    Breadth-first from I through I's whole component, whether or not J
    lies in it, so the cost of a query follows the size of I's component
    and not d(I, J).  In maximum mode every set of I's size is maximum,
    so the search over all sets of that size is the search over maximum
    sets.  When I = J the walk is empty:

    >>> from lisrc.seqcore import normalize
    >>> oracle_shortest(normalize((2, 1)), (1,), (1,))
    ReconfSequence(start=(1,), removed=(), added=())

    A state is an int with bit i set for each member i.  Framed by the
    sentinels 0 and n + 1, members s_1 < ... < s_k leave k + 1 gaps, and
    the gap between s_g and s_g+1 admits exactly the indices
    `later_larger[s_g] & earlier_smaller[s_g+1]` (`_mask_tables`); `union`
    ORs all k + 1 of them.  Dropping s_r merges its two gaps into the one
    between s_r-1 and s_r+1, whose mask `merged` contains both of them
    and s_r itself, so the indices that may replace s_r are
    `(union | merged) ^ bit(s_r)`.  Candidates are taken lowest bit
    first, and the gaps of the set left after the drop are disjoint
    ranges of consecutive indices in ascending order, so neighbours come
    in the order dropped member, then gap, then index; the walk found is
    fixed by that order.

    The feasible sets that contain a given (k - 1)-set B form a clique:
    any two differ in one index.  When the first of them is expanded,
    dropping its member outside B discovers all the others, so for every
    later one that drop discovers nothing and changes no `prev` entry.
    The search records each B it has dropped to (`dropped`) and skips it
    when it recurs; `prev`, and so the walk, are those of the search
    without the skip.  A state costs O(k) big-int operations to decode
    its members and AND its gaps, and each set is generated at most k
    times, once per member it may lose, rather than once per edge.
    """
    _check_bound(seq, bound)
    ps = build_piles(seq) if maximum_only else None
    members_i, members_j = require_pair(seq, ps, i_set, j_set)
    later_larger, earlier_smaller = _mask_tables(seq.perm)
    top = seq.n + 1
    start = sum(1 << i for i in members_i)
    prev: dict[int, int | None] = {start: None}
    dropped: set[int] = set()
    # The list grows while it is walked, so the walk is a FIFO queue.
    order = [start]
    for s in order:
        members = [0]
        rest = s
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        members.append(top)
        union = 0
        for lo, hi in zip(members, members[1:]):
            union |= later_larger[lo] & earlier_smaller[hi]
        for lo, member, hi in zip(members, members[1:], members[2:]):
            out = 1 << member
            base = s ^ out
            if base in dropped:
                continue
            dropped.add(base)
            into = (union | (later_larger[lo] & earlier_smaller[hi])) ^ out
            while into:
                low = into & -into
                t = base | low
                if t not in prev:
                    prev[t] = s
                    order.append(t)
                into ^= low
    t = sum(1 << i for i in members_j)
    if t not in prev:
        return None
    removed: list[int] = []
    added: list[int] = []
    while (s := prev[t]) is not None:
        removed.append((s & ~t).bit_length() - 1)
        added.append((t & ~s).bit_length() - 1)
        t = s
    return ReconfSequence(
        start=members_i, removed=tuple(removed[::-1]), added=tuple(added[::-1])
    )
