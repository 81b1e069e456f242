"""Reconfiguration between maximum feasible sets by single swaps.

A maximum feasible set holds exactly one element per pile, and any single
swap between two maximum feasible sets stays inside one pile.  A swap is
"downward" when the incoming element sits strictly below the outgoing one
(closer to the pile bottom).  Exhaustively applying downward swaps always
reaches the same fixed point no matter which applicable swap is taken
first, so that fixed point is a canonical representative: two maximum
feasible sets can be reconfigured into each other exactly when their
representatives coincide.

Descent order is fixed for reproducible traces: always the lowest pile id
that admits a move, and within that pile the deepest reachable entry.

The witness turns at I∧J, the per-pile minimum of I and J, instead of at
the representative.  Proof sketch, with a maximum set read as its vector
of per-pile depths:

- Lattice.  Pile entries rise in index and fall in value with depth, so
  the depth pairs allowed on two neighbouring piles form a band whose
  two edges are nondecreasing.  Hence the per-pile minimum and maximum
  of two maximum sets are maximum sets: the maximum sets form a
  distributive lattice (Dilworth's lattice of maximum antichains, applied
  to the conjugate order).  Lowering a pile only widens its neighbours'
  room downward, and a fixed per-pile floor keeps that true, so the
  descent clamped to a floor is confluent as well: from I it ends at the
  least set that I reaches by downward moves within [m, ∞), m = I∧J.
- m is reached on YES.  If I and J are connected, both descend to one
  representative b, and b ≤ m.  Map each set x on I's descent to x ∨ m.
  Each step becomes either no step or one downward single-pile change,
  and the mapped walk runs from I ∨ m = I to b ∨ m = m.  So the clamped
  fixed point is ≤ m, and the floor makes it ≥ m.
- NO.  If both clamped descents end at the same set, I's half joined
  with J's half reversed connects I and J; so on NO they end apart.

`reconfigure` is the one query: it returns an `Answer`, which holds a
walk when the representatives coincide and computes the representatives
only when they are read; callers read the walk off it.  The two sets of
one query are validated by `require_pair`, built on
`seqcore.require_feasible`.  `minimal_set`, the descent of one set,
serves only the tests and the benchmark's span tracer.

Cost of a query once the piles are dealt: O(k) C-level passes to
validate each set (`require_feasible`), one pass over the piles that
places both sets and takes I∧J (`_placed`), with one binary search per
pile and a second where I and J differ, and the clamped descents,
O(k + moves·log n) (`_descend`).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .errors import NotMaximum, SizeMismatch
from .piles import PileSystem, build_piles
from .seqcore import FeasibleSet, Sequence, require_feasible

# bench/spans.py wraps `is_feasible` in this namespace, so it stays
# importable from here although nothing in this module calls it.
from .seqcore import is_feasible  # noqa: F401


@dataclass(frozen=True)
class ReconfSequence:
    """A start set plus an ordered list of single swaps, stored flat.

    Step t drops `removed[t]` and inserts `added[t]`; the two tuples have
    equal length.  A walk of L steps thus holds 2L ints and no per-step
    object.
    """

    start: FeasibleSet
    removed: tuple[int, ...]
    added: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.removed) != len(self.added):
            raise ValueError(
                f"{len(self.removed)} removed but {len(self.added)} added indices"
            )

    def __len__(self) -> int:
        return len(self.removed)

    def sets(self) -> Iterator[FeasibleSet]:
        """Yield every set along the sequence as a sorted tuple, the start included.

        The replay of `_replay`, then one O(k) copy per step, so the whole
        replay costs what printing its sets costs.  A step that does not
        apply raises ValueError, after the sets before it were yielded.

        >>> walk = ReconfSequence(start=(1, 3, 5), removed=(1, 3, 5, 4),
        ...                       added=(2, 4, 7, 6))
        >>> for s in walk.sets():
        ...     print(s)
        (1, 3, 5)
        (2, 3, 5)
        (2, 4, 5)
        (2, 4, 7)
        (2, 6, 7)
        """
        yield tuple(sorted(self.start))
        for cur, _, _ in self._replay():
            yield tuple(cur)

    def _replay(self) -> Iterator[tuple[list[int], int, int]]:
        """Apply the steps to one sorted list, edited in place.

        After each step, yields the list, the slot `remove` left and the
        slot `add` took.  Each step finds `remove` by binary search.  When
        `add` fits between the neighbours of that slot, as on every step
        between maximum sets (the new member stays on the same pile), it
        is written there in O(1).  Otherwise a second search finds the
        slot of `add`, then a delete and an insert move the members
        between, O(k): `add` may land in another slot than `remove` left,
        as in walks between non-maximum sets.  A step that does not apply
        raises ValueError.  `sets` reads this replay; the CLI's text walk
        makes the same same-slot test itself and replays here, one step
        at a time, only a step that fails it, for the error.
        """
        cur = sorted(self.start)
        last = len(cur) - 1
        for remove, add in zip(self.removed, self.added):
            i = bisect_left(cur, remove)
            if i <= last and cur[i] == remove:
                if (
                    add != remove
                    and (i == 0 or cur[i - 1] < add)
                    and (i == last or add < cur[i + 1])
                ):
                    cur[i] = add
                    yield cur, i, i
                    continue
                j = bisect_left(cur, add)
                if j > last or cur[j] != add:
                    if j > i:
                        j -= 1
                    del cur[i]
                    cur.insert(j, add)
                    yield cur, i, j
                    continue
            raise ValueError(f"swap {remove} -> {add} does not apply to {tuple(cur)}")


def _require_size(ps: PileSystem, members: FeasibleSet) -> FeasibleSet:
    """Raise NotMaximum unless the feasible set `members` has size `ps.k`."""
    if len(members) != ps.k:
        raise NotMaximum(
            f"{members} has size {len(members)}, maximum feasible size is {ps.k}"
        )
    return members


def require_pair(
    seq: Sequence, ps: PileSystem | None, i_set: Iterable[int], j_set: Iterable[int]
) -> tuple[FeasibleSet, FeasibleSet]:
    """Validate the two sets of one query, in a fixed order.

    Both must be feasible (IndexOutOfRange, Infeasible), of equal size
    (SizeMismatch), and, unless `ps` is None, maximum (NotMaximum).  Each
    set goes through `require_feasible` once, and this is the only check
    of a request's sets: the CLI's query subcommands pass them as read
    (`cli.read_instance`).
    """
    members_i = require_feasible(seq, i_set)
    members_j = require_feasible(seq, j_set)
    if len(members_i) != len(members_j):
        raise SizeMismatch(len(members_i), len(members_j))
    if ps is not None:
        _require_size(ps, members_i)
        _require_size(ps, members_j)
    return members_i, members_j


def _placed(
    ps: PileSystem, members_i: FeasibleSet, members_j: FeasibleSet
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Both sets on the piles in one pass, and their meet I∧J.

    Returns the member on each pile and its depth there for I, the same
    for J (slot 0: sentinel), and the per-pile minimum of the two depths.
    `members_i` and `members_j` are sorted maximum feasible sets, and the
    t-th member of each lies on pile t.  Proof sketch: an element's pile
    id is the length of the longest increasing run of positions ending at
    it (the sentinel not counted), so along an increasing sequence pile
    ids strictly increase; a set of size k meets k distinct piles among
    1..k, in member order.  One binary search per pile (piles are sorted
    by index) gives the depth of I's member, a second one, on a pile
    where J's member differs, the depth of J's: k + 1 + |I \\ J| searches
    in all, beside O(k) list building.  Each member of either set is
    asserted to lie on its pile, a shared one by its one search, without
    the per-element pile ids.  Callers pass validated sets, so no result
    depends on the assertion.  `_to_bottom` passes one set twice.
    """
    chosen_i = [0, *members_i]
    chosen_j = [0, *members_j]
    message = "maximum feasible set must hit each pile once"
    assert len(chosen_i) == len(ps.piles) == len(chosen_j), message
    depth_i: list[int] = []
    depth_j: list[int] = []
    meet: list[int] = []
    for pile, i, j in zip(ps.piles, chosen_i, chosen_j):
        a = bisect_left(pile, i)
        assert a < len(pile) and pile[a] == i, message
        if i == j:
            b = a
        else:
            b = bisect_left(pile, j)
            assert b < len(pile) and pile[b] == j, message
        depth_i.append(a)
        depth_j.append(b)
        meet.append(a if a < b else b)
    return chosen_i, depth_i, chosen_j, depth_j, meet


def _lowest_depth(
    perm: tuple[int, ...],
    pile_idx: tuple[int, ...],
    left_index: int,
    right_value: int,
    d: int,
    floor: int,
) -> int:
    """Lowest depth in [floor, d) that the member at depth `d` can move to, else `d`.

    The move must keep the set increasing: the new entry must come after
    `left_index`, the member of the pile to the left, and its value must be
    below `right_value`, the value of the member of the pile to the right
    (n + 1 for the last pile).  Pile entries increase in index and decrease
    in value with depth, so each constraint admits a suffix of depths: the
    index constraint the depths from `bisect_right(pile_idx, left_index)`
    on, the value constraint those from the first depth whose value is
    below `right_value` on.  Their intersection is a suffix too, starting at
    the larger of the two.  Any depth from `d` up already meets both, the
    current member among them, so only depths in [floor, d) can be
    targets: the index search is bounded to [floor, d), which makes its
    result at least `floor`, and the value search to the depths between
    that result and `d`.  The answer is the larger of `floor` and the
    suffix's first depth when that is below `d`, and `d` (no move)
    exactly when it is not.  The argument needs only that depth `d`
    fits: `_descend` passes the depth just below the member once it has
    seen that one fit.
    """
    lo = bisect_right(pile_idx, left_index, floor, d)
    hi = d
    while lo < hi:
        mid = (lo + hi) // 2
        if perm[pile_idx[mid] - 1] < right_value:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _descend(
    perm: tuple[int, ...],
    piles: tuple[tuple[int, ...], ...],
    chosen: list[int],
    depth: list[int],
    floor: list[int],
) -> tuple[list[int], list[int]]:
    """Greedy descent in which no pile goes below its depth in `floor`.

    Edits `chosen` and `depth` (as `_placed` builds them) in place to the
    fixed point and returns the removed and the added index of each move.
    The lowest pile id that admits a move goes first, to the lowest
    reachable depth not below its floor (`_lowest_depth`).  A cursor
    sweeps the piles from pile 1, and no pile left of it admits a move.
    A move changes the room of its two neighbours only, and the pile
    itself cannot move again until one of them does, so after a move the
    cursor steps back one pile (not below 1), and otherwise forward: at
    most k + 2·moves examinations.  An examination first tests the one
    entry just below the member in O(1): by `_lowest_depth`'s suffix
    argument, when that entry does not fit no deeper one does, and when
    it fits the search finds a move.  So every O(log n) search moves a
    pile, and the descent costs O(k + moves·log n).  The last pile,
    k = len(piles) - 1, has the value n + 1 as its bound on the right.
    """
    k = len(piles) - 1
    last_value = len(perm) + 1
    removed: list[int] = []
    added: list[int] = []
    t = 1
    while t <= k:
        d = depth[t]
        if d <= floor[t]:
            t += 1
            continue
        pile_idx = piles[t]
        left_index = chosen[t - 1]
        right_value = perm[chosen[t + 1] - 1] if t < k else last_value
        below = pile_idx[d - 1]
        if below < left_index or perm[below - 1] > right_value:
            t += 1
            continue
        lo = _lowest_depth(perm, pile_idx, left_index, right_value, d - 1, floor[t])
        u = pile_idx[lo]
        removed.append(chosen[t])
        added.append(u)
        chosen[t] = u
        depth[t] = lo
        if t > 1:
            t -= 1
    return removed, added


def _to_bottom(
    seq: Sequence, ps: PileSystem, members: FeasibleSet
) -> tuple[FeasibleSet, list[int], list[int]]:
    """`_descend` from the validated maximum set `members`, floor 0 on every pile.

    Returns the fixed point and the removed and the added index of each
    move.
    """
    chosen, depth = _placed(ps, members, members)[:2]
    removed, added = _descend(seq.perm, ps.piles, chosen, depth, [0] * len(depth))
    # Every move keeps the set increasing, so pile order is index order.
    return tuple(chosen[1:]), removed, added


def minimal_set(
    seq: Sequence, ps: PileSystem, s: Iterable[int]
) -> tuple[FeasibleSet, ReconfSequence]:
    """Greedy descent to the unique set admitting no downward move.

    Validates `s` (`require_feasible`, then NotMaximum unless its size is
    `ps.k`) and returns the fixed point and the executed descent, a walk
    from `s` whose length is the move count.  Each move takes the lowest
    pile id that admits one, to its deepest reachable entry, in
    O(k + moves·log n) in all.
    """
    members = _require_size(ps, require_feasible(seq, s))
    fixed, removed, added = _to_bottom(seq, ps, members)
    return fixed, ReconfSequence(
        start=members, removed=tuple(removed), added=tuple(added)
    )


@dataclass(frozen=True, eq=False)
class Answer:
    """On YES a walk from I to J, and both canonical representatives on demand.

    `walk` is None exactly when the representatives differ (NO).  The walk
    descends from I to I∧J, the per-pile minimum of I and J, and then
    climbs from I∧J to J along J's descent to I∧J run backwards; it need
    not be length-minimal, but it never passes below I∧J.

    `minimal_i` and `minimal_j` are computed on their first read and then
    cached: `_to_bottom` descends from the clamped end points (step 4 of
    `reconfigure`), once on YES, where both sides stand at I∧J and both
    names hold the same tuple, and once per side on NO.  The end points
    were computed here, so they are not validated again.  For that an
    Answer keeps the sequence, its piles and the clamped end points
    referenced for as long as it lives, O(n) memory; a read mutates none
    of them.
    """

    walk: ReconfSequence | None
    _seq: Sequence = field(repr=False)
    _ps: PileSystem = field(repr=False)
    # The clamped end point of each side still to descend.
    _ends: tuple[FeasibleSet, ...] = field(repr=False)

    @property
    def minimal_i(self) -> FeasibleSet:
        """I's canonical representative."""
        return self._representatives[0]

    @property
    def minimal_j(self) -> FeasibleSet:
        """J's canonical representative, the same tuple as I's on YES."""
        return self._representatives[-1]

    @cached_property
    def _representatives(self) -> tuple[FeasibleSet, ...]:
        return tuple(_to_bottom(self._seq, self._ps, end)[0] for end in self._ends)


def _meet_walk(
    seq: Sequence, ps: PileSystem, members_i: FeasibleSet, members_j: FeasibleSet
) -> tuple[ReconfSequence | None, FeasibleSet, FeasibleSet]:
    """Descend validated I and J with I∧J as the floor: steps 1-3 of `reconfigure`.

    Returns the walk from I through I∧J to J, None when the clamped end
    points differ (NO), and each side's clamped end point.  `reconfigure`
    continues from those to the representatives;
    `bipartite.shortest_sequence` stops here.  One `_placed` pass gives
    both depth vectors and the meet, k + 1 + |I \\ J| binary searches in
    all, and each clamped descent costs O(k + moves·log n).
    """
    chosen_i, depth_i, chosen_j, depth_j, meet = _placed(ps, members_i, members_j)
    removed_i, added_i = _descend(seq.perm, ps.piles, chosen_i, depth_i, meet)
    removed_j, added_j = _descend(seq.perm, ps.piles, chosen_j, depth_j, meet)
    walk = None
    if depth_i == depth_j:
        walk = ReconfSequence(
            start=members_i,
            removed=tuple(removed_i + added_j[::-1]),
            added=tuple(added_i + removed_j[::-1]),
        )
    # Every move keeps the set increasing, so pile order is index order.
    return walk, tuple(chosen_i[1:]), tuple(chosen_j[1:])


def reconfigure(seq: Sequence, i_set: Iterable[int], j_set: Iterable[int]) -> Answer:
    """Both representatives, and on YES a walk from I to J through I∧J.

    The one computation behind the CLI's `decide` and `witness`
    subcommands, in four steps, the first three in `_meet_walk`:

    1. Place I and J on the piles in one pass and take the meet I∧J,
       the per-pile minimum of their depths (`_placed`).
    2. Descend I and J with I∧J as the floor (`_descend`).
    3. The answer is YES exactly when both end at the same set, which is
       then I∧J (module docstring).  The walk is I's clamped descent
       followed by J's run backwards, each of its swaps inverted: joined
       by slicing the flat step lists.
    4. Descend from the clamped end points with floor 0 to the
       representatives, on the first read of `minimal_i` or `minimal_j`
       (`Answer`): once on YES, where both sides stand at I∧J, and once
       per side on NO.

    By confluence these are the representatives of I and J.  When I = J
    the meet is I itself, so the walk is empty:

    >>> from lisrc import normalize
    >>> answer = reconfigure(normalize([2, 1]), [2], [2])
    >>> answer.walk
    ReconfSequence(start=(2,), removed=(), added=())
    >>> answer.minimal_i, answer.minimal_j
    ((1,), (1,))
    """
    ps = build_piles(seq)
    members_i, members_j = require_pair(seq, ps, i_set, j_set)
    walk, end_i, end_j = _meet_walk(seq, ps, members_i, members_j)
    return Answer(walk, seq, ps, (end_i,) if walk is not None else (end_i, end_j))

