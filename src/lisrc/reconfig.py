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

`reconfigure` is the one query: it returns both representatives and, when
they coincide, a walk (`Answer`); `decide` and `witness` read it.  Sets
are validated by `require_maximum` (a single set) and `require_pair` (the
two sets of one query), both built on `seqcore.require_feasible`.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator

from .errors import Infeasible, NotMaximum, SizeMismatch
from .piles import PileSystem, build_piles
from .seqcore import FeasibleSet, Sequence, require_feasible

# bench/spans.py wraps `is_feasible` in this namespace, so it stays
# importable from here although nothing in this module calls it.
from .seqcore import is_feasible  # noqa: F401


@dataclass(frozen=True, slots=True)
class SwapStep:
    """One move: drop `remove` from the set and insert `add`."""

    remove: int
    add: int

    def inverted(self) -> "SwapStep":
        return SwapStep(remove=self.add, add=self.remove)


@dataclass(frozen=True)
class ReconfSequence:
    """A start set plus an ordered list of single swaps."""

    start: FeasibleSet
    steps: tuple[SwapStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def sets(self) -> Iterator[FeasibleSet]:
        """Yield every set along the sequence, the start included."""
        cur = self.start
        yield cur
        for step in self.steps:
            cur = apply_step(cur, step)
            yield cur

    def end(self) -> FeasibleSet:
        cur = self.start
        for step in self.steps:
            cur = apply_step(cur, step)
        return cur


def apply_step(s: FeasibleSet, step: SwapStep) -> FeasibleSet:
    """Apply one swap to a sorted index tuple."""
    if step.remove not in s or step.add in s:
        raise ValueError(f"step {step} does not apply to {s}")
    return tuple(sorted(set(s) - {step.remove} | {step.add}))


def require_maximum(seq: Sequence, ps: PileSystem, s: Iterable[int]) -> FeasibleSet:
    """Validate a maximum feasible set: `require_feasible`, then size k.

    Raises NotMaximum for a feasible set smaller than `ps.k`; returns the
    sorted tuple.
    """
    members = require_feasible(seq, s)
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
    (SizeMismatch), and, unless `ps` is None, maximum (NotMaximum).
    """
    members_i = require_feasible(seq, i_set)
    members_j = require_feasible(seq, j_set)
    if len(members_i) != len(members_j):
        raise SizeMismatch(len(members_i), len(members_j))
    if ps is not None:
        require_maximum(seq, ps, members_i)
        require_maximum(seq, ps, members_j)
    return members_i, members_j


def is_maximum_feasible(seq: Sequence, s: Iterable[int]) -> bool:
    """True iff `s` is feasible and as large as any feasible set."""
    try:
        require_maximum(seq, build_piles(seq), s)
    except (Infeasible, NotMaximum):
        return False
    return True


def _per_pile(ps: PileSystem, members: FeasibleSet) -> list[int]:
    """Map pile id -> the member element in that pile (slot 0: sentinel)."""
    chosen = [0] * (ps.k + 1)
    for i in members:
        t = ps.pile_of[i]
        assert chosen[t] == 0, "maximum feasible set must hit each pile once"
        chosen[t] = i
    return chosen


def _deepest_target(
    seq: Sequence,
    pile_idx: tuple[int, ...],
    lo_index: int,
    hi_value: int | None,
) -> int:
    """Smallest depth in a pile compatible with both pile neighbors.

    Pile entries have increasing index and decreasing value toward the
    top, so each neighbor constraint cuts a contiguous depth range and
    their intersection is an interval.  Only the interval's lower end is
    needed: anything at or below the current element's depth already
    satisfies the remaining two constraints.
    """
    lo = bisect_right(pile_idx, lo_index)
    if hi_value is not None:
        # First depth whose value drops below the right neighbor's value.
        lo_v = _first_below(seq, pile_idx, hi_value)
        lo = max(lo, lo_v)
    return lo


def _first_below(seq: Sequence, pile_idx: tuple[int, ...], bound: int) -> int:
    """First depth whose value is < bound (values decrease with depth)."""
    lo, hi = 0, len(pile_idx)
    while lo < hi:
        mid = (lo + hi) // 2
        if seq.value(pile_idx[mid]) < bound:
            hi = mid
        else:
            lo = mid + 1
    return lo


def downward_moves(
    seq: Sequence, ps: PileSystem, s: Iterable[int]
) -> list[SwapStep]:
    """All feasible swaps that push one member strictly down its pile.

    Ordered by pile id, then by target depth from the pile bottom up
    (largest depth gap first).  Requires a maximum feasible set.
    """
    members = require_maximum(seq, ps, s)
    chosen = _per_pile(ps, members)
    moves: list[SwapStep] = []
    for t in range(1, ps.k + 1):
        v = chosen[t]
        d = ps.depth_of[v]
        if d == 0:
            continue
        pile_idx = ps.piles[t]
        hi_value = seq.value(chosen[t + 1]) if t < ps.k else None
        lo = _deepest_target(seq, pile_idx, chosen[t - 1], hi_value)
        for depth in range(lo, d):
            moves.append(SwapStep(remove=v, add=pile_idx[depth]))
    return moves


def minimal_set(
    seq: Sequence, ps: PileSystem, s: Iterable[int]
) -> tuple[FeasibleSet, list[SwapStep]]:
    """Greedy descent to the unique set admitting no downward move.

    Returns the fixed point and the executed trace.  Equivalent to
    repeatedly applying the first entry of `downward_moves`, but a pile
    is only re-examined after one of its neighbors changes, so the whole
    descent costs O((n + moves) log n).
    """
    members = require_maximum(seq, ps, s)
    chosen = _per_pile(ps, members)
    trace: list[SwapStep] = []
    # Piles of size 1 can never move; seed the worklist with the rest.
    heap = [t for t in range(1, ps.k + 1) if len(ps.piles[t]) > 1]
    heapify(heap)
    while heap:
        t = heappop(heap)
        v = chosen[t]
        d = ps.depth_of[v]
        if d == 0:
            continue
        pile_idx = ps.piles[t]
        hi_value = seq.value(chosen[t + 1]) if t < ps.k else None
        lo = _deepest_target(seq, pile_idx, chosen[t - 1], hi_value)
        if lo < d:
            u = pile_idx[lo]
            trace.append(SwapStep(remove=v, add=u))
            chosen[t] = u
            # Only the two pile neighbors gain new room to move.
            if t > 1 and len(ps.piles[t - 1]) > 1:
                heappush(heap, t - 1)
            if t < ps.k and len(ps.piles[t + 1]) > 1:
                heappush(heap, t + 1)
    return tuple(sorted(chosen[1:])), trace


@dataclass(frozen=True)
class Answer:
    """Both canonical representatives and, on YES, a walk from I to J.

    `walk` is None exactly when the representatives differ (NO).  The walk
    concatenates the descent of I with the inverted, reversed descent of
    J; it is not length-minimal in general.
    """

    minimal_i: FeasibleSet
    minimal_j: FeasibleSet
    walk: ReconfSequence | None


def reconfigure(seq: Sequence, i_set: Iterable[int], j_set: Iterable[int]) -> Answer:
    """Descend both maximum feasible sets to their representatives.

    The one computation behind `decide`, `witness` and the CLI.
    """
    ps = build_piles(seq)
    members_i, members_j = require_pair(seq, ps, i_set, j_set)
    m_i, trace_i = minimal_set(seq, ps, members_i)
    m_j, trace_j = minimal_set(seq, ps, members_j)
    walk = None
    if m_i == m_j:
        steps = tuple(trace_i) + tuple(step.inverted() for step in reversed(trace_j))
        walk = ReconfSequence(start=members_i, steps=steps)
    return Answer(minimal_i=m_i, minimal_j=m_j, walk=walk)


def decide(seq: Sequence, i_set: Iterable[int], j_set: Iterable[int]) -> bool:
    """Can `i_set` be transformed into `j_set` by single swaps?

    True exactly when both descend to the same canonical representative.
    """
    return reconfigure(seq, i_set, j_set).walk is not None


def witness(
    seq: Sequence, i_set: Iterable[int], j_set: Iterable[int]
) -> ReconfSequence | None:
    """A concrete swap sequence from `i_set` to `j_set`, if one exists."""
    return reconfigure(seq, i_set, j_set).walk
