"""Permutation graph, two-coloring, and shortest swap sequences.

The graph on positions 1..n has an edge wherever a later position holds a
smaller value, so independent sets coincide with feasible index sets.
Permutation graphs are perfect, so this graph is bipartite exactly when it
has no triangle, that is when the sequence has no decreasing triple (a 321
pattern); `decreasing_triple` tests this in O(n).  When the graph is
bipartite every pile has at most two entries, and a swap sequence of the
smallest possible length |I \\ J| exists whenever any sequence exists; the
only obstruction is a "forbidden pair" of mixed piles whose four elements
close a 4-cycle, and the first such pair always sits on adjacent piles.
`shortest_sequence` costs O(n log n), all of it in pile dealing.

`build_graph` and `two_coloring` materialize the graph explicitly; they
are quadratic and serve `lisrc graph` and the tests, not `shortest`.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .piles import PileSystem, build_piles
from .reconfig import ReconfSequence, SwapStep, _per_pile, require_pair
from .seqcore import Sequence, precedes

# bench/spans.py wraps `is_feasible` in this namespace, so it stays
# importable from here although nothing in this module calls it.
from .seqcore import is_feasible  # noqa: F401


@dataclass(frozen=True)
class PermutationGraph:
    """Undirected graph of value inversions; adjacency lists are sorted.

    adjacency[0] is an unused placeholder so vertices index directly.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def has_edge(self, i: int, j: int) -> bool:
        a = self.adjacency[i]
        pos = bisect_left(a, j)
        return pos < len(a) and a[pos] == j

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j) for i in range(1, self.n + 1) for j in self.adjacency[i] if i < j
        ]


@dataclass(frozen=True)
class Bipartition:
    """Two-sided vertex partition; every edge joins the sides."""

    sides: tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class OddCycle:
    """Certificate that no two-coloring exists."""

    vertices: tuple[int, ...]


@dataclass(frozen=True)
class MixedPile:
    """A two-entry pile split between the two input sets."""

    pile: int
    i_elem: int
    j_elem: int


@dataclass(frozen=True)
class NoSequence:
    """No swap sequence exists; carries one forbidden pair as evidence."""

    forbidden: tuple[MixedPile, MixedPile]


@dataclass(frozen=True)
class NotBipartite:
    """The shortest-sequence routine only covers bipartite graphs."""

    odd_cycle: tuple[int, ...]


def build_graph(seq: Sequence) -> PermutationGraph:
    """Graph with an edge {i, j} for every inversion i < j, a_i > a_j.

    Quadratic in n; adjacency is explicit, so this is meant for the
    moderate sizes the graph-based routines operate on.
    """
    n = seq.n
    adjacency: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        vi = seq.value(i)
        for j in range(i + 1, n + 1):
            if vi > seq.value(j):
                adjacency[i].append(j)
                adjacency[j].append(i)
    return PermutationGraph(
        n=n, adjacency=tuple(tuple(sorted(a)) for a in adjacency)
    )


def two_coloring(g: PermutationGraph) -> Bipartition | OddCycle:
    """Breadth-first two-coloring, or an odd-cycle certificate.

    Deterministic: components are rooted at their smallest vertex and the
    root takes side 0.  The certificate is normalized to start at its
    smallest vertex and continue toward its smaller neighbor.
    """
    color = [-1] * (g.n + 1)
    parent = [0] * (g.n + 1)
    for root in range(1, g.n + 1):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    return OddCycle(vertices=_close_cycle(parent, v, w))
    side0 = tuple(v for v in range(1, g.n + 1) if color[v] == 0)
    side1 = tuple(v for v in range(1, g.n + 1) if color[v] == 1)
    return Bipartition(sides=(side0, side1))


def _close_cycle(parent: list[int], v: int, w: int) -> tuple[int, ...]:
    """Odd cycle through the non-tree edge {v, w}: tree paths to their meet."""
    chain_v = [v]
    while parent[chain_v[-1]] != 0:
        chain_v.append(parent[chain_v[-1]])
    position = {x: d for d, x in enumerate(chain_v)}
    chain_w = [w]
    while chain_w[-1] not in position:
        chain_w.append(parent[chain_w[-1]])
    meet = chain_w[-1]
    cycle = chain_v[: position[meet] + 1] + chain_w[-2::-1]
    return _normalize_cycle(cycle)


def _normalize_cycle(cycle: list[int]) -> tuple[int, ...]:
    """Rotate to the smallest vertex, then walk toward its smaller neighbor."""
    start = cycle.index(min(cycle))
    rotated = cycle[start:] + cycle[:start]
    if rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


def mixed_piles(
    seq: Sequence, ps: PileSystem, i_set: Iterable[int], j_set: Iterable[int]
) -> list[MixedPile]:
    """Piles of exactly two entries, one private to each input set.

    Both sets must be maximum feasible (`require_pair`), so each holds one
    element per pile.  Ascending pile id.  When every pile has at most two
    entries, the count equals |I \\ J|: each element private to I shares
    its pile with exactly one element private to J.
    """
    members_i, members_j = require_pair(seq, ps, i_set, j_set)
    chosen_i = _per_pile(ps, members_i)
    chosen_j = _per_pile(ps, members_j)
    return [
        MixedPile(pile=t, i_elem=x, j_elem=y)
        for t, (x, y) in enumerate(zip(chosen_i, chosen_j))
        if x != y and len(ps.piles[t]) == 2
    ]


def find_forbidden_pair(
    seq: Sequence, mixed: list[MixedPile]
) -> tuple[MixedPile, MixedPile] | None:
    """First pair of mixed piles whose four elements induce a 4-cycle.

    Both within-pile pairs are always edges and same-set pairs never are,
    so piles p < q form a 4-cycle exactly when i_p, j_q and j_p, i_q are
    both inversions.  Only mixed piles on consecutive pile ids are tested,
    yet the result is the lexicographically first pair (ascending pile id)
    of the all-pairs scan.  Requires a bipartite graph, so that no pile
    holds more than two entries.  Proof sketch, with x < y meaning
    "earlier position and smaller value", I and J maximum feasible sets,
    and i_t, j_t their elements on pile t:

    * A set with one element per pile is a chain ordered by pile id.  If
      some pile r, p < r < q, were not mixed, I and J would share its
      element x (it holds at most two entries), and i_p < x < j_q would
      make i_p, j_q no inversion.  So pile p + 1 is mixed whenever p < q
      is forbidden.
    * Two distinct elements are comparable under < or an inversion.
      j_{p+1} < i_p would put i_p on a pile after p + 1, and i_p < j_{p+1}
      would give i_p < j_{p+1} <= j_q.  So i_p, j_{p+1} is an inversion,
      likewise j_p, i_{p+1}, and (p, p + 1) is forbidden as well: the
      first pair of the all-pairs scan is always an adjacent one.

    O(len(mixed)).
    """
    for p, q in zip(mixed, mixed[1:]):
        if (
            q.pile == p.pile + 1
            and _inverted(seq, p.i_elem, q.j_elem)
            and _inverted(seq, p.j_elem, q.i_elem)
        ):
            return p, q
    return None


def _inverted(seq: Sequence, x: int, y: int) -> bool:
    """True iff positions x and y are an edge: index and value orders differ."""
    return (x < y) != (seq.value(x) < seq.value(y))


def decreasing_triple(seq: Sequence) -> tuple[int, int, int] | None:
    """Positions a < j < c with decreasing values, or None: O(n).

    Such a triple is a triangle of the permutation graph, and a permutation
    graph is bipartite exactly when it has none.  The choice is fixed: the
    leftmost middle position j, then the leftmost larger value before it,
    then the leftmost smaller value after it.
    """
    perm = seq.perm
    n = len(perm)
    # min_after[j] is the smallest value right of 0-based position j.
    min_after = [n + 1] * n
    for j in range(n - 2, -1, -1):
        min_after[j] = min(min_after[j + 1], perm[j + 1])
    max_before = 0
    for j, v in enumerate(perm):
        if max_before > v > min_after[j]:
            a = next(i for i in range(j) if perm[i] > v)
            c = next(i for i in range(j + 1, n) if perm[i] < v)
            return a + 1, j + 1, c + 1
        max_before = max(max_before, v)
    return None


def shortest_sequence(
    seq: Sequence, i_set: Iterable[int], j_set: Iterable[int]
) -> ReconfSequence | NoSequence | NotBipartite:
    """Shortest swap sequence between maximum feasible sets, length |I \\ J|.

    Requires a bipartite permutation graph (NotBipartite, carrying a
    decreasing triple, otherwise).  A forbidden pair proves no sequence
    exists (NoSequence).  Otherwise the leftmost mixed pile always admits
    a swap on at least one side; the I-side swap is preferred when both
    apply, and J-side swaps are replayed inverted at the tail.

    A set with one element per pile is feasible exactly when neighbouring
    piles are ordered, so each swap is checked in O(1) against the chosen
    elements of piles t - 1 and t + 1.  O(n log n) overall.
    """
    ps = build_piles(seq)
    members_i, members_j = require_pair(seq, ps, i_set, j_set)
    triple = decreasing_triple(seq)
    if triple is not None:
        return NotBipartite(odd_cycle=triple)
    mixed = mixed_piles(seq, ps, members_i, members_j)
    pair = find_forbidden_pair(seq, mixed)
    if pair is not None:
        return NoSequence(forbidden=pair)
    chosen_i = _per_pile(ps, members_i)
    chosen_j = _per_pile(ps, members_j)
    forward: list[SwapStep] = []
    backward: list[SwapStep] = []
    for mp in mixed:
        if _fits(seq, chosen_i, mp.pile, mp.j_elem):
            chosen_i[mp.pile] = mp.j_elem
            forward.append(SwapStep(remove=mp.i_elem, add=mp.j_elem))
        else:
            assert _fits(seq, chosen_j, mp.pile, mp.i_elem), (
                "leftmost mixed pile must be swappable"
            )
            chosen_j[mp.pile] = mp.i_elem
            backward.append(SwapStep(remove=mp.j_elem, add=mp.i_elem))
    assert chosen_i == chosen_j
    steps = tuple(forward) + tuple(step.inverted() for step in reversed(backward))
    return ReconfSequence(start=members_i, steps=steps)


def _fits(seq: Sequence, chosen: list[int], t: int, x: int) -> bool:
    """Can x replace chosen[t] and keep the one-per-pile set a chain?"""
    return precedes(seq, chosen[t - 1], x) and (
        t + 1 == len(chosen) or precedes(seq, x, chosen[t + 1])
    )
