"""Permutation graph, two-coloring, and shortest swap sequences.

The graph on positions 1..n has an edge wherever a later position holds a
smaller value, so independent sets coincide with feasible index sets.
Permutation graphs are perfect, so this graph is bipartite exactly when it
has no triangle, that is when the sequence has no decreasing triple (a 321
pattern); `decreasing_triple` finds one in O(n).

`shortest_sequence` asks less: that every pile holds at most two entries,
and raises `TallPile` on a taller one.  A pile is a decreasing run, so
bipartite graphs qualify, and so does `2 1 4 6 5 3`, whose piles hold two
entries each beside the triple 6 5 3.
There the walk of `reconfigure`, down from I to I∧J and up to J, is
shortest, and a "forbidden pair" certifies NO.  Proof sketch:

- Every depth is 0 or 1.  A clamped descent moves a pile only downward,
  never below the meet, so on YES each pile where I and J differ moves
  once and no other pile moves.  The length is |I \\ J|, and each swap
  adds at most one member of J, so no walk is shorter.
- A forbidden pair is two mixed piles whose four elements close a
  4-cycle.  It proves NO whenever its piles hold two entries each: each
  pile must change, and whichever changes first leaves one of the two
  inversions in the set.
- On NO an adjacent forbidden pair exists.  Let m = I∧J and e a clamped
  end point other than m (`reconfig`), so e ≥ m.  Take a pile t with e
  at depth 1, holding i_t on top, and m at depth 0, holding j_t at the
  bottom; e cannot move down to j_t.  Say j_t is blocked on its right,
  by the value of e_{t+1}.  Then e_{t+1} is not m's entry, because m is
  increasing.  So pile t + 1 is mixed, e holds i_{t+1}, and
  (j_t, i_{t+1}) is an inversion.  If (i_t, j_{t+1}) is one too,
  (t, t + 1) is a forbidden pair.  If not, i_t < j_{t+1}, so j_{t+1}
  fits on its left and is blocked on its right: repeat at t + 1.  This
  stops before pile k, whose right bound n + 1 always fits.  A block on
  the index side, by e_{t-1}, runs leftward alike to the sentinel.

No step uses more than the pile heights.  `shortest_sequence` costs
O(n log n), all of it in pile dealing and in sorting the two sets: on
piles of at most two entries every binary search is O(1), so placing
both sets, the clamped descents and `_mixed` cost O(k) after that.
`two_coloring` costs O(n).
`build_graph` costs O(n + m) for m edges.

`shortest_sequence` is the query; `find_forbidden_pair` serves it, and
`random_321_avoiding` serves `lisrc gen --bipartite`.  `build_graph`,
`two_coloring` and `mixed_piles`, with `PermutationGraph`,
`Bipartition` and `NotBipartite`, serve only the tests and the
benchmark's span tracer, which patches them by name here, as it does
the bare re-import of `is_feasible`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from typing import Iterable

from .errors import TallPile
from .piles import PileSystem, build_piles
from .reconfig import ReconfSequence, _meet_walk, require_pair
from .seqcore import FeasibleSet, Sequence

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


@dataclass(frozen=True)
class Bipartition:
    """Two-sided vertex partition; every edge joins the sides."""

    sides: tuple[tuple[int, ...], tuple[int, ...]]


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
    """The permutation graph is not bipartite: a decreasing triple, a triangle."""

    odd_cycle: tuple[int, ...]


def build_graph(seq: Sequence) -> PermutationGraph:
    """Graph with an edge {i, j} for every inversion i < j, a_i > a_j: O(n + m).

    Positions are visited left to right over a linked list of the values
    not yet visited, in ascending order.  At position i with value v the
    list holds exactly the values of positions after i, so the ones ahead
    of v are the smaller values after i, one per edge: the walk to v costs
    O(1) per edge, and v then leaves the list.  Each vertex records its
    earlier neighbours as they are found, in ascending order, and its
    later ones are read off those lists in ascending order of position.

    >>> from lisrc.seqcore import normalize
    >>> build_graph(normalize((7, 8, 5, 6))).adjacency
    ((), (3, 4), (3, 4), (1, 2), (1, 2))
    """
    n = seq.n
    position = [0] * (n + 1)
    for i, v in enumerate(seq.perm, start=1):
        position[v] = i
    earlier: list[list[int]] = [[] for _ in range(n + 1)]
    # nxt[v] follows v in the list; nxt[0] is its head and n + 1 its end.
    nxt = list(range(1, n + 2))
    for i, v in enumerate(seq.perm, start=1):
        before, u = 0, nxt[0]
        while u != v:
            earlier[position[u]].append(i)
            before, u = u, nxt[u]
        nxt[before] = nxt[v]
    later: list[list[int]] = [[] for _ in range(n + 1)]
    for j in range(1, n + 1):
        for i in earlier[j]:
            later[i].append(j)
    return PermutationGraph(
        n=n, adjacency=tuple(tuple(e + l) for e, l in zip(earlier, later))
    )


def two_coloring(seq: Sequence) -> Bipartition | NotBipartite:
    """Left-to-right maxima against the rest, or a decreasing triple: O(n).

    Proof sketch, without a triple: for an inversion i < j, a_j is not a
    left-to-right maximum, and a_i is one, or an earlier larger value
    would close a 321.  So every edge joins the sides.  Side 0 holds each
    component's smallest position, as in a breadth-first colouring.

    >>> from lisrc.seqcore import normalize
    >>> two_coloring(normalize((7, 8, 5, 6)))
    Bipartition(sides=((1, 2), (3, 4)))
    >>> two_coloring(normalize((15, 11, 16, 13, 17, 12, 14)))
    NotBipartite(odd_cycle=(1, 4, 6))
    """
    triple = decreasing_triple(seq)
    if triple is not None:
        return NotBipartite(odd_cycle=triple)
    maxima, rest = [], []
    top = 0
    for i, v in enumerate(seq.perm, 1):
        if v > top:
            top = v
            maxima.append(i)
        else:
            rest.append(i)
    return Bipartition(sides=(tuple(maxima), tuple(rest)))


def mixed_piles(
    seq: Sequence, ps: PileSystem, i_set: Iterable[int], j_set: Iterable[int]
) -> list[MixedPile]:
    """Piles of exactly two entries, one private to each input set.

    Both sets must be maximum feasible (`require_pair`), so each holds one
    element per pile.  Ascending pile id.  When every pile has at most two
    entries, the count equals |I \\ J|: each element private to I shares
    its pile with exactly one element private to J.
    """
    return _mixed(ps, *require_pair(seq, ps, i_set, j_set))


def _mixed(
    ps: PileSystem, members_i: FeasibleSet, members_j: FeasibleSet
) -> list[MixedPile]:
    """`mixed_piles` of two validated maximum sets.

    The t-th member of a maximum set lies on pile t (`reconfig._placed`).
    One C-level pass compares the two sets member by member, and only
    the piles where they differ are read, so the Python work is
    O(|I \\ J|) beside O(k) in C.
    """
    piles = ps.piles
    return [
        MixedPile(pile=t, i_elem=members_i[t - 1], j_elem=members_j[t - 1])
        for t in compress(count(1), map(ne, members_i, members_j))
        if len(piles[t]) == 2
    ]


def find_forbidden_pair(
    seq: Sequence, mixed: list[MixedPile]
) -> tuple[MixedPile, MixedPile] | None:
    """First pair of mixed piles whose four elements induce a 4-cycle.

    Both within-pile pairs are always edges and same-set pairs never are,
    so piles p < q form a 4-cycle exactly when i_p, j_q and j_p, i_q are
    both inversions.  Only mixed piles on consecutive pile ids are tested,
    yet the result is the lexicographically first pair (ascending pile id)
    of the all-pairs scan.  Requires every pile to hold at most two
    entries; on NO such a pair always exists (module docstring).  Proof
    sketch of the adjacency, with x < y meaning "earlier position and
    smaller value", I and J maximum feasible sets, and i_t, j_t their
    elements on pile t:

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
    return (x < y) != (seq.perm[x - 1] < seq.perm[y - 1])


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


def random_321_avoiding(n: int, rng: random.Random) -> list[int]:
    """A uniform 321-avoiding permutation of 1..n, that is one whose graph
    is bipartite: a uniform Dyck path mapped one to one (Billey, Jockusch
    & Stanley 1993; Krattenthaler 2001).  O(n).
    """
    word = [True] * n + [False] * (n + 1)
    rng.shuffle(word)
    return _dyck_to_permutation(_rotate_to_dyck(word))


def _rotate_to_dyck(word: list[bool]) -> list[bool]:
    """Cycle lemma: of the 2n + 1 rotations of n up-steps (True) and n + 1
    down-steps, exactly one stays at height >= 0 until its last step, the
    one starting just after the first lowest point.  Dropping that last
    down-step leaves a Dyck path, each of which arises 2n + 1 times.
    """
    height = low = cut = 0
    for m, up in enumerate(word, 1):
        height += 1 if up else -1
        if height < low:
            low, cut = height, m
    return word[cut:] + word[: cut - 1]


def _dyck_to_permutation(path: list[bool]) -> list[int]:
    """Each peak of the Dyck path puts a left-to-right maximum at position
    (downs before it) + 1 with value (ups before it); the other values
    fill the other positions in increasing order.
    """
    n = len(path) // 2
    perm = [0] * n
    ups = 0
    for m, up in enumerate(path):
        if up:
            ups += 1
            if not path[m + 1]:  # a path ends going down
                perm[m + 1 - ups] = ups
    taken = set(perm)
    rest = (v for v in range(1, n + 1) if v not in taken)
    return [v or next(rest) for v in perm]


def shortest_sequence(
    seq: Sequence, i_set: Iterable[int], j_set: Iterable[int]
) -> ReconfSequence | NoSequence:
    """Shortest swap sequence between maximum feasible sets, length |I \\ J|.

    Requires every pile to hold at most two entries.  A taller pile is a
    decreasing triple: once both sets are validated, TallPile is raised
    carrying `decreasing_triple`'s fixed one, the only time that scan
    runs.  On YES the walk is `reconfigure`'s (`reconfig._meet_walk`); on NO
    a forbidden pair is the certificate (NoSequence).  Both proofs are
    in the module docstring.

    >>> from lisrc.seqcore import normalize
    >>> walk = shortest_sequence(normalize((2, 1, 4, 3)), (1, 3), (2, 4))
    >>> list(walk.sets())
    [(1, 3), (1, 4), (2, 4)]
    """
    ps = build_piles(seq)
    members_i, members_j = require_pair(seq, ps, i_set, j_set)
    if max(map(len, ps.piles)) > 2:
        raise TallPile(decreasing_triple(seq))
    walk = _meet_walk(seq, ps, members_i, members_j)[0]
    if walk is not None:
        return walk
    pair = find_forbidden_pair(seq, _mixed(ps, members_i, members_j))
    assert pair is not None
    return NoSequence(forbidden=pair)
