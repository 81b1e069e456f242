"""Exhaustive ground truth for small sequences.

Enumerates feasible sets of a given size, builds the graph whose nodes
are those sets and whose edges are single swaps, and answers
connectivity and shortest-path queries by breadth-first search.  Guarded
by a size bound because the number of feasible sets can grow
exponentially; callers may raise the bound explicitly.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import SizeMismatch, TooLarge
from .piles import build_piles
from .reconfig import ReconfSequence, SwapStep, require_pair
from .seqcore import FeasibleSet, Sequence

DEFAULT_BOUND = 16


@dataclass(frozen=True)
class ReconfGraph:
    """All feasible sets of one cardinality, adjacent when one swap apart."""

    nodes: tuple[FeasibleSet, ...]
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.nodes]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def _check_bound(seq: Sequence, bound: int) -> None:
    if seq.n > bound:
        raise TooLarge(seq.n, bound)


def enumerate_feasible(
    seq: Sequence, size: int, bound: int = DEFAULT_BOUND
) -> list[FeasibleSet]:
    """Every feasible set of the given cardinality, lexicographically sorted."""
    _check_bound(seq, bound)
    if size == 0:
        return [()]
    out: list[FeasibleSet] = []

    def extend(prefix: list[int], last_value: int, start: int) -> None:
        if len(prefix) == size:
            out.append(tuple(prefix))
            return
        # Leave enough positions to still reach the target size.
        for i in range(start, seq.n - (size - len(prefix)) + 2):
            if seq.value(i) > last_value:
                prefix.append(i)
                extend(prefix, seq.value(i), i + 1)
                prefix.pop()

    extend([], 0, 1)
    out.sort()
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


def _graph_for(
    seq: Sequence,
    i_set: Iterable[int],
    j_set: Iterable[int],
    maximum_only: bool,
    bound: int,
) -> tuple[ReconfGraph, FeasibleSet, FeasibleSet]:
    _check_bound(seq, bound)
    ps = build_piles(seq) if maximum_only else None
    members_i, members_j = require_pair(seq, ps, i_set, j_set)
    graph = build_reconfig_graph(enumerate_feasible(seq, len(members_i), bound))
    return graph, members_i, members_j


def oracle_decide(
    seq: Sequence,
    i_set: Iterable[int],
    j_set: Iterable[int],
    maximum_only: bool = True,
    bound: int = DEFAULT_BOUND,
) -> bool:
    """Connectivity between two feasible sets in the full swap graph."""
    graph, members_i, members_j = _graph_for(seq, i_set, j_set, maximum_only, bound)
    return _bfs(graph, members_i, members_j) is not None


def oracle_shortest(
    seq: Sequence,
    i_set: Iterable[int],
    j_set: Iterable[int],
    maximum_only: bool = True,
    bound: int = DEFAULT_BOUND,
) -> tuple[int, ReconfSequence] | None:
    """Minimal swap count and one shortest sequence, or None if disconnected."""
    graph, members_i, members_j = _graph_for(seq, i_set, j_set, maximum_only, bound)
    path = _bfs(graph, members_i, members_j)
    if path is None:
        return None
    steps = []
    for a, b in zip(path, path[1:]):
        (out,) = set(a) - set(b)
        (into,) = set(b) - set(a)
        steps.append(SwapStep(remove=out, add=into))
    return len(steps), ReconfSequence(start=members_i, steps=tuple(steps))


def _bfs(
    graph: ReconfGraph, source: FeasibleSet, target: FeasibleSet
) -> list[FeasibleSet] | None:
    index = {s: i for i, s in enumerate(graph.nodes)}
    src, dst = index[source], index[target]
    if src == dst:
        return [source]
    adj = graph.adjacency()
    prev = {src: -1}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in prev:
                prev[v] = u
                if v == dst:
                    path = [v]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return [graph.nodes[i] for i in reversed(path)]
                queue.append(v)
    return None


def connected_components(graph: ReconfGraph) -> list[frozenset[FeasibleSet]]:
    """Partition of the node sets into swap-connected groups."""
    adj = graph.adjacency()
    seen = [False] * len(graph.nodes)
    parts: list[frozenset[FeasibleSet]] = []
    for start in range(len(graph.nodes)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        parts.append(frozenset(graph.nodes[i] for i in comp))
    return parts
