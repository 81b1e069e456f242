"""Seeded instance generators whose answers are known by construction.

Nothing here imports lisrc: every generator works on plain value lists
with its own patience sort, so the ground truth it claims shares no code
with the program under test.  Positions are 1-based, as in instance files.
"""
from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import networkx as nx


@dataclass(frozen=True)
class Instance:
    """One instance file's content plus the answer the benchmark expects.

    `distance` is the exact swap distance from I to J when the generator
    knows it (None for a NO instance, or where only YES/NO is known).
    """

    values: tuple[int, ...]
    i_set: tuple[int, ...]
    j_set: tuple[int, ...]
    yes: bool
    distance: int | None = None

    def text(self) -> str:
        return "\n".join(
            " ".join(map(str, row)) for row in (self.values, self.i_set, self.j_set)
        ) + "\n"


# ---------------------------------------------------------------------------
# Shared helpers


def increasing(values, positions) -> bool:
    """True iff the values at the sorted 1-based positions strictly increase."""
    vals = [values[p - 1] for p in positions]
    return all(a < b for a, b in zip(vals, vals[1:]))


def pile_ids(values) -> list[int]:
    """Pile of each position (index 0 unused): length of the longest
    increasing subsequence ending there, which is the pile patience sorting
    deals it onto."""
    tails: list[int] = []
    piles = [0]
    for v in values:
        t = bisect_left(tails, v)
        if t == len(tails):
            tails.append(v)
        else:
            tails[t] = v
        piles.append(t + 1)
    return piles


def lis_positions(values) -> tuple[int, ...]:
    """One longest increasing subsequence, as sorted 1-based positions."""
    tails: list[int] = []
    tail_pos: list[int] = []
    prev = [0] * (len(values) + 1)
    for p, v in enumerate(values, start=1):
        t = bisect_left(tails, v)
        prev[p] = tail_pos[t - 1] if t else 0
        if t == len(tails):
            tails.append(v)
            tail_pos.append(p)
        else:
            tails[t] = v
            tail_pos[t] = p
    chain = []
    p = tail_pos[-1] if tail_pos else 0
    while p:
        chain.append(p)
        p = prev[p]
    return tuple(reversed(chain))


def swap_ok(values, s, slot: int, new: int) -> bool:
    """Can member s[slot] be replaced by position `new`, keeping s increasing?"""
    lo_p = s[slot - 1] if slot else 0
    hi_p = s[slot + 1] if slot + 1 < len(s) else len(values) + 1
    lo_v = values[lo_p - 1] if lo_p else float("-inf")
    hi_v = values[hi_p - 1] if hi_p <= len(values) else float("inf")
    return lo_p < new < hi_p and new != s[slot] and lo_v < values[new - 1] < hi_v


def random_walk(values, start, steps: int, rng: random.Random) -> tuple[int, ...]:
    """End of a walk of `steps` attempted random swaps from `start`.

    `values` is a permutation of 1..n.  Each swap replaces one member by a
    position between its set neighbours whose value fits between theirs,
    and is checked with `swap_ok`, so the end is reachable from `start` by
    construction.
    """
    s = list(start)
    for _ in range(steps):
        slot = rng.randrange(len(s))
        lo_p = s[slot - 1] if slot else 0
        hi_p = s[slot + 1] if slot + 1 < len(s) else len(values) + 1
        lo_v = values[lo_p - 1] if lo_p else 0
        hi_v = values[hi_p - 1] if hi_p <= len(values) else len(values) + 1
        options = [
            p
            for p in range(lo_p + 1, hi_p)
            if lo_v < values[p - 1] < hi_v and p != s[slot]
        ]
        if options:
            new = rng.choice(options)
            if not swap_ok(values, s, slot, new):
                raise AssertionError("random walk took an infeasible swap")
            s[slot] = new
    return tuple(s)


def feasible_sets(values, size: int) -> list[tuple[int, ...]]:
    """Every increasing index set of the given size (exponential; small n)."""
    n = len(values)
    return [
        c
        for c in itertools.combinations(range(1, n + 1), size)
        if increasing(values, c)
    ]


def swap_neighbours(values, sets):
    """Yield (a, b) for every pair of increasing sets one swap apart, each
    pair once.  `sets` must hold every increasing set of its size."""
    inf = float("inf")
    for s in sets:
        members = set(s)
        for slot, out in enumerate(s):
            rest = s[:slot] + s[slot + 1 :]
            for into in range(out + 1, len(values) + 1):
                if into in members:
                    continue
                at = bisect_left(rest, into)
                lo_v = values[rest[at - 1] - 1] if at else -inf
                hi_v = values[rest[at] - 1] if at < len(rest) else inf
                if lo_v < values[into - 1] < hi_v:
                    yield s, rest[:at] + (into,) + rest[at:]


def bfs_distances(values, sets, source) -> dict:
    """Swap distance from `source` to every set reachable from it, over
    `sets`, every increasing set of one size."""
    adj: dict = {s: [] for s in sets}
    for a, b in swap_neighbours(values, sets):
        adj[a].append(b)
        adj[b].append(a)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# ---------------------------------------------------------------------------
# random_1e5: decide on uniform random permutations


K22 = (3, 4, 1, 2)  # the "7 8 5 6" block: two maximum sets, no swap between them


def random_yes(n: int, walk: int, rng: random.Random) -> Instance:
    """Random permutation; I an LIS, J the end of a random walk from I."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    i_set = lis_positions(values)
    return Instance(tuple(values), i_set, random_walk(values, i_set, walk, rng), True)


def random_no(n: int, walk: int, rng: random.Random) -> Instance:
    """Random permutation of n-4 values direct-summed with a K22 block on top.

    A direct sum is reconfigurable only if every block is; I takes the
    block's first maximum set and J its second, which no swap joins.
    """
    base = random_yes(n - 4, walk, rng)
    m = n - 4
    values = base.values + tuple(m + v for v in K22)
    return Instance(
        values, base.i_set + (m + 1, m + 2), base.j_set + (m + 3, m + 4), False
    )


# ---------------------------------------------------------------------------
# long_descent: witness on a staircase of piles


def staircase(k: int, h: int) -> tuple[tuple[int, ...], list[list[int]]]:
    """Values of the k-pile, height-h staircase and the position grid.

    Element (t, d) sits in pile t at depth d.  Positions order the elements
    by (2d + 3t, t) and values by (3t - 2d, t), so (t, a) precedes
    (t + 1, b) exactly when |a - b| <= 1: a pile never sits more than one
    level from its neighbours, so it moves down only after they have.
    grid[t - 1][d] is the position of (t, d).
    """
    cells = [(t, d) for t in range(1, k + 1) for d in range(h)]
    by_pos = sorted(cells, key=lambda c: (2 * c[1] + 3 * c[0], c[0]))
    by_val = sorted(cells, key=lambda c: (3 * c[0] - 2 * c[1], c[0]))
    rank = {c: r for r, c in enumerate(by_val, start=1)}
    grid = [[0] * h for _ in range(k)]
    for p, c in enumerate(by_pos, start=1):
        grid[c[0] - 1][c[1]] = p
    return tuple(rank[c] for c in by_pos), grid


def staircase_instance(k: int, h: int, rng: random.Random) -> Instance:
    """I the top row; J a random maximum set whose depths walk by 0 or 1.

    Every maximum set descends to the bottom row, so every pair is YES.
    J starts near mid-height so the descent length varies little by seed.
    """
    values, grid = staircase(k, h)
    depth = rng.randrange(max(0, h // 2 - k), min(h, h // 2 + k))
    depths = []
    for _ in range(k):
        depths.append(depth)
        depth = min(h - 1, max(0, depth + rng.choice((-1, 0, 1))))
    i_set = tuple(grid[t][h - 1] for t in range(k))
    j_set = tuple(grid[t][d] for t, d in enumerate(depths))
    return Instance(values, i_set, j_set, True)


# ---------------------------------------------------------------------------
# bipartite_shortest: direct sums of small 321-avoiding blocks


def avoids_321(values) -> bool:
    return not any(a > b > c for a, b, c in itertools.combinations(values, 3))


def farthest_pair(values, rng: random.Random):
    """Two maximum sets of the block at the largest swap distance found in
    any component, chosen at random among the pairs attaining it."""
    size = len(lis_positions(values))
    sets = feasible_sets(values, size)
    best, pairs = -1, []
    for s in sets:
        for t, d in bfs_distances(values, sets, s).items():
            if d > best:
                best, pairs = d, []
            if d == best:
                pairs.append((s, t))
    i_b, j_b = rng.choice(pairs)
    return i_b, j_b, best


def direct_sum(blocks):
    """Concatenate (values, I, J) blocks, each above and after the previous."""
    values, i_set, j_set = [], [], []
    for vals, i_b, j_b in blocks:
        off = len(values)
        values += [off + v for v in vals]
        i_set += [off + p for p in i_b]
        j_set += [off + p for p in j_b]
    return tuple(values), tuple(i_set), tuple(j_set)


def random_block(m: int, rng: random.Random):
    """A random 321-avoiding block of m values with its farthest pair."""
    vals = list(range(1, m + 1))
    rng.shuffle(vals)
    while not avoids_321(vals):
        rng.shuffle(vals)
    return (vals, *farthest_pair(vals, rng))


def bipartite_instance(n: int, mixed: int, no: bool, rng: random.Random) -> Instance:
    """Sum of random 321-avoiding blocks of 2..6 elements, n in total,
    whose block distances (found by BFS) add up to exactly `mixed`.

    Block distances add up in a direct sum, and in a bipartite block the
    distance between two connected maximum sets is the number of elements
    they differ in, so the shortest sequence has exactly |I \\ J| = `mixed`
    swaps, one per mixed pile.  Blocks are redrawn one at a time, keeping
    their sizes, while that brings the total closer to `mixed`: a fixed
    count keeps the cost of `shortest`, which grows with it, the same for
    every seed.  With no=True a K22 block goes in at a random block
    boundary and the answer is NO.
    """
    sizes = []
    left = n - 4 if no else n
    while left:
        sizes.append(min(left, rng.randint(2, 6)))
        left -= sizes[-1]
    blocks = [random_block(m, rng) for m in sizes]
    total = sum(b[3] for b in blocks)
    for _ in range(100 * n):
        if total == mixed:
            break
        b = rng.randrange(len(blocks))
        new = random_block(sizes[b], rng)
        if abs(total - blocks[b][3] + new[3] - mixed) < abs(total - mixed):
            total += new[3] - blocks[b][3]
            blocks[b] = new
    else:
        raise ValueError(f"no sum of blocks reaches {mixed} mixed piles")
    parts = [b[:3] for b in blocks]
    if no:
        parts.insert(rng.randint(0, len(parts)), (K22, (1, 2), (3, 4)))
    values, i_set, j_set = direct_sum(parts)
    return Instance(values, i_set, j_set, not no, None if no else total)


# ---------------------------------------------------------------------------
# oracle_16: exhaustive search on merges of two increasing runs


def count_increasing(values, size: int) -> int:
    """Number of increasing index sets of the given size, by dynamic programming."""
    ending = []  # ending[p][l]: increasing sets of size l + 1 ending at p
    for p, v in enumerate(values):
        row = [1] + [0] * (size - 1)
        for q in range(p):
            if values[q] < v:
                for length in range(1, size):
                    row[length] += ending[q][length - 1]
        ending.append(row)
    return sum(row[size - 1] for row in ending)


def nx_distance(values, sets, source, target) -> int | None:
    """Swap distance by networkx BFS over `sets`, every increasing set of
    one size; None if the two are not connected."""
    graph = nx.Graph()
    graph.add_nodes_from(sets)
    graph.add_edges_from(swap_neighbours(values, sets))
    try:
        return nx.shortest_path_length(graph, source, target)
    except nx.NetworkXNoPath:
        return None


def merge_instance(half: int, size: int, sets_range, rng: random.Random) -> Instance:
    """Random merge of the increasing runs 1..half and half+1..2*half.

    Merges are redrawn until the number of increasing sets of `size` lies
    in `sets_range`, which keeps the exhaustive search's cost about the
    same for every instance.  I and J are distinct random increasing
    sets of `size`; their distance comes from a networkx BFS.
    """
    n = 2 * half
    lo, hi = sets_range
    while True:
        first = set(rng.sample(range(n), half))
        runs = [iter(range(1, half + 1)), iter(range(half + 1, n + 1))]
        values = tuple(next(runs[0 if p in first else 1]) for p in range(n))
        if lo <= count_increasing(values, size) <= hi:
            break
    sets = feasible_sets(values, size)
    i_set, j_set = rng.sample(sets, 2)
    distance = nx_distance(values, sets, i_set, j_set)
    return Instance(values, i_set, j_set, distance is not None, distance)
