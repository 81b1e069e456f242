"""Naive reference implementations the tests cross-check the package against.

Everything here works straight off the raw value list, or straight off
the fields of a walk or a pile system, so it shares no code path with
the package.
Exponential, except `lis_length`, `is_maximum_feasible`, `deal_reference`,
`downward_moves`, `clamped_descent`, `pile_coord`, `rank_normalize`,
`scan_int_tokens`, `require_pair`, `first_decreasing_triple`,
`two_coloring`, `swap`, `replay_sets`, `render_walk`, `swap_neighbours`,
`bfs_walk` and the staircase builders; keep n small.
"""
import itertools
from bisect import bisect_left, bisect_right
from collections import Counter, deque

from lisrc.bipartite import Bipartition, NotBipartite
from lisrc.errors import (
    DuplicateValue,
    IndexOutOfRange,
    Infeasible,
    NotMaximum,
    ParseError,
    SizeMismatch,
)


def rank_normalize(raw):
    """Ranks of the values in 1..n by one sort and a rank dict, as a tuple.

    A repeated value raises DuplicateValue naming the smallest one.
    """
    order = sorted(raw)
    for a, b in zip(order, order[1:]):
        if a == b:
            raise DuplicateValue(a)
    rank = {v: r for r, v in enumerate(order, start=1)}
    return tuple(rank[v] for v in raw)


def scan_int_tokens(lineno, line, distinct=False):
    """The integers of one instance line, read one character at a time.

    A token is a maximal run of non-whitespace; it must be an optional
    `-` and then ASCII digits.  The first bad token (or, with `distinct`,
    the first repeat) raises ParseError at its 1-based column, as does a
    token that `int` refuses for its length (over 4300 digits).
    """
    values, seen = [], set()
    start = 0
    while start < len(line):
        if line[start].isspace():
            start += 1
            continue
        end = start
        while end < len(line) and not line[end].isspace():
            end += 1
        token = line[start:end]
        digits = token[1:] if token.startswith("-") else token
        try:
            if not digits or any(c not in "0123456789" for c in digits):
                raise ValueError
            value = int(token)
        except ValueError:
            raise ParseError(lineno, start + 1, f"invalid integer {token!r}") from None
        if distinct and value in seen:
            raise ParseError(lineno, start + 1, f"duplicate index {value}")
        seen.add(value)
        values.append(value)
        start = end
    return values


def increasing(raw, indices):
    vals = [raw[i - 1] for i in indices]
    return all(a < b for a, b in zip(vals, vals[1:]))


def feasible_sets(raw, size):
    n = len(raw)
    return [
        c
        for c in itertools.combinations(range(1, n + 1), size)
        if increasing(raw, c)
    ]


def lis_len(raw):
    n = len(raw)
    for size in range(n, 0, -1):
        if any(
            increasing(raw, c)
            for c in itertools.combinations(range(1, n + 1), size)
        ):
            return size
    return 0


def lis_length(raw):
    """LIS length by the O(n log n) tail table, for n beyond `lis_len`.

    tails[p] is the smallest value that ends an increasing run of length
    p + 1 seen so far.
    """
    tails = []
    for v in raw:
        pos = bisect_left(tails, v)
        if pos == len(tails):
            tails.append(v)
        else:
            tails[pos] = v
    return len(tails)


def is_maximum_feasible(raw, s):
    """True iff the positions `s` hold increasing values and are as many
    as the longest increasing run of `raw`."""
    members = sorted(set(s))
    return increasing(raw, members) and len(members) == lis_length(raw)


def deal_reference(raw):
    """Patience piles dealt with every element's coordinates recorded.

    Returns (pile_of, depth_of, blocker), indexed by 1-based position with
    slot 0 for the sentinel (pile 0, depth 0, no blocker: -1).  Works on
    the raw values: the sentinel's top is below every value.  Each element
    lands on the leftmost pile whose top exceeds it; its depth is that
    pile's height before it lands, and its blocker the top of the pile to
    the left at that moment.
    """
    n = len(raw)
    tops = [float("-inf")]
    top_index = [0]
    height = [1]
    pile_of = [0] * (n + 1)
    depth_of = [0] * (n + 1)
    blocker = [-1] * (n + 1)
    for i, v in enumerate(raw, 1):
        t = bisect_right(tops, v)
        blocker[i] = top_index[t - 1]
        pile_of[i] = t
        if t == len(tops):
            tops.append(v)
            top_index.append(i)
            height.append(1)
        else:
            depth_of[i] = height[t]
            tops[t] = v
            top_index[t] = i
            height[t] += 1
    return tuple(pile_of), tuple(depth_of), tuple(blocker)


def require_feasible(raw, s):
    """Index-set validation read off the raw values, one check after another.

    Three loops, member by member: the reference for what
    `lisrc.require_feasible` raises, with the same message, although it
    runs C-level passes.  IndexOutOfRange for the first member that is
    not an int (in input order), then for the first out of 1..n (in
    sorted order), then Infeasible for the first adjacent pair whose
    values do not increase.
    """
    n = len(raw)
    items = list(s)
    for i in items:
        if type(i) is not int:
            raise IndexOutOfRange(i, n)
    members = tuple(sorted(set(items)))
    for i in members:
        if not 1 <= i <= n:
            raise IndexOutOfRange(i, n)
    for i, j in zip(members, members[1:]):
        if raw[i - 1] > raw[j - 1]:
            raise Infeasible(i, j, raw[i - 1], raw[j - 1])
    return members


def require_pair(raw, k, i_set, j_set):
    """The two sets of one query, validated check after check.

    `require_feasible` on each set, then the size comparison, then each
    set again with the size-k test (skipped when k is None), the order in
    which the package raises.
    """
    members_i = require_feasible(raw, i_set)
    members_j = require_feasible(raw, j_set)
    if len(members_i) != len(members_j):
        raise SizeMismatch(len(members_i), len(members_j))
    if k is not None:
        for s in (members_i, members_j):
            members = require_feasible(raw, s)
            if len(members) != k:
                raise NotMaximum(
                    f"{members} has size {len(members)}, maximum feasible size is {k}"
                )
    return members_i, members_j


def max_feasible_sets(raw):
    return feasible_sets(raw, lis_len(raw))


def swap_adjacency(sets):
    adj = [[] for _ in sets]
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            if len(set(sets[a]) ^ set(sets[b])) == 2:
                adj[a].append(b)
                adj[b].append(a)
    return adj


def connectivity_partition(sets):
    """Swap-connected groups of the given sets, as a set of frozensets."""
    adj = swap_adjacency(sets)
    seen = [False] * len(sets)
    parts = set()
    for start in range(len(sets)):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        parts.add(frozenset(sets[i] for i in comp))
    return parts


def swap_distance(sets, src, dst):
    """BFS distance between two of the sets, or None if disconnected."""
    order = {s: i for i, s in enumerate(sets)}
    adj = swap_adjacency(sets)
    dist = {order[src]: 0}
    queue = deque([order[src]])
    while queue:
        u = queue.popleft()
        if u == order[dst]:
            return dist[u]
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return None


def swap_neighbours(raw, s):
    """Every increasing set one swap away from the sorted tuple `s`, in order.

    Dropping `s[r]` leaves `rest`; an index strictly inside a gap (lo, hi)
    of `rest`, framed by sentinels below and above every value, may join
    when its value lies between those at lo and hi.  Neighbours come by
    dropped member, then gap, then index.
    """
    n = len(raw)
    value = (float("-inf"), *raw, float("inf"))
    for r, out in enumerate(s):
        rest = s[:r] + s[r + 1 :]
        frame = (0, *rest, n + 1)
        for g in range(len(rest) + 1):
            lo, hi = frame[g], frame[g + 1]
            head, tail = rest[:g], rest[g:]
            for into in range(lo + 1, hi):
                if into != out and value[lo] < value[into] < value[hi]:
                    yield head + (into,) + tail


def swap_bfs(raw, start):
    """Breadth-first tree over `swap_neighbours` from `start`: set -> parent."""
    prev = {start: None}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for t in swap_neighbours(raw, s):
            if t not in prev:
                prev[t] = s
                queue.append(t)
    return prev


def bfs_walk(prev, goal):
    """(removed, added) of the tree path from the root of `prev` to `goal`,
    or None when `goal` is not in the tree."""
    if goal not in prev:
        return None
    removed, added = [], []
    while (s := prev[goal]) is not None:
        (out,) = set(s) - set(goal)
        (into,) = set(goal) - set(s)
        removed.append(out)
        added.append(into)
        goal = s
    return tuple(removed[::-1]), tuple(added[::-1])


def inversion_edges(raw):
    n = len(raw)
    return {
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if raw[i - 1] > raw[j - 1]
    }


def decreasing_triples(raw):
    """Lazily, all position triples a < b < c whose values decrease."""
    return (
        (a, b, c)
        for a, b, c in itertools.combinations(range(1, len(raw) + 1), 3)
        if raw[a - 1] > raw[b - 1] > raw[c - 1]
    )


def first_decreasing_triple(raw):
    """The decreasing triple a < j < c with the leftmost middle j, then the
    leftmost a, then the leftmost c, by trying every j in turn; None when
    there is none."""
    n = len(raw)
    for j in range(1, n + 1):
        larger = [a for a in range(1, j) if raw[a - 1] > raw[j - 1]]
        smaller = [c for c in range(j + 1, n + 1) if raw[c - 1] < raw[j - 1]]
        if larger and smaller:
            return larger[0], j, smaller[0]
    return None


def two_coloring(raw):
    """Breadth-first two-colouring of the inversion graph: a Bipartition,
    or NotBipartite carrying an odd cycle.

    Components are rooted at their smallest position, which takes side 0.
    The odd cycle closes the first non-tree edge found; it starts at its
    smallest position and continues toward that position's smaller
    neighbour on the cycle.
    """
    n = len(raw)
    adjacency = [[] for _ in range(n + 1)]
    for i, j in sorted(inversion_edges(raw)):
        adjacency[i].append(j)
        adjacency[j].append(i)
    color = [-1] * (n + 1)
    parent = [0] * (n + 1)
    for root in range(1, n + 1):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    return NotBipartite(odd_cycle=_close_cycle(parent, v, w))
    return Bipartition(
        sides=tuple(
            tuple(v for v in range(1, n + 1) if color[v] == side) for side in (0, 1)
        )
    )


def _close_cycle(parent, v, w):
    """The odd cycle through the non-tree edge {v, w}, normalised."""
    chain_v = [v]
    while parent[chain_v[-1]] != 0:
        chain_v.append(parent[chain_v[-1]])
    position = {x: d for d, x in enumerate(chain_v)}
    chain_w = [w]
    while chain_w[-1] not in position:
        chain_w.append(parent[chain_w[-1]])
    cycle = chain_v[: position[chain_w[-1]] + 1] + chain_w[-2::-1]
    start = cycle.index(min(cycle))
    cycle = cycle[start:] + cycle[:start]
    if cycle[-1] < cycle[1]:
        cycle = [cycle[0]] + cycle[:0:-1]
    return tuple(cycle)


def dyck_paths(n):
    """Every Dyck path of semilength n as a tuple of steps, True going up."""
    paths = []
    for ups in itertools.combinations(range(2 * n), n):
        up_at = set(ups)
        path = tuple(m in up_at for m in range(2 * n))
        heights = itertools.accumulate(1 if up else -1 for up in path)
        if all(h >= 0 for h in heights):
            paths.append(path)
    return paths


def chain_levels(raw):
    """level[i]: length of the longest increasing run of positions ending at i.

    Equals the patience pile of position i; slot 0 is unused.
    """
    level = [0] * (len(raw) + 1)
    for j in range(1, len(raw) + 1):
        level[j] = 1 + max(
            (level[i] for i in range(1, j) if raw[i - 1] < raw[j - 1]), default=0
        )
    return level


def forbidden_pair_scan(raw):
    """All-pairs reference for the first forbidden pair of mixed piles.

    Returns a function of (i_set, j_set).  A mixed pile is a level holding
    one element private to each set; it is reported as (level, i_elem,
    j_elem).  Pairs are scanned in ascending level order; the first whose
    four elements induce a 4-cycle of the inversion graph is returned, or
    None.
    """
    edges = inversion_edges(raw)
    level = chain_levels(raw)

    def first(i_set, j_set):
        only_i = set(i_set) - set(j_set)
        only_j = set(j_set) - set(i_set)
        mixed = sorted(
            (level[x], x, y) for x in only_i for y in only_j if level[x] == level[y]
        )
        for p, q in itertools.combinations(mixed, 2):
            four = (p[1], p[2], q[1], q[2])
            induced = [
                e for e in itertools.combinations(sorted(four), 2) if e in edges
            ]
            degree = Counter(v for e in induced for v in e)
            if len(induced) == 4 and all(degree[v] == 2 for v in four):
                return p, q
        return None

    return first


def downward_moves(raw, s):
    """Every swap that moves one member of the maximum set `s` strictly
    down its own pile and keeps the set increasing, as (remove, add).

    Tries every entry of the member's pile below it directly.  Ordered by
    pile id, then by target depth from the pile bottom up, so the first
    move is the one the package's descent takes.
    """
    pile_of, depth_of, _ = deal_reference(raw)
    members = set(s)
    moves = [
        (v, u)
        for v in members
        for u in range(1, len(raw) + 1)
        if pile_of[u] == pile_of[v]
        and depth_of[u] < depth_of[v]
        and increasing(raw, sorted(members - {v} | {u}))
    ]
    return sorted(moves, key=lambda m: (pile_of[m[1]], depth_of[m[1]]))


def clamped_descent(raw, s, floor):
    """Greedy descent of the maximum set `s` in which no pile goes below
    the depth of the member of the maximum set `floor` on that pile.

    Each round tries the members in pile order, and each member against
    the entries of its pile from the floor's depth up to its own; the
    first swap that keeps the set increasing is made.  So the lowest pile
    id that admits a move goes first, to its lowest depth not below the
    floor.  Returns the fixed point and the removed and added lists.
    """
    pile_of, depth_of, _ = deal_reference(raw)
    by_depth = sorted(range(1, len(raw) + 1), key=depth_of.__getitem__)
    floor_depth = {pile_of[m]: depth_of[m] for m in floor}
    cur = tuple(sorted(s))
    removed, added = [], []
    while True:
        moves = (
            (v, u)
            for v in cur
            for u in by_depth
            if pile_of[u] == pile_of[v]
            and floor_depth[pile_of[v]] <= depth_of[u] < depth_of[v]
            and increasing(raw, sorted(set(cur) - {v} | {u}))
        )
        move = next(moves, None)
        if move is None:
            return cur, removed, added
        removed.append(move[0])
        added.append(move[1])
        cur = swap(cur, *move)


def pile_coord(raw, i):
    """(pile id, depth from the bottom) of element index i; 0 is the sentinel."""
    if not 0 <= i <= len(raw):
        raise IndexOutOfRange(i, len(raw))
    pile_of, depth_of, _ = deal_reference(raw)
    return pile_of[i], depth_of[i]


def random_perm(rng, n):
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def swap(s, remove, add):
    """The sorted tuple `s` with `remove` dropped and `add` inserted, by one
    set difference and one sort; ValueError unless `remove` is in `s` and
    `add` is not."""
    if remove not in s or add in s:
        raise ValueError(f"swap {remove} -> {add} does not apply to {s}")
    return tuple(sorted(set(s) - {remove} | {add}))


def replay_sets(rs):
    """Every set along a walk, one `swap` per step.

    A generator, like `ReconfSequence.sets`: a step that does not apply
    raises ValueError after the sets before it were yielded.
    """
    cur = rs.start
    yield cur
    for remove, add in zip(rs.removed, rs.added):
        cur = swap(cur, remove, add)
        yield cur


def fmt_set(s):
    return "{" + ",".join(str(i) for i in s) + "}"


def render_walk(rs):
    """The text walk as a list of lines: length, start set, one line per swap."""
    lines = [f"length {len(rs)}", fmt_set(rs.start)]
    sets = list(replay_sets(rs))
    for remove, add, cur in zip(rs.removed, rs.added, sets[1:]):
        lines.append(f"swap {remove} -> {add}: {fmt_set(cur)}")
    return lines


def staircase(k, height, reach=1):
    """Values of a staircase of k piles, each `height` tall, and its grid.

    Element (t, d) lands in pile t at depth d.  With w = 2 * reach + 1,
    positions follow (2d + w t, t) and values (w t - 2d, t), so (t, a)
    precedes (t + 1, b) exactly when |a - b| <= reach.  grid[t - 1][d] is
    the 1-based position of (t, d).
    """
    w = 2 * reach + 1
    cells = [(t, d) for t in range(1, k + 1) for d in range(height)]
    by_pos = sorted(cells, key=lambda c: (2 * c[1] + w * c[0], c[0]))
    by_val = sorted(cells, key=lambda c: (w * c[0] - 2 * c[1], c[0]))
    rank = {c: r for r, c in enumerate(by_val, start=1)}
    grid = [[0] * height for _ in range(k)]
    for p, c in enumerate(by_pos, start=1):
        grid[c[0] - 1][c[1]] = p
    return tuple(rank[c] for c in by_pos), grid


def staircase_set(grid, reach, rng):
    """A random maximum set of a staircase: depths that step by at most reach."""
    height = len(grid[0])
    depth = rng.randrange(height)
    members = []
    for row in grid:
        members.append(row[depth])
        depth = min(height - 1, max(0, depth + rng.randint(-reach, reach)))
    return tuple(sorted(members))
