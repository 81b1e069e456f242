"""Naive reference implementations the tests cross-check the package against.

Everything here works straight off the raw value list, or straight off
the fields of a walk, so it shares no code path with the package.
Exponential, except `lis_length`, `rank_normalize`, `scan_int_tokens`,
`replay_sets`, `render_walk` and the staircase builders; keep n small.
"""
import itertools
from bisect import bisect_left
from collections import Counter, deque

from lisrc.errors import DuplicateValue, ParseError


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
    the first repeat) raises ParseError at its 1-based column.
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
        if not digits or any(c not in "0123456789" for c in digits):
            raise ParseError(lineno, start + 1, f"invalid integer {token!r}")
        value = int(token)
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


def random_perm(rng, n):
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def replay_sets(rs):
    """Every set along a walk, one set difference and one sort per step.

    A generator, like `ReconfSequence.sets`: a step that does not apply
    raises ValueError after the sets before it were yielded.
    """
    cur = rs.start
    yield cur
    for step in rs.steps:
        if step.remove not in cur or step.add in cur:
            raise ValueError(f"step {step} does not apply to {cur}")
        cur = tuple(sorted(set(cur) - {step.remove} | {step.add}))
        yield cur


def fmt_set(s):
    return "{" + ",".join(str(i) for i in s) + "}"


def render_walk(rs):
    """The text walk as a list of lines: length, start set, one line per swap."""
    lines = [f"length {len(rs)}", fmt_set(rs.start)]
    sets = list(replay_sets(rs))
    for step, cur in zip(rs.steps, sets[1:]):
        lines.append(f"swap {step.remove} -> {step.add}: {fmt_set(cur)}")
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
