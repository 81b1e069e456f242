"""Independent checks of the CLI's text answers against known ground truth.

Each check takes the instance the benchmark generated and the captured
stdout of one request, and returns None when the answer is right or a
one-line reason when it is wrong.  Checks use only the raw values and
`gen`'s own patience sort, never lisrc.
"""
from __future__ import annotations

import re

from gen import Instance, increasing, pile_ids

SWAP_LINE = re.compile(r"swap (\d+) -> (\d+): (\{[\d,]*\})")
PAIR_LINE = re.compile(
    r"forbidden pair: pile (\d+) \(I (\d+), J (\d+)\) / pile (\d+) \(I (\d+), J (\d+)\)"
)


def parse_set(text: str) -> tuple[int, ...]:
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a set: {text!r}")
    body = text[1:-1]
    return tuple(int(x) for x in body.split(",")) if body else ()


def replay(inst: Instance, sets: list[tuple[int, ...]]) -> str | None:
    """Check a walk of sets: starts at I, ends at J, one element per step,
    every set increasing and of the same size."""
    if not sets or sets[0] != inst.i_set:
        return "walk does not start at I"
    if sets[-1] != inst.j_set:
        return "walk does not end at J"
    for step, (a, b) in enumerate(zip(sets, sets[1:]), start=1):
        if len(b) != len(a) or len(set(a) - set(b)) != 1:
            return f"step {step} does not swap exactly one element"
        if list(b) != sorted(b) or not increasing(inst.values, b):
            return f"step {step} leaves an infeasible set"
    return None


def check_walk(inst: Instance, lines: list[str]) -> str | None:
    """`witness`/`shortest` YES text: 'length L', the start set, L swap lines."""
    if len(lines) < 3 or not lines[1].startswith("length "):
        return "YES answer lacks 'length' and start set"
    length = int(lines[1].split()[1])
    if len(lines) != length + 3:
        return f"length {length} but {len(lines) - 3} swap lines"
    sets = [parse_set(lines[2])]
    for line in lines[3:]:
        m = SWAP_LINE.fullmatch(line)
        if not m:
            return f"unparsable swap line {line!r}"
        out, into, shown = int(m[1]), int(m[2]), parse_set(m[3])
        cur = sets[-1]
        if out not in cur or into in cur:
            return f"swap {out} -> {into} does not apply to the current set"
        nxt = tuple(sorted(set(cur) - {out} | {into}))
        if shown != nxt:
            return f"swap {out} -> {into} prints the wrong set"
        sets.append(nxt)
    return replay(inst, sets)


def check_decide(inst: Instance, out: str) -> str | None:
    want = "YES" if inst.yes else "NO"
    return None if out == want + "\n" else f"expected {want}, got {out[:40]!r}"


def check_witness(inst: Instance, out: str) -> str | None:
    """A YES walk from I to J (every `long_descent` instance is YES)."""
    lines = out.splitlines()
    if not inst.yes or lines[:1] != ["YES"]:
        return "expected YES"
    return check_walk(inst, lines)


def check_shortest(inst: Instance, out: str) -> str | None:
    """YES: a valid walk of exactly |I \\ J| swaps, the lower bound for any
    walk, so it is shortest.  NO: a forbidden pair of mixed piles whose
    four elements induce a 4-cycle in the inversion graph."""
    lines = out.splitlines()
    if not inst.yes:
        if len(lines) != 2 or lines[0] != "NO":
            return "expected NO and a forbidden pair"
        m = PAIR_LINE.fullmatch(lines[1])
        if not m:
            return f"unparsable forbidden pair {lines[1]!r}"
        return check_forbidden_pair(inst, *(int(x) for x in m.groups()))
    if not lines or lines[0] != "YES":
        return "expected YES"
    bad = check_walk(inst, lines)
    if bad:
        return bad
    length = int(lines[1].split()[1])
    lower = len(set(inst.i_set) - set(inst.j_set))
    if length != lower or length != inst.distance:
        return f"length {length}, |I \\ J| {lower}, known distance {inst.distance}"
    return None


def check_forbidden_pair(inst: Instance, p, pi, pj, q, qi, qj) -> str | None:
    piles = pile_ids(inst.values)
    only_i = set(inst.i_set) - set(inst.j_set)
    only_j = set(inst.j_set) - set(inst.i_set)
    for pile, i_el, j_el in ((p, pi, pj), (q, qi, qj)):
        members = [x for x in range(1, len(inst.values) + 1) if piles[x] == pile]
        if sorted(members) != sorted((i_el, j_el)):
            return f"pile {pile} is not the two elements {i_el}, {j_el}"
        if i_el not in only_i or j_el not in only_j:
            return f"pile {pile} is not mixed"
    if p == q:
        return "forbidden pair names one pile twice"
    four = (pi, pj, qi, qj)
    degree = {x: 0 for x in four}
    edges = 0
    for a in four:
        for b in four:
            if a < b and inst.values[a - 1] > inst.values[b - 1]:
                degree[a] += 1
                degree[b] += 1
                edges += 1
    if edges != 4 or any(d != 2 for d in degree.values()):
        return "forbidden pair does not induce a 4-cycle"
    return None


def check_oracle(inst: Instance, out: str) -> str | None:
    """`oracle --shortest` text: the BFS length, then every set on the walk."""
    lines = out.splitlines()
    if inst.distance is None:
        return None if lines == ["NO"] else "expected NO"
    if not lines or lines[0] != str(inst.distance):
        return f"expected length {inst.distance}, got {lines[:1]}"
    if len(lines) != inst.distance + 2:
        return "walk has the wrong number of sets"
    return replay(inst, [parse_set(line) for line in lines[1:]])
