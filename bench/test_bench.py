"""Self-tests of the benchmark's generators and answer checker.

    python3 -m pytest bench/test_bench.py

Generators are checked at tiny sizes against a BFS over all feasible sets
built with itertools and networkx alone; the checker must accept the
CLI's real answers and reject corrupted ones.
"""
from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def brute_distance(values, i_set, j_set):
    """Swap distance over every increasing set of |I|, None if unreachable."""
    n = len(values)
    sets = [
        c
        for c in itertools.combinations(range(1, n + 1), len(i_set))
        if all(values[a - 1] < values[b - 1] for a, b in zip(c, c[1:]))
    ]
    graph = nx.Graph()
    graph.add_nodes_from(sets)
    graph.add_edges_from(
        (a, b) for a, b in itertools.combinations(sets, 2) if len(set(a) ^ set(b)) == 2
    )
    assert i_set in graph and j_set in graph, "I and J must be increasing"
    try:
        return nx.shortest_path_length(graph, i_set, j_set)
    except nx.NetworkXNoPath:
        return None


def brute_lis(values):
    n = len(values)
    return max(
        size
        for size in range(n + 1)
        for c in itertools.combinations(values, size)
        if list(c) == sorted(c)
    )


def assert_ground_truth(inst, maximum=True):
    if maximum:
        assert len(inst.i_set) == brute_lis(inst.values)
    d = brute_distance(inst.values, inst.i_set, inst.j_set)
    assert (d is not None) == inst.yes
    if inst.distance is not None or not inst.yes:
        assert d == inst.distance


@pytest.mark.parametrize("seed", range(20))
def test_random_instances(seed):
    rng = random.Random(seed)
    assert_ground_truth(gen.random_yes(11, 30, rng))
    assert_ground_truth(gen.random_no(11, 30, rng))


@pytest.mark.parametrize("seed", range(5))
def test_staircase(seed):
    k, h = 3, 4
    values, grid = gen.staircase(k, h)
    piles = gen.pile_ids(values)
    for t in range(k):
        assert [piles[p] for p in grid[t]] == [t + 1] * h
        # Depth order inside a pile: positions rise, values fall.
        assert grid[t] == sorted(grid[t])
        assert [values[p - 1] for p in grid[t]] == sorted(
            (values[p - 1] for p in grid[t]), reverse=True
        )
    assert_ground_truth(gen.staircase_instance(k, h, random.Random(seed)))


@pytest.mark.parametrize("seed", range(20))
def test_bipartite_instances(seed):
    rng = random.Random(seed)
    for no in (False, True):
        inst = gen.bipartite_instance(12, 3, no, rng)
        assert gen.avoids_321(inst.values)
        assert_ground_truth(inst)
        if not no:
            assert inst.distance == len(set(inst.i_set) - set(inst.j_set))


@pytest.mark.parametrize("seed", range(10))
def test_merge_instances(seed):
    inst = gen.merge_instance(4, 3, (0, 100), random.Random(seed))
    assert len(gen.feasible_sets(inst.values, 3)) == gen.count_increasing(inst.values, 3)
    assert_ground_truth(inst, maximum=False)


# ---------------------------------------------------------------------------
# Checker


def answer(tmp_path, argv, inst):
    """The CLI's real stdout for one instance, checked to exit cleanly."""
    path = tmp_path / "instance.txt"
    path.write_text(inst.text())
    cli = run.import_lisrc()
    _, status, out, err = run.request(cli, [*argv, str(path)])
    assert status == 0 and not err
    return out


def rejected(checker, inst, out):
    return checker(inst, out) is not None


def test_decide_checker(tmp_path):
    rng = random.Random(1)
    for inst in (gen.random_yes(30, 50, rng), gen.random_no(30, 50, rng)):
        out = answer(tmp_path, ["decide"], inst)
        assert check.check_decide(inst, out) is None
        flipped = "NO\n" if out == "YES\n" else "YES\n"
        assert rejected(check.check_decide, inst, flipped)


def test_witness_checker(tmp_path):
    inst = gen.staircase_instance(4, 6, random.Random(2))
    out = answer(tmp_path, ["witness"], inst)
    assert check.check_witness(inst, out) is None
    lines = out.splitlines()
    length = int(lines[1].split()[1])
    # One altered step: the swap adds a different element.
    bad_step = lines.copy()
    m = check.SWAP_LINE.fullmatch(bad_step[4])
    bad_step[4] = f"swap {m[1]} -> {int(m[2]) + 1}: {m[3]}"
    # Length off by one, and a walk cut short of J.
    off_by_one = lines[:1] + [f"length {length + 1}"] + lines[2:]
    cut = lines[:1] + [f"length {length - 1}"] + lines[2:-1]
    for bad in (bad_step, off_by_one, cut):
        assert rejected(check.check_witness, inst, "\n".join(bad) + "\n")


def test_shortest_checker(tmp_path):
    rng = random.Random(3)
    yes = gen.bipartite_instance(24, 5, False, rng)
    out = answer(tmp_path, ["shortest"], yes)
    assert check.check_shortest(yes, out) is None
    lines = out.splitlines()
    length = int(lines[1].split()[1])
    assert length > 0
    off_by_one = lines[:1] + [f"length {length + 1}"] + lines[2:]
    assert rejected(check.check_shortest, yes, "\n".join(off_by_one) + "\n")
    # A valid walk two swaps longer: step out and back before the answer's walk.
    start = yes.i_set
    m = check.SWAP_LINE.fullmatch(lines[3])
    out_el, in_el = int(m[1]), int(m[2])
    detour = [
        f"swap {out_el} -> {in_el}: {m[3]}",
        f"swap {in_el} -> {out_el}: {{{','.join(map(str, start))}}}",
    ]
    longer = lines[:1] + [f"length {length + 2}"] + lines[2:3] + detour + lines[3:]
    assert check.check_walk(yes, longer) is None
    assert rejected(check.check_shortest, yes, "\n".join(longer) + "\n")

    no = gen.bipartite_instance(24, 5, True, rng)
    out = answer(tmp_path, ["shortest"], no)
    assert check.check_shortest(no, out) is None
    m = check.PAIR_LINE.fullmatch(out.splitlines()[1])
    wrong_pile = out.replace(f"pile {m[1]} ", f"pile {int(m[1]) + 2} ", 1)
    assert rejected(check.check_shortest, no, wrong_pile)
    assert rejected(check.check_shortest, no, "NO\n")


def test_oracle_checker(tmp_path):
    rng = random.Random(4)
    insts = [gen.merge_instance(8, 5, (450, 550), rng) for _ in range(4)]
    inst = next(i for i in insts if i.distance and i.distance > 1)
    out = answer(tmp_path, ["oracle", "--shortest", "--general"], inst)
    assert check.check_oracle(inst, out) is None
    lines = out.splitlines()
    off_by_one = [str(inst.distance + 1)] + lines[1:]
    altered = lines[:2] + [lines[1]] + lines[3:]  # a step that swaps nothing
    for bad in (off_by_one, altered):
        assert rejected(check.check_oracle, inst, "\n".join(bad) + "\n")


def test_malformed_answer_is_a_failure():
    inst = gen.staircase_instance(3, 4, random.Random(5))
    loop = run.Loop(None, run.WORKLOADS["long_descent"], [inst], ["unused"])
    for out in ("YES\nlength x\n", "YES\nlength 1\n{1,2\nswap 1 -> 2: {2}\n"):
        assert loop.judge(0, 0, out, "")
    assert loop.judge(0, 2, "", "error: boom\n")
