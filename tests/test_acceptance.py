"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS|FAIL` line (visible with
pytest -s); the assertion carries the details on failure.
"""
import itertools
import json
import random
import time
from collections import defaultdict
from pathlib import Path

from lisrc import (
    NoSequence,
    ReconfSequence,
    build_piles,
    enumerate_feasible,
    normalize,
    oracle_shortest,
    reconfigure,
    shortest_sequence,
)
from lisrc.bipartite import build_graph
from lisrc.cli import format_instance, generate, parse_instance, run
from lisrc.oracle import build_reconfig_graph
from lisrc.piles import random_max_sets
from lisrc.reconfig import minimal_set

import bruteforce as bf
from conftest import K22_NO, DETOUR, DETOUR_WALK

DATA = Path(__file__).parent / "data"


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _partition_by_minimal(seq, ps, maxima):
    groups = defaultdict(set)
    for s in maxima:
        groups[minimal_set(seq, ps, s)[0]].add(s)
    return {frozenset(g) for g in groups.values()}


def _partition_by_connectivity(maxima):
    return bf.connectivity_partition(maxima)


def test_criterion_1_k22_no_instance(capsys):
    start = time.perf_counter()
    raw, i_set, j_set = K22_NO
    seq = normalize(raw)
    no_file = str(DATA / "k22.txt")

    assert run(["decide", no_file]) == 0
    decide_out = capsys.readouterr().out
    assert run(["shortest", no_file]) == 0
    shortest_out = capsys.readouterr().out

    ok = (
        decide_out == "NO\n"
        and shortest_out.startswith("NO\n")
        and "forbidden pair" in shortest_out
        and isinstance(shortest_sequence(seq, i_set, j_set), NoSequence)
        and oracle_shortest(seq, i_set, j_set) is None
        and reconfigure(seq, i_set, j_set).walk is None
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        assert _report(1, ok and elapsed < 1.0, f"4-cycle no-instance ({elapsed:.3f}s)")


def test_criterion_2_detour_length(capsys):
    start = time.perf_counter()
    raw, i_set, j_set = DETOUR
    seq = normalize(raw)
    p3_file = str(DATA / "detour.txt")

    assert run(["decide", p3_file]) == 0
    decide_out = capsys.readouterr().out
    assert run(["oracle", "--shortest", "--json", p3_file]) == 0
    oracle_payload = json.loads(capsys.readouterr().out)

    walk_ok = all(bf.is_maximum_feasible(raw, s) for s in DETOUR_WALK)
    steps_ok = all(
        len(set(a) ^ set(b)) == 2
        for a, b in zip(DETOUR_WALK, DETOUR_WALK[1:])
    )
    private = len(set(i_set) - set(j_set))

    ok = (
        decide_out == "YES\n"
        and reconfigure(seq, i_set, j_set).walk is not None
        and oracle_payload["length"] == 4
        and len(oracle_shortest(seq, i_set, j_set)) == 4
        and walk_ok
        and steps_ok
        and DETOUR_WALK[0] == i_set
        and DETOUR_WALK[-1] == j_set
        and private == 3
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        assert _report(
            2, ok and elapsed < 1.0, f"4 swaps for 3 private elements ({elapsed:.3f}s)"
        )


def test_criterion_3_oracle_equivalence(capsys):
    start = time.perf_counter()
    disagreements = 0
    checked = 0

    def agrees(raw):
        seq = normalize(raw)
        ps = build_piles(seq)
        maxima = enumerate_feasible(seq, ps.k)
        return _partition_by_minimal(seq, ps, maxima) == _partition_by_connectivity(
            maxima
        )

    for n in range(1, 8):
        for raw in itertools.permutations(range(1, n + 1)):
            checked += 1
            if not agrees(raw):
                disagreements += 1

    rng = random.Random(2024)
    for _ in range(1000):
        raw = bf.random_perm(rng, rng.randint(8, 10))
        checked += 1
        if not agrees(raw):
            disagreements += 1
        # Spot-check the public entry points on one concrete pair.
        seq = normalize(raw)
        maxima = enumerate_feasible(seq, bf.lis_length(raw))
        i_set, j_set = rng.choice(maxima), rng.choice(maxima)
        connected = oracle_shortest(seq, i_set, j_set) is not None
        if (reconfigure(seq, i_set, j_set).walk is not None) != connected:
            disagreements += 1

    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 300.0
    with capsys.disabled():
        assert _report(
            3,
            ok,
            f"decision vs connectivity on {checked} sequences, "
            f"{disagreements} disagreements ({elapsed:.1f}s)",
        )


def test_criterion_4_confluence(capsys):
    rng = random.Random(411)
    mismatches = 0
    for _ in range(1000):
        raw = bf.random_perm(rng, rng.randint(1, 12))
        seq = normalize(raw)
        ps = build_piles(seq)
        s = rng.choice(enumerate_feasible(seq, ps.k))
        cur = s
        while moves := bf.downward_moves(raw, cur):
            cur = bf.swap(cur, *rng.choice(moves))
        if cur != minimal_set(seq, ps, s)[0]:
            mismatches += 1
    with capsys.disabled():
        assert _report(
            4,
            mismatches == 0,
            f"random-order vs fixed-order descent on 1000 sets, "
            f"{mismatches} mismatches",
        )


def test_criterion_5_bipartite_shortest(capsys):
    no_pair = []
    with_pair = [(K22_NO[0], K22_NO[1], K22_NO[2])]
    moved = 0
    seed = 0
    # Keep sampling until enough pair-free instances exist and enough of
    # them actually move elements, so the length check is not vacuous.
    while (len(no_pair) < 200 or moved < 50) and seed < 3000:
        n = 4 + seed % 7
        seq, i_set, j_set = parse_instance(generate(n, seed=seed, bipartite=True))
        result = shortest_sequence(seq, i_set, j_set)
        if isinstance(result, NoSequence):
            with_pair.append((seq.raw, i_set, j_set))
        else:
            no_pair.append((seq.raw, i_set, j_set, result))
            moved += i_set != j_set
        seed += 1

    violations = []
    for raw, i_set, j_set, result in no_pair:
        seq = normalize(raw)
        assert isinstance(result, ReconfSequence)
        private = len(set(i_set) - set(j_set))
        found = oracle_shortest(seq, i_set, j_set)
        sets = list(result.sets())
        if not (
            len(result) == private
            and found is not None
            and len(found) == private
            and sets[0] == i_set
            and sets[-1] == j_set
            and all(bf.is_maximum_feasible(raw, s) for s in sets)
        ):
            violations.append((raw, i_set, j_set))
    for raw, i_set, j_set in with_pair:
        seq = normalize(raw)
        if oracle_shortest(seq, i_set, j_set) is not None:
            violations.append((raw, i_set, j_set))

    ok = len(no_pair) >= 200 and moved >= 50 and not violations and len(with_pair) >= 1
    with capsys.disabled():
        assert _report(
            5,
            ok,
            f"{len(no_pair)} forbidden-pair-free instances at exact length, "
            f"{len(with_pair)} obstructed instances disconnected, "
            f"{len(violations)} violations",
        )


def test_criterion_6_structural_invariants(capsys):
    violations = 0

    def check(raw):
        nonlocal violations
        seq = normalize(raw)
        ps = build_piles(seq)
        if ps.k != bf.lis_length(raw) or ps.piles[0] != (0,):
            violations += 1
        tops = [seq.value(p[-1]) for p in ps.piles]
        if tops != sorted(set(tops)):
            violations += 1
        for pile in ps.piles:
            for a, b in zip(pile, pile[1:]):
                if not (a < b and seq.value(a) > seq.value(b)):
                    violations += 1
        maxima = enumerate_feasible(seq, ps.k)
        pile_of = bf.deal_reference(raw)[0]
        for s in maxima:
            if sorted(pile_of[i] for i in s) != list(range(1, ps.k + 1)):
                violations += 1
        graph = build_reconfig_graph(maxima)
        g = build_graph(seq)
        for u, v in graph.edges:
            diff = sorted(set(graph.nodes[u]) ^ set(graph.nodes[v]))
            if len(diff) != 2 or diff[1] not in g.adjacency[diff[0]]:
                violations += 1

    checked = 0
    for n in range(0, 7):
        for raw in itertools.permutations(range(1, n + 1)):
            check(raw)
            checked += 1
    rng = random.Random(600)
    for _ in range(300):
        check(bf.random_perm(rng, rng.randint(7, 12)))
        checked += 1

    with capsys.disabled():
        assert _report(
            6,
            violations == 0,
            f"pile and swap-edge invariants over {checked} sequences, "
            f"{violations} violations",
        )


def test_criterion_7_desk_scale_performance(capsys):
    rng = random.Random(70000)
    values = list(range(1, 100_001))
    rng.shuffle(values)
    seq = normalize(values)
    ps = build_piles(seq)
    text = format_instance(seq, *itertools.islice(random_max_sets(seq, ps, rng), 2))

    # The front end (parse, normalize, deal the piles) runs inside the timer.
    start = time.perf_counter()
    answer = reconfigure(*parse_instance(text))
    elapsed = time.perf_counter() - start

    with capsys.disabled():
        assert _report(
            7,
            elapsed < 2.0,
            f"reconfigure at n=100000 in {elapsed:.3f}s "
            f"(answer {answer.walk is not None})",
        )
