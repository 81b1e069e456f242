import random

import pytest

from lisrc import (
    Infeasible,
    NotMaximum,
    ReconfSequence,
    SizeMismatch,
    SwapStep,
    apply_step,
    build_piles,
    decide,
    downward_moves,
    is_feasible,
    is_maximum_feasible,
    minimal_set,
    normalize,
    witness,
)

import bruteforce as bf
from conftest import K22_NO, DETOUR


def naive_downward_moves(seq, ps, s):
    """Order-free reference: try every same-pile deeper entry directly."""
    moves = set()
    members = set(s)
    for v in sorted(members):
        t, d = ps.pile_of[v], ps.depth_of[v]
        for u in ps.piles[t]:
            if ps.depth_of[u] < d and is_feasible(seq, members - {v} | {u}):
                moves.add((v, u))
    return moves


def naive_descent(seq, ps, s):
    """Reference greedy: re-derive all moves and apply the first each round."""
    cur = tuple(sorted(s))
    trace = []
    while True:
        moves = downward_moves(seq, ps, cur)
        if not moves:
            return cur, trace
        trace.append(moves[0])
        cur = apply_step(cur, moves[0])


def sample_instances(seed, rounds, max_n):
    rng = random.Random(seed)
    for _ in range(rounds):
        raw = bf.random_perm(rng, rng.randint(1, max_n))
        maxima = bf.max_feasible_sets(raw)
        yield raw, rng.choice(maxima), rng.choice(maxima)


class TestDownwardMoves:
    def test_single_move(self):
        seq = normalize(DETOUR[0])
        ps = build_piles(seq)
        assert downward_moves(seq, ps, (2, 6, 7)) == [SwapStep(remove=6, add=4)]

    def test_all_at_bottom(self):
        seq = normalize(DETOUR[0])
        ps = build_piles(seq)
        assert downward_moves(seq, ps, (1, 3, 5)) == []

    def test_singleton_piles(self):
        seq = normalize((1, 2, 3))
        ps = build_piles(seq)
        assert downward_moves(seq, ps, (1, 2, 3)) == []

    def test_blocked_despite_depth(self):
        seq = normalize(K22_NO[0])
        ps = build_piles(seq)
        assert downward_moves(seq, ps, (3, 4)) == []

    def test_rejects_non_maximum(self):
        seq = normalize(K22_NO[0])
        ps = build_piles(seq)
        with pytest.raises(NotMaximum):
            downward_moves(seq, ps, (1,))
        with pytest.raises(Infeasible):
            downward_moves(seq, ps, (1, 3))

    def test_matches_naive_reference(self):
        for raw, s, _ in sample_instances(seed=3, rounds=150, max_n=10):
            seq = normalize(raw)
            ps = build_piles(seq)
            moves = downward_moves(seq, ps, s)
            assert {(m.remove, m.add) for m in moves} == naive_downward_moves(
                seq, ps, s
            )

    def test_ordered_by_pile_then_target_depth(self):
        for raw, s, _ in sample_instances(seed=7, rounds=80, max_n=10):
            seq = normalize(raw)
            ps = build_piles(seq)
            keys = [
                (ps.pile_of[m.add], ps.depth_of[m.add])
                for m in downward_moves(seq, ps, s)
            ]
            assert keys == sorted(keys)

    def test_moves_stay_within_pile(self):
        for raw, s, _ in sample_instances(seed=13, rounds=100, max_n=12):
            seq = normalize(raw)
            ps = build_piles(seq)
            for m in downward_moves(seq, ps, s):
                assert ps.pile_of[m.remove] == ps.pile_of[m.add]
                assert ps.depth_of[m.add] < ps.depth_of[m.remove]


class TestMinimalSet:
    def test_fixed_point_immediately(self):
        seq = normalize(K22_NO[0])
        ps = build_piles(seq)
        assert minimal_set(seq, ps, (1, 2)) == ((1, 2), [])

    def test_fixed_point_despite_depths(self):
        seq = normalize(K22_NO[0])
        ps = build_piles(seq)
        assert minimal_set(seq, ps, (3, 4)) == ((3, 4), [])

    def test_four_step_descent(self):
        seq = normalize(DETOUR[0])
        ps = build_piles(seq)
        m, trace = minimal_set(seq, ps, (2, 6, 7))
        assert m == (1, 3, 5)
        assert trace == [
            SwapStep(remove=6, add=4),
            SwapStep(remove=7, add=5),
            SwapStep(remove=4, add=3),
            SwapStep(remove=2, add=1),
        ]

    def test_rejects_non_maximum(self):
        seq = normalize(DETOUR[0])
        ps = build_piles(seq)
        with pytest.raises(NotMaximum):
            minimal_set(seq, ps, (1, 3))

    def test_matches_reference_greedy(self):
        for raw, s, _ in sample_instances(seed=19, rounds=200, max_n=10):
            seq = normalize(raw)
            ps = build_piles(seq)
            assert minimal_set(seq, ps, s) == naive_descent(seq, ps, s)

    def test_trace_properties(self):
        for raw, s, _ in sample_instances(seed=29, rounds=150, max_n=12):
            seq = normalize(raw)
            ps = build_piles(seq)
            m, trace = minimal_set(seq, ps, s)
            assert downward_moves(seq, ps, m) == []
            total_depth = sum(ps.depth_of[i] for i in s)
            assert len(trace) <= total_depth
            cur = tuple(sorted(s))
            depth = total_depth
            for step in trace:
                cur = apply_step(cur, step)
                assert is_maximum_feasible(seq, cur)
                new_depth = sum(ps.depth_of[i] for i in cur)
                assert new_depth < depth
                depth = new_depth
            assert cur == m

    def test_confluence_under_random_order(self):
        rng = random.Random(43)
        for raw, s, _ in sample_instances(seed=47, rounds=120, max_n=12):
            seq = normalize(raw)
            ps = build_piles(seq)
            cur = tuple(sorted(s))
            while True:
                moves = downward_moves(seq, ps, cur)
                if not moves:
                    break
                cur = apply_step(cur, rng.choice(moves))
            assert cur == minimal_set(seq, ps, s)[0]


class TestDecide:
    def test_k22_no_instance(self):
        assert decide(normalize(K22_NO[0]), K22_NO[1], K22_NO[2]) is False

    def test_detour_instance(self):
        raw, i_set, j_set = DETOUR
        assert decide(normalize(raw), i_set, j_set) is True

    def test_identical_sets(self):
        assert decide(normalize(K22_NO[0]), (3, 4), (3, 4)) is True

    def test_empty_sequence(self):
        assert decide(normalize(()), (), ()) is True

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            decide(normalize((1, 3, 2)), (1, 2), (1,))

    def test_rejects_non_maximum(self):
        with pytest.raises(NotMaximum):
            decide(normalize(K22_NO[0]), (1,), (3,))

    def test_matches_connectivity_oracle(self):
        for raw, i_set, j_set in sample_instances(seed=53, rounds=150, max_n=9):
            seq = normalize(raw)
            expected = any(
                i_set in part and j_set in part
                for part in bf.connectivity_partition(bf.max_feasible_sets(raw))
            )
            assert decide(seq, i_set, j_set) == expected


class TestWitness:
    def test_detour_instance(self):
        raw, i_set, j_set = DETOUR
        rs = witness(normalize(raw), i_set, j_set)
        assert len(rs) == 4
        assert rs.start == i_set and rs.end() == j_set

    def test_identical_sets(self):
        rs = witness(normalize(K22_NO[0]), (1, 2), (1, 2))
        assert rs.steps == () and rs.end() == (1, 2)

    def test_no_instance(self):
        assert witness(normalize(K22_NO[0]), (1, 2), (3, 4)) is None

    def test_every_prefix_maximum_feasible(self):
        for raw, i_set, j_set in sample_instances(seed=61, rounds=150, max_n=10):
            seq = normalize(raw)
            rs = witness(seq, i_set, j_set)
            if rs is None:
                assert decide(seq, i_set, j_set) is False
                continue
            sets = list(rs.sets())
            assert sets[0] == i_set and sets[-1] == j_set
            for s in sets:
                assert is_maximum_feasible(seq, s)

    def test_length_is_sum_of_traces(self):
        for raw, i_set, j_set in sample_instances(seed=67, rounds=80, max_n=10):
            seq = normalize(raw)
            ps = build_piles(seq)
            rs = witness(seq, i_set, j_set)
            if rs is not None:
                _, trace_i = minimal_set(seq, ps, i_set)
                _, trace_j = minimal_set(seq, ps, j_set)
                assert len(rs) == len(trace_i) + len(trace_j)
                # One swap can fix at most one private element.
                assert len(rs) >= len(set(i_set) - set(j_set))


class TestApplyStep:
    def test_swap(self):
        assert apply_step((1, 3, 5), SwapStep(remove=3, add=4)) == (1, 4, 5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            apply_step((1, 3), SwapStep(remove=2, add=4))
        with pytest.raises(ValueError):
            apply_step((1, 3), SwapStep(remove=1, add=3))

    def test_sequence_replay(self):
        rs = ReconfSequence(
            start=(1, 3, 5),
            steps=(SwapStep(remove=1, add=2), SwapStep(remove=3, add=4)),
        )
        assert list(rs.sets()) == [(1, 3, 5), (2, 3, 5), (2, 4, 5)]
        assert rs.end() == (2, 4, 5)
