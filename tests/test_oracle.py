import random

import pytest

from lisrc import (
    NotMaximum,
    SizeMismatch,
    TooLarge,
    build_reconfig_graph,
    connected_components,
    enumerate_feasible,
    is_feasible,
    normalize,
    oracle_decide,
    oracle_shortest,
)

import bruteforce as bf
from conftest import K22_NO, DETOUR


class TestEnumerateFeasible:
    def test_four_cycle_sequence(self):
        # Size-2 feasible sets of (7,8,5,6): only the two value-adjacent runs.
        seq = normalize(K22_NO[0])
        assert enumerate_feasible(seq, 2) == [(1, 2), (3, 4)]
        assert enumerate_feasible(seq, 2) == bf.feasible_sets(K22_NO[0], 2)

    def test_size_zero(self):
        assert enumerate_feasible(normalize((2, 1)), 0) == [()]

    def test_detour_instance(self):
        sets = enumerate_feasible(normalize(DETOUR[0]), 3)
        assert sets == [(1, 3, 5), (2, 3, 5), (2, 4, 5), (2, 4, 7), (2, 6, 7)]
        assert (1, 3, 5) in sets and (2, 6, 7) in sets

    def test_matches_combination_scan(self):
        rng = random.Random(8)
        for _ in range(80):
            raw = bf.random_perm(rng, rng.randint(0, 10))
            seq = normalize(raw)
            for size in range(len(raw) + 1):
                assert enumerate_feasible(seq, size) == bf.feasible_sets(raw, size)

    def test_all_outputs_feasible_and_sorted(self):
        seq = normalize((4, 1, 5, 2, 6, 3))
        sets = enumerate_feasible(seq, 3)
        assert sets == sorted(sets)
        assert all(is_feasible(seq, s) for s in sets)

    def test_bound(self):
        seq = normalize(range(1, 18))
        with pytest.raises(TooLarge):
            enumerate_feasible(seq, 17)
        assert len(enumerate_feasible(seq, 17, bound=17)) == 1


class TestBuildReconfigGraph:
    def test_four_cycle_sequence_components(self):
        # The two size-2 sets differ in both elements: no edge between them.
        graph = build_reconfig_graph(enumerate_feasible(normalize(K22_NO[0]), 2))
        assert graph.nodes == ((1, 2), (3, 4))
        assert graph.edges == ()

    def test_single_node(self):
        graph = build_reconfig_graph([(1, 2, 3)])
        assert graph.nodes == ((1, 2, 3),) and graph.edges == ()

    def test_detour_instance_is_a_path(self):
        seq = normalize(DETOUR[0])
        graph = build_reconfig_graph(enumerate_feasible(seq, 3))
        assert len(graph.nodes) == 5
        assert graph.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert len(connected_components(graph)) == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            build_reconfig_graph([(1,), (1, 2)])

    def test_edges_match_pairwise_scan(self):
        rng = random.Random(14)
        for _ in range(40):
            raw = bf.random_perm(rng, rng.randint(1, 9))
            sets = bf.max_feasible_sets(raw)
            graph = build_reconfig_graph(sets)
            expected = {
                (a, b)
                for a in range(len(sets))
                for b in range(a + 1, len(sets))
                if len(set(sets[a]) ^ set(sets[b])) == 2
            }
            assert set(graph.edges) == expected


class TestOracleQueries:
    def test_four_cycle_no_instance(self):
        seq = normalize(K22_NO[0])
        assert oracle_decide(seq, (1, 2), (3, 4)) is False
        assert oracle_shortest(seq, (1, 2), (3, 4)) is None

    def test_identical_sets(self):
        seq = normalize(K22_NO[0])
        assert oracle_decide(seq, (1, 2), (1, 2)) is True
        length, rs = oracle_shortest(seq, (1, 2), (1, 2))
        assert length == 0 and rs.steps == ()

    def test_detour_distance(self):
        raw, i_set, j_set = DETOUR
        seq = normalize(raw)
        assert oracle_decide(seq, i_set, j_set) is True
        length, rs = oracle_shortest(seq, i_set, j_set)
        assert length == 4
        sets = list(rs.sets())
        assert sets[0] == i_set and sets[-1] == j_set
        assert all(is_feasible(seq, s) for s in sets)

    def test_maximum_mode_rejects_smaller_sets(self):
        seq = normalize(K22_NO[0])
        with pytest.raises(NotMaximum):
            oracle_decide(seq, (1,), (3,))

    def test_general_mode_handles_smaller_sets(self):
        # Size-1 sets are all reconfigurable through each other directly.
        seq = normalize(K22_NO[0])
        assert oracle_decide(seq, (1,), (3,), maximum_only=False) is True
        length, _ = oracle_shortest(seq, (1,), (3,), maximum_only=False)
        assert length == 1

    def test_general_mode_distances_match_reference(self):
        rng = random.Random(22)
        for _ in range(60):
            raw = bf.random_perm(rng, rng.randint(1, 8))
            seq = normalize(raw)
            size = rng.randint(1, max(1, bf.lis_len(raw)))
            sets = bf.feasible_sets(raw, size)
            if not sets:
                continue
            i_set, j_set = rng.choice(sets), rng.choice(sets)
            expected = bf.swap_distance(sets, i_set, j_set)
            found = oracle_shortest(seq, i_set, j_set, maximum_only=False)
            if expected is None:
                assert found is None
                assert oracle_decide(seq, i_set, j_set, maximum_only=False) is False
            else:
                assert found[0] == expected
                assert found[0] >= len(set(i_set) - set(j_set))
                assert oracle_decide(seq, i_set, j_set, maximum_only=False) is True

    def test_bound_override(self):
        seq = normalize(range(1, 18))
        full = tuple(range(1, 18))
        with pytest.raises(TooLarge):
            oracle_decide(seq, full, full)
        assert oracle_decide(seq, full, full, bound=20) is True

    def test_maximum_sets_cover_each_pile_once(self):
        from lisrc import build_piles

        rng = random.Random(28)
        for _ in range(50):
            raw = bf.random_perm(rng, rng.randint(1, 10))
            seq = normalize(raw)
            ps = build_piles(seq)
            for s in enumerate_feasible(seq, bf.lis_length(raw)):
                assert sorted(ps.pile_of[i] for i in s) == list(range(1, ps.k + 1))
