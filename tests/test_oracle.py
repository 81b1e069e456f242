import itertools
import random
from pathlib import Path

import pytest

import lisrc.oracle
from lisrc import (
    LisrcError,
    NotMaximum,
    SizeMismatch,
    TooLarge,
    enumerate_feasible,
    normalize,
    oracle_shortest,
)
from lisrc.cli import run
from lisrc.oracle import build_reconfig_graph
from lisrc.seqcore import is_feasible

import bruteforce as bf
from conftest import K22_NO, DETOUR

DATA = Path(__file__).parent / "data"


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

    def test_every_permutation_up_to_seven(self):
        # Every size from 0 to n + 1, the last one past every feasible set.
        for n in range(8):
            for raw in itertools.permutations(range(1, n + 1)):
                seq = normalize(raw)
                for size in range(n + 2):
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

    def test_negative_size_is_typed(self):
        with pytest.raises(LisrcError, match="must be >= 0, got -1"):
            enumerate_feasible(normalize((2, 1, 4, 3)), -1)


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
        assert len(bf.connectivity_partition(graph.nodes)) == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            build_reconfig_graph([(1,), (1, 2)])

    def test_edges_match_pairwise_scan(self):
        rng = random.Random(14)
        inputs = [
            bf.max_feasible_sets(bf.random_perm(rng, rng.randint(1, 9)))
            for _ in range(40)
        ]
        # A repeated set is a node of its own, one swap from (1, 3).
        inputs.append([(1, 2), (1, 2), (1, 3)])
        for sets in inputs:
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
        assert oracle_shortest(seq, (1, 2), (3, 4)) is None

    def test_identical_sets(self):
        seq = normalize(K22_NO[0])
        rs = oracle_shortest(seq, (1, 2), (1, 2))
        assert rs.start == (1, 2) and rs.removed == rs.added == ()

    def test_detour_distance(self):
        raw, i_set, j_set = DETOUR
        seq = normalize(raw)
        rs = oracle_shortest(seq, i_set, j_set)
        assert len(rs) == 4
        sets = list(rs.sets())
        assert sets[0] == i_set and sets[-1] == j_set
        assert all(is_feasible(seq, s) for s in sets)

    def test_maximum_mode_rejects_smaller_sets(self):
        seq = normalize(K22_NO[0])
        with pytest.raises(NotMaximum):
            oracle_shortest(seq, (1,), (3,))

    def test_general_mode_handles_smaller_sets(self):
        # Size-1 sets are all reconfigurable through each other directly.
        seq = normalize(K22_NO[0])
        assert len(oracle_shortest(seq, (1,), (3,), maximum_only=False)) == 1

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
            else:
                assert len(found) == expected
                assert len(found) >= len(set(i_set) - set(j_set))

    def test_bound_override(self):
        seq = normalize(range(1, 18))
        full = tuple(range(1, 18))
        with pytest.raises(TooLarge):
            oracle_shortest(seq, full, full)
        assert oracle_shortest(seq, full, full, bound=20) is not None

    def test_negative_bound_is_typed(self):
        seq = normalize((2, 1, 4, 3))
        with pytest.raises(LisrcError, match="must be >= 0, got -1") as caught:
            oracle_shortest(seq, (1, 3), (2, 4), bound=-1)
        assert not isinstance(caught.value, TooLarge)
        # Only an int is a bound or a set size: a bool is not read as 0 or
        # 1, nor a float or a str as the int it spells.
        for bad in (16.0, True, "3"):
            with pytest.raises(LisrcError, match=f"bound must be an int, got {bad!r}"):
                oracle_shortest(seq, (1, 3), (2, 4), bound=bad)
            with pytest.raises(LisrcError, match="bound must be an int"):
                enumerate_feasible(seq, 2, bound=bad)
        for bad in (True, 2.0, "2"):
            with pytest.raises(LisrcError, match=f"size must be an int, got {bad!r}"):
                enumerate_feasible(seq, bad)

    def test_maximum_sets_cover_each_pile_once(self):
        from lisrc import build_piles

        rng = random.Random(28)
        for _ in range(50):
            raw = bf.random_perm(rng, rng.randint(1, 10))
            seq = normalize(raw)
            ps = build_piles(seq)
            pile_of = bf.deal_reference(raw)[0]
            for s in enumerate_feasible(seq, bf.lis_length(raw)):
                assert sorted(pile_of[i] for i in s) == list(range(1, ps.k + 1))

    def test_maximum_mode_distances_match_reference_exhaustively(self):
        for n in range(1, 7):
            for raw in itertools.permutations(range(1, n + 1)):
                seq = normalize(raw)
                sets = bf.max_feasible_sets(raw)
                for i_set, j_set in itertools.product(sets, repeat=2):
                    expected = bf.swap_distance(sets, i_set, j_set)
                    found = oracle_shortest(seq, i_set, j_set)
                    if expected is None:
                        assert found is None, (raw, i_set, j_set)
                        continue
                    assert len(found) == expected, (raw, i_set, j_set)
                    walk = list(bf.replay_sets(found))
                    assert walk[-1] == j_set and set(walk) <= set(sets)


class TestImplicitSearch:
    """Queries search the swap graph without building it."""

    @pytest.fixture
    def no_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a query materialised the swap graph")

        monkeypatch.setattr(lisrc.oracle, "enumerate_feasible", refuse)
        monkeypatch.setattr(lisrc.oracle, "build_reconfig_graph", refuse)

    def test_queries_never_build_the_graph(self, no_graph, capsys):
        detour, k22 = normalize(DETOUR[0]), normalize(K22_NO[0])
        assert len(oracle_shortest(detour, DETOUR[1], DETOUR[2])) == 4
        assert oracle_shortest(k22, K22_NO[1], K22_NO[2]) is None
        for flags, name, first_line in [
            (["--shortest"], "detour.txt", "4"),
            (["--shortest"], "k22.txt", "NO"),
            (["--general"], "detour.txt", "YES"),
            (["--general"], "k22.txt", "NO"),
        ]:
            assert run(["oracle", *flags, str(DATA / name)]) == 0
            assert capsys.readouterr().out.splitlines()[0] == first_line

    def test_raised_bound_admits_longer_sequences(self, no_graph):
        # The identity at n = 40 has 40 increasing sets of size 39, one
        # swap apart from each other: beyond the default bound, but small.
        seq = normalize(range(1, 41))
        i_set, j_set = tuple(range(1, 40)), (*range(1, 39), 40)
        with pytest.raises(TooLarge):
            oracle_shortest(seq, i_set, j_set, maximum_only=False)
        rs = oracle_shortest(seq, i_set, j_set, maximum_only=False, bound=40)
        assert (rs.removed, rs.added) == ((39,), (40,))

    def test_states_wider_than_a_machine_word(self, no_graph):
        seq = normalize(range(1, 201))
        i_set, j_set = tuple(range(1, 200)), (*range(1, 199), 200)
        rs = oracle_shortest(seq, i_set, j_set, maximum_only=False, bound=200)
        assert (rs.removed, rs.added) == ((199,), (200,))


class TestWalkIdentity:
    """`oracle_shortest` returns the reference BFS's walk, swap for swap."""

    @staticmethod
    def assert_same_walk(seq, raw, prev, i_set, j_set, maximum_only):
        found = oracle_shortest(seq, i_set, j_set, maximum_only=maximum_only)
        expected = bf.bfs_walk(prev, j_set)
        if expected is None:
            assert found is None, (raw, i_set, j_set)
            return
        assert (found.start, found.removed, found.added) == (i_set, *expected), (
            raw,
            i_set,
            j_set,
        )

    @pytest.mark.parametrize("maximum_only", [True, False])
    def test_every_pair_up_to_six(self, maximum_only):
        for n in range(1, 7):
            for raw in itertools.permutations(range(1, n + 1)):
                seq = normalize(raw)
                top = bf.lis_len(raw)
                for size in [top] if maximum_only else range(1, top + 1):
                    sets = bf.feasible_sets(raw, size)
                    for i_set in sets:
                        prev = bf.swap_bfs(raw, i_set)
                        for j_set in sets:
                            self.assert_same_walk(
                                seq, raw, prev, i_set, j_set, maximum_only
                            )

    def test_random_general_instances(self):
        rng = random.Random(31)
        for _ in range(200):
            raw = bf.random_perm(rng, rng.randint(7, 12))
            seq = normalize(raw)
            sets = bf.feasible_sets(raw, rng.randint(1, bf.lis_length(raw)))
            i_set = rng.choice(sets)
            prev = bf.swap_bfs(raw, i_set)
            for j_set in rng.choice(sets), rng.choice(list(prev)):
                self.assert_same_walk(seq, raw, prev, i_set, j_set, False)

    def test_merges_of_two_runs_at_sixteen(self):
        # The shape of the oracle's largest queries: n = 16, a random merge
        # of the runs 1..8 and 9..16, increasing sets of size 5.
        rng = random.Random(45)
        for _ in range(20):
            first = set(rng.sample(range(16), 8))
            runs = iter(range(1, 9)), iter(range(9, 17))
            raw = tuple(next(runs[p not in first]) for p in range(16))
            seq = normalize(raw)
            sets = bf.feasible_sets(raw, 5)
            i_set = rng.choice(sets)
            prev = bf.swap_bfs(raw, i_set)
            for j_set in rng.choice(sets), rng.choice(list(prev)):
                self.assert_same_walk(seq, raw, prev, i_set, j_set, False)


class TestWholeComponent:
    """The search runs through I's whole component whatever J is, and it
    drops to each (k - 1)-set once."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """`oracle_shortest` returning (its answer, its mask-table reads).

        Expanding a state of size k reads the two tables 2(k + 1) times,
        two for each gap, and dropping a member to a (k - 1)-set not met
        before reads them twice more.
        """
        count = [0]

        class Counting(list):
            def __getitem__(self, index):
                count[0] += 1
                return super().__getitem__(index)

        tables = lisrc.oracle._mask_tables
        monkeypatch.setattr(
            lisrc.oracle,
            "_mask_tables",
            lambda perm: tuple(Counting(table) for table in tables(perm)),
        )

        def search(seq, i_set, j_set, maximum_only):
            count[0] = 0
            found = oracle_shortest(seq, i_set, j_set, maximum_only=maximum_only)
            return found, count[0]

        return search

    @staticmethod
    def component_reads(raw, i_set):
        """Table reads of a search through I's component, from the reference BFS."""
        component = bf.swap_bfs(raw, i_set)
        dropped = {s[:r] + s[r + 1 :] for s in component for r in range(len(s))}
        return 2 * (len(i_set) + 1) * len(component) + 2 * len(dropped)

    @pytest.mark.parametrize("maximum_only", [True, False])
    def test_every_target_costs_the_same(self, reads, maximum_only):
        raw, i_set, _ = DETOUR
        seq = normalize(raw)
        expected = self.component_reads(raw, i_set)
        for j_set in bf.swap_bfs(raw, i_set):
            found, count = reads(seq, i_set, j_set, maximum_only)
            assert len(found) == len(bf.bfs_walk(bf.swap_bfs(raw, i_set), j_set)[0])
            assert count == expected, j_set

    @pytest.mark.parametrize(
        "raw, i_set, j_set, maximum_only",
        [
            (*K22_NO, True),
            (*K22_NO, False),
            ((3, 4, 5, 1, 2), (1, 2), (4, 5), False),
        ],
    )
    def test_no_costs_what_i_equal_to_j_costs(
        self, reads, raw, i_set, j_set, maximum_only
    ):
        seq = normalize(raw)
        found, count = reads(seq, i_set, j_set, maximum_only)
        assert found is None
        assert count == self.component_reads(raw, i_set)
        found, same = reads(seq, i_set, i_set, maximum_only)
        assert len(found) == 0 and same == count

    def test_one_swap_among_many_sets(self, reads):
        # All C(16, 8) = 12,870 sets of size 8 of the identity at n = 16
        # form one component, which the search runs through although J is
        # one swap from I.  They contain all C(16, 7) = 11,440 sets of
        # size 7; without the skip every state would read 4k + 2 = 34 times.
        seq = normalize(range(1, 17))
        i_set, j_set = tuple(range(1, 9)), (*range(1, 8), 9)
        found, count = reads(seq, i_set, j_set, False)
        assert (found.removed, found.added) == ((8,), (9,))
        assert count == 2 * 9 * 12_870 + 2 * 11_440
