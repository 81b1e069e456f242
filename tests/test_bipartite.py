import itertools
import random
import time
from collections import Counter

import pytest

from lisrc import (
    MixedPile,
    NoSequence,
    NotMaximum,
    ReconfSequence,
    SizeMismatch,
    TallPile,
    build_piles,
    normalize,
    reconfigure,
    shortest_sequence,
)
from lisrc.bipartite import (
    Bipartition,
    NotBipartite,
    _dyck_to_permutation,
    _rotate_to_dyck,
    build_graph,
    decreasing_triple,
    find_forbidden_pair,
    mixed_piles,
    random_321_avoiding,
    two_coloring,
)
from lisrc.seqcore import is_feasible

import bruteforce as bf
from conftest import BIP, K22_NO, DETOUR


def random_bipartite_instances(seed, wanted, max_n=10):
    """Random permutations with a two-colorable inversion graph, plus two
    maximum feasible sets each."""
    rng = random.Random(seed)
    found = []
    while len(found) < wanted:
        raw = bf.random_perm(rng, rng.randint(2, max_n))
        if isinstance(bf.two_coloring(raw), NotBipartite):
            continue
        maxima = bf.max_feasible_sets(raw)
        found.append((raw, rng.choice(maxima), rng.choice(maxima)))
    return found


class TestBuildGraph:
    def test_four_cycle(self):
        g = build_graph(normalize(K22_NO[0]))
        assert g.adjacency == ((), (3, 4), (3, 4), (1, 2), (1, 2))

    def test_no_inversions(self):
        assert build_graph(normalize((1, 2, 3, 4, 5))).adjacency == ((),) * 6

    def test_detour_instance(self):
        g = build_graph(normalize(DETOUR[0]))
        assert sum(map(len, g.adjacency)) == 2 * 10
        assert {4, 6} <= set(g.adjacency[1]) and 6 in g.adjacency[4]  # a triangle

    def test_edges_are_inversions(self):
        rng = random.Random(3)
        samples = [bf.random_perm(rng, rng.randint(0, 12)) for _ in range(60)]
        every = (p for n in range(8) for p in itertools.permutations(range(1, n + 1)))
        for raw in itertools.chain(samples, every):
            g = build_graph(normalize(raw))
            edges = bf.inversion_edges(raw)
            # Each vertex's neighbours across its inversions, ascending.
            assert g.adjacency == tuple(
                tuple(sorted({i + j - v for i, j in edges if v in (i, j)}))
                for v in range(len(raw) + 1)
            )

    def test_edgeless_at_scale(self):
        # Each position walks past no smaller later value: O(n), not O(n^2).
        seq = normalize(range(1, 20_001))
        start = time.perf_counter()
        g = build_graph(seq)
        assert time.perf_counter() - start < 1.0
        assert g.adjacency == ((),) * 20_001

    def test_independent_sets_are_feasible_sets(self):
        rng = random.Random(9)
        for _ in range(30):
            raw = bf.random_perm(rng, rng.randint(1, 8))
            seq = normalize(raw)
            g = build_graph(seq)
            for size in range(len(raw) + 1):
                for s in itertools.combinations(range(1, len(raw) + 1), size):
                    independent = not any(
                        j in g.adjacency[i] for i, j in itertools.combinations(s, 2)
                    )
                    assert independent == is_feasible(seq, s)


class TestTwoColoring:
    def test_four_cycle(self):
        result = two_coloring(normalize(K22_NO[0]))
        assert result == Bipartition(sides=((1, 2), (3, 4)))

    def test_edgeless(self):
        result = two_coloring(normalize((1, 2, 3)))
        assert result == Bipartition(sides=((1, 2, 3), ()))

    def test_triangle_certificate(self):
        result = two_coloring(normalize(DETOUR[0]))
        assert result == NotBipartite(odd_cycle=(1, 4, 6))

    def test_certificate_is_odd_cycle(self):
        rng = random.Random(15)
        seen_odd = 0
        for _ in range(200):
            raw = bf.random_perm(rng, rng.randint(2, 10))
            seq = normalize(raw)
            g = build_graph(seq)
            result = two_coloring(seq)
            if isinstance(result, Bipartition):
                side0 = set(result.sides[0])
                assert side0.isdisjoint(result.sides[1])
                assert len(result.sides[0]) + len(result.sides[1]) == g.n
                for i in range(1, g.n + 1):
                    for j in g.adjacency[i]:
                        assert (i in side0) != (j in side0)
            else:
                seen_odd += 1
                cycle = result.odd_cycle
                assert len(cycle) % 2 == 1 and len(cycle) >= 3
                assert len(set(cycle)) == len(cycle)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert b in g.adjacency[a]
        assert seen_odd > 0

    def test_matches_bfs_reference_exhaustively(self):
        # Every permutation of n <= 8: on 321-avoiders the sides are the
        # breadth-first reference's, on the rest the certificate is the
        # decreasing triple, a triangle of the graph.
        avoiders = 0
        for n in range(9):
            for raw in itertools.permutations(range(1, n + 1)):
                seq = normalize(raw)
                result = two_coloring(seq)
                if next(bf.decreasing_triples(raw), None) is None:
                    avoiders += 1
                    assert result == bf.two_coloring(raw)
                    continue
                triple = decreasing_triple(seq)
                assert result == NotBipartite(odd_cycle=triple)
                g = build_graph(seq)
                pairs = itertools.combinations(triple, 2)
                assert all(y in g.adjacency[x] for x, y in pairs)
        assert avoiders == 1 + 2055


class TestRandom321Avoiding:
    def test_map_is_a_bijection_onto_321_avoiders(self):
        for n in range(9):
            images = [tuple(_dyck_to_permutation(list(p))) for p in bf.dyck_paths(n)]
            avoiders = [
                raw
                for raw in itertools.permutations(range(1, n + 1))
                if next(bf.decreasing_triples(raw), None) is None
            ]
            assert len(set(images)) == len(images)
            assert sorted(images) == avoiders

    def test_rotation_hits_each_dyck_path_2n_plus_1_times(self):
        for n in range(6):
            hits = Counter(
                tuple(_rotate_to_dyck([m in ups for m in range(2 * n + 1)]))
                for ups in map(set, itertools.combinations(range(2 * n + 1), n))
            )
            assert set(hits) == set(bf.dyck_paths(n))
            assert set(hits.values()) == {2 * n + 1}

    def test_draws_are_321_avoiding_permutations(self):
        rng = random.Random(5)
        for n in (0, 1, 2, 7, 30):
            values = random_321_avoiding(n, rng)
            assert sorted(values) == list(range(1, n + 1))
            assert next(bf.decreasing_triples(values), None) is None


class TestDecreasingTriple:
    def test_detour_triangle(self):
        assert decreasing_triple(normalize(DETOUR[0])) == (1, 4, 6)

    def test_triangle_where_coloring_finds_a_longer_cycle(self):
        seq = normalize((3, 5, 1, 4, 2))
        assert bf.two_coloring(seq.raw) == NotBipartite(odd_cycle=(1, 3, 2, 4, 5))
        assert two_coloring(seq) == NotBipartite(odd_cycle=(2, 4, 5))
        assert decreasing_triple(seq) == (2, 4, 5)

    def test_matches_brute_force(self):
        # Every permutation of n <= 7: None exactly when no decreasing
        # triple exists; otherwise a triangle, namely the triple with the
        # leftmost middle, then leftmost first, then leftmost last position.
        for n in range(8):
            for raw in itertools.permutations(range(1, n + 1)):
                got = decreasing_triple(normalize(raw))
                triples = list(bf.decreasing_triples(raw))
                if not triples:
                    assert got is None
                    continue
                a, b, c = got
                assert {(a, b), (a, c), (b, c)} <= bf.inversion_edges(raw)
                assert (b, a, c) == min((y, x, z) for x, y, z in triples)

    def test_matches_scan_on_every_permutation_up_to_8(self):
        for n in range(9):
            for raw in itertools.permutations(range(1, n + 1)):
                expected = bf.first_decreasing_triple(raw)
                assert decreasing_triple(normalize(raw)) == expected


class TestMixedPiles:
    def test_both_piles_mixed(self):
        raw, i_set, j_set = K22_NO
        seq = normalize(raw)
        assert mixed_piles(seq, build_piles(seq), i_set, j_set) == [
            MixedPile(pile=1, i_elem=1, j_elem=3),
            MixedPile(pile=2, i_elem=2, j_elem=4),
        ]

    def test_identical_sets(self):
        seq = normalize(K22_NO[0])
        assert mixed_piles(seq, build_piles(seq), (1, 2), (1, 2)) == []

    def test_small_bipartite_instance(self):
        raw, i_set, j_set = BIP
        seq = normalize(raw)
        assert mixed_piles(seq, build_piles(seq), i_set, j_set) == [
            MixedPile(pile=1, i_elem=1, j_elem=2),
            MixedPile(pile=2, i_elem=3, j_elem=4),
        ]

    def test_size_mismatch(self):
        seq = normalize(K22_NO[0])
        with pytest.raises(SizeMismatch):
            mixed_piles(seq, build_piles(seq), (1, 2), (1,))

    def test_rejects_non_maximum(self):
        seq = normalize(K22_NO[0])
        with pytest.raises(NotMaximum):
            mixed_piles(seq, build_piles(seq), (1,), (3,))

    def test_count_equals_private_elements_when_bipartite(self):
        for raw, i_set, j_set in random_bipartite_instances(seed=21, wanted=80):
            seq = normalize(raw)
            ps = build_piles(seq)
            assert all(len(p) <= 2 for p in ps.piles[1:])
            mixed = mixed_piles(seq, ps, i_set, j_set)
            assert len(mixed) == len(set(i_set) - set(j_set))
            pile_of = bf.deal_reference(raw)[0]
            for mp in mixed:
                assert mp.i_elem in set(i_set) - set(j_set)
                assert mp.j_elem in set(j_set) - set(i_set)
                assert pile_of[mp.i_elem] == pile_of[mp.j_elem] == mp.pile


class TestFindForbiddenPair:
    def test_four_cycle_found(self):
        raw, i_set, j_set = K22_NO
        seq = normalize(raw)
        mixed = mixed_piles(seq, build_piles(seq), i_set, j_set)
        pair = find_forbidden_pair(seq, mixed)
        assert pair is not None
        assert (pair[0].pile, pair[1].pile) == (1, 2)

    def test_disjoint_edges_absent(self):
        raw, i_set, j_set = BIP
        seq = normalize(raw)
        mixed = mixed_piles(seq, build_piles(seq), i_set, j_set)
        assert find_forbidden_pair(seq, mixed) is None

    def test_fewer_than_two_mixed_piles(self):
        seq = normalize(K22_NO[0])
        assert find_forbidden_pair(seq, []) is None
        mixed = mixed_piles(seq, build_piles(seq), (1, 2), (1, 2))
        assert find_forbidden_pair(seq, mixed) is None


class TestShortestSequence:
    def test_small_bipartite_instance(self):
        raw, i_set, j_set = BIP
        rs = shortest_sequence(normalize(raw), i_set, j_set)
        assert list(rs.sets()) == [(1, 3), (1, 4), (2, 4)]

    def test_identical_sets(self):
        rs = shortest_sequence(normalize(BIP[0]), (1, 3), (1, 3))
        assert len(rs) == 0

    def test_no_instance(self):
        result = shortest_sequence(normalize(K22_NO[0]), (1, 2), (3, 4))
        assert isinstance(result, NoSequence)
        assert (result.forbidden[0].pile, result.forbidden[1].pile) == (1, 2)

    def test_non_bipartite_result(self):
        raw, i_set, j_set = DETOUR
        with pytest.raises(TallPile) as info:
            shortest_sequence(normalize(raw), i_set, j_set)
        assert info.value.triple == (1, 4, 6)

    def test_rejects_non_maximum(self):
        with pytest.raises(NotMaximum):
            shortest_sequence(normalize(BIP[0]), (1,), (2,))

    def test_exhaustive_small_permutations(self):
        # Every two-colorable permutation of n <= 6, every pair of maximum
        # feasible sets: the produced length must match BFS distance, and
        # NoSequence must coincide with disconnection.
        for n in range(1, 7):
            for raw in itertools.permutations(range(1, n + 1)):
                seq = normalize(raw)
                if isinstance(bf.two_coloring(raw), NotBipartite):
                    continue
                maxima = bf.max_feasible_sets(raw)
                for i_set in maxima:
                    for j_set in maxima:
                        result = shortest_sequence(seq, i_set, j_set)
                        dist = bf.swap_distance(maxima, i_set, j_set)
                        if isinstance(result, NoSequence):
                            assert dist is None
                        else:
                            private = len(set(i_set) - set(j_set))
                            assert len(result) == private == dist
                            assert list(result.sets())[-1] == j_set

    def test_walk_is_the_witness_walk(self):
        # Every 321-avoiding permutation of n <= 7 and every ordered pair of
        # maximum sets: the shortest walk is `reconfigure`'s walk through I∧J,
        # of length |I \ J|, and NoSequence comes exactly when it has none.
        yes = 0
        for n in range(1, 8):
            for raw in itertools.permutations(range(1, n + 1)):
                if next(bf.decreasing_triples(raw), None):
                    continue
                seq = normalize(raw)
                maxima = bf.max_feasible_sets(raw)
                for i_set, j_set in itertools.product(maxima, repeat=2):
                    walk = reconfigure(seq, i_set, j_set).walk
                    result = shortest_sequence(seq, i_set, j_set)
                    if walk is None:
                        assert isinstance(result, NoSequence)
                        continue
                    assert isinstance(result, ReconfSequence)
                    assert (result.start, result.removed, result.added) == (
                        walk.start,
                        walk.removed,
                        walk.added,
                    )
                    assert len(result) == len(set(i_set) - set(j_set))
                    yes += 1
        assert yes == 3_353

    def test_adjacent_scan_matches_all_pairs_reference(self):
        # Every 321-avoiding permutation of n <= 8 and every pair of
        # maximum feasible sets: the forbidden pair is the all-pairs
        # reference's first one, a sequence comes back exactly when there
        # is none, and every step of it resolves one mixed pile.
        checked = 0
        for n in range(1, 9):
            for raw in itertools.permutations(range(1, n + 1)):
                if next(bf.decreasing_triples(raw), None):
                    continue
                seq = normalize(raw)
                ps = build_piles(seq)
                first_pair = bf.forbidden_pair_scan(raw)
                maxima = bf.max_feasible_sets(raw)
                for i_set in maxima:
                    for j_set in maxima:
                        expected = first_pair(i_set, j_set)
                        result = shortest_sequence(seq, i_set, j_set)
                        checked += 1
                        if expected is not None:
                            assert isinstance(result, NoSequence)
                            assert expected == tuple(
                                (m.pile, m.i_elem, m.j_elem) for m in result.forbidden
                            )
                            continue
                        assert isinstance(result, ReconfSequence)
                        _check_replay(seq, ps, first_pair, result, i_set, j_set)
        assert checked == 15_656

    def test_length_and_validity_on_random_instances(self):
        for raw, i_set, j_set in random_bipartite_instances(seed=33, wanted=120):
            seq = normalize(raw)
            result = shortest_sequence(seq, i_set, j_set)
            maxima = bf.max_feasible_sets(raw)
            connected = any(
                i_set in part and j_set in part
                for part in bf.connectivity_partition(maxima)
            )
            if isinstance(result, NoSequence):
                assert not connected
                continue
            assert connected
            assert len(result) == len(set(i_set) - set(j_set))
            assert len(result) == bf.swap_distance(maxima, i_set, j_set)
            sets = list(result.sets())
            assert sets[0] == i_set and sets[-1] == j_set
            for s in sets:
                assert bf.is_maximum_feasible(raw, s)


def tallest_level(raw):
    """Most positions on one chain level, which is the tallest pile's height."""
    return max(Counter(bf.chain_levels(raw)[1:]).values(), default=0)


def short_pile_permutations(n):
    """Permutations of 1..n whose piles hold at most two entries but that
    still hold a decreasing triple."""
    for raw in itertools.permutations(range(1, n + 1)):
        if tallest_level(raw) <= 2 and next(bf.decreasing_triples(raw), None):
            yield raw


class TestShortPiles:
    """`shortest` on piles of at most two entries, 321-avoiding or not."""

    def test_gate_is_a_pile_of_three(self):
        # Every permutation of n <= 7: TallPile exactly when some chain
        # level holds three positions, carrying the fixed triple.
        for n in range(1, 8):
            for raw in itertools.permutations(range(1, n + 1)):
                some_max = bf.max_feasible_sets(raw)[0]
                if tallest_level(raw) > 2:
                    with pytest.raises(TallPile) as info:
                        shortest_sequence(normalize(raw), some_max, some_max)
                    assert info.value.triple == bf.first_decreasing_triple(raw)
                else:
                    result = shortest_sequence(normalize(raw), some_max, some_max)
                    assert isinstance(result, ReconfSequence) and len(result) == 0

    def test_lengths_match_bfs_exhaustively(self):
        # Every such permutation of n <= 7 and every ordered pair of maximum
        # sets: a walk of length |I \ J| equal to the BFS distance, ending
        # at J, and NoSequence exactly when the sets are disconnected.
        for n in range(1, 8):
            permutations = pairs = 0
            for raw in short_pile_permutations(n):
                seq = normalize(raw)
                maxima = bf.max_feasible_sets(raw)
                for i_set, j_set in itertools.product(maxima, repeat=2):
                    result = shortest_sequence(seq, i_set, j_set)
                    dist = bf.swap_distance(maxima, i_set, j_set)
                    if isinstance(result, NoSequence):
                        assert dist is None
                    else:
                        assert len(result) == len(set(i_set) - set(j_set)) == dist
                        assert list(result.sets())[-1] == j_set
                    pairs += 1
                permutations += 1
        assert (permutations, pairs) == (532, 2_208)

    def test_forbidden_pair_matches_all_pairs_reference(self):
        # Every such permutation of n = 8 and every ordered pair of maximum
        # sets: the forbidden pair is the all-pairs reference's first one,
        # and a walk comes back exactly when there is none.
        checked = 0
        for raw in short_pile_permutations(8):
            seq = normalize(raw)
            ps = build_piles(seq)
            first_pair = bf.forbidden_pair_scan(raw)
            maxima = bf.max_feasible_sets(raw)
            for i_set, j_set in itertools.product(maxima, repeat=2):
                expected = first_pair(i_set, j_set)
                result = shortest_sequence(seq, i_set, j_set)
                checked += 1
                if expected is None:
                    assert isinstance(result, ReconfSequence)
                    _check_replay(seq, ps, first_pair, result, i_set, j_set)
                    continue
                assert isinstance(result, NoSequence)
                assert expected == tuple(
                    (m.pile, m.i_elem, m.j_elem) for m in result.forbidden
                )
        assert checked == 19_152


def _check_replay(seq, ps, first_pair, result, i_set, j_set):
    """Each step swaps inside one mixed pile of (current set, J), resolves
    that pile only, keeps the set maximum feasible and leaves no forbidden
    pair behind."""
    sets = list(result.sets())
    assert sets[0] == i_set and sets[-1] == j_set
    pile_of = bf.deal_reference(seq.raw)[0]
    mixed = mixed_piles(seq, ps, i_set, j_set)
    for remove, add, after in zip(result.removed, result.added, sets[1:]):
        pile = pile_of[remove]
        assert [(m.i_elem, m.j_elem) for m in mixed if m.pile == pile] == [
            (remove, add)
        ]
        resolved = [m for m in mixed if m.pile != pile]
        mixed = mixed_piles(seq, ps, after, j_set)
        assert mixed == resolved
        assert bf.is_maximum_feasible(seq.raw, after)
        assert first_pair(after, j_set) is None


def two_one_blocks(n):
    """2 1 4 3 ... of even length n: pile t holds positions 2t - 1 and 2t.

    Returns the values, I = the odd positions and J = the even ones.
    """
    raw = tuple(v for t in range(1, n // 2 + 1) for v in (2 * t, 2 * t - 1))
    return raw, tuple(range(1, n + 1, 2)), tuple(range(2, n + 1, 2))


class TestShortestAtScale:
    N = 100_000

    def test_yes_instance(self):
        raw, i_set, j_set = two_one_blocks(self.N)
        seq = normalize(raw)
        start = time.perf_counter()
        result = shortest_sequence(seq, i_set, j_set)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"shortest_sequence at n={self.N} took {elapsed:.2f}s"
        assert isinstance(result, ReconfSequence)
        assert len(result) == self.N // 2

        # Replay in O(L): chosen[t] is the set's element on pile t, and a
        # one-per-pile set stays increasing when neighbouring piles do.
        def before(x, y):
            return x == 0 or (x < y and raw[x - 1] < raw[y - 1])

        chosen = [0, *i_set]
        members = set(i_set)
        for remove, add in zip(result.removed, result.added):
            t = (remove + 1) // 2
            assert remove in members and add not in members
            assert (add + 1) // 2 == t
            members.remove(remove)
            members.add(add)
            chosen[t] = add
            assert before(chosen[t - 1], chosen[t])
            assert t + 1 == len(chosen) or before(chosen[t], chosen[t + 1])
        assert members == set(j_set)

    def test_no_instance(self):
        # A 7 8 5 6 block appended after the 2 1 4 3 ... prefix: its two
        # piles form the only forbidden pair.
        raw, i_set, j_set = two_one_blocks(self.N)
        n = self.N
        raw += (n + 3, n + 4, n + 1, n + 2)
        i_set += (n + 1, n + 2)
        j_set += (n + 3, n + 4)
        start = time.perf_counter()
        result = shortest_sequence(normalize(raw), i_set, j_set)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"shortest_sequence at n={n + 4} took {elapsed:.2f}s"
        assert result == NoSequence(
            forbidden=(
                MixedPile(pile=n // 2 + 1, i_elem=n + 1, j_elem=n + 3),
                MixedPile(pile=n // 2 + 2, i_elem=n + 2, j_elem=n + 4),
            )
        )
