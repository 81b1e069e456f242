import random

import pytest

from lisrc import (
    IndexOutOfRange,
    build_piles,
    extract_canonical_max,
    is_maximum_feasible,
    normalize,
    pile_coord,
    placement_pile,
)

import bruteforce as bf
from conftest import K22_NO, DETOUR


def corpus(seed=23, rounds=120, max_n=12):
    yield ()
    yield (1,)
    yield (1, 2, 3)
    yield (3, 2, 1)
    yield K22_NO[0]
    yield DETOUR[0]
    rng = random.Random(seed)
    for _ in range(rounds):
        yield bf.random_perm(rng, rng.randint(0, max_n))


class TestPlacementPile:
    def test_leftmost_larger_top(self):
        assert placement_pile([0, 7, 8], 5) == 1

    def test_new_pile(self):
        assert placement_pile([0], 9) == 1

    def test_skips_smaller_tops(self):
        assert placement_pile([0, 5, 8], 6) == 2


class TestBuildPiles:
    def test_k22_sequence(self):
        seq = normalize(K22_NO[0])
        ps = build_piles(seq)
        assert ps.piles == ((0,), (1, 3), (2, 4))
        assert ps.entries(seq, 1) == [(1, 7), (3, 5)]
        assert ps.entries(seq, 2) == [(2, 8), (4, 6)]
        # Who blocked whom, by raw value: 7<-0, 8<-7, 5<-0, 6<-5.
        assert ps.blocker[1:] == (0, 1, 0, 3)

    def test_increasing_sequence(self):
        ps = build_piles(normalize((1, 2, 3)))
        assert ps.piles == ((0,), (1,), (2,), (3,))

    def test_detour_sequence(self):
        seq = normalize(DETOUR[0])
        ps = build_piles(seq)
        assert ps.entries(seq, 1) == [(1, 15), (2, 11)]
        assert ps.entries(seq, 2) == [(3, 16), (4, 13), (6, 12)]
        assert ps.entries(seq, 3) == [(5, 17), (7, 14)]
        assert ps.k == 3

    def test_empty_sequence(self):
        ps = build_piles(normalize(()))
        assert ps.piles == ((0,),) and ps.k == 0

    def test_invariants_on_corpus(self):
        for raw in corpus():
            seq = normalize(raw)
            ps = build_piles(seq)
            assert ps.k == bf.lis_length(raw)
            assert ps.piles[0] == (0,)
            tops = [seq.value(p[-1]) for p in ps.piles]
            assert tops == sorted(tops)
            for t, pile in enumerate(ps.piles):
                for a, b in zip(pile, pile[1:]):
                    assert a < b and seq.value(a) > seq.value(b)
                for d, i in enumerate(pile):
                    assert pile_coord(ps, i) == (t, d)
            for i in range(1, seq.n + 1):
                b = ps.blocker[i]
                assert ps.pile_of[b] == ps.pile_of[i] - 1
                assert b < i and seq.value(b) < seq.value(i)

    def test_one_member_per_pile(self):
        # Each pile holds exactly one index of every maximum feasible set.
        for raw in corpus(seed=31, rounds=60):
            seq = normalize(raw)
            ps = build_piles(seq)
            for s in bf.max_feasible_sets(raw):
                hit = sorted(ps.pile_of[i] for i in s)
                assert hit == list(range(1, ps.k + 1))

    def test_cross_pile_members_comparable(self):
        from lisrc import precedes

        for raw in corpus(seed=37, rounds=60):
            seq = normalize(raw)
            ps = build_piles(seq)
            for s in bf.max_feasible_sets(raw):
                by_pile = sorted(s, key=lambda i: ps.pile_of[i])
                for u, v in zip(by_pile, by_pile[1:]):
                    assert precedes(seq, u, v)


class TestExtractCanonicalMax:
    def test_k22_sequence(self):
        assert extract_canonical_max(build_piles(normalize(K22_NO[0]))) == (1, 2)

    def test_increasing_sequence(self):
        assert extract_canonical_max(build_piles(normalize((1, 2, 3)))) == (1, 2, 3)

    def test_detour_sequence(self):
        # Blocker chain from the bottom of the last pile: 17 <- 13 <- 11.
        ps = build_piles(normalize(DETOUR[0]))
        assert extract_canonical_max(ps) == (2, 4, 5)

    def test_empty_sequence(self):
        assert extract_canonical_max(build_piles(normalize(()))) == ()

    def test_always_maximum_feasible(self):
        for raw in corpus(seed=41):
            seq = normalize(raw)
            assert is_maximum_feasible(seq, extract_canonical_max(build_piles(seq)))


class TestPileCoord:
    def test_above_bottom(self):
        ps = build_piles(normalize(K22_NO[0]))
        assert pile_coord(ps, 3) == (1, 1)

    def test_sentinel(self):
        ps = build_piles(normalize(K22_NO[0]))
        assert pile_coord(ps, 0) == (0, 0)

    def test_deep_entry(self):
        ps = build_piles(normalize(DETOUR[0]))
        assert pile_coord(ps, 6) == (2, 2)

    def test_out_of_range(self):
        ps = build_piles(normalize(K22_NO[0]))
        with pytest.raises(IndexOutOfRange):
            pile_coord(ps, 5)
