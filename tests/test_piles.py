import dataclasses
import itertools
import random
from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from lisrc import (
    IndexOutOfRange,
    PileSystem,
    build_piles,
    enumerate_feasible,
    normalize,
)
from lisrc.bipartite import mixed_piles
from lisrc.piles import random_max_sets
from lisrc.reconfig import minimal_set

import bruteforce as bf
from conftest import BIP, K22_NO, DETOUR

# Per-element tables a PileSystem does not keep: queries locate members,
# and a blocker is found, by binary search in the piles.
NOT_KEPT = ("pile_of", "depth_of", "blocker", "n")


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


class TestBuildPiles:
    def test_k22_sequence(self):
        seq = normalize(K22_NO[0])
        ps = build_piles(seq)
        assert ps.piles == ((0,), (1, 3), (2, 4))
        # Who blocked whom, by raw value: 7<-0, 8<-7, 5<-0, 6<-5.
        assert bf.deal_reference(K22_NO[0])[2][1:] == (0, 1, 0, 3)

    def test_increasing_sequence(self):
        ps = build_piles(normalize((1, 2, 3)))
        assert ps.piles == ((0,), (1,), (2,), (3,))

    def test_detour_sequence(self):
        seq = normalize(DETOUR[0])
        ps = build_piles(seq)
        assert ps.piles == ((0,), (1, 2), (3, 4, 6), (5, 7))
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
            value = (0, *seq.perm)
            tops = [value[p[-1]] for p in ps.piles]
            assert tops == sorted(tops)
            for t, pile in enumerate(ps.piles):
                for a, b in zip(pile, pile[1:]):
                    assert a < b and value[a] > value[b]
                for d, i in enumerate(pile):
                    assert bf.pile_coord(raw, i) == (t, d)
            pile_of, _, blocker = bf.deal_reference(raw)
            for i in range(1, seq.n + 1):
                b = blocker[i]
                assert pile_of[b] == pile_of[i] - 1
                assert b < i and value[b] < value[i]

    def test_one_member_per_pile(self):
        # Each pile holds exactly one index of every maximum feasible set.
        for raw in corpus(seed=31, rounds=60):
            seq = normalize(raw)
            ps = build_piles(seq)
            pile_of = bf.deal_reference(raw)[0]
            for s in bf.max_feasible_sets(raw):
                hit = sorted(pile_of[i] for i in s)
                assert hit == list(range(1, ps.k + 1))

    def test_cross_pile_members_comparable(self):
        for raw in corpus(seed=37, rounds=60):
            value = (0, *normalize(raw).perm)
            pile_of = bf.deal_reference(raw)[0]
            for s in bf.max_feasible_sets(raw):
                by_pile = sorted(s, key=pile_of.__getitem__)
                for u, v in zip(by_pile, by_pile[1:]):
                    assert u < v and value[u] < value[v]


class TestDerivedCoordinates:
    """Dealing keeps only the piles; coordinates and blockers follow from them."""

    @given(
        st.one_of(
            st.integers(0, 12).flatmap(
                lambda n: st.permutations(list(range(1, n + 1)))
            ),
            st.tuples(
                st.integers(0, 12).flatmap(
                    lambda n: st.permutations(list(range(1, n + 1)))
                ),
                st.integers(-50, 50).filter(bool),
            ).map(lambda p: [v + p[1] for v in p[0]]),
            st.lists(st.integers(-10**6, 10**6), unique=True, max_size=40),
        )
    )
    def test_match_dealing_reference(self, raw):
        ps = build_piles(normalize(raw))
        pile_of, depth_of, blocker = bf.deal_reference(raw)
        assert sum(map(len, ps.piles)) == len(raw) + 1
        for t, pile in enumerate(ps.piles):
            assert [(pile_of[i], depth_of[i]) for i in pile] == [
                (t, d) for d in range(len(pile))
            ]
        # A blocker is the last entry of the pile to the left with a
        # smaller index.
        for t in range(1, ps.k + 1):
            below = ps.piles[t - 1]
            for i in ps.piles[t]:
                assert blocker[i] == below[bisect_left(below, i) - 1]

    def test_piles_are_the_only_field(self):
        assert [f.name for f in dataclasses.fields(PileSystem)] == ["piles"]
        ps = build_piles(normalize(DETOUR[0]))
        assert vars(ps).keys() == {"piles"}
        assert not any(hasattr(ps, name) for name in NOT_KEPT)

    @pytest.mark.parametrize(
        "query",
        [
            lambda seq, ps, i, j: minimal_set(seq, ps, i),
            lambda seq, ps, i, j: mixed_piles(seq, ps, i, j),
        ],
        ids=["minimal_set", "mixed_piles"],
    )
    @pytest.mark.parametrize("instance", [DETOUR, BIP, K22_NO], ids=["detour", "bip", "k22"])
    def test_queries_do_not_derive(self, query, instance):
        seq = normalize(instance[0])
        ps = build_piles(seq)
        query(seq, ps, instance[1], instance[2])
        assert vars(ps).keys() == {"piles"}

    def test_member_t_on_pile_t_exhaustive(self):
        # Every permutation of n <= 8: the t-th member (in index order) of
        # every maximum feasible set lies on pile t.
        sets = 0
        for n in range(9):
            for raw in itertools.permutations(range(1, n + 1)):
                seq = normalize(raw)
                ps = build_piles(seq)
                for s in enumerate_feasible(seq, ps.k, bound=8):
                    assert len(s) == ps.k
                    assert all(i in pile for i, pile in zip(s, ps.piles[1:]))
                    sets += 1
        assert sets == 136_587


class TestRandomMaxSets:
    def test_uniform_over_maximum_sets(self):
        # Four maximum sets, which differ on the first five positions only:
        # {1,2}, {1,5}, {3,5} and {4,5}.  A chain drawn pile by pile with
        # equal odds per option gives {1,2} about half the draws.
        raw = (3, 5, 2, 1, 4, *range(6, 21))
        seq = normalize(raw)
        sampler = random_max_sets(seq, build_piles(seq), random.Random(5))
        draws = Counter(itertools.islice(sampler, 8000))
        assert set(draws) == set(bf.max_feasible_sets(raw))
        assert all(1800 <= c <= 2200 for c in draws.values()), draws

    def test_every_draw_is_maximum(self):
        rng = random.Random(6)
        for n in range(7):
            for raw in itertools.permutations(range(1, n + 1)):
                seq = normalize(raw)
                sets = set(bf.max_feasible_sets(raw))
                sampler = random_max_sets(seq, build_piles(seq), rng)
                assert all(s in sets for s in itertools.islice(sampler, 4)), raw


class TestPileCoord:
    def test_above_bottom(self):
        assert bf.pile_coord(K22_NO[0], 3) == (1, 1)

    def test_sentinel(self):
        assert bf.pile_coord(K22_NO[0], 0) == (0, 0)

    def test_deep_entry(self):
        assert bf.pile_coord(DETOUR[0], 6) == (2, 2)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            bf.pile_coord(K22_NO[0], 5)
