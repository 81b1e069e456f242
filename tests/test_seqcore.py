import itertools
import random

import pytest
from hypothesis import given, strategies as st

from lisrc import (
    DuplicateValue,
    build_piles,
    IndexOutOfRange,
    Infeasible,
    is_feasible,
    is_maximum_feasible,
    normalize,
    precedes,
    require_feasible,
)

import bruteforce as bf
from conftest import K22_NO, DETOUR


def perms(max_n=6):
    """Small-n permutation strategy over raw values 1..n."""
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


class TestNormalize:
    def test_already_sorted(self):
        assert normalize((1, 2, 3)).perm == (1, 2, 3)

    def test_rank_order(self):
        assert normalize((7, 8, 5, 6)).perm == (3, 4, 1, 2)

    def test_rank_order_larger(self):
        assert normalize(DETOUR[0]).perm == (5, 1, 6, 3, 7, 2, 4)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateValue) as info:
            normalize((3, 1, 3))
        assert info.value.value == 3

    def test_empty(self):
        seq = normalize(())
        assert seq.n == 0 and seq.perm == ()

    @given(st.lists(st.integers(-1000, 1000), unique=True, max_size=20))
    def test_order_isomorphic(self, raw):
        seq = normalize(raw)
        assert sorted(seq.perm) == list(range(1, len(raw) + 1))
        for i, j in itertools.combinations(range(len(raw)), 2):
            assert (raw[i] < raw[j]) == (seq.perm[i] < seq.perm[j])


class TestPrecedes:
    def test_increasing_pair(self):
        assert precedes(normalize((7, 8, 5, 6)), 1, 2)

    def test_reflexive(self):
        seq = normalize((7, 8, 5, 6))
        assert all(precedes(seq, k, k) for k in range(1, 5))

    def test_value_decrease(self):
        assert not precedes(normalize((7, 8, 5, 6)), 1, 3)

    def test_sentinel_precedes_everything(self):
        seq = normalize((7, 8, 5, 6))
        assert all(precedes(seq, 0, j) for j in range(5))

    def test_out_of_range(self):
        seq = normalize((7, 8, 5, 6))
        with pytest.raises(IndexOutOfRange):
            precedes(seq, 1, 5)
        with pytest.raises(IndexOutOfRange):
            precedes(seq, -1, 2)

    @given(perms())
    def test_matches_raw_comparison(self, raw):
        seq = normalize(raw)
        n = len(raw)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = i == j or (i < j and raw[i - 1] < raw[j - 1])
                assert precedes(seq, i, j) == expected


class TestIsFeasible:
    def test_k22_color_class(self):
        assert is_feasible(normalize((7, 8, 5, 6)), {1, 2})

    def test_empty_set(self):
        assert is_feasible(normalize((7, 8, 5, 6)), set())

    def test_decreasing_pair(self):
        assert not is_feasible(normalize((7, 8, 5, 6)), {1, 3})

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            is_feasible(normalize((7, 8, 5, 6)), {0, 1})

    @given(perms())
    def test_equals_pairwise_precedes(self, raw):
        seq = normalize(raw)
        n = len(raw)
        rng = random.Random(17)
        for _ in range(10):
            s = [i for i in range(1, n + 1) if rng.random() < 0.5]
            expected = all(
                precedes(seq, i, j) for i, j in itertools.combinations(sorted(s), 2)
            )
            assert is_feasible(seq, s) == expected


class TestRequireFeasible:
    def test_reports_offending_pair(self):
        with pytest.raises(Infeasible) as info:
            require_feasible(normalize((7, 8, 5, 6)), {1, 3})
        assert info.value.pair == (1, 3)

    def test_canonicalizes(self):
        assert require_feasible(normalize((7, 8, 5, 6)), [4, 3]) == (3, 4)


class TestLisLength:
    def test_sorted_input(self):
        for n in (0, 1, 5, 9):
            assert build_piles(normalize(range(1, n + 1))).k == n

    def test_k22_sequence(self):
        raw = K22_NO[0]
        assert bf.lis_len(raw) == 2
        assert build_piles(normalize(raw)).k == 2

    def test_detour_sequence(self):
        assert build_piles(normalize(DETOUR[0])).k == 3

    def test_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(150):
            raw = bf.random_perm(rng, rng.randint(0, 12))
            assert build_piles(normalize(raw)).k == bf.lis_len(raw)


class TestIsMaximumFeasible:
    def test_k22_other_color_class(self):
        assert is_maximum_feasible(normalize((7, 8, 5, 6)), {3, 4})

    def test_too_small(self):
        assert not is_maximum_feasible(normalize((7, 8, 5, 6)), {1})

    def test_infeasible(self):
        assert not is_maximum_feasible(normalize((7, 8, 5, 6)), {1, 3})

    def test_empty_sequence(self):
        assert is_maximum_feasible(normalize(()), set())

    def test_agrees_with_enumeration(self):
        rng = random.Random(11)
        for _ in range(40):
            raw = bf.random_perm(rng, rng.randint(1, 8))
            seq = normalize(raw)
            maxima = set(bf.max_feasible_sets(raw))
            for size in range(len(raw) + 1):
                for s in itertools.combinations(range(1, len(raw) + 1), size):
                    assert is_maximum_feasible(seq, s) == (s in maxima)
