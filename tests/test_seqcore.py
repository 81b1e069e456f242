import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from lisrc import (
    DuplicateValue,
    build_piles,
    IndexOutOfRange,
    Infeasible,
    LisrcError,
    NotMaximum,
    normalize,
    require_feasible,
)
from lisrc.reconfig import minimal_set
from lisrc.seqcore import is_feasible

import bruteforce as bf
from conftest import K22_NO, DETOUR


def perms(max_n=6):
    """Small-n permutation strategy over raw values 1..n."""
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


@st.composite
def disguised_perms(draw, max_n=8):
    """Permutations of 1..n with a few values replaced by True (for 1), by
    an equal float or by a float just below: all still pass a 1..n range
    test, but are not permutations of int."""
    raw = list(draw(perms(max_n)))
    if raw:
        for pos in draw(st.sets(st.integers(0, len(raw) - 1), max_size=3)):
            v = raw[pos]
            raw[pos] = True if v == 1 else v - draw(st.sampled_from((0.0, 0.5)))
    return raw


@st.composite
def with_repeat(draw, values):
    """A non-empty list from `values` with one of its members inserted again."""
    raw = draw(values.filter(len))
    raw.insert(draw(st.integers(0, len(raw))), draw(st.sampled_from(raw)))
    return raw


@st.composite
def values_and_indices(draw):
    """Distinct values and an index list for them, with repeats: ints in
    1..n only, ints also out of range on either side, or ints mixed with
    the bools, floats and strings that fail the type check."""
    raw = draw(st.lists(st.integers(-50, 50), unique=True, max_size=9))
    n = len(raw)
    wide = st.integers(-2, n + 2)
    items = draw(
        st.one_of(
            st.lists(st.integers(1, max(n, 1)), min_size=min(n, 3), max_size=n + 2),
            st.lists(wide, max_size=n + 2),
            st.lists(
                st.one_of(wide, st.booleans(), st.floats(-2, n + 2), st.text(max_size=2)),
                max_size=n + 2,
            ),
        )
    )
    return raw, items


NORMALIZE_INPUTS = st.one_of(
    st.lists(st.integers(-10**6, 10**6), unique=True, max_size=30),
    perms(8),
    st.tuples(perms(8), st.integers(-5, 5)).map(
        lambda p: [v + p[1] for v in p[0]]
    ),
    disguised_perms(),
    st.lists(
        st.one_of(
            st.integers(-5, 12),
            st.floats(-5, 12, allow_nan=False),
            st.just(True),
        ),
        unique=True,
        max_size=12,
    ),
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

    def test_permutation_is_its_own_rank(self):
        seq = normalize([3, 1, 2])
        assert seq.perm == (3, 1, 2) and seq.perm is seq.raw

    @given(NORMALIZE_INPUTS)
    @example((1, 1.5, 3))
    @example((True, 2))
    @example((1, 2, 3.0))
    def test_matches_rank_reference(self, raw):
        perm = normalize(raw).perm
        assert perm == bf.rank_normalize(raw)
        assert all(type(v) is int for v in perm)

    @given(
        st.one_of(
            with_repeat(st.lists(st.integers(1, 6), max_size=6)),
            with_repeat(st.permutations(range(1, 7))),
            with_repeat(st.lists(st.integers(-30, 30), max_size=12)),
        )
    )
    @example([1, 3, 3])
    @example([5, 9, 5, 7])
    def test_duplicate_names_smallest_repeat(self, raw):
        with pytest.raises(DuplicateValue) as got:
            normalize(raw)
        with pytest.raises(DuplicateValue) as want:
            bf.rank_normalize(raw)
        smallest = min(v for v in raw if raw.count(v) > 1)
        assert got.value.value == want.value.value == smallest

    def test_values_that_do_not_compare_are_typed(self):
        with pytest.raises(LisrcError, match="not comparable") as info:
            normalize([1, "a"])
        assert type(info.value) is LisrcError

    @pytest.mark.parametrize("at", range(3))
    def test_nan_is_not_ranked(self, at):
        raw = [1.0, 2.0]
        raw.insert(at, float("nan"))
        with pytest.raises(LisrcError, match="not ordered: .*nan") as info:
            normalize(raw)
        assert type(info.value) is LisrcError

    def test_unhashable_values_are_typed(self):
        with pytest.raises(LisrcError, match="not hashable") as info:
            normalize([[1], [2]])
        assert type(info.value) is LisrcError

    def test_repeats_that_do_not_compare_are_typed(self):
        with pytest.raises(LisrcError, match="not comparable") as info:
            normalize([1, 1, "a", "a"])
        assert type(info.value) is LisrcError

    def test_lone_nan_is_not_ranked(self):
        with pytest.raises(LisrcError, match="not ordered: nan") as info:
            normalize([float("nan")])
        assert type(info.value) is LisrcError

    @given(st.lists(st.integers(-1000, 1000), unique=True, max_size=20))
    def test_order_isomorphic(self, raw):
        seq = normalize(raw)
        assert sorted(seq.perm) == list(range(1, len(raw) + 1))
        for i, j in itertools.combinations(range(len(raw)), 2):
            assert (raw[i] < raw[j]) == (seq.perm[i] < seq.perm[j])


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
                raw[i - 1] < raw[j - 1] for i, j in itertools.combinations(sorted(s), 2)
            )
            assert is_feasible(seq, s) == expected


class TestRequireFeasible:
    def test_reports_offending_pair(self):
        with pytest.raises(Infeasible) as info:
            require_feasible(normalize((7, 8, 5, 6)), {1, 3})
        assert info.value.pair == (1, 3)

    def test_canonicalizes(self):
        assert require_feasible(normalize((7, 8, 5, 6)), [4, 3]) == (3, 4)

    @given(values_and_indices())
    @example(([7, 8, 5, 6], [1, True]))
    @example(([7, 8, 5, 6], [True, 1]))
    @example(([7, 8, 5, 6], [9, 6, 5, 1]))
    @example(([7, 8, 5, 6], [9, 0, 3, 1]))
    @example(([7, 8, 5, 6], [4, 3, 2, 1, 4]))
    def test_matches_item_by_item_reference(self, case):
        # The reference runs every check member by member; the package
        # runs C-level passes and walks the members only after one failed.
        raw, items = case

        def outcome(validate, seq):
            try:
                return "ok", validate(seq, items)
            except LisrcError as exc:
                return type(exc), exc.args, getattr(exc, "pair", None)

        want = outcome(bf.require_feasible, raw)
        assert outcome(require_feasible, normalize(raw)) == want


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


def is_maximum_feasible(seq, s):
    """Whether `minimal_set` accepts `s` as a maximum feasible set."""
    try:
        minimal_set(seq, build_piles(seq), s)
    except (Infeasible, NotMaximum):
        return False
    return True


class TestIsMaximumFeasible:
    """The package's maximality check, and the reference the tests use."""

    def test_k22_other_color_class(self):
        assert is_maximum_feasible(normalize((7, 8, 5, 6)), {3, 4})
        assert bf.is_maximum_feasible((7, 8, 5, 6), {3, 4})

    def test_too_small(self):
        assert not is_maximum_feasible(normalize((7, 8, 5, 6)), {1})
        assert not bf.is_maximum_feasible((7, 8, 5, 6), {1})

    def test_infeasible(self):
        assert not is_maximum_feasible(normalize((7, 8, 5, 6)), {1, 3})
        assert not bf.is_maximum_feasible((7, 8, 5, 6), {1, 3})

    def test_empty_sequence(self):
        assert is_maximum_feasible(normalize(()), set())
        assert bf.is_maximum_feasible((), set())

    def test_agrees_with_enumeration(self):
        rng = random.Random(11)
        for _ in range(40):
            raw = bf.random_perm(rng, rng.randint(1, 8))
            seq = normalize(raw)
            maxima = set(bf.max_feasible_sets(raw))
            for size in range(len(raw) + 1):
                for s in itertools.combinations(range(1, len(raw) + 1), size):
                    expected = s in maxima
                    assert is_maximum_feasible(seq, s) == expected
                    assert bf.is_maximum_feasible(raw, s) == expected
