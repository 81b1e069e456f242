"""One error contract across the entry points that take index sets.

Every set goes through `require_feasible` first, so all entry points agree:
a non-int or out-of-range index raises IndexOutOfRange, a non-increasing
set Infeasible, sets of unequal size SizeMismatch, and a feasible set
below the LIS length NotMaximum, in that order.
"""
import pytest
from hypothesis import given, strategies as st

from lisrc import (
    IndexOutOfRange,
    Infeasible,
    NotMaximum,
    SizeMismatch,
    build_piles,
    is_feasible,
    minimal_set,
    mixed_piles,
    normalize,
    oracle_shortest,
    reconfigure,
    require_feasible,
    shortest_sequence,
)
from lisrc.reconfig import require_pair

import bruteforce as bf
from conftest import DETOUR

# Each entry point as a function of (seq, I, J).
PAIR_ENTRY_POINTS = {
    # The yes/no answer, as `lisrc decide` computes it.
    "decide": lambda seq, i, j: reconfigure(seq, i, j).walk is not None,
    "mixed_piles": lambda seq, i, j: mixed_piles(seq, build_piles(seq), i, j),
    "shortest_sequence": shortest_sequence,
    # The oracle's yes/no answer, as `lisrc oracle` computes it.
    "oracle_decide": lambda seq, i, j: oracle_shortest(seq, i, j) is not None,
    "oracle_shortest": oracle_shortest,
}
# The single-set entry points validate I and ignore J.
ENTRY_POINTS = {
    **PAIR_ENTRY_POINTS,
    "minimal_set": lambda seq, i, j: minimal_set(seq, build_piles(seq), i),
}

# DETOUR: values 15 11 16 13 17 12 14, LIS length 3, not bipartite, so
# shortest_sequence must validate before it raises TallPile.
SEQ = normalize(DETOUR[0])
I_MAX, J_MAX = DETOUR[1], DETOUR[2]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_non_increasing_set_is_infeasible(name):
    with pytest.raises(Infeasible) as info:
        ENTRY_POINTS[name](SEQ, (1, 2, 3), J_MAX)
    assert info.value.pair == (1, 2)


@pytest.mark.parametrize("name", PAIR_ENTRY_POINTS)
def test_non_increasing_second_set_is_infeasible(name):
    with pytest.raises(Infeasible) as info:
        PAIR_ENTRY_POINTS[name](SEQ, I_MAX, (2, 3, 4))
    assert info.value.pair == (3, 4)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_small_increasing_set_is_not_maximum(name):
    with pytest.raises(NotMaximum):
        ENTRY_POINTS[name](SEQ, (1, 3), (2, 4))


@pytest.mark.parametrize("name", PAIR_ENTRY_POINTS)
def test_unequal_sizes_mismatch_before_not_maximum(name):
    with pytest.raises(SizeMismatch):
        PAIR_ENTRY_POINTS[name](SEQ, I_MAX, (2, 4))


@pytest.mark.parametrize("bad", [2.0, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "call",
    [
        require_feasible,
        is_feasible,
        lambda seq, s: reconfigure(seq, s, (1, 3, 5)).walk is not None,
        lambda seq, s: shortest_sequence(seq, s, (1, 3, 5)),
        lambda seq, s: oracle_shortest(seq, s, (1, 3, 5)) is not None,
    ],
    ids=["require_feasible", "is_feasible", "decide", "shortest_sequence", "oracle_decide"],
)
def test_non_int_index_is_out_of_range(call, bad):
    with pytest.raises(IndexOutOfRange) as info:
        call(SEQ, (bad, 3, 5))
    assert info.value.index is bad


# Bad pairs on DETOUR (n = 7, k = 3), each against the reference that runs
# every check in full: require_feasible twice, the size comparison, then
# the size-k test on each set.
BAD_PAIRS = {
    "index_out_of_range_in_I": ((1, 9, 5), J_MAX),
    "index_zero_in_J": (I_MAX, (0, 6, 7)),
    "float_index_in_J": (I_MAX, (2, 6.0, 7)),
    "infeasible_I": ((1, 2, 3), J_MAX),
    "infeasible_J": (I_MAX, (2, 3, 4)),
    "both_bad_I_first": ((1, 2, 3), (0,)),
    "sizes_differ": (I_MAX, (2, 4)),
    "sizes_differ_undersized": ((1, 3), (2,)),
    "not_maximum": ((1, 3), (2, 4)),
    "not_maximum_J_repeats": ((1, 3), (2, 4, 2)),
    "empty_sets": ((), ()),
}


def outcome(call):
    try:
        return "ok", call()
    except (IndexOutOfRange, Infeasible, NotMaximum, SizeMismatch) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("maximum", [True, False], ids=["maximum", "general"])
@pytest.mark.parametrize("name", BAD_PAIRS)
def test_require_pair_matches_full_reference(name, maximum):
    i_set, j_set = BAD_PAIRS[name]
    ps = build_piles(SEQ) if maximum else None
    k = ps.k if maximum else None
    got = outcome(lambda: require_pair(SEQ, ps, i_set, j_set))
    want = outcome(lambda: bf.require_pair(DETOUR[0], k, i_set, j_set))
    assert got == want
    if maximum:
        assert got[0] != "ok"


@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS)
@pytest.mark.parametrize("name", BAD_PAIRS)
def test_entry_points_raise_reference_error(name, entry):
    i_set, j_set = BAD_PAIRS[name]
    want = outcome(lambda: bf.require_pair(DETOUR[0], 3, i_set, j_set))
    assert want[0] != "ok"
    assert outcome(lambda: PAIR_ENTRY_POINTS[entry](SEQ, i_set, j_set)) == want


@given(
    st.integers(1, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1)))),
    st.lists(st.integers(-1, 8), max_size=5),
    st.lists(st.integers(-1, 8), max_size=5),
    st.booleans(),
)
def test_require_pair_matches_reference_on_random_sets(raw, i_set, j_set, maximum):
    seq = normalize(raw)
    ps = build_piles(seq) if maximum else None
    k = ps.k if maximum else None
    got = outcome(lambda: require_pair(seq, ps, i_set, j_set))
    assert got == outcome(lambda: bf.require_pair(raw, k, i_set, j_set))
