"""One error contract across the entry points that take index sets.

Every set goes through `require_feasible` first, so all entry points agree:
a non-int or out-of-range index raises IndexOutOfRange, a non-increasing
set Infeasible, sets of unequal size SizeMismatch, and a feasible set
below the LIS length NotMaximum, in that order.
"""
import pytest

from lisrc import (
    IndexOutOfRange,
    Infeasible,
    NotMaximum,
    SizeMismatch,
    build_piles,
    decide,
    downward_moves,
    is_feasible,
    minimal_set,
    mixed_piles,
    normalize,
    oracle_decide,
    oracle_shortest,
    require_feasible,
    shortest_sequence,
    witness,
)

from conftest import DETOUR

# Each entry point as a function of (seq, I, J).
PAIR_ENTRY_POINTS = {
    "decide": decide,
    "witness": witness,
    "mixed_piles": lambda seq, i, j: mixed_piles(seq, build_piles(seq), i, j),
    "shortest_sequence": shortest_sequence,
    "oracle_decide": oracle_decide,
    "oracle_shortest": oracle_shortest,
}
# The single-set entry points validate I and ignore J.
ENTRY_POINTS = {
    **PAIR_ENTRY_POINTS,
    "minimal_set": lambda seq, i, j: minimal_set(seq, build_piles(seq), i),
    "downward_moves": lambda seq, i, j: downward_moves(seq, build_piles(seq), i),
}

# DETOUR: values 15 11 16 13 17 12 14, LIS length 3, not bipartite, so
# shortest_sequence must validate before it reports NotBipartite.
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
        lambda seq, s: decide(seq, s, (1, 3, 5)),
        lambda seq, s: shortest_sequence(seq, s, (1, 3, 5)),
        lambda seq, s: oracle_decide(seq, s, (1, 3, 5)),
    ],
    ids=["require_feasible", "is_feasible", "decide", "shortest_sequence", "oracle_decide"],
)
def test_non_int_index_is_out_of_range(call, bad):
    with pytest.raises(IndexOutOfRange) as info:
        call(SEQ, (bad, 3, 5))
    assert info.value.index is bad
