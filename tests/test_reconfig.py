import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lisrc import (
    Infeasible,
    NotMaximum,
    ReconfSequence,
    SizeMismatch,
    build_piles,
    normalize,
    oracle_shortest,
    reconfigure,
)
import lisrc.reconfig
from lisrc.cli import _fmt_set, _render_walk
from lisrc.reconfig import _meet_walk, _placed, minimal_set

import bruteforce as bf
from conftest import K22_NO, DETOUR


def naive_descent(raw, s):
    """Reference greedy: re-derive all moves and apply the first each round."""
    start = cur = tuple(sorted(s))
    removed, added = [], []
    while moves := bf.downward_moves(raw, cur):
        remove, add = moves[0]
        removed.append(remove)
        added.append(add)
        cur = bf.swap(cur, remove, add)
    return cur, ReconfSequence(start=start, removed=tuple(removed), added=tuple(added))


def max_swap_neighbours(raw, s):
    """Every maximum set one swap from `s`, found by enumeration, as
    (remove, add) pairs."""
    return {
        (min(set(s) - set(t)), min(set(t) - set(s)))
        for t in bf.max_feasible_sets(raw)
        if len(set(s) ^ set(t)) == 2
    }


def sample_instances(seed, rounds, max_n):
    rng = random.Random(seed)
    for _ in range(rounds):
        raw = bf.random_perm(rng, rng.randint(1, max_n))
        maxima = bf.max_feasible_sets(raw)
        yield raw, rng.choice(maxima), rng.choice(maxima)


class TestDownwardMoves:
    """The downward moves of the reference, and the descent's steps."""

    def test_single_move(self):
        assert bf.downward_moves(DETOUR[0], (2, 6, 7)) == [(6, 4)]

    def test_all_at_bottom(self):
        assert bf.downward_moves(DETOUR[0], (1, 3, 5)) == []

    def test_singleton_piles(self):
        assert bf.downward_moves((1, 2, 3), (1, 2, 3)) == []

    def test_blocked_despite_depth(self):
        assert bf.downward_moves(K22_NO[0], (3, 4)) == []

    def test_rejects_non_maximum(self):
        seq = normalize(K22_NO[0])
        ps = build_piles(seq)
        with pytest.raises(NotMaximum):
            minimal_set(seq, ps, (1,))
        with pytest.raises(Infeasible):
            minimal_set(seq, ps, (1, 3))

    def test_matches_naive_reference(self):
        # Every swap between maximum sets stays in one pile, so the
        # reference's moves are the enumerated neighbours whose new
        # member sits lower.
        for raw, s, _ in sample_instances(seed=3, rounds=150, max_n=10):
            depth_of = bf.deal_reference(raw)[1]
            neighbours = max_swap_neighbours(raw, s)
            lower = {(v, u) for v, u in neighbours if depth_of[u] < depth_of[v]}
            assert set(bf.downward_moves(raw, s)) == lower

    def test_moves_stay_within_pile(self):
        for raw, s, _ in sample_instances(seed=13, rounds=100, max_n=12):
            seq = normalize(raw)
            pile_of, depth_of, _ = bf.deal_reference(raw)
            _, trace = minimal_set(seq, build_piles(seq), s)
            for remove, add in zip(trace.removed, trace.added):
                assert pile_of[remove] == pile_of[add]
                assert depth_of[add] < depth_of[remove]


class TestMinimalSet:
    def test_fixed_point_immediately(self):
        seq = normalize(K22_NO[0])
        ps = build_piles(seq)
        assert minimal_set(seq, ps, (1, 2)) == (
            (1, 2),
            ReconfSequence(start=(1, 2), removed=(), added=()),
        )

    def test_fixed_point_despite_depths(self):
        seq = normalize(K22_NO[0])
        ps = build_piles(seq)
        assert minimal_set(seq, ps, (3, 4)) == (
            (3, 4),
            ReconfSequence(start=(3, 4), removed=(), added=()),
        )

    def test_four_step_descent(self):
        seq = normalize(DETOUR[0])
        ps = build_piles(seq)
        m, trace = minimal_set(seq, ps, (2, 6, 7))
        assert m == (1, 3, 5)
        assert trace == ReconfSequence(
            start=(2, 6, 7), removed=(6, 7, 4, 2), added=(4, 5, 3, 1)
        )
        assert len(trace) == 4

    def test_rejects_non_maximum(self):
        seq = normalize(DETOUR[0])
        ps = build_piles(seq)
        with pytest.raises(NotMaximum):
            minimal_set(seq, ps, (1, 3))

    def test_matches_reference_greedy(self):
        for raw, s, _ in sample_instances(seed=19, rounds=200, max_n=10):
            seq = normalize(raw)
            ps = build_piles(seq)
            assert minimal_set(seq, ps, s) == naive_descent(raw, s)

    def test_trace_properties(self):
        for raw, s, _ in sample_instances(seed=29, rounds=150, max_n=12):
            seq = normalize(raw)
            ps = build_piles(seq)
            m, trace = minimal_set(seq, ps, s)
            assert bf.downward_moves(raw, m) == []
            depth_of = bf.deal_reference(raw)[1]
            total_depth = sum(depth_of[i] for i in s)
            assert len(trace) <= total_depth
            cur = tuple(sorted(s))
            assert trace.start == cur
            depth = total_depth
            for remove, add in zip(trace.removed, trace.added):
                cur = bf.swap(cur, remove, add)
                assert bf.is_maximum_feasible(raw, cur)
                new_depth = sum(depth_of[i] for i in cur)
                assert new_depth < depth
                depth = new_depth
            assert cur == m

    def test_confluence_under_random_order(self):
        rng = random.Random(43)
        for raw, s, _ in sample_instances(seed=47, rounds=120, max_n=12):
            seq = normalize(raw)
            ps = build_piles(seq)
            cur = tuple(sorted(s))
            while moves := bf.downward_moves(raw, cur):
                cur = bf.swap(cur, *rng.choice(moves))
            assert cur == minimal_set(seq, ps, s)[0]

    @pytest.mark.parametrize("reach", [1, 2, 5])
    def test_matches_reference_on_tall_piles(self, reach):
        # Random sets reach n <= 10 only, where piles are a few entries
        # tall; here the bounded searches run over 40 depths.
        raw, grid = bf.staircase(6, 40, reach)
        seq = normalize(raw)
        ps = build_piles(seq)
        assert [len(p) for p in ps.piles[1:]] == [40] * 6
        rng = random.Random(reach)
        for _ in range(15):
            s = bf.staircase_set(grid, reach, rng)
            m, trace = minimal_set(seq, ps, s)
            assert (m, trace) == naive_descent(raw, s)
            assert m == tuple(row[0] for row in grid)


class TestPerPile:
    def test_member_t_is_pile_t(self):
        ps = build_piles(normalize(DETOUR[0]))
        assert _placed(ps, (2, 4, 5))[0] == [0, 2, 4, 5]

    @pytest.mark.parametrize(
        "members",
        [(1, 3), (2, 4), (1,), (1, 2, 4)],
        ids=["two_on_pile_1", "two_on_pile_2", "too_few", "too_many"],
    )
    def test_asserts_one_member_per_pile(self, members):
        # Sets that skipped validation: the assertion still catches them.
        ps = build_piles(normalize(K22_NO[0]))
        with pytest.raises(AssertionError, match="each pile once"):
            _placed(ps, members)[0]


class TestDecide:
    def test_k22_no_instance(self):
        assert reconfigure(normalize(K22_NO[0]), K22_NO[1], K22_NO[2]).walk is None

    def test_detour_instance(self):
        raw, i_set, j_set = DETOUR
        assert reconfigure(normalize(raw), i_set, j_set).walk is not None

    def test_identical_sets(self):
        assert reconfigure(normalize(K22_NO[0]), (3, 4), (3, 4)).walk is not None

    def test_empty_sequence(self):
        assert reconfigure(normalize(()), (), ()).walk is not None

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            reconfigure(normalize((1, 3, 2)), (1, 2), (1,))

    def test_rejects_non_maximum(self):
        with pytest.raises(NotMaximum):
            reconfigure(normalize(K22_NO[0]), (1,), (3,))

    def test_matches_connectivity_oracle(self):
        for raw, i_set, j_set in sample_instances(seed=53, rounds=150, max_n=9):
            seq = normalize(raw)
            expected = any(
                i_set in part and j_set in part
                for part in bf.connectivity_partition(bf.max_feasible_sets(raw))
            )
            assert (reconfigure(seq, i_set, j_set).walk is not None) == expected


class TestWitness:
    def test_detour_instance(self):
        raw, i_set, j_set = DETOUR
        rs = reconfigure(normalize(raw), i_set, j_set).walk
        assert len(rs) == 4
        assert rs.start == i_set and list(rs.sets())[-1] == j_set

    def test_identical_sets(self):
        rs = reconfigure(normalize(K22_NO[0]), (1, 2), (1, 2)).walk
        assert rs.removed == rs.added == ()
        assert list(rs.sets()) == [(1, 2)]

    def test_no_instance(self):
        assert reconfigure(normalize(K22_NO[0]), (1, 2), (3, 4)).walk is None

    def test_every_prefix_maximum_feasible(self):
        for raw, i_set, j_set in sample_instances(seed=61, rounds=150, max_n=10):
            seq = normalize(raw)
            rs = reconfigure(seq, i_set, j_set).walk
            if rs is None:
                continue
            sets = list(rs.sets())
            assert sets[0] == i_set and sets[-1] == j_set
            for s in sets:
                assert bf.is_maximum_feasible(raw, s)

    def test_set_to_itself_has_no_step(self):
        # I∧I = I, so neither clamped descent moves.
        for n in range(1, 7):
            for raw in itertools.permutations(range(1, n + 1)):
                seq = normalize(raw)
                for s in bf.max_feasible_sets(raw):
                    rs = reconfigure(seq, s, s).walk
                    assert rs.start == s and len(rs) == 0

    def test_exhaustive_agreement_through_the_meet(self):
        # Every pair of maximum sets of every permutation with n <= 6.
        for n in range(1, 7):
            for raw in itertools.permutations(range(1, n + 1)):
                seq = normalize(raw)
                ps = build_piles(seq)
                maxima = bf.max_feasible_sets(raw)
                part = {s: p for p in bf.connectivity_partition(maxima) for s in p}
                descents = {s: minimal_set(seq, ps, s) for s in maxima}
                for i_set, j_set in itertools.product(maxima, repeat=2):
                    (m_i, trace_i), (m_j, trace_j) = descents[i_set], descents[j_set]
                    answer = reconfigure(seq, i_set, j_set)
                    assert (answer.minimal_i, answer.minimal_j) == (m_i, m_j)
                    assert (answer.walk is not None) == (j_set in part[i_set])
                    if answer.walk is not None:
                        check_walk_through_meet(raw, answer.walk, j_set)
                        assert len(answer.walk) <= len(trace_i) + len(trace_j)
                        # One swap can fix at most one private element.
                        assert len(answer.walk) >= len(set(i_set) - set(j_set))


def check_walk_through_meet(raw, rs, j_set):
    """The walk replays to J, moving down to I∧J first and then only up."""
    sets = list(bf.replay_sets(rs))
    assert sets[-1] == j_set
    depth = bf.deal_reference(raw)[1]
    down = 0
    while down < len(rs) and depth[rs.added[down]] < depth[rs.removed[down]]:
        down += 1
    assert all(depth[a] > depth[r] for r, a in zip(rs.removed[down:], rs.added[down:]))
    meet = tuple(min(a, b, key=depth.__getitem__) for a, b in zip(rs.start, j_set))
    assert sets[down] == meet


@pytest.fixture
def descents(monkeypatch):
    """Count `_descend` calls and moves, and `_lowest_depth` searches."""
    counts = {"calls": 0, "moves": 0, "searches": 0}
    descend, lowest_depth = lisrc.reconfig._descend, lisrc.reconfig._lowest_depth

    def counting_descend(*args):
        removed, added = descend(*args)
        counts["calls"] += 1
        counts["moves"] += len(removed)
        return removed, added

    def counting_lowest_depth(*args):
        counts["searches"] += 1
        return lowest_depth(*args)

    monkeypatch.setattr(lisrc.reconfig, "_descend", counting_descend)
    monkeypatch.setattr(lisrc.reconfig, "_lowest_depth", counting_lowest_depth)
    return counts


class TestRepresentativesOnDemand:
    @pytest.mark.parametrize(
        "instance, yes", [(DETOUR, True), (K22_NO, False)], ids=["yes", "no"]
    )
    def test_descend_on_first_read_only(self, instance, yes, descents):
        raw, i_set, j_set = instance
        seq = normalize(raw)
        answer = reconfigure(seq, i_set, j_set)
        assert (answer.walk is not None) is yes
        assert descents["calls"] == 2
        representatives = answer.minimal_i, answer.minimal_j
        continuations = 1 if yes else 2
        assert descents["calls"] == 2 + continuations
        assert (answer.minimal_i, answer.minimal_j) == representatives
        assert descents["calls"] == 2 + continuations
        ps = build_piles(seq)
        assert representatives == (
            minimal_set(seq, ps, i_set)[0],
            minimal_set(seq, ps, j_set)[0],
        )

    @pytest.mark.parametrize(
        "instance, yes", [(DETOUR, True), (K22_NO, False)], ids=["yes", "no"]
    )
    def test_read_builds_no_walk(self, instance, yes, monkeypatch):
        # The descent to the representatives keeps only its fixed point.
        raw, i_set, j_set = instance
        seq = normalize(raw)
        answer = reconfigure(seq, i_set, j_set)
        assert (answer.walk is not None) is yes

        def refuse(*args, **kwargs):
            raise AssertionError("a walk built while reading the representatives")

        monkeypatch.setattr(lisrc.reconfig, "ReconfSequence", refuse)
        ps = build_piles(seq)
        representatives = answer.minimal_i, answer.minimal_j
        monkeypatch.undo()
        assert representatives == (
            minimal_set(seq, ps, i_set)[0],
            minimal_set(seq, ps, j_set)[0],
        )


class TestEverySearchMoves:
    """Each `_lowest_depth` search inside `_descend` moves a pile."""

    @staticmethod
    def descend_every_way(seq, pairs):
        ps = build_piles(seq)
        for i_set, j_set in pairs:
            minimal_set(seq, ps, i_set)
            reconfigure(seq, i_set, j_set).minimal_i  # runs the continuation

    def test_every_permutation_up_to_7(self, descents):
        for n in range(1, 8):
            for raw in itertools.permutations(range(1, n + 1)):
                maxima = bf.max_feasible_sets(raw)
                self.descend_every_way(normalize(raw), zip(maxima, reversed(maxima)))
        assert descents["searches"] == descents["moves"] > 0

    def test_staircase(self, descents):
        # A pile never sits more than one level from its neighbours, so
        # every move gives both neighbours room that they may not use.
        raw, grid = bf.staircase(6, 12)
        rng = random.Random(7)
        sets = [bf.staircase_set(grid, 1, rng) for _ in range(20)]
        self.descend_every_way(normalize(raw), zip(sets, reversed(sets)))
        assert descents["searches"] == descents["moves"] > 0


class CountingPiles(tuple):
    """Piles that count their reads; `_descend` reads one per examination."""

    def __getitem__(self, t):
        self.reads += 1
        return tuple.__getitem__(self, t)


@pytest.fixture
def halves(monkeypatch):
    """Each `_descend` call's moves, pile count and examinations."""
    calls = []
    descend = lisrc.reconfig._descend

    def recording_descend(perm, piles, *rest):
        counting = CountingPiles(piles)
        counting.reads = 0
        removed, added = descend(perm, counting, *rest)
        calls.append((removed, added, len(piles) - 1, counting.reads))
        return removed, added

    monkeypatch.setattr(lisrc.reconfig, "_descend", recording_descend)
    return calls


class TestClampedDescentOrder:
    """`_meet_walk`'s two halves, move for move, against `bf.clamped_descent`."""

    @staticmethod
    def check_pairs(raw, pairs, halves):
        """Check each pair's halves; return the number of moves made."""
        moves = 0
        seq = normalize(raw)
        ps = build_piles(seq)
        depth = bf.deal_reference(raw)[1].__getitem__
        for i_set, j_set in pairs:
            # Member t of a maximum set lies on pile t.
            meet = tuple(min(a, b, key=depth) for a, b in zip(i_set, j_set))
            halves.clear()
            _, end_i, end_j = _meet_walk(seq, ps, i_set, j_set)
            assert len(halves) == 2
            for (removed, added, k, examined), s, end in zip(
                halves, (i_set, j_set), (end_i, end_j)
            ):
                assert bf.clamped_descent(raw, s, meet) == (end, removed, added)
                assert examined <= k + 2 * len(removed)
                moves += len(removed)
        return moves

    def test_every_pair_up_to_7(self, halves):
        moves = 0
        for n in range(1, 8):
            for raw in itertools.permutations(range(1, n + 1)):
                maxima = bf.max_feasible_sets(raw)
                pairs = itertools.product(maxima, repeat=2)
                moves += self.check_pairs(raw, pairs, halves)
        assert moves > 0

    @pytest.mark.parametrize("reach", [1, 2, 5])
    def test_staircase(self, reach, halves):
        raw, grid = bf.staircase(6, 40, reach)
        rng = random.Random(reach)
        sets = [bf.staircase_set(grid, reach, rng) for _ in range(8)]
        assert self.check_pairs(raw, itertools.product(sets, repeat=2), halves) > 0

    @pytest.mark.parametrize("reach", [1, 2, 5])
    def test_examinations_at_scale(self, reach, halves):
        # The `long_descent` scale, 20 piles of height 500, beyond brute
        # force: the examination bound only, as `test_cli_golden.py`'s
        # scale digests pin the order.
        raw, grid = bf.staircase(20, 500, reach)
        seq = normalize(raw)
        ps = build_piles(seq)
        rng = random.Random(reach)
        sets = [bf.staircase_set(grid, reach, rng) for _ in range(16)]
        both_move = 0
        for i_set, j_set in itertools.product(sets, repeat=2):
            halves.clear()
            _meet_walk(seq, ps, i_set, j_set)
            for removed, _, k, examined in halves:
                assert examined <= k + 2 * len(removed)
            both_move += all(removed for removed, *_ in halves)
        assert both_move > 0


class TestApplyStep:
    def test_swap(self):
        assert bf.swap((1, 3, 5), 3, 4) == (1, 4, 5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            bf.swap((1, 3), 2, 4)
        with pytest.raises(ValueError):
            bf.swap((1, 3), 1, 3)

    def test_sequence_replay(self):
        rs = ReconfSequence(start=(1, 3, 5), removed=(1, 3), added=(2, 4))
        assert list(rs.sets()) == [(1, 3, 5), (2, 3, 5), (2, 4, 5)]


def replay_outcome(sets):
    """The sets an iterator yields, and the message of its ValueError, if any."""
    got = []
    try:
        for s in sets:
            got.append(s)
    except ValueError as exc:
        return got, str(exc)
    return got, None


def check_replay(rs):
    expected = replay_outcome(bf.replay_sets(rs))
    assert replay_outcome(rs.sets()) == expected


SMALL_PERMS = st.integers(1, 8).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


@st.composite
def random_walks(draw, members=range(1, 13), max_size=6):
    """Walks over `members` whose steps mostly apply; some are arbitrary."""
    start = draw(st.sets(st.sampled_from(members), max_size=max_size))
    cur = set(start)
    removed, added = [], []
    for _ in range(draw(st.integers(0, 10))):
        outside = sorted(set(members) - cur)
        if cur and outside and draw(st.integers(0, 7)):
            remove = draw(st.sampled_from(sorted(cur)))
            add = draw(st.sampled_from(outside))
            cur = cur - {remove} | {add}
        else:
            remove = draw(st.sampled_from(members))
            add = draw(st.sampled_from(members))
        removed.append(remove)
        added.append(add)
    return ReconfSequence(
        start=tuple(sorted(start)), removed=tuple(removed), added=tuple(added)
    )


@st.composite
def corrupted(draw, rs):
    """The walk, or the walk with one step swapped for an arbitrary one."""
    if not rs or draw(st.booleans()):
        return rs
    removed, added = list(rs.removed), list(rs.added)
    at = draw(st.integers(0, len(rs) - 1))
    bound = max(max(rs.start, default=1), max(added))
    removed[at] = draw(st.integers(1, bound))
    added[at] = draw(st.integers(1, bound))
    return ReconfSequence(
        start=rs.start, removed=tuple(removed), added=tuple(added)
    )


# What these check is the outcome, not the time an example takes.
UNTIMED = settings(deadline=None)


class TestReplay:
    """`ReconfSequence.sets` and `end` against the set-difference replay."""

    @UNTIMED
    @given(random_walks())
    def test_random_walks(self, rs):
        check_replay(rs)

    @UNTIMED
    @given(st.data())
    def test_witness_walks(self, data):
        raw = data.draw(SMALL_PERMS)
        maxima = st.sampled_from(bf.max_feasible_sets(raw))
        i_set, j_set = data.draw(maxima), data.draw(maxima)
        rs = reconfigure(normalize(raw), i_set, j_set).walk
        if rs is not None:
            check_replay(rs)
            check_replay(data.draw(corrupted(rs)))

    @UNTIMED
    @given(st.data())
    def test_general_oracle_walks(self, data):
        # Between non-maximum sets `add` may land in another slot than the
        # one `remove` left.
        raw = data.draw(SMALL_PERMS)
        size = data.draw(st.integers(1, bf.lis_len(raw)))
        sets = st.sampled_from(bf.feasible_sets(raw, size))
        i_set, j_set = data.draw(sets), data.draw(sets)
        rs = oracle_shortest(normalize(raw), i_set, j_set, maximum_only=False)
        if rs is not None:
            check_replay(rs)
            check_replay(data.draw(corrupted(rs)))

    def test_add_changes_slot(self):
        rs = ReconfSequence(start=(1, 3, 5), removed=(1, 5), added=(4, 2))
        assert list(rs.sets()) == [(1, 3, 5), (3, 4, 5), (2, 3, 4)]

    def test_slots_of_each_step(self):
        # A step within its slot is written in place; another moves members.
        rs = ReconfSequence(start=(1, 3, 5), removed=(3, 1), added=(4, 6))
        slots = [(list(cur), i, j) for cur, i, j in rs._replay()]
        assert slots == [([1, 4, 5], 1, 1), ([4, 5, 6], 0, 2)]

    def test_same_slot_step_that_keeps_its_member(self):
        rs = ReconfSequence(start=(1, 3, 5), removed=(1, 3), added=(2, 3))
        sets = rs.sets()
        assert next(sets) == (1, 3, 5) and next(sets) == (2, 3, 5)
        with pytest.raises(ValueError, match=r"3 -> 3 does not apply to \(2, 3, 5\)"):
            next(sets)

    @pytest.mark.parametrize("add", [1, 5], ids=["left", "right"])
    def test_add_already_a_member_of_a_neighbour_slot(self, add):
        rs = ReconfSequence(start=(1, 3, 5), removed=(3,), added=(add,))
        with pytest.raises(ValueError, match=rf"3 -> {add} does not apply"):
            list(rs.sets())

    def test_fields_of_unequal_length(self):
        with pytest.raises(ValueError, match="2 removed but 1 added"):
            ReconfSequence(start=(1, 3), removed=(1, 3), added=(2,))

    def test_step_that_does_not_apply(self):
        rs = ReconfSequence(start=(1, 3), removed=(1, 3), added=(2, 2))
        sets = rs.sets()
        assert next(sets) == (1, 3) and next(sets) == (2, 3)
        with pytest.raises(ValueError, match=r"does not apply to \(2, 3\)"):
            next(sets)


def check_render(rs, swap_lines=True):
    """The CLI's text walk of `rs` against the reference rendering.

    With swap_lines, `_render_walk`: `bf.render_walk`'s lines for the
    steps that apply and keep their slot, then ValueError at the first
    step that does not apply (the replay's error) or that changes slot.
    Without, the oracle's lines, `_fmt_set` of each set of `rs.sets()`:
    every set up to the first step that does not apply, across slots
    too, then the replay's error.
    """
    sets, error = replay_outcome(bf.replay_sets(rs))
    if not swap_lines:
        expected = list(map(bf.fmt_set, sets))
        assert replay_outcome(map(_fmt_set, rs.sets())) == (expected, error)
        return
    kept = 0
    for remove, add, before, after in zip(rs.removed, rs.added, sets, sets[1:]):
        i, j = before.index(remove), after.index(add)
        if i != j:
            error = f"swap {remove} -> {add} moves from slot {i} to {j}"
            break
        kept += 1
    prefix = ReconfSequence(
        start=rs.start, removed=rs.removed[:kept], added=rs.added[:kept]
    )
    assert replay_outcome(_render_walk(rs)) == (bf.render_walk(prefix)[1:], error)


# Members whose labels hold one another: 1, 11 and 111 start and end the
# longer runs of ones, 21 ends 121, 12 starts 121, and 1 ends -1.
AFFIX_MEMBERS = (-11, -1, 1, 2, 11, 12, 21, 111, 112, 121, 211, 1111)


class TestRenderWalk:
    """The CLI's text walk against the reference rendering."""

    @UNTIMED
    @given(random_walks())
    def test_random_walks(self, rs):
        check_render(rs)

    @UNTIMED
    @given(st.data())
    def test_witness_walks(self, data):
        raw = data.draw(SMALL_PERMS)
        maxima = st.sampled_from(bf.max_feasible_sets(raw))
        rs = reconfigure(normalize(raw), data.draw(maxima), data.draw(maxima)).walk
        if rs is not None:
            check_render(data.draw(corrupted(rs)))

    @UNTIMED
    @given(st.data())
    def test_general_oracle_walks(self, data):
        raw = data.draw(SMALL_PERMS)
        size = data.draw(st.integers(1, bf.lis_len(raw)))
        sets = st.sampled_from(bf.feasible_sets(raw, size))
        i_set, j_set = data.draw(sets), data.draw(sets)
        rs = oracle_shortest(normalize(raw), i_set, j_set, maximum_only=False)
        if rs is not None:
            rs = data.draw(corrupted(rs))
            check_render(rs, swap_lines=False)
            check_render(rs)

    @UNTIMED
    @given(random_walks(AFFIX_MEMBERS, max_size=3), st.booleans())
    def test_labels_inside_other_labels(self, rs, swap_lines):
        # Sets of 0 to 3 members, steps within and across slots, and
        # steps that do not apply.
        check_render(rs, swap_lines)

    @pytest.mark.parametrize("swap_lines", [True, False])
    @pytest.mark.parametrize(
        "start, removed, added",
        [
            ((), (1,), (11,)),
            ((1,), (1, 11, 1), (11, 1, 1)),
            ((1, 11), (1, 11, 111), (111, 1, 11)),
            ((1, 11), (11, 2), (111, 12)),
            ((1, 11), (11, 111), (111, 1)),
            ((-1, 1), (1, -1, 11), (11, 1, -1)),
            ((1, 21, 121), (21, 121, 1, 11), (211, 12, 11, 2)),
        ],
        ids=["k0", "k1", "k2-across", "k2-absent", "k2-present", "negative", "k3"],
    )
    def test_small_walks(self, start, removed, added, swap_lines):
        rs = ReconfSequence(start=start, removed=removed, added=added)
        check_render(rs, swap_lines)
