import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lisrc import (
    DuplicateValue,
    IndexOutOfRange,
    Infeasible,
    LisrcError,
    ParseError,
    ReconfSequence,
    TallPile,
    normalize,
    oracle_shortest,
    reconfigure,
    shortest_sequence,
)
import lisrc.cli
import lisrc.reconfig
import lisrc.seqcore
from lisrc.bipartite import Bipartition, decreasing_triple, two_coloring
from lisrc.cli import (
    _int_tokens,
    build_parser,
    format_instance,
    generate,
    parse_instance,
    read_instance,
    run,
)

import bruteforce as bf

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
LISRC = (sys.executable, "-c", "from lisrc.cli import main; main()")
# Block-buffered stdout, as for any user whose environment does not ask
# for unbuffered output: the last write then happens at the final flush.
LISRC_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "PYTHONPATH": str(SRC),
}
K22_FILE = str(DATA / "k22.txt")
DETOUR_FILE = str(DATA / "detour.txt")
BIP_FILE = str(DATA / "bip.txt")
SHORT_PILES_FILE = str(DATA / "short_piles.txt")


class TestParseInstance:
    def test_k22_no_instance(self):
        seq, i_set, j_set = parse_instance("7 8 5 6\n1 2\n3 4\n")
        assert seq.raw == (7, 8, 5, 6)
        assert (i_set, j_set) == ((1, 2), (3, 4))

    def test_trivial_instance(self):
        seq, i_set, j_set = parse_instance("1\n1\n1\n")
        assert seq.n == 1 and i_set == j_set == (1,)

    def test_detour_instance(self):
        seq, i_set, j_set = parse_instance(
            "15 11 16 13 17 12 14\n1 3 5\n2 6 7\n"
        )
        assert seq.raw == (15, 11, 16, 13, 17, 12, 14)
        assert (i_set, j_set) == ((1, 3, 5), (2, 6, 7))

    def test_comments_and_blank_lines(self):
        text = "# header\n\n7 8 5 6\n# middle\n1 2\n\n3 4\n# trailing\n"
        seq, i_set, j_set = parse_instance(text)
        assert seq.raw == (7, 8, 5, 6) and i_set == (1, 2)

    def test_bad_integer_position(self):
        with pytest.raises(ParseError) as info:
            parse_instance("7 8 x 6\n1 2\n3 4\n")
        assert (info.value.line, info.value.column) == (1, 5)

    @pytest.mark.parametrize(
        "text, where, token",
        [
            ("7 8 5 6\n1_0 2\n3 4\n", (2, 1), "1_0"),
            ("7 8 5 6\n1 2\n3 +4\n", (3, 3), "+4"),
            ("7 8 5 6\n2 \u0661\n3 4\n", (2, 3), "\u0661"),
        ],
    )
    def test_strict_integer_tokens(self, text, where, token):
        # int() alone would read these as 10, 4 and 1.
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert (info.value.line, info.value.column) == where
        assert str(info.value).endswith(f"invalid integer {token!r}")

    def test_non_ascii_whitespace_separates(self):
        seq, i_set, j_set = parse_instance("7\xa08 5\u30006\n1 2\n3\xa04\n")
        assert seq.raw == (7, 8, 5, 6) and (i_set, j_set) == ((1, 2), (3, 4))

    @given(
        st.one_of(
            st.text("0123456789-+_ \t\xa0\u0661", max_size=20),
            st.text("0123456789-+_ \t", max_size=20),
            st.lists(
                st.one_of(
                    st.from_regex(r"-?[0-9]{1,3}", fullmatch=True),
                    st.text("0123456789-+_\u0661", min_size=1, max_size=3),
                )
                | st.text(" \t\xa0", min_size=1, max_size=2),
                max_size=12,
            ).map("".join),
            # Lines of `-` and digits with single spaces, most of which the
            # JSON decoder reads; an empty token makes a doubled or edge space.
            st.lists(
                st.from_regex(r"-?[0-9]{1,3}", fullmatch=True)
                | st.sampled_from(["", "-", "-0", "00", "01", "-007", "1-2", "--1"]),
                max_size=12,
            ).map(" ".join),
            st.lists(st.text("0123456789-", min_size=1, max_size=3), max_size=12).map(
                " ".join
            ),
        ),
        st.booleans(),
    )
    def test_tokens_match_reference_scan(self, line, distinct):
        def outcome(tokenize):
            try:
                return tokenize(3, line, distinct)
            except ParseError as exc:
                return str(exc), exc.line, exc.column

        assert outcome(_int_tokens) == outcome(bf.scan_int_tokens)

    def test_token_too_long_for_int_on_a_json_line(self):
        # The decoder refuses the 4301-digit token as `int` does, and the
        # scanner reports it, as the reference does.
        token = "1" * 4301
        for line in (f"7 {token} 6", f"7\t{token}\t6"):
            for tokenize in (_int_tokens, bf.scan_int_tokens):
                with pytest.raises(ParseError) as info:
                    tokenize(2, line)
                assert (info.value.line, info.value.column) == (2, 3)
                assert str(info.value) == f"line 2, column 3: invalid integer {token!r}"

    def test_long_line(self):
        rng = random.Random(10)
        line = " ".join(str(rng.randrange(-(10**12), 10**12)) for _ in range(10**5))
        assert _int_tokens(1, line) == list(map(int, line.split()))

    @pytest.mark.parametrize(
        "line, decoded",
        [
            ("7 8 -5 0", True),
            ("-0", True),
            ("7 8 05 6", False),
            ("7  8", False),
            (" 7 8", False),
            ("7 8 ", False),
            ("7\t8", False),
        ],
    )
    def test_json_tier_reads_single_spaced_lines(self, monkeypatch, line, decoded):
        decoded_lines = []
        loads = json.loads

        def counting_loads(text):
            value = loads(text)
            decoded_lines.append(text)
            return value

        monkeypatch.setattr(lisrc.cli.json, "loads", counting_loads)
        assert _int_tokens(1, line) == list(map(int, line.split()))
        assert bool(decoded_lines) == decoded

    @pytest.mark.parametrize(
        "text",
        [
            "7 8\f5 6\n1 2\n3 4\n",
            "7 8\v5 6\x1c\n1\x1d2\x1e\n3\x854\u2029\n",
            "# a note\u2028 7 8\n7 8 5 6\n1 2\n3 4\n",
            "7 8 5 6\r\n1 2\r\n3 4\r\n",
            "7 8 5 6\r1 2\r3 4",
        ],
        ids=["form-feed", "other-breaks", "comment-u2028", "crlf", "cr"],
    )
    def test_lines_break_at_newlines_only(self, text):
        # Other characters that `str.splitlines` breaks at are whitespace
        # inside a data line and text inside a comment.
        seq, i_set, j_set = parse_instance(text)
        assert seq.raw == (7, 8, 5, 6) and (i_set, j_set) == ((1, 2), (3, 4))

    @pytest.mark.parametrize(
        "text, where",
        [
            ("7 8\f5 6\n1 2\nx 4\n", (3, 1)),
            ("# \u2028\f\n7 8 5 6\n1 2\n3 x\n", (4, 3)),
            ("7 8 5 6\r\n\r\n1 2\r\n3 x\r\n", (4, 3)),
            ("7 8 5 6\r1 x\r3 4\r", (2, 3)),
            ("7 8 5 6\f\n1 2\f\n", (3, 1)),
            ("7 8 5 6\r\n1 2\r\n", (3, 1)),
            ("7 8 5 6\n1 2\n3 4\r\r5\n", (5, 1)),
        ],
    )
    def test_line_numbers(self, text, where):
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert (info.value.line, info.value.column) == where

    def test_missing_lines(self):
        with pytest.raises(ParseError):
            parse_instance("7 8 5 6\n1 2\n")

    def test_extra_line(self):
        with pytest.raises(ParseError) as info:
            parse_instance("7 8 5 6\n1 2\n3 4\n1\n")
        assert info.value.line == 4

    def test_duplicate_value(self):
        with pytest.raises(DuplicateValue):
            parse_instance("7 7 5 6\n1 2\n3 4\n")

    def test_duplicate_index(self):
        with pytest.raises(ParseError) as info:
            parse_instance("7 8 5 6\n1 1\n3 4\n")
        assert (info.value.line, info.value.column) == (2, 3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_instance("7 8 5 6\n1 5\n3 4\n")

    def test_infeasible_with_pair(self):
        with pytest.raises(Infeasible) as info:
            parse_instance("7 8 5 6\n1 3\n3 4\n")
        assert info.value.pair == (1, 3)

    def test_sequence_only(self):
        seq, i_set, j_set = read_instance("7 8 5 6\n", require_sets=False)
        assert seq.raw == (7, 8, 5, 6) and i_set is None and j_set is None

    def test_round_trip(self):
        seq = normalize((7, 8, 5, 6))
        text = format_instance(seq, (1, 2), (3, 4), comment="example")
        parsed = parse_instance(text)
        assert parsed == (seq, (1, 2), (3, 4))


class TestGenerate:
    def test_single_element(self):
        seq, i_set, j_set = parse_instance(generate(1, seed=0))
        assert seq.raw == (1,) and i_set == j_set == (1,)

    def test_deterministic(self):
        assert generate(4, seed=9) == generate(4, seed=9)
        assert generate(9, seed=1) != generate(9, seed=2)

    def test_sets_are_maximum_feasible(self):
        for seed in range(20):
            seq, i_set, j_set = parse_instance(generate(8, seed=seed))
            assert bf.is_maximum_feasible(seq.raw, i_set)
            assert bf.is_maximum_feasible(seq.raw, j_set)

    def test_large_n_uses_chain_sampling(self):
        # Past the oracle's bound, where no enumeration of the sets runs:
        # both draws walk the chain counts down the piles.
        seq, i_set, j_set = parse_instance(generate(40, seed=3))
        assert bf.is_maximum_feasible(seq.raw, i_set)
        assert bf.is_maximum_feasible(seq.raw, j_set)

    def test_bipartite_flag(self):
        for seed in range(10):
            seq, _, _ = parse_instance(generate(7, seed=seed, bipartite=True))
            assert isinstance(two_coloring(seq), Bipartition)

    @pytest.mark.parametrize("n", [14, 16, 100_000])
    def test_bipartite_at_any_n(self, capsys, n):
        argv = ["gen", "-n", str(n), "--seed", "1", "--bipartite"]
        assert run(argv) == 0
        first = capsys.readouterr()
        assert first.err == ""
        assert run(argv) == 0
        assert capsys.readouterr().out == first.out
        seq, i_set, j_set = parse_instance(first.out)
        assert seq.n == n and decreasing_triple(seq) is None
        assert bf.is_maximum_feasible(seq.raw, i_set)
        assert bf.is_maximum_feasible(seq.raw, j_set)

    def test_plain_output_is_pinned(self, capsys):
        # Seeded instances stay byte for byte, I and J included.
        assert run(["gen", "-n", "6", "--seed", "4"]) == 0
        assert run(["gen", "-n", "20", "--seed", "1"]) == 0
        assert capsys.readouterr().out == (
            "# lisrc gen n=6 seed=4\n"
            "4 6 5 1 3 2\n"
            "4 6\n"
            "1 2\n"
            "# lisrc gen n=20 seed=1\n"
            "12 6 18 20 10 1 17 2 16 7 11 14 15 13 8 4 9 3 19 5\n"
            "6 8 10 11 12 13 19\n"
            "6 8 10 11 12 13 19\n"
        )

    @pytest.mark.parametrize("seed", [2, 4])
    def test_environment_does_not_change_output(self, capsys, monkeypatch, seed):
        # A seeded instance depends on its flags alone, not on the
        # variable that once set the oracle's bound.
        argv = ["gen", "-n", "12", "--seed", str(seed)]
        assert run(argv) == 0
        plain = capsys.readouterr()
        monkeypatch.setenv("LISRC_ORACLE_BOUND", "5")
        assert run(argv) == 0
        assert capsys.readouterr() == plain


class TestRun:
    def test_decide_no(self, capsys):
        assert run(["decide", K22_FILE]) == 0
        assert capsys.readouterr().out == "NO\n"

    def test_decide_exit_status(self, capsys):
        assert run(["decide", "--exit-status", K22_FILE]) == 1
        assert run(["decide", "--exit-status", DETOUR_FILE]) == 0

    def test_decide_json(self, capsys):
        assert run(["decide", "--json", DETOUR_FILE]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "answer": "yes",
            "minimal_I": [1, 3, 5],
            "minimal_J": [1, 3, 5],
        }

    def test_witness_walk(self, capsys):
        assert run(["witness", DETOUR_FILE]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "YES" and out[1] == "length 4"
        assert out[2] == "{1,3,5}" and out[-1].endswith("{2,6,7}")

    def test_witness_no(self, capsys):
        assert run(["witness", "--exit-status", K22_FILE]) == 1
        assert capsys.readouterr().out == "NO\n"

    def test_shortest_yes(self, capsys):
        assert run(["shortest", BIP_FILE]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["YES", "length 2", "{1,3}", "swap 3 -> 4: {1,4}", "swap 1 -> 2: {2,4}"]

    def test_json_does_not_replay_the_walk(self, capsys, monkeypatch):
        # --json prints the steps only; the intermediate sets are text output.
        cases = [("witness", DETOUR_FILE), ("witness", BIP_FILE), ("shortest", BIP_FILE)]
        expected = []
        for command, path in cases:
            assert run([command, "--json", path]) == 0
            expected.append(capsys.readouterr().out)

        def replay(self):
            raise AssertionError("--json replayed the walk")

        monkeypatch.setattr(ReconfSequence, "sets", replay)
        for (command, path), out in zip(cases, expected):
            assert run([command, "--json", path]) == 0
            assert capsys.readouterr().out == out
            assert json.loads(out)["length"] > 0

    @pytest.fixture
    def validations(self, monkeypatch):
        """The sets passed to `require_feasible`, by the CLI and `reconfig`."""
        calls = []

        def counting(seq, s):
            calls.append(s)
            return lisrc.seqcore.require_feasible(seq, s)

        monkeypatch.setattr(lisrc.cli, "require_feasible", counting)
        monkeypatch.setattr(lisrc.reconfig, "require_feasible", counting)
        return calls

    @pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("answer", ["yes", "no"])
    @pytest.mark.parametrize(
        "command",
        [
            ["decide"],
            ["witness"],
            ["shortest"],
            ["oracle"],
            ["oracle", "--general"],
            ["oracle", "--shortest"],
            ["oracle", "--shortest", "--general"],
        ],
        ids=" ".join,
    )
    def test_query_validates_each_set_once(
        self, command, answer, output, capsys, validations
    ):
        # The CLI reads the sets and the query's `require_pair` checks them.
        # Reading the representatives under --json descends from end points
        # the query computed itself, and `shortest` maps the checked sets to
        # mixed piles on NO: neither validates anything again.
        yes_file = BIP_FILE if command == ["shortest"] else DETOUR_FILE
        path = yes_file if answer == "yes" else K22_FILE
        status = run([*command, *output, "--exit-status", path])
        capsys.readouterr()
        assert status == (0 if answer == "yes" else 1)
        assert len(validations) == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["oracle", "--enumerate"],
            ["oracle", "--enumerate", "--general"],
        ],
        ids=" ".join,
    )
    @pytest.mark.parametrize("path", [DETOUR_FILE, K22_FILE], ids=["detour", "k22"])
    def test_listing_validates_each_set_once(self, command, path, capsys, validations):
        # These use the sets as parsed, so `parse_instance` checks them.
        assert run([*command, path]) == 0
        capsys.readouterr()
        assert len(validations) == 2

    @pytest.mark.parametrize("i_line", ["1 3", "9 1"], ids=["infeasible", "out-of-range"])
    @pytest.mark.parametrize(
        "command",
        [
            ["decide"],
            ["witness"],
            ["shortest"],
            ["check"],
            ["piles"],
            ["oracle"],
            ["oracle", "--shortest"],
            ["oracle", "--enumerate"],
        ],
        ids=" ".join,
    )
    def test_syntax_error_in_j_comes_before_a_bad_i(
        self, command, i_line, tmp_path, capsys
    ):
        # Both set lines are read before either set is validated.
        path = tmp_path / "bad.txt"
        path.write_text(f"7 8 5 6\n{i_line}\n3 x\n")
        assert run([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3, column 3: invalid integer 'x'\n"

    @pytest.mark.parametrize(
        "mode, sets_first",
        [
            pytest.param([], False, id="decide"),
            pytest.param(["--general"], False, id="--general"),
            pytest.param(["--shortest"], False, id="--shortest"),
            pytest.param(["--shortest", "--general"], False, id="--shortest --general"),
            pytest.param(["--enumerate"], True, id="--enumerate"),
        ],
    )
    def test_oracle_query_checks_the_bound_before_the_sets(
        self, mode, sets_first, tmp_path, capsys
    ):
        # The queries keep `oracle_shortest`'s own order: the bound, then
        # the sets.  The listings validate the sets while parsing.
        path = tmp_path / "bad.txt"
        path.write_text("7 8 5 6\n1 3\n3 4\n")
        infeasible = (
            "error: index set not increasing: positions 1 < 3 but values 7 > 5\n"
        )
        too_large = (
            "error: sequence length 4 exceeds exhaustive bound 3 "
            "(raise the bound to override)\n"
        )
        assert run(["oracle", *mode, "--max-oracle-n", "3", str(path)]) == 2
        assert capsys.readouterr().err == (infeasible if sets_first else too_large)

    @pytest.mark.parametrize(
        "path, continuations", [(DETOUR_FILE, 1), (K22_FILE, 2)], ids=["yes", "no"]
    )
    def test_text_never_descends_to_the_representatives(
        self, path, continuations, capsys, monkeypatch
    ):
        # The two clamped descents answer; only --json prints minimal_I and
        # minimal_J, whose descent runs once on YES and once per side on NO.
        calls = []
        descend = lisrc.reconfig._descend

        def counting(*args):
            calls.append(args)
            return descend(*args)

        monkeypatch.setattr(lisrc.reconfig, "_descend", counting)
        for command in ("decide", "witness"):
            for flags, expected in [([], 2), (["--json"], 2 + continuations)]:
                calls.clear()
                assert run([command, *flags, path]) == 0
                capsys.readouterr()
                assert len(calls) == expected, (command, flags)

    @pytest.mark.parametrize(
        "argv", [["decide", "--json"], ["witness"], ["shortest"]], ids=lambda a: a[0]
    )
    def test_optimized_interpreter_prints_the_same(self, argv, capsys):
        # `python -O` drops the membership asserts in `reconfig._placed`,
        # so no output may depend on them.
        for path in sorted(DATA.glob("*.txt")):
            status = run([*argv, str(path)])
            expected = capsys.readouterr().out
            done = subprocess.run(
                [sys.executable, "-O", "-m", "lisrc.cli", *argv, str(path)],
                capture_output=True,
                env=LISRC_ENV,
                timeout=60,
            )
            assert (done.returncode, done.stdout.decode()) == (status, expected), path

    def test_shortest_reports_forbidden_pair(self, capsys):
        assert run(["shortest", K22_FILE]) == 0
        out = capsys.readouterr().out
        assert out.startswith("NO\n") and "forbidden pair" in out

    def test_shortest_json_no(self, capsys):
        assert run(["shortest", "--json", K22_FILE]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == "no"
        assert payload["forbidden_pair"][0] == {"pile": 1, "i_elem": 1, "j_elem": 3}

    def test_shortest_not_bipartite_is_an_error(self, capsys):
        assert run(["shortest", DETOUR_FILE]) == 2
        err = capsys.readouterr().err
        assert "not bipartite" in err and "odd cycle 1 4 6" in err

    def test_shortest_error_is_the_tall_pile_message(self, capsys):
        assert run(["shortest", DETOUR_FILE]) == 2
        out, err = capsys.readouterr()
        seq, i_set, j_set = parse_instance(Path(DETOUR_FILE).read_text())
        with pytest.raises(TallPile) as info:
            shortest_sequence(seq, i_set, j_set)
        assert isinstance(info.value, LisrcError)
        assert out == "" and err == f"error: {info.value}\n"

    def test_shortest_on_short_piles_with_a_triangle(self, capsys):
        # Piles of two entries each, though 6 5 3 is a decreasing triple:
        # the walk has |I \ J| = 2 swaps, the oracle's distance.
        assert run(["shortest", SHORT_PILES_FILE]) == 0
        assert capsys.readouterr().out == (
            "YES\nlength 2\n{1,3,4}\nswap 4 -> 5: {1,3,5}\nswap 1 -> 2: {2,3,5}\n"
        )
        assert run(["shortest", "--json", SHORT_PILES_FILE]) == 0
        assert capsys.readouterr().out == (
            '{"answer": "yes", "steps": [{"remove": 4, "add": 5}, '
            '{"remove": 1, "add": 2}], "length": 2}\n'
        )
        assert run(["oracle", "--shortest", SHORT_PILES_FILE]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "2"

    def test_piles_output(self, capsys):
        assert run(["piles", K22_FILE]) == 0
        assert capsys.readouterr().out == "P0: 0(0)\nP1: 1(7) 3(5)\nP2: 2(8) 4(6)\n"

    @pytest.mark.parametrize(
        "text, line",
        [("", 1), ("# only a comment\n\n  \n# and another\n", 5)],
        ids=["empty", "comments"],
    )
    def test_piles_needs_a_sequence_line(self, text, line, tmp_path, capsys):
        path = tmp_path / "no_data.txt"
        path.write_text(text)
        assert run(["piles", str(path)]) == 2
        err = f"error: line {line}, column 1: expected a sequence line\n"
        assert capsys.readouterr() == ("", err)

    def test_piles_of_a_lone_sequence(self, tmp_path, capsys):
        path = tmp_path / "sequence.txt"
        path.write_text("7 8 5 6\n")
        assert run(["piles", str(path)]) == 0
        assert capsys.readouterr() == ("P0: 0(0)\nP1: 1(7) 3(5)\nP2: 2(8) 4(6)\n", "")

    @pytest.mark.parametrize(
        "sets, err",
        [
            (
                "1 3\n3 4\n",
                "index set not increasing: positions 1 < 3 but values 7 > 5",
            ),
            ("1 2\n3 9\n", "index 9 out of range 1..4"),
        ],
        ids=["infeasible-i", "out-of-range-j"],
    )
    def test_piles_checks_the_sets_it_is_given(self, sets, err, tmp_path, capsys):
        # The sets may be left out, but sets that are there must be valid.
        path = tmp_path / "piles.txt"
        path.write_text("7 8 5 6\n" + sets)
        assert run(["piles", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_oracle_decide_default(self, capsys):
        assert run(["oracle", K22_FILE]) == 0
        assert capsys.readouterr().out == "NO\n"

    def test_oracle_shortest_prints_length(self, capsys):
        assert run(["oracle", "--shortest", DETOUR_FILE]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "4"
        assert out[1] == "{1,3,5}" and out[-1] == "{2,6,7}"

    def test_oracle_enumerate(self, capsys):
        assert run(["oracle", "--enumerate", K22_FILE]) == 0
        assert capsys.readouterr().out == "{1,2}\n{3,4}\n"

    def test_oracle_general_flag(self, tmp_path, capsys):
        path = tmp_path / "gen.txt"
        path.write_text("7 8 5 6\n1\n3\n")
        assert run(["oracle", str(path)]) == 2  # not maximum
        capsys.readouterr()
        assert run(["oracle", "--general", str(path)]) == 0
        assert capsys.readouterr().out == "YES\n"

    def test_check_output(self, capsys):
        assert run(["check", DETOUR_FILE]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n 7" and out[1] == "lis_length 3" and out[-1] == "OK"

    def test_gen_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "inst.txt"
        assert run(["gen", "-n", "6", "--seed", "4", "-o", str(out_file)]) == 0
        seq, i_set, j_set = parse_instance(out_file.read_text())
        assert seq.n == 6
        assert bf.is_maximum_feasible(seq.raw, i_set)
        assert bf.is_maximum_feasible(seq.raw, j_set)
        assert run(["gen", "-n", "6", "--seed", "4"]) == 0
        assert capsys.readouterr().out == out_file.read_text()

    def test_error_status_and_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("7 8 x\n1\n2\n")
        assert run(["decide", str(bad)]) == 2
        assert "line 1, column 5" in capsys.readouterr().err

    def test_closed_stdout_is_quiet(self, tmp_path):
        # `lisrc witness big.txt | head -1`: about 4.5 MB of walk, read one line.
        n = 2000
        values = [v for p in range(1, n, 2) for v in (p + 1, p)]
        path = tmp_path / "pairs.txt"
        path.write_text(
            format_instance(normalize(values), range(1, n, 2), range(2, n + 1, 2))
        )
        proc = subprocess.Popen(
            [*LISRC, "witness", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=LISRC_ENV,
        )
        assert proc.stdout.readline() == b"YES\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (2, b"")

    def test_unbuffered_help_into_a_pipe_nobody_reads(self):
        # The help's one write fails inside argparse, which ignores it.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [*LISRC, "--help"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**LISRC_ENV, "PYTHONUNBUFFERED": "1"},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, b"")

    def test_stdout_closed_before_start(self):
        # A short answer into a pipe nobody reads fails at the final flush.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [*LISRC, "decide", K22_FILE],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=LISRC_ENV,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, b"")

    @staticmethod
    def run_closed(redirect, *argv, cwd=None):
        """Run lisrc with a descriptor closed the way the shell's `>&-` does."""
        return subprocess.run(
            ["bash", "-c", f'exec "$@" {redirect}', "-", *LISRC, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=LISRC_ENV,
            cwd=cwd,
            timeout=60,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", "--exit-status", SHORT_PILES_FILE],
            ["witness", DETOUR_FILE],
            ["piles", K22_FILE],
            ["--help"],
            ["decide", "--help"],
        ],
        ids=["decide-yes", "witness", "piles", "help", "decide-help"],
    )
    def test_stdout_closed_at_start(self, argv):
        # Python starts with `sys.stdout` None; a YES must not read as NO,
        # and argparse must not print the help on stderr instead.
        done = self.run_closed(">&-", *argv)
        assert (done.returncode, done.stderr) == (2, b"")

    def test_gen_to_file_with_stdout_closed(self, tmp_path):
        argv = ["gen", "-n", "5", "--seed", "3", "-o", "out.txt"]
        done = self.run_closed(">&-", *argv, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, b"")
        assert (tmp_path / "out.txt").read_text() == generate(5, 3)

    def test_error_with_stderr_closed(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n9\n1\n")
        done = self.run_closed("2>&-", "decide", "--exit-status", str(bad))
        assert (done.returncode, done.stdout) == (2, b"")

    def test_missing_file(self, capsys):
        assert run(["decide", "no-such-file.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"\xff\xfe 1 2\n", "line 1, column 1"),
            (b"7 8 5 6\n1 \xe9\n3 4\n", "line 2, column 3"),
            (b"# caf\xc3\xa9\xff\n7 8 5 6\n1 2\n3 4\n", "line 1, column 7"),
            (b"7 8 5 6\r\n1 2\r\n3 \xc3", "line 3, column 3"),
            (b"7 8\f5 6\n1 \xe9\n3 4\n", "line 2, column 3"),
            (b"# \xe2\x80\xa8 \x0b\n7 8 5 6\r1 2\r3 \xff", "line 4, column 3"),
        ],
    )
    def test_file_not_utf8(self, tmp_path, capsys, data, where):
        path = tmp_path / "bytes.txt"
        path.write_bytes(data)
        assert run(["decide", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {where}: not UTF-8: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["decide"], ["decide", "--json"], ["witness"], ["witness", "--json"],
         ["oracle", "--shortest"], ["shortest"], ["check"]],
    )
    def test_byte_order_mark(self, tmp_path, capsys, argv):
        # An editor's UTF-8 byte-order mark is not part of the first token.
        plain = Path(DETOUR_FILE).read_bytes()
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + plain)
        status = run([*argv, DETOUR_FILE])
        expected = capsys.readouterr()
        assert run([*argv, str(path)]) == status
        assert capsys.readouterr() == expected

    def test_byte_order_mark_then_bad_byte(self, tmp_path, capsys):
        # Columns count from after the mark, as parse_instance counts them.
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf7 8\xff\n")
        assert run(["decide", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: line 1, column 4: not UTF-8: invalid start byte 0xff"
        )

    def test_witness_of_a_set_to_itself(self, tmp_path, capsys):
        # I = J: the walk turns at I∧J = I, so it has no step.
        path = tmp_path / "same.txt"
        path.write_text("2 1\n2\n2\n")
        assert run(["witness", str(path)]) == 0
        assert capsys.readouterr().out == "YES\nlength 0\n{2}\n"

    def test_decide_requires_maximum_sets(self, tmp_path, capsys):
        path = tmp_path / "small.txt"
        path.write_text("7 8 5 6\n1\n3\n")
        assert run(["decide", str(path)]) == 2
        assert "maximum" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        assert run([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["graph"], ["oracle", "--dot"], ["oracle", "--dot", "--json"]],
        ids=" ".join,
    )
    def test_graph_output_is_gone(self, capsys, argv):
        # Neither the permutation graph nor the swap graph is printed.
        assert run([*argv, K22_FILE]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: lisrc")

    def test_help_goes_to_stdout(self, capsys):
        assert run(["--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: lisrc") and err == ""

    def test_oracle_bound_env(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "wide.txt"
        values = " ".join(str(v) for v in range(1, 18))
        full = " ".join(str(i) for i in range(1, 18))
        path.write_text(f"{values}\n{full}\n{full}\n")
        too_large = (
            "error: sequence length 17 exceeds exhaustive bound 16 "
            "(raise the bound to override)\n"
        )
        assert run(["oracle", str(path)]) == 2
        assert capsys.readouterr() == ("", too_large)
        # Only the flag sets the bound; the environment does not.
        monkeypatch.setenv("LISRC_ORACLE_BOUND", "20")
        assert run(["oracle", str(path)]) == 2
        assert capsys.readouterr() == ("", too_large)
        assert run(["oracle", "--max-oracle-n", "20", str(path)]) == 0
        assert capsys.readouterr().out == "YES\n"

    def test_negative_oracle_bound_flag(self, capsys):
        assert run(["oracle", "--max-oracle-n", "-5", K22_FILE]) == 2
        assert "--max-oracle-n: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1_6", "+3", "١٦", " 1", "1 ", ""])
    @pytest.mark.parametrize("flag", ["-n", "--seed", "--max-oracle-n"])
    def test_strict_integer_flags(self, capsys, flag, text):
        # int() alone would read the first five as 16, 3, 16, 1 and 1.
        argv = {
            "-n": ["gen", "--seed", "1", flag, text],
            "--seed": ["gen", "-n", "3", flag, text],
            "--max-oracle-n": ["oracle", flag, text, K22_FILE],
        }[flag]
        assert run(argv) == 2
        assert f"argument {flag}: invalid integer {text!r}" in capsys.readouterr().err

    def test_strict_integers_still_accepted(self, capsys):
        assert run(["gen", "-n", "3", "--seed", "-2"]) == 0
        assert capsys.readouterr().out.startswith("# lisrc gen n=3 seed=-2\n")
        assert run(["gen", "-n", "03", "--seed", "010"]) == 0
        assert capsys.readouterr().out.startswith("# lisrc gen n=3 seed=10\n")
        assert run(["oracle", "--max-oracle-n", "16", K22_FILE]) == 0
        assert capsys.readouterr().out == "NO\n"
        assert run(["oracle", "--max-oracle-n", "04", K22_FILE]) == 0
        assert capsys.readouterr().out == "NO\n"
        # 0 is a bound, if one that no instance is within.
        assert run(["oracle", "--max-oracle-n", "0", K22_FILE]) == 2
        assert capsys.readouterr() == (
            "",
            "error: sequence length 4 exceeds exhaustive bound 0 "
            "(raise the bound to override)\n",
        )

    def test_json_deterministic(self, capsys):
        assert run(["decide", "--json", K22_FILE]) == 0
        first = capsys.readouterr().out
        assert run(["decide", "--json", K22_FILE]) == 0
        assert capsys.readouterr().out == first

    def test_decide_agrees_with_oracle_on_generated_instances(
        self, tmp_path, capsys
    ):
        for seed in range(40):
            path = tmp_path / f"i{seed}.txt"
            path.write_text(generate(4 + seed % 7, seed=seed))
            assert run(["decide", "--json", str(path)]) == 0
            fast = json.loads(capsys.readouterr().out)["answer"]
            assert run(["oracle", "--json", str(path)]) == 0
            slow = json.loads(capsys.readouterr().out)["answer"]
            assert fast == slow


def write_pairs(path, n):
    """The bipartite `2 1 4 3 ...` instance, I the odd and J the even positions."""
    values = [v for p in range(1, n, 2) for v in (p + 1, p)]
    path.write_text(
        format_instance(normalize(values), range(1, n, 2), range(2, n + 1, 2))
    )
    return path


class TestFlagMatrix:
    """Each flag is accepted by exactly the subcommands that read it."""

    ON_FILES = ["decide", "witness", "shortest", "piles", "check", "oracle"]
    OPERANDS = {**dict.fromkeys(ON_FILES, [K22_FILE]), "gen": ["-n", "5"]}
    READ_BY = {
        "--json": set(ON_FILES),
        "--exit-status": {"decide", "witness", "shortest", "oracle"},
        "--max-oracle-n": {"oracle"},
        "--decide": set(),
    }
    CASES = [
        (command, flag)
        for command in OPERANDS
        for flag in (["--json"], ["--exit-status"], ["--max-oracle-n", "16"])
    ] + [("oracle", ["--decide"])]

    @pytest.mark.parametrize(
        "command, flag", CASES, ids=lambda x: " ".join(x) if isinstance(x, list) else x
    )
    def test_flag_runs_only_where_read(self, capsys, command, flag):
        operands = self.OPERANDS[command]
        status = run([command, *flag, *operands])
        out, err = capsys.readouterr()
        if command not in self.READ_BY[flag[0]]:
            assert (status, out) == (2, "")
            assert "unrecognized arguments" in err
            return
        assert err == ""
        if flag[0] == "--json":
            assert status == 0 and json.loads(out)
            return
        plain_status = run([command, *operands])
        assert capsys.readouterr().out == out
        # k22 is a NO instance.
        assert status == (1 if flag[0] == "--exit-status" else plain_status)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--enumerate", "--exit-status"],
                "oracle --enumerate has no YES or NO: drop --exit-status",
            ),
        ],
        ids=["--enumerate --exit-status"],
    )
    def test_oracle_listing_rejects_unread_flag(self, capsys, flags, message):
        # The parser accepts each flag alone; the listing cannot read it,
        # so the pair is an error rather than silently ignored.
        assert run(["oracle", *flags, K22_FILE]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestParserReuse:
    """One parser serves every `run` of a process, as if each were fresh."""

    SEQUENCES = {
        "witness_json_then_text": [
            ["witness", "--json", DETOUR_FILE],
            ["witness", DETOUR_FILE],
        ],
        "oracle_modes": [
            ["oracle", "--general", "--shortest", DETOUR_FILE],
            ["oracle", DETOUR_FILE],
        ],
        "gen_bipartite_then_plain": [
            ["gen", "-n", "8", "--seed", "3", "--bipartite"],
            ["gen", "-n", "8", "--seed", "3"],
        ],
        "bad_bound_twice": [
            ["oracle", "--max-oracle-n", "-1", K22_FILE],
            ["oracle", "--max-oracle-n", "-1", K22_FILE],
        ],
        "exit_status_then_none": [
            ["decide", "--exit-status", K22_FILE],
            ["decide", K22_FILE],
        ],
    }

    @staticmethod
    def outcome(capsys, argv):
        status = run(argv)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_reused_parser_answers_like_a_fresh_one(self, capsys, name):
        argvs = self.SEQUENCES[name]
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        parser = build_parser()
        # Twice through the sequence, so every call after the first finds
        # the parser already used.
        for _ in range(2):
            assert [self.outcome(capsys, argv) for argv in argvs] == fresh
        assert build_parser() is parser

    def test_bad_bound_usage_repeats(self, capsys):
        first = self.outcome(capsys, ["oracle", "--max-oracle-n", "-1", K22_FILE])
        second = self.outcome(capsys, ["oracle", "--max-oracle-n", "-1", K22_FILE])
        assert first == second
        assert first[0] == 2 and first[2].startswith("usage: lisrc oracle")
        assert "--max-oracle-n: must be >= 0" in first[2]


class TestStepsJson:
    """The `--json` step list is built on the JSON path only."""

    CASES = {
        "witness": ["witness", DETOUR_FILE],
        "shortest": ["shortest", BIP_FILE],
        "oracle_shortest": ["oracle", "--shortest", DETOUR_FILE],
    }

    @pytest.mark.parametrize("name", CASES)
    def test_text_path_skips_it(self, capsys, monkeypatch, name):
        expected = (run(self.CASES[name]), capsys.readouterr().out)

        def refuse(rs):
            raise AssertionError("step list built on the text path")

        monkeypatch.setattr(lisrc.cli, "_steps_json", refuse)
        assert (run(self.CASES[name]), capsys.readouterr().out) == expected

    @pytest.mark.parametrize("name", CASES)
    def test_json_path_lists_every_step(self, capsys, name):
        argv = self.CASES[name]
        assert run([argv[0], "--json", *argv[1:]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["length"] == len(payload["steps"]) > 0
        assert set(payload["steps"][0]) == {"remove", "add"}


class CountingSink:
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


class TestWalkText:
    """The streamed text walks against the reference renderer."""

    @pytest.fixture
    def files(self, tmp_path):
        raw, grid = bf.staircase(5, 12, 2)
        rng = random.Random(5)
        stairs = tmp_path / "stairs.txt"
        stairs.write_text(
            format_instance(
                normalize(raw),
                bf.staircase_set(grid, 2, rng),
                bf.staircase_set(grid, 2, rng),
            )
        )
        general = tmp_path / "general.txt"
        general.write_text("15 11 16 13 17 12 14\n1 3\n6 7\n")
        return {
            "detour": DETOUR_FILE,
            "bip": BIP_FILE,
            "stairs": str(stairs),
            "pairs": str(write_pairs(tmp_path / "pairs.txt", 40)),
            "general": str(general),
        }

    @pytest.mark.parametrize(
        "command, name",
        [
            ("witness", "detour"),
            ("witness", "bip"),
            ("witness", "stairs"),
            ("witness", "pairs"),
            ("shortest", "bip"),
            ("shortest", "pairs"),
        ],
    )
    def test_walk_matches_reference(self, capsys, files, command, name):
        seq, i_set, j_set = parse_instance(Path(files[name]).read_text())
        walk = (
            reconfigure(seq, i_set, j_set).walk
            if command == "witness"
            else shortest_sequence(seq, i_set, j_set)
        )
        expected = ["YES", *bf.render_walk(walk)]
        assert run([command, files[name]]) == 0
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    @pytest.mark.parametrize(
        "flags, name",
        [([], "detour"), ([], "bip"), (["--general"], "general")],
    )
    def test_oracle_walk_matches_reference(self, capsys, files, flags, name):
        seq, i_set, j_set = parse_instance(Path(files[name]).read_text())
        rs = oracle_shortest(seq, i_set, j_set, maximum_only=not flags)
        expected = [str(len(rs)), *map(bf.fmt_set, bf.replay_sets(rs))]
        assert run(["oracle", "--shortest", *flags, files[name]]) == 0
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("crossing", [False, True], ids=["top-row", "crossing"])
    def test_walk_at_workload_scale(self, crossing, tmp_path, capsys, monkeypatch):
        # A 20-pile staircase of height 500 and J a random maximum set near
        # mid-height.  With I the top row, J lies below I on every pile and
        # only I's clamped half moves: a walk of thousands of swaps.  With
        # I's depths those of J in reverse order, I is near mid-height too
        # and each lies above the other on some pile (J's end piles are at
        # different depths), so both clamped halves move.
        raw, grid = bf.staircase(20, 500)
        rng = random.Random(20)
        depth = rng.randrange(230, 270)
        j_depths = []
        for _ in grid:
            j_depths.append(depth)
            depth += rng.choice((-1, 0, 1))
        i_depths = j_depths[::-1] if crossing else [len(row) - 1 for row in grid]
        pairs = list(zip(i_depths, j_depths))
        assert any(i > j for i, j in pairs)
        assert any(i < j for i, j in pairs) == crossing
        i_set = tuple(row[d] for row, d in zip(grid, i_depths))
        j_set = tuple(row[d] for row, d in zip(grid, j_depths))
        seq = normalize(raw)
        path = tmp_path / "stairs.txt"
        path.write_text(format_instance(seq, i_set, j_set))
        moves = []
        descend = lisrc.reconfig._descend

        def counting(*args):
            removed, added = descend(*args)
            moves.append(len(removed))
            return removed, added

        monkeypatch.setattr(lisrc.reconfig, "_descend", counting)
        rs = reconfigure(seq, i_set, j_set).walk
        assert moves[0] > 0 and (moves[1] > 0) == crossing
        assert len(rs) > (20 if crossing else 2000)
        assert run(["witness", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == "\n".join(["YES", *bf.render_walk(rs)]) + "\n"

        assert run(["witness", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        steps = payload["steps"]
        assert payload["length"] == len(steps) == len(rs)
        walk = SimpleNamespace(
            start=i_set,
            removed=[s["remove"] for s in steps],
            added=[s["add"] for s in steps],
        )
        *_, end = bf.replay_sets(walk)
        assert end == j_set

    def test_text_walk_is_streamed(self, tmp_path):
        # The witness of `2 1 4 3 ...` at n = 4000 is about 19 MB of text;
        # written as it is produced, it never sits in memory whole.
        path = write_pairs(tmp_path / "pairs.txt", 4000)
        sink = CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert run(["witness", str(path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size > 18_000_000
        assert peak < sink.size / 5, (peak, sink.size)


class TestEnumerateDeep:
    def test_one_set_of_3000_members(self, tmp_path, capsys):
        # I = J = all of 1 2 ... 3000: the only increasing 3000-set, found
        # through a prefix 3000 members long.
        n = 3000
        path = tmp_path / "identity.txt"
        everything = range(1, n + 1)
        path.write_text(format_instance(normalize(everything), everything, everything))
        argv = ["oracle", "--enumerate", "--max-oracle-n", "5000", str(path)]
        assert run([*argv[:2], "--json", *argv[2:]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["sets"] == [list(everything)]
        assert run(argv) == 0
        assert capsys.readouterr().out == bf.fmt_set(everything) + "\n"


SPACES = [" ", "  ", "\xa0", "\u3000", "\t", "\f"]


def spaced(tokens):
    """One line of the tokens, each after a separator drawn from SPACES."""
    return st.lists(
        st.sampled_from(SPACES), min_size=len(tokens), max_size=len(tokens)
    ).map(lambda spaces: "".join(map(str.__add__, spaces, tokens)))


class TestAnyText:
    """Whatever the instance text, `run` exits 0, 1 or 2 and raises nothing."""

    TOKENS = ["1", "2", "3", "4", "5", "6", "0", "-1", "07", "x", "+2", "1_0"]
    TOKENS += ["\u0661", "#", ""]
    LINES = st.lists(
        st.lists(st.sampled_from(TOKENS), max_size=6).flatmap(spaced), max_size=5
    )
    # The instance files and `gen` instances, spaced anew, so that some
    # texts reach the queries' YES and NO.
    INSTANCES = st.sampled_from(
        [path.read_text() for path in sorted(DATA.glob("*.txt"))]
    ) | st.builds(generate, st.integers(1, 8), st.integers(0, 99), st.booleans())
    TEXTS = (
        LINES
        | INSTANCES.map(str.splitlines).flatmap(
            lambda lines: st.tuples(*(spaced(line.split()) for line in lines))
        )
    ).map("\n".join)
    COMMANDS = [
        ["decide"],
        ["witness"],
        ["shortest"],
        ["piles"],
        ["check"],
        ["oracle"],
        ["oracle", "--general"],
        ["oracle", "--shortest"],
        ["oracle", "--shortest", "--general"],
        ["oracle", "--enumerate"],
    ]

    @settings(max_examples=400, deadline=None)
    @given(
        TEXTS,
        st.sampled_from(COMMANDS),
        st.sampled_from([[], ["--json"], ["--exit-status"]]),
    )
    def test_no_traceback(self, tmp_path_factory, text, command, flag):
        path = tmp_path_factory.getbasetemp() / "any_text.txt"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = run([*command, *flag, str(path)])
        assert status in (0, 1, 2)
        if status == 2:
            assert err.getvalue().startswith(("error: ", "usage: "))
        else:
            assert err.getvalue() == ""
