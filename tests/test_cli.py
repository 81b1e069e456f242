import json
from pathlib import Path

import pytest

from lisrc import (
    Bipartition,
    DuplicateValue,
    IndexOutOfRange,
    Infeasible,
    ParseError,
    ReconfSequence,
    build_graph,
    is_maximum_feasible,
    normalize,
    two_coloring,
)
from lisrc.cli import format_instance, generate, parse_instance, run

DATA = Path(__file__).parent / "data"
K22_FILE = str(DATA / "k22.txt")
DETOUR_FILE = str(DATA / "detour.txt")
BIP_FILE = str(DATA / "bip.txt")


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
        seq, i_set, j_set = parse_instance("7 8 5 6\n", require_sets=False)
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
            assert is_maximum_feasible(seq, i_set)
            assert is_maximum_feasible(seq, j_set)

    def test_bipartite_flag(self):
        for seed in range(10):
            seq, _, _ = parse_instance(generate(7, seed=seed, bipartite=True))
            assert isinstance(two_coloring(build_graph(seq)), Bipartition)

    def test_large_n_uses_chain_sampling(self):
        seq, i_set, j_set = parse_instance(generate(40, seed=3, bound=16))
        assert is_maximum_feasible(seq, i_set)
        assert is_maximum_feasible(seq, j_set)


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
        assert out == ["YES", "length 2", "{1,3}", "swap 1 -> 2: {2,3}", "swap 3 -> 4: {2,4}"]

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

    def test_piles_output(self, capsys):
        assert run(["piles", K22_FILE]) == 0
        assert capsys.readouterr().out == "P0: 0(0)\nP1: 1(7) 3(5)\nP2: 2(8) 4(6)\n"

    def test_graph_dot(self, capsys):
        assert run(["graph", K22_FILE]) == 0
        out = capsys.readouterr().out
        assert out == (
            "graph G {\n"
            '  1 [label="1 (7)"];\n'
            '  2 [label="2 (8)"];\n'
            '  3 [label="3 (5)"];\n'
            '  4 [label="4 (6)"];\n'
            "  1 -- 3;\n"
            "  1 -- 4;\n"
            "  2 -- 3;\n"
            "  2 -- 4;\n"
            "}\n"
        )

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

    def test_oracle_dot(self, capsys):
        assert run(["oracle", "--dot", K22_FILE]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph R {") and '[label="{1,2}"]' in out

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
        assert is_maximum_feasible(seq, i_set) and is_maximum_feasible(seq, j_set)
        assert run(["gen", "-n", "6", "--seed", "4"]) == 0
        assert capsys.readouterr().out == out_file.read_text()

    def test_error_status_and_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("7 8 x\n1\n2\n")
        assert run(["decide", str(bad)]) == 2
        assert "line 1, column 5" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["decide", "no-such-file.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_decide_requires_maximum_sets(self, tmp_path, capsys):
        path = tmp_path / "small.txt"
        path.write_text("7 8 5 6\n1\n3\n")
        assert run(["decide", str(path)]) == 2
        assert "maximum" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        assert run([]) == 2

    def test_oracle_bound_env(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "wide.txt"
        values = " ".join(str(v) for v in range(1, 18))
        full = " ".join(str(i) for i in range(1, 18))
        path.write_text(f"{values}\n{full}\n{full}\n")
        monkeypatch.setenv("LISRC_ORACLE_BOUND", "4")
        assert run(["oracle", str(path)]) == 2
        assert "exceeds" in capsys.readouterr().err
        # The flag wins over the environment.
        assert run(["oracle", "--max-oracle-n", "20", str(path)]) == 0
        assert capsys.readouterr().out == "YES\n"
        monkeypatch.delenv("LISRC_ORACLE_BOUND")
        assert run(["oracle", str(path)]) == 2

    def test_negative_oracle_bound_flag(self, capsys):
        assert run(["gen", "-n", "12", "--seed", "1", "--max-oracle-n", "-5"]) == 2
        assert "--max-oracle-n: must be >= 0" in capsys.readouterr().err
        assert run(["oracle", "--max-oracle-n", "-5", K22_FILE]) == 2
        assert "--max-oracle-n: must be >= 0" in capsys.readouterr().err

    def test_negative_oracle_bound_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LISRC_ORACLE_BOUND", "-5")
        assert run(["oracle", K22_FILE]) == 2
        assert "LISRC_ORACLE_BOUND must be >= 0, got -5" in capsys.readouterr().err
        assert run(["gen", "-n", "12", "--seed", "1"]) == 2
        assert "LISRC_ORACLE_BOUND must be >= 0" in capsys.readouterr().err

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
