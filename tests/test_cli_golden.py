"""Exact bytes of every YES/NO query's output, text and `--json`.

One YES file (`bip.txt`) and one NO file (`k22.txt`) through `decide`,
`witness`, `shortest`, `oracle` and `oracle --shortest`, the oracle modes
with and without `--general`.  Each case pins stdout, an empty stderr and
the exit status, which is 0 unless `--exit-status` asks for 0 on YES and
1 on NO; stdout is the same either way.  Key order in the JSON is pinned
too: `oracle --shortest --json` puts `length` before `steps`, `witness
--json` puts `steps` before `length`.
"""
from pathlib import Path

import pytest

from lisrc.cli import run

DATA = Path(__file__).parent / "data"

WALK_BIP = "{1,3}\nswap 3 -> 4: {1,4}\nswap 1 -> 2: {2,4}\n"
STEPS_BIP = '"steps": [{"remove": 3, "add": 4}, {"remove": 1, "add": 2}]'
ORACLE_STEPS_BIP = '"steps": [{"remove": 1, "add": 2}, {"remove": 3, "add": 4}]'
REPS_BIP = '"minimal_I": [1, 3], "minimal_J": [1, 3]'
REPS_K22 = '"minimal_I": [1, 2], "minimal_J": [3, 4]'
PAIR_K22 = (
    '"forbidden_pair": [{"pile": 1, "i_elem": 1, "j_elem": 3}, '
    '{"pile": 2, "i_elem": 2, "j_elem": 4}]'
)

# (subcommand and flags, file, stdout, YES?)
GOLDEN = [
    ("decide", "bip", "YES\n", True),
    ("decide --json", "bip", '{"answer": "yes", ' + REPS_BIP + "}\n", True),
    ("witness", "bip", "YES\nlength 2\n" + WALK_BIP, True),
    (
        "witness --json",
        "bip",
        '{"answer": "yes", ' + REPS_BIP + ", " + STEPS_BIP + ', "length": 2}\n',
        True,
    ),
    ("shortest", "bip", "YES\nlength 2\n" + WALK_BIP, True),
    ("shortest --json", "bip", '{"answer": "yes", ' + STEPS_BIP + ', "length": 2}\n', True),
    ("oracle", "bip", "YES\n", True),
    ("oracle --json", "bip", '{"answer": "yes"}\n', True),
    ("oracle --general", "bip", "YES\n", True),
    ("oracle --general --json", "bip", '{"answer": "yes"}\n', True),
    ("oracle --shortest", "bip", "2\n{1,3}\n{2,3}\n{2,4}\n", True),
    (
        "oracle --shortest --json",
        "bip",
        '{"answer": "yes", "length": 2, ' + ORACLE_STEPS_BIP + "}\n",
        True,
    ),
    ("oracle --shortest --general", "bip", "2\n{1,3}\n{2,3}\n{2,4}\n", True),
    (
        "oracle --shortest --general --json",
        "bip",
        '{"answer": "yes", "length": 2, ' + ORACLE_STEPS_BIP + "}\n",
        True,
    ),
    ("decide", "k22", "NO\n", False),
    ("decide --json", "k22", '{"answer": "no", ' + REPS_K22 + "}\n", False),
    ("witness", "k22", "NO\n", False),
    ("witness --json", "k22", '{"answer": "no", ' + REPS_K22 + "}\n", False),
    (
        "shortest",
        "k22",
        "NO\nforbidden pair: pile 1 (I 1, J 3) / pile 2 (I 2, J 4)\n",
        False,
    ),
    ("shortest --json", "k22", '{"answer": "no", ' + PAIR_K22 + "}\n", False),
    ("oracle", "k22", "NO\n", False),
    ("oracle --json", "k22", '{"answer": "no"}\n', False),
    ("oracle --general", "k22", "NO\n", False),
    ("oracle --general --json", "k22", '{"answer": "no"}\n', False),
    ("oracle --shortest", "k22", "NO\n", False),
    ("oracle --shortest --json", "k22", '{"answer": "no"}\n', False),
    ("oracle --shortest --general", "k22", "NO\n", False),
    ("oracle --shortest --general --json", "k22", '{"answer": "no"}\n', False),
]


@pytest.mark.parametrize("exit_status", [False, True], ids=["plain", "exit-status"])
@pytest.mark.parametrize(
    "command, name, stdout, yes", GOLDEN, ids=[f"{c}-{n}" for c, n, _, _ in GOLDEN]
)
def test_golden_bytes(capsys, command, name, stdout, yes, exit_status):
    argv = command.split() + (["--exit-status"] if exit_status else [])
    status = run(argv + [str(DATA / f"{name}.txt")])
    assert capsys.readouterr() == (stdout, "")
    assert status == (0 if yes or not exit_status else 1)
