"""Exact bytes of every YES/NO query's output, text and `--json`.

One YES file (`bip.txt`) and one NO file (`k22.txt`) through `decide`,
`witness`, `shortest`, `oracle` and `oracle --shortest`, the oracle modes
with and without `--general`.  Each case pins stdout, an empty stderr and
the exit status, which is 0 unless `--exit-status` asks for 0 on YES and
1 on NO; stdout is the same either way.  Key order in the JSON is pinned
too: `oracle --shortest --json` puts `length` before `steps`, `witness
--json` puts `steps` before `length`.  `cross_slot.txt` pins `oracle
--shortest --general` on a walk whose step changes slot.

The descriptive subcommands (`piles`, `check` and `oracle --enumerate`)
answer no YES/NO question; each case pins stdout, an empty stderr and
exit 0 on the same two files.

At the scale of the `long_descent` benchmark, where brute force cannot
follow, `SCALE` pins `witness` and `decide --json` on four staircases by
line count and sha256.
"""
import hashlib
import random
from pathlib import Path

import pytest

from lisrc import normalize
from lisrc.cli import format_instance, run

import bruteforce as bf

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
    # One step of this walk between non-maximum sets drops 1 from slot 0
    # and puts 3 into slot 1.
    ("oracle --shortest --general", "cross_slot", "1\n{1,2}\n{2,3}\n", True),
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


SETS_BIP = "{1,3}\n{1,4}\n{2,3}\n{2,4}\n"
SETS_BIP_JSON = '{"count": 4, "sets": [[1, 3], [1, 4], [2, 3], [2, 4]]}\n'
SETS_K22 = "{1,2}\n{3,4}\n"
SETS_K22_JSON = '{"count": 2, "sets": [[1, 2], [3, 4]]}\n'

# (subcommand and flags, file, stdout)
DESCRIPTIVE = [
    ("piles", "bip", "P0: 0(0)\nP1: 1(2) 2(1)\nP2: 3(4) 4(3)\n"),
    (
        "piles --json",
        "bip",
        '{"k": 2, "piles": [[[0, 0]], [[1, 2], [2, 1]], [[3, 4], [4, 3]]]}\n',
    ),
    (
        "check",
        "bip",
        "n 4\nlis_length 2\nI {1,3} feasible maximum\n"
        "J {2,4} feasible maximum\nOK\n",
    ),
    (
        "check --json",
        "bip",
        '{"n": 4, "lis_length": 2, "I": [1, 3], "J": [2, 4], '
        '"I_maximum": true, "J_maximum": true}\n',
    ),
    ("oracle --enumerate", "bip", SETS_BIP),
    ("oracle --enumerate --json", "bip", SETS_BIP_JSON),
    ("oracle --enumerate --general", "bip", SETS_BIP),
    ("oracle --enumerate --general --json", "bip", SETS_BIP_JSON),
    ("piles", "k22", "P0: 0(0)\nP1: 1(7) 3(5)\nP2: 2(8) 4(6)\n"),
    (
        "piles --json",
        "k22",
        '{"k": 2, "piles": [[[0, 0]], [[1, 7], [3, 5]], [[2, 8], [4, 6]]]}\n',
    ),
    (
        "check",
        "k22",
        "n 4\nlis_length 2\nI {1,2} feasible maximum\n"
        "J {3,4} feasible maximum\nOK\n",
    ),
    (
        "check --json",
        "k22",
        '{"n": 4, "lis_length": 2, "I": [1, 2], "J": [3, 4], '
        '"I_maximum": true, "J_maximum": true}\n',
    ),
    ("oracle --enumerate", "k22", SETS_K22),
    ("oracle --enumerate --json", "k22", SETS_K22_JSON),
    ("oracle --enumerate --general", "k22", SETS_K22),
    ("oracle --enumerate --general --json", "k22", SETS_K22_JSON),
]


@pytest.mark.parametrize(
    "command, name, stdout", DESCRIPTIVE, ids=[f"{c}-{n}" for c, n, _ in DESCRIPTIVE]
)
def test_descriptive_bytes(capsys, command, name, stdout):
    status = run(command.split() + [str(DATA / f"{name}.txt")])
    assert capsys.readouterr() == (stdout, "")
    assert status == 0


# The `long_descent` scale: 20-pile staircases of height 500.  Each case
# pins `witness`'s line count and the sha256 of its stdout, and the sha256
# of `decide --json`'s stdout (the representatives, so the descents from
# I and J to the bottom row); all answer YES with an empty stderr.
# (name, witness lines, witness sha256, decide --json sha256)
SCALE = [
    (
        "reach-1",
        3034,
        "e2345c02eb7165076aeafcd33130d6278cf131b834ffd128f47fb52802910ef7",
        "aee69511ad767d85cfe4b7c0894d7d707a56db7017579a8637936bb8bfc2d64e",
    ),
    (
        "reach-2",
        1821,
        "87418256ce98157bb6c4cc07fc1c3e82499e85f2ddef4388a0aadc9d0e0b66c7",
        "19f971256e33e512f98942c74dfdd7fb1bd1e6a2b0ca9fb1f95827bd7066b821",
    ),
    (
        "reach-5",
        146,
        "aab5a10afb831b093486431e7e803e9caefa31a0e5bb2d0fcc929f08a68cfaca",
        "168a097722eb171e7b7d5b3a36b1e95b8cde24965f63f85c310d676ab2cfa5e5",
    ),
    (
        "crossing",
        41,
        "4517dd9a2dc45f7426e2c44c81d93dbec3ad66ca11a1517ef9da075d8fb17e68",
        "aee69511ad767d85cfe4b7c0894d7d707a56db7017579a8637936bb8bfc2d64e",
    ),
]


def staircase_instance(name: str) -> str:
    """The instance text of a `SCALE` case.

    For `reach-r`, I and J are two `bf.staircase_set` draws from
    `random.Random(r)` on `bf.staircase(20, 500, r)`.  The crossing pair
    is that of `test_cli.py`'s `test_walk_at_workload_scale`: J near
    mid-height and I its depths in reverse order, so each lies above the
    other on some pile and both clamped halves of the witness move.
    """
    if name.startswith("reach-"):
        reach = int(name.removeprefix("reach-"))
        raw, grid = bf.staircase(20, 500, reach)
        rng = random.Random(reach)
        i_set, j_set = (bf.staircase_set(grid, reach, rng) for _ in range(2))
        return format_instance(normalize(raw), i_set, j_set)
    raw, grid = bf.staircase(20, 500)
    rng = random.Random(20)
    depth = rng.randrange(230, 270)
    j_depths = []
    for _ in grid:
        j_depths.append(depth)
        depth += rng.choice((-1, 0, 1))
    i_set, j_set = (
        tuple(row[d] for row, d in zip(grid, depths))
        for depths in (j_depths[::-1], j_depths)
    )
    return format_instance(normalize(raw), i_set, j_set)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name, lines, witness, decide", SCALE, ids=[name for name, *_ in SCALE]
)
def test_scale_digests(tmp_path, capsys, name, lines, witness, decide):
    path = tmp_path / "stairs.txt"
    path.write_text(staircase_instance(name))
    assert run(["witness", str(path)]) == 0
    out, err = capsys.readouterr()
    assert (out.count("\n"), sha256(out), err) == (lines, witness, "")
    assert run(["decide", "--json", str(path)]) == 0
    out, err = capsys.readouterr()
    assert (sha256(out), err) == (decide, "")
