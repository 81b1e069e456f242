"""Command-line interface: instance files, subcommands, text and JSON output.

Instance file format, three data lines::

    # comments and blank lines are ignored
    7 8 5 6     <- sequence values, space separated, all distinct
    1 2         <- index set I, 1-based
    3 4         <- index set J, 1-based

A value or index is an optional `-` followed by ASCII digits; any
whitespace separates them.  Lines end at `\\n`, `\\r\\n` or `\\r` only.
The file is read as UTF-8, and a leading byte-order mark is ignored.

Exit status is 0 on success and 2 on any error, running out of memory
and a stdout closed before start or left by its reader included (that
one without a message).  With --exit-status the yes/no subcommands
instead report YES as 0 and NO as 1.
"""
from __future__ import annotations

import argparse
import codecs
import functools
import json
import os
import random
import re
import sys
from bisect import bisect_left
from itertools import chain, islice
from typing import Iterable, Iterator

from . import bipartite as bp
from . import oracle as orc
from .errors import LisrcError, ParseError
from .piles import build_piles, random_max_sets
from .reconfig import ReconfSequence, reconfigure
from .seqcore import FeasibleSet, Sequence, normalize, require_feasible

# bench/spans.py wraps `minimal_set` in this namespace, so it stays
# importable from here although nothing in this module calls it.
from .reconfig import minimal_set  # noqa: F401

# The lines `_int_tokens` hands to the JSON decoder.
_JSON_LINE = re.compile(r"[0-9 -]*")


# ---------------------------------------------------------------------------
# Instance files


def parse_instance(text: str) -> tuple[Sequence, FeasibleSet, FeasibleSet]:
    """Read and validate an instance; see the module docstring for the format.

    `read_instance`, then `require_feasible` on each set, so each set is
    validated once: the CLI's query subcommands call `read_instance`
    alone and leave the check to the query.
    """
    seq, i_set, j_set = read_instance(text)
    return seq, require_feasible(seq, i_set), require_feasible(seq, j_set)


def read_instance(
    text: str, require_sets: bool = True
) -> tuple[Sequence, list[int] | None, list[int] | None]:
    """The sequence and the two index sets as read, not yet validated.

    Checks the syntax only: the data lines, their integer tokens, the
    sequence's distinct values (`normalize`) and each set's distinct
    indices, so both set lines are read before either set is checked.
    The sets come back as the lists of their tokens, in file order.
    """
    lines = _lines(text)
    data_lines: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_lines.append((lineno, line))
    if require_sets and len(data_lines) < 3:
        raise ParseError(
            len(lines) + 1,
            1,
            f"expected 3 data lines (sequence, I, J), found {len(data_lines)}",
        )
    if not data_lines:
        raise ParseError(len(lines) + 1, 1, "expected a sequence line")
    if len(data_lines) > 3 or (not require_sets and len(data_lines) == 2):
        lineno, _ = data_lines[3 if len(data_lines) > 3 else 1]
        raise ParseError(lineno, 1, "unexpected extra data line")

    seq = normalize(_int_tokens(*data_lines[0]))
    if len(data_lines) == 1:
        return seq, None, None
    i_set, j_set = (_int_tokens(*line, distinct=True) for line in data_lines[1:])
    return seq, i_set, j_set


def _lines(text: str) -> list[str]:
    """The lines of `text`, broken at `\\n`, `\\r\\n` and `\\r` only.

    `str.splitlines` also breaks at form feed, vertical tab, `\\x1c` to
    `\\x1e`, U+0085, U+2028 and U+2029, which inside a data line are
    whitespace that separates values and inside a comment are text.  Like
    `splitlines`, a final line break opens no further line.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _int_tokens(lineno: int, line: str, distinct: bool = False) -> list[int]:
    """The integers of one data line; with `distinct`, a repeat is a ParseError.

    A token is an optional `-` followed by ASCII digits, and tokens are
    separated by any whitespace.  A line of `-`, ASCII digits and single
    spaces between tokens, as `format_instance` writes, is one JSON array
    once its spaces become commas, and the JSON decoder reads it in one C
    call.  JSON's integer grammar `-?(0|[1-9][0-9]*)` is a subset of ours
    and gives the same int for each token it accepts.  All it rejects
    (leading zeros, a lone `-`, `1-2`, doubled or edge spaces, over 4300
    digits) raises ValueError, and such a line, a line with other
    whitespace, or a line with a repeat under `distinct` is scanned token
    by token, to read it or report the first bad token or repeat by
    column.
    """
    if _JSON_LINE.fullmatch(line):
        try:
            values = json.loads("[" + line.replace(" ", ",") + "]")
        except ValueError:
            pass
        else:
            if not distinct or len(set(values)) == len(values):
                return values
    values = []
    seen: set[int] = set()
    for match in re.finditer(r"\S+", line):
        token = match.group()
        try:
            value = _strict_int(token)
        except ValueError:
            raise ParseError(
                lineno, match.start() + 1, f"invalid integer {token!r}"
            ) from None
        if distinct:
            if value in seen:
                raise ParseError(
                    lineno, match.start() + 1, f"duplicate index {value}"
                )
            seen.add(value)
        values.append(value)
    return values


def _strict_int(text: str) -> int:
    """`text` as an int when it is an optional `-` then ASCII digits.

    Anything else raises ValueError, where `int` alone would also read
    `+`, `_`, surrounding whitespace and non-ASCII digits.  Instance
    tokens and the numeric flags both follow this rule.
    """
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)  # also refuses over 4300 digits by default


def format_instance(
    seq: Sequence, i_set: Iterable[int], j_set: Iterable[int], comment: str = ""
) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(" ".join(str(v) for v in seq.raw))
    lines.append(" ".join(str(i) for i in i_set))
    lines.append(" ".join(str(j) for j in j_set))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instance generation


def generate(n: int, seed: int, bipartite: bool = False) -> str:
    """A reproducible random instance: permutation of 1..n plus two maximum sets.

    I and J are two independent draws of `random_max_sets`, each uniform
    over all maximum feasible sets.  The permutation is uniform over all
    of 1..n, or with bipartite=True uniform over those whose permutation
    graph is bipartite (the 321-avoiding ones), for any n.  The output
    depends on the arguments alone.
    """
    rng = random.Random(seed)
    if bipartite:
        values = bp.random_321_avoiding(n, rng)
    else:
        values = list(range(1, n + 1))
        rng.shuffle(values)
    seq = normalize(values)
    i_set, j_set = islice(random_max_sets(seq, build_piles(seq), rng), 2)
    tag = f"n={n} seed={seed}" + (" bipartite" if bipartite else "")
    return format_instance(seq, i_set, j_set, comment=f"lisrc gen {tag}")


# ---------------------------------------------------------------------------
# Rendering


def _fmt_set(s: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in s) + "}"


def _render_walk(rs: ReconfSequence) -> Iterator[str]:
    """The text walk of a walk between maximum sets, line by line.

    The start set, then `swap a -> b: {set after}` per step, each line
    with its `\\n`.  Lazy, so the JSON path never renders the walk and
    the text path holds one line at a time.  The current set is a sorted
    list, and beside it the list of its members' labels.  Every step
    between maximum sets keeps its slot (the new member stays on the same
    pile), so one binary search finds the slot of `remove`, an O(1) test
    sees that `add` fits between that slot's neighbours, and the step
    writes the member and its label in place.  The line is the one
    before with one `str.replace` of the old label by the new one, each
    with its delimiters around it (`{` or `,` before, `,` or `}` after):
    the members are distinct, so that needle occurs once, and a line
    costs O(k), the size of its text, in C string routines.  A step that
    fails the test is replayed alone by `ReconfSequence._replay`, after
    the lines before it: it raises the replay's ValueError when the step
    does not apply, and ValueError naming both slots when it changes
    slot.

    >>> walk = ReconfSequence(start=(1, 3), removed=(1, 3), added=(2, 4))
    >>> for line in _render_walk(walk):
    ...     print(line, end="")
    {1,3}
    swap 1 -> 2: {2,3}
    swap 3 -> 4: {2,4}
    """
    cur = sorted(rs.start)
    labels = [str(i) for i in cur]
    text = "{" + ",".join(labels) + "}"
    yield text + "\n"
    last = len(cur) - 1
    for remove, add in zip(rs.removed, rs.added):
        i = bisect_left(cur, remove)
        if not (
            i <= last
            and cur[i] == remove
            and add != remove
            and (i == 0 or cur[i - 1] < add)
            and (i == last or add < cur[i + 1])
        ):
            step = ReconfSequence(start=tuple(cur), removed=(remove,), added=(add,))
            _, i, j = next(step._replay())
            raise ValueError(f"swap {remove} -> {add} moves from slot {i} to {j}")
        cur[i] = add
        gone = labels[i]
        label = labels[i] = str(add)
        before = "{" if i == 0 else ","
        after = "}" if i == last else ","
        text = text.replace(f"{before}{gone}{after}", f"{before}{label}{after}", 1)
        yield f"swap {gone} -> {label}: {text}\n"


# ---------------------------------------------------------------------------
# Subcommands


def _emit(args, payload: dict, text_lines: Iterable[str]) -> None:
    """Print the payload as JSON, or the text lines.

    Each text line ends in its `\\n` and is written unchanged as it is
    produced, so a lazy walk (`_render_walk`) never sits in memory whole
    and no line is copied to append its newline; on the JSON path the
    lines are never produced.
    """
    if args.json:
        print(json.dumps(payload))
        return
    write = sys.stdout.write
    for line in text_lines:
        write(line)


def _answer(args, yes: bool, payload: dict, lines: Iterable[str], walk=None) -> int:
    """Print the answer of a YES/NO query and return its exit status.

    The JSON payload is `answer`, then `payload`, then, with a walk (a
    `ReconfSequence`), its own fields: `length`, `removed` and `added`.
    `lines` is the text answer, each line ending in its `\\n`.
    """
    payload = {"answer": "yes" if yes else "no", **payload}
    if args.json and walk is not None:
        payload.update(length=len(walk), removed=walk.removed, added=walk.added)
    _emit(args, payload, lines)
    return 1 if args.exit_status and not yes else 0


def _read_utf8(path: str) -> str:
    """The file's text; bytes that are not UTF-8 raise a ParseError.

    A leading UTF-8 byte-order mark is dropped, as the `utf-8-sig` codec
    drops it, but before decoding, so the decoder's offsets index `data`.
    """
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; count its line and column
        # in them the way parse_instance counts in text.
        lines = _lines(data[: exc.start].decode("utf-8") + "x")
        raise ParseError(
            len(lines),
            len(lines[-1]),
            f"not UTF-8: {exc.reason} 0x{data[exc.start]:02x}",
        ) from None


def _cmd_reconfigure(args) -> int:
    """`decide` and `witness`: one Answer, its walk shown by `witness` only."""
    seq, i_set, j_set = read_instance(_read_utf8(args.instance))
    answer = reconfigure(seq, i_set, j_set)
    yes = answer.walk is not None
    payload: dict = {}
    if args.json:
        # Reading the representatives runs their descent: JSON only.
        payload["minimal_I"] = list(answer.minimal_i)
        payload["minimal_J"] = list(answer.minimal_j)
    lines: Iterable[str] = ["YES\n" if yes else "NO\n"]
    walk = answer.walk if args.command == "witness" else None
    if walk is not None:
        lines = chain(lines, [f"length {len(walk)}\n"], _render_walk(walk))
    return _answer(args, yes, payload, lines, walk)


def _cmd_shortest(args) -> int:
    seq, i_set, j_set = read_instance(_read_utf8(args.instance))
    result = bp.shortest_sequence(seq, i_set, j_set)
    if isinstance(result, bp.NoSequence):
        a, b = result.forbidden
        pair = [
            {"pile": m.pile, "i_elem": m.i_elem, "j_elem": m.j_elem} for m in (a, b)
        ]
        line = (
            f"forbidden pair: pile {a.pile} (I {a.i_elem}, J {a.j_elem})"
            f" / pile {b.pile} (I {b.i_elem}, J {b.j_elem})\n"
        )
        return _answer(args, False, {"forbidden_pair": pair}, ["NO\n", line])
    lines = chain(["YES\n", f"length {len(result)}\n"], _render_walk(result))
    return _answer(args, True, {}, lines, result)


def _cmd_piles(args) -> int:
    seq, i_set, j_set = read_instance(_read_utf8(args.instance), require_sets=False)
    if i_set is not None:  # the sets are optional here, but checked when given
        require_feasible(seq, i_set)
        require_feasible(seq, j_set)
    ps = build_piles(seq)
    # Each entry as [index, raw value]; the sentinel shows as 0(0).
    value = (0, *seq.raw)
    piles = [[[i, value[i]] for i in pile] for pile in ps.piles]
    text = (
        f"P{t}: " + " ".join(f"{i}({v})" for i, v in pile) + "\n"
        for t, pile in enumerate(piles)
    )
    _emit(args, {"k": ps.k, "piles": piles}, text)
    return 0


def _cmd_oracle(args) -> int:
    if args.enumerate and args.exit_status:
        raise LisrcError("oracle --enumerate has no YES or NO: drop --exit-status")
    # The listing uses the sets themselves; the queries validate them.
    read = parse_instance if args.enumerate else read_instance
    seq, i_set, j_set = read(_read_utf8(args.instance))
    bound = args.max_oracle_n
    maximum_only = not args.general
    if args.enumerate:
        size = build_piles(seq).k if maximum_only else len(i_set)
        sets = orc.enumerate_feasible(seq, size, bound)
        _emit(
            args,
            {"count": len(sets), "sets": [list(s) for s in sets]},
            [_fmt_set(s) + "\n" for s in sets],
        )
        return 0
    rs = orc.oracle_shortest(seq, i_set, j_set, maximum_only, bound)
    if rs is None or not args.shortest:
        yes = rs is not None
        return _answer(args, yes, {}, ["YES\n" if yes else "NO\n"])
    lines = chain([f"{len(rs)}\n"], (_fmt_set(s) + "\n" for s in rs.sets()))
    return _answer(args, True, {}, lines, rs)


def _cmd_gen(args) -> int:
    text = generate(args.n, args.seed, args.bipartite)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_check(args) -> int:
    seq, i_set, j_set = parse_instance(_read_utf8(args.instance))
    k = build_piles(seq).k
    # parse_instance has checked both sets are feasible.
    i_max = len(i_set) == k
    j_max = len(j_set) == k
    _emit(
        args,
        {
            "n": seq.n,
            "lis_length": k,
            "I": list(i_set),
            "J": list(j_set),
            "I_maximum": i_max,
            "J_maximum": j_max,
        },
        [
            f"n {seq.n}\n",
            f"lis_length {k}\n",
            f"I {_fmt_set(i_set)} feasible" + (" maximum\n" if i_max else "\n"),
            f"J {_fmt_set(j_set)} feasible" + (" maximum\n" if j_max else "\n"),
            "OK\n",
        ],
    )
    return 0


# ---------------------------------------------------------------------------
# Dispatch


def _int_flag(text: str) -> int:
    try:
        return _strict_int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _at_least(low: int):
    """The flag type of a strict integer no smaller than `low`."""

    def flag(text: str) -> int:
        value = _int_flag(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    return flag


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help fails like any other output.

    argparse ignores an OSError from writing the help, which would then
    exit 0 unwritten; here the error reaches `run`.
    """

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call and then reused.

    Building it costs more than a small request (argparse formats and
    translates the help of every subcommand), so in-process callers of
    `run` pay for it once.  Parsing leaves it unchanged; each call gets a
    fresh namespace.
    """
    # Each flag goes only to the subcommands that read it; elsewhere it
    # is a usage error, not silently ignored.
    file_arg, json_arg, status_arg = (
        argparse.ArgumentParser(add_help=False) for _ in range(3)
    )
    file_arg.add_argument("instance", help="instance file")
    json_arg.add_argument("--json", action="store_true", help="machine-readable output")
    status_arg.add_argument(
        "--exit-status",
        action="store_true",
        help="exit 0 for YES, 1 for NO (errors stay 2)",
    )
    query = (file_arg, json_arg, status_arg)

    parser = _Parser(
        prog="lisrc",
        description="Reconfiguration between longest increasing subsequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, *parents: argparse.ArgumentParser):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(func=func)
        return p

    add("decide", _cmd_reconfigure, "can I be reconfigured into J?", *query)
    add("witness", _cmd_reconfigure, "print one reconfiguration sequence", *query)
    add("shortest", _cmd_shortest, "shortest sequence (piles at most 2 high)", *query)
    add("piles", _cmd_piles, "print the pile structure", file_arg, json_arg)
    add("check", _cmd_check, "validate an instance file", file_arg, json_arg)

    oracle_help = "brute-force reference answers (default: connectivity)"
    p_oracle = add("oracle", _cmd_oracle, oracle_help, *query)
    p_oracle.add_argument(
        "--max-oracle-n",
        type=_at_least(0),
        default=orc.DEFAULT_BOUND,
        metavar="N",
        help=f"largest n to search exhaustively (default {orc.DEFAULT_BOUND})",
    )
    mode = p_oracle.add_mutually_exclusive_group()
    mode.add_argument("--shortest", action="store_true", help="BFS shortest sequence")
    mode.add_argument("--enumerate", action="store_true", help="list feasible sets")
    p_oracle.add_argument(
        "--general",
        action="store_true",
        help="allow non-maximum feasible sets of equal size",
    )

    p_gen = add("gen", _cmd_gen, "generate a random instance")
    p_gen.add_argument("-n", type=_at_least(1), required=True, help="sequence length")
    p_gen.add_argument("--seed", type=_int_flag, default=0, help="RNG seed (default 0)")
    p_gen.add_argument(
        "--bipartite",
        action="store_true",
        help="draw uniformly among permutations with a bipartite graph",
    )
    p_gen.add_argument("-o", "--output", metavar="FILE", help="write here, not stdout")

    return parser


def run(argv: list[str]) -> int:
    """Entry point returning the exit status; output goes to stdout/stderr."""
    parser = build_parser()
    if sys.stdout is None:
        # fd 1 was closed before start (`>&-`): write to a pipe nobody
        # reads.  Before parsing, so that `--help` writes there too.
        read_end, write_end = os.pipe()
        os.close(read_end)
        sys.stdout = open(write_end, "w", encoding="utf-8")
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # after `--help` or a usage error
            status = int(exc.code or 0)
        else:
            status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout has left (`lisrc ... | head`): say nothing.
        stream = sys.stdout
    except (LisrcError, OSError, MemoryError) as exc:
        try:
            if sys.stderr is not None:
                # A MemoryError carries no message, as a rule.
                text = "out of memory" if isinstance(exc, MemoryError) else exc
                print(f"error: {text}", file=sys.stderr)
            return 2
        except OSError:  # stderr was closed before start (`2>&-`)
            stream = sys.stderr
    # The null device takes what the failed stream still buffers, so that
    # the interpreter's last flush succeeds; it may get a closed fd's number.
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, stream.fileno())
    finally:
        if devnull != stream.fileno():
            os.close(devnull)
    return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
