"""Command-line interface: instance files, subcommands, JSON and DOT output.

Instance file format, three data lines::

    # comments and blank lines are ignored
    7 8 5 6     <- sequence values, space separated, all distinct
    1 2         <- index set I, 1-based
    3 4         <- index set J, 1-based

A value or index is an optional `-` followed by ASCII digits; any
whitespace separates them.  Lines end at `\\n`, `\\r\\n` or `\\r` only.
The file is read as UTF-8, and a leading byte-order mark is ignored.

Exit status is 0 on success and 2 on any error, a stdout whose reader
has left included (that one without a message).  With --exit-status the
yes/no subcommands instead report YES as 0 and NO as 1.
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
from itertools import chain, islice
from typing import Iterable, Iterator

from . import bipartite as bp
from . import oracle as orc
from .errors import LisrcError, ParseError
from .piles import PileSystem, build_piles, extract_canonical_max
from .reconfig import ReconfSequence, reconfigure
from .seqcore import FeasibleSet, Sequence, normalize, require_feasible

# bench/spans.py wraps `minimal_set` in this namespace, so it stays
# importable from here although nothing in this module calls it.
from .reconfig import minimal_set  # noqa: F401

ORACLE_BOUND_ENV = "LISRC_ORACLE_BOUND"
# Text lines per write.  A walk line holds a whole set, so one batch is
# O(k) text, far below the O(k) per step of a long walk's whole output.
EMIT_BATCH_LINES = 16
# The lines `_int_tokens` hands to the JSON decoder.
_JSON_LINE = re.compile(r"[0-9 -]*")


# ---------------------------------------------------------------------------
# Instance files


def parse_instance(
    text: str, require_sets: bool = True
) -> tuple[Sequence, FeasibleSet | None, FeasibleSet | None]:
    """Parse and validate an instance; see the module docstring for the format.

    With require_sets=False a lone sequence line is accepted and the two
    set slots come back as None.
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
    i_set, j_set = (
        require_feasible(seq, _int_tokens(*line, distinct=True))
        for line in data_lines[1:]
    )
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
    tokens, the numeric flags and LISRC_ORACLE_BOUND all follow this rule.
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


def random_max_set(seq: Sequence, ps: PileSystem, rng: random.Random) -> FeasibleSet:
    """A random maximum feasible set: a random backward chain through the piles.

    Not uniform over all maximum feasible sets; used where full
    enumeration is too large.
    """
    if ps.k == 0:
        return ()
    chain = [rng.choice(ps.piles[ps.k])]
    for t in range(ps.k - 1, 0, -1):
        nxt = chain[-1]
        options = [
            u
            for u in ps.piles[t]
            if u < nxt and seq.value(u) < seq.value(nxt)
        ]
        chain.append(rng.choice(options))
    return tuple(sorted(chain))


def generate(
    n: int,
    seed: int,
    bipartite: bool = False,
    bound: int = orc.DEFAULT_BOUND,
) -> str:
    """A reproducible random instance: permutation of 1..n plus two maximum sets.

    I is the canonical blocker chain; J is drawn uniformly from all
    maximum feasible sets when n is within the exhaustive bound, else by
    a random backward chain.  The permutation is uniform over all of
    1..n, or with bipartite=True uniform over those whose permutation
    graph is bipartite (the 321-avoiding ones), for any n.
    """
    rng = random.Random(seed)
    if bipartite:
        values = bp.random_321_avoiding(n, rng)
    else:
        values = list(range(1, n + 1))
        rng.shuffle(values)
    seq = normalize(values)
    ps = build_piles(seq)
    i_set = extract_canonical_max(ps)
    if n <= bound:
        j_set = rng.choice(orc.enumerate_feasible(seq, ps.k, bound))
    else:
        j_set = random_max_set(seq, ps, rng)
    tag = f"n={n} seed={seed}" + (" bipartite" if bipartite else "")
    return format_instance(seq, i_set, j_set, comment=f"lisrc gen {tag}")


# ---------------------------------------------------------------------------
# Rendering


def _fmt_set(s: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in s) + "}"


def _render_walk(rs: ReconfSequence, swaps: bool = True) -> Iterator[str]:
    """The text walk line by line: the start set, then one line per swap.

    A swap line reads `swap a -> b: {set after}`, or with swaps=False just
    `{set after}`.  Lazy, so the JSON path never renders the walk and the
    text path holds one set at a time.  The set's line is kept as one
    string, and the label strings of the members in a list parallel to
    the sorted members of the walk's replay, edited at the same slots, so
    each index is formatted once when it enters the set.  A step that
    keeps its slot, as every step between maximum sets does, edits the
    line with one `str.replace` of the old label by the new one, each
    with its delimiters around it (`{` or `,` before, `,` or `}` after):
    the members are distinct, so that needle occurs once.  A step that
    changes slot joins the labels again.  Either way a line costs O(k),
    the size of its text, in C string routines.  A step that does not
    apply raises ValueError.

    >>> walk = ReconfSequence(start=(1, 3), removed=(1, 3), added=(2, 4))
    >>> for line in _render_walk(walk):
    ...     print(line)
    {1,3}
    swap 1 -> 2: {2,3}
    swap 3 -> 4: {2,4}
    >>> list(_render_walk(walk, swaps=False))
    ['{1,3}', '{2,3}', '{2,4}']
    """
    labels = list(map(str, sorted(rs.start)))
    text = "{" + ",".join(labels) + "}"
    yield text
    last = len(labels) - 1
    for cur, i, j in rs._replay():
        label = str(cur[j])
        if i == j:
            gone = labels[i]
            labels[i] = label
            before = "{" if i == 0 else ","
            after = "}" if i == last else ","
            text = text.replace(f"{before}{gone}{after}", f"{before}{label}{after}", 1)
        else:
            gone = labels.pop(i)
            labels.insert(j, label)
            text = "{" + ",".join(labels) + "}"
        yield f"swap {gone} -> {label}: {text}" if swaps else text


def _steps_json(rs: ReconfSequence) -> list[dict]:
    """The walk's steps for `--json`; built only on that path."""
    return [{"remove": r, "add": a} for r, a in zip(rs.removed, rs.added)]


def dot_permutation_graph(seq: Sequence, g: bp.PermutationGraph) -> str:
    lines = ["graph G {"]
    for v in range(1, g.n + 1):
        lines.append(f'  {v} [label="{v} ({seq.raw[v - 1]})"];')
    for i, j in sorted(g.edges()):
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_reconfig_graph(graph: orc.ReconfGraph) -> str:
    lines = ["graph R {"]
    for i, node in enumerate(graph.nodes):
        lines.append(f'  {i} [label="{_fmt_set(node)}"];')
    for u, v in graph.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _emit(args, payload: dict, text_lines: Iterable[str]) -> None:
    """Print the payload as JSON, or the text lines.

    The text lines are written in batches of EMIT_BATCH_LINES as they are
    produced, so a lazy walk (`_render_walk`) never sits in memory whole;
    on the JSON path they are never produced.
    """
    if args.json:
        print(json.dumps(payload))
        return
    write = sys.stdout.write
    lines = iter(text_lines)
    while batch := list(islice(lines, EMIT_BATCH_LINES)):
        batch.append("")
        write("\n".join(batch))


def _yesno_status(args, yes: bool) -> int:
    if args.exit_status:
        return 0 if yes else 1
    return 0


def _load(args, require_sets: bool = True):
    return parse_instance(_read_utf8(args.instance), require_sets=require_sets)


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
    seq, i_set, j_set = _load(args)
    answer = reconfigure(seq, i_set, j_set)
    yes = answer.walk is not None
    payload: dict = {"answer": "yes" if yes else "no"}
    if args.json:
        # Reading the representatives runs their descent: JSON only.
        payload["minimal_I"] = list(answer.minimal_i)
        payload["minimal_J"] = list(answer.minimal_j)
    lines: Iterable[str] = ["YES" if yes else "NO"]
    walk = answer.walk if args.command == "witness" else None
    if walk is not None:
        if args.json:
            payload["steps"] = _steps_json(walk)
            payload["length"] = len(walk)
        lines = chain(lines, [f"length {len(walk)}"], _render_walk(walk))
    _emit(args, payload, lines)
    return _yesno_status(args, yes)


def _cmd_shortest(args) -> int:
    seq, i_set, j_set = _load(args)
    result = bp.shortest_sequence(seq, i_set, j_set)
    if isinstance(result, bp.NotBipartite):
        cycle = " ".join(str(v) for v in result.odd_cycle)
        raise LisrcError(
            f"permutation graph is not bipartite (odd cycle {cycle}); "
            f"use 'decide' for the general case"
        )
    if isinstance(result, bp.NoSequence):
        a, b = result.forbidden
        _emit(
            args,
            {
                "answer": "no",
                "forbidden_pair": [
                    {"pile": m.pile, "i_elem": m.i_elem, "j_elem": m.j_elem}
                    for m in (a, b)
                ],
            },
            [
                "NO",
                f"forbidden pair: pile {a.pile} (I {a.i_elem}, J {a.j_elem})"
                f" / pile {b.pile} (I {b.i_elem}, J {b.j_elem})",
            ],
        )
        return _yesno_status(args, False)
    payload: dict = {"answer": "yes"}
    if args.json:
        payload.update(steps=_steps_json(result), length=len(result))
    lines = chain(["YES", f"length {len(result)}"], _render_walk(result))
    _emit(args, payload, lines)
    return _yesno_status(args, True)


def _cmd_piles(args) -> int:
    seq, _, _ = _load(args, require_sets=False)
    ps = build_piles(seq)
    text = []
    piles_json = []
    for t in range(ps.k + 1):
        entries = ps.entries(seq, t)
        text.append(f"P{t}: " + " ".join(f"{i}({v})" for i, v in entries))
        piles_json.append([[i, v] for i, v in entries])
    _emit(args, {"k": ps.k, "piles": piles_json}, text)
    return 0


def _cmd_graph(args) -> int:
    seq, _, _ = _load(args, require_sets=False)
    g = bp.build_graph(seq)
    if args.json:
        print(json.dumps({"n": g.n, "edges": [list(e) for e in sorted(g.edges())]}))
    else:
        print(dot_permutation_graph(seq, g), end="")
    return 0


def _cmd_oracle(args) -> int:
    seq, i_set, j_set = _load(args)
    bound = _oracle_bound(args)
    maximum_only = not args.general
    if args.enumerate or args.dot:
        size = build_piles(seq).k if maximum_only else len(i_set)
        sets = orc.enumerate_feasible(seq, size, bound)
        if args.dot:
            print(dot_reconfig_graph(orc.build_reconfig_graph(sets)), end="")
            return 0
        _emit(
            args,
            {"count": len(sets), "sets": [list(s) for s in sets]},
            [_fmt_set(s) for s in sets],
        )
        return 0
    if args.shortest:
        rs = orc.oracle_shortest(seq, i_set, j_set, maximum_only, bound)
        if rs is None:
            _emit(args, {"answer": "no"}, ["NO"])
            return _yesno_status(args, False)
        payload = {"answer": "yes", "length": len(rs)}
        if args.json:
            payload["steps"] = _steps_json(rs)
        _emit(args, payload, chain([str(len(rs))], _render_walk(rs, swaps=False)))
        return _yesno_status(args, True)
    yes = orc.oracle_decide(seq, i_set, j_set, maximum_only, bound)
    _emit(args, {"answer": "yes" if yes else "no"}, ["YES" if yes else "NO"])
    return _yesno_status(args, yes)


def _cmd_gen(args) -> int:
    text = generate(args.n, args.seed, args.bipartite, _oracle_bound(args))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_check(args) -> int:
    seq, i_set, j_set = _load(args)
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
            f"n {seq.n}",
            f"lis_length {k}",
            f"I {_fmt_set(i_set)} feasible" + (" maximum" if i_max else ""),
            f"J {_fmt_set(j_set)} feasible" + (" maximum" if j_max else ""),
            "OK",
        ],
    )
    return 0


def _oracle_bound(args) -> int:
    if args.max_oracle_n is not None:
        return args.max_oracle_n
    env = os.environ.get(ORACLE_BOUND_ENV)
    if env is None:
        return orc.DEFAULT_BOUND
    try:
        bound = _strict_int(env)
    except ValueError:
        raise LisrcError(
            f"{ORACLE_BOUND_ENV} must be an integer, got {env!r}"
        ) from None
    if bound < 0:
        raise LisrcError(f"{ORACLE_BOUND_ENV} must be >= 0, got {bound}")
    return bound


# ---------------------------------------------------------------------------
# Dispatch


def _int_flag(text: str) -> int:
    try:
        return _strict_int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _positive_int(text: str) -> int:
    value = _int_flag(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = _int_flag(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


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
    file_arg, json_arg, status_arg, bound_arg = (
        argparse.ArgumentParser(add_help=False) for _ in range(4)
    )
    file_arg.add_argument("instance", help="instance file")
    json_arg.add_argument("--json", action="store_true", help="machine-readable output")
    status_arg.add_argument(
        "--exit-status",
        action="store_true",
        help="exit 0 for YES, 1 for NO (errors stay 2)",
    )
    bound_arg.add_argument(
        "--max-oracle-n",
        type=_nonnegative_int,
        metavar="N",
        help=f"exhaustive-search size bound (default {orc.DEFAULT_BOUND}; "
        f"env {ORACLE_BOUND_ENV})",
    )
    query = (file_arg, json_arg, status_arg)

    parser = argparse.ArgumentParser(
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
    add("shortest", _cmd_shortest, "shortest sequence (bipartite graphs only)", *query)
    add("piles", _cmd_piles, "print the pile structure", file_arg, json_arg)
    add("graph", _cmd_graph, "emit the permutation graph as DOT", file_arg, json_arg)
    add("check", _cmd_check, "validate an instance file", file_arg, json_arg)

    oracle_help = "brute-force reference answers (default: connectivity)"
    p_oracle = add("oracle", _cmd_oracle, oracle_help, *query, bound_arg)
    mode = p_oracle.add_mutually_exclusive_group()
    mode.add_argument("--shortest", action="store_true", help="BFS shortest sequence")
    mode.add_argument("--enumerate", action="store_true", help="list feasible sets")
    mode.add_argument("--dot", action="store_true", help="swap graph as DOT")
    p_oracle.add_argument(
        "--general",
        action="store_true",
        help="allow non-maximum feasible sets of equal size",
    )

    p_gen = add("gen", _cmd_gen, "generate a random instance", bound_arg)
    p_gen.add_argument("-n", type=_positive_int, required=True, help="sequence length")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout has left (`lisrc ... | head`): say nothing,
        # and point stdout at the null device so that the interpreter's
        # last flush of what is still buffered does not fail either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 2
    except LisrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
