"""Command-line interface: instance files, subcommands, JSON and DOT output.

Instance file format, three data lines::

    # comments and blank lines are ignored
    7 8 5 6     <- sequence values, space separated, all distinct
    1 2         <- index set I, 1-based
    3 4         <- index set J, 1-based

Exit status is 0 on success and 2 on any error.  With --exit-status the
yes/no subcommands instead report YES as 0 and NO as 1.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from typing import Iterable

from . import bipartite as bp
from . import oracle as orc
from .errors import GenerationFailed, LisrcError, ParseError
from .piles import PileSystem, build_piles, extract_canonical_max
from .reconfig import ReconfSequence, reconfigure
from .seqcore import FeasibleSet, Sequence, normalize, require_feasible

# bench/spans.py wraps `minimal_set` in this namespace, so it stays
# importable from here although nothing in this module calls it.
from .reconfig import minimal_set  # noqa: F401

ORACLE_BOUND_ENV = "LISRC_ORACLE_BOUND"
GEN_MAX_ATTEMPTS = 10000


# ---------------------------------------------------------------------------
# Instance files


def parse_instance(
    text: str, require_sets: bool = True
) -> tuple[Sequence, FeasibleSet | None, FeasibleSet | None]:
    """Parse and validate an instance; see the module docstring for the format.

    With require_sets=False a lone sequence line is accepted and the two
    set slots come back as None.
    """
    data_lines: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_lines.append((lineno, line))
    if require_sets and len(data_lines) < 3:
        raise ParseError(
            len(text.splitlines()) + 1,
            1,
            f"expected 3 data lines (sequence, I, J), found {len(data_lines)}",
        )
    if not data_lines:
        raise ParseError(len(text.splitlines()) + 1, 1, "expected a sequence line")
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


def _int_tokens(lineno: int, line: str, distinct: bool = False) -> list[int]:
    """The integers of one data line; with `distinct`, a repeat is a ParseError."""
    values: list[int] = []
    seen: set[int] = set()
    for match in re.finditer(r"\S+", line):
        try:
            value = int(match.group())
        except ValueError:
            raise ParseError(
                lineno, match.start() + 1, f"invalid integer {match.group()!r}"
            ) from None
        if distinct:
            if value in seen:
                raise ParseError(
                    lineno, match.start() + 1, f"duplicate index {value}"
                )
            seen.add(value)
        values.append(value)
    return values


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
    a random backward chain.  With bipartite=True, permutations are
    redrawn until the inversion graph admits a two-coloring, that is
    until they have no decreasing triple.
    """
    rng = random.Random(seed)
    values = list(range(1, n + 1))
    for _ in range(GEN_MAX_ATTEMPTS):
        rng.shuffle(values)
        seq = normalize(values)
        if bipartite and bp.decreasing_triple(seq) is not None:
            continue
        ps = build_piles(seq)
        i_set = extract_canonical_max(ps)
        if n <= bound:
            j_set = rng.choice(orc.enumerate_feasible(seq, ps.k, bound))
        else:
            j_set = random_max_set(seq, ps, rng)
        tag = f"n={n} seed={seed}" + (" bipartite" if bipartite else "")
        return format_instance(seq, i_set, j_set, comment=f"lisrc gen {tag}")
    raise GenerationFailed(
        f"no bipartite permutation found in {GEN_MAX_ATTEMPTS} samples (n={n})"
    )


# ---------------------------------------------------------------------------
# Rendering


def _fmt_set(s: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in s) + "}"


def _render_walk(rs: ReconfSequence) -> list[str]:
    lines = [f"length {len(rs)}", _fmt_set(rs.start)]
    sets = list(rs.sets())
    for step, cur in zip(rs.steps, sets[1:]):
        lines.append(f"swap {step.remove} -> {step.add}: {_fmt_set(cur)}")
    return lines


def _steps_json(rs: ReconfSequence) -> list[dict]:
    return [{"remove": s.remove, "add": s.add} for s in rs.steps]


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


def _emit(
    args, payload: dict, text_lines: list[str], walk: ReconfSequence | None = None
) -> None:
    """Print the payload as JSON, or the text lines followed by the walk.

    The walk is rendered on the text path only: --json prints its steps
    from the payload and never needs the intermediate sets.
    """
    if args.json:
        print(json.dumps(payload))
        return
    for line in text_lines:
        print(line)
    if walk is not None:
        for line in _render_walk(walk):
            print(line)


def _yesno_status(args, yes: bool) -> int:
    if args.exit_status:
        return 0 if yes else 1
    return 0


def _load(args, require_sets: bool = True):
    with open(args.instance, encoding="utf-8") as handle:
        return parse_instance(handle.read(), require_sets=require_sets)


def _cmd_reconfigure(args) -> int:
    """`decide` and `witness`: one Answer, its walk shown by `witness` only."""
    seq, i_set, j_set = _load(args)
    answer = reconfigure(seq, i_set, j_set)
    yes = answer.walk is not None
    payload: dict = {
        "answer": "yes" if yes else "no",
        "minimal_I": list(answer.minimal_i),
        "minimal_J": list(answer.minimal_j),
    }
    walk = answer.walk if args.command == "witness" else None
    if walk is not None:
        payload["steps"] = _steps_json(walk)
        payload["length"] = len(walk)
    _emit(args, payload, ["YES" if yes else "NO"], walk)
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
    payload = {"answer": "yes", "steps": _steps_json(result), "length": len(result)}
    _emit(args, payload, ["YES"], result)
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
        found = orc.oracle_shortest(seq, i_set, j_set, maximum_only, bound)
        if found is None:
            _emit(args, {"answer": "no"}, ["NO"])
            return _yesno_status(args, False)
        length, rs = found
        _emit(
            args,
            {"answer": "yes", "length": length, "steps": _steps_json(rs)},
            [str(length)] + [_fmt_set(s) for s in rs.sets()],
        )
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
        bound = int(env)
    except ValueError:
        raise LisrcError(
            f"{ORACLE_BOUND_ENV} must be an integer, got {env!r}"
        ) from None
    if bound < 0:
        raise LisrcError(f"{ORACLE_BOUND_ENV} must be >= 0, got {bound}")
    return bound


# ---------------------------------------------------------------------------
# Dispatch


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--exit-status",
        action="store_true",
        help="exit 0 for YES, 1 for NO (errors stay 2)",
    )
    common.add_argument(
        "--max-oracle-n",
        type=_nonnegative_int,
        metavar="N",
        help=f"exhaustive-search size bound (default {orc.DEFAULT_BOUND}; "
        f"env {ORACLE_BOUND_ENV})",
    )

    parser = argparse.ArgumentParser(
        prog="lisrc",
        description="Reconfiguration between longest increasing subsequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, instance: bool = True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if instance:
            p.add_argument("instance", help="instance file")
        p.set_defaults(func=func)
        return p

    add("decide", _cmd_reconfigure, "can I be reconfigured into J?")
    add("witness", _cmd_reconfigure, "print one reconfiguration sequence")
    add("shortest", _cmd_shortest, "shortest sequence (bipartite graphs only)")
    add("piles", _cmd_piles, "print the pile structure")
    add("graph", _cmd_graph, "emit the permutation graph as DOT")
    add("check", _cmd_check, "validate an instance file")

    p_oracle = add("oracle", _cmd_oracle, "brute-force reference answers")
    mode = p_oracle.add_mutually_exclusive_group()
    mode.add_argument("--decide", action="store_true", help="connectivity (default)")
    mode.add_argument("--shortest", action="store_true", help="BFS shortest sequence")
    mode.add_argument("--enumerate", action="store_true", help="list feasible sets")
    mode.add_argument("--dot", action="store_true", help="swap graph as DOT")
    p_oracle.add_argument(
        "--general",
        action="store_true",
        help="allow non-maximum feasible sets of equal size",
    )

    p_gen = add("gen", _cmd_gen, "generate a random instance", instance=False)
    p_gen.add_argument("-n", type=_positive_int, required=True, help="sequence length")
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_gen.add_argument(
        "--bipartite",
        action="store_true",
        help="resample until the permutation graph is bipartite",
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
        return args.func(args)
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
