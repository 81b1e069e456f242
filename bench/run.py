"""End-to-end and per-layer benchmark of the lisrc command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client in one process and one thread calls
`lisrc.cli.run(argv)` on instance files generated from the seed, with
stdout captured, until S seconds have passed.  Every answer is checked
against the ground truth the generator knows by construction, outside
the timed region.  The last stdout line is one JSON object with the
metrics that BENCHMARK.json lists: the end-to-end ones with --trace 0,
the per-layer ones with --trace 1.  The traced run alternates traced and
untraced requests, so that `trace.overhead_pct` compares like with like;
its spans are written to .bench_work/ when the run ends.

Latencies are reported in units of a fixed reference job timed just
before each request (`Reference`).  Shared hosts change speed by up to
2x for seconds to minutes at a time; that moves a request and the
reference job alike, so their ratio is steady where wall times are not.
The wall times themselves are printed on the summary line and reported
as `wall.*` per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import check
import gen
from spans import SHAPES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail percentile


class Reference:
    """A fixed pure-Python job like the CLI's front end: sort, rank dict,
    tuple.  It never changes with lisrc, so it measures the host's speed."""

    def __init__(self, size: int = 20_000):
        self.data = list(range(size))
        random.Random(0).shuffle(self.data)

    def seconds(self) -> float:
        start = perf_counter()
        rank = {v: r for r, v in enumerate(sorted(self.data))}
        tuple(rank[v] for v in self.data)
        return perf_counter() - start


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    pool: Callable[[random.Random], list]  # instances in request order, cycled
    check: Callable


def random_pool(rng):
    return [gen.random_yes(100_000, 2_000, rng), gen.random_no(100_000, 2_000, rng)]


def descent_pool(rng):
    return [gen.staircase_instance(20, 500, rng) for _ in range(4)]


def bipartite_pool(rng):
    # Three YES to one NO keeps the median and the tail on the YES mode.
    pool = []
    for _ in range(8):
        pool += [gen.bipartite_instance(600, 72, False, rng) for _ in range(3)]
        pool.append(gen.bipartite_instance(600, 72, True, rng))
    return pool


def oracle_pool(rng):
    return [gen.merge_instance(8, 5, (450, 550), rng) for _ in range(32)]


WORKLOADS = {
    "random_1e5": Workload(("decide",), random_pool, check.check_decide),
    "long_descent": Workload(("witness",), descent_pool, check.check_witness),
    "bipartite_shortest": Workload(("shortest",), bipartite_pool, check.check_shortest),
    "oracle_16": Workload(
        ("oracle", "--shortest", "--general"), oracle_pool, check.check_oracle
    ),
}


def import_lisrc():
    """Import lisrc afresh from this checkout's src/, whatever is installed."""
    for name in [m for m in sys.modules if m == "lisrc" or m.startswith("lisrc.")]:
        del sys.modules[name]
    cli = importlib.import_module("lisrc.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"lisrc imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: Workload, seed: int, workdir: Path):
    """Import lisrc, generate the seeded instances and write their files."""
    cli = import_lisrc()
    pool = workload.pool(random.Random(seed))
    paths = []
    for idx, inst in enumerate(pool):
        path = workdir / f"instance{idx}.txt"
        path.write_text(inst.text(), encoding="utf-8")
        paths.append(str(path))
    return cli, pool, paths


def request(cli, argv):
    """One timed `cli.run` call: (seconds, exit status or exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(argv)
    except Exception as exc:  # a failed request, counted below
        status = exc
    return perf_counter() - start, status, out.getvalue(), err.getvalue()


class Loop:
    """Closed loop over the pool; with a tracer, alternates untraced and
    traced requests, each mode cycling the pool from its start."""

    def __init__(self, cli, workload, pool, paths, tracer=None):
        self.cli, self.workload, self.pool, self.paths = cli, workload, pool, paths
        self.tracer = tracer
        self.reference = Reference()
        self.latency = {False: [], True: []}  # wall seconds per request
        self.ratio = {False: [], True: []}  # latency / reference time
        self.reference_times: list[float] = []
        self.failures: list[str] = []
        self.verified: set = set()  # (instance, sha1 of an output that passed)
        self.out_bytes: dict[int, int] = {}
        self.traced_instance: list[int] = []  # traced request id -> instance

    def one(self, traced: bool) -> None:
        idx = len(self.latency[traced]) % len(self.pool)
        argv = [*self.workload.argv, self.paths[idx]]
        gc.collect()
        ref = self.reference.seconds()
        if traced:
            self.tracer.request = len(self.traced_instance)
            self.traced_instance.append(idx)
            self.tracer.install()
        try:
            seconds, status, out, err = request(self.cli, argv)
        finally:
            if traced:
                self.tracer.uninstall()
        self.latency[traced].append(seconds)
        self.ratio[traced].append(seconds / ref)
        self.reference_times.append(ref)
        self.out_bytes.setdefault(idx, len(out.encode()))
        reason = self.judge(idx, status, out, err)
        if reason:
            self.failures.append(f"instance {idx}: {reason}")

    def judge(self, idx, status, out, err) -> str | None:
        if isinstance(status, Exception):
            return f"raised {status!r}"
        if status != 0 or err:
            return f"exit status {status}, stderr {err.strip()[:200]!r}"
        key = (idx, hashlib.sha1(out.encode()).digest())
        if key in self.verified:
            return None
        try:
            reason = self.workload.check(self.pool[idx], out)
        except (ValueError, IndexError) as exc:
            reason = f"malformed answer: {exc}"
        if reason is None:
            self.verified.add(key)
        return reason

    def run(self, seconds: float) -> None:
        modes = (False, True) if self.tracer else (False,)
        start = perf_counter()
        while True:
            for traced in modes:
                self.one(traced)
            done = min(len(self.latency[m]) for m in modes)
            if perf_counter() - start >= seconds and done >= len(self.pool):
                return


def tail_percentile(samples, q=90.0):
    """Nearest-rank q-th percentile, lowered until TAIL_SAMPLES lie beyond it.

    Returns (value, percentile used); never goes below the median, which
    it returns when the run holds too few samples for a tail."""
    xs = sorted(samples)
    rank = min(math.ceil(q / 100 * len(xs)), len(xs) - TAIL_SAMPLES)
    rank = max(rank, math.ceil(len(xs) / 2))
    return xs[rank - 1], 100.0 * rank / len(xs)


def wall(loop: Loop) -> dict:
    """Untraced wall-clock figures, which follow the host's speed."""
    lat = loop.latency[False]
    return {
        "wall.latency_p50_ms": statistics.median(lat) * 1e3,
        "wall.latency_p90_ms": tail_percentile(lat)[0] * 1e3,
        "wall.req_per_s": len(lat) / sum(lat),
        "wall.reference_ms": statistics.median(loop.reference_times) * 1e3,
    }


def end_to_end(loop: Loop, setup_times) -> tuple[dict, str]:
    ratio = loop.ratio[False]
    tail, q = tail_percentile(ratio)
    values = {
        "latency_p50_ref": statistics.median(ratio),
        "latency_p90_ref": tail,
        "req_per_kref": 1000 * len(ratio) / sum(ratio),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    # Input shape next to the timings: a change in shape is not a change in speed.
    pool = loop.pool
    wall_note = " ".join(f"{k}={v:.4g}" for k, v in wall(loop).items())
    note = (
        f"samples={len(ratio)} tail_percentile=p{q:.1f} {wall_note} "
        f"n={statistics.median(len(i.values) for i in pool)} "
        f"k={statistics.median(len(i.i_set) for i in pool)} "
        f"output_bytes={statistics.median(loop.out_bytes.values())}"
    )
    return values, note


def per_layer(loop: Loop, names) -> dict:
    layers, shapes = loop.tracer.per_request()
    requests = range(len(loop.traced_instance))
    values = {}
    for name in names:
        span, _, field = name.rpartition(".")
        column = {"ms": 0, "self_ms": 1, "calls": 2}.get(field)
        if column is not None:
            hits = [layers[r][span][column] for r in requests if span in layers[r]]
            values[name] = statistics.median(hits) if hits else 0.0
    # Shape counts and output size once per pool instance, from its first
    # traced request, so they repeat exactly for a given seed.
    first = {}
    for r, idx in enumerate(loop.traced_instance):
        first.setdefault(idx, r)
    for count in {c for entries in SHAPES.values() for c, _, _ in entries}:
        hits = [shapes[r][count] for r in first.values() if count in shapes[r]]
        values[count] = statistics.median(hits) if hits else 0
    values["cli.output_bytes"] = statistics.median(loop.out_bytes.values())
    values.update(wall(loop))
    traced, untraced = loop.ratio[True], loop.ratio[False]
    values["trace.overhead_pct"] = (
        statistics.median(traced) / statistics.median(untraced) - 1
    ) * 100
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "lisrc" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no lisrc sources under {SRC} or no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            cli = pool = paths = None  # free the last pool before the next
            start = perf_counter()
            cli, pool, paths = setup(workload, args.seed, workdir)
            setup_times.append(perf_counter() - start)
        tracer = None
        if args.trace:
            names = ("cli", "bipartite", "reconfig", "oracle")
            tracer = Tracer({m: sys.modules[f"lisrc.{m}"] for m in names})
        gc.collect()
        gc.freeze()
        loop = Loop(cli, workload, pool, paths, tracer)
        loop.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(map(len, loop.latency.values()))
    failed = len(loop.failures)
    for reason in loop.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    if args.trace:
        values = per_layer(loop, [m["name"] for m in spec["per_layer"]])
        metrics_spec = spec["per_layer"]
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json")
        note = f"traced_requests={len(loop.traced_instance)}"
    else:
        values, note = end_to_end(loop, setup_times)
        metrics_spec = spec["end_to_end"]
    print(
        f"workload={args.workload} seed={args.seed} {note} attempted={attempted} "
        f"failed={failed} fail_ratio={failed / attempted:.6f}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
