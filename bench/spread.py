"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 bench/spread.py --workload random_1e5 --seeds 1-10 [--trace 1] [--out FILE]

Each run is its own process, as the benchmark is meant to be run.  For
every metric it prints the median and the quartiles of the per-run
values (`statistics.quantiles(values, n=4)`) and the spread: the
interquartile distance as a share of the median.  With --out the raw
values and the summary are added to a JSON file under the workload name.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = attempted = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(proc.stdout.splitlines()[-2], flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} bound")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print(f"{name:40} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} {bounds.get(name, '')}")
    print(f"attempted={attempted} failed={failed}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = args.workload + (" traced" if args.trace else "")
        data[key] = {"seeds": args.seeds, "seconds": seconds, "attempted": attempted,
                     "failed": failed, "metrics": summary}
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
