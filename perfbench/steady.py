"""Steadiness of one workload: N runs in separate processes.

    python3 perfbench/steady.py --workload sweep --runs 10 --first-seed 1

Runs ``perfbench/run.py`` once per seed, one after another, and prints
for every metric its median, quartiles, inter-quartile spread and
(max-min) spread as shares of the median, next to the metric's bound in
``BENCHMARK.json``.  A metric whose inter-quartile spread is a third of
its bound or more is flagged ``WIDE``.  ``--out`` keeps the raw results
as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def summarize(results: "list[dict]", bounds: dict) -> str:
    rows = [f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}"]
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        iqr = (q3 - q1) / median if median else 0.0
        spread = (max(values) - min(values)) / median if median else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if iqr < bound / 3 else "  WIDE")
        rows.append(
            f"{name:28s} {median:12.4f} {q1:12.4f} {q3:12.4f} {iqr:8.3f} {spread:8.3f} "
            f"{'-' if bound is None else format(bound, '.2f'):>6s}{flag}"
        )
    failed = {r["failed"] / r["attempted"] for r in results}
    rows.append(f"runs {len(results)}, all correct: {all(r['correct'] for r in results)}, "
                f"failed shares: {sorted(failed)}, ops per run: "
                f"{min(r['attempted'] for r in results)}..{max(r['attempted'] for r in results)}")
    return "\n".join(rows)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's result line to this file")
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds, args.trace)
        results.append(result)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(summarize(results, bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
