"""The process that runs ``run_experiment`` for a workload.

``run.py`` starts it in the run's work directory.  It imports the
program, runs the first op cold and prints ``ready``: the parent's clock
from spawn to that line is the set-up time.  In ``setup`` mode it then
exits; in ``main`` mode it runs whole rounds of ops until the time is up
and at least ``--min-ops`` ops are done, checking every output outside
the timed region, and writes its figures to ``--out``.

With ``--trace 1`` the layer wrappers are installed and rounds alternate
between recording off and on, so one run gives both the per-layer spans
and the tracing overhead.

    python3 -m perfbench.worker --config inputs.json --mode main \
        --seconds 25 --min-ops 40 --out result.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench import checks
from perfbench.spans import SpanRecorder, install, layer_metrics, ops_of

#: two-hop candidate pairs sampled for the reference-score check.
REFERENCE_PAIRS = 300


class Op:
    """One named call into the program plus the check of its output."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def sweep_ops(config: dict) -> "list[Op]":
    from repro.eval.runner import ExperimentSpec, run_experiment

    ops = []
    for raw in config["specs"]:
        spec = ExperimentSpec(**{**raw, "metrics": tuple(raw["metrics"])})
        stats = config["stats"][spec.name]

        def check(result, stats=stats, filtered=spec.with_filter) -> str:
            text = result.to_json()
            checks.check_sweep_result(json.loads(text), stats, filtered)
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        ops.append(Op(spec.name, lambda spec=spec: run_experiment(spec), check))
    return ops


def reference_check(config: dict, seed: int) -> None:
    """CN, AA and RA scores of the first spec's first step vs the references."""
    root = Path(__file__).resolve().parent.parent
    path = root / "tests" / "reference_implementations.py"
    module_spec = importlib.util.spec_from_file_location("reference_implementations", path)
    reference = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(reference)

    from repro.eval.runner import ExperimentSpec, build_plan
    from repro.metrics.base import get_metric
    from repro.metrics.candidates import candidate_pairs
    from repro.metrics.kernels import score_pairs

    raw = config["specs"][0]
    plan = build_plan(ExperimentSpec(**{**raw, "metrics": tuple(raw["metrics"])}))
    previous = plan.steps[0][0]
    pairs = candidate_pairs(previous, "two_hop")
    rng = np.random.default_rng(seed)
    sample = pairs[np.sort(rng.choice(len(pairs), size=min(REFERENCE_PAIRS, len(pairs)), replace=False))]
    for name, formula in (
        ("CN", reference.common_neighbors),
        ("AA", reference.adamic_adar),
        ("RA", reference.resource_allocation),
    ):
        metric = get_metric(name).fit(previous)
        got = score_pairs(metric, previous, sample)
        want = [formula(previous, int(u), int(v)) for u, v in sample]
        checks.check_reference_scores(name, got, want)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--mode", choices=("setup", "main"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    config = json.loads(Path(args.config).read_text())

    ops = sweep_ops(config)
    first = ops[0].run()
    print("ready", flush=True)

    out: dict = {"digests": {}, "errors": []}
    try:
        out["digests"][ops[0].name] = [ops[0].check(first)]
    except checks.CheckError as exc:
        out["errors"].append(str(exc))
    del first
    if args.mode == "setup" or out["errors"]:
        Path(args.out).write_text(json.dumps(out))
        return 0

    recorder = SpanRecorder()
    if args.trace:
        from repro.metrics.base import cache_stats

        install(recorder)
    recorder.enabled = False
    op_ms = {"off": [], "on": []}
    failed = 0
    cache = {"hits": 0, "misses": 0}
    rounds = 0
    started = time.perf_counter()
    while True:
        recorder.enabled = bool(args.trace) and rounds % 2 == 1
        for op in ops:
            if recorder.enabled:
                before = cache_stats()
            try:
                with recorder.span("op"):
                    t0 = time.perf_counter()
                    result = op.run()
                    elapsed = time.perf_counter() - t0
            except Exception:
                # A failed op, not a wrong output: counted, not checked.
                failed += 1
                traceback.print_exc()
                continue
            if recorder.enabled:
                after = cache_stats()
                for key in cache:
                    cache[key] += after[key] - before[key]
            op_ms["on" if recorder.enabled else "off"].append(1000.0 * elapsed)
            try:
                out["digests"].setdefault(op.name, []).append(op.check(result))
            except checks.CheckError as exc:
                out["errors"].append(str(exc))
            del result
        rounds += 1
        done = len(op_ms["off"]) + len(op_ms["on"]) + failed
        if (
            out["errors"]
            or (
                time.perf_counter() - started >= args.seconds
                and done >= args.min_ops
                and (not args.trace or rounds % 2 == 0)
            )
        ):
            break
    recorder.enabled = False
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["failed"] = failed
    out["op_ms"] = op_ms["off"] + op_ms["on"]
    for name, digests in out["digests"].items():
        try:
            checks.check_same(f"{name} result", digests)
        except checks.CheckError as exc:
            out["errors"].append(str(exc))
    if not out["errors"]:
        try:
            reference_check(config, args.seed)
        except checks.CheckError as exc:
            out["errors"].append(str(exc))
    if args.trace:
        layers = layer_metrics(ops_of(recorder.spans, ("op",)))
        looked_up = cache["hits"] + cache["misses"]
        layers["metrics.cache_hit_ratio"] = cache["hits"] / looked_up if looked_up else 0.0
        off, on = statistics.median(op_ms["off"]), statistics.median(op_ms["on"])
        layers["trace.overhead_pct"] = 100.0 * (on - off) / off
        out["layers"] = layers
        out["traced_p50_ms"], out["untraced_p50_ms"] = on, off
    out["digests"] = {name: sorted(set(d)) for name, d in out["digests"].items()}
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
