"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from
``src/``.  Workloads:

- ``sweep``: repeated ``run_experiment``, one spec per preset;
- ``sweep_filtered``: the facebook spec with the temporal filter on;
- ``serve``: ``repro serve --wal`` under closed-loop reads and
  scheduled writes.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a run with the layer wrappers
installed.  ``--smoke`` shrinks the inputs so a run takes seconds.
Exit code 0 when every output checked correct, 1 when one did not,
2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep", "sweep_filtered", "serve")
#: set-up is measured this many times per run, in fresh processes, half
#: of them before the timed part and half after it, so that the samples
#: span the run; the median is reported.
SETUP_SAMPLES = 5
#: a run keeps going past ``--seconds`` until it has this many timed ops.
MIN_OPS = {"sweep": 40, "sweep_filtered": 40, "serve": 1000}
#: the tail percentile reported as ``op_tail_ms``: the highest with at
#: least ten ops beyond it at the ``MIN_OPS`` floor.
TAIL_PERCENTILE = {"sweep": 75, "sweep_filtered": 75, "serve": 99}
#: share of a traced serve run spent with recording off (the overhead's base).
SERVE_UNTRACED_SHARE = 0.3
READY_TIMEOUT_S = 120.0
#: every 5th CN read has each predicted score recounted from the edge set.
CN_CHECK_EVERY = 5


class BenchError(RuntimeError):
    """The benchmark could not run the workload."""


def _percentile(values: "list[float]", pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct)) if values else 0.0


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))


# ---------------------------------------------------------------------------
# run_experiment workloads
# ---------------------------------------------------------------------------
def _spawn_worker(root: Path, work: Path, args, mode: str, tag: str) -> "tuple[dict, float]":
    out = work / f"worker-{tag}.json"
    err_path = work / f"worker-{tag}.err"
    cmd = [
        sys.executable, "-m", "perfbench.worker", "--config", "inputs.json",
        "--mode", mode, "--seconds", str(args.seconds),
        "--min-ops", str(0 if args.smoke else MIN_OPS[args.workload]),
        "--trace", str(args.trace), "--seed", str(args.seed), "--out", str(out),
    ]
    started = time.perf_counter()
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            cmd, cwd=work, env=_env(root), stdout=subprocess.PIPE, stderr=err, text=True
        )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            line = ""
            while not line and time.perf_counter() - started < READY_TIMEOUT_S:
                if sel.select(timeout=0.5):
                    line = proc.stdout.readline() or "eof"
        setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready: {err_path.read_text()[-3000:]}")
        code = proc.wait(timeout=args.seconds + READY_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited {code}: {err_path.read_text()[-3000:]}")
    return json.loads(out.read_text()), setup_s


def run_worker_workload(root: Path, work: Path, args) -> dict:
    from perfbench import checks
    from perfbench.spans import PER_LAYER_UNITS, empty_per_layer

    samples = 1 if args.trace or args.smoke else SETUP_SAMPLES
    setups, results = [], []

    def setup_only(i: int) -> None:
        result, setup_s = _spawn_worker(root, work, args, "setup", f"setup{i}")
        setups.append(setup_s)
        results.append(result)

    for i in range((samples - 1) // 2):
        setup_only(i)
    main, setup_s = _spawn_worker(root, work, args, "main", "main")
    setups.append(setup_s)
    results.append(main)
    for i in range((samples - 1) // 2, samples - 1):
        setup_only(i)

    errors = [e for r in results for e in r["errors"]]
    names = {name for r in results for name in r["digests"]}
    for name in sorted(names):
        digests = [d for r in results for d in r["digests"].get(name, [])]
        try:
            checks.check_same(f"{name} result across processes", digests)
        except checks.CheckError as exc:
            errors.append(str(exc))
    for name, digests in sorted(main["digests"].items()):
        print(f"digest {name} {' '.join(digests)}", file=sys.stderr)

    op_ms = main.get("op_ms", [])
    if args.trace:
        layers = empty_per_layer()
        layers.update(main.get("layers", {}))
        metrics = {name: (layers[name], PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}
        print(
            f"tracing overhead: op p50 {main.get('untraced_p50_ms', 0):.1f} ms untraced, "
            f"{main.get('traced_p50_ms', 0):.1f} ms traced",
            file=sys.stderr,
        )
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (main.get("rss_mb", 0.0), "MB"),
            "op_p50_ms": (statistics.median(op_ms) if op_ms else 0.0, "ms"),
            "ops_per_s": (1000.0 * len(op_ms) / sum(op_ms) if op_ms else 0.0, "ops/s"),
            "op_tail_ms": (_percentile(op_ms, TAIL_PERCENTILE[args.workload]), "ms"),
        }
    failed = main.get("failed", 0)
    return {
        "correct": not errors,
        "attempted": len(op_ms) + failed,
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# serve workload
# ---------------------------------------------------------------------------
def _serve_checks(work: Path, config: dict, result: dict) -> "tuple[list[str], int]":
    """Every read and write of a serve run against the benchmark's edge set."""
    import numpy as np

    from perfbench import checks
    from perfbench.inputs import SERVE_BATCH

    errors: list[str] = []
    failed = 0
    with np.load(work / config["base"]) as data:
        stream = checks.EdgeStream(data["u"], data["v"])
    applied = 0
    for write in sorted(result["writes"], key=lambda w: w["batch"]):
        if write["status"] != 200:
            failed += 1
            errors.append(f"/ingest batch {write['batch']} returned {write['status']}")
            continue
        batch = config["batches"][write["batch"]]
        try:
            checks.check_write_ack(json.loads(write["body"]), SERVE_BATCH, 1)
        except checks.CheckError as exc:
            errors.append(str(exc))
        events = [e for i, e in enumerate(batch["events"]) if i != batch["duplicate"]]
        stream.extend([(a, b) for a, b, _ in events])
        applied += len(events)
    cn_reads = 0
    for read in result["reads"]:
        if read["status"] != 200:
            failed += 1
            errors.append(f"/predict u={read['u']} {read['metric']} returned {read['status']}")
            continue
        verify_cn = read["metric"] == "CN" and cn_reads % CN_CHECK_EVERY == 0
        cn_reads += read["metric"] == "CN"
        try:
            checks.check_prediction(json.loads(read["body"]), read["u"], config["k"], stream, verify_cn)
        except checks.CheckError as exc:
            errors.append(str(exc))
    try:
        checks.check_final_edges(result["statz"], config["base_edges"], applied)
    except checks.CheckError as exc:
        errors.append(str(exc))
    return errors, failed


def _serve_layers(spans: "list[dict]", result: dict) -> dict:
    from perfbench.spans import empty_per_layer, layer_metrics, ops_of

    out = empty_per_layer()
    startup = [s for s in spans if s["phase"] == 0]
    traced = [s for s in spans if s["phase"] == 2]
    reads = ops_of(traced, ("serve.predict",))
    writes = ops_of(traced, ("serve.ingest",))
    for name in ("ingest.scan", "graph.from_columns"):
        out[f"{name}_ms"] = 1000.0 * sum(s["end"] - s["start"] for s in startup if s["name"] == name)
    layers = layer_metrics(reads)
    for name in (
        "metrics.candidates_ms", "metrics.fit_ms", "metrics.score_ms",
        "metrics.candidate_pairs", "metrics.pairs_scored",
        "eval.unattributed_ms", "trace.unattributed_share",
    ):
        out[name] = layers[name]

    def median_ms(values: "list[float]") -> float:
        return statistics.median(values) if values else 0.0

    def root_ms(op: dict) -> float:
        return 1000.0 * (op["root"]["end"] - op["root"]["start"])

    def wait_ms(latencies: "list[float]", ops: "list[dict]") -> float:
        """Client latency minus the server span, request by request.

        Each connection sends one request at a time, so the n-th request
        of the traced part is the n-th root span; should the counts
        differ, the medians are subtracted instead.
        """
        spans_ms = [root_ms(op) for op in ops]
        if latencies and len(latencies) == len(spans_ms):
            return median_ms([a - b for a, b in zip(latencies, spans_ms)])
        return median_ms(latencies) - median_ms(spans_ms)

    cold = [any(s["attrs"].get("cold") for s in op["spans"]) for op in reads]
    out["serve.predict_ms"] = median_ms([root_ms(op) for op in reads])
    out["serve.cold_predict_ms"] = median_ms([root_ms(op) for op, c in zip(reads, cold) if c])
    rows = sum(s["attrs"].get("rows", 0) for op in reads for s in op["spans"] if s["name"] == "metrics.candidates")
    kept = sum(op["root"]["attrs"].get("candidates", 0) for op in reads)
    out["serve.candidate_keep_ratio"] = kept / rows if rows else 0.0
    out["serve.cold_reads"] = float(sum(cold))
    out["serve.ingest_ms"] = median_ms([root_ms(op) for op in writes])
    for name in ("graph.wal_append", "graph.delta_apply", "graph.materialize"):
        out[f"{name}_ms"] = median_ms(
            [1000.0 * sum(s["end"] - s["start"] for s in op["spans"] if s["name"] == name) for op in writes]
        )
    read_ms = {p: [r["latency_ms"] for r in result["reads"] if r["phase"] == p] for p in (1, 2)}
    write_ms = [w["latency_ms"] for w in result["writes"] if w["phase"] == 2]
    out["serve.read_wait_ms"] = wait_ms(read_ms[2], reads)
    out["serve.write_p50_ms"] = median_ms(write_ms)
    out["serve.write_wait_ms"] = wait_ms(write_ms, writes)
    off, on = median_ms(read_ms[1]), median_ms(read_ms[2])
    out["trace.overhead_pct"] = 100.0 * (on - off) / off if off else 0.0
    print(f"tracing overhead: read p50 {off:.2f} ms untraced, {on:.2f} ms traced", file=sys.stderr)
    return out


def run_serve_workload(root: Path, work: Path, args, config: dict) -> dict:
    from perfbench import loadgen
    from perfbench.spans import PER_LAYER_UNITS

    loadgen.pin_to_one_cpu()
    samples = 1 if args.trace or args.smoke else SETUP_SAMPLES
    setups = []

    def setup_only(i: int) -> None:
        server = loadgen.Server(root, work, config, f"setup{i}", None)
        setups.append(server.setup_s)
        server.stop()

    for i in range((samples - 1) // 2):
        setup_only(i)
    spans_path = work / "spans.json" if args.trace else None
    server = loadgen.Server(root, work, config, "main", spans_path)
    setups.append(server.setup_s)
    try:
        result = loadgen.drive(
            server, config, args.seconds,
            0 if args.smoke else MIN_OPS["serve"],
            SERVE_UNTRACED_SHARE if args.trace else None,
        )
        rss_mb = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    server.stop()
    errors, failed = _serve_checks(work, config, result)
    code, text = loadgen.verify_wal(root, server.wal)
    if code != 0:
        errors.append(f"WAL did not verify clean after shutdown: {text[-1000:]}")
    for i in range((samples - 1) // 2, samples - 1):
        setup_only(i)

    reads_ms = [r["latency_ms"] for r in result["reads"]]
    writes_ms = [w["latency_ms"] for w in result["writes"]]
    late = max((w["late_ms"] for w in result["writes"]), default=0.0)
    print(
        f"serve: {len(reads_ms)} reads, {len(writes_ms)} writes, write p50 "
        f"{statistics.median(writes_ms) if writes_ms else 0.0:.1f} ms, writer at most "
        f"{late:.1f} ms late",
        file=sys.stderr,
    )
    if args.trace:
        spans = json.loads(spans_path.read_text())
        layers = _serve_layers(spans, result)
        metrics = {name: (layers[name], PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "op_p50_ms": (statistics.median(reads_ms), "ms"),
            "ops_per_s": (len(reads_ms) / result["wall_s"], "ops/s"),
            "op_tail_ms": (_percentile(reads_ms, TAIL_PERCENTILE["serve"]), "ms"),
        }
    return {
        "correct": not errors,
        "attempted": len(reads_ms) + len(writes_ms),
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
    }


# ---------------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, no op floor")
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [
        p for p in ("src/repro/__init__.py", "tests/reference_implementations.py")
        if not (root / p).is_file()
    ]
    if missing:
        print(f"error: run from a checkout of the program; missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import inputs

    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = inputs.make(args.workload, args.seed, work, args.smoke, args.seconds)
    (work / "inputs.json").write_text(json.dumps(config))
    if args.workload == "serve":
        outcome = run_serve_workload(root, work, args, config)
    else:
        outcome = run_worker_workload(root, work, args)
    for error in outcome["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    if outcome["correct"]:
        shutil.rmtree(work, ignore_errors=True)
        if not any((root / ".perfbench-work").iterdir()):
            (root / ".perfbench-work").rmdir()
    else:
        print(f"inputs and logs kept in {work}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
