"""Span recorder and the timing wrappers that feed it.

The benchmark records spans from its own files: each layer function is
replaced, where its caller looks it up, by a wrapper that records
``(name, start, end, parent)`` into memory.  Nothing inside the program
changes.  Spans are kept in memory and written out when the run ends.

Layer names follow the program's modules: ``ingest``, ``graph``,
``metrics``, ``eval``, ``temporal`` and ``serve``.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager

#: per-layer time metric -> the span names whose self time it sums.
TIME_LAYERS = {
    "ingest.scan_ms": ("ingest.scan",),
    "graph.from_columns_ms": ("graph.from_columns",),
    "graph.audit_ms": ("graph.audit",),
    "graph.snapshots_ms": ("graph.snapshots",),
    "metrics.candidates_ms": ("metrics.candidates",),
    "metrics.fit_ms": ("metrics.fit",),
    "metrics.score_ms": ("metrics.score",),
    "temporal.calibrate_ms": ("temporal.calibrate",),
    "temporal.filter_ms": ("temporal.filter",),
    "eval.rank_ms": ("eval.rank",),
    "eval.fill_ms": ("eval.fill",),
    "eval.accuracy_ms": ("eval.accuracy",),
}

#: every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS = {
    **{name: "ms" for name in TIME_LAYERS},
    "metrics.candidate_pairs": "count",
    "metrics.pairs_scored": "count",
    "metrics.cache_hit_ratio": "ratio",
    "temporal.filter_distinct_ratio": "ratio",
    "eval.unattributed_ms": "ms",
    "serve.predict_ms": "ms",
    "serve.read_wait_ms": "ms",
    "serve.candidate_keep_ratio": "ratio",
    "serve.cold_reads": "count",
    "serve.cold_predict_ms": "ms",
    "serve.ingest_ms": "ms",
    "serve.write_wait_ms": "ms",
    "serve.write_p50_ms": "ms",
    "graph.wal_append_ms": "ms",
    "graph.delta_apply_ms": "ms",
    "graph.materialize_ms": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead_pct": "%",
}


class SpanRecorder:
    """In-memory spans with per-thread parent tracking.

    ``enabled`` switches recording without removing the wrappers;
    ``phase`` counts those switches so a reader can tell which spans
    belong to which part of a run.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = True
        self.phase = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def toggle(self) -> None:
        self.enabled = not self.enabled
        self.phase += 1

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (when enabled).

        Yields the span's attribute dict, which the block may fill.
        """
        if not self.enabled:
            yield {}
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "phase": self.phase, "attrs": attrs}
            )

    def wrap(
        self,
        name: str,
        fn: Callable,
        pre: "Callable | None" = None,
        post: "Callable | None" = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``pre(args, kwargs)`` runs before the call and its value reaches
        ``post(args, kwargs, result, pre_value)``, whose dict becomes the
        span's attributes.  Neither runs while recording is off.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre is not None else None
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if post is not None:
                    attrs.update(post(args, kwargs, result, before))
            return result

        return wrapper


# ---------------------------------------------------------------------------
# Attribute probes
# ---------------------------------------------------------------------------
_CANDIDATE_CACHE_KEYS = {"two_hop": "pairs_two_hop", "all": "pairs_all"}


def _candidates_pre(args, kwargs):
    snapshot, strategy = args
    return _CANDIDATE_CACHE_KEYS[strategy] not in snapshot.cache


def _candidates_post(args, kwargs, result, cold):
    return {"rows": int(len(result)), "cold": bool(cold)}


def _score_post(args, kwargs, result, _):
    return {"pairs": int(len(args[2]))}


def _filter_post(args, kwargs, result, _):
    _, snapshot, pairs = args
    return {"input": f"{id(snapshot)}:{id(pairs)}"}


def _predict_post(args, kwargs, result, _):
    return {"candidates": int(result["candidates"])}


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer function for the rest of the process.

    Each function is patched where its caller looks it up, so
    ``repro.eval.experiment.candidate_pairs`` is wrapped in the
    experiment module and again, separately, in the serving store.
    """
    import repro.eval.experiment as experiment
    import repro.eval.runner as runner
    import repro.graph.audit as audit
    import repro.ingest.loader as loader
    import repro.serve.store as store
    from repro.graph.delta import DeltaGraph
    from repro.graph.dyngraph import TemporalGraph
    from repro.metrics.base import _REGISTRY, SimilarityMetric
    from repro.serve.durability import DurabilityManager
    from repro.temporal.filters import TemporalFilter

    def patch(owner, attr, name, pre=None, post=None, kind=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "classmethod":
            wrapped = classmethod(recorder.wrap(name, original.__func__, pre, post))
        else:
            wrapped = recorder.wrap(name, original, pre, post)
        setattr(owner, attr, wrapped)

    patch(loader, "scan_trace", "ingest.scan")
    patch(TemporalGraph, "from_columns", "graph.from_columns", kind="classmethod")
    patch(audit, "require_clean", "graph.audit")
    patch(runner, "snapshot_sequence", "graph.snapshots")
    patch(experiment, "new_edges_between", "graph.snapshots")
    for module in (experiment, store):
        patch(module, "candidate_pairs", "metrics.candidates", _candidates_pre, _candidates_post)
        patch(module, "score_pairs", "metrics.score", post=_score_post)
    patch(
        runner, "two_hop_pairs", "metrics.candidates",
        lambda args, kwargs: "pairs_two_hop" not in args[0].cache, _candidates_post,
    )
    # Wrap each class that defines the ``fit`` a registered metric runs.
    owners = {
        next(k for k in cls.__mro__ if "fit" in k.__dict__) for cls in _REGISTRY.values()
    }
    for owner in owners - {SimilarityMetric}:
        patch(owner, "fit", "metrics.fit")
    patch(runner, "calibrate_filter", "temporal.calibrate")
    patch(TemporalFilter, "__call__", "temporal.filter", post=_filter_post)
    patch(experiment, "top_k_pairs", "eval.rank")
    patch(experiment, "random_nonedge_pairs", "eval.fill")
    patch(experiment, "score_prediction", "eval.accuracy")
    patch(store.ScoreStore, "predict", "serve.predict", post=_predict_post)
    patch(store.ScoreStore, "ingest_lines", "serve.ingest")
    patch(DurabilityManager, "record_batch", "graph.wal_append")
    patch(DeltaGraph, "apply", "graph.delta_apply")
    patch(DeltaGraph, "materialize", "graph.materialize")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def _median(values: "list[float]") -> float:
    return float(statistics.median(values)) if values else 0.0


def ops_of(spans: "list[dict]", roots: "tuple[str, ...]") -> "list[dict]":
    """Group spans under their top-level op span.

    Returns one dict per op: ``root`` (the op span), ``spans`` (every
    span below it) and ``self_ms`` (span id -> self time in ms, i.e. its
    duration minus the part its child spans cover).
    """
    by_id = {s["id"]: s for s in spans}
    child_sum: dict[int, float] = {}
    for s in spans:
        if s["parent"] in by_id:
            child_sum[s["parent"]] = child_sum.get(s["parent"], 0.0) + s["end"] - s["start"]
    root_of: dict[int, int] = {}

    def find_root(s: dict) -> int:
        chain = []
        while s["parent"] in by_id and s["id"] not in root_of:
            chain.append(s["id"])
            s = by_id[s["parent"]]
        top = root_of.get(s["id"], s["id"])
        for sid in chain:
            root_of[sid] = top
        return top

    ops: dict[int, dict] = {}
    for s in spans:
        top = find_root(s)
        root = by_id[top]
        if root["name"] not in roots:
            continue
        op = ops.setdefault(top, {"root": root, "spans": [], "self_ms": {}})
        op["spans"].append(s)
        op["self_ms"][s["id"]] = 1000.0 * (s["end"] - s["start"] - child_sum.get(s["id"], 0.0))
    return sorted(ops.values(), key=lambda op: op["root"]["start"])


def layer_metrics(ops: "list[dict]") -> dict:
    """Per-op medians of every layer's self time, plus the span counts."""
    out: dict[str, float] = {}
    for metric, names in TIME_LAYERS.items():
        out[metric] = _median(
            [
                sum(op["self_ms"][s["id"]] for s in op["spans"] if s["name"] in names)
                for op in ops
            ]
        )

    def summed(name: str, attr: str) -> "list[float]":
        return [
            float(sum(s["attrs"].get(attr, 0) for s in op["spans"] if s["name"] == name))
            for op in ops
        ]

    out["metrics.candidate_pairs"] = _median(summed("metrics.candidates", "rows"))
    out["metrics.pairs_scored"] = _median(summed("metrics.score", "pairs"))
    calls = distinct = 0
    for op in ops:
        inputs = [s["attrs"]["input"] for s in op["spans"] if s["name"] == "temporal.filter"]
        calls += len(inputs)
        distinct += len(set(inputs))
    out["temporal.filter_distinct_ratio"] = distinct / calls if calls else 0.0
    unattributed = [op["self_ms"][op["root"]["id"]] for op in ops]
    total = sum(1000.0 * (op["root"]["end"] - op["root"]["start"]) for op in ops)
    out["eval.unattributed_ms"] = _median(unattributed)
    out["trace.unattributed_share"] = sum(unattributed) / total if total else 0.0
    return out


def empty_per_layer() -> dict:
    """Every per-layer metric at zero: the layer did no work in this workload."""
    return {name: 0.0 for name in PER_LAYER_UNITS}
