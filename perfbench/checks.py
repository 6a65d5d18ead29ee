"""Output checks, computed apart from the program.

Nothing here imports ``repro``: every expected value is derived with
NumPy from the inputs the benchmark itself wrote, so a fault in the
program cannot hide by appearing in both the output and its oracle.
Every check raises :class:`CheckError` on a wrong output.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """A program output disagreed with the benchmark's own expectation."""


def _fail(message: str) -> None:
    raise CheckError(message)


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------
def sort_dedupe(
    u: np.ndarray, v: np.ndarray, t: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The accepted stream of a ``u v t`` file under the default policy.

    Events are stably sorted by time (file order breaks ties), endpoints
    are canonicalised to ``u < v``, and only the first event of each pair
    is kept.  Self-loops are not expected in benchmark inputs.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    t = np.asarray(t, dtype=np.float64)
    order = np.argsort(t, kind="stable")
    lo = np.minimum(u, v)[order]
    hi = np.maximum(u, v)[order]
    ts = t[order]
    keys = lo * (int(max(hi.max(initial=0), lo.max(initial=0))) + 1) + hi
    _, first = np.unique(keys, return_index=True)
    keep = np.sort(first)
    return lo[keep], hi[keep], ts[keep]


def step_stats(
    u: np.ndarray, v: np.ndarray, cutoffs: "list[int]"
) -> "list[dict]":
    """``k``, ``|T|`` and ``M`` of each step between consecutive cutoffs.

    ``u``/``v`` are the accepted stream in time order.  The ground truth of
    the step from cutoff ``a`` to ``b`` is every edge among events
    ``a..b-1`` whose endpoints both appear in the first ``a`` events; ``M``
    counts the unconnected pairs of that earlier snapshot.  ``k = |T|``.
    """
    stats = []
    for a, b in zip(cutoffs, cutoffs[1:]):
        nodes = np.unique(np.concatenate((u[:a], v[:a])))
        inside = np.isin(u[a:b], nodes) & np.isin(v[a:b], nodes)
        truth = int(np.count_nonzero(inside))
        n = len(nodes)
        stats.append({"k": truth, "truth": truth, "m": n * (n - 1) // 2 - a})
    return stats


def _check_ratio(where: str, ratio: float, hits: float, stat: dict) -> None:
    k, truth, m = stat["k"], stat["truth"], stat["m"]
    expected = 0.0 if k == 0 or truth == 0 or m <= 0 else hits * m / (k * truth)
    if not math.isclose(ratio, expected, rel_tol=1e-12, abs_tol=1e-12):
        _fail(f"{where}: ratio {ratio!r} != hits*M/(k*|T|) = {expected!r}")


def check_sweep_result(payload: dict, stats: "list[dict]", filtered: bool) -> None:
    """A canonical ``ExperimentResult`` JSON payload against ``step_stats``."""
    series = payload.get("series") or {}
    metrics = payload.get("spec", {}).get("metrics", [])
    if sorted(series) != sorted(metrics):
        _fail(f"result series {sorted(series)} != spec metrics {sorted(metrics)}")
    if payload.get("steps_evaluated") != len(stats):
        _fail(f"{payload.get('steps_evaluated')} steps evaluated, expected {len(stats)}")
    for name, data in series.items():
        ratios, absolutes = data["ratios"], data["absolutes"]
        if len(ratios) != len(stats) or len(absolutes) != len(stats):
            _fail(f"{name}: {len(ratios)} ratios for {len(stats)} steps")
        for step, stat in enumerate(stats):
            where = f"{name} step {step}"
            k = stat["k"]
            hits = absolutes[step] * k
            if abs(hits - round(hits)) > 1e-9 or not 0 <= round(hits) <= k:
                _fail(f"{where}: hits = absolute*k = {hits!r} is not an integer in [0, {k}]")
            _check_ratio(where, ratios[step], round(hits), stat)
        filtered_ratios = data.get("filtered_ratios")
        if not filtered:
            if filtered_ratios is not None:
                _fail(f"{name}: filtered ratios on an unfiltered spec")
            continue
        if filtered_ratios is None or len(filtered_ratios) != len(stats):
            _fail(f"{name}: missing filtered ratios")
        for step, stat in enumerate(stats):
            k, truth, m = stat["k"], stat["truth"], stat["m"]
            hits = filtered_ratios[step] * k * truth / m if m > 0 else 0.0
            if not 0 <= round(hits) <= k:
                _fail(f"{name} step {step}: filtered hits {hits!r} outside [0, {k}]")
            _check_ratio(f"{name} step {step} (filtered)", filtered_ratios[step], round(hits), stat)


def check_same(kind: str, values: "list[str]") -> None:
    """Every value (e.g. a result digest) must be identical."""
    distinct = sorted(set(values))
    if len(distinct) > 1:
        _fail(f"{kind} differs between repeats: {distinct}")


def check_reference_scores(metric: str, got: np.ndarray, want: np.ndarray) -> None:
    """Program scores against the loop-based reference implementation."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        _fail(f"{metric}: {got.shape} scores, reference has {want.shape}")
    bad = ~np.isclose(got, want, rtol=1e-9, atol=1e-12)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        _fail(f"{metric}: score {got[i]!r} != reference {want[i]!r} at pair {i}")


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------
class EdgeStream:
    """The served edge stream: base trace plus every applied write, in order.

    A response's ``snapshot.edges`` names a prefix of this stream, which
    fixes the edge set its predictions were computed on.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)

    def extend(self, pairs: "list[tuple[int, int]]") -> None:
        if pairs:
            arr = np.asarray(pairs, dtype=np.int64)
            self.u = np.concatenate((self.u, arr[:, 0]))
            self.v = np.concatenate((self.v, arr[:, 1]))

    def __len__(self) -> int:
        return len(self.u)

    def neighbors(self, node: int, edges: int) -> np.ndarray:
        if not 0 < edges <= len(self.u):
            _fail(f"response names a {edges}-edge snapshot; the stream has {len(self.u)}")
        u, v = self.u[:edges], self.v[:edges]
        return np.union1d(v[u == node], u[v == node])


def check_prediction(
    body: dict, u: int, k: int, stream: EdgeStream, verify_cn: bool
) -> None:
    """One ``/predict`` response: order, exclusions, size, and CN scores."""
    if body.get("u") != u or body.get("k") != k:
        _fail(f"response for u={body.get('u')} k={body.get('k')}, asked u={u} k={k}")
    predictions = body.get("predictions")
    if not isinstance(predictions, list) or len(predictions) > k:
        _fail(f"u={u}: {len(predictions or [])} predictions for k={k}")
    edges = int(body["snapshot"]["edges"])
    mine = stream.neighbors(u, edges)
    keys = [(-p["score"], p["v"]) for p in predictions]
    if keys != sorted(keys):
        _fail(f"u={u}: predictions not sorted by descending score, ascending node")
    others = np.asarray([p["v"] for p in predictions], dtype=np.int64)
    if len(set(others.tolist())) != len(others):
        _fail(f"u={u}: a neighbour is predicted twice")
    if np.any(others == u):
        _fail(f"u={u}: predicts itself")
    linked = np.isin(others, mine)
    if linked.any():
        _fail(f"u={u}: predicts existing neighbour {int(others[linked][0])}")
    if verify_cn:
        for p in predictions:
            common = len(np.intersect1d(mine, stream.neighbors(p["v"], edges)))
            if p["score"] != float(common):
                _fail(
                    f"CN({u}, {p['v']}) = {p['score']!r} on the {edges}-edge "
                    f"snapshot; the edge set has {common} common neighbours"
                )


def check_write_ack(body: dict, sent: int, duplicates: int) -> None:
    applied = body.get("applied")
    if applied != sent - duplicates:
        _fail(f"/ingest applied {applied} of {sent} events; {duplicates} were duplicates")
    rejected = body.get("rejected", {})
    if rejected.get("duplicate_edge", 0) != duplicates:
        _fail(f"/ingest rejected {rejected}, expected {duplicates} duplicate_edge")


def check_final_edges(statz: dict, base_edges: int, applied: int) -> None:
    store = statz.get("store", {})
    want = base_edges + applied
    for key in ("snapshot_edges", "engine_edges"):
        if store.get(key) != want:
            _fail(f"/statz {key} = {store.get(key)}, expected {base_edges} + {applied}")
