"""Seeded inputs for every workload.

Everything a workload feeds the program is made here from ``--seed`` and
written into the run's work directory before any timing starts.  The
returned config (JSON-safe) tells the worker and the checks what was
written; expected outputs are computed by :mod:`perfbench.checks`.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from perfbench import checks

#: the eight metrics of every sweep spec: neighbourhood (CN, JC, AA, RA,
#: BRA), global (PA over all pairs) and path/walk based (Katz_lr, LRW).
SWEEP_METRICS = ("CN", "JC", "AA", "RA", "BRA", "PA", "Katz_lr", "LRW")
SWEEP_PRESETS = ("facebook", "renren", "youtube")
#: every block of five serve reads asks for each of these once, in a
#: seeded order.
SERVE_METRICS = ("CN", "AA", "RA", "JC", "PA")

#: per-workload sizes; ``smoke`` sizes finish in seconds for the tests.
SIZES = {
    "sweep": {"scale": 1.0},
    "sweep_smoke": {"scale": 0.3},
    "sweep_filtered": {"scale": 0.5},
    "sweep_filtered_smoke": {"scale": 0.3},
    "serve": {"scale": 0.5},
    "serve_smoke": {"scale": 0.3},
}

SERVE_READS = 2000
SERVE_K = 10
#: events per /ingest batch, of which one duplicates a base edge.
SERVE_BATCH = 16
#: one /ingest batch every WRITE_PERIOD_S from WRITE_OFFSET_S after the
#: start.  Each batch makes the next PA read cold, and a 30 s run makes
#: 8,000-20,000 reads, so its 6 batches keep the cold reads well inside
#: the 80-200 reads beyond the serve p99: that percentile then stays in
#: the warm reads instead of on the boundary with the cold ones.
WRITE_PERIOD_S = 5.0
WRITE_OFFSET_S = 1.0

_STREAMS = {"sweep": 2, "sweep_filtered": 3, "serve": 4}

#: seed of the preset graph generators.  A preset's cost depends strongly
#: on its generator seed (hub degrees set the candidate counts), so the
#: graphs are fixed and ``--seed`` relabels their nodes instead: every
#: seed gives new inputs, ordering and ties with the same amount of work.
GRAPH_SEED = 0


def write_events(path: Path, u: np.ndarray, v: np.ndarray, t: np.ndarray) -> None:
    """Write ``u v t`` lines; ``repr`` keeps every timestamp exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# u v t(days)\n")
        fh.writelines(
            f"{a} {b} {w!r}\n" for a, b, w in zip(u.tolist(), v.tolist(), t.tolist())
        )


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload]])


def _preset_columns(preset: str, scale: float, rng: np.random.Generator):
    """A preset trace with its node ids permuted by ``rng``."""
    from repro.generators import presets

    trace = presets.load(preset, scale=scale, seed=GRAPH_SEED)
    u, v, t = (np.asarray(c) for c in trace.columns())
    perm = rng.permutation(int(max(u.max(), v.max())) + 1)
    return perm[u], perm[v], t, presets.snapshot_delta(preset, scale)


def make_sweep(seed: int, work: Path, smoke: bool, filtered: bool) -> dict:
    """One ``run_experiment`` spec per preset (facebook alone if filtered).

    Each spec reads a trace file written here (the preset's graph with
    seeded node ids), uses the preset's snapshot
    delta, two prediction steps from a third of the way in, one repeat
    and serial execution.  ``stats`` holds ``k``, ``|T|`` and ``M`` of
    every step, counted from the written columns.
    """
    workload = "sweep_filtered" if filtered else "sweep"
    scale = SIZES[f"{workload}_smoke" if smoke else workload]["scale"]
    names = ("facebook",) if filtered else SWEEP_PRESETS
    rng = _rng(workload, seed)
    specs, stats = [], {}
    for preset in names:
        u, v, t, delta = _preset_columns(preset, scale, rng)
        path = f"{preset}.txt"
        write_events(work / path, u, v, t)
        au, av, _ = checks.sort_dedupe(u, v, t)
        start = max(delta, len(au) // 3)
        name = f"{preset}-filtered" if filtered else preset
        specs.append(
            {
                "name": name,
                "dataset": path,
                "delta": delta,
                "start": start,
                "metrics": list(SWEEP_METRICS),
                "repeats": 1,
                "max_steps": 2,
                "with_filter": filtered,
                "n_jobs": 1,
            }
        )
        stats[name] = checks.step_stats(au, av, [start, start + delta, start + 2 * delta])
    return {"workload": workload, "specs": specs, "stats": stats}


def make_serve(seed: int, work: Path, smoke: bool, seconds: float) -> dict:
    """A youtube-like base trace (seeded node ids), reads and write batches.

    Reads cycle a seeded list of ``(u, metric)``: ``u`` uniform over the
    nodes with edges, and every block of five reads one of each
    ``SERVE_METRICS`` in a seeded order.  There is one write batch for
    every ``WRITE_PERIOD_S`` of ``seconds``.  Each holds 15 new edges at
    increasing times past the stream's end (three of them introduce a
    new node) and, at a seeded position, one base edge again with its
    endpoints swapped: a known duplicate.
    """
    scale = SIZES["serve_smoke" if smoke else "serve"]["scale"]
    rng = _rng("serve", seed)
    u, v, t, _ = _preset_columns("youtube", scale, rng)
    write_events(work / "serve.txt", u, v, t)
    bu, bv, bt = checks.sort_dedupe(u, v, t)
    np.savez(work / "serve_base.npz", u=bu, v=bv)
    nodes = np.unique(np.concatenate((bu, bv)))

    reads = []
    for _ in range(SERVE_READS // len(SERVE_METRICS)):
        for metric in rng.permutation(SERVE_METRICS).tolist():
            reads.append([int(rng.choice(nodes)), metric])

    existing = set(zip(bu.tolist(), bv.tolist()))
    next_node = int(nodes.max()) + 1
    clock = float(bt[-1])
    batches = []
    for _ in range(max(1, math.ceil((seconds - WRITE_OFFSET_S) / WRITE_PERIOD_S))):
        events = []
        while len(events) < SERVE_BATCH - 1:
            if len(events) % 5 == 4:
                a, b = next_node, int(rng.choice(nodes))
                next_node += 1
            else:
                a, b = (int(x) for x in rng.choice(nodes, size=2, replace=False))
            pair = (min(a, b), max(a, b))
            if pair in existing:
                continue
            existing.add(pair)
            clock += 0.001
            events.append([a, b, clock])
        dup = int(rng.integers(len(bu)))
        slot = int(rng.integers(SERVE_BATCH))
        clock += 0.001
        events.insert(slot, [int(bv[dup]), int(bu[dup]), clock])
        # Times must rise through the batch whatever the duplicate's slot.
        for i, when in enumerate(sorted(e[2] for e in events)):
            events[i][2] = when
        batches.append({"events": events, "duplicate": slot})
    return {
        "workload": "serve",
        "trace": "serve.txt",
        "base": "serve_base.npz",
        "base_edges": int(len(bu)),
        "reads": reads,
        "k": SERVE_K,
        "batches": batches,
        "write_period_s": WRITE_PERIOD_S,
        "write_offset_s": WRITE_OFFSET_S,
    }


def make(workload: str, seed: int, work: Path, smoke: bool, seconds: float) -> dict:
    if workload in ("sweep", "sweep_filtered"):
        return make_sweep(seed, work, smoke, workload == "sweep_filtered")
    if workload == "serve":
        return make_serve(seed, work, smoke, seconds)
    raise ValueError(f"unknown workload {workload!r}")
