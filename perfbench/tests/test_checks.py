"""Each output check passes the program's real output and fails a wrong one.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from perfbench import checks, inputs, loadgen
from perfbench.spans import layer_metrics, ops_of


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module", params=[False, True], ids=["unfiltered", "filtered"])
def sweep_case(request, tmp_path_factory, monkeypatch_module):
    from repro.eval.runner import ExperimentSpec, run_experiment

    work = tmp_path_factory.mktemp("sweep")
    config = inputs.make_sweep(5, work, smoke=True, filtered=request.param)
    raw = config["specs"][0]
    monkeypatch_module.chdir(work)
    result = run_experiment(ExperimentSpec(**{**raw, "metrics": tuple(raw["metrics"])}))
    return json.loads(result.to_json()), config["stats"][raw["name"]], request.param


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def test_sweep_check_passes_program_output(sweep_case):
    payload, stats, filtered = sweep_case
    checks.check_sweep_result(payload, stats, filtered)


def test_sweep_check_fails_on_a_ratio_off_the_hit_lattice(sweep_case):
    payload, stats, filtered = sweep_case
    wrong = copy.deepcopy(payload)
    wrong["series"]["CN"]["ratios"][0] *= 1.001
    with pytest.raises(checks.CheckError):
        checks.check_sweep_result(wrong, stats, filtered)


def test_sweep_check_fails_on_fractional_hits(sweep_case):
    payload, stats, filtered = sweep_case
    wrong = copy.deepcopy(payload)
    wrong["series"]["RA"]["absolutes"][1] += 0.5 / stats[1]["k"]
    with pytest.raises(checks.CheckError):
        checks.check_sweep_result(wrong, stats, filtered)


def test_sweep_check_fails_on_hits_above_k(sweep_case):
    payload, stats, filtered = sweep_case
    wrong = copy.deepcopy(payload)
    k, truth, m = stats[0]["k"], stats[0]["truth"], stats[0]["m"]
    wrong["series"]["PA"]["absolutes"][0] = (k + 1) / k
    wrong["series"]["PA"]["ratios"][0] = (k + 1) * m / (k * truth)
    with pytest.raises(checks.CheckError):
        checks.check_sweep_result(wrong, stats, filtered)


def test_sweep_check_fails_on_a_wrong_filtered_ratio(sweep_case):
    payload, stats, filtered = sweep_case
    wrong = copy.deepcopy(payload)
    if filtered:
        wrong["series"]["AA"]["filtered_ratios"][0] *= 1.001
    else:
        wrong["series"]["AA"]["filtered_ratios"] = wrong["series"]["AA"]["ratios"]
    with pytest.raises(checks.CheckError):
        checks.check_sweep_result(wrong, stats, filtered)


def test_sweep_check_fails_on_a_missing_metric(sweep_case):
    payload, stats, filtered = sweep_case
    wrong = copy.deepcopy(payload)
    del wrong["series"]["LRW"]
    with pytest.raises(checks.CheckError):
        checks.check_sweep_result(wrong, stats, filtered)


def test_step_stats_match_the_program_snapshots(sweep_case):
    payload, stats, _ = sweep_case
    from repro.eval.runner import ExperimentSpec, build_plan
    from repro.metrics.candidates import num_nonedge_pairs

    plan = build_plan(ExperimentSpec.from_json(json.dumps(payload["spec"])))
    for (previous, _current, truth), stat in zip(plan.steps, stats):
        assert (len(truth), num_nonedge_pairs(previous)) == (stat["truth"], stat["m"])


def test_same_check_fails_on_differing_digests():
    checks.check_same("result", ["a", "a"])
    with pytest.raises(checks.CheckError):
        checks.check_same("result", ["a", "b"])


def test_reference_check_fails_on_a_wrong_score():
    checks.check_reference_scores("CN", np.array([1.0, 2.0]), [1.0, 2.0])
    with pytest.raises(checks.CheckError):
        checks.check_reference_scores("CN", np.array([1.0, 2.0]), [1.0, 3.0])


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_case():
    from repro.graph.dyngraph import TemporalGraph
    from repro.serve.store import ScoreStore

    rng = np.random.default_rng(2)
    pairs = {tuple(sorted(p)) for p in rng.integers(0, 60, size=(300, 2)).tolist() if p[0] != p[1]}
    pairs = sorted(pairs)
    u = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    t = np.arange(len(pairs), dtype=float)
    store = ScoreStore(TemporalGraph.from_columns(u, v, t, validated=True))
    node = int(u[0])
    body = json.loads(json.dumps(store.predict(node, 5, "CN")))
    assert body["predictions"], "fixture needs a node with CN candidates"
    return body, node, checks.EdgeStream(u, v)


def test_prediction_check_passes_program_output(serve_case):
    body, node, stream = serve_case
    checks.check_prediction(body, node, 5, stream, verify_cn=True)


def _mutated(body, change):
    wrong = copy.deepcopy(body)
    change(wrong["predictions"])
    return wrong


@pytest.mark.parametrize(
    "change",
    [
        lambda p: p.reverse() if len(p) > 1 and p[0]["score"] != p[-1]["score"] else p.__setitem__(0, {**p[0], "v": p[0]["v"] + 10_000}),
        lambda p: p.append(dict(p[0])),
        lambda p: p.__setitem__(0, {**p[0], "score": p[0]["score"] + 1.0}),
    ],
    ids=["order", "too-many-or-repeated", "cn-score"],
)
def test_prediction_check_fails_on_a_wrong_response(serve_case, change):
    body, node, stream = serve_case
    with pytest.raises(checks.CheckError):
        checks.check_prediction(_mutated(body, change), node, 5, stream, verify_cn=True)


def test_prediction_check_fails_on_predicting_self_or_a_neighbour(serve_case):
    body, node, stream = serve_case
    neighbour = int(stream.neighbors(node, len(stream))[0])
    for target in (node, neighbour):
        wrong = copy.deepcopy(body)
        wrong["predictions"] = [{"v": target, "score": 1e9}] + wrong["predictions"][:4]
        with pytest.raises(checks.CheckError):
            checks.check_prediction(wrong, node, 5, stream, verify_cn=False)


def test_prediction_check_fails_on_an_unknown_snapshot(serve_case):
    body, node, stream = serve_case
    wrong = copy.deepcopy(body)
    wrong["snapshot"]["edges"] = len(stream) + 1
    with pytest.raises(checks.CheckError):
        checks.check_prediction(wrong, node, 5, stream, verify_cn=False)


def test_write_and_final_checks_fail_on_wrong_counts():
    checks.check_write_ack({"applied": 15, "rejected": {"duplicate_edge": 1}}, 16, 1)
    with pytest.raises(checks.CheckError):
        checks.check_write_ack({"applied": 16, "rejected": {}}, 16, 1)
    statz = {"store": {"snapshot_edges": 130, "engine_edges": 130}}
    checks.check_final_edges(statz, 100, 30)
    with pytest.raises(checks.CheckError):
        checks.check_final_edges(statz, 100, 45)


def test_wal_check_fails_on_a_torn_log(tmp_path):
    from pathlib import Path

    from repro.graph.wal import WAL_FILE, WriteAheadLog

    path = tmp_path / WAL_FILE
    with WriteAheadLog.create(path, "f" * 64) as wal:
        wal.append(np.array([1]), np.array([2]), np.array([3.0]))
        wal.sync()
    root = Path(__file__).resolve().parents[2]
    assert loadgen.verify_wal(root, tmp_path)[0] == 0
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 3)
    assert loadgen.verify_wal(root, tmp_path)[0] != 0


# ---------------------------------------------------------------------------
# span aggregation
# ---------------------------------------------------------------------------
def test_self_time_subtracts_children_and_reports_the_remainder():
    def span(sid, name, start, end, parent, **attrs):
        return {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "phase": 0, "attrs": attrs}

    spans = [
        span(1, "op", 0.0, 1.0, 0),
        span(2, "metrics.fit", 0.1, 0.5, 1),
        span(3, "metrics.candidates", 0.2, 0.3, 2, rows=7),
        span(4, "temporal.filter", 0.6, 0.7, 1, input="a"),
        span(5, "temporal.filter", 0.7, 0.8, 1, input="a"),
    ]
    ops = ops_of(spans, ("op",))
    assert len(ops) == 1
    out = layer_metrics(ops)
    assert out["metrics.fit_ms"] == pytest.approx(300.0)
    assert out["metrics.candidates_ms"] == pytest.approx(100.0)
    assert out["temporal.filter_ms"] == pytest.approx(200.0)
    assert out["eval.unattributed_ms"] == pytest.approx(400.0)
    assert out["trace.unattributed_share"] == pytest.approx(0.4)
    assert out["metrics.candidate_pairs"] == 7
    assert out["temporal.filter_distinct_ratio"] == 0.5
