"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, measure, tracing, workloads  # noqa: E402


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_names_what_the_run_prints():
    import json

    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(layer) == [*tracing.LAYER_METRICS, *tracing.DERIVED_METRICS]
    assert all(unit == tracing.unit_of(name) for name, unit in layer.items())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- generators ---------------------------------------------------------------

def _digests(requests):
    return [r.digest() for r in requests]


def test_generators_are_pure_functions_of_the_seed():
    assert (workloads.solo_request(7, 3).digest()
            == workloads.solo_request(7, 3).digest())
    assert (workloads.solo_request(7, 3).digest()
            != workloads.solo_request(8, 3).digest())
    assert (workloads.market_request(7, 1).digest()
            == workloads.market_request(7, 1).digest())
    assert (workloads.market_request(7, 1).digest()
            != workloads.market_request(8, 1).digest())
    mix = _digests(workloads.served_mix(7, 60))
    assert mix == _digests(workloads.served_mix(7, 60))
    assert mix != _digests(workloads.served_mix(8, 60))
    assert mix[:40] == _digests(workloads.served_mix(7, 40))
    schedule = workloads.served_schedule(7, 60, 80.0)
    assert schedule == workloads.served_schedule(7, 60, 80.0)
    assert schedule == sorted(schedule)
    assert 0.0 <= schedule[0] and schedule[-1] <= 60 / 80.0


def test_solo_stream_alternates_kinds_at_m256():
    first, second = (workloads.solo_request(1, i) for i in (0, 1))
    assert (first.kind, second.kind) == ("ncp-fe", "ncp-nfe")
    assert len(first.w) == workloads.SOLO_M
    assert first.pki_seed is not None


def test_served_mix_has_the_loadgen_shape():
    mix = workloads.served_mix(3, 2000)
    kinds = [r.TYPE for r in mix]
    share = {k: kinds.count(k) / len(kinds) for k in set(kinds)}
    assert 0.60 < share["engagement"] < 0.75     # 55% fresh + repeats
    assert 0.15 < share["sweep"] < 0.28
    assert 0.06 < share["multi-engagement"] < 0.15
    repeats = len(mix) - len(set(_digests(mix)))
    assert 0.10 < repeats / len(mix) < 0.20
    warm = set(_digests(workloads.warmup_requests(3)))
    assert not warm & set(_digests(mix))


# -- tail ---------------------------------------------------------------------

def test_tail_keeps_ten_samples_beyond_and_reports_n():
    values = list(range(1, 101))
    value, pct, n = measure.tail(reversed(values))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == measure.TAIL_BEYOND
    value, pct, n = measure.tail(range(1000))
    assert (value, n) == (989, 1000) and pct == pytest.approx(99.0)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_windowed_tail_is_the_median_of_window_tails():
    values = list(range(1, 101))
    assert measure.windowed_tail(values) == (90, 90.0, 100, 1)
    # three windows of 110; one holds a burst that must not move the median
    windows = [list(range(110)), [1000.0] * 110, list(range(110))]
    value, pct, window, count = measure.windowed_tail(
        [v for w in windows for v in w])
    assert (value, window, count) == (99, 110, 3)
    assert pct == pytest.approx(100.0 * 100 / 110)


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_covered_children_once():
    spans = {
        1: {"parent": 0, "start": 0.0, "end": 10.0, "agg": 0.0},
        2: {"parent": 1, "start": 1.0, "end": 3.0, "agg": 0.5},
        3: {"parent": 1, "start": 2.0, "end": 5.0, "agg": 0.0},
        4: {"parent": 1, "start": 7.0, "end": 8.0, "agg": 0.0},
        5: {"parent": 2, "start": 2.0, "end": 2.5, "agg": 0.0},
        6: {"parent": 1, "start": 9.5, "end": 11.0, "agg": 0.0},
    }
    got = measure.self_times(spans)
    assert got[1] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert got[2] == pytest.approx(2.0 - 0.5 - 0.5)
    assert got[3] == pytest.approx(3.0)
    assert got[5] == pytest.approx(0.5)


def test_recorder_self_time_on_nested_frames(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracing, "_now", lambda: clock[0])
    rec = tracing.Recorder("test")
    try:
        def leaf():
            clock[0] += 1.0

        def middle():
            clock[0] += 2.0
            hot()
            hot()
            clock[0] += 1.0

        def outer():
            clock[0] += 0.5
            mid()
            clock[0] += 0.25

        hot = rec.aggregate("agents.handle", leaf)
        mid = rec.span("protocol.bidding", middle)
        root = rec.span("api.execute", outer, root=True)
        rec.set_op("op1")
        root()
        hot()                        # outside an op: not recorded
        merged = tracing.merge([rec.snapshot()])
    finally:
        rec.uninstall()
    assert merged["self_s"]["api.execute"] == pytest.approx(0.75)
    assert merged["self_s"]["protocol.bidding"] == pytest.approx(3.0)
    assert merged["self_s"]["agents.handle"] == pytest.approx(2.0)
    assert merged["calls"]["agents.handle"] == 2
    assert {s[2] for s in rec.spans} == {"op1"}
    metrics = tracing.layer_metrics(merged, 1, {})
    assert metrics["agents.handle_ms"] == pytest.approx(2000.0)
    assert metrics["agents.handled"] == 2


def test_a_collection_inside_an_op_is_charged_to_the_runtime(monkeypatch):
    import gc

    ticks = iter(range(1, 100))
    monkeypatch.setattr(tracing, "_now", lambda: float(next(ticks)))
    rec = tracing.Recorder("test")
    enabled = gc.isenabled()
    gc.disable()                 # only the explicit collection below
    try:
        root = rec.span("api.execute", gc.collect, root=True)
        root()                   # t0 = 1, collection 2..3, t1 = 4
        merged = tracing.merge([rec.snapshot()])
    finally:
        rec.uninstall()
        if enabled:
            gc.enable()
    assert merged["self_s"]["runtime.gc"] == 1.0
    assert merged["self_s"]["api.execute"] == 2.0
    assert rec.gc == [1, 1.0]


def test_service_spans_join_across_processes():
    client = {"role": "client", "pid": 1, "agg": {}, "counts": {},
              "gc": [0, 0.0],
              "spans": [[11, 0, "k", "service.roundtrip", 0.0, 10.0, 0.0]]}
    daemon = {"role": "daemon", "pid": 2, "agg": {}, "counts": {},
              "gc": [0, 0.0],
              "spans": [[21, 0, "k", "service.pool", 2.0, 9.0, 0.0]]}
    worker = {"role": "worker", "pid": 3, "agg": {}, "counts": {},
              "gc": [0, 0.0],
              "spans": [[31, 0, "k", "service.worker", 3.0, 8.0, 0.0]]}
    merged = tracing.merge([client, daemon, worker])
    assert merged["unlinked"] == 0
    metrics = tracing.layer_metrics(merged, 1, {})
    assert metrics["service.roundtrip_ms"] == pytest.approx(10000.0)
    assert metrics["service.daemon_ms"] == pytest.approx(3000.0)
    assert metrics["service.pool_wait_ms"] == pytest.approx(2000.0)
    assert metrics["service.worker_ms"] == pytest.approx(5000.0)


# -- answer checks ------------------------------------------------------------

def _engagement():
    from repro.api import EngagementRequest, execute

    request = EngagementRequest(w=(2.0, 3.0, 5.0, 4.0), z=0.4,
                                kind="ncp-nfe", pki_seed=1)
    return request, execute(request).outcome


def test_engagement_check_passes_and_catches_a_planted_payment():
    request, outcome = _engagement()
    assert checks.check_engagement(request, outcome) == []
    planted = dict(outcome, payments=dict(outcome["payments"]))
    planted["payments"]["P2"] += 1e-12
    assert checks.check_engagement(request, planted)
    unbalanced = dict(outcome, balances=dict(outcome["balances"]))
    unbalanced["balances"]["P1"] += 1e-6
    assert checks.check_engagement(request, unbalanced)


def test_market_check_catches_a_planted_digest():
    from repro.api import execute
    from repro.market import run_market

    request = workloads.market_request(5, 0, rounds=6)
    digest = execute(request).digest()
    replay = run_market(request, verify=True).digest()
    assert checks.check_market(digest, replay) == []
    assert checks.check_market("0" * 64, replay)


def test_served_check_catches_a_planted_digest():
    from repro.api import execute

    mix = workloads.served_mix(2, 5)
    digests = [r.digest() for r in mix]
    responses = [{"ok": True, "result": execute(r).to_dict()} for r in mix]
    direct = [[slot, digests[slot], execute(r).digest()]
              for slot, r in enumerate(mix)]
    records, problems = checks.served_records(digests, responses)
    assert problems == []
    assert checks.check_served(checks.stream_digest(records),
                               checks.stream_digest(direct)) == []
    direct[3][2] = "0" * 64
    assert checks.check_served(checks.stream_digest(records),
                               checks.stream_digest(direct))
    responses[1] = {"ok": False, "error": {"code": "backpressure"}}
    assert checks.served_records(digests, responses)[1]
