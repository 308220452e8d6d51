"""Loadgen determinism: same seed, same stream, same digest — anywhere.

The generator's whole value is that a soak run is *evidence*: the
request mix and arrival schedule are pure functions of the spec, and
the soak stream digest covers identities only (slot order, request
digest, settlement digest), never timing or cache state.  So the same
seed must produce byte-identical digests whether the stream is served
by direct in-process ``execute()``, one single-worker daemon, or a
sharded fleet of four — and the golden fixture pins the derivation
itself against accidental drift (bump ``MIX_VERSION`` to change it).
"""

import json
import pathlib

import pytest

from repro.api import execute
from repro.service import FleetDispatcher
from repro.service.loadgen import (
    MIX_VERSION,
    LoadgenSpec,
    build_mix,
    build_schedule,
    run_loadgen,
)
from tests.service.test_fleet import EmbeddedFleet

GOLDEN = pathlib.Path(__file__).parent / "golden" / "loadgen_seed7.json"
SPEC = LoadgenSpec(seed=7, requests=16, rate=200.0, concurrency=4,
                   soak=True)


def submit_direct(request):
    return {"ok": True, "result": execute(request).to_dict()}


class TestSeededDerivation:
    def test_mix_and_schedule_are_pure_functions_of_spec(self):
        assert [r.digest() for r in build_mix(SPEC)] \
            == [r.digest() for r in build_mix(SPEC)]
        assert build_schedule(SPEC) == build_schedule(SPEC)

    def test_different_seeds_differ(self):
        other = LoadgenSpec(seed=8, requests=16, rate=200.0)
        assert [r.digest() for r in build_mix(SPEC)] \
            != [r.digest() for r in build_mix(other)]
        assert build_schedule(SPEC) != build_schedule(other)

    def test_mix_contains_repeats_for_cache_coverage(self):
        digests = [r.digest() for r in build_mix(
            LoadgenSpec(seed=0, requests=100, rate=0))]
        assert len(set(digests)) < len(digests)

    def test_schedule_is_nondecreasing(self):
        offsets = build_schedule(SPEC)
        assert all(b >= a for a, b in zip(offsets, offsets[1:]))
        assert all(o == 0.0 for o in build_schedule(
            LoadgenSpec(seed=7, requests=5, rate=0)))


class TestGoldenFixture:
    def test_arrival_stream_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())
        assert golden["mix_version"] == MIX_VERSION, \
            "MIX_VERSION changed: regenerate the golden fixture"
        mix = build_mix(SPEC)
        assert [r.TYPE for r in mix] == golden["request_types"]
        assert [r.digest() for r in mix] == golden["request_digests"]
        assert [round(o * 1e6) for o in build_schedule(SPEC)] \
            == golden["offsets_us"]

    def test_direct_soak_digest_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())
        report = run_loadgen(submit_direct, SPEC)
        assert report.errors == 0
        assert report.stream_digest == golden["stream_digest"]


class TestServingInvariance:
    """Same seed ⇒ same merged digest across serving topologies."""

    def test_one_worker_daemon_matches_fleet_of_four(self):
        golden = json.loads(GOLDEN.read_text())["stream_digest"]
        with EmbeddedFleet(1, workers=1) as single:
            solo = run_loadgen(single.dispatcher().submit, SPEC)
        assert solo.errors == 0
        assert solo.stream_digest == golden
        with EmbeddedFleet(4, workers=1) as fleet:
            dispatcher = fleet.dispatcher()
            quad = run_loadgen(dispatcher.submit, SPEC)
            assert quad.errors == 0
            assert quad.stream_digest == golden
            # The stream really was sharded, not served by one daemon.
            assert len(dispatcher.counters.by_endpoint) > 1

    def test_report_shape(self):
        report = run_loadgen(submit_direct,
                             LoadgenSpec(seed=1, requests=8, rate=0,
                                         concurrency=2, soak=True))
        data = report.to_dict()
        assert data["requests"] == 8 and data["ok"] == 8
        assert data["rps"] > 0
        assert data["p99_ms"] >= data["p50_ms"] >= 0
        assert sum(data["histogram_ms"].values()) == 8
        assert json.loads(report.to_json()) == data

    def test_submit_exceptions_become_client_errors(self):
        def explode(request):
            raise RuntimeError("boom")

        report = run_loadgen(explode,
                             LoadgenSpec(seed=1, requests=4, rate=0,
                                         concurrency=2, soak=True))
        assert report.errors == 4
        assert report.error_codes == {"client-error": 4}
        assert report.stream_digest  # errors still digest

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoadgenSpec(requests=0)
        with pytest.raises(ValueError):
            LoadgenSpec(rate=-1.0)
        with pytest.raises(ValueError):
            LoadgenSpec(concurrency=0)


def test_warm_imports_leave_no_first_import_to_a_sender_thread():
    # run_loadgen calls warm_imports() before its sender threads start.
    # A repro module first imported by a sender thread (through a lazy
    # import, or a package name resolved on first use) would race the
    # import locks, so executing every kind in the mix afterwards must
    # import nothing new.  A fresh interpreter, since this test process
    # has loaded the engine already.
    import os
    import subprocess
    import sys

    probe = (
        "import sys\n"
        "from repro.api import execute\n"
        "from repro.service.loadgen import LoadgenSpec, build_mix\n"
        "from repro.sweep.tasks import warm_imports\n"
        "warm_imports()\n"
        "mix = build_mix(LoadgenSpec(seed=7, requests=40))\n"
        "assert len({r.TYPE for r in mix}) == 3\n"
        "before = set(sys.modules)\n"
        "for request in mix:\n"
        "    execute(request)\n"
        "print(sorted(set(sys.modules) - before))\n")
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run([sys.executable, "-c", probe],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]", out.stdout


class TestFleetDispatcherValidation:
    def test_rejects_empty_and_duplicate_endpoints(self):
        with pytest.raises(ValueError):
            FleetDispatcher([])
        with pytest.raises(ValueError):
            FleetDispatcher(["127.0.0.1:1", "127.0.0.1:1"])
