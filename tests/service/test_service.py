"""Service integration: the daemon against the serial reference paths.

Every test talks to a real daemon — unix socket, asyncio server, warm
fork pool — through :class:`ServiceClient`.  The headline contract:
answers served concurrently off warm workers are byte-identical (by
canonical digest) to direct in-process calls of the same requests.

The synthetic sweep tasks registered at module import are inherited by
the service's fork workers because every client here is constructed
*after* import (the pool forks at construction).
"""

import os
import threading
import time

import pytest

from repro.api import EngagementRequest, SweepRequest, execute
from repro.service import ServiceClient, ServiceError
from repro.sweep import SweepPlan, register

W = (2.0, 3.0, 5.0)
Z = 0.4


@register("svc-poison")
def _poison(spec):
    os._exit(13)  # hard worker death: the BrokenProcessPool case


@register("svc-sleep")
def _sleep(spec):
    time.sleep(float(spec.params["t"]))
    return {"slept": float(spec.params["t"])}


def one_shot_plan(task: str, params: dict) -> SweepRequest:
    return SweepRequest(plan=SweepPlan.from_scenarios(
        task, [params], root_seed=0).to_dict())


def utility_sweep(n: int, seed: int) -> SweepRequest:
    return SweepRequest(plan=SweepPlan.from_scenarios(
        "utility-point",
        [{"w": list(W), "z": Z, "kind": "ncp-fe", "i": 0,
          "bid_factor": 1.0 + 0.02 * i, "exec_factor": 1.0}
         for i in range(n)],
        root_seed=seed).to_dict())


@pytest.fixture(scope="module")
def client():
    with ServiceClient(workers=2, queue_size=32) as c:
        yield c


class TestConcurrentMixedLoad:
    def test_16_concurrent_requests_digest_identical_to_direct(self, client):
        requests = (
            [EngagementRequest(w=(2.0 + 0.25 * i, 3.0, 5.0), z=Z)
             for i in range(8)]
            + [EngagementRequest(w=W, z=Z, kind="ncp-nfe", seed=i,
                                 deviants=((1, "multiple-bids"),))
               for i in range(4)]
            + [utility_sweep(3, seed) for seed in range(4)])
        assert len(requests) == 16
        results = [None] * 16

        def call(i):
            results[i] = client.request(requests[i])

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        for req, res in zip(requests, results):
            assert res is not None, "a request never completed"
            assert res.digest() == execute(req).digest(), (
                "served answer diverged from the direct serial call")

    def test_engagement_response_carries_trace_spans(self, client):
        res = client.request(EngagementRequest(w=W, z=Z, pki_seed=1))
        phases = [s["phase"] for s in res.spans]
        assert phases, "no per-phase spans attached to the response"
        assert any("BID" in p.upper() for p in phases)


class TestWarmWorker:
    def test_answer_does_not_depend_on_worker_history(self):
        # One worker process runs many requests; the second answer must
        # equal a direct call's in full — traffic counters and phase
        # spans included — although the first request left the same
        # allocation and payment computations behind.
        from repro.service.worker import execute_payload

        first = EngagementRequest(w=W, z=Z, pki_seed=4)
        second = EngagementRequest(w=W, z=Z, pki_seed=3)
        assert execute_payload(first.to_dict())[0] == "ok"
        assert execute_payload(second.to_dict()) \
            == ("ok", execute(second).to_dict())


class TestResultCache:
    def test_repeat_engagement_is_a_cache_hit(self, client):
        req = EngagementRequest(w=(2.5, 3.5, 5.5), z=Z, seed=99)
        before = client.stats().cache_hits
        first = client.request(req)
        assert first.cached is False
        second = client.request(req)
        assert second.cached is True
        assert second.digest() == first.digest()
        assert client.stats().cache_hits == before + 1

    def test_distinct_requests_do_not_collide(self, client):
        a = client.request(EngagementRequest(w=(2.1, 3.0, 5.0), z=Z))
        b = client.request(EngagementRequest(w=(2.2, 3.0, 5.0), z=Z))
        assert a.digest() != b.digest()


class TestErrorPaths:
    def test_invalid_request_gets_actionable_error(self, client):
        base = {"schema": "repro/api/v1", "type": "engagement",
                "w": [2.0, 3.0], "z": Z}
        for bad, expected in (({"w": [1.0]}, "at least 2"),
                              ({"deviants": None}, "deviants"),
                              ({"deviants": 5}, "deviants")):
            response = client.raw_request({**base, **bad})
            assert response["ok"] is False, bad
            assert response["error"]["code"] == "invalid-request"
            assert expected in response["error"]["message"]
        assert client.ping()["pong"] is True  # the daemon still answers

    def test_undecodable_line_is_answered_not_dropped(self, client):
        # send_envelope JSON-encodes; go below it for a raw bad line
        import json
        import socket

        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(client.socket_path)
            sock.sendall(b"this is not json\n")
            data = sock.recv(65536)
        response = json.loads(data)
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid-request"

    def test_unknown_op_lists_valid_ops(self, client):
        response = client.raw_request({"op": "reboot"})
        assert response["ok"] is False
        assert "ping" in response["error"]["message"]

    def test_deadline_expires_running_request(self, client):
        with pytest.raises(ServiceError) as err:
            client.request(one_shot_plan("svc-sleep", {"t": 5.0}),
                           deadline=0.3)
        assert err.value.code == "deadline"
        assert client.stats().expired >= 1


class TestWorkerDeathIsolation:
    def test_poisoned_request_fails_alone(self, client):
        poison = one_shot_plan("svc-poison", {"x": 1})
        innocents = [EngagementRequest(w=(3.0 + 0.5 * i, 4.0, 6.0), z=Z)
                     for i in range(4)]
        outcomes = {}

        def call(name, req):
            try:
                outcomes[name] = client.request(req)
            except ServiceError as exc:
                outcomes[name] = exc

        threads = ([threading.Thread(target=call, args=("poison", poison))]
                   + [threading.Thread(target=call, args=(f"i{n}", r))
                      for n, r in enumerate(innocents)])
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)

        poisoned = outcomes["poison"]
        assert isinstance(poisoned, ServiceError)
        assert poisoned.code == "worker-died"
        for n, req in enumerate(innocents):
            res = outcomes[f"i{n}"]
            assert not isinstance(res, Exception), (
                f"innocent request {n} was killed by the poisoned one: {res}")
            assert res.digest() == execute(req).digest()
        assert client.stats().pool_rebuilds >= 1

    def test_pool_serves_normally_after_rebuild(self, client):
        req = EngagementRequest(w=(9.0, 8.0, 7.0), z=Z)
        assert client.request(req).digest() == execute(req).digest()


class TestBackpressure:
    def test_queue_overflow_is_rejected_with_backpressure(self):
        with ServiceClient(workers=1, queue_size=1) as small:
            codes = []
            results = []

            def call():
                try:
                    results.append(small.request(
                        one_shot_plan("svc-sleep", {"t": 1.0})))
                except ServiceError as exc:
                    codes.append(exc.code)

            threads = [threading.Thread(target=call) for _ in range(5)]
            for t in threads:
                t.start()
                time.sleep(0.1)   # admission order: run, queue, reject...
            for t in threads:
                t.join(timeout=120)
            assert codes, "no request was rejected despite a full queue"
            assert set(codes) == {"backpressure"}
            assert results, "the running/queued requests should complete"
            assert small.stats().rejected == len(codes)


class TestGracefulShutdown:
    def test_drain_completes_in_flight_and_queued_work(self):
        client = ServiceClient(workers=1, queue_size=8)
        try:
            outcomes = []

            def call():
                outcomes.append(client.request(
                    one_shot_plan("svc-sleep", {"t": 0.5})))

            threads = [threading.Thread(target=call) for _ in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.25)      # all three admitted; at most one done
            client.shutdown()     # must block until every answer is out
            for t in threads:
                t.join(timeout=60)
            assert len(outcomes) == 3
            assert all(r.records[0]["slept"] == 0.5 for r in outcomes)
        finally:
            client.close()

    def test_requests_after_drain_are_refused(self):
        client = ServiceClient(workers=1)
        try:
            client.shutdown()
            with pytest.raises((ServiceError, OSError)):
                client.request(EngagementRequest(w=W, z=Z))
        finally:
            client.close()
