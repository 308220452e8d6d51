"""Fleet differential + chaos suite: N sharded daemons vs the truth.

Three layers of evidence that the scale-out layer cannot change an
answer:

* **Differential** — fleets of N ∈ {1, 2, 4} daemons serving a mixed
  25-scenario stream (engagements, deviants, committees, sweeps,
  multi-engagement bundles, exact repeats) produce results
  digest-identical to direct in-process ``execute()``, under shuffled
  arrival orders and under a pathological shard function that forces
  every request onto one daemon.
* **Chaos, worker level** — a poisoned request (``os._exit`` in the
  fork worker) fails alone with its non-retryable code; the rest of
  the stream is untouched.  Uses embedded daemons, whose fork workers
  inherit this module's synthetic task registrations.
* **Chaos, daemon level** — SIGKILL a real ``repro serve`` subprocess
  mid-stream: every in-flight request either completes on a peer or
  fails with a retryable code, retries all succeed, no request hangs,
  and the surviving caches still answer digest-correctly.

Cross-daemon cache peeking is pinned separately: when a shard owner
dies, a peer that already holds the answer serves it from cache (the
``peek`` op) instead of recomputing.  So are the dispatcher's kept
connections: scripted listeners drop them idle and mid-request.
"""

import asyncio
import json
import os
import random
import signal
import threading
import time

import pytest

from repro.api import (
    EngagementRequest,
    MultiEngagementRequest,
    execute,
    result_from_dict,
)
from repro.service import (
    RETRYABLE_CODES,
    FleetDispatcher,
    LocalFleet,
    ServiceClient,
)
from repro.service.tcp import start_server
from repro.sweep import register
from tests.service.test_service import one_shot_plan, utility_sweep

W = (2.0, 3.0, 5.0)
Z = 0.4
STREAM_TIMEOUT = 180.0  # generous wall-clock bound: "no hangs"


@register("fleet-poison")
def _poison(spec):  # pragma: no cover — runs in fork workers only
    os._exit(23)


def build_stream() -> list:
    """The mixed 25-scenario request stream (deterministic, fast)."""
    engagements = [
        EngagementRequest(w=(2.0 + 0.25 * i, 3.0, 5.0), z=Z, num_blocks=20)
        for i in range(6)
    ] + [
        EngagementRequest(w=W, z=Z, kind="ncp-nfe", num_blocks=20, seed=i,
                          deviants=((1, "multiple-bids"),))
        for i in range(3)
    ] + [
        EngagementRequest(w=W, z=Z, num_blocks=20, committee=4,
                          byzantine=((2, "silent"),)),
        EngagementRequest(w=(4.0, 2.0, 3.0, 5.0), z=0.6, num_blocks=30,
                          crash=((2, 0.5),), seed=11),
        EngagementRequest(w=W, z=Z, num_blocks=20, drop_rate=0.05,
                          seed=5),
        EngagementRequest(w=(2.5, 4.5), z=0.7, num_blocks=40,
                          bidding_mode="commit"),
    ]
    sweeps = [utility_sweep(3, seed) for seed in range(5)]
    multis = [
        MultiEngagementRequest(
            engagements=(
                EngagementRequest(w=W, z=Z, num_blocks=20).to_dict(),
                EngagementRequest(w=(3.0, 4.0), z=Z,
                                  num_blocks=20).to_dict()),
            policy=policy)
        for policy in ("fifo", "sjf", "rr")
    ]
    stream = engagements + sweeps + multis
    # Exact repeats: cache hits on the owners, and (in a fleet) proof
    # that repeats route shard-stably.
    stream += [engagements[0], sweeps[0], multis[0], engagements[3]]
    assert len(stream) == 25
    return stream


_DIRECT: dict[str, str] = {}


def direct_digests(stream) -> dict[str, str]:
    """request digest -> result digest, via in-process execute()."""
    for request in stream:
        key = request.digest()
        if key not in _DIRECT:
            _DIRECT[key] = execute(request).digest()
    return dict(_DIRECT)


class EmbeddedFleet:
    """N in-process daemons on loopback TCP (forked from this test
    process, so module-registered sweep tasks exist in the workers)."""

    def __init__(self, n: int, *, workers: int = 1) -> None:
        self.clients = []
        try:
            for _ in range(n):
                self.clients.append(
                    ServiceClient(tcp="127.0.0.1:0", workers=workers))
        except BaseException:
            self.close()
            raise
        self.endpoints = [c.endpoint for c in self.clients]

    def dispatcher(self, **kwargs) -> FleetDispatcher:
        return FleetDispatcher(self.endpoints, **kwargs)

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except Exception:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve_stream(dispatcher, stream, *, order_seed=None, threads=4):
    """Drive the stream concurrently; return responses in stream order."""
    order = list(range(len(stream)))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    responses = [None] * len(stream)
    pending = list(order)
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                if not pending:
                    return
                slot = pending.pop(0)
            responses[slot] = dispatcher.submit(stream[slot])

    workers = [threading.Thread(target=drain) for _ in range(threads)]
    for w in workers:
        w.start()
    deadline = time.monotonic() + STREAM_TIMEOUT
    for w in workers:
        w.join(timeout=max(0.1, deadline - time.monotonic()))
    assert not any(w.is_alive() for w in workers), \
        "stream stalled: a dispatcher call hung"
    return responses


def assert_digest_identical(stream, responses, direct):
    assert len(responses) == len(stream)
    for request, response in zip(stream, responses):
        assert response is not None and response.get("ok"), \
            f"{request.TYPE} failed: {response!r}"
        from repro.api import result_from_dict

        assert result_from_dict(response["result"]).digest() \
            == direct[request.digest()]


class TestFleetDifferential:
    @pytest.mark.parametrize("n,order_seed", [(1, None), (2, 7), (4, 42)])
    def test_fleet_digest_identical_to_direct(self, n, order_seed):
        stream = build_stream()
        direct = direct_digests(stream)
        with EmbeddedFleet(n) as fleet:
            dispatcher = fleet.dispatcher()
            responses = serve_stream(dispatcher, stream,
                                     order_seed=order_seed)
            assert_digest_identical(stream, responses, direct)
            assert dispatcher.counters.requests == len(stream)
            assert dispatcher.counters.failovers == 0
            assert dispatcher.counters.unavailable == 0
            if n > 1:
                # 21 distinct digests over n shards: the partition is
                # deterministic, and for this stream it is non-trivial.
                assert len(dispatcher.counters.by_endpoint) > 1

    def test_forced_shard_collisions_still_identical(self):
        # A pathological shard function sends everything to daemon 0 —
        # routing must never be load-bearing for correctness.
        stream = build_stream()
        direct = direct_digests(stream)
        with EmbeddedFleet(2) as fleet:
            dispatcher = fleet.dispatcher(shard_key=lambda digest: 0)
            responses = serve_stream(dispatcher, stream, order_seed=3)
            assert_digest_identical(stream, responses, direct)
            assert set(dispatcher.counters.by_endpoint) \
                == {fleet.endpoints[0]}

    def test_repeats_are_shard_stable_cache_hits(self):
        stream = build_stream()
        direct = direct_digests(stream)
        with EmbeddedFleet(4) as fleet:
            dispatcher = fleet.dispatcher()
            serve_stream(dispatcher, stream)
            # Second pass: every request replays from its owner's cache.
            responses = serve_stream(dispatcher, stream)
            assert_digest_identical(stream, responses, direct)
            assert all(r["result"].get("cached") for r in responses)


class TestCachePeeking:
    def test_failover_peeks_peer_cache_instead_of_recomputing(self):
        request = EngagementRequest(w=W, z=Z, num_blocks=20)
        digest = request.digest()
        with EmbeddedFleet(3) as fleet:
            # Warm daemon 1's cache through a dispatcher that owns it
            # there, then route through a second dispatcher whose owner
            # (daemon 0) is dead: the failover path must find daemon
            # 1's cached answer via peek.
            warm = fleet.dispatcher(shard_key=lambda d: 1)
            direct = execute(request).digest()
            assert warm.request(request).digest() == direct
            fleet.clients[0].close()
            cold = fleet.dispatcher(shard_key=lambda d: 0)
            response = cold.submit(request)
            assert response["ok"]
            assert response["result"]["cached"] is True
            from repro.api import result_from_dict

            assert result_from_dict(response["result"]).digest() == direct
            assert cold.counters.peek_hits == 1
            assert cold.shard_of(digest) == 0
            assert fleet.endpoints[0] in cold.quarantined

    def test_peek_misses_fall_through_to_peer_compute(self):
        request = EngagementRequest(w=(3.5, 2.5, 4.5), z=Z, num_blocks=20)
        with EmbeddedFleet(2) as fleet:
            fleet.clients[0].close()
            dispatcher = fleet.dispatcher(shard_key=lambda d: 0)
            result = dispatcher.request(request)
            assert result.digest() == execute(request).digest()
            assert dispatcher.counters.peeks >= 1
            assert dispatcher.counters.peek_hits == 0
            assert dispatcher.counters.failovers == 1


class TestWorkerChaos:
    def test_poisoned_request_fails_alone_in_fleet(self):
        poison = one_shot_plan("fleet-poison", {"n": 1})
        stream = build_stream()[:6]
        direct = direct_digests(stream)
        with EmbeddedFleet(2) as fleet:
            dispatcher = fleet.dispatcher()
            poison_response = dispatcher.submit(poison)
            assert not poison_response["ok"]
            code = poison_response["error"]["code"]
            assert code == "worker-died"
            assert code not in RETRYABLE_CODES  # guilty, not unlucky
            # Both daemons still serve the clean stream correctly.
            responses = serve_stream(dispatcher, stream)
            assert_digest_identical(stream, responses, direct)
            assert dispatcher.counters.unavailable == 0


class ScriptedListener:
    """A loopback listener whose every connection runs *handler* (then
    closes), on its own event loop thread; counts accepted connections."""

    def __init__(self, handler) -> None:
        self.connections = 0
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        daemon=True)
        self._thread.start()

        async def counted(reader, writer):
            self.connections += 1
            try:
                await handler(reader, writer)
            finally:
                writer.close()

        self._server, bound = asyncio.run_coroutine_threadsafe(
            start_server("127.0.0.1:0", counted), self._loop).result(10)
        self.endpoint = str(bound)

    def close(self) -> None:
        async def stop():
            self._server.close()
            await self._server.wait_closed()

        asyncio.run_coroutine_threadsafe(stop(), self._loop).result(10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


async def answer_once(reader, writer):
    """Answer one request line, then hang up."""
    envelope = json.loads(await reader.readline())
    writer.write(json.dumps({"id": envelope["id"], "ok": True,
                             "result": {"scripted": True}}).encode() + b"\n")
    await writer.drain()


async def hang_up(reader, writer):
    """Read one request line and hang up without a reply."""
    await reader.readline()


class TestKeptConnections:
    def test_connection_dropped_while_idle_is_retried_fresh(self):
        request = EngagementRequest(w=W, z=Z, num_blocks=20)
        with ScriptedListener(answer_once) as listener:
            dispatcher = FleetDispatcher([listener.endpoint])
            first = dispatcher.submit(request)
            second = dispatcher.submit(request)
            assert first["ok"] and second["ok"], (first, second)
            assert listener.connections == 2
        assert dispatcher.counters.quarantined == 0
        assert dispatcher.counters.unavailable == 0

    def test_hang_up_before_reply_quarantines_and_fails_over(self):
        request = EngagementRequest(w=(2.0, 3.5, 5.0), z=Z, num_blocks=20)
        with ServiceClient(tcp="127.0.0.1:0") as daemon, \
                ScriptedListener(hang_up) as listener:
            with pytest.raises(ConnectionResetError):
                FleetDispatcher([listener.endpoint])._call(
                    listener.endpoint, {"op": "ping"})
            dispatcher = FleetDispatcher(
                [listener.endpoint, daemon.endpoint],
                shard_key=lambda digest: 0)
            response = dispatcher.submit(request)
            assert response["ok"], response
            assert result_from_dict(response["result"]).digest() \
                == execute(request).digest()
            assert dispatcher.quarantined == (listener.endpoint,)
            assert dispatcher.counters.quarantined == 1
            assert dispatcher.counters.failovers == 1

    def test_expired_job_late_answer_never_reaches_next_request(self):
        # One worker: the sleeper still holds it when its deadline
        # answer goes out, so the engagement waits in the pool, and the
        # sleeper's late reply is the next thing on the worker channel.
        engagement = EngagementRequest(w=(2.0, 3.0, 4.5), z=Z, num_blocks=20)
        with ServiceClient(tcp="127.0.0.1:0", workers=1) as daemon:
            dispatcher = FleetDispatcher([daemon.endpoint])
            slept = dispatcher.submit(
                one_shot_plan("svc-sleep", {"t": 1.0}), deadline=0.3)
            assert not slept["ok"]
            assert slept["error"]["code"] == "deadline"
            response = dispatcher.submit(engagement)
            assert response["ok"], response
            assert result_from_dict(response["result"]).digest() \
                == execute(engagement).digest()
            assert daemon.stats().expired == 1


@pytest.mark.slow
class TestDaemonChaos:
    def test_sigkill_mid_stream_no_lost_or_wrong_answers(self):
        stream = build_stream()
        direct = direct_digests(stream)
        with LocalFleet(3, workers=1) as fleet:
            dispatcher = fleet.dispatcher(connect_timeout=5.0)
            victim = dispatcher.shard_of(stream[0].digest())
            responses = [None] * len(stream)
            started = threading.Event()

            def drain(slots):
                for slot in slots:
                    responses[slot] = dispatcher.submit(stream[slot])
                    started.set()

            slots = list(range(len(stream)))
            threads = [threading.Thread(target=drain, args=(slots[i::4],))
                       for i in range(4)]
            for t in threads:
                t.start()
            # Kill a daemon while the stream is genuinely in flight.
            started.wait(timeout=STREAM_TIMEOUT)
            fleet.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + STREAM_TIMEOUT
            for t in threads:
                t.join(timeout=max(0.1, deadline - time.monotonic()))
            assert not any(t.is_alive() for t in threads), \
                "a request hung after the daemon kill"

            retried = 0
            for slot, response in enumerate(responses):
                assert response is not None
                if not response.get("ok"):
                    # Lost to the kill — must be retryable, and the
                    # retry must succeed on a surviving peer.
                    assert response["error"]["code"] in RETRYABLE_CODES, \
                        response
                    response = dispatcher.submit(stream[slot])
                    assert response.get("ok"), response
                    retried += 1
                    responses[slot] = response
            assert_digest_identical(stream, responses, direct)
            assert fleet.endpoints[victim] in dispatcher.quarantined

            # Caches coherent after the chaos: a full replay off the
            # survivors is still digest-identical.
            replay = serve_stream(dispatcher, stream)
            assert_digest_identical(stream, replay, direct)
            health = dispatcher.check_health()
            assert not health[fleet.endpoints[victim]]
            assert sum(health.values()) == 2

    def test_graceful_drain_is_retryable_not_wrong(self):
        request = EngagementRequest(w=W, z=Z, num_blocks=20)
        with LocalFleet(2, workers=1) as fleet:
            dispatcher = fleet.dispatcher(connect_timeout=5.0)
            owner = dispatcher.shard_of(request.digest())
            # Drain the owner (graceful shutdown op): the dispatcher
            # must treat "shutting-down" as dead-and-move-on.
            from repro.service.tcp import send_envelope

            send_envelope(fleet.endpoints[owner],
                          {"id": 0, "op": "shutdown"}, timeout=10.0)
            fleet.processes[owner].wait(timeout=30)
            result = dispatcher.request(request)
            assert result.digest() == execute(request).digest()
