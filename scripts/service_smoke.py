#!/usr/bin/env python
"""CI smoke for the engagement service: daemon up, answers right, drains.

Passes, all fast enough for the PR lane:

1. **In-process** (ServiceClient): an engagement and a sweep served off
   the warm pool must be digest-identical to direct ``execute()`` calls;
   a repeated request must come back ``cached`` with the same digest;
   ``stats`` must account for everything.
2. **Market** (ServiceClient): a seeded 30-round market run served off
   the pool must reproduce the direct run's stream digest and replay
   repeats from the result cache.
3. **Warm worker** (ServiceClient, one worker): after serving an
   engagement under one ``pki_seed``, the worker serves the same ``w``
   and ``z`` under another with an ``outcome`` equal in full — traffic
   counters and phase spans included — to a direct ``execute()``.
4. **Out-of-process** (``repro serve`` + ``repro call``): the real CLI
   daemon on a real unix socket answers ``ping``, executes a request
   file, reports ``stats``, and exits cleanly on ``shutdown``.  Its
   process layout is read from ``/proc/<pid>/maps``: the daemon, which
   only speaks the wire, must not map numpy's compiled core, and its
   worker, which loads the engine before its first job, must.
5. **Hostile lines** (``repro serve`` + raw socket): an engagement
   line with ``"deviants": null`` and one with an over-limit
   ``num_blocks`` each come back as an ``invalid-request`` frame naming
   the field, and the daemon then still answers ``stats``.
6. **Fleet** (``LocalFleet`` + ``FleetDispatcher``): two real TCP
   daemons behind the digest-sharding dispatcher serve an engagement
   and a sweep digest-identical to direct ``execute()``, a repeat hits
   a warm cache, and the fleet stats see every daemon healthy.

Exit code 0 on success; any assertion or subprocess failure is fatal.
"""

import contextlib
import json
import os
import socket
import subprocess
import sys
import tempfile
import time

from repro.api import EngagementRequest, SweepRequest, execute
from repro.service import ServiceClient
from repro.sweep import SweepPlan

W = [2.0, 3.0, 5.0, 4.0]
Z = 0.4


def sweep_request() -> SweepRequest:
    plan = SweepPlan.from_scenarios(
        "utility-point",
        [{"w": W, "z": Z, "kind": "ncp-fe", "i": 0,
          "bid_factor": 1.0 + 0.05 * i, "exec_factor": 1.0}
         for i in range(3)],
        root_seed=1)
    return SweepRequest(plan=plan.to_dict())


def in_process_pass() -> None:
    engagement = EngagementRequest(w=tuple(W), z=Z, num_blocks=60)
    sweep = sweep_request()
    with ServiceClient(workers=1) as client:
        assert client.ping()["pong"] is True

        served = client.request(engagement)
        assert served.digest() == execute(engagement).digest(), (
            "served engagement settlement diverged from the direct call")
        assert client.request(sweep).digest() == execute(sweep).digest(), (
            "served sweep records diverged from the direct run")

        again = client.request(engagement)
        assert again.cached and again.digest() == served.digest()

        stats = client.stats()
        assert stats.requests == 3 and stats.completed == 3
        assert stats.cache_hits == 1 and stats.failed == 0
        assert stats.latency_p95 >= stats.latency_p50 >= 0.0
    print("in-process pass ok: digests match, cache hit, stats consistent")


def committee_pass() -> None:
    """An N=4 / f=1 referee committee served off the warm pool.

    The Byzantine fine-stealer at seat 0 must not move the settlement:
    the served committee run's digest equals the direct single-referee
    run of the same engagement (committee traffic and certificates are
    telemetry, not settlement), and the outcome carries the quorum
    certificates that made its verdict binding.
    """
    deviant = ((1, "multiple-bids"),)
    base = EngagementRequest(w=tuple(W), z=Z, num_blocks=60,
                             deviants=deviant)
    quorum = EngagementRequest(w=tuple(W), z=Z, num_blocks=60,
                               deviants=deviant, committee=4,
                               byzantine=((0, "fine-steal"),))
    with ServiceClient(workers=1) as client:
        served = client.request(quorum)
        assert served.digest() == execute(base).digest(), (
            "committee settlement diverged from the trusted-referee run")
        assert served.outcome["certificates"], (
            "committee run produced no quorum certificates")
        assert served.outcome["verdicts"], "the deviant went unconvicted"
    print("committee pass ok: N=4 f=1 settles like the trusted referee, "
          f"{len(served.outcome['certificates'])} certificate(s) archived")


def multi_engagement_pass() -> None:
    """K=2 engagements multiplexed over one bus, served off the pool.

    The served multi-engagement answer must be digest-identical to the
    direct arbiter call *and* to the serial reference (each engagement
    run alone) — the settlement-invariance contract — and a repeat must
    come back from the result cache.
    """
    from repro.api import (
        MultiEngagementRequest,
        serial_reference,
    )

    request = MultiEngagementRequest(
        engagements=(
            EngagementRequest(w=tuple(W), z=Z, num_blocks=60).to_dict(),
            EngagementRequest(w=(3.0, 4.0, 6.0), z=Z, kind="ncp-nfe",
                              num_blocks=60).to_dict(),
        ),
        policy="sjf")
    with ServiceClient(workers=1) as client:
        served = client.request(request)
        assert served.digest() == execute(request).digest(), (
            "served multi-engagement settlements diverged from the "
            "direct arbiter run")
        assert served.digest() == serial_reference(request), (
            "arbiter settlements diverged from the serial reference")
        assert set(served.outcomes) == {"E1", "E2"}
        assert all(rec["completed"] for rec in served.outcomes.values())

        again = client.request(request)
        assert again.cached and again.digest() == served.digest()
    print("multi-engagement pass ok: K=2 sjf settles like the serial "
          f"reference (order {' -> '.join(served.order)})")


def market_pass() -> None:
    """A seeded market run served off the warm pool.

    The MarketResult's identity is its round-stream digest, so the
    smoke reduces to one equality: the served run must reproduce the
    direct ``execute()`` digest exactly, the ledger must conserve every
    round, and a repeat must replay from the result cache (a market run
    is the most expensive cacheable kind the daemon serves).
    """
    from repro.api import MarketRequest

    request = MarketRequest(rounds=30, seed=5, processors=6, cohort=3,
                            num_blocks=12, arrival_rate=2.0,
                            contention_window=0.3,
                            deviants=((0, "multiple-bids"),),
                            join_rate=0.1, leave_rate=0.05, window=10)
    direct = execute(request)
    with ServiceClient(workers=1) as client:
        served = client.request(request)
        assert served.digest() == direct.digest(), (
            "served market stream diverged from the direct run")
        assert served.summary["max_ledger_error"] < 1e-6, (
            "market ledger not conserved")
        again = client.request(request)
        assert again.cached and again.digest() == direct.digest()
    print("market pass ok: "
          f"{direct.rounds} rounds stream-digest identical across "
          "direct/served, repeat cached")


def warm_worker_pass() -> None:
    """A worker's answer does not depend on what it served before.

    Both engagements run on the one warm worker; their digests differ
    (``pki_seed`` is part of the request), so neither comes from the
    result cache.  The second must equal the direct call in full: a
    cache that outlived the first engagement would turn the second's
    memo misses into hits and show in its phase spans.
    """
    first = EngagementRequest(w=tuple(W), z=Z, num_blocks=60, pki_seed=4)
    second = EngagementRequest(w=tuple(W), z=Z, num_blocks=60, pki_seed=3)
    with ServiceClient(workers=1) as client:
        client.request(first)
        served = client.request(second)
        assert not served.cached
        assert served.outcome == execute(second).outcome, (
            "warm worker's answer depends on the request it served before")
    print("warm worker pass ok: second engagement's outcome equals the "
          "direct call's, spans included")


@contextlib.contextmanager
def serve(sock: str):
    """A ``repro serve`` daemon listening on the unix socket *sock*."""
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock],
        env=dict(os.environ), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        deadline = time.monotonic() + 30
        while not os.path.exists(sock):
            assert daemon.poll() is None, (
                "daemon exited before listening:\n"
                + (daemon.stdout.read() or ""))
            assert time.monotonic() < deadline, "daemon never listened"
            time.sleep(0.05)
        yield daemon
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)


def call(sock: str, *argv: str) -> dict:
    """One ``repro call`` against the daemon on *sock*."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "call", "--socket", sock, *argv],
        env=dict(os.environ), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr or proc.stdout
    return json.loads(proc.stdout)


def maps_numpy(pid: int) -> bool:
    """Does process *pid* map numpy's compiled core?"""
    with open(f"/proc/{pid}/maps", encoding="utf-8") as fh:
        return "_multiarray_umath" in fh.read()


def children(pid: int) -> list[int]:
    """The live child processes of *pid*."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            kids.append(int(entry))
    return kids


def cli_pass() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        sock = os.path.join(tmp, "repro.sock")
        request_file = os.path.join(tmp, "request.json")
        with open(request_file, "w", encoding="utf-8") as fh:
            json.dump(EngagementRequest(
                w=tuple(W), z=Z, num_blocks=60).to_dict(), fh)

        with serve(sock) as daemon:
            assert call(sock, "--op", "ping")["result"]["pong"] is True
            workers = children(daemon.pid)
            assert len(workers) == 1, f"expected one worker, got {workers}"
            assert not maps_numpy(daemon.pid), (
                "the daemon loaded numpy: it should only speak the wire")
            assert maps_numpy(workers[0]), (
                "the worker has not loaded the engine before its first job")
            response = call(sock, "--request", request_file)
            direct = execute(EngagementRequest(w=tuple(W), z=Z,
                                               num_blocks=60))
            assert response["result"]["digest_value"] == direct.digest(), (
                "CLI-served digest diverged from the direct call")
            assert call(sock, "--op", "stats")["result"]["completed"] == 1
            assert not maps_numpy(daemon.pid), (
                "serving a request loaded numpy into the daemon")
            shutdown = call(sock, "--op", "shutdown")["result"]
            assert shutdown["draining"] is True
            assert daemon.wait(timeout=30) == 0, "daemon exit was unclean"
    print("cli pass ok: serve/call round-trip, clean drain on shutdown; "
          "the daemon maps no numpy, its worker does")


def hostile_pass() -> None:
    """Malformed request lines get typed answers, not a dropped line.

    Both lines go out raw on one connection, below any client library:
    a ``null`` where the ``deviants`` list belongs, and a ``num_blocks``
    over its parse-time limit.  Each must come back as an
    ``invalid-request`` frame naming the field, the daemon must still
    answer ``stats``, and its output must hold no traceback.
    """
    from repro.api.v1 import LIMITS

    body = EngagementRequest(w=tuple(W), z=Z).to_dict()
    lines = [({**body, "id": 1, "deviants": None}, "deviants"),
             ({**body, "id": 2, "num_blocks": LIMITS["num_blocks"] + 1},
              "num_blocks")]
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        sock = os.path.join(tmp, "repro.sock")
        with serve(sock) as daemon:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.settimeout(30)
                conn.connect(sock)
                reader = conn.makefile("rb")
                for envelope, name in lines:
                    conn.sendall(json.dumps(envelope).encode() + b"\n")
                    frame = reader.readline()
                    assert frame, (f"no answer frame for the bad {name} "
                                   "line: the daemon dropped the connection")
                    response = json.loads(frame)
                    assert response["ok"] is False
                    assert response["error"]["code"] == "invalid-request"
                    assert name in response["error"]["message"], response
            stats = call(sock, "--op", "stats")["result"]
            assert stats["type"] == "stats-result", stats
            shutdown = call(sock, "--op", "shutdown")["result"]
            assert shutdown["draining"] is True
            assert daemon.wait(timeout=30) == 0, "daemon exit was unclean"
            output = daemon.stdout.read()
            assert "Traceback" not in output, output
    print("hostile pass ok: null deviants and over-limit num_blocks "
          "answered invalid-request, daemon still serving")


def fleet_pass() -> None:
    """Two ``repro serve --tcp`` daemons behind the sharding dispatcher.

    The dispatcher must route by settlement digest, answer both request
    kinds digest-identical to direct ``execute()``, serve a repeat from
    whichever daemon owns its shard (``cached``), and report the whole
    fleet healthy.
    """
    from repro.service import LocalFleet

    engagement = EngagementRequest(w=tuple(W), z=Z, num_blocks=60)
    sweep = sweep_request()
    with LocalFleet(daemons=2, workers=1) as fleet:
        dispatcher = fleet.dispatcher()
        assert dispatcher.request(engagement).digest() \
            == execute(engagement).digest(), (
                "fleet-served engagement diverged from the direct call")
        assert dispatcher.request(sweep).digest() \
            == execute(sweep).digest(), (
                "fleet-served sweep diverged from the direct run")

        again = dispatcher.submit(engagement)
        assert again["ok"] and again["result"].get("cached"), (
            "repeat was recomputed instead of served from a warm cache")

        stats = dispatcher.stats()
        assert stats.healthy == 2, "a daemon dropped out mid-smoke"
        assert dispatcher.counters.requests == 3
        assert not dispatcher.quarantined
    print("fleet pass ok: 2 TCP daemons shard by digest, answers match "
          "direct execution, repeat served cached")


def main() -> int:
    in_process_pass()
    committee_pass()
    multi_engagement_pass()
    market_pass()
    warm_worker_pass()
    cli_pass()
    hostile_pass()
    fleet_pass()
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
