"""Digest-sharded daemon fleet: N daemons behind one dispatcher.

Scale-out layer over :mod:`repro.service.daemon`: a
:class:`FleetDispatcher` routes every v1 request to one of N daemons by
its canonical request digest, so each daemon's LRU result cache holds a
clean partition of the key space — the same request always lands on the
same *owner* daemon, and K daemons give K times the cache capacity with
zero duplication.

Each sender thread keeps one connection per daemon and sends its
requests down it one after another.  Failure handling:

* a kept connection the daemon dropped while idle (it drained or
  restarted) is retried once on a fresh connection — the request was
  never answered, and requests are pure functions of their payload;
* an endpoint that refuses a connection or drops one mid-request is
  **quarantined** and the routing generation is bumped (idempotent:
  concurrent victims of one dead daemon cost one quarantine, not N);
* the request **fails over** along the deterministic ring order
  (owner, owner+1, ...) — requests are pure functions of their payload,
  so a retry after a mid-flight connection loss can only recompute the
  same answer, never a wrong one;
* before a peer recomputes, the dispatcher **peeks** the surviving
  daemons' result caches (the ``peek`` op) — an answer computed before
  the owner died, or cached on a previous failover, is returned without
  burning a worker;
* quarantined endpoints are kept as last-resort candidates and restored
  the moment they answer again (:meth:`FleetDispatcher.check_health`),
  so a restarted daemon rejoins with its shard intact.

A request fails only when *every* daemon is unreachable or draining —
surfaced as the retryable code ``unavailable`` so callers know to
resubmit, never as a hang or a wrong answer.

:class:`LocalFleet` is the process manager behind ``repro fleet`` and
``repro loadgen``: it spawns N ``repro serve`` subprocesses (TCP on
loopback by default), parses the bound endpoints from their banners,
and hands out dispatchers.

This module sits strictly above daemon/client: it speaks JSON envelopes
through :mod:`repro.service.tcp` and types from :mod:`repro.api`, and
never imports the protocol, network or kernel layers
(architecture-linted).
"""

from __future__ import annotations

import itertools
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.api import FleetStatsResult, request_from_dict, result_from_dict
from repro.service.client import ServiceError
from repro.service.daemon import DEFAULT_QUEUE_SIZE
from repro.service.tcp import Connection, Unanswered, send_envelope

__all__ = [
    "RETRYABLE_CODES",
    "FleetCounters",
    "FleetDispatcher",
    "LocalFleet",
]

#: Error codes that mean "nothing wrong with the request — resubmit":
#: the fleet could not place it this time (every daemon down or
#: draining).  Everything else is a verdict on the request itself.
RETRYABLE_CODES = frozenset({"unavailable", "shutting-down"})

_BANNER = re.compile(r"repro service on (\S+) ")


def _shard_key(digest: str) -> int:
    """Stable 64-bit shard key from a canonical request digest."""
    return int(digest[:16], 16)


@dataclass
class FleetCounters:
    """Dispatcher-side tallies (per-daemon counters live in the daemons)."""

    requests: int = 0
    failovers: int = 0         # answered by a non-owner endpoint
    peeks: int = 0             # cross-daemon cache probes sent
    peek_hits: int = 0         # probes that returned a cached answer
    quarantined: int = 0       # endpoints marked down (cumulative)
    restored: int = 0          # endpoints brought back (cumulative)
    unavailable: int = 0       # requests no daemon could serve
    by_endpoint: Counter = field(default_factory=Counter)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "failovers": self.failovers,
            "peeks": self.peeks,
            "peek_hits": self.peek_hits,
            "quarantined": self.quarantined,
            "restored": self.restored,
            "unavailable": self.unavailable,
            "by_endpoint": dict(self.by_endpoint),
        }


class FleetDispatcher:
    """Client-side router over a fixed list of daemon endpoints.

    Thread-safe: each thread keeps its own connection per endpoint, so
    N threads calling :meth:`request` concurrently exercise N
    concurrent connections spread across the fleet, like N independent
    clients that happen to agree on routing.
    """

    def __init__(self, endpoints, *, timeout: float = 300.0,
                 connect_timeout: float = 5.0, shard_key=None) -> None:
        self.endpoints = [str(e) for e in endpoints]
        if not self.endpoints:
            raise ValueError("a fleet needs at least one daemon endpoint")
        if len(set(self.endpoints)) != len(self.endpoints):
            raise ValueError(
                f"fleet endpoints must be distinct; got {self.endpoints}")
        self.timeout = float(timeout)
        self.connect_timeout = float(connect_timeout)
        self._shard_key = shard_key or _shard_key
        self.counters = FleetCounters()
        self.generation = 0
        self._quarantined: set[str] = set()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()  # .kept: {endpoint: Connection}

    # -- routing ------------------------------------------------------------

    def shard_of(self, digest: str) -> int:
        """The owner index for a request digest — stable for the fleet's
        lifetime, independent of daemon health (health moves *serving*,
        never *ownership*, so a recovered daemon gets its shard back)."""
        return self._shard_key(digest) % len(self.endpoints)

    def route(self, digest: str) -> list[str]:
        """Candidate endpoints in failover order.

        The ring starting at the owner, healthy endpoints first;
        quarantined ones stay at the tail as a last resort so a fleet
        that was briefly all-down can still recover liveness.
        """
        n = len(self.endpoints)
        start = self.shard_of(digest)
        ring = [self.endpoints[(start + i) % n] for i in range(n)]
        with self._lock:
            down = set(self._quarantined)
        return ([e for e in ring if e not in down]
                + [e for e in ring if e in down])

    def quarantine(self, endpoint: str) -> None:
        """Mark an endpoint down (idempotent, generation-counted)."""
        with self._lock:
            if endpoint not in self._quarantined:
                self._quarantined.add(endpoint)
                self.counters.quarantined += 1
                self.generation += 1

    def restore(self, endpoint: str) -> None:
        """Bring a quarantined endpoint back into primary rotation."""
        with self._lock:
            if endpoint in self._quarantined:
                self._quarantined.discard(endpoint)
                self.counters.restored += 1
                self.generation += 1

    @property
    def quarantined(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(e for e in self.endpoints
                         if e in self._quarantined)

    def check_health(self) -> dict[str, bool]:
        """Ping every endpoint; quarantine the dead, restore the live."""
        health: dict[str, bool] = {}
        for endpoint in self.endpoints:
            try:
                response = self._call(endpoint, {"op": "ping"})
                alive = (bool(response.get("ok"))
                         and not response["result"].get("draining"))
            except OSError:
                alive = False
            health[endpoint] = alive
            (self.restore if alive else self.quarantine)(endpoint)
        return health

    # -- wire ---------------------------------------------------------------

    def _call(self, endpoint: str, envelope: dict) -> dict:
        """One exchange on this thread's kept connection to *endpoint*.

        Only a reused connection that fails before any response byte is
        retried, once, on a fresh connection; every other failure
        raises (``OSError``: the caller quarantines and fails over).
        """
        envelope = {"id": next(self._ids), **envelope}
        try:
            kept = self._local.kept
        except AttributeError:
            kept = self._local.kept = {}
        conn = kept.pop(endpoint, None)
        try:
            if conn is not None:
                try:
                    response = conn.exchange(envelope)
                except Unanswered:
                    conn.close()
                    conn = None
            if conn is None:
                conn = Connection(endpoint, timeout=self.timeout,
                                  connect_timeout=self.connect_timeout)
                response = conn.exchange(envelope)
        except BaseException:
            if conn is not None:
                conn.close()
            raise
        if response.get("id") != envelope["id"]:
            conn.close()
            raise ServiceError(
                "protocol", f"response id {response.get('id')!r} from "
                            f"{endpoint} does not match request id "
                            f"{envelope['id']}")
        kept[endpoint] = conn
        return response

    def _peek(self, digest: str, endpoints) -> dict | None:
        """Probe *endpoints* for a cached answer to *digest*."""
        for endpoint in endpoints:
            with self._lock:
                self.counters.peeks += 1
            try:
                response = self._call(endpoint,
                                      {"op": "peek", "digest": digest})
            except OSError:
                self.quarantine(endpoint)
                continue
            if response.get("ok") and response["result"].get("hit"):
                with self._lock:
                    self.counters.peek_hits += 1
                return {"ok": True, "result": response["result"]["result"]}
        return None

    # -- serving ------------------------------------------------------------

    def submit(self, request, *, deadline: float | None = None) -> dict:
        """Route one v1 request; returns the raw response envelope body.

        Never raises for daemon failures: connection errors walk the
        failover ring (peeking caches first), and total unavailability
        comes back as ``{"ok": false, "error": {"code": "unavailable"}}``.
        """
        if hasattr(request, "digest"):
            payload, digest = request.to_dict(), request.digest()
        else:
            payload = dict(request)
            digest = request_from_dict(payload).digest()
        envelope = dict(payload)
        if deadline is not None:
            envelope["deadline"] = deadline
        with self._lock:
            self.counters.requests += 1

        last_failure = "no endpoint attempted"
        candidates = self.route(digest)
        for pos, endpoint in enumerate(candidates):
            if pos == 1:
                # The owner is gone: before any peer recomputes, check
                # whether some surviving daemon already holds the answer.
                peeked = self._peek(digest, candidates[pos:])
                if peeked is not None:
                    return peeked
            try:
                response = self._call(endpoint, envelope)
            except OSError as exc:
                self.quarantine(endpoint)
                last_failure = f"{endpoint}: {exc}"
                continue
            if not response.get("ok"):
                code = (response.get("error") or {}).get("code")
                if code == "shutting-down":
                    # Draining daemons refuse new work by design; treat
                    # like a dead endpoint and move along the ring.
                    self.quarantine(endpoint)
                    last_failure = f"{endpoint}: draining"
                    continue
            with self._lock:
                if pos:
                    self.counters.failovers += 1
                self.counters.by_endpoint[endpoint] += 1
            # It answered — if it was quarantined (last-resort path),
            # it is evidently back.
            self.restore(endpoint)
            return response
        with self._lock:
            self.counters.unavailable += 1
        return {"ok": False, "error": {
            "code": "unavailable",
            "message": f"no daemon of {len(self.endpoints)} could serve "
                       f"the request (retryable; last failure: "
                       f"{last_failure})"}}

    def request(self, request, *, deadline: float | None = None):
        """Typed façade over :meth:`submit` (parsed result or
        :class:`ServiceError` carrying the daemon/fleet error code)."""
        response = self.submit(request, deadline=deadline)
        if not response.get("ok"):
            err = response.get("error") or {}
            raise ServiceError(err.get("code", "internal"),
                               err.get("message", "request failed"))
        return result_from_dict(response["result"])

    # -- observability ------------------------------------------------------

    def stats(self) -> FleetStatsResult:
        """Aggregate fleet view: per-daemon stats + dispatcher counters."""
        daemons = []
        for endpoint in self.endpoints:
            try:
                response = self._call(endpoint, {"op": "stats"})
                daemons.append({"endpoint": endpoint,
                                "healthy": bool(response.get("ok")),
                                "stats": response.get("result")})
            except OSError:
                daemons.append({"endpoint": endpoint, "healthy": False,
                                "stats": None})
        return FleetStatsResult(daemons=tuple(daemons),
                                dispatcher=self.counters.to_dict())

    def shutdown_all(self) -> None:
        """Send every reachable daemon the graceful-drain op."""
        for endpoint in self.endpoints:
            try:
                self._call(endpoint, {"op": "shutdown"})
            except OSError:
                pass


class LocalFleet:
    """N ``repro serve`` subprocesses on loopback, managed as one unit.

    The process-backed counterpart of embedding N ``ServiceClient``\\ s:
    real daemons, real sockets, real kills.  Used by ``repro fleet`` /
    ``repro loadgen`` and by the chaos suite (which SIGKILLs members
    mid-stream and expects the dispatcher to carry on).
    """

    def __init__(self, daemons: int = 2, *, workers: int = 1,
                 transport: str = "tcp",
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 cache_size: int = 256,
                 startup_timeout: float = 60.0) -> None:
        if daemons < 1:
            raise ValueError(f"a fleet needs >= 1 daemon; got {daemons}")
        if transport not in ("tcp", "unix"):
            raise ValueError(f"transport must be tcp or unix; "
                             f"got {transport!r}")
        self.transport = transport
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.processes: list[subprocess.Popen] = []
        self.endpoints: list[str] = []
        try:
            for i in range(daemons):
                if transport == "tcp":
                    listen = ["--tcp", "127.0.0.1:0"]
                else:
                    listen = ["--socket",
                              os.path.join(self._tmp.name, f"d{i}.sock")]
                self.processes.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve", *listen,
                     "--workers", str(workers),
                     "--queue-size", str(queue_size),
                     "--cache-size", str(cache_size)],
                    env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT, text=True))
            for proc in self.processes:
                self.endpoints.append(
                    self._bound_endpoint(proc, startup_timeout))
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _bound_endpoint(proc: subprocess.Popen, timeout: float) -> str:
        """Parse the daemon's banner line for its bound endpoint."""
        banner: list[str] = []

        def read() -> None:
            banner.append(proc.stdout.readline())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if not banner or not banner[0]:
            proc.kill()
            raise RuntimeError(
                "daemon never announced its endpoint"
                + (f" (exit {proc.returncode})"
                   if proc.poll() is not None else ""))
        match = _BANNER.search(banner[0])
        if match is None:
            proc.kill()
            raise RuntimeError(f"unrecognized daemon banner: {banner[0]!r}")
        return match.group(1)

    def dispatcher(self, **kwargs) -> FleetDispatcher:
        return FleetDispatcher(self.endpoints, **kwargs)

    def kill(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Chaos hook: signal one member (default SIGKILL, no drain)."""
        self.processes[index].send_signal(sig)

    def poll(self) -> list[int | None]:
        return [proc.poll() for proc in self.processes]

    def close(self, *, timeout: float = 30.0) -> None:
        """Drain every live member, then reap (kill stragglers)."""
        for proc, endpoint in zip(self.processes, self.endpoints):
            if proc.poll() is None:
                try:
                    send_envelope(endpoint, {"id": 0, "op": "shutdown"},
                                  timeout=10.0, connect_timeout=5.0)
                except OSError:
                    proc.terminate()
        deadline = time.monotonic() + timeout
        for proc in self.processes:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
            if proc.stdout is not None:
                proc.stdout.close()
        self._tmp.cleanup()

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
