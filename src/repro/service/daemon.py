"""The engagement service: an asyncio JSON-lines daemon.

``repro serve`` runs one :class:`ReproService`; tests embed one through
:class:`repro.service.client.ServiceClient`.  The daemon accepts
newline-delimited JSON envelopes, executes v1 requests on a warm fork
worker pool, and answers with v1 results carrying the same canonical
digests the serial library paths produce.

The listener is transport-agnostic: the endpoint spec (a unix socket
path, or ``HOST:PORT`` for TCP) is parsed and bound by
:mod:`repro.service.tcp` — the one socket seam in the service package —
so the queueing / deadline / cache / retry machinery below is
byte-identical over both transports.  A client may send any number of
request lines on one connection; each is answered before the next is
read.

Wire protocol (one JSON object per line, either direction)::

    → {"id": 7, "schema": "repro/api/v1", "type": "engagement", ...,
       "deadline": 5.0}              # deadline (seconds) optional
    ← {"id": 7, "ok": true, "result": {.. v1 result payload ..}}
    ← {"id": 7, "ok": false, "error": {"code": "...", "message": "..."}}

    → {"id": 8, "op": "stats" | "ping" | "shutdown"}   # served inline
    → {"id": 9, "op": "peek", "digest": "..."}  # result-cache lookup,
                                                # never computes

Error codes:

* ``invalid-request`` — the payload failed v1 validation (or was not
  JSON); the message is the validation error verbatim.  A request line
  longer than :data:`repro.service.tcp.MAX_FRAME_BYTES` gets this code
  too, with a message naming the limit, and its connection is closed.
* ``backpressure`` — the bounded request queue was full at admission.
* ``deadline`` — the request's deadline passed while it was queued or
  running.  A job already running on a worker is *not* interrupted
  (the worker finishes and the answer is dropped); only worker death
  tears a computation down mid-flight.
* ``worker-died`` — the request is poisoned: its worker died on each
  of its ``max_attempts`` attempts (every retry runs on the freshly
  forked replacement).  Each worker runs one job on a private channel,
  so a death names exactly the job it interrupted; requests on the
  other workers never notice, and only the guilty request fails.
* ``domain-error`` — the engine raised while executing a valid request.
* ``shutting-down`` — the daemon is draining; resubmit elsewhere.

Lifecycle: :meth:`ReproService.shutdown` stops admitting work, drains
the queue (in-flight and queued requests complete and are answered),
then closes the listener and the pool — the graceful path behind both
the ``shutdown`` op and ``repro serve``'s signal handlers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.api import ApiError, request_from_dict
from repro.api.registry import cacheable
from repro.service import tcp
from repro.service.pool import WarmPool, WorkerDied
from repro.service.stats import ServiceCounters
from repro.service.worker import execute_payload

__all__ = ["ReproService", "DEFAULT_QUEUE_SIZE"]

DEFAULT_QUEUE_SIZE = 32
_OPS = ("ping", "stats", "peek", "shutdown")
#: How long the rest of an over-limit line is drained before hanging up
#: (closing with unread input would reset the connection and could
#: destroy the error frame before the client reads it).
_OVERSIZE_DRAIN_S = 5.0


def _error(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Discard input up to the end of the current line (or EOF)."""
    while True:
        chunk = await reader.read(1 << 16)
        if not chunk or b"\n" in chunk:
            return


@dataclass
class _Job:
    request: Any
    cache_key: str | None  # the request digest, for cacheable kinds
    deadline: float | None
    enqueued: float = field(default_factory=time.monotonic)
    future: asyncio.Future = None  # response body, set by a consumer


class ReproService:
    """One service instance bound to one endpoint (unix path or TCP)."""

    def __init__(self, endpoint, *, workers: int = 1,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 cache_size: int = 256, max_attempts: int = 2,
                 warm: bool = True) -> None:
        self.endpoint = tcp.parse_endpoint(endpoint)
        #: Where the listener actually sits — equals ``endpoint`` except
        #: for TCP port 0, where :meth:`start` fills in the bound port.
        self.bound: tcp.Endpoint = self.endpoint
        # Kept for unix-endpoint callers of the PR 5 surface.
        self.socket_path = (None if self.endpoint.is_tcp
                            else self.endpoint.address)
        self.queue_size = max(1, int(queue_size))
        self.cache_size = max(0, int(cache_size))
        self.max_attempts = max(1, int(max_attempts))
        # The pool forks eagerly (constructor, not start()) so workers
        # inherit the constructing process's state — e.g. sweep tasks
        # registered before the service was built — and so start() on
        # the event loop never blocks on process creation.
        self.pool = WarmPool(workers, warm=warm)
        self.counters = ServiceCounters()
        self._cache: OrderedDict[str, dict] = OrderedDict()
        self._queue: asyncio.Queue[_Job] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._consumers: list[asyncio.Task] = []
        self._connections: set[asyncio.Task] = set()
        self._draining = False
        self._closed: asyncio.Event | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the consumer tasks."""
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._closed = asyncio.Event()
        self._consumers = [
            asyncio.ensure_future(self._consume())
            for _ in range(self.pool.workers)]
        self._server, self.bound = await tcp.start_server(
            self.endpoint, self._handle_connection)

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` completes (``repro serve`` body)."""
        if self._server is None:
            await self.start()
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Graceful stop: reject new work, drain, then tear down."""
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        await self._queue.join()          # queued + in-flight all answered
        for task in self._consumers:
            task.cancel()
        await asyncio.gather(*self._consumers, return_exceptions=True)
        if self._server is not None:
            self._server.close()
        # Kept connections idle in readline until cancelled, and a
        # server may wait for its connections before it counts as closed.
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        tcp.cleanup(self.bound)
        self.pool.shutdown()
        self._closed.set()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(asyncio.current_task())
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran the frame limit
                    response = {"id": None, **_error(
                        "invalid-request",
                        f"request line exceeds the {tcp.MAX_FRAME_BYTES}-byte "
                        "frame limit")}
                    writer.write(json.dumps(response).encode("utf-8") + b"\n")
                    await writer.drain()
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(_skip_line(reader),
                                               _OVERSIZE_DRAIN_S)
                    break
                if not line:
                    break
                response = await self._handle_line(line)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # shutdown cancelled this connection; close it quietly
        finally:
            self._connections.discard(asyncio.current_task())
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_line(self, line: bytes) -> dict:
        try:
            envelope = json.loads(line)
            if not isinstance(envelope, dict):
                raise ValueError(
                    f"expected a JSON object; got {type(envelope).__name__}")
        except ValueError as exc:
            return {"id": None, **_error("invalid-request",
                                         f"undecodable request line: {exc}")}
        rid = envelope.get("id")
        op = envelope.get("op")
        if op is not None:
            return {"id": rid, **self._handle_op(op, envelope)}
        return {"id": rid, **await self._handle_work(envelope)}

    def _handle_op(self, op, envelope: dict) -> dict:
        if op == "ping":
            return {"ok": True, "result": {"pong": True,
                                           "draining": self._draining}}
        if op == "stats":
            stats = self.counters.snapshot(
                queue_depth=self._queue.qsize() if self._queue else 0,
                queue_capacity=self.queue_size,
                workers=self.pool.workers,
                pool_rebuilds=self.pool.respawns)
            return {"ok": True, "result": stats.to_dict()}
        if op == "peek":
            return self._handle_peek(envelope.get("digest"))
        if op == "shutdown":
            asyncio.ensure_future(self.shutdown())
            return {"ok": True, "result": {"draining": True}}
        return _error("invalid-request",
                      f"unknown op {op!r}; valid ops: {list(_OPS)}")

    def _handle_peek(self, digest) -> dict:
        """Result-cache lookup by request digest; never computes.

        The fleet dispatcher's cross-daemon cache probe: when a shard
        owner is unreachable, peers are peeked for an already-computed
        answer before any daemon recomputes it.  A miss is a cheap,
        honest ``hit: false`` — peeking must never trigger work, or a
        probe storm could saturate the queue it is trying to spare.
        """
        if not isinstance(digest, str) or not digest:
            return _error("invalid-request",
                          "peek needs a request 'digest' string")
        body = self._cache.get(digest)
        if body is None:
            return {"ok": True, "result": {"hit": False}}
        self._cache.move_to_end(digest)
        self.counters.cache_hits += 1
        return {"ok": True,
                "result": {"hit": True,
                           "result": {**body, "cached": True}}}

    async def _handle_work(self, envelope: dict) -> dict:
        deadline = envelope.get("deadline")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                return _error("invalid-request",
                              f"deadline must be seconds; got {deadline!r}")
            if deadline <= 0:
                return _error("invalid-request",
                              f"deadline must be > 0; got {deadline!r}")
        payload = {k: v for k, v in envelope.items()
                   if k not in ("id", "deadline")}
        try:
            request = request_from_dict(payload)
        except ApiError as exc:
            return _error("invalid-request", str(exc))

        self.counters.note_request(request.TYPE)
        if self._draining:
            return _error("shutting-down",
                          "service is draining and admits no new work")

        cache_key = self._cache_key(request)
        if cache_key is not None and cache_key in self._cache:
            self._cache.move_to_end(cache_key)
            self.counters.cache_hits += 1
            self.counters.note_completed(0.0)
            return {"ok": True,
                    "result": {**self._cache[cache_key], "cached": True}}

        job = _Job(request=request, cache_key=cache_key, deadline=deadline,
                   future=asyncio.get_running_loop().create_future())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.counters.rejected += 1
            return _error(
                "backpressure",
                f"request queue is full ({self.queue_size} pending); "
                "retry later or raise --queue-size")
        return await job.future

    def _cache_key(self, request) -> str | None:
        """Digest key for cacheable kinds; the registry knows which
        (bench answers are wall-clock measurements — never cached)."""
        if self.cache_size == 0 or not cacheable(request):
            return None
        return request.digest()

    # -- execution ----------------------------------------------------------

    async def _consume(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                body = await self._run_job(job)
            except asyncio.CancelledError:
                if not job.future.done():  # pragma: no cover — defensive
                    job.future.set_result(
                        _error("shutting-down", "service stopped"))
                raise
            except Exception as exc:  # pragma: no cover — defensive
                body = _error("internal", f"{type(exc).__name__}: {exc}")
            finally:
                self._queue.task_done()
            if not job.future.done():
                job.future.set_result(body)

    def _remaining(self, job: _Job) -> float | None:
        if job.deadline is None:
            return None
        return job.deadline - (time.monotonic() - job.enqueued)

    async def _run_job(self, job: _Job) -> dict:
        remaining = self._remaining(job)
        if remaining is not None and remaining <= 0:
            self.counters.expired += 1
            return _error("deadline",
                          f"deadline of {job.deadline}s passed while queued")
        self.counters.in_flight += 1
        try:
            return await self._run_attempts(job)
        finally:
            self.counters.in_flight -= 1

    async def _run_attempts(self, job: _Job) -> dict:
        payload = job.request.to_dict()
        for attempt in range(1, self.max_attempts + 1):
            _, future = self.pool.submit(execute_payload, payload)
            try:
                status, body = await asyncio.wait_for(
                    future, self._remaining(job))
            except asyncio.TimeoutError:
                # The worker keeps running; only its answer is dropped.
                self.counters.expired += 1
                return _error("deadline",
                              f"deadline of {job.deadline}s passed after "
                              f"{attempt} attempt(s)")
            except WorkerDied:
                # This job's own worker died under it; the pool has
                # already forked a replacement to retry on.
                continue
            return self._finish(job, status, body)
        self.counters.failed += 1
        return _error("worker-died",
                      f"request killed its worker {self.max_attempts} "
                      "time(s); abandoned as poisoned")

    def _finish(self, job: _Job, status: str, body: dict) -> dict:
        if status == "ok":
            cache_key = job.cache_key
            if cache_key is not None:
                self._cache[cache_key] = body
                self._cache.move_to_end(cache_key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
            self.counters.note_completed(time.monotonic() - job.enqueued)
            return {"ok": True, "result": body}
        self.counters.failed += 1
        return _error(body.get("code", "domain-error"),
                      body.get("message", "request failed"))
