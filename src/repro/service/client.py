"""In-process service client: a real daemon on a private endpoint.

:class:`ServiceClient` embeds a :class:`~repro.service.daemon.ReproService`
— its own event loop thread, its own listener (a unix socket in a temp
directory by default, or a loopback TCP port via ``tcp=``), its own
warm worker pool — and offers plain synchronous calls.  Tests and
notebooks get the full service stack (queueing, backpressure,
deadlines, caching, crash recovery) without managing a process.

Each call opens a fresh connection (a one-shot ``send_envelope``), so N
threads calling concurrently exercise N concurrent connections against
the daemon.  All socket work is delegated to :mod:`repro.service.tcp`,
the service package's one transport seam.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import tempfile
import threading

from repro.api import ServiceStats, result_from_dict
from repro.service.daemon import DEFAULT_QUEUE_SIZE, ReproService
from repro.service.tcp import send_envelope

__all__ = ["ServiceClient", "ServiceError", "send_envelope"]


class ServiceError(RuntimeError):
    """A request the daemon answered with ``ok: false``."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class ServiceClient:
    """Synchronous façade over an embedded :class:`ReproService`."""

    def __init__(self, *, workers: int = 1,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 cache_size: int = 256, socket_path=None,
                 tcp: str | None = None, warm: bool = True) -> None:
        if socket_path is not None and tcp is not None:
            raise ValueError("give at most one of socket_path= and tcp=")
        self._tmp = None
        if tcp is not None:
            endpoint = str(tcp)
        else:
            if socket_path is None:
                self._tmp = tempfile.TemporaryDirectory(prefix="repro-svc-")
                socket_path = os.path.join(self._tmp.name, "repro.sock")
            endpoint = str(socket_path)
        # Build the service (and fork its pool) *before* the loop thread
        # exists: forking from a single-threaded process is the safe
        # order, and the workers inherit everything registered so far.
        self.service = ReproService(endpoint, workers=workers,
                                    queue_size=queue_size,
                                    cache_size=cache_size, warm=warm)
        self.socket_path = self.service.socket_path
        self.endpoint = str(self.service.endpoint)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-service", daemon=True)
        self._thread.start()
        self._ids = itertools.count(1)
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.start(), self._loop).result(timeout=30)
        except Exception:
            self.close()
            raise
        # TCP port 0 is only resolved once the listener is bound.
        self.endpoint = str(self.service.bound)

    # -- raw wire access ----------------------------------------------------

    def raw_request(self, envelope: dict, *, timeout: float = 300.0) -> dict:
        """Send one envelope (adding ``id``); return the raw response."""
        envelope = {"id": next(self._ids), **envelope}
        response = send_envelope(self.endpoint, envelope, timeout=timeout)
        if response.get("id") != envelope["id"]:
            raise ServiceError(
                "protocol", f"response id {response.get('id')!r} does not "
                            f"match request id {envelope['id']}")
        return response

    # -- typed calls --------------------------------------------------------

    def request(self, request, *, deadline: float | None = None,
                timeout: float = 300.0):
        """Execute a v1 request; returns the parsed v1 result.

        Raises :class:`ServiceError` (with ``.code``) on any daemon-side
        failure — validation, backpressure, deadline, worker death.
        """
        envelope = dict(request.to_dict()
                        if hasattr(request, "to_dict") else request)
        if deadline is not None:
            envelope["deadline"] = deadline
        response = self.raw_request(envelope, timeout=timeout)
        if not response.get("ok"):
            err = response.get("error") or {}
            raise ServiceError(err.get("code", "internal"),
                               err.get("message", "request failed"))
        return result_from_dict(response["result"])

    def ping(self) -> dict:
        return self.raw_request({"op": "ping"})["result"]

    def stats(self) -> ServiceStats:
        """The daemon's live counters as a :class:`ServiceStats`."""
        response = self.raw_request({"op": "stats"})
        return ServiceStats.from_dict(response["result"])

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, *, timeout: float = 60.0) -> None:
        """Gracefully drain and stop the embedded daemon."""
        asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self._loop).result(timeout=timeout)

    def close(self) -> None:
        """Stop everything (drains first if the daemon still runs)."""
        try:
            if (self.service._server is not None
                    and not self._loop.is_closed()):
                self.shutdown()
        finally:
            if not self._loop.is_closed():
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=10)
                self._loop.close()
            if self._tmp is not None:
                self._tmp.cleanup()
                self._tmp = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
