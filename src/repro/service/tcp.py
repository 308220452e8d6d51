"""The transport seam: every socket the service stack opens lives here.

One module owns endpoint naming, listener creation and client
connections (one-shot, or kept open for many exchanges) for both
transports the daemon speaks:

* ``unix`` — a filesystem socket path (the PR 5 daemon's transport);
* ``tcp``  — ``HOST:PORT`` on a stream socket, which is what lets a
  fleet of daemons spread over ports (and, eventually, hosts).

Everything above this module — daemon, client, fleet dispatcher —
handles :class:`Endpoint` values and JSON envelopes only; the
architecture lint pins ``repro.service.tcp`` as the only module in the
service package that may import the stdlib ``socket``.  The wire format
is transport-independent: one JSON object per line, either direction,
exactly as documented in :mod:`repro.service.daemon`.

Endpoint grammar (one string, used by ``--socket``/``--tcp`` flags,
fleet endpoint lists and ``ServiceClient``):

* ``HOST:PORT`` with a numeric port and no ``/`` → tcp (``PORT`` may be
  ``0``: the kernel picks a free port, and the daemon reports the bound
  one);
* anything else → a unix socket path.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import socket
import weakref
from dataclasses import dataclass

__all__ = [
    "DEFAULT_CONNECT_TIMEOUT",
    "MAX_FRAME_BYTES",
    "Endpoint",
    "parse_endpoint",
    "start_server",
    "cleanup",
    "connect",
    "Connection",
    "Unanswered",
    "send_envelope",
    "listener_fds",
    "close_inherited_listeners",
]

#: Live listeners bound by this process, tracked so fork workers can
#: close their inherited copies (see :func:`close_inherited_listeners`).
_SERVERS: "weakref.WeakSet[asyncio.AbstractServer]" = weakref.WeakSet()

#: Upper bound on how long a client waits for the TCP three-way
#: handshake (or the unix connect) before declaring the daemon
#: unreachable.  Distinct from the I/O ``timeout``: a request may
#: legitimately compute for minutes, but a daemon that cannot *accept*
#: within seconds is down — waiting the full I/O budget on connect is
#: what made a dead TCP endpoint hang where a dead unix socket failed
#: instantly.
DEFAULT_CONNECT_TIMEOUT = 10.0

#: Longest request line (one JSON envelope) a listener accepts, in
#: bytes.  asyncio's default reader limit is 64 KiB, which a legitimate
#: bundle of a few large engagements already crosses; a line over this
#: limit gets an ``invalid-request`` error frame naming it.
MAX_FRAME_BYTES = 1 << 20


@dataclass(frozen=True)
class Endpoint:
    """A parsed service address: unix socket path or TCP host:port."""

    kind: str          # "unix" | "tcp"
    address: str       # socket path, or host
    port: int = 0

    @property
    def is_tcp(self) -> bool:
        return self.kind == "tcp"

    def __str__(self) -> str:
        if self.is_tcp:
            return f"{self.address}:{self.port}"
        return self.address


def parse_endpoint(spec) -> Endpoint:
    """Parse an endpoint spec (``HOST:PORT`` → tcp, else unix path)."""
    if isinstance(spec, Endpoint):
        return spec
    text = str(spec)
    host, sep, port = text.rpartition(":")
    if sep and host and "/" not in text and port.isdigit():
        return Endpoint("tcp", host, int(port))
    return Endpoint("unix", text)


async def start_server(spec, handler) -> tuple[asyncio.AbstractServer,
                                               Endpoint]:
    """Bind a listener for *spec*; returns ``(server, bound endpoint)``.

    For tcp specs with port 0 the returned endpoint carries the port
    the kernel actually assigned — that is what the daemon prints in
    its banner and what a fleet manager parses back.
    """
    endpoint = parse_endpoint(spec)
    if endpoint.is_tcp:
        server = await asyncio.start_server(handler, host=endpoint.address,
                                            port=endpoint.port,
                                            limit=MAX_FRAME_BYTES)
        _SERVERS.add(server)
        port = server.sockets[0].getsockname()[1]
        return server, Endpoint("tcp", endpoint.address, port)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(endpoint.address)
    server = await asyncio.start_unix_server(handler, path=endpoint.address,
                                             limit=MAX_FRAME_BYTES)
    _SERVERS.add(server)
    return server, endpoint


def listener_fds() -> tuple[int, ...]:
    """File descriptors of every listener currently bound in-process.

    Snapshotted by :class:`repro.service.pool.WarmPool` whenever it
    forks a worker, and closed by that worker at start-up.
    A closed server's ``sockets`` is empty, so stale listeners drop out
    on their own.
    """
    fds = []
    for server in _SERVERS:
        for sock in getattr(server, "sockets", ()) or ():
            try:
                fd = sock.fileno()
            except (OSError, ValueError):  # pragma: no cover — closing
                continue
            if fd >= 0:
                fds.append(fd)
    return tuple(sorted(fds))


def close_inherited_listeners(fds) -> None:
    """Fork-worker start-up: drop listener fds inherited at fork.

    A forked worker inherits every fd its parent held — including
    *listening* sockets, the parent's own or (when several daemons live
    in one process) its neighbours'.  A worker that keeps such an fd
    open keeps the kernel accepting connections on that port even after
    the owning daemon closed it or died, so clients connect, send, and
    hang instead of getting the connection refused that drives fleet
    failover.  Each fd is verified to still be a *listening* socket
    (``SO_ACCEPTCONN``) before closing, so a recycled descriptor number
    is left alone.
    """
    for fd in fds:
        try:
            sock = socket.socket(fileno=fd)
        except OSError:
            continue  # recycled as a non-socket (or already closed)
        try:
            listening = sock.getsockopt(socket.SOL_SOCKET,
                                        socket.SO_ACCEPTCONN)
        except OSError:  # pragma: no cover — can't tell; leave it be
            listening = False
        if listening:
            with contextlib.suppress(OSError):
                sock.close()
        else:  # pragma: no cover — recycled as a data socket
            sock.detach()


def cleanup(spec) -> None:
    """Remove a dead listener's filesystem residue (unix only)."""
    endpoint = parse_endpoint(spec)
    if not endpoint.is_tcp:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(endpoint.address)


def connect(spec, *, timeout: float = 300.0,
            connect_timeout: float | None = None) -> socket.socket:
    """A connected stream socket to *spec*.

    The connect phase is bounded by ``connect_timeout`` (default
    :data:`DEFAULT_CONNECT_TIMEOUT`, never more than ``timeout``); once
    connected the socket's I/O timeout is the full ``timeout``.  Raises
    ``OSError`` (refused / timed out / missing path) — callers map that
    to their "daemon unreachable" handling.
    """
    endpoint = parse_endpoint(spec)
    if connect_timeout is None:
        connect_timeout = DEFAULT_CONNECT_TIMEOUT
    connect_timeout = min(float(connect_timeout), float(timeout))
    if endpoint.is_tcp:
        sock = socket.create_connection((endpoint.address, endpoint.port),
                                        timeout=connect_timeout)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(connect_timeout)
        try:
            sock.connect(endpoint.address)
        except BaseException:
            sock.close()
            raise
    sock.settimeout(timeout)
    return sock


class Unanswered(ConnectionResetError):
    """The peer closed or reset the connection before any response byte.

    On a connection that already carried an exchange this means the
    daemon dropped it while idle (drain, restart): the request was not
    answered, so a caller may resend it on a fresh connection.
    """


class Connection:
    """A client connection that carries one exchange after another.

    The daemon answers each request line before it reads the next, so
    a connection needs no framing beyond the newline.  Not thread-safe:
    one sender per connection.
    """

    _sock = None

    def __init__(self, spec, *, timeout: float = 300.0,
                 connect_timeout: float | None = None) -> None:
        self.spec = spec
        self._sock = connect(spec, timeout=timeout,
                             connect_timeout=connect_timeout)

    def exchange(self, envelope: dict) -> dict:
        """Send one JSON-lines envelope; return the response object.

        Raises :class:`Unanswered` when the peer hangs up before any
        response byte, and ``ConnectionResetError`` when it hangs up
        mid-line (the daemon died while replying) — a connection error,
        never a decode error, so callers treat it like a refused
        connect: quarantine and fail over.
        """
        try:
            self._sock.sendall(json.dumps(envelope).encode("utf-8") + b"\n")
            chunk = self._sock.recv(65536)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise Unanswered(f"connection to {self.spec} closed before "
                             "a full response line") from exc
        if not chunk:
            raise Unanswered(f"connection to {self.spec} closed before "
                             "a full response line")
        chunks = [chunk]
        while not chunk.endswith(b"\n"):
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionResetError(
                    f"connection to {self.spec} closed before a full "
                    "response line")
            chunks.append(chunk)
        return json.loads(b"".join(chunks))

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()

    __del__ = close


def send_envelope(spec, envelope: dict, *, timeout: float = 300.0,
                  connect_timeout: float | None = None) -> dict:
    """Send one JSON-lines envelope to a daemon; return its response.

    The one-shot wire primitive shared by ``ServiceClient``, ``repro
    call`` and fleet management — one fresh connection, one line out,
    one line back, over either transport.
    """
    with contextlib.closing(Connection(
            spec, timeout=timeout, connect_timeout=connect_timeout)) as conn:
        return conn.exchange(envelope)
