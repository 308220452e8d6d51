"""The transport seam: endpoint grammar, TCP parity, connect timeouts.

The daemon's machinery must be byte-identical over both transports, so
the headline test runs the same request against a unix-socket client
and a TCP client and compares canonical digests.  The connect-timeout
tests pin the PR 9 fix: a dead TCP endpoint fails in bounded time with
``OSError`` (then exit 2 at the CLI), exactly like a missing unix
socket path always has.
"""

import socket
import time

import pytest

from repro.api import EngagementRequest, execute
from repro.service import ServiceClient
from repro.service.tcp import (
    MAX_FRAME_BYTES,
    Endpoint,
    connect,
    parse_endpoint,
    send_envelope,
)

W = (2.0, 3.0, 5.0)
Z = 0.4


class TestEndpointGrammar:
    @pytest.mark.parametrize("spec,kind,address,port", [
        ("127.0.0.1:0", "tcp", "127.0.0.1", 0),
        ("localhost:7341", "tcp", "localhost", 7341),
        ("10.0.0.8:65535", "tcp", "10.0.0.8", 65535),
        ("/tmp/repro.sock", "unix", "/tmp/repro.sock", 0),
        ("/tmp/odd:123/repro.sock", "unix", "/tmp/odd:123/repro.sock", 0),
        ("relative.sock", "unix", "relative.sock", 0),
        ("host:notaport", "unix", "host:notaport", 0),
        (":123", "unix", ":123", 0),
    ])
    def test_parse(self, spec, kind, address, port):
        endpoint = parse_endpoint(spec)
        assert (endpoint.kind, endpoint.address, endpoint.port) \
            == (kind, address, port)

    def test_str_round_trips(self):
        for spec in ("127.0.0.1:7341", "/tmp/repro.sock"):
            assert str(parse_endpoint(spec)) == spec
        assert parse_endpoint(parse_endpoint("h:1")) == Endpoint("tcp",
                                                                 "h", 1)


class TestTcpParity:
    def test_tcp_digest_identical_to_unix_and_direct(self):
        req = EngagementRequest(w=W, z=Z, num_blocks=30)
        direct = execute(req).digest()
        with ServiceClient(tcp="127.0.0.1:0") as tcp_client:
            # Port 0 resolved: the client's endpoint names the real port.
            host, port = tcp_client.endpoint.rsplit(":", 1)
            assert host == "127.0.0.1" and int(port) > 0
            assert tcp_client.request(req).digest() == direct
        with ServiceClient() as unix_client:
            assert unix_client.request(req).digest() == direct

    def test_client_rejects_both_transports(self):
        with pytest.raises(ValueError, match="at most one"):
            ServiceClient(socket_path="/tmp/x.sock", tcp="127.0.0.1:0")


class TestConnectTimeout:
    def test_dead_unix_socket_fails_immediately(self, tmp_path):
        with pytest.raises(OSError):
            send_envelope(str(tmp_path / "absent.sock"),
                          {"id": 0, "op": "ping"})

    def test_unaccepting_tcp_endpoint_fails_within_connect_timeout(self):
        # A bound socket that never calls accept(): once its backlog is
        # full, connects hang at the TCP level — the exact shape that
        # used to stall `repro call --tcp` for the full I/O timeout.
        listener = socket.socket()
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(0)
            port = listener.getsockname()[1]
            filler = []
            try:
                # Saturate the backlog so the next connect cannot finish.
                for _ in range(32):
                    s = socket.socket()
                    s.settimeout(0.2)
                    try:
                        s.connect(("127.0.0.1", port))
                    except OSError:
                        s.close()
                        break
                    filler.append(s)
                start = time.monotonic()
                with pytest.raises(OSError):
                    connect(f"127.0.0.1:{port}", timeout=300.0,
                            connect_timeout=0.5)
                elapsed = time.monotonic() - start
                # Bounded by connect_timeout, not the 300s I/O budget.
                assert elapsed < 10.0
            finally:
                for s in filler:
                    s.close()
        finally:
            listener.close()

    def test_refused_tcp_port_raises_oserror(self):
        # Grab a free port, close it, then connect: refused, not hung.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            send_envelope(f"127.0.0.1:{port}", {"id": 0, "op": "ping"},
                          connect_timeout=2.0)

    def test_connect_timeout_never_exceeds_io_timeout(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        start = time.monotonic()
        with pytest.raises(OSError):
            # timeout < default connect timeout: the tighter one wins.
            connect(f"127.0.0.1:{port}", timeout=0.5)
        assert time.monotonic() - start < 10.0


class TestFrameLimit:
    """Request lines up to MAX_FRAME_BYTES are served; longer ones get a
    typed error frame and a closed connection, never a daemon crash."""

    @pytest.fixture(scope="class", params=["unix", "tcp"])
    def client(self, request):
        kwargs = {"tcp": "127.0.0.1:0"} if request.param == "tcp" else {}
        with ServiceClient(workers=1, **kwargs) as c:
            yield c

    def test_large_envelope_under_the_limit_is_answered(self, client):
        # Three times asyncio's default 64 KiB reader limit.
        response = send_envelope(client.endpoint,
                                 {"id": 1, "op": "ping", "pad": "x" * 200_000},
                                 timeout=30)
        assert response == {"id": 1, "ok": True,
                            "result": {"pong": True, "draining": False}}

    def test_over_limit_line_gets_a_typed_error(self, client):
        pad = "x" * (MAX_FRAME_BYTES + 1)
        response = send_envelope(client.endpoint,
                                 {"id": 2, "op": "ping", "pad": pad},
                                 timeout=30)
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid-request"
        assert str(MAX_FRAME_BYTES) in response["error"]["message"]

    def test_daemon_still_answers_stats_afterwards(self, client):
        pad = "x" * (2 * MAX_FRAME_BYTES)
        send_envelope(client.endpoint, {"id": 3, "op": "ping", "pad": pad},
                      timeout=30)
        assert client.stats().queue_capacity > 0
        assert client.ping()
