"""When the bytes of a response arrive, over raw sockets, on both tiers.

A response written as two segments — head, then body — meets Nagle's
algorithm on the way out and the client's delayed ACK on the way back:
the body waits ~40 ms (a kernel timer, the same on every host) for an
ACK the client is in no hurry to send.  The client here is as stock as
they come: no ``TCP_QUICKACK``, no ``TCP_NODELAY``, each request sent
in one ``sendall``, strictly one request at a time.  So:

* **no stall** — the median round trip of warm small hits, of
  single-row ``/v1/update`` acks and of 404s is far below the timer;
* **the reason** — every accepted socket has ``TCP_NODELAY`` set, and
  the first bytes a client can read already hold the whole small
  response (head and body left in one write);
* **nothing else moved** — head framing per transport is pinned to the
  header set and order the two tiers have always sent.
"""

import json
import socket
import statistics
import time

import pytest

from repro.query.parser import parse_program
from repro.server import core
from repro.server.handlers import ProvenanceRequestHandler

from test_server import serve, small_db

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

PROGRAM = "V(x, z) :- R(x, y), S(y, z)"
QUERY = "ans(x, z) :- R(x, y), S(y, z)"

#: The stall is a 40 ms timer; half of it is the threshold.
STALL_MS = 20.0
ROUNDS = 30


def request_bytes(method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = "{} {} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n".format(
        method, path, len(body)
    )
    return head.encode("latin-1") + body


def round_trip(sock, payload):
    """One request, one ``sendall``; ``(ms, status, head lines, body)``."""
    started = time.perf_counter()
    sock.sendall(payload)
    data = b""
    while b"\r\n\r\n" not in data:
        data += sock.recv(65536)
    head, _sep, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    length = next(
        int(line.partition(":")[2]) for line in lines if line.startswith("Content-Length:")
    )
    while len(body) < length:
        body += sock.recv(65536)
    elapsed = (time.perf_counter() - started) * 1e3
    return elapsed, int(lines[0].split()[1]), lines, body


@pytest.fixture(params=["threaded", "async"])
def served(request):
    program = parse_program(PROGRAM)
    with serve(small_db(), program=program, server_mode=request.param) as (server, _client):
        with socket.create_connection(server.server_address[:2], timeout=30) as sock:
            yield server, sock


class TestNoStall:
    def test_warm_small_hits(self, served):
        _server, sock = served
        payload = request_bytes("POST", "/v1/query", {"query": QUERY})
        _ms, status, _lines, cold = round_trip(sock, payload)
        assert status == 200
        trips = [round_trip(sock, payload) for _ in range(ROUNDS)]
        assert all(body == cold for _ms, _status, _lines, body in trips)
        assert statistics.median(ms for ms, *_rest in trips) < STALL_MS

    def test_single_row_update_acks(self, served):
        _server, sock = served
        times = []
        for serial in range(ROUNDS):
            update = {
                "insert": {
                    "R": [{"row": ["n{}".format(serial), "b"], "annotation": "u{}".format(serial)}]
                }
            }
            ms, status, _lines, body = round_trip(
                sock, request_bytes("POST", "/v1/update", update)
            )
            assert status == 200 and json.loads(body)["changes"] == 1
            times.append(ms)
        assert statistics.median(times) < STALL_MS

    def test_unknown_path(self, served):
        _server, sock = served
        trips = [round_trip(sock, request_bytes("GET", "/v1/nope")) for _ in range(ROUNDS)]
        assert {status for _ms, status, _lines, _body in trips} == {404}
        assert statistics.median(ms for ms, *_rest in trips) < STALL_MS


class TestWhy:
    def test_accepted_sockets_have_nodelay(self, served, monkeypatch):
        """Read off the server's side of a live connection: the threaded
        handler's ``connection``, the async tier's per-connection record
        (asyncio's own helper skips ``proto=0`` sockets, which is what
        ``socket.create_server`` listeners accept)."""
        server, sock = served
        accepted = []
        setup = ProvenanceRequestHandler.setup

        def spying_setup(handler):
            setup(handler)
            accepted.append(handler.connection)

        monkeypatch.setattr(ProvenanceRequestHandler, "setup", spying_setup)
        # The fixture's connection predates the spy; open a second one.
        with socket.create_connection(server.server_address[:2], timeout=30) as second:
            _ms, status, _lines, _body = round_trip(second, request_bytes("GET", "/v1/stats"))
            assert status == 200
            if hasattr(server, "_connections"):  # the async tier
                accepted = [flags.sock for flags in list(server._connections.values())]
            assert accepted
            for theirs in accepted:
                assert theirs.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 0  # stock client

    def test_a_small_response_arrives_whole(self, served):
        """Head and body in one segment: the first ``recv`` that returns
        anything returns the full response."""
        _server, sock = served
        sock.sendall(request_bytes("GET", "/v1/nope"))
        first = sock.recv(65536)
        head, sep, body = first.partition(b"\r\n\r\n")
        assert sep
        length = int(head.lower().partition(b"content-length:")[2].split(b"\r\n")[0])
        assert len(body) == length > 0


class TestHeadFraming:
    """``core.render_head`` against the framing each tier always sent."""

    def test_header_set_and_order_per_transport(self, served):
        server, sock = served
        _ms, status, lines, _body = round_trip(sock, request_bytes("GET", "/stats"))
        assert status == 200 and lines[0] == "HTTP/1.1 200 OK"
        names = [line.partition(":")[0] for line in lines[1:]]
        # The legacy mount adds its two advisory headers after the
        # standard four; neither tier says ``Connection`` when it keeps
        # the socket.
        assert names == [
            "Server", "Date", "Content-Type", "Content-Length", "Deprecation", "Link",
        ]
        if hasattr(server, "_connections"):  # the async tier
            assert lines[1] == "Server: repro-prov"
        else:
            assert lines[1].startswith("Server: repro-prov Python/")

    def test_render_head_variants(self):
        response = core.Response(503, b"{}\n", headers={"Retry-After": "1"})
        plain = core.render_head(response, "t").decode("latin-1").split("\r\n")
        assert plain[0] == "HTTP/1.1 503 Service Unavailable"
        assert plain[1] == "Server: t" and plain[2].startswith("Date: ")
        assert plain[3:] == [
            "Content-Type: application/json", "Content-Length: 3", "Retry-After: 1", "", "",
        ]
        streamed = core.render_head(response, "t", chunked=True, close=True)
        assert streamed.decode("latin-1").split("\r\n")[4:] == [
            "Transfer-Encoding: chunked", "Retry-After: 1", "Connection: close", "", "",
        ]
