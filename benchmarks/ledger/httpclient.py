"""A minimal keep-alive HTTP/1.1 client that timestamps the wire.

One request is one ``sendall`` (headers and body in a single segment
burst, ``TCP_NODELAY`` on, so nothing on the client side waits for an
ACK), and the response is read off the raw socket with two timestamps:
when its first byte arrived and when its last byte did.  That split is
what shows a header/body split write on the server meeting the
client's delayed ACK — a stall ``http.client`` hides inside
``getresponse()``.

:class:`EventStream` follows one SSE changefeed on its own connection
and thread, stamping each frame on arrival.
"""

from __future__ import annotations

import queue
import socket
import threading
from time import perf_counter_ns
from typing import Dict, Optional, Tuple

#: An op that takes longer than this has failed (ISSUE: 10 s timeout).
TIMEOUT = 10.0


class Response:
    """Status, headers and raw body bytes plus the three wire stamps."""

    __slots__ = ("status", "headers", "body", "sent_ns", "first_ns", "last_ns")

    def __init__(self, status, headers, body, sent_ns, first_ns, last_ns):
        self.status: int = status
        self.headers: Dict[str, str] = headers
        self.body: bytes = body
        self.sent_ns: int = sent_ns
        self.first_ns: int = first_ns
        self.last_ns: int = last_ns


def _connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _parse_head(head: bytes) -> Tuple[int, Dict[str, str]]:
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        headers[name.strip().lower().decode("latin-1")] = value.strip().decode("latin-1")
    return status, headers


class Connection:
    """One keep-alive connection; requests are strictly sequential.

    By default the kernel's delayed-ACK policy is left alone, as it is
    in ``http.client``, curl and browsers.  With ``quickack`` set (at
    any time between requests) ``TCP_QUICKACK`` is re-armed around every
    read, so the server never waits on this client's ACK timer;
    workloads say where they use it and why.
    """

    def __init__(self, host: str, port: int, quickack: bool = False):
        self._sock = _connect(host, port)
        self._host = "{}:{}".format(host, port).encode("ascii")
        self._buffer = bytearray()
        self.quickack = quickack
        self._quick = quickack

    def close(self) -> None:
        self._sock.close()

    def _ack_now(self) -> None:
        # Not sticky: the kernel clears the flag as it sees fit.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)

    def _fill(self) -> None:
        chunk = self._sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        if self._quick:
            self._ack_now()
        self._buffer += chunk

    def _take(self, count: int) -> bytes:
        while len(self._buffer) < count:
            self._fill()
        taken = bytes(self._buffer[:count])
        del self._buffer[:count]
        return taken

    def _take_line(self) -> bytes:
        while True:
            end = self._buffer.find(b"\r\n")
            if end >= 0:
                return self._take(end + 2)[:-2]
            self._fill()

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        quickack: Optional[bool] = None,
    ) -> Response:
        """Send one request and read the whole response (``quickack``
        overrides the connection's ACK policy for this exchange)."""
        self._quick = self.quickack if quickack is None else quickack
        if self._quick:
            self._ack_now()
        head = [
            "{} {} HTTP/1.1".format(method, path).encode("ascii"),
            b"Host: " + self._host,
        ]
        if body is not None:
            head.append(b"Content-Type: application/json")
            head.append(b"Content-Length: %d" % len(body))
        message = b"\r\n".join(head) + b"\r\n\r\n" + (body or b"")
        sent_ns = perf_counter_ns()
        self._sock.sendall(message)
        first_ns = 0
        while True:
            end = self._buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
            first_ns = first_ns or perf_counter_ns()
        status, headers = _parse_head(self._take(end + 4)[:-4])
        if headers.get("transfer-encoding", "").lower() == "chunked":
            parts = []
            while True:
                size = int(self._take_line().split(b";")[0], 16)
                if size == 0:
                    self._take_line()  # the blank line after the last chunk
                    break
                parts.append(self._take(size))
                self._take(2)
            payload = b"".join(parts)
        else:
            payload = self._take(int(headers.get("content-length", "0")))
        return Response(status, headers, payload, sent_ns, first_ns, perf_counter_ns())

    def post(self, path: str, body: bytes, quickack: Optional[bool] = None) -> Response:
        return self.request("POST", path, body, quickack)

    def get(self, path: str) -> Response:
        return self.request("GET", path)


class EventStream:
    """Reads ``GET /v1/changefeed/<id>`` as SSE on a background thread.

    Frames land on a queue as ``(cursor, frame bytes, arrival ns)``;
    :meth:`wait_for` is the client side of "the changefeed event for
    this version has arrived".
    """

    def __init__(self, host: str, port: int, subscription: str, cursor: int):
        self._sock = _connect(host, port)
        self._sock.settimeout(None)  # a quiet feed is healthy
        self._frames: "queue.Queue" = queue.Queue()
        self.error: Optional[BaseException] = None
        path = "/v1/changefeed/{}?cursor={}".format(subscription, cursor)
        self._sock.sendall(
            "GET {} HTTP/1.1\r\nHost: {}:{}\r\nAccept: text/event-stream\r\n\r\n".format(
                path, host, port
            ).encode("ascii")
        )
        buffer = b""
        while b"\r\n\r\n" not in buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("changefeed closed before its headers")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        status, headers = _parse_head(head)
        if status != 200 or "text/event-stream" not in headers.get("content-type", ""):
            raise ConnectionError(
                "changefeed answered {} {}".format(status, headers.get("content-type"))
            )
        self._thread = threading.Thread(
            target=self._read, args=(rest,), name="ledger-sse", daemon=True
        )
        self._thread.start()

    def _read(self, buffer: bytes) -> None:
        try:
            while True:
                while b"\n\n" in buffer:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    arrived = perf_counter_ns()
                    if frame.startswith(b":"):
                        continue  # heartbeat comment
                    cursor = -1
                    for line in frame.split(b"\n"):
                        if line.startswith(b"id:"):
                            cursor = int(line[3:])
                    self._frames.put((cursor, frame + b"\n\n", arrived))
                chunk = self._sock.recv(65536)
                if not chunk:
                    return
                buffer += chunk
        except OSError as error:  # socket closed under us by close()
            self.error = error

    def wait_for(self, cursor: int) -> Tuple[bytes, int]:
        """The frame with this cursor and its arrival stamp; frames with
        older cursors are discarded, a newer one or 10 s of silence is
        an error."""
        while True:
            try:
                seen, frame, arrived = self._frames.get(timeout=TIMEOUT)
            except queue.Empty:
                raise TimeoutError("no changefeed event for version {}".format(cursor))
            if seen == cursor:
                return frame, arrived
            if seen > cursor:
                raise AssertionError(
                    "changefeed skipped version {} (got {})".format(cursor, seen)
                )

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._thread.join(TIMEOUT)
