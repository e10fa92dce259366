"""The threaded transport: socket I/O for :class:`BaseHTTPRequestHandler`.

One handler thread per connection reads a request head, drives
:func:`repro.server.core.handle` with every wait resolved inline — the
thread blocks on the body read, on a single-flight future, inside the
engine call, in the changefeed long-poll — and writes the response it
gets back.  The endpoint table, the error contract and the request log
are all in :mod:`repro.server.core`.
"""

from __future__ import annotations

import logging
import socket
from http.server import BaseHTTPRequestHandler

from repro.server import core
from repro.server.app import perform, resolve

_LOGGER = logging.getLogger("repro.server")


class ProvenanceRequestHandler(BaseHTTPRequestHandler):
    """Carries one connection's requests into the shared request core."""

    server_version = "repro-prov"
    protocol_version = "HTTP/1.1"
    #: socketserver's spelling of ``setsockopt(TCP_NODELAY)`` on accept.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        """Install the server's per-connection socket timeout.

        ``StreamRequestHandler.setup`` applies ``self.timeout`` via
        ``connection.settimeout()``, so every blocking read on this
        socket — the request line of an idle keep-alive connection,
        half-sent headers, a promised body that never arrives — raises
        ``socket.timeout`` instead of pinning this worker thread
        forever (the liveness bug the async transport's deadlines fix
        by construction).
        """
        self.timeout = getattr(self.server, "request_timeout", None)
        super().setup()

    def log_message(self, format, *args):  # noqa: A002, D102
        # BaseHTTPRequestHandler's own per-request stderr lines would
        # swamp tests and load runs; the core's structured INFO line is
        # the request log instead.
        _LOGGER.debug(format, *args)

    def __getattr__(self, name: str):
        # The base class looks up ``do_<METHOD>`` and answers a verb it
        # cannot find with its own HTML 501.  Every verb is served here,
        # so the core's route table decides — and counts — that too.
        if name.startswith("do_"):
            return self._serve
        raise AttributeError(name)

    def _perform(self, step):
        if isinstance(step, core.Body):
            try:
                return self.rfile.read(step.length)
            except socket.timeout:
                raise core.BodyTimeout()
        return perform(step)

    def _serve(self) -> None:
        state = self.server.state
        request = core.Request(
            self.command, self.path, self.headers.get("Content-Length")
        )
        state.request_started()
        try:
            response = resolve(core.handle(state, request), self._perform)
            if response.close:
                self.close_connection = True  # an undrained socket
            # One write: a head sent ahead of its body leaves the body
            # to wait for the client's delayed ACK.  (An HTTP/0.9
            # request line gets, as ever, the bare body.)
            head = b""
            if self.request_version != "HTTP/0.9":
                head = core.render_head(response, self.version_string())
            self.wfile.write(head + response.body)
        finally:
            state.request_finished()
