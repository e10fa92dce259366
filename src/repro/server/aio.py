"""The asyncio transport: one event loop, 10k+ connections.

:class:`AsyncProvenanceServer` answers exactly what the threaded
:class:`~repro.server.app.ProvenanceServer` answers — both drive the
same :func:`repro.server.core.handle` — but holds every open
connection as one suspended coroutine instead of one blocked thread:

* **accept/parse** is non-blocking HTTP/1.1 with keep-alive on asyncio
  streams, with idle/header/body deadlines so a stalled client costs a
  timer, never a worker;
* **the core runs on the loop**: routing, validation, parse and the
  cache lookup of :func:`~repro.server.core.handle` execute inline, so
  a warm hit, ``/stats`` and ``/metrics`` never leave it;
* **waits are awaited**: a deduplicated miss awaits the leader's
  flight (a thousand waiters cost a thousand suspended coroutines),
  and a blocking engine call — the leader's computation, a batch,
  ``apply_update``, ``read_view``, which take the session lock and
  drive the sharded pool — is dispatched off-loop via
  ``run_in_executor`` with a copied :mod:`contextvars` context, so
  tracing spans and cache-outcome reporting behave exactly as on the
  threaded transport;
* **backpressure** is a bounded pending-call gate: when ``max_pending``
  engine calls are already admitted, the next one is refused and the
  core answers ``503`` with ``Retry-After`` (``/stats`` and
  ``/metrics`` never call, so operators can always look);
* **large bodies** (big provenance polynomials) stream out chunked,
  with a ``drain()`` await between chunks so one slow reader never
  buffers unboundedly;
* **changefeeds** stream as Server-Sent Events.

The blocking facade matches socketserver's — ``server_address`` is
available right after construction, ``serve_forever()`` blocks,
``shutdown()`` is thread-safe and waits for the loop to exit, and
``close()`` releases everything — so the CLI and tests drive either
transport through the same five calls.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import socket
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from email.utils import formatdate
from functools import partial
from typing import Dict, Optional, Tuple

from repro.server import core
from repro.server.app import DEFAULT_REQUEST_TIMEOUT, ServerState

#: Keep-alive idle deadline (seconds): how long a connection may sit
#: between requests before the server closes it.
DEFAULT_IDLE_TIMEOUT = 60.0

#: Engine-bound requests admitted concurrently before 503s start.
DEFAULT_MAX_PENDING = 256

#: Response bodies at least this large are streamed chunked.
DEFAULT_STREAM_THRESHOLD = 1 << 20

#: Idle SSE streams emit a comment frame this often: it keeps
#: intermediaries from timing the stream out and doubles as a
#: dead-client probe (the drain after it notices a vanished reader).
SSE_HEARTBEAT = 15.0

#: Write-buffer high-water mark while streaming SSE frames.  Kept small
#: on purpose: a subscriber that stops reading makes ``drain()`` block
#: almost immediately, so the eviction deadline (``request_timeout``)
#: measures the *client's* sloth, not how long it takes to fill a
#: multi-megabyte buffer.
_SSE_WINDOW = 64 * 1024

_MAX_LINE = 65536
_MAX_HEADERS = 100
_CHUNK = 256 * 1024

#: Write-buffer high-water mark while streaming a chunked body.  Against
#: asyncio's default 64 KiB limit every chunk write would block until
#: the client drained the buffer to 16 KiB, turning the stream into
#: per-chunk lockstep (~10x slower on a fast reader); 2 MiB keeps a
#: fast reader at memory speed while still bounding what one slow
#: reader can pin.
_STREAM_WINDOW = 2 << 20

#: How long graceful shutdown waits for in-flight requests to finish.
_DRAIN_TIMEOUT = 5.0

#: Threads running blocking engine calls (the stdlib executor default).
_EXECUTOR_WORKERS = min(32, (os.cpu_count() or 1) + 4)


class _ConnFlags:
    """One open connection: its socket, and is a request mid-flight?"""

    __slots__ = ("sock", "busy")

    def __init__(self, sock):  # noqa: D107
        self.sock = sock
        self.busy = False


class AsyncProvenanceServer:
    """An asyncio HTTP front end over one :class:`ServerState`.

    Construction binds the listening socket synchronously (``port=0``
    picks a free port, ``server_address`` is immediately readable);
    the event loop itself is created inside :meth:`serve_forever`, so
    the caller chooses the serving thread exactly as with the threaded
    server.
    """

    def __init__(
        self,
        address,
        state: ServerState,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
        max_pending: int = DEFAULT_MAX_PENDING,
        stream_threshold: int = DEFAULT_STREAM_THRESHOLD,
    ):  # noqa: D107
        self.state = state
        self._request_timeout = request_timeout
        self._idle_timeout = idle_timeout
        self._max_pending = max_pending
        self._stream_threshold = stream_threshold
        self._socket = socket.create_server(address, backlog=1024)
        self.server_address = self._socket.getsockname()
        self._executor = ThreadPoolExecutor(
            max_workers=_EXECUTOR_WORKERS,
            thread_name_prefix="repro-aio",
        )
        self._connections: Dict[object, _ConnFlags] = {}
        self._pending = 0
        self._stopping = False
        self._closed = False
        self._loop = None
        self._stop_event: Optional[asyncio.Event] = None
        self._aio_server = None
        self._shutdown_requested = threading.Event()
        # Set means "no loop is running": shutdown() before (or after)
        # serve_forever() returns immediately instead of hanging.
        self._done = threading.Event()
        self._done.set()
        self._pending_gauge = state.metrics.gauge(
            "repro_server_pending_requests",
            "Engine-bound requests admitted past the backpressure gate",
        )
        self._conn_gauge = state.metrics.gauge(
            "repro_server_open_connections",
            "Open client connections on the async tier",
        )
        self._rejected = state.metrics.counter(
            "repro_server_backpressure_total",
            "Requests rejected with 503 because max_pending was reached",
        )

    # ------------------------------------------------------------------
    # The socketserver-shaped blocking facade
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        self._done.clear()
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(self._main())
        except KeyboardInterrupt:
            # Foreground CLI serving: cancel whatever is still running
            # so the loop can close cleanly, then let the CLI's handler
            # run close().
            self._stopping = True
            tasks = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            raise
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()
                self._loop = None
                self._stop_event = None
                self._done.set()

    def shutdown(self) -> None:
        """Stop serving and wait for the loop to drain and exit.

        Thread-safe, like ``socketserver.BaseServer.shutdown``: new
        connections stop being accepted, idle keep-alive connections
        are closed, in-flight requests get a few seconds to finish, and then :meth:`serve_forever` returns.
        """
        self._shutdown_requested.set()
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # loop already closed
                pass
        self._done.wait()

    def close(self) -> None:
        """Release the socket, executor and serving state (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not self._done.is_set():
            self.shutdown()
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._executor.shutdown(wait=True)
        self.state.close()

    def __enter__(self) -> "AsyncProvenanceServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return "<AsyncProvenanceServer on {}:{}>".format(*self.server_address[:2])

    # ------------------------------------------------------------------
    # Event-loop internals
    # ------------------------------------------------------------------
    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        # Created here, not in __init__: asyncio.Event binds the running
        # loop at creation time on Python 3.9.
        self._stop_event = asyncio.Event()
        self._loop = loop
        if self._shutdown_requested.is_set():
            return
        server = await asyncio.start_server(
            self._handle_connection, sock=self._socket
        )
        self._aio_server = server
        try:
            await self._stop_event.wait()
        finally:
            self._stopping = True
            server.close()
            await self._drain()
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - defensive
                pass

    async def _drain(self) -> None:
        """Graceful shutdown: drop idle connections, wait out busy ones."""
        connections = dict(self._connections)
        for task, flags in connections.items():
            if not flags.busy:
                task.cancel()
        pending = [task for task in connections if not task.done()]
        if pending:
            _done, pending = await asyncio.wait(
                pending, timeout=_DRAIN_TIMEOUT
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)

    async def _handle_connection(self, reader, writer) -> None:
        if self._stopping:
            writer.close()
            return
        task = asyncio.current_task()
        flags = _ConnFlags(writer.get_extra_info("socket"))
        # Set here, on every accepted socket: asyncio's own _set_nodelay
        # only fires when sock.proto == IPPROTO_TCP, and the listener
        # socket.create_server() makes (and all it accepts) has proto 0.
        flags.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._connections[task] = flags
        self._conn_gauge.set(len(self._connections))
        try:
            while not self._stopping:
                try:
                    head = await self._read_head(reader)
                except core.HTTPError as error:
                    # Pre-request protocol garbage: respond (uncounted,
                    # like the threaded transport's send_error paths) and
                    # drop the connection.
                    await self._write_response(
                        writer,
                        core.Response(
                            error.status,
                            core.error_body(error.status, error.message, False),
                        ),
                        True,
                        True,
                    )
                    break
                if head is None:
                    break  # EOF or idle keep-alive expiry
                flags.busy = True
                try:
                    keep = await self._dispatch(reader, writer, *head)
                finally:
                    flags.busy = False
                if not keep:
                    break
        except asyncio.CancelledError:
            pass  # shutdown cancelled this connection
        except (ConnectionError, OSError):
            pass  # client vanished mid-read/write
        finally:
            self._connections.pop(task, None)
            self._conn_gauge.set(len(self._connections))
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_head(
        self, reader
    ) -> Optional[Tuple[core.Request, bool, bool]]:
        """Read and parse one request line + headers (idle deadline).

        Returns ``(request, is HTTP/1.1, close after responding)``;
        ``None`` means "close quietly": EOF, the keep-alive idle
        deadline expired, or the client vanished mid-headers.
        """
        try:
            line = await asyncio.wait_for(reader.readline(), self._idle_timeout)
        except (asyncio.TimeoutError, ConnectionError):
            return None
        if not line:
            return None
        if len(line) > _MAX_LINE:
            raise core.HTTPError(400, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise core.HTTPError(
                400, "malformed request line {!r}".format(line.decode("latin-1"))
            )
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise core.HTTPError(
                505, "unsupported protocol version {!r}".format(version)
            )
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            try:
                line = await asyncio.wait_for(
                    reader.readline(), self._request_timeout
                )
            except asyncio.TimeoutError:
                raise core.HTTPError(408, "timed out reading request headers")
            except ConnectionError:
                return None
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None  # EOF mid-headers
            if len(line) > _MAX_LINE:
                raise core.HTTPError(431, "header line too long")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise core.HTTPError(
                    400, "malformed header line {!r}".format(line.decode("latin-1"))
                )
            headers[name.strip().lower()] = value.strip()
        else:
            raise core.HTTPError(431, "too many request headers")
        version_11 = version == "HTTP/1.1"
        connection = headers.get("connection", "").lower()
        if "close" in connection:
            close = True
        elif version_11:
            close = False
        else:
            close = "keep-alive" not in connection
        request = core.Request(method, target, headers.get("content-length"))
        return request, version_11, close

    async def _dispatch(
        self, reader, writer, request: core.Request, version_11: bool, close: bool
    ) -> bool:
        """Run one request end to end; ``True`` to keep the connection.

        Drives :func:`core.handle` with every step awaited.  Accounting
        mirrors the threaded handler: ``request_started`` /
        ``request_finished`` always pair, and body-level protocol
        errors are counted (the core shapes them) while request-line
        garbage is not.
        """
        state = self.state
        state.request_started()
        steps = core.handle(state, request)
        try:
            try:
                step = next(steps)
                while True:
                    if isinstance(step, core.Feed):
                        return await self._stream_changefeed(
                            writer, request, step.subscription, step.cursor
                        )
                    try:
                        value = await self._perform(reader, step)
                    except (asyncio.IncompleteReadError, ConnectionError):
                        return False  # client hung up mid-body
                    except Exception as error:
                        step = steps.throw(error)
                    else:
                        step = steps.send(value)
            except StopIteration as done:
                response = done.value
            close = close or response.close
            sent = await self._write_response(writer, response, version_11, close)
            return sent and not close
        finally:
            steps.close()
            state.request_finished()

    async def _perform(self, reader, step):
        """Take one serving step the asyncio way."""
        if isinstance(step, core.Body):
            try:
                return await asyncio.wait_for(
                    reader.readexactly(step.length), self._request_timeout
                )
            except asyncio.TimeoutError:
                raise core.BodyTimeout()
        if isinstance(step, Future):
            # A single-flight waiter: parked on the loop, never on an
            # executor thread, and never counted against max_pending.
            return await asyncio.wrap_future(step)
        return await self._offload(step)

    async def _write_response(
        self, writer, response: core.Response, version_11: bool, close: bool
    ) -> bool:
        body = response.body
        chunked = version_11 and len(body) >= self._stream_threshold
        head = core.render_head(response, "repro-prov", chunked, close)
        try:
            if chunked:
                # Stream large polynomials in slices with a drain()
                # between them: one slow reader backpressures its own
                # connection (never the loop or the heap), bounded by
                # the widened write window (see _STREAM_WINDOW).  Each
                # frame is joined from a view of the body, so the body
                # is copied once on its way out; the head rides in the
                # first frame.
                writer.transport.set_write_buffer_limits(high=_STREAM_WINDOW)
                view = memoryview(body)
                for offset in range(0, len(body), _CHUNK):
                    chunk = view[offset:offset + _CHUNK]
                    writer.writelines((head, b"%x\r\n" % len(chunk), chunk, b"\r\n"))
                    head = b""
                    await asyncio.wait_for(
                        writer.drain(), self._request_timeout
                    )
                writer.write(head + b"0\r\n\r\n")
            else:
                writer.write(head + body)
            await asyncio.wait_for(writer.drain(), self._request_timeout)
            return True
        except (ConnectionError, asyncio.TimeoutError):
            return False

    # ------------------------------------------------------------------
    # Changefeeds: SSE streaming (this transport's native push)
    # ------------------------------------------------------------------
    async def _stream_changefeed(
        self, writer, request: core.Request, subscription, cursor: int
    ) -> bool:
        """Stream one changefeed as Server-Sent Events until it dies.

        The loop alternates two states: *pushing* (ring events past the
        cursor go out as ``event:``/``id:``/``data:`` frames, each
        followed by a ``drain()`` with the request deadline — a
        consumer that cannot keep up is evicted, not buffered) and
        *parked* (no qualifying events; the coroutine suspends on an
        :class:`asyncio.Event` that a ``call_soon_threadsafe``
        trampoline sets from the publishing thread, with a heartbeat
        comment every :data:`SSE_HEARTBEAT` seconds).  While parked the
        connection reports itself idle so graceful shutdown cancels it
        instead of waiting out the drain deadline.  A cursor that fell
        off the replay ring is answered with one ``reset`` event
        carrying the full table; building it reads under the session
        lock, so it runs on the executor — ungated, because resets are
        bounded by the subscriber count, and shedding one here would
        strand the consumer forever.
        """
        state = self.state
        hub = state.hub
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()

        def waker() -> None:
            loop.call_soon_threadsafe(wake.set)

        core.observe(state, request, 200, " (sse stream opens)")
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Server: repro-prov\r\n"
            "Date: {}\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n".format(formatdate(usegmt=True))
        )
        flags = self._connections.get(asyncio.current_task())
        hub.add_waker(subscription, waker)
        try:
            writer.write(head.encode("latin-1"))
            writer.transport.set_write_buffer_limits(high=_SSE_WINDOW)
            await asyncio.wait_for(writer.drain(), self._request_timeout)
            while True:
                wake.clear()
                events, needs_reset = hub.events_after(subscription, cursor)
                if needs_reset:
                    events = [
                        await self._run_blocking(
                            partial(state.build_reset_event, subscription)
                        )
                    ]
                if events:
                    hub.record_delivered(len(events))
                    for event in events:
                        writer.write(event.sse())
                        try:
                            await asyncio.wait_for(
                                writer.drain(), self._request_timeout
                            )
                        except asyncio.TimeoutError:
                            hub.record_eviction()
                            hub.unsubscribe(subscription.id)
                            return False
                        cursor = event.cursor
                    continue
                if (
                    self._stopping
                    or hub.closed
                    or not hub.alive(subscription)
                ):
                    return False
                if flags is not None:
                    flags.busy = False  # parked: let shutdown cancel us
                try:
                    await asyncio.wait_for(wake.wait(), SSE_HEARTBEAT)
                except asyncio.TimeoutError:
                    writer.write(b": keep-alive\n\n")
                    try:
                        await asyncio.wait_for(
                            writer.drain(), self._request_timeout
                        )
                    except asyncio.TimeoutError:
                        hub.record_eviction()
                        hub.unsubscribe(subscription.id)
                        return False
                finally:
                    if flags is not None:
                        flags.busy = True
        except ConnectionError:
            return False
        finally:
            hub.remove_waker(subscription, waker)

    # ------------------------------------------------------------------
    # Blocking engine calls: off the loop, behind the backpressure gate
    # ------------------------------------------------------------------
    def _run_blocking(self, call) -> "asyncio.Future":
        """Start ``call`` on the executor, context intact.

        ``run_in_executor`` does not propagate :mod:`contextvars`, so
        the ambient tracer (and anything else ambient) is carried over
        explicitly — spans recorded inside the engine land in the same
        request trace as on the threaded transport.
        """
        return asyncio.get_running_loop().run_in_executor(
            self._executor, partial(contextvars.copy_context().run, call)
        )

    async def _offload(self, call):
        """Run one blocking engine call off-loop, if there is room.

        This is the backpressure gate — the bounded request queue.  It
        counts blocking engine calls actually in flight: cache hits and
        single-flight dedup waiters never get here, so a flood of
        deduplicated identical queries stays cheap and admitted, while
        the ``max_pending``-plus-first request that would *queue new
        engine work* is refused with :class:`core.Overloaded` (a 503 +
        ``Retry-After`` once the core has shaped it).

        An admitted call always runs to completion: ``shield`` keeps a
        cancelled connection task from cancelling a still-queued call,
        whose single-flight waiters would otherwise never be answered.
        """
        if self._pending >= self._max_pending:
            self._rejected.inc()
            raise core.Overloaded()
        self._pending += 1
        self._pending_gauge.set(self._pending)
        try:
            return await asyncio.shield(self._run_blocking(call))
        finally:
            self._pending -= 1
            self._pending_gauge.set(self._pending)
