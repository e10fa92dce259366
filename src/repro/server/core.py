"""The transport-free request core: one route table, one ``handle()``.

Everything between "the bytes of one request are in memory" and
"status, headers and body are decided" lives here, once.  Both front
ends — the threaded :mod:`~repro.server.handlers` and the asyncio
:mod:`~repro.server.aio` — parse a request head into a
:class:`Request`, drive :func:`handle` and write the
:class:`Response` it returns; neither knows a path, a status code or
an error message.

The endpoint surface (bodies JSON unless noted) is :data:`ROUTES`.
Every route is mounted at its legacy path and under the versioned
``/v1`` prefix, except the ``v1_only`` ones:

======  ========================  ========================================
Method  Path                      Body / response
======  ========================  ========================================
POST    ``/v1/query``             ``{"query": text}`` → annotated result
                                  table (``?trace=1`` adds a span tree)
POST    ``/v1/batch``             ``{"queries": [text, ...]}`` → tables
POST    ``/v1/update``            delta batch(es), the ``maintain`` format
POST    ``/v1/subscribe``         ``{"view": name}`` or ``{"query": text}``
                                  → subscription id + cursor + snapshot
                                  (v1 only)
GET     ``/v1/changefeed/<id>``   pushed view deltas from ``?cursor=``:
                                  SSE on the async transport, long-poll
                                  (``?wait=``) on the threaded (v1 only)
DELETE  ``/v1/changefeed/<id>``   drop the subscription (v1 only)
GET     ``/v1/views/<name>``      materialized view (``?base=1`` expands)
GET     ``/v1/stats``             cache / request / latency counters
GET     ``/v1/metrics``           Prometheus exposition (404 if disabled)
GET     ``/v1/trace``             ``?query=<text>`` → result + span tree
======  ========================  ========================================

Legacy unversioned paths keep serving byte-identical bodies (the
30-seed differential asserts ``/query`` ≡ ``/v1/query``) but answer
with a ``Deprecation`` header.

Error contract: malformed requests (bad JSON, missing keys, query parse
errors, invalid deltas) are 400s; unknown paths, views and
subscriptions are 404s; a known path asked with a method it has no
route for is a 405, an unknown path asked with a method no route has
is a 501; an oversized body is a 413; the subscription limit is a 429;
load shedding is a 503; everything else is a 500.  404, 405 and 501
are *derived* from the route table, never spelled per endpoint.
Legacy paths answer ``{"error": message}``; ``/v1`` paths wrap every
failure in the structured envelope ``{"error": {"code", "message",
"detail"}}`` with a bounded machine-readable ``code``.

Every finished request is folded into the server's metrics registry
(count by endpoint/method/status, latency histogram by endpoint) and
logged at INFO on the ``repro.server`` logger — method, path, status,
duration and the result-cache outcome when the route consulted it —
*before* its response is handed back for writing, so a client that
reads the response and immediately scrapes ``/metrics`` finds itself
counted.  The logger follows stdlib convention: silent unless the
application configures logging (the CLI's ``--log-level`` flag does).

:func:`handle` is a step generator (see
:func:`repro.server.app.resolve`): it yields what it must wait for — a
:class:`Body` to be read, a single-flight future, a blocking engine
call, a :class:`Feed` to deliver — and returns the response.  A warm
cache hit, ``/stats`` and ``/metrics`` yield nothing past the body, so
no transport can make them queue behind engine work.
"""

from __future__ import annotations

import logging
from email.utils import formatdate
from functools import partial
from http.client import responses
from json import JSONDecodeError, loads
from time import perf_counter
from types import GeneratorType
from typing import Callable, Dict, NamedTuple, Optional
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import ReproError
from repro.io import canonical_json
from repro.obs.metrics import EXPOSITION_CONTENT_TYPE
from repro.obs.trace import tracing
from repro.server.cache import last_outcome, reset_outcome
from repro.server.subscriptions import SubscriptionError

#: Maximum accepted request body, a backstop against memory abuse.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Status → machine-readable error code of the ``/v1`` error envelope.
#: The set is bounded and documented; anything unmapped is "error".
ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "timeout",
    413: "payload_too_large",
    429: "subscription_limit",
    431: "headers_too_large",
    500: "internal",
    501: "not_implemented",
    503: "capacity",
    505: "http_version_unsupported",
}

_LOGGER = logging.getLogger("repro.server")


class HTTPError(Exception):
    """A rejection that names its own status.

    ``close`` marks the connection unusable afterwards — set whenever
    the request body could not be drained, because the next request
    parser would otherwise chew on this request's payload.
    """

    def __init__(
        self,
        status: int,
        message: str,
        close: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ):  # noqa: D107
        super().__init__(message)
        self.status = status
        self.message = message
        self.close = close
        self.headers = headers or {}


class BodyTimeout(HTTPError):
    """The promised request body never (fully) arrived.

    Transports throw this into :func:`handle` when their read deadline
    expires; the 408 is best-effort — the client is still there, just
    slow to *send*.
    """

    def __init__(self):  # noqa: D107
        super().__init__(408, "timed out reading the request body", close=True)


class Overloaded(HTTPError):
    """A transport refused to start a blocking call (load shedding).

    The body is drained by then, so the connection stays alive;
    ``Retry-After`` tells well-behaved clients when to come back.
    """

    def __init__(self):  # noqa: D107
        super().__init__(
            503, "server is at capacity; retry shortly", headers={"Retry-After": "1"}
        )


class Request:
    """One request head, plus its body once :func:`handle` has asked for it.

    ``path`` is the *effective* path — the ``/v1`` mount already
    stripped (``v1`` records whether it was present, ``raw_path`` what
    the client sent) — so every legacy endpoint is automatically
    mounted under ``/v1`` with byte-identical bodies.  The latency
    clock starts here, before the body is read.
    """

    __slots__ = (
        "method",
        "raw_path",
        "path",
        "v1",
        "query_string",
        "content_length",
        "body",
        "endpoint",
        "started",
    )

    def __init__(self, method: str, target: str, content_length: Optional[str] = None):  # noqa: D107
        split = urlsplit(target)
        self.method = method
        self.raw_path = path = split.path
        self.v1 = path == "/v1" or path.startswith("/v1/")
        self.path = (path[len("/v1"):] or "/") if self.v1 else path
        self.query_string = split.query
        self.content_length = content_length
        self.body = b""
        self.endpoint = "other"
        self.started = perf_counter()

    def params(self) -> Dict[str, list]:
        """The parsed query string."""
        return parse_qs(self.query_string)


class Response:
    """A decided response: all a transport has left to do is write it."""

    __slots__ = ("status", "body", "content_type", "headers", "close")

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ):  # noqa: D107
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers or {}
        self.close = close


def render_head(
    response: Response, server: str, chunked: bool = False, close: bool = False
) -> bytes:
    """The status line and headers of ``response``, blank line included.

    Rendered here so that both transports frame a response the same
    way and can send it in one write with the body: a head written on
    its own leaves the body to Nagle, parked until the client's delayed
    ACK (~40 ms).  ``chunked`` swaps ``Content-Length`` for chunked
    framing; ``close`` advertises that the connection will not be kept.
    """
    status = response.status
    lines = [
        "HTTP/1.1 {} {}".format(status, responses.get(status, "Unknown")),
        "Server: " + server,
        "Date: " + formatdate(usegmt=True),
        "Content-Type: " + response.content_type,
        "Transfer-Encoding: chunked"
        if chunked
        else "Content-Length: {}".format(len(response.body)),
    ]
    lines.extend("{}: {}".format(*header) for header in response.headers.items())
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class Body:
    """Step: read exactly ``length`` body bytes and send them back."""

    __slots__ = ("length",)

    def __init__(self, length: int):  # noqa: D107
        self.length = length


class Feed:
    """Step: deliver a resolved changefeed (subscription + cursor).

    Called like any blocking step it long-polls and returns the JSON
    body; a transport that can hold a stream open takes
    ``subscription`` and ``cursor`` and pushes SSE frames instead,
    never resuming :func:`handle` (it calls :func:`observe` itself when
    the stream opens).
    """

    __slots__ = ("state", "subscription", "cursor", "wait")

    def __init__(self, state, subscription, cursor: int, wait: float):  # noqa: D107
        self.state = state
        self.subscription = subscription
        self.cursor = cursor
        self.wait = wait

    def __call__(self) -> bytes:  # noqa: D102
        return self.state.changefeed_poll(self.subscription, self.cursor, self.wait)


def error_body(status: int, message: str, v1: bool, code=None) -> bytes:
    """One error response body, shaped per API version.

    Legacy paths keep the historical ``{"error": message}`` bytes;
    ``/v1`` paths get the structured envelope with a bounded ``code``
    (:data:`ERROR_CODES`) and an always-present ``detail`` (``null``:
    no route attaches one yet).
    """
    if not v1:
        return canonical_json({"error": message})
    return canonical_json(
        {
            "error": {
                "code": code or ERROR_CODES.get(status, "error"),
                "message": message,
                "detail": None,
            }
        }
    )


# ----------------------------------------------------------------------
# Request validation shared by the endpoint handlers
# ----------------------------------------------------------------------
def _body_length(request: Request) -> int:
    """Validate ``Content-Length`` before a single body byte is read.

    An unparseable or negative length means the body is unknowable and
    an oversized one is not worth draining: either way the socket must
    not be reused.
    """
    header = request.content_length or "0"
    try:
        length = int(header)
        if length < 0:
            raise ValueError(header)
    except ValueError:
        raise HTTPError(
            400, "invalid Content-Length header {!r}".format(header), close=True
        )
    if length > MAX_BODY_BYTES:
        raise HTTPError(
            413, "request body exceeds {} bytes".format(MAX_BODY_BYTES), close=True
        )
    return length


def _json(request: Request):
    if not request.body:
        raise ReproError("request body must be a JSON document")
    try:
        return loads(request.body)
    except JSONDecodeError as error:
        raise ReproError("invalid JSON body: {}".format(error))


def _flag(params: dict, name: str) -> bool:
    return params.get(name, ["0"])[-1] not in ("0", "false", "")


def _number(params: dict, name: str, cast):
    values = params.get(name)
    if not values:
        return None
    try:
        return cast(values[-1])
    except ValueError:
        raise ReproError(
            "query parameter {!r} must be a number, got {!r}".format(
                name, values[-1]
            )
        )


# ----------------------------------------------------------------------
# Endpoint handlers: (state, request, path argument) -> body | Response,
# as a plain function when nothing can block and as a step generator
# when something can
# ----------------------------------------------------------------------
def _traced(state, text: str):
    """One query under a tracer: ``{"result": ..., "trace": <span tree>}``.

    A different body than the untraced path by design, so the
    byte-identity contract of plain ``/query`` is untouched.  The
    tracer also feeds the server registry's ``repro_stage_seconds``
    histogram, so traced requests contribute to ``/metrics``.
    """
    with tracing("query", registry=state.metrics) as tracer:
        body = yield from state.query_steps(text)
    # The finished body, spliced in: the same bytes as encoding its payload.
    return b'{"result":%s,"trace":%s}\n' % (
        body[:-1], canonical_json(tracer.tree())[:-1]
    )


def _query(state, request, _arg):
    payload = _json(request)
    if not isinstance(payload, dict) or not isinstance(payload.get("query"), str):
        raise ReproError("POST /query expects {\"query\": \"<rule text>\"}")
    if _flag(request.params(), "trace"):
        return (yield from _traced(state, payload["query"]))
    return (yield from state.query_steps(payload["query"]))


def _batch(state, request, _arg):
    payload = _json(request)
    texts = payload.get("queries") if isinstance(payload, dict) else None
    if not isinstance(texts, list) or not all(
        isinstance(text, str) for text in texts
    ):
        raise ReproError(
            "POST /batch expects {\"queries\": [\"<rule text>\", ...]}"
        )
    return (yield from state.batch_steps(texts))


def _update(state, request, _arg):
    return (yield partial(state.apply_update, _json(request)))


def _subscribe(state, request, _arg):
    return (yield partial(state.subscribe, _json(request)))


def _changefeed(state, request, sub_id):
    # Resolved in one order everywhere: hub, subscription, cursor, wait.
    subscription = state.subscription(sub_id)
    params = request.params()
    cursor = _number(params, "cursor", int)
    if cursor is None:
        cursor = subscription.created_cursor  # replay all the ring holds
    wait = _number(params, "wait", float) or 0.0
    return (yield Feed(state, subscription, cursor, wait))


def _unsubscribe(state, _request, sub_id):
    return (yield partial(state.unsubscribe, sub_id))


def _view(state, request, name):
    try:
        return (
            yield partial(state.read_view, name, _flag(request.params(), "base"))
        )
    except ReproError as error:
        raise HTTPError(404, str(error))


def _stats(state, _request, _arg):
    return canonical_json(state.stats())


def _metrics(state, _request, _arg):
    if not state.metrics_enabled:
        raise HTTPError(404, "metrics are disabled on this server")
    return Response(
        200, state.render_metrics().encode("utf-8"), EXPOSITION_CONTENT_TYPE
    )


def _trace(state, request, _arg):
    texts = request.params().get("query")
    if not texts:
        raise ReproError("GET /trace expects ?query=<url-encoded rule text>")
    return (yield from _traced(state, texts[-1]))


# ----------------------------------------------------------------------
# The route table
# ----------------------------------------------------------------------
class Route(NamedTuple):
    """One ``method, pattern → handler`` row.

    A pattern is an exact effective path, or — ending in ``/`` — a
    prefix whose (unquoted) remainder is the handler's argument.
    ``v1_only`` routes do not exist on the legacy mount.
    """

    method: str
    pattern: str
    handler: Callable
    v1_only: bool = False

    def matches(self, path: str) -> bool:  # noqa: D102
        if self.pattern.endswith("/"):
            return path.startswith(self.pattern)
        return path == self.pattern


ROUTES = (
    Route("POST", "/query", _query),
    Route("POST", "/batch", _batch),
    Route("POST", "/update", _update),
    Route("POST", "/subscribe", _subscribe, v1_only=True),
    Route("GET", "/changefeed/", _changefeed, v1_only=True),
    Route("DELETE", "/changefeed/", _unsubscribe, v1_only=True),
    Route("GET", "/views/", _view),
    Route("GET", "/stats", _stats),
    Route("GET", "/metrics", _metrics),
    Route("GET", "/trace", _trace),
)

_METHODS = frozenset(route.method for route in ROUTES)


def _match(request: Request) -> Route:
    """The route for ``request`` — or the 404/405/501 the table implies.

    Also stamps ``request.endpoint``, the bounded metrics label: every
    ``/views/<name>`` collapses to ``/views`` and unknown paths to
    ``other``, so a client scanning paths cannot inflate the metrics
    cardinality.
    """
    path = request.path
    on_path = [route for route in ROUTES if route.matches(path)]
    if on_path:
        request.endpoint = on_path[0].pattern.rstrip("/")
    allowed = []
    for route in on_path:
        if request.v1 or not route.v1_only:
            if route.method == request.method:
                return route
            allowed.append(route.method)
    if not allowed:
        if request.method in _METHODS:
            raise HTTPError(404, "unknown path {}".format(path))
        raise HTTPError(501, "unsupported method {}".format(request.method))
    if request.method in ("GET", "POST"):
        raise HTTPError(
            405, "{} only accepts {}".format(path, " or ".join(allowed))
        )
    raise HTTPError(405, "{} does not accept {}".format(path, request.method))


# ----------------------------------------------------------------------
# handle(): one request in, one response out
# ----------------------------------------------------------------------
def _respond(state, request: Request):
    length = _body_length(request)
    if length:
        # Drained before ANY response, whatever the route decides:
        # HTTP/1.1 reuses the connection, so a 404/405 sent while body
        # bytes sit unread would leave them to the next request parser.
        request.body = yield Body(length)
    route = _match(request)
    result = route.handler(state, request, unquote(request.path[len(route.pattern):]))
    if isinstance(result, GeneratorType):
        result = yield from result
    return result if isinstance(result, Response) else Response(200, result)


def _failure(request: Request, status: int, message: str, code=None) -> Response:
    return Response(status, error_body(status, message, request.v1, code))


def observe(state, request: Request, status: int, note: str = "") -> None:
    """Fold one answered request into the metrics and the request log."""
    duration = perf_counter() - request.started
    state.observe_request(request.endpoint, request.method, status, duration)
    _LOGGER.info(
        "%s %s -> %d %.2fms%s",
        request.method,
        request.raw_path,
        status,
        duration * 1e3,
        note,
    )


def handle(state, request: Request):
    """Serve one request against ``state``: steps out, a :class:`Response` back.

    The one exception → status ladder: whatever a handler, the engine
    or the transport (thrown in at a step) raises comes out as a shaped
    error response.  A transport that abandons the request — the client
    hung up mid-body, or a :class:`Feed` became a stream — closes the
    generator, and nothing further is observed here.
    """
    reset_outcome()
    try:
        response = yield from _respond(state, request)
    except HTTPError as error:
        response = _failure(request, error.status, error.message)
        response.headers.update(error.headers)
        response.close = error.close
    except SubscriptionError as error:
        response = _failure(request, error.status, str(error), error.code)
    except ReproError as error:
        response = _failure(request, 400, str(error))
    except Exception as error:
        response = _failure(
            request, 500, "{}: {}".format(type(error).__name__, error)
        )
    if not request.v1:
        # The unversioned surface still answers byte-identically, but
        # every response advertises its successor.
        response.headers["Deprecation"] = "true"
        response.headers["Link"] = '</v1{}>; rel="successor-version"'.format(
            request.path
        )
    outcome = last_outcome()
    observe(
        state,
        request,
        response.status,
        " cache={}".format(outcome) if outcome else "",
    )
    return response
