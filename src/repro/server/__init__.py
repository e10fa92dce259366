"""JSON-over-HTTP serving of provenance queries.

The serving tier fronts a long-lived
:class:`~repro.session.QuerySession` (and, when a view program is
given, a :class:`~repro.incremental.registry.ViewRegistry`).  One
request core decides every response; two interchangeable transports
behind :func:`~repro.server.app.make_server` carry it:

* :mod:`repro.server.core` — the route table (and the one endpoint
  table, in its docstring), ``Request``/``Response`` and ``handle()``:
  validation, the error contract, the ``/v1`` mount, metrics and the
  request log, with no socket in sight;
* :class:`~repro.server.aio.AsyncProvenanceServer` — the asyncio
  transport (``server_mode="async"``): every connection is a suspended
  coroutine, deadlines bound every read, a pending-call gate sheds
  load with 503s, large bodies stream chunked, changefeeds are SSE;
* :class:`~repro.server.app.ProvenanceServer` — the classic
  one-thread-per-connection :class:`http.server.ThreadingHTTPServer`
  transport (``server_mode="threaded"``); changefeeds long-poll.

Shared underneath:

* :class:`~repro.server.app.ServerState` — the state behind all
  requests: the session, the optional registry, the changefeed
  :class:`~repro.server.subscriptions.SubscriptionHub` and the result
  cache;
* :class:`~repro.server.cache.ResultCache` — results keyed by
  ``(canonical query text, db version, engine options)`` with an LRU
  bound and single-flight deduplication; one locked instance serves
  both transports (threads block on a flight, coroutines await it).
"""

from repro.server.app import (
    ProvenanceServer,
    ServerState,
    canonical_json,
    encode_results,
    make_server,
)
from repro.server.cache import ResultCache
from repro.server.subscriptions import (
    ChangefeedEvent,
    Subscription,
    SubscriptionHub,
)

__all__ = [
    "AsyncProvenanceServer",
    "ChangefeedEvent",
    "ProvenanceServer",
    "ResultCache",
    "ServerState",
    "Subscription",
    "SubscriptionHub",
    "canonical_json",
    "encode_results",
    "make_server",
]


def __getattr__(name):
    # AsyncProvenanceServer is imported lazily: repro.server.aio imports
    # this package's modules, and eager import would cycle.
    if name == "AsyncProvenanceServer":
        from repro.server.aio import AsyncProvenanceServer

        return AsyncProvenanceServer
    raise AttributeError(name)
