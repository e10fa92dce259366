"""The serving tier's shared state and HTTP server shell.

:class:`ServerState` is everything the request threads share: one
long-lived :class:`~repro.session.QuerySession` (thread mode — the
database mutates under ``/update``), an optional
:class:`~repro.incremental.registry.ViewRegistry` when a view program
is served, and the version-keyed
:class:`~repro.server.cache.ResultCache`.

Concurrency model — one lock, three rules:

* every evaluation goes through :meth:`QuerySession.run_batch`, which
  holds the session lock and reports the version it evaluated at;
* every update holds the same lock around the database mutation, so no
  evaluation observes a half-applied batch;
* cache keys carry the database version, so an update invalidates by
  *moving the version on*; the cache then drops what the dead versions
  stored.  A computation that raced an update (its result version
  differs from the keyed version) is returned fresh and not cached.

Responses are canonical JSON (sorted keys, fixed separators) built from
the :mod:`repro.io` codecs — the differential tests assert that a
served body is byte-identical to encoding an in-process
``evaluate``/``evaluate_aggregate`` result the same way.  A computed
result is kept as those bytes and nothing else: with sorted keys and
fixed separators the encoding of a document is its parts' encodings
spliced together, so a result table is encoded row by row
(:func:`encode_table`) and ``/batch`` and ``?trace=1`` wrap finished
bodies without decoding them.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from functools import partial
from http.server import ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.intern import InternRemapper
from repro.config import EngineConfig, resolve_engine_config
from repro.durability.store import DurableStore, RecoveredState
from repro.errors import EvaluationError, ReproError
from repro.incremental.delta import Delta, apply_to_database
from repro.incremental.registry import ViewRegistry
from repro.io import (
    canonical_json,
    changefeed_event_to_dict,
    delta_to_dict,
    deltas_from_payload,
    encode_results,
    encode_table,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    histogram_percentiles,
)
from repro.obs.trace import current_tracer
from repro.query.aggregate import AggregateQuery, AnyQuery
from repro.query.parser import parse_query
from repro.query.printer import query_to_str
from repro.server.cache import ResultCache
from repro.server.subscriptions import (
    DEFAULT_MAX_SUBSCRIPTIONS,
    DEFAULT_RING_SIZE,
    ChangefeedEvent,
    SubscriptionHub,
    UnknownViewError,
)
from repro.session import QuerySession

#: Engines the server can front (the session engines, by construction).
SERVER_ENGINES = ("hashjoin", "sharded")

#: Default LRU bound of the result cache.
DEFAULT_CACHE_SIZE = 256

#: Longest server-side long-poll wait the threaded changefeed honors.
MAX_POLL_WAIT = 30.0


def perform(step):
    """Take one serving step the blocking way."""
    return step.result() if isinstance(step, Future) else step()


def resolve(steps, perform=perform):
    """Drive a step generator to its return value, inline.

    Serving code that may need to wait is written once, as a generator
    that *yields* each wait instead of performing it: a
    :class:`concurrent.futures.Future` means "wait for this" (a
    single-flight ticket), a callable means "run this blocking call"
    (engine work under the session lock).  Whoever drives the generator
    decides how: here — handler threads, in-process callers — a thread
    blocks; the asyncio server awaits the future and offloads the call.
    A step that fails is thrown back in, so the generator's own
    ``except`` clauses see transport failures and engine failures alike.
    """
    try:
        step = next(steps)
        while True:
            try:
                value = perform(step)
            except Exception as error:
                step = steps.throw(error)
            else:
                step = steps.send(value)
    except StopIteration as done:
        return done.value
    finally:
        steps.close()


class ServerState:
    """Everything the request-handler threads share.

    Two configurations:

    * **bare session** (no ``program``): queries run against the given
      database; ``/update`` applies deltas directly and the session
      auto-refreshes off the version bump;
    * **registry-fronted** (``program`` given): a
      :class:`~repro.incremental.registry.ViewRegistry` materializes the
      program, ``/update`` maintains it incrementally, ``/views/<name>``
      reads the maintained tables, and ad-hoc queries evaluate over the
      working database — base relations *and* plain views.
    """

    def __init__(
        self,
        db,
        program: Optional[Mapping[str, AnyQuery]] = None,
        config: Optional[EngineConfig] = None,
        engine: Optional[str] = None,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        broadcast_threshold: Optional[int] = None,
        metrics: bool = True,
        data_dir: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        max_subscriptions: Optional[int] = None,
        ring_size: Optional[int] = None,
    ):  # noqa: D107
        config = resolve_engine_config(
            config,
            "ServerState",
            engine=engine,
            shards=shards,
            workers=workers,
            broadcast_threshold=broadcast_threshold,
        )
        if config.engine not in SERVER_ENGINES:
            raise EvaluationError(
                "unknown server engine {!r}; supported: {}".format(
                    config.engine, ", ".join(SERVER_ENGINES)
                )
            )
        if data_dir is not None:
            config = config.with_overrides(data_dir=data_dir)
        # The database mutates under ``/update`` while the session stays
        # warm, so serving always runs thread-mode pools.
        config = config.with_overrides(mode="thread")
        self._engine = config.engine
        self._config = config
        # Per-server registry (not the process-wide default) so parallel
        # test servers never bleed counters into each other; the null
        # registry makes every instrument below a shared no-op.  Created
        # before the durable store so recovery spans and WAL counters
        # land in it.
        self._metrics = MetricsRegistry() if metrics else NULL_REGISTRY
        self._store: Optional[DurableStore] = None
        self._recovery: Optional[RecoveredState] = None
        if config.data_dir is not None:
            store_kwargs = {"metrics": self._metrics}
            if snapshot_every is not None:
                store_kwargs["snapshot_every"] = snapshot_every
            self._store = DurableStore(config.data_dir, **store_kwargs)
        self._registry: Optional[ViewRegistry] = None
        self._db = db
        if self._store is not None and self._store.has_state():
            # Warm boot: snapshot + WAL replay instead of recompute; the
            # given ``db`` is ignored in favor of the recovered state.
            self._recovery = self._store.recover(program=program, config=config)
            self._registry = self._recovery.registry
            if self._registry is not None:
                self._db = self._registry.serving_db
                if self._registry.session is not None:
                    self._session = self._registry.session
                else:
                    self._session = QuerySession(self._db, "hashjoin")
            else:
                self._db = self._recovery.db
                self._session = QuerySession(self._db, config)
            # Pre-fill the session's intern table so recovered serving
            # reuses the interned monomials the snapshot captured.
            InternRemapper(self._session.intern_table).extend(
                *self._recovery.intern_state
            )
        elif program is not None:
            self._registry = ViewRegistry(program, db, config=config)
            self._db = self._registry.serving_db
            if self._registry.session is not None:
                # The sharded registry already keeps a warm thread-mode
                # session over the working database; serve through it.
                self._session = self._registry.session
            else:
                self._session = QuerySession(self._db, "hashjoin")
        else:
            self._session = QuerySession(db, config)
        if self._store is not None and self._recovery is None:
            # Cold boot with durability on: the initial snapshot is the
            # base every future WAL replay starts from.
            self._store.snapshot(
                self._db,
                self._registry,
                self._session.intern_table.export_state(),
            )
        self._hub = None
        self._view_serial = 0
        if self._registry is not None:
            self._hub = SubscriptionHub(
                max_subscriptions=(
                    DEFAULT_MAX_SUBSCRIPTIONS
                    if max_subscriptions is None
                    else max_subscriptions
                ),
                ring_size=DEFAULT_RING_SIZE if ring_size is None else ring_size,
                metrics=self._metrics,
            )
            # Fan-out runs inside apply_update's session-locked region,
            # so every subscriber ring sees reports in version order.
            self._registry.add_observer(self._hub.publish)
        self._cache = ResultCache(cache_size)
        self._counter_lock = threading.Lock()
        self._active = 0
        self._served = 0
        self._closed = False
        self._request_counter = self._metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint, method and status",
            ("endpoint", "method", "status"),
        )
        self._request_latency = self._metrics.histogram(
            "repro_http_request_seconds",
            "Wall-clock request latency, by endpoint",
            ("endpoint",),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def engine(self) -> str:
        """The serving engine (``hashjoin`` or ``sharded``)."""
        return self._engine

    @property
    def config(self) -> EngineConfig:
        """The resolved :class:`~repro.config.EngineConfig` in effect."""
        return self._config

    @property
    def registry(self) -> Optional[ViewRegistry]:
        """The fronted view registry (``None`` in bare-session mode)."""
        return self._registry

    @property
    def store(self) -> Optional[DurableStore]:
        """The durable store (``None`` without a ``data_dir``)."""
        return self._store

    @property
    def recovery(self) -> Optional[RecoveredState]:
        """What boot-time recovery rebuilt (``None`` on a cold boot)."""
        return self._recovery

    @property
    def session(self) -> QuerySession:
        """The long-lived serving session."""
        return self._session

    @property
    def cache(self) -> ResultCache:
        """The version-keyed result cache."""
        return self._cache

    @property
    def metrics(self):
        """The server's metrics registry (the null registry when off)."""
        return self._metrics

    @property
    def metrics_enabled(self) -> bool:
        """Is this server collecting metrics?"""
        return self._metrics.enabled

    @property
    def hub(self):
        """The changefeed :class:`SubscriptionHub` (``None`` bare)."""
        return self._hub

    def close(self) -> None:
        """Release the session (and registry) worker pools (idempotent)."""
        self._closed = True
        if self._hub is not None:
            self._hub.close()  # unblocks parked long-polls and streams
        if self._registry is not None:
            self._registry.close()
        self._session.close()
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "ServerState":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request accounting (the /stats in-flight counter)
    # ------------------------------------------------------------------
    def request_started(self) -> None:
        """Count one request in (called by the handler threads)."""
        with self._counter_lock:
            self._active += 1

    def request_finished(self) -> None:
        """Count one request out."""
        with self._counter_lock:
            self._active -= 1
            self._served += 1

    def observe_request(
        self, endpoint: str, method: str, status: int, duration_s: float
    ) -> None:
        """Fold one finished request into the per-endpoint metrics."""
        self._request_counter.inc(
            endpoint=endpoint, method=method, status=status
        )
        self._request_latency.observe(duration_s, endpoint=endpoint)

    def render_metrics(self) -> str:
        """The ``GET /metrics`` exposition body."""
        return self._metrics.render()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _session_run(self, queries: Sequence[AnyQuery]) -> Tuple[List, int]:
        """One lock-guarded engine run (tests stub this to count calls)."""
        with current_tracer().span("evaluate", queries=len(queries)):
            return self._session.run_batch(queries)

    def _key(self, canonical: str, version: int):
        return (canonical, version, self._config)

    def prepare_query(self, text: str) -> Tuple[AnyQuery, str]:
        """Parse one query text into ``(query, canonical text)``."""
        with current_tracer().span("parse"):
            query = parse_query(text)
            return query, query_to_str(query)

    def compute_query_entry(
        self, query: AnyQuery, version: int
    ) -> Tuple[bytes, bool]:
        """Run one query through the engine: ``(body, cacheable)``.

        ``cacheable`` is the version-race check: a computation that ran
        at a later version than the one it was keyed under is returned
        fresh but must not be cached.  This is the blocking half of the
        single-flight miss path (run under :meth:`ResultCache.lead`).
        """
        bodies, cacheable = self.compute_batch_entries([query], version)
        return bodies[0], cacheable

    def compute_batch_entries(
        self, queries: Sequence[AnyQuery], version: int
    ) -> Tuple[List[bytes], bool]:
        """Run a batch's cache misses through **one** engine batch.

        Returns the bodies aligned with ``queries`` plus the shared
        version-race verdict (one session run, one actual version).
        """
        results, actual = self._session_run(list(queries))
        bodies = [
            encode_table(result, isinstance(query, AggregateQuery), version=actual)
            for query, result in zip(queries, results)
        ]
        return bodies, actual == version

    def query_steps(self, text: str):
        """Serve one query text, as steps: returns the ``/query`` body.

        Cached under ``(canonical text, version, engine options)`` with
        single-flight deduplication — N concurrent identical requests
        run the engine once.  Parse and cache lookup happen right here,
        in the caller's thread; a warm hit yields nothing at all, a
        deduplicated waiter yields the flight's future, and only the
        leader of a miss yields a blocking call (see :func:`resolve`).
        """
        query, canonical = self.prepare_query(text)
        version = self._session.db_version()
        outcome, found = self._cache.lookup(self._key(canonical, version), version)
        if outcome == "hit":
            return found
        if outcome == "wait":
            return (yield found.future)
        compute = partial(self.compute_query_entry, query, version)
        try:
            return (yield partial(self._cache.lead, found, compute))
        except Exception as error:
            # Either lead() raised and has already told the flight (then
            # this is a no-op), or the call was refused before it ran
            # (load shedding) and the waiters have yet to hear of it.
            self._cache.fail(found, error)
            raise

    def batch_steps(self, texts: Sequence[str]):
        """Serve a query batch, as steps: returns the ``/batch`` body.

        The cached prefix is collected first; the misses — deduplicated
        within the batch — run through **one** session batch, sharing
        plans, shard runs and interned provenance.  Each entry of the
        response carries the version it was computed at.  The body is
        spliced from the per-query bodies (each less its newline), which
        is what encoding the list of their payloads would produce.
        """
        prepared = [self.prepare_query(text) for text in texts]
        version = self._session.db_version()
        entries: Dict[str, bytes] = {}
        missing: Dict[str, AnyQuery] = {}
        for query, canonical in prepared:
            if canonical in entries or canonical in missing:
                continue
            cached = self._cache.get(self._key(canonical, version), version)
            if cached is not None:
                entries[canonical] = cached
            else:
                missing[canonical] = query
        if missing:
            computed, cacheable = yield partial(
                self.compute_batch_entries, list(missing.values()), version
            )
            for canonical, entry in zip(missing, computed):
                entries[canonical] = entry
                if cacheable:
                    self._cache.put(self._key(canonical, version), entry, version)
        return b'{"results":[%s]}\n' % b",".join(
            entries[canonical][:-1] for _query, canonical in prepared
        )

    def run_query(self, text: str) -> bytes:
        """Serve one query text: the ``POST /query`` body bytes."""
        return resolve(self.query_steps(text))

    def run_queries(self, texts: Sequence[str]) -> bytes:
        """Serve a query batch: the ``POST /batch`` body bytes."""
        return resolve(self.batch_steps(texts))

    def apply_update(self, payload) -> bytes:
        """Apply delta batches (the ``maintain`` JSON format) and bump
        the version: the ``POST /update`` body bytes.

        Registry mode maintains every materialized view incrementally;
        bare mode applies the changes to the database directly.  Either
        way the version moves, so every cached result keyed on the old
        version is dead and dropped without a scan, and the session
        refreshes automatically on its next evaluation.

        Every batch is validated against a *simulated* presence state
        before anything is applied, so deletes/retags of absent tuples
        reject the whole payload with nothing touched.  Failures the
        simulation cannot foresee (e.g. an annotation-reuse rejection
        deep in registry maintenance) abort mid-sequence; the error then
        reports exactly how many batches had already been committed.
        """
        deltas = deltas_from_payload(payload)
        summaries: List[str] = []
        changes = 0
        with self._session.lock:
            self._validate_deltas(deltas)  # nothing applied on failure
            applied = 0
            try:
                for delta in deltas:
                    if self._store is not None:
                        # Accepted means durable: the batch hits the WAL
                        # (fsynced) before any state or version moves.
                        # Recovery replays through the same apply paths,
                        # so a batch whose apply fails below fails the
                        # same way on replay.
                        self._store.log_update(delta_to_dict(delta))
                    if self._registry is not None:
                        summaries.append(self._registry.apply(delta).summary())
                    else:
                        apply_to_database(self._db, delta)
                    applied += 1
                    changes += delta.size()
            except ReproError as error:
                raise ReproError(
                    "{} (update batches 1-{} of {} were already applied; "
                    "db version is now {})".format(
                        error, applied, len(deltas), self._session.db_version()
                    )
                )
            version = self._session.db_version()
            if self._store is not None and self._store.should_rotate():
                self._store.snapshot(
                    self._db,
                    self._registry,
                    self._session.intern_table.export_state(),
                )
        self._cache.advance(version)
        response = {
            "version": version,
            "batches": len(deltas),
            "changes": changes,
        }
        if self._registry is not None:
            response["maintenance"] = summaries
        return canonical_json(response)

    def _validate_deltas(self, deltas: Sequence[Delta]) -> None:
        """Reject malformed payloads before touching anything.

        Simulates tuple presence across the whole batch sequence (apply
        order within a batch is deletes → inserts → retags), so a later
        batch may legally delete what an earlier one inserted, while a
        delete or retag of a tuple absent at its point in the sequence
        fails the entire payload with zero mutations — not as a
        half-applied batch's SchemaError.
        """
        added: set = set()
        removed: set = set()

        def present(relation: str, row) -> bool:
            key = (relation, row)
            if key in removed:
                return False
            return key in added or self._db.contains(relation, row)

        for delta in deltas:
            for relation, row in delta.deletes:
                if not present(relation, row):
                    raise ReproError(
                        "cannot delete absent tuple {}{}".format(
                            relation, tuple(row)
                        )
                    )
                added.discard((relation, row))
                removed.add((relation, row))
            for relation, row, _annotation in delta.inserts:
                removed.discard((relation, row))
                added.add((relation, row))
            for relation, row, _annotation in delta.retags:
                if not present(relation, row):
                    raise ReproError(
                        "cannot retag absent tuple {}{}".format(
                            relation, tuple(row)
                        )
                    )

    def read_view(self, name: str, base: bool = False) -> bytes:
        """Serve one materialized view: the ``GET /views/<name>`` body.

        View reads bypass the version-keyed cache entirely — the
        registry's provenance-driven invalidation already keeps the
        materialized table exact, so the read is a copy-and-encode.
        """
        if self._registry is None:
            raise ReproError(
                "no view program is being served; restart with --program "
                "to front a ViewRegistry"
            )
        with self._session.lock:
            results = self._registry.read_view(name, base=base)
            version = self._registry.db_version()
        return encode_table(
            results, name in self._registry.aggregate_names, version=version, view=name
        )

    # ------------------------------------------------------------------
    # Continuous queries (POST /v1/subscribe, GET /v1/changefeed/<id>)
    # ------------------------------------------------------------------
    def _require_hub(self):
        if self._hub is None:
            raise ReproError(
                "subscriptions need maintained views; restart with "
                "--program to front a ViewRegistry"
            )
        return self._hub

    def _fresh_view_name(self) -> str:
        """A view name for an anonymous subscription query."""
        existing = set(self._registry.program) | self._registry.serving_db.relations()
        while True:
            self._view_serial += 1
            candidate = "_sub_{}".format(self._view_serial)
            if candidate not in existing:
                return candidate

    def subscribe(self, payload) -> bytes:
        """Serve ``POST /v1/subscribe``: register a standing query.

        The body names an existing view (``{"view": name}``) or
        supplies a query to materialize (``{"query": text}``, optional
        ``"name"``).  Everything happens under the session lock so the
        returned ``snapshot`` + ``cursor`` are one atomic read: events
        with cursors past the returned one apply cleanly on top of the
        snapshot, with nothing lost in between.
        """
        hub = self._require_hub()
        if not isinstance(payload, dict):
            raise ReproError(
                "POST /v1/subscribe expects {\"view\": name} or "
                "{\"query\": \"<rule text>\"}"
            )
        view = payload.get("view")
        text = payload.get("query")
        if (view is None) == (text is None):
            raise ReproError(
                "POST /v1/subscribe expects exactly one of \"view\" "
                "or \"query\""
            )
        with self._session.lock:
            registry = self._registry
            if text is not None:
                if not isinstance(text, str):
                    raise ReproError("\"query\" must be rule text")
                name = payload.get("name")
                if name is None:
                    name = self._fresh_view_name()
                elif not isinstance(name, str) or not name:
                    raise ReproError("\"name\" must be a non-empty string")
                query = parse_query(text)
                registry.add_view(name, query)  # EvaluationError -> 400
            else:
                if not isinstance(view, str):
                    raise ReproError("\"view\" must be a view name")
                name = view
                if name not in registry.program:
                    raise UnknownViewError(
                        "no view named {!r}; registry serves {}".format(
                            name, sorted(registry.program)
                        )
                    )
            cursor = registry.db_version()
            aggregate = name in registry.aggregate_names
            subscription = hub.subscribe(name, aggregate, cursor)
            snapshot = encode_results(registry.read_view(name), aggregate)
        return canonical_json(
            {
                "subscription": subscription.id,
                "view": name,
                "aggregate": aggregate,
                "cursor": cursor,
                "ring_size": hub.ring_size,
                "snapshot": snapshot,
            }
        )

    def unsubscribe(self, sub_id: str) -> bytes:
        """Serve ``DELETE /v1/changefeed/<id>``."""
        self.subscription(sub_id)  # the typed 404 for an id not live
        self._hub.unsubscribe(sub_id)
        return canonical_json({"subscription": sub_id, "unsubscribed": True})

    def build_reset_event(self, subscription):
        """A full-snapshot ``reset`` event for a consumer off the ring.

        Read under the session lock: the cursor is the version the
        table was copied at, so deltas with later cursors (already in
        the ring or yet to come) apply cleanly on top.
        """
        with self._session.lock:
            state = self._registry.read_view(subscription.view)
            version = self._registry.db_version()
        self._hub.record_reset()
        return ChangefeedEvent(
            version,
            subscription.view,
            "reset",
            changefeed_event_to_dict(
                version, subscription.view, subscription.aggregate, state=state
            ),
        )

    def subscription(self, sub_id: str):
        """Look up a live subscription (hub first, then the id)."""
        return self._require_hub().get(sub_id)

    def changefeed_events(self, subscription, cursor: int):
        """Ring events past ``cursor``, reset-aware (non-blocking).

        The consumption step shared by long-poll and SSE: returns the
        pre-encoded events to push, substituting one ``reset`` event
        when the cursor fell off the replay ring.
        """
        events, needs_reset = self._hub.events_after(subscription, cursor)
        if needs_reset:
            events = [self.build_reset_event(subscription)]
        if events:
            self._hub.record_delivered(len(events))
        return events

    def changefeed_poll(self, subscription, cursor: int, wait: float = 0.0) -> bytes:
        """Answer ``GET /v1/changefeed/<id>`` as a long-poll.

        Blocks up to ``wait`` seconds (capped at :data:`MAX_POLL_WAIT`)
        for events past ``cursor``, then answers ``{"events": [...],
        "cursor": next}`` — an empty list on timeout.
        """
        if wait > 0:
            self._hub.wait_events(
                subscription, cursor, min(wait, MAX_POLL_WAIT)
            )
        events = self.changefeed_events(subscription, cursor)
        return canonical_json(
            {
                "subscription": subscription.id,
                "view": subscription.view,
                "cursor": events[-1].cursor if events else cursor,
                "events": [event.payload for event in events],
            }
        )

    def stats(self) -> dict:
        """The ``GET /stats`` payload: cache, request and session health."""
        with self._counter_lock:
            requests = {"active": self._active, "served": self._served}
        payload = {
            "db_version": self._session.db_version(),
            "engine": self._engine,
            "mode": "registry" if self._registry is not None else "session",
            "cache": self._cache.stats(),
            "requests": requests,
            "intern": self._session.intern_table.sizes(),
            "plan_cache": self._session.plan_cache.stats(),
            "metrics_enabled": self._metrics.enabled,
        }
        if self._metrics.enabled:
            payload["latency"] = {
                key[0]: histogram_percentiles(
                    self._request_latency, endpoint=key[0]
                )
                for key in sorted(self._request_latency.snapshot())
            }
        if self._registry is not None:
            payload["views"] = self._registry.order
        if self._hub is not None:
            payload["subscriptions"] = self._hub.stats()
        if self._store is not None:
            payload["durability"] = self._store.stats()
        return payload

    def __repr__(self) -> str:
        return "<ServerState engine={} {}>".format(
            self._engine,
            "registry" if self._registry is not None else "session",
        )


#: Default per-connection deadline (seconds) for reading one request —
#: the threaded server applies it as a socket timeout, the async tier
#: as header/body read deadlines.  A client that opens a connection or
#: sends headers without the promised body is cut loose after this
#: long instead of pinning a worker forever.
DEFAULT_REQUEST_TIMEOUT = 30.0


class ProvenanceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`ServerState`.

    Request threads are daemonic: an exiting process never hangs on a
    slow client, and tests can drop a server without draining it.  The
    listen backlog is raised well past socketserver's default of 5 —
    a 16-thread smoke load opening connections in a burst would
    otherwise see resets before a single request misbehaved.

    ``request_timeout`` is installed as each connection's socket
    timeout (see :meth:`ProvenanceRequestHandler.setup`): a stalled
    read — idle keep-alive, half-sent headers, a promised body that
    never arrives — raises ``socket.timeout`` instead of blocking the
    handler thread forever.
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(
        self,
        address,
        state: ServerState,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    ):  # noqa: D107
        # Imported here, not at module top: the handler module imports
        # this one for the shared JSON codec.
        from repro.server.handlers import ProvenanceRequestHandler

        self.state = state
        self.request_timeout = request_timeout
        super().__init__(address, ProvenanceRequestHandler)

    def close(self) -> None:
        """Stop accepting connections and release the serving state."""
        self.server_close()
        self.state.close()

    def __exit__(self, *_exc) -> None:
        self.close()


def make_server(
    db,
    host: str = "127.0.0.1",
    port: int = 0,
    program: Optional[Mapping[str, AnyQuery]] = None,
    config: Optional[EngineConfig] = None,
    engine: Optional[str] = None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
    broadcast_threshold: Optional[int] = None,
    metrics: bool = True,
    data_dir: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    max_subscriptions: Optional[int] = None,
    ring_size: Optional[int] = None,
    server_mode: Optional[str] = None,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    idle_timeout: Optional[float] = None,
    max_pending: Optional[int] = None,
    stream_threshold: Optional[int] = None,
):
    """Bind a ready-to-run server (``port=0`` picks a free port).

    ``config`` is an :class:`~repro.config.EngineConfig` (or bare engine
    name); the scattered ``engine=``/``shards=``/``workers=`` keywords
    are deprecated shims over it.  ``server_mode`` (or
    ``config.server_mode``) picks the front end: ``"threaded"`` returns
    the classic :class:`ProvenanceServer`, ``"async"`` an
    :class:`~repro.server.aio.AsyncProvenanceServer` — both expose the
    same blocking facade (``server_address``, ``serve_forever()``,
    ``shutdown()``, ``close()``), so callers and tests treat them
    interchangeably.  ``idle_timeout``, ``max_pending`` and
    ``stream_threshold`` only apply to the async tier (``None`` keeps
    its defaults).

    >>> from repro.db.instance import AnnotatedDatabase
    >>> db = AnnotatedDatabase.from_rows({"R": [("a", "b")]})
    >>> server = make_server(db)
    >>> server.server_address[0]
    '127.0.0.1'
    >>> server.state.session.engine
    'hashjoin'
    >>> server.close()

    The caller owns the lifecycle: ``serve_forever()`` on a thread (or
    the CLI's foreground loop), then ``close()``.
    """
    if server_mode is not None:
        # Overlay onto the config *before* ServerState resolves it, so
        # state.config reflects the mode actually serving (and the
        # overlay goes through EngineConfig validation).
        if config is None:
            config = EngineConfig(server_mode=server_mode)
        elif isinstance(config, str):
            config = EngineConfig(engine=config, server_mode=server_mode)
        else:
            config = config.with_overrides(server_mode=server_mode)
    state = ServerState(
        db,
        program=program,
        config=config,
        engine=engine,
        shards=shards,
        workers=workers,
        cache_size=cache_size,
        broadcast_threshold=broadcast_threshold,
        metrics=metrics,
        data_dir=data_dir,
        snapshot_every=snapshot_every,
        max_subscriptions=max_subscriptions,
        ring_size=ring_size,
    )
    try:
        if state.config.server_mode == "async":
            # Imported lazily: aio imports this module for ServerState.
            from repro.server.aio import AsyncProvenanceServer

            aio_kwargs = {"request_timeout": request_timeout}
            if idle_timeout is not None:
                aio_kwargs["idle_timeout"] = idle_timeout
            if max_pending is not None:
                aio_kwargs["max_pending"] = max_pending
            if stream_threshold is not None:
                aio_kwargs["stream_threshold"] = stream_threshold
            return AsyncProvenanceServer((host, port), state, **aio_kwargs)
        return ProvenanceServer(
            (host, port), state, request_timeout=request_timeout
        )
    except BaseException:
        state.close()
        raise
