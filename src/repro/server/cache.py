"""A thread-safe, version-keyed result cache with single-flight dedup.

The serving tier keys cached responses by ``(canonical query text,
db version, engine options)``.  Two properties fall out of putting the
database version *in the key* instead of maintaining the entries:

* **invalidation is free** — an update bumps the version, so every
  stale entry simply stops being addressable; no scan, no per-entry
  bookkeeping.  Nothing keyed on an older version can ever be asked
  for again, so the first caller to name a newer version (the update
  itself, on a server) drops them all — counted as ``invalidated``,
  never as ``evictions``, which stay the LRU bound's alone;
* **hits are exact** — a cached body is byte-identical to what the
  engine would produce at that version, because it *is* what the
  engine produced at that version.

Single-flight deduplication handles the thundering-herd case: when N
concurrent requests miss on the same key, one of them (the *leader*)
runs the computation while the others wait on its result — the engine
runs once, not N times.  A leader's failure is propagated to every
waiter and nothing is cached.

Computations return ``(value, cacheable)`` so a caller that discovers
mid-flight that the database moved on (the version it keyed on is no
longer current) can hand the fresh value to all waiters *without*
poisoning the cache under the stale key.  The cache refuses such a
value on its own account too: a flight opened at a version that has
since died answers its waiters and stores nothing.

The key stays opaque; callers pass the version it carries alongside
(callers that have no versions all live at version 0).
"""

from __future__ import annotations

import contextvars
import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.obs.trace import current_tracer

#: A computation run under single-flight: returns the value to hand to
#: every deduplicated caller, plus whether to store it under the key.
Compute = Callable[[], Tuple[object, bool]]

#: The outcome of this context's most recent cache lookup — ``hit``,
#: ``miss`` or ``wait`` (deduplicated behind a leader).  The request
#: handler reads it for the per-request log line; it is context-local,
#: so concurrent request threads never see each other's outcomes.
_LAST_OUTCOME: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_cache_outcome", default=None
)


def last_outcome() -> Optional[str]:
    """The calling context's most recent lookup outcome (or ``None``)."""
    return _LAST_OUTCOME.get()


def reset_outcome() -> None:
    """Clear the outcome at request start (keep-alive reuses threads)."""
    _LAST_OUTCOME.set(None)

#: Distinguishes "not cached" from a legitimately cached ``None`` value
#: (``dict.get`` with a ``None`` default would conflate the two and turn
#: a cached ``None`` into a permanent miss that still occupies capacity).
_MISSING = object()


class Flight:
    """One in-flight computation: the future its waiters wait on.

    The future is a :class:`concurrent.futures.Future`, so handler
    threads block on ``future.result()`` and coroutines await
    ``asyncio.wrap_future(future)`` — one ledger for both kinds of
    waiter.  It is marked running at birth, which makes it
    uncancellable: ``wrap_future`` forwards an awaiting task's
    cancellation to its source, and one impatient waiter must never
    cancel the flight under everyone else.
    """

    __slots__ = ("key", "version", "future", "waiters")

    def __init__(self, key: Hashable, version: int):  # noqa: D107
        self.key = key
        self.version = version
        self.future: Future = Future()
        self.future.set_running_or_notify_cancel()
        self.waiters = 0


class ResultCache:
    """LRU-bounded cache with single-flight deduplication.

    >>> cache = ResultCache(capacity=2)
    >>> cache.get_or_compute("k", lambda: ("value", True))
    'value'
    >>> cache.get_or_compute("k", lambda: ("never run", True))
    'value'
    >>> cache.stats()["hits"], cache.stats()["misses"]
    (1, 1)
    """

    def __init__(self, capacity: int = 256):  # noqa: D107
        if capacity < 1:
            raise ValueError("result cache capacity must be positive")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._inflight: Dict[Hashable, Flight] = {}
        self._hits = 0
        self._misses = 0
        self._dedup_hits = 0
        self._evictions = 0
        self._waiters = 0
        self._version = 0
        self._invalidated = 0

    # ------------------------------------------------------------------
    # The serving path
    # ------------------------------------------------------------------
    def advance(self, version: int) -> None:
        """The database reached ``version``: drop what older ones stored."""
        with self._lock:
            self._advance(version)

    def _advance(self, version: int) -> bool:
        """Move on to ``version`` if it is newer; is it the live one?"""
        if version > self._version:
            self._version = version
            self._invalidated += len(self._entries)
            self._entries.clear()
        return version == self._version

    def get(self, key: Hashable, version: int = 0):
        """The cached value for ``key`` or ``None`` (counts hit/miss).

        A plain lookup without single-flight — the batch path uses it to
        collect its cached prefix before evaluating the misses together.
        """
        with current_tracer().span("cache.lookup") as span:
            with self._lock:
                self._advance(version)
                value = self._entries.get(key, _MISSING)
                if value is _MISSING:
                    self._misses += 1
                    value, outcome = None, "miss"
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    outcome = "hit"
            span.set(outcome=outcome)
            _LAST_OUTCOME.set(outcome)
            return value

    def put(self, key: Hashable, value, version: int = 0) -> None:
        """Store ``value`` under ``key``, evicting LRU entries on overflow
        (not at all if ``version`` is dead: nobody could ask for it)."""
        with self._lock:
            if self._advance(version):
                self._store(key, value)

    def lookup(self, key: Hashable, version: int = 0) -> Tuple[str, object]:
        """One single-flight lookup: ``(outcome, found)``.

        ``("hit", value)`` — cached.  ``("miss", flight)`` — the caller
        opened the flight and is its leader: it owes the flight one
        :meth:`lead` (or :meth:`fail`).  ``("wait", flight)`` — someone
        else leads; the caller waits on ``flight.future`` however suits
        it (block, or await).  Never blocks, so an event loop can call
        it directly.
        """
        with current_tracer().span("cache.lookup") as span:
            with self._lock:
                self._advance(version)
                found = self._entries.get(key, _MISSING)
                if found is not _MISSING:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    outcome = "hit"
                else:
                    found = self._inflight.get(key)
                    if found is None:
                        found = self._inflight[key] = Flight(key, version)
                        self._misses += 1
                        outcome = "miss"
                    else:
                        found.waiters += 1
                        self._waiters += 1
                        outcome = "wait"
            span.set(outcome=outcome)
            _LAST_OUTCOME.set(outcome)
        return outcome, found

    def lead(self, flight: Flight, compute: Compute):
        """Run ``compute()`` and publish its outcome to the flight.

        ``compute`` must return ``(value, cacheable)``; when
        ``cacheable`` is false the value is handed to every waiter but
        not stored.  If it raises, every waiter re-raises the same
        exception and nothing is cached.  Publication belongs to the
        thread that ran the computation, not to whoever asked for it: a
        leader that stops listening (its coroutine was cancelled) takes
        nothing away from its waiters.
        """
        try:
            value, cacheable = compute()
        except BaseException as error:
            self.fail(flight, error)
            raise
        self._publish(flight, value, cacheable, None)
        return value

    def fail(self, flight: Flight, error: BaseException) -> None:
        """Publish ``error`` to the flight unless it already landed.

        For a leader whose computation could not even start (the
        transport shed it): its waiters must hear that, not hang.
        """
        self._publish(flight, None, False, error)

    def _publish(self, flight: Flight, value, cacheable: bool, error) -> None:
        future = flight.future
        with self._lock:
            if future.done():
                return
            self._inflight.pop(flight.key, None)
            try:
                if cacheable and self._advance(flight.version):
                    self._store(flight.key, value)
            finally:
                # Crash-proof wakeup: even if storing the entry raises,
                # the future resolves, so no waiter can block forever
                # behind a leader that will never publish.
                if error is None:
                    self._dedup_hits += flight.waiters
                    future.set_result(value)
                else:
                    future.set_exception(error)

    def get_or_compute(self, key: Hashable, compute: Compute):
        """The cached value for ``key``, computing it at most once.

        The blocking composition of :meth:`lookup` and :meth:`lead`:
        concurrent callers with the same key are deduplicated — the
        first becomes the leader and runs ``compute()``, the rest block
        on its flight and share its value (counted as ``dedup_hits``).
        """
        outcome, found = self.lookup(key)
        if outcome == "hit":
            return found
        if outcome == "wait":
            return found.future.result()
        return self.lead(found, compute)

    def _store(self, key: Hashable, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Hit/miss/dedup/eviction/invalidation counters plus the hit rate.

        ``dedup_hits`` count toward the hit rate: a deduplicated request
        was served without its own engine run, which is exactly what the
        rate is meant to measure.
        """
        with self._lock:
            lookups = self._hits + self._misses + self._dedup_hits
            served = self._hits + self._dedup_hits
            return {
                "hits": self._hits,
                "misses": self._misses,
                "dedup_hits": self._dedup_hits,
                "evictions": self._evictions,
                "invalidated": self._invalidated,
                "single_flight_waiters": self._waiters,
                "size": len(self._entries),
                "capacity": self._capacity,
                "inflight": len(self._inflight),
                "hit_rate": (served / lookups) if lookups else 0.0,
            }

    def clear(self) -> None:
        """Drop every entry and reset the counters (in-flight survive)."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._dedup_hits = 0
            self._evictions = 0
            self._invalidated = 0
            self._waiters = 0

    @property
    def capacity(self) -> int:
        """The LRU bound this cache was built with."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        stats = self.stats()
        return "<ResultCache {size}/{capacity}, {hits} hits, {misses} misses>".format(
            **stats
        )
