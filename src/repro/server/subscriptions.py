"""Continuous queries: the changefeed fan-out hub.

:class:`SubscriptionHub` turns the registry's per-apply
:class:`~repro.incremental.registry.MaintenanceReport` into pushed
changefeed events.  The serving tier registers :meth:`publish` as a
registry observer, so it runs under the session lock on every
``/update`` — reports arrive in version order with no gaps, which is
what makes the cursor contract below sound.

Design points:

* **encode once, fan out cheap** — each touched view's delta is
  serialized to one immutable :class:`ChangefeedEvent` (payload dict +
  canonical JSON bytes + SSE frame) shared by every subscriber's ring,
  so fan-out cost is an append per subscriber, not an encode;
* **bounded replay rings** — every subscription keeps its last
  ``ring_size`` events.  A consumer that resumes with a cursor still
  covered by the ring replays exactly the missed events; one that fell
  off the ring is told to ``reset`` (the serving tier then sends the
  full materialized table read under the session lock);
* **monotone cursors** — an event's cursor is the db version after the
  apply that produced it.  Versions are strictly increasing but not
  dense (every base *and* view mutation bumps the counter), so clients
  must treat cursors as opaque watermarks, never arithmetic;
* **two waiting disciplines** — the threaded tier long-polls via the
  hub's condition variable; the async tier parks a coroutine and
  registers a waker that trampolines into its event loop.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.io import canonical_json, changefeed_event_to_dict

#: Default bound on concurrently live subscriptions per server.
DEFAULT_MAX_SUBSCRIPTIONS = 1024

#: Default per-subscription replay ring length (events, not versions).
DEFAULT_RING_SIZE = 256


class SubscriptionError(ReproError):
    """A subscription-surface rejection with an HTTP status + code."""

    status = 400
    code = "bad_request"


class UnknownViewError(SubscriptionError):
    """Subscribing to a view the registry does not serve."""

    status = 404
    code = "unknown_view"


class UnknownSubscriptionError(SubscriptionError):
    """A changefeed request for a subscription id that does not exist."""

    status = 404
    code = "unknown_subscription"


class SubscriptionLimitError(SubscriptionError):
    """The server's ``max_subscriptions`` bound was reached."""

    status = 429
    code = "subscription_limit"


class ChangefeedEvent:
    """One immutable, pre-encoded changefeed event.

    Built once per (view, version) and shared across every
    subscriber's ring; ``body`` is the long-poll JSON line and ``sse``
    the Server-Sent-Events frame carrying the same bytes.
    """

    __slots__ = ("cursor", "view", "kind", "payload", "body")

    def __init__(self, cursor: int, view: str, kind: str, payload: dict):  # noqa: D107
        self.cursor = cursor
        self.view = view
        self.kind = kind
        self.payload = payload
        self.body = canonical_json(payload)

    def sse(self) -> bytes:
        """The event as one SSE frame (canonical JSON is one line)."""
        return b"event: %s\nid: %d\ndata: %s\n\n" % (
            self.kind.encode("ascii"),
            self.cursor,
            self.body.strip(),
        )

    def __repr__(self) -> str:
        return "<ChangefeedEvent {} {}@{}>".format(
            self.kind, self.view, self.cursor
        )


class Subscription:
    """One standing query: a view name plus a bounded replay ring.

    All mutation happens under the owning hub's lock.  ``base_cursor``
    is the watermark below which events have been evicted from the
    ring: a resume cursor ``c >= base_cursor`` replays exactly the
    events with cursor ``> c``; anything older needs a ``reset``.
    """

    __slots__ = (
        "id",
        "view",
        "aggregate",
        "created_cursor",
        "base_cursor",
        "last_cursor",
        "ring",
        "wakers",
    )

    def __init__(
        self, sub_id: str, view: str, aggregate: bool, cursor: int, ring_size: int
    ):  # noqa: D107
        self.id = sub_id
        self.view = view
        self.aggregate = aggregate
        self.created_cursor = cursor
        self.base_cursor = cursor
        self.last_cursor = cursor
        self.ring: deque = deque(maxlen=ring_size)
        self.wakers: List[Callable[[], None]] = []

    def describe(self) -> dict:
        """The JSON fragment ``/v1/subscribe`` and ``/stats`` expose."""
        return {
            "subscription": self.id,
            "view": self.view,
            "aggregate": self.aggregate,
            "cursor": self.last_cursor,
        }


class SubscriptionHub:
    """Thread-safe registry of subscriptions with encode-once fan-out."""

    def __init__(
        self,
        max_subscriptions: int = DEFAULT_MAX_SUBSCRIPTIONS,
        ring_size: int = DEFAULT_RING_SIZE,
        metrics=None,
    ):  # noqa: D107
        if max_subscriptions < 1:
            raise ValueError("max_subscriptions must be positive")
        if ring_size < 1:
            raise ValueError("ring_size must be positive")
        self.max_subscriptions = max_subscriptions
        self.ring_size = ring_size
        self._cond = threading.Condition()
        self._subscriptions: Dict[str, Subscription] = {}
        self._by_view: Dict[str, set] = {}
        self._serial = 0
        self._closed = False
        self._published = 0
        self._delivered = 0
        self._resets = 0
        self._evictions = 0
        if metrics is None:
            from repro.obs.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        self._gauge = metrics.gauge(
            "repro_changefeed_subscriptions",
            "Live changefeed subscriptions",
        )
        self._fanout_latency = metrics.histogram(
            "repro_changefeed_fanout_seconds",
            "Time to encode one maintenance report and append it to "
            "every subscriber ring",
        )
        self._event_counter = metrics.counter(
            "repro_changefeed_events_total",
            "Changefeed events appended to subscriber rings, by kind",
            ("kind",),
        )
        self._eviction_counter = metrics.counter(
            "repro_changefeed_evictions_total",
            "Changefeed consumers dropped for not draining their stream",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def subscribe(self, view: str, aggregate: bool, cursor: int) -> Subscription:
        """Register one subscription on a maintained view."""
        with self._cond:
            if self._closed:
                raise SubscriptionError("the server is shutting down")
            if len(self._subscriptions) >= self.max_subscriptions:
                raise SubscriptionLimitError(
                    "subscription limit reached ({} live); raise "
                    "--max-subscriptions or drop one".format(
                        len(self._subscriptions)
                    )
                )
            self._serial += 1
            sub = Subscription(
                "sub-{:08d}".format(self._serial),
                view,
                aggregate,
                cursor,
                self.ring_size,
            )
            self._subscriptions[sub.id] = sub
            self._by_view.setdefault(view, set()).add(sub.id)
            self._gauge.set(len(self._subscriptions))
            return sub

    def unsubscribe(self, sub_id: str) -> bool:
        """Drop one subscription; ``False`` when it was not live."""
        with self._cond:
            sub = self._subscriptions.pop(sub_id, None)
            if sub is None:
                return False
            bucket = self._by_view.get(sub.view)
            if bucket is not None:
                bucket.discard(sub_id)
                if not bucket:
                    del self._by_view[sub.view]
            self._gauge.set(len(self._subscriptions))
            wakers = list(sub.wakers)
            sub.wakers.clear()
            self._cond.notify_all()
        for waker in wakers:
            waker()  # parked streams notice the subscription died
        return True

    def alive(self, sub: Subscription) -> bool:
        """Is ``sub`` still registered (not unsubscribed/evicted)?"""
        return sub.id in self._subscriptions

    def get(self, sub_id: str) -> Subscription:
        """Look one subscription up (:class:`UnknownSubscriptionError`)."""
        sub = self._subscriptions.get(sub_id)
        if sub is None:
            raise UnknownSubscriptionError(
                "no subscription {!r} (it may have been dropped)".format(
                    sub_id
                )
            )
        return sub

    def close(self) -> None:
        """Wake every waiter and refuse new subscriptions (idempotent)."""
        with self._cond:
            self._closed = True
            wakers = [
                waker
                for sub in self._subscriptions.values()
                for waker in sub.wakers
            ]
            self._cond.notify_all()
        for waker in wakers:
            waker()

    @property
    def closed(self) -> bool:
        """Has :meth:`close` run?"""
        return self._closed

    def __len__(self) -> int:
        return len(self._subscriptions)

    # ------------------------------------------------------------------
    # Fan-out (registered as a registry observer; runs under the
    # serving session lock, so reports arrive in version order)
    # ------------------------------------------------------------------
    def publish(self, version: int, report) -> None:
        """Encode one maintenance report and append it to every ring."""
        if not self._subscriptions:
            return
        started = perf_counter()
        appended = 0
        with self._cond:
            for view, change in report.changes.items():
                if change.is_empty():
                    continue
                targets = self._by_view.get(view)
                if not targets:
                    continue
                event: Optional[ChangefeedEvent] = None
                for sub_id in targets:
                    sub = self._subscriptions[sub_id]
                    if event is None:
                        # Encode once per (view, version), share across
                        # every subscriber ring.
                        event = ChangefeedEvent(
                            version,
                            view,
                            "delta",
                            changefeed_event_to_dict(
                                version, view, sub.aggregate, change=change
                            ),
                        )
                    if len(sub.ring) == sub.ring.maxlen:
                        # The deque is about to evict its oldest event:
                        # move the replay watermark past it first.
                        sub.base_cursor = sub.ring[0].cursor
                    sub.ring.append(event)
                    sub.last_cursor = version
                    appended += 1
            if appended:
                self._published += 1
                self._event_counter.inc(appended, kind="delta")
                wakers = [
                    waker
                    for sub in self._subscriptions.values()
                    for waker in sub.wakers
                ]
                self._cond.notify_all()
        if appended:
            for waker in wakers:
                waker()
            self._fanout_latency.observe(perf_counter() - started)

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def events_after(
        self, sub: Subscription, cursor: int
    ) -> Tuple[List[ChangefeedEvent], bool]:
        """Ring events past ``cursor``: ``(events, needs_reset)``.

        ``needs_reset`` means the ring no longer covers ``cursor`` —
        the consumer must take a full snapshot (the serving tier builds
        the ``reset`` event) before following deltas again.
        """
        with self._cond:
            if cursor < sub.base_cursor:
                return [], True
            return [e for e in sub.ring if e.cursor > cursor], False

    def wait_events(
        self, sub: Subscription, cursor: int, timeout: float
    ) -> Tuple[List[ChangefeedEvent], bool]:
        """Block up to ``timeout`` seconds for events past ``cursor``.

        The threaded tier's long-poll primitive.  Returns as soon as
        the ring holds a qualifying event, the cursor falls off the
        ring, the subscription dies, or the hub closes — whichever
        comes first (an expired timeout returns ``([], False)``).
        """

        def ready() -> bool:
            return (
                self._closed
                or sub.id not in self._subscriptions
                or cursor < sub.base_cursor
                or (bool(sub.ring) and sub.ring[-1].cursor > cursor)
            )

        with self._cond:
            self._cond.wait_for(ready, timeout=timeout)
            if cursor < sub.base_cursor:
                return [], True
            return [e for e in sub.ring if e.cursor > cursor], False

    def add_waker(self, sub: Subscription, waker: Callable[[], None]) -> None:
        """Attach a wake callback fired on publish/unsubscribe/close.

        The async tier's parked SSE coroutines register a
        ``call_soon_threadsafe`` trampoline here so an update on a
        handler thread wakes the right event loop without polling.
        """
        with self._cond:
            sub.wakers.append(waker)

    def remove_waker(self, sub: Subscription, waker: Callable[[], None]) -> None:
        """Detach a wake callback (missing ones ignored)."""
        with self._cond:
            try:
                sub.wakers.remove(waker)
            except ValueError:
                pass

    def record_delivered(self, count: int) -> None:
        """Count events actually written to a consumer."""
        with self._cond:
            self._delivered += count

    def record_reset(self) -> None:
        """Count one reset event sent to a lagging consumer."""
        with self._cond:
            self._resets += 1
        self._event_counter.inc(kind="reset")

    def record_eviction(self) -> None:
        """Count one consumer dropped for not draining its stream."""
        with self._cond:
            self._evictions += 1
        self._eviction_counter.inc()

    def stats(self) -> dict:
        """Cheap counters for ``/stats``."""
        with self._cond:
            return {
                "active": len(self._subscriptions),
                "max": self.max_subscriptions,
                "ring_size": self.ring_size,
                "published_batches": self._published,
                "delivered_events": self._delivered,
                "resets": self._resets,
                "evictions": self._evictions,
            }

    def __repr__(self) -> str:
        return "<SubscriptionHub {}/{} subscriptions>".format(
            len(self._subscriptions), self.max_subscriptions
        )
