"""Concurrency, differential and protocol tests for the serving tier.

The load-bearing claims:

* **single-flight** — N concurrent identical queries run the engine
  once (monitored through a counting engine stub);
* **version-keyed invalidation** — ``/update`` bumps the version and
  every subsequent read reflects the new state, with no cache scan;
* **byte-identity** — every ``/query`` and ``/batch`` response equals
  encoding an in-process ``evaluate``/``evaluate_aggregate`` result
  with the same codec, byte for byte, on 30 seeded databases and under
  concurrent load;
* **leak safety** — sessions dropped without ``close()`` do not strand
  worker pools (via ``weakref.finalize``, never ``__del__``).
"""

import asyncio
import gc
import json
import threading
import time
from contextlib import contextmanager
from http.client import HTTPConnection

import pytest

from repro.aggregate.evaluate import evaluate_aggregate
from repro.config import EngineConfig
from repro.db.generators import random_database
from repro.db.instance import AnnotatedDatabase
from repro.engine.evaluate import evaluate
from repro.engine.sharded import ShardedExecutor
from repro.errors import EvaluationError
from repro.query.aggregate import AggregateQuery
from repro.query.parser import parse_program, parse_query
from repro.server.app import (
    ServerState,
    canonical_json,
    encode_results,
    make_server,
)
from repro.server.cache import ResultCache
from repro.session import QuerySession

#: Leak safety is a headline claim of this suite: an unclosed socket,
#: pool, or shared-memory segment must fail the test, not just warn.
pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

JOIN = "ans(x, z) :- R(x, y), S(y, z)"
UNION = "ans(x) :- R(x, y)\nans(x) :- S(x, y)"
AGG_COUNT = "agg(x, count(*)) :- R(x, y)"
AGG_SUM = "agg(sum(z)) :- R(x, y), S(y, z)"


def small_db():
    return AnnotatedDatabase.from_rows(
        {"R": [("a", "b"), ("b", "c"), ("c", "a")], "S": [("b", 1), ("c", 2)]}
    )


class Client:
    """A tiny JSON HTTP client over :mod:`http.client`."""

    def __init__(self, server):
        self.host, self.port = server.server_address[:2]

    def request(self, method, path, body=None):
        conn = HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request(
                method, path, body=None if body is None else json.dumps(body)
            )
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post(self, path, body):
        return self.request("POST", path, body)

    def get(self, path):
        return self.request("GET", path)

    def json(self, method, path, body=None):
        status, raw = self.request(method, path, body)
        return status, json.loads(raw)


@contextmanager
def serve(db, **kwargs):
    server = make_server(db, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, Client(server)
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def expected_query_body(text, db, version):
    """What the server must answer: the shared codec over a direct,
    in-process evaluation — the differential oracle."""
    query = parse_query(text)
    aggregate = isinstance(query, AggregateQuery)
    direct = (
        evaluate_aggregate(query, db) if aggregate else evaluate(query, db)
    )
    return canonical_json(
        {"version": version, **encode_results(direct, aggregate)}
    )


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------
def fly(cache, kind, compute, callers, key="k"):
    """Run ``callers`` concurrent lookups of one key; their outcomes.

    ``kind`` is how the callers wait.  ``"thread"``: each is a thread
    inside ``get_or_compute``, blocking on the flight — the threaded
    transport.  ``"coroutine"``: each is a task on one event loop doing
    what the asyncio transport does — ``lookup`` on the loop, ``lead``
    on an executor thread, waiters awaiting the flight's future.
    ``compute`` is held back until every non-leader has joined the
    flight, so all of them are deduplicated waiters.  An outcome is the
    value a caller got or the exception it raised.
    """
    release = threading.Event()

    def gated():
        release.wait(10)
        return compute()

    def release_when_joined():
        deadline = time.time() + 10
        while time.time() < deadline:
            if cache.stats()["single_flight_waiters"] >= callers - 1:
                break
            time.sleep(0.005)
        release.set()

    releaser = threading.Thread(target=release_when_joined)
    releaser.start()
    outcomes = []
    if kind == "thread":

        def caller():
            try:
                outcomes.append(cache.get_or_compute(key, gated))
            except Exception as error:
                outcomes.append(error)

        threads = [threading.Thread(target=caller) for _ in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(15)
            assert not thread.is_alive()
    else:

        async def caller():
            outcome, found = cache.lookup(key)
            if outcome == "hit":
                return found
            if outcome == "wait":
                return await asyncio.wrap_future(found.future)
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, cache.lead, found, gated)

        async def scenario():
            return await asyncio.wait_for(
                asyncio.gather(
                    *[caller() for _ in range(callers)], return_exceptions=True
                ),
                15,
            )

        outcomes = asyncio.run(scenario())
    releaser.join(15)
    return outcomes


WAITER_KINDS = ["thread", "coroutine"]


class TestResultCache:
    def test_get_or_compute_caches(self):
        cache = ResultCache()
        assert cache.get_or_compute("k", lambda: ("v", True)) == "v"
        assert cache.get_or_compute("k", lambda: ("other", True)) == "v"
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_uncacheable_results_are_returned_but_not_stored(self):
        cache = ResultCache()
        assert cache.get_or_compute("k", lambda: ("fresh", False)) == "fresh"
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # bump a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.stats()["evictions"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_clear_resets(self):
        cache = ResultCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0

    def test_cached_none_is_a_hit_not_a_permanent_miss(self):
        cache = ResultCache()
        calls = []

        def compute():
            calls.append(1)
            return None, True

        assert cache.get_or_compute("k", compute) is None
        assert cache.get_or_compute("k", compute) is None
        assert len(calls) == 1  # the stored None hits; no recompute
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)
        cache.put("n", None)
        assert cache.get("n") is None
        assert cache.stats()["hits"] == 2

    def test_reprs_are_cheap_summaries(self):
        cache = ResultCache()
        cache.put("a", 1)
        assert "ResultCache" in repr(cache) and "1/256" in repr(cache)
        with ServerState(small_db()) as state:
            assert "hashjoin" in repr(state) and "session" in repr(state)

    @pytest.mark.parametrize("kind", WAITER_KINDS)
    def test_single_flight_computes_once(self, kind):
        cache = ResultCache()
        calls = []

        def compute():
            calls.append(1)
            return "value", True

        results = fly(cache, kind, compute, callers=8)
        assert len(calls) == 1  # the engine ran once for 8 callers
        assert results == ["value"] * 8
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["dedup_hits"] == 7
        assert stats["single_flight_waiters"] == 7
        assert stats["inflight"] == 0

    def test_store_crash_still_wakes_waiters(self):
        """Satellite fix: a leader that dies *after* computing (here the
        LRU store step explodes) must still wake every waiter — the
        event is set in a ``finally`` — or they block forever."""
        cache = ResultCache()
        started = threading.Event()
        release = threading.Event()

        def compute():
            started.set()
            release.wait(10)
            return "value", True

        cache._store = lambda key, value: (_ for _ in ()).throw(
            RuntimeError("store exploded")
        )
        leader_errors = []
        waiter_results = []

        def leader():
            try:
                cache.get_or_compute("k", compute)
            except RuntimeError as error:
                leader_errors.append(str(error))

        def waiter():
            waiter_results.append(
                cache.get_or_compute("k", lambda: ("never run", True))
            )

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        assert started.wait(10)
        waiters = [threading.Thread(target=waiter) for _ in range(3)]
        for thread in waiters:
            thread.start()
        deadline = time.time() + 10
        while time.time() < deadline:
            if cache.stats()["single_flight_waiters"] >= 3:
                break
            time.sleep(0.01)
        release.set()
        leader_thread.join(10)
        for thread in waiters:
            thread.join(10)  # the satellite bug: these hung forever
        assert leader_errors == ["store exploded"]
        # The waiters got the computed value; the broken store kept it
        # out of the cache and the key is not poisoned.
        assert waiter_results == ["value"] * 3
        del cache._store  # restore the class method
        assert cache.get("k") is None
        assert cache.get_or_compute("k", lambda: ("ok", True)) == "ok"

    @pytest.mark.parametrize("kind", WAITER_KINDS)
    def test_leader_failure_propagates_and_caches_nothing(self, kind):
        cache = ResultCache()

        def compute():
            raise RuntimeError("engine exploded")

        outcomes = fly(cache, kind, compute, callers=4)
        assert [str(error) for error in outcomes] == ["engine exploded"] * 4
        assert all(isinstance(error, RuntimeError) for error in outcomes)
        assert cache.get("k") is None
        assert cache.stats()["dedup_hits"] == 0
        # The key is not poisoned: the next computation succeeds.
        assert cache.get_or_compute("k", lambda: ("ok", True)) == "ok"

    def test_waiter_cancellation_does_not_kill_the_flight(self):
        """``asyncio.wrap_future`` forwards an awaiting task's cancel to
        the future it wraps; a flight's future refuses it, so one
        impatient client takes nobody else's answer away."""
        cache = ResultCache()
        release = threading.Event()

        def compute():
            release.wait(10)
            return "value", True

        async def scenario():
            loop = asyncio.get_running_loop()
            outcome, flight = cache.lookup("k")
            assert outcome == "miss"
            leader = loop.run_in_executor(None, cache.lead, flight, compute)
            assert cache.lookup("k") == ("wait", flight)
            impatient = asyncio.ensure_future(asyncio.wrap_future(flight.future))
            assert cache.lookup("k") == ("wait", flight)
            patient = asyncio.ensure_future(asyncio.wrap_future(flight.future))
            await asyncio.sleep(0)
            impatient.cancel()
            with pytest.raises(asyncio.CancelledError):
                await impatient
            assert not flight.future.cancelled()
            release.set()
            return await asyncio.wait_for(asyncio.gather(leader, patient), 10)

        assert asyncio.run(scenario()) == ["value", "value"]
        assert cache.get("k") == "value"

    def test_cancelled_leader_still_publishes_to_its_waiters(self):
        """Publication belongs to the thread running the computation:
        the coroutine that asked for it may be cancelled (its connection
        was shut down) and the flight still lands, cached."""
        cache = ResultCache()
        started = threading.Event()
        release = threading.Event()

        def compute():
            started.set()
            release.wait(10)
            return "value", True

        async def scenario():
            loop = asyncio.get_running_loop()
            _outcome, flight = cache.lookup("k")

            async def lead():
                return await loop.run_in_executor(
                    None, cache.lead, flight, compute
                )

            leader = asyncio.ensure_future(lead())
            assert cache.lookup("k") == ("wait", flight)
            waiter = asyncio.ensure_future(asyncio.wrap_future(flight.future))
            await loop.run_in_executor(None, started.wait, 10)
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            release.set()
            return await asyncio.wait_for(waiter, 10)

        assert asyncio.run(scenario()) == "value"
        assert cache.get("k") == "value"
        assert cache.stats()["inflight"] == 0

    def test_fail_reaches_waiters_once_and_only_before_publication(self):
        """A leader whose call was refused before it ran tells its
        flight with ``fail``; after ``lead`` has published, ``fail`` is
        a no-op."""
        cache = ResultCache()
        _outcome, flight = cache.lookup("k")
        assert cache.lookup("k") == ("wait", flight)
        cache.fail(flight, RuntimeError("shed"))
        with pytest.raises(RuntimeError, match="shed"):
            flight.future.result(1)
        assert cache.stats()["inflight"] == 0
        _outcome, flight = cache.lookup("k")
        assert cache.lead(flight, lambda: ("value", True)) == "value"
        cache.fail(flight, RuntimeError("too late"))
        assert flight.future.result(1) == "value"
        assert cache.get("k") == "value"


# ----------------------------------------------------------------------
# Endpoint protocol (malformed requests, status codes)
# ----------------------------------------------------------------------
class TestProtocol:
    """Every protocol test runs against BOTH serving tiers: the error
    contract (message strings included) is part of the byte-identity
    promise, so the async front end answers exactly like the threaded
    one."""

    @pytest.fixture(scope="class", params=["threaded", "async"])
    def served(self, request):
        with serve(small_db(), server_mode=request.param) as pair:
            yield pair

    def test_query_ok(self, served):
        _server, client = served
        status, payload = client.json("POST", "/query", {"query": JOIN})
        assert status == 200
        assert payload["kind"] == "polynomial"
        assert payload["results"]

    def test_missing_body_is_400(self, served):
        _server, client = served
        status, payload = client.json("POST", "/query")
        assert status == 400
        assert "body" in payload["error"]

    def test_invalid_json_is_400(self, served):
        _server, client = served
        conn = HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request("POST", "/query", body="{not json")
            response = conn.getresponse()
            assert response.status == 400
            assert b"invalid JSON" in response.read()
        finally:
            conn.close()

    def test_wrong_query_type_is_400(self, served):
        _server, client = served
        for body in ({}, {"query": 7}, [JOIN]):
            status, payload = client.json("POST", "/query", body)
            assert status == 400, payload

    def test_parse_error_is_400(self, served):
        _server, client = served
        status, payload = client.json("POST", "/query", {"query": "not a rule"})
        assert status == 400
        assert payload["error"]

    def test_wrong_batch_type_is_400(self, served):
        _server, client = served
        for body in ({}, {"queries": JOIN}, {"queries": [JOIN, 3]}):
            status, _payload = client.json("POST", "/batch", body)
            assert status == 400

    def test_bad_update_batches_are_400(self, served):
        _server, client = served
        for body in (
            {"upsert": {}},  # unknown section
            {"insert": {"R": [{"no_row": True}]}},
            {"retag": {"R": [["a", "b"]]}},
            {"delete": {"R": [["zz", "zz"]]}},  # absent tuple
            42,
        ):
            status, payload = client.json("POST", "/update", body)
            assert status == 400, payload

    def test_method_mismatches_are_405(self, served):
        _server, client = served
        assert client.get("/query")[0] == 405
        assert client.get("/batch")[0] == 405
        assert client.get("/update")[0] == 405
        assert client.post("/stats", {})[0] == 405
        assert client.post("/views/V", {})[0] == 405

    def test_unknown_paths_are_404(self, served):
        _server, client = served
        assert client.get("/nope")[0] == 404
        assert client.post("/nope", {})[0] == 404

    def test_views_without_registry_is_404(self, served):
        _server, client = served
        status, payload = client.json("GET", "/views/V")
        assert status == 404
        assert "program" in payload["error"]

    def test_stats_shape(self, served):
        _server, client = served
        status, payload = client.json("GET", "/stats")
        assert status == 200
        assert payload["mode"] == "session"
        assert payload["engine"] == "hashjoin"
        assert {"hits", "misses", "hit_rate", "inflight"} <= set(payload["cache"])
        assert {"symbols", "monomials", "products"} <= set(payload["intern"])
        assert payload["db_version"] >= 0
        assert payload["requests"]["active"] >= 1  # this very request

    def test_unknown_engine_rejected(self):
        with pytest.raises(EvaluationError):
            ServerState(small_db(), config="warp")

    def test_invalid_content_length_is_400_and_closes(self, served):
        """An unparseable Content-Length means the body cannot be
        drained: the response is a clean 400 that closes the socket."""
        _server, client = served
        import socket

        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\n"
                b"Host: test\r\nContent-Length: 12abc\r\n\r\n"
            )
            sock.settimeout(30)
            chunks = b""
            while True:
                data = sock.recv(4096)
                if not data:
                    break  # server closed the undrainable connection
                chunks += data
            assert b"400" in chunks.split(b"\r\n", 1)[0]
            assert b"invalid Content-Length" in chunks

    def test_keep_alive_survives_rejected_posts(self, served):
        """A 405/404/400 response must drain the request body, or the
        next request on the same keep-alive connection parses garbage."""
        _server, client = served
        conn = HTTPConnection(client.host, client.port, timeout=30)
        try:
            # POST with a body to a GET-only path: 405, body unread
            # unless the handler drains it.
            for path, expected in (
                ("/stats", 405),
                ("/nowhere", 404),
                ("/query", 400),
            ):
                conn.request("POST", path, body=json.dumps({"pad": "x" * 256}))
                response = conn.getresponse()
                assert response.status == expected
                response.read()
                # The SAME connection must still serve the next request.
                conn.request("GET", "/stats")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["engine"] == "hashjoin"
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Liveness: slow clients must not pin workers, crashes must not leak
# ----------------------------------------------------------------------
class TestSlowClients:
    """Regression for the bug this PR fixes: a client that sends
    headers promising a body and then stalls used to pin a worker
    thread forever (no socket timeout).  Both tiers now enforce a
    request deadline."""

    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_stalled_body_gets_408_and_frees_the_worker(self, mode):
        import socket

        with serve(
            small_db(), server_mode=mode, request_timeout=0.5
        ) as (server, client):
            with socket.create_connection(
                (client.host, client.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"POST /query HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n"
                    b'{"partial'  # 91 promised bytes never arrive
                )
                sock.settimeout(30)
                chunks = b""
                while True:
                    data = sock.recv(4096)
                    if not data:
                        break  # the undrainable connection was closed
                    chunks += data
            assert b"408" in chunks.split(b"\r\n", 1)[0], (mode, chunks)
            assert b"timed out reading the request body" in chunks
            # The worker is free again: the server still serves.
            assert client.get("/stats")[0] == 200

    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_handler_crash_does_not_leak_inflight_counter(self, mode):
        """Satellite fix: ``request_started``/``request_finished`` pair
        in a try/finally, so induced handler failures cannot ratchet
        the /stats ``active`` gauge upward forever."""
        with serve(small_db(), server_mode=mode) as (server, client):
            state = server.state

            def boom(*_args, **_kwargs):
                raise RuntimeError("induced handler failure")

            state.prepare_query = boom  # crashes /query in both tiers
            for _ in range(3):
                status, payload = client.json(
                    "POST", "/query", {"query": JOIN}
                )
                assert status == 500
                assert "induced handler failure" in payload["error"]
            deadline = time.time() + 5
            while time.time() < deadline:
                if state.stats()["requests"]["active"] == 0:
                    break
                time.sleep(0.01)
            assert state.stats()["requests"]["active"] == 0
            # And the server still works once the fault is removed.
            del state.prepare_query
            assert client.post("/query", {"query": JOIN})[0] == 200


# ----------------------------------------------------------------------
# Version-keyed invalidation
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_update_invalidates_without_scanning(self):
        with serve(small_db()) as (server, client):
            status, first = client.post("/query", {"query": "ans(x) :- R(x, x)"})
            assert status == 200
            status, again = client.post("/query", {"query": "ans(x) :- R(x, x)"})
            assert status == 200
            assert again == first  # warm hit, byte-identical
            assert server.state.cache.stats()["hits"] == 1

            status, _ = client.post(
                "/update", {"insert": {"R": [["a", "a"]]}}
            )
            assert status == 200
            status, fresh = client.json(
                "POST", "/query", {"query": "ans(x) :- R(x, x)"}
            )
            assert status == 200
            assert [entry["tuple"] for entry in fresh["results"]] == [["a"]]
            # The stale entry was never touched: invalidation happened
            # purely by the version moving on.
            assert server.state.cache.stats()["evictions"] == 0

    def test_update_applies_deletes_and_retags(self):
        with serve(small_db()) as (server, client):
            status, payload = client.json(
                "POST",
                "/update",
                {
                    "delete": {"R": [["c", "a"]]},
                    "retag": {"S": [{"row": ["b", 1], "annotation": "t9"}]},
                },
            )
            assert status == 200
            assert payload["changes"] == 2
            status, result = client.json("POST", "/query", {"query": JOIN})
            assert status == 200
            provenances = {
                json.dumps(entry["provenance"], sort_keys=True)
                for entry in result["results"]
            }
            assert any("t9" in blob for blob in provenances)
            # S(b, 1) carried s4 before the retag; nothing mentions it now.
            assert not any('"s4"' in blob for blob in provenances)

    def test_invalid_multi_batch_update_applies_nothing(self):
        """All batches are validated up front: a bad later batch must
        not leave earlier batches half-applied behind a 400."""
        with serve(small_db()) as (server, client):
            before = server.state.session.db_version()
            status, payload = client.json(
                "POST",
                "/update",
                [
                    {"insert": {"R": [["x", "y"]]}},  # valid on its own
                    {"delete": {"R": [["nope", "nope"]]}},  # absent tuple
                ],
            )
            assert status == 400
            assert "absent" in payload["error"]
            assert server.state.session.db_version() == before  # untouched
            status, result = client.json(
                "POST", "/query", {"query": "ans(x) :- R(x, y)"}
            )
            assert ["x"] not in [e["tuple"] for e in result["results"]]

    def test_later_batch_may_delete_what_an_earlier_one_inserted(self):
        with serve(small_db()) as (_server, client):
            status, payload = client.json(
                "POST",
                "/update",
                [
                    {"insert": {"R": [{"row": ["x", "y"], "annotation": "t1"}]}},
                    {"delete": {"R": [["x", "y"]]}},
                ],
            )
            assert status == 200
            assert payload["changes"] == 2

    def test_registry_views_follow_updates(self):
        program = parse_program(
            "V1(x, z) :- R(x, y), R(y, z)\nV2(x) :- V1(x, x)"
        )
        db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "a")]})
        with serve(db, program=program) as (server, client):
            registry = server.state.registry
            status, before = client.json("GET", "/views/V2")
            assert status == 200
            assert [e["tuple"] for e in before["results"]] == [["a"], ["b"]]

            status, _ = client.post(
                "/update", {"delete": {"R": [["b", "a"]]}}
            )
            assert status == 200
            status, after = client.json("GET", "/views/V2")
            assert status == 200
            assert after["results"] == []

            # Base expansion composes the layers down to base symbols.
            client.post("/update", {"insert": {"R": [["b", "a"]]}})
            status, base = client.get("/views/V2?base=1")
            assert status == 200
            expected = canonical_json(
                {
                    "version": registry.db_version(),
                    "view": "V2",
                    **encode_results(registry.base_provenance("V2"), False),
                }
            )
            assert base == expected


# ----------------------------------------------------------------------
# Single-flight over HTTP (counting engine stub)
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_identical_queries_run_engine_once(self):
        with serve(small_db()) as (server, client):
            state = server.state
            original = state._session_run
            calls = []
            release = threading.Event()

            def gated(queries):
                calls.append(len(queries))
                release.wait(15)
                return original(queries)

            state._session_run = gated
            outcomes = []

            def fire():
                outcomes.append(client.post("/query", {"query": JOIN}))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                if state.stats()["requests"]["active"] >= 6:
                    break
                time.sleep(0.01)
            release.set()
            for thread in threads:
                thread.join(15)

            assert len(calls) == 1  # six requests, one engine run
            assert {status for status, _ in outcomes} == {200}
            assert len({body for _, body in outcomes}) == 1
            stats = state.cache.stats()
            assert stats["misses"] == 1
            assert stats["dedup_hits"] + stats["hits"] == 5


# ----------------------------------------------------------------------
# Differential: served bytes == in-process evaluation (30 seeded dbs)
# ----------------------------------------------------------------------
class TestDifferential:
    TEXTS = [JOIN, UNION, AGG_COUNT, AGG_SUM]

    @pytest.mark.parametrize("seed", range(30))
    def test_query_and_batch_byte_identical(self, seed):
        """Both serving tiers against the oracle — and each other."""
        db = random_database(
            {"R": 2, "S": 2}, list(range(8)), n_facts=40, seed=seed
        )
        served_bodies = {}
        for mode in ("threaded", "async"):
            with serve(db, server_mode=mode) as (server, client):
                version = server.state.session.db_version()
                expected = {
                    text: expected_query_body(text, db, version)
                    for text in self.TEXTS
                }
                bodies = {}
                for text in self.TEXTS:
                    status, body = client.post("/query", {"query": text})
                    assert status == 200
                    assert body == expected[text], (mode, text)
                    bodies[text] = body
                # /batch embeds the very same per-query payloads.
                status, body = client.post("/batch", {"queries": self.TEXTS})
                assert status == 200
                envelope = {
                    "results": [
                        json.loads(expected[text]) for text in self.TEXTS
                    ]
                }
                assert body == canonical_json(envelope)
                bodies["/batch"] = body
                served_bodies[mode] = bodies
        assert served_bodies["threaded"] == served_bodies["async"]

    def test_batch_mixes_cached_and_fresh(self):
        db = small_db()
        with serve(db) as (server, client):
            client.post("/query", {"query": JOIN})  # prime one entry
            status, body = client.post(
                "/batch", {"queries": [JOIN, UNION, JOIN]}
            )
            assert status == 200
            payload = json.loads(body)
            assert len(payload["results"]) == 3
            assert payload["results"][0] == payload["results"][2]
            stats = server.state.cache.stats()
            assert stats["hits"] >= 1  # the primed entry was reused

    def test_byte_identity_under_concurrent_load(self):
        db = random_database(
            {"R": 2, "S": 2}, list(range(10)), n_facts=120, seed=99
        )
        with serve(db) as (server, client):
            version = server.state.session.db_version()
            expected = {
                text: expected_query_body(text, db, version)
                for text in self.TEXTS
            }
            failures = []

            def worker(offset):
                for index in range(12):
                    text = self.TEXTS[(offset + index) % len(self.TEXTS)]
                    status, body = client.post("/query", {"query": text})
                    if status != 200 or body != expected[text]:
                        failures.append((text, status))

            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not failures
            stats = server.state.cache.stats()
            assert stats["hit_rate"] > 0
            assert stats["misses"] <= len(self.TEXTS)
            # The same load must leave sane latency percentiles behind.
            status, payload = client.json("GET", "/stats")
            assert status == 200 and payload["metrics_enabled"]
            latency = payload["latency"]["/query"]
            assert latency["p50"] > 0
            assert latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_mixed_query_update_load_stays_consistent(self):
        db = small_db()
        with serve(db) as (server, client):
            statuses = []

            def query_worker(offset):
                for index in range(10):
                    text = self.TEXTS[(offset + index) % len(self.TEXTS)]
                    statuses.append(client.post("/query", {"query": text})[0])

            def update_worker(tag):
                for index in range(5):
                    body = {
                        "insert": {
                            "R": [
                                {
                                    "row": ["u{}".format(tag), "v{}".format(index)],
                                    "annotation": "u{}_{}".format(tag, index),
                                }
                            ]
                        }
                    }
                    statuses.append(client.post("/update", body)[0])

            threads = [
                threading.Thread(target=query_worker, args=(offset,))
                for offset in range(6)
            ] + [
                threading.Thread(target=update_worker, args=(tag,))
                for tag in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert set(statuses) == {200}
            # Steady state: the served answer matches a direct
            # evaluation over the final database.
            version = server.state.session.db_version()
            for text in self.TEXTS:
                status, body = client.post("/query", {"query": text})
                assert status == 200
                assert body == expected_query_body(text, db, version)

    def test_sharded_engine_serves_identical_bytes(self):
        db = random_database(
            {"R": 2, "S": 2}, list(range(8)), n_facts=60, seed=7
        )
        with serve(
            db, config=EngineConfig(engine="sharded", shards=2, workers=2)
        ) as (server, client):
            version = server.state.session.db_version()
            for text in self.TEXTS:
                status, body = client.post("/query", {"query": text})
                assert status == 200
                assert body == expected_query_body(text, db, version)


# ----------------------------------------------------------------------
# Leaked sessions must not strand worker pools (satellite fix)
# ----------------------------------------------------------------------
class TestLeakedSessions:
    def test_no_del_methods_involved(self):
        # The cleanup contract is weakref.finalize, never __del__ (which
        # would resurrect objects and stall gc on reference cycles).
        assert not hasattr(ShardedExecutor, "__del__")
        assert not hasattr(QuerySession, "__del__")

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_leaked_session_releases_its_pool(self, mode):
        db = small_db()
        session = QuerySession(
            db, EngineConfig(engine="sharded", shards=2, workers=2, mode=mode)
        )
        session.evaluate(parse_query("ans(x, z) :- R(x, y), R(y, z)"))
        executor = session.executor
        finalizer = executor._finalizer
        assert finalizer is not None and finalizer.alive
        # Leak the session: no close(), no context manager.
        del session, executor
        gc.collect()
        assert not finalizer.alive  # the pool was shut down on collection

    def test_explicit_close_disarms_the_finalizer(self):
        db = small_db()
        with QuerySession(
            db,
            EngineConfig(engine="sharded", shards=2, workers=2, mode="thread"),
        ) as session:
            session.evaluate(parse_query("ans(x) :- R(x, y)"))
            finalizer = session.executor._finalizer
            assert finalizer.alive
        assert not finalizer.alive


# ----------------------------------------------------------------------
# Observability: /metrics, traced queries, request logging
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_exposition_parses_and_counters_are_monotone(self):
        db = small_db()
        with serve(db) as (server, client):
            def query_counter():
                status, raw = client.get("/metrics")
                assert status == 200
                samples = {}
                for line in raw.decode("utf-8").splitlines():
                    if not line or line.startswith("#"):
                        continue
                    name, _space, value = line.rpartition(" ")
                    assert name, line
                    samples[name] = float(value)  # every sample parses
                return samples.get(
                    'repro_http_requests_total{endpoint="/query",'
                    'method="POST",status="200"}',
                    0.0,
                )

            assert query_counter() == 0
            client.post("/query", {"query": JOIN})
            first = query_counter()
            assert first == 1
            client.post("/query", {"query": JOIN})  # cache hit still counts
            assert query_counter() == first + 1

    def test_exposition_content_type(self):
        from repro.obs.metrics import EXPOSITION_CONTENT_TYPE

        db = small_db()
        with serve(db) as (server, client):
            conn = HTTPConnection(client.host, client.port, timeout=30)
            try:
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert (
                    response.getheader("Content-Type")
                    == EXPOSITION_CONTENT_TYPE
                )
            finally:
                conn.close()

    def test_latency_histogram_appears_after_requests(self):
        db = small_db()
        with serve(db) as (server, client):
            client.post("/query", {"query": JOIN})
            _status, raw = client.get("/metrics")
            text = raw.decode("utf-8")
            assert "# TYPE repro_http_request_seconds histogram" in text
            assert 'repro_http_request_seconds_bucket{endpoint="/query",le="+Inf"} 1' in text
            assert 'repro_http_request_seconds_count{endpoint="/query"} 1' in text

    def test_unknown_paths_collapse_to_a_bounded_label(self):
        db = small_db()
        with serve(db) as (server, client):
            for path in ("/nope", "/admin", "/views/whatever"):
                client.get(path)
            counter = server.state.metrics.get("repro_http_requests_total")
            endpoints = {key[0] for key in counter.series()}
            assert "other" in endpoints
            assert "/views" in endpoints
            assert "/nope" not in endpoints and "/admin" not in endpoints

    def test_metrics_disabled_answers_404(self):
        db = small_db()
        with serve(db, metrics=False) as (server, client):
            status, payload = client.json("GET", "/metrics")
            assert status == 404
            assert "disabled" in payload["error"]
            # Serving still works and /stats says metrics are off.
            assert client.post("/query", {"query": JOIN})[0] == 200
            _status, stats = client.json("GET", "/stats")
            assert stats["metrics_enabled"] is False
            assert "latency" not in stats

    def test_stats_reports_single_flight_waiters(self):
        db = small_db()
        with serve(db) as (server, client):
            _status, stats = client.json("GET", "/stats")
            assert stats["cache"]["single_flight_waiters"] == 0


class TestTracedQueries:
    def test_query_trace_flag_wraps_result_with_span_tree(self):
        from repro.obs.trace import tree_stage_names

        db = small_db()
        with serve(db) as (server, client):
            version = server.state.session.db_version()
            status, envelope = client.json(
                "POST", "/query?trace=1", {"query": JOIN}
            )
            assert status == 200
            assert sorted(envelope) == ["result", "trace"]
            expected = json.loads(expected_query_body(JOIN, db, version))
            assert envelope["result"] == expected
            names = tree_stage_names(envelope["trace"])
            for want in ("parse", "plan", "join", "merge"):
                assert want in names, (want, names)

    def test_untraced_query_bytes_are_unchanged_by_a_traced_one(self):
        db = small_db()
        with serve(db) as (server, client):
            version = server.state.session.db_version()
            client.json("POST", "/query?trace=1", {"query": UNION})
            _status, body = client.post("/query", {"query": UNION})
            assert body == expected_query_body(UNION, db, version)

    def test_get_trace_endpoint(self):
        from urllib.parse import quote

        from repro.obs.trace import tree_stage_names

        db = small_db()
        with serve(db) as (server, client):
            status, envelope = client.json(
                "GET", "/trace?query=" + quote(JOIN)
            )
            assert status == 200
            names = tree_stage_names(envelope["trace"])
            assert "parse" in names
            # A repeat of the same query is a cache hit: the trace says so.
            _status, envelope = client.json(
                "GET", "/trace?query=" + quote(JOIN)
            )
            lookups = [
                node
                for node in envelope["trace"].get("children", [])
                if node["name"] == "cache.lookup"
            ]
            assert lookups and lookups[-1]["attrs"]["outcome"] == "hit"

    def test_get_trace_requires_a_query(self):
        db = small_db()
        with serve(db) as (server, client):
            status, payload = client.json("GET", "/trace")
            assert status == 400
            assert "query" in payload["error"]

    def test_sharded_trace_shows_shard_stages(self):
        from repro.obs.trace import tree_stage_names

        db = random_database(
            {"R": 2, "S": 2}, list(range(12)), n_facts=120, seed=5
        )
        with serve(
            db, config=EngineConfig(engine="sharded", shards=2, workers=2)
        ) as (server, client):
            status, envelope = client.json(
                "POST", "/query?trace=1", {"query": JOIN}
            )
            assert status == 200
            names = tree_stage_names(envelope["trace"])
            for want in ("shard.refresh", "join", "shard.merge"):
                assert want in names, (want, names)

    def test_traced_requests_feed_stage_histogram(self):
        db = small_db()
        with serve(db) as (server, client):
            client.json("POST", "/query?trace=1", {"query": JOIN})
            _status, raw = client.get("/metrics")
            assert "repro_stage_seconds" in raw.decode("utf-8")


class TestRequestLogging:
    def test_each_request_logs_one_structured_line(self, caplog):
        import logging

        db = small_db()
        with serve(db) as (server, client):
            with caplog.at_level(logging.INFO, logger="repro.server"):
                client.post("/query", {"query": JOIN})
                client.get("/stats")
            lines = [
                record.getMessage()
                for record in caplog.records
                if record.name == "repro.server"
            ]
            query_lines = [l for l in lines if l.startswith("POST /query")]
            assert query_lines, lines
            assert "-> 200" in query_lines[0]
            assert "ms" in query_lines[0]
            assert "cache=miss" in query_lines[0]
            assert any(l.startswith("GET /stats -> 200") for l in lines)

    def test_cache_hit_is_logged_as_such(self, caplog):
        import logging

        db = small_db()
        with serve(db) as (server, client):
            client.post("/query", {"query": JOIN})
            with caplog.at_level(logging.INFO, logger="repro.server"):
                client.post("/query", {"query": JOIN})
            line = next(
                record.getMessage()
                for record in caplog.records
                if record.getMessage().startswith("POST /query")
            )
            assert "cache=hit" in line


# ----------------------------------------------------------------------
# The versioned /v1 mount and the structured error envelope
# ----------------------------------------------------------------------
class TestVersionedRoutes:
    """/v1/<path> serves byte-identical success bodies to <path>; the
    legacy mount additionally signals its deprecation via headers."""

    def request_with_headers(self, client, method, path, body=None):
        conn = HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request(
                method, path, body=None if body is None else json.dumps(body)
            )
            response = conn.getresponse()
            return response.status, response.read(), dict(response.getheaders())
        finally:
            conn.close()

    @pytest.mark.parametrize("seed", range(30))
    def test_query_byte_identical_across_mounts(self, seed):
        db = random_database(
            {"R": 2, "S": 2}, list(range(8)), n_facts=40, seed=seed
        )
        with serve(db) as (_server, client):
            text = JOIN if seed % 2 == 0 else AGG_SUM
            status_legacy, legacy = client.post("/query", {"query": text})
            status_v1, v1 = client.post("/v1/query", {"query": text})
            assert status_legacy == status_v1 == 200
            assert legacy == v1

    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_every_endpoint_is_mounted_under_v1(self, mode):
        with serve(small_db(), server_mode=mode) as (_server, client):
            for method, path, body in (
                ("POST", "/query", {"query": JOIN}),
                ("POST", "/batch", {"queries": [JOIN]}),
                ("POST", "/update", {"insert": {"R": [["q", "r"]]}}),
                ("GET", "/stats", None),
                ("GET", "/metrics", None),
            ):
                status_legacy, legacy = client.request(method, path, body)
                status_v1, v1 = client.request(method, "/v1" + path, body)
                assert status_legacy == status_v1 == 200, (mode, path)
                if path not in ("/update", "/stats", "/metrics"):
                    # (update bumps the version between the two calls;
                    # stats/metrics report changing counters)
                    assert legacy == v1, (mode, path)

    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_legacy_mount_carries_deprecation_headers(self, mode):
        with serve(small_db(), server_mode=mode) as (_server, client):
            _status, _body, headers = self.request_with_headers(
                client, "POST", "/query", {"query": JOIN}
            )
            assert headers.get("Deprecation") == "true"
            assert headers.get("Link") == '</v1/query>; rel="successor-version"'
            _status, _body, headers = self.request_with_headers(
                client, "POST", "/v1/query", {"query": JOIN}
            )
            assert "Deprecation" not in headers
            assert "Link" not in headers

    def test_bare_v1_is_the_root(self):
        with serve(small_db()) as (_server, client):
            status, payload = client.json("GET", "/v1/nope")
            assert status == 404
            assert payload["error"]["message"] == "unknown path /nope"


class TestErrorEnvelope:
    """Every v1 4xx/5xx answers ``{"error": {code, message, detail}}``
    on BOTH tiers; the legacy mount keeps ``{"error": "<message>"}``."""

    @pytest.fixture(scope="class", params=["threaded", "async"])
    def served(self, request):
        with serve(small_db(), server_mode=request.param) as pair:
            yield pair

    def assert_envelope(self, payload, code):
        envelope = payload["error"]
        assert set(envelope) == {"code", "message", "detail"}
        assert envelope["code"] == code
        assert isinstance(envelope["message"], str) and envelope["message"]

    def test_unknown_path(self, served):
        _server, client = served
        status, payload = client.json("GET", "/v1/missing")
        assert status == 404
        self.assert_envelope(payload, "not_found")
        status, payload = client.json("GET", "/missing")
        assert status == 404
        assert payload == {"error": "unknown path /missing"}

    def test_bad_request(self, served):
        _server, client = served
        status, payload = client.json("POST", "/v1/query", {"query": 7})
        assert status == 400
        self.assert_envelope(payload, "bad_request")
        status, payload = client.json("POST", "/query", {"query": 7})
        assert status == 400
        assert isinstance(payload["error"], str)

    def test_method_not_allowed(self, served):
        _server, client = served
        status, payload = client.json("GET", "/v1/query")
        assert status == 405
        self.assert_envelope(payload, "method_not_allowed")

    def test_unknown_view_read(self, served):
        _server, client = served
        status, payload = client.json("GET", "/v1/views/ghost")
        assert status == 404
        self.assert_envelope(payload, "not_found")

    def test_delete_on_non_changefeed(self, served):
        _server, client = served
        status, payload = client.json("DELETE", "/v1/query")
        assert status == 405
        self.assert_envelope(payload, "method_not_allowed")
