"""Warm-cache serving vs cold evaluation on a 10k-tuple join.

The claim under test: the serving tier's hit path — canonical query
text to cached response bytes, via the version-keyed
:class:`~repro.server.cache.ResultCache` — beats cold engine evaluation
by at least 10x on a two-way join over 10,000 annotated tuples.  The
hit path re-parses the query text (request canonicalization is part of
serving) but skips planning, joining and encoding entirely; the cold
path is a fresh hash-join evaluation plus response encoding, which is
exactly what every miss (and every post-update first read) pays.

Timed for the JSON artifact (and the regression gate): the hit path,
the cold evaluation, and the full HTTP round-trip on a warm cache.
"""

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from conftest import banner

from repro.db.generators import random_database
from repro.server.app import ServerState, make_server

QUERY_TEXT = "ans(x, z) :- R(x, y), S(y, z)"
RELATIONS = {"R": 2, "S": 2}
DOMAIN = list(range(150))


def workload_db():
    """10k tuples split across the two join sides (bench_sharded's)."""
    db = random_database(RELATIONS, DOMAIN, n_facts=10_000, seed=31)
    assert db.fact_count() >= 10_000
    return db


@pytest.fixture(scope="module")
def state():
    with ServerState(workload_db(), config="hashjoin") as server_state:
        server_state.run_query(QUERY_TEXT)  # warm: plan, cache entry
        yield server_state


def _best(operation, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - start)
    return best


def test_warm_cache_hit_beats_cold_evaluation_10x(state):
    """The acceptance criterion: cache hit >= 10x cold evaluation."""
    warm_body = state.run_query(QUERY_TEXT)

    def cold():
        state.cache.clear()
        return state.run_query(QUERY_TEXT)

    assert cold() == warm_body  # identical bytes either way
    cold_time = _best(cold, rounds=3)
    warm_time = _best(lambda: state.run_query(QUERY_TEXT))
    speedup = cold_time / warm_time
    banner(
        "10k-tuple join over HTTP state: warm hit {:.3f} ms vs cold "
        "{:.0f} ms -> {:.0f}x".format(warm_time * 1e3, cold_time * 1e3, speedup)
    )
    assert speedup >= 10.0, speedup


def test_server_cache_hit(benchmark, state):
    state.run_query(QUERY_TEXT)  # ensure the entry is present
    assert benchmark(state.run_query, QUERY_TEXT)


def test_server_cold_evaluation(benchmark, state):
    def cold():
        state.cache.clear()
        return state.run_query(QUERY_TEXT)

    assert benchmark(cold)


def _http_round_trip_warm(benchmark, server_mode):
    """The full stack on a warm cache: socket, HTTP parse, cached bytes."""
    server = make_server(
        workload_db(), config="hashjoin", server_mode=server_mode
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    payload = json.dumps({"query": QUERY_TEXT})
    try:
        conn = HTTPConnection(host, port, timeout=60)

        def round_trip():
            conn.request("POST", "/query", body=payload)
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            return body

        round_trip()  # warm the cache (and the keep-alive connection)
        assert benchmark(round_trip)
        conn.close()
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def test_server_http_round_trip_warm(benchmark):
    """The threaded tier's warm round-trip (one thread per connection)."""
    _http_round_trip_warm(benchmark, "threaded")


def test_server_http_round_trip_warm_async(benchmark):
    """The asyncio tier's warm round-trip: same request, event loop +
    loop-confined cache instead of a handler thread.  Medians must stay
    within the same order as the threaded tier — the event loop is a
    concurrency win, not a per-request tax."""
    _http_round_trip_warm(benchmark, "async")
