"""The asyncio transport's own contract, beyond byte-identity.

``tests/test_server.py`` already runs the protocol suite and the
30-seed differential against both transports (and the result cache
with coroutine waiters); this module pins what only the async
transport promises:

* **single-flight on the loop** — N concurrent identical misses await
  one flight while a single leader computes off-loop;
* **backpressure** — past ``max_pending`` admitted engine-bound
  requests, new ones are shed with an immediate 503 + ``Retry-After``
  on a still-alive connection (``/stats``/``/metrics`` stay exempt);
* **deadlines** — stalled clients get a 408 (body) or a quiet close
  (idle keep-alive) instead of pinning anything;
* **chunked streaming** — large response bodies leave in
  ``Transfer-Encoding: chunked`` frames, byte-identical after
  reassembly;
* **graceful drain** — shutdown lets in-flight requests finish in both
  serving modes.
"""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.db.generators import random_database
from repro.errors import EvaluationError
from repro.server.aio import AsyncProvenanceServer
from repro.server.app import ProvenanceServer, make_server

from test_server import (
    JOIN,
    UNION,
    Client,
    expected_query_body,
    serve,
    small_db,
)

#: Same leak discipline as the threaded suite: an unclosed loop,
#: socket, executor or transport must fail the test, not just warn.
pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


# ----------------------------------------------------------------------
# The facade: make_server dispatch and the blocking lifecycle
# ----------------------------------------------------------------------
class TestFacade:
    def test_make_server_dispatches_on_mode(self):
        with make_server(small_db(), server_mode="async") as server:
            assert isinstance(server, AsyncProvenanceServer)
            assert server.state.config.server_mode == "async"
            assert server.server_address[1] > 0
        with make_server(small_db(), server_mode="threaded") as server:
            assert isinstance(server, ProvenanceServer)
            assert server.state.config.server_mode == "threaded"

    def test_default_mode_is_the_config_default(self):
        with make_server(small_db()) as server:
            assert isinstance(server, ProvenanceServer)

    def test_invalid_mode_is_rejected(self):
        with pytest.raises(EvaluationError, match="server_mode"):
            make_server(small_db(), server_mode="fibers")

    def test_shutdown_before_serve_returns_immediately(self):
        server = make_server(small_db(), server_mode="async")
        server.shutdown()  # must not hang waiting for a loop
        server.close()

    def test_close_is_idempotent(self):
        server = make_server(small_db(), server_mode="async")
        server.close()
        server.close()

    def test_repr_names_the_address(self):
        with make_server(small_db(), server_mode="async") as server:
            assert "AsyncProvenanceServer" in repr(server)


# ----------------------------------------------------------------------
# Single-flight over HTTP, on the loop
# ----------------------------------------------------------------------
class TestAsyncSingleFlight:
    def test_concurrent_identical_queries_run_engine_once(self):
        with serve(small_db(), server_mode="async") as (server, client):
            state = server.state
            original = state.compute_query_entry
            calls = []
            release = threading.Event()

            def gated(query, version):
                calls.append(1)
                release.wait(15)
                return original(query, version)

            state.compute_query_entry = gated
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
# Backpressure: the bounded engine-work gate
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_gate_sheds_with_503_and_retry_after(self):
        with serve(
            small_db(), server_mode="async", max_pending=1
        ) as (server, client):
            state = server.state
            original = state.compute_query_entry
            started = threading.Event()
            release = threading.Event()

            def gated(query, version):
                started.set()
                release.wait(15)
                return original(query, version)

            state.compute_query_entry = gated
            slow_results = []

            def slow_request():
                slow_results.append(client.post("/query", {"query": JOIN}))

            worker = threading.Thread(target=slow_request)
            worker.start()
            try:
                assert started.wait(10)  # the gate is now full
                conn = HTTPConnection(client.host, client.port, timeout=30)
                try:
                    # A *different* query needs new engine work: shed.
                    conn.request(
                        "POST", "/query", body=json.dumps({"query": UNION})
                    )
                    response = conn.getresponse()
                    body = response.read()
                    assert response.status == 503
                    assert response.getheader("Retry-After") == "1"
                    assert b"capacity" in body
                    # Shedding kept the connection alive, and the
                    # exempt endpoints still answer on it.
                    conn.request("GET", "/stats")
                    response = conn.getresponse()
                    assert response.status == 200
                    stats = json.loads(response.read())
                    assert stats["requests"]["active"] >= 1
                finally:
                    conn.close()
            finally:
                release.set()
            worker.join(15)
            assert [status for status, _ in slow_results] == [200]
            # The rejection was counted for operators.
            _status, raw = client.get("/metrics")
            lines = [
                line
                for line in raw.decode("utf-8").splitlines()
                if line.startswith("repro_server_backpressure_total")
            ]
            assert lines and float(lines[0].rpartition(" ")[2]) == 1.0

    def test_metrics_exposes_the_gauges(self):
        with serve(small_db(), server_mode="async") as (server, client):
            client.post("/query", {"query": JOIN})
            _status, raw = client.get("/metrics")
            text = raw.decode("utf-8")
            assert "repro_server_pending_requests" in text
            assert "repro_server_open_connections" in text


# ----------------------------------------------------------------------
# Deadlines and streaming
# ----------------------------------------------------------------------
class TestDeadlinesAndStreaming:
    def test_idle_keep_alive_connection_is_closed_quietly(self):
        with serve(
            small_db(), server_mode="async", idle_timeout=0.3
        ) as (server, client):
            with socket.create_connection(
                (client.host, client.port), timeout=10
            ) as sock:
                sock.settimeout(10)
                # No request: the idle deadline closes it, no response.
                assert sock.recv(1024) == b""

    def test_partial_request_line_then_hang_is_closed_quietly(self):
        with serve(
            small_db(), server_mode="async", idle_timeout=0.3
        ) as (server, client):
            with socket.create_connection(
                (client.host, client.port), timeout=10
            ) as sock:
                sock.sendall(b"POST /que")  # never finishes the line
                sock.settimeout(10)
                assert sock.recv(1024) == b""

    def test_large_bodies_stream_chunked_and_reassemble_identically(self):
        db = random_database(
            {"R": 2, "S": 2}, list(range(8)), n_facts=40, seed=3
        )
        with serve(
            db, server_mode="async", stream_threshold=256
        ) as (server, client):
            version = server.state.session.db_version()
            expected = expected_query_body(JOIN, db, version)
            assert len(expected) >= 256  # the body crosses the threshold
            conn = HTTPConnection(client.host, client.port, timeout=30)
            try:
                conn.request(
                    "POST", "/query", body=json.dumps({"query": JOIN})
                )
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200
                assert response.getheader("Transfer-Encoding") == "chunked"
                assert response.getheader("Content-Length") is None
                assert body == expected  # identical after reassembly
                # Keep-alive survives a chunked response.
                conn.request("GET", "/stats")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            finally:
                conn.close()

    def test_small_bodies_stay_content_length_framed(self):
        with serve(small_db(), server_mode="async") as (server, client):
            conn = HTTPConnection(client.host, client.port, timeout=30)
            try:
                conn.request(
                    "POST", "/query", body=json.dumps({"query": JOIN})
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.getheader("Transfer-Encoding") is None
                assert response.getheader("Content-Length") is not None
            finally:
                conn.close()


# ----------------------------------------------------------------------
# Graceful shutdown drains in-flight requests (both modes)
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    @pytest.mark.parametrize("mode", ["async", "threaded"])
    def test_shutdown_lets_in_flight_requests_finish(self, mode):
        server = make_server(small_db(), server_mode=mode)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        release = threading.Event()
        try:
            state = server.state
            original = state.compute_query_entry
            started = threading.Event()

            def gated(query, version):
                started.set()
                release.wait(15)
                return original(query, version)

            state.compute_query_entry = gated
            client = Client(server)
            results = []

            def fire():
                results.append(client.post("/query", {"query": JOIN}))

            worker = threading.Thread(target=fire)
            worker.start()
            assert started.wait(10)  # the request is now in flight
            stopper = threading.Thread(target=server.shutdown)
            stopper.start()
            time.sleep(0.2)  # shutdown is draining, not killing
            release.set()
            worker.join(15)
            stopper.join(15)
            assert not stopper.is_alive()
            # The in-flight request completed across the shutdown.
            assert [status for status, _ in results] == [200]
        finally:
            release.set()
            server.shutdown()
            server.close()
            thread.join(timeout=10)
