"""Serve provenance over HTTP and query it like a client would.

The serving tier (:mod:`repro.server`) fronts a long-lived
:class:`~repro.session.QuerySession` with a stdlib threading HTTP
server and a **version-keyed result cache**: responses are keyed by
``(canonical query text, db version, engine options)``, so an update
invalidates every stale entry by simply bumping the version — no
scanning — while N concurrent identical requests run the engine once
(single-flight deduplication).

This example boots a server in-process, then acts as the client:

* ``POST /query`` twice — the second response is a cache hit, byte
  identical to the first;
* ``POST /update`` — a delta batch in the ``maintain`` file format;
* ``POST /query`` again — the answer reflects the update, served at
  the new version;
* ``GET /stats`` — the cache hit rate and in-flight counters.

Run it:  python examples/serve_and_query.py
"""

import json
import threading
from http.client import HTTPConnection

from repro.db.generators import random_database
from repro.engine.evaluate import evaluate
from repro.query.parser import parse_query
from repro.server.app import canonical_json, encode_results, make_server

QUERY = "reach(x, z) :- Edge(x, y), Edge(y, z)"


def request(host, port, method, path, body=None):
    conn = HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def main():
    db = random_database({"Edge": 2}, list(range(25)), n_facts=400, seed=11)
    server = make_server(db, config="hashjoin")
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        status, first = request(host, port, "POST", "/query", {"query": QUERY})
        status, again = request(host, port, "POST", "/query", {"query": QUERY})
        print("Repeated query served from cache, byte-identical:", first == again)

        # The server's response is exactly the shared codec over an
        # in-process evaluation — the differential suite's invariant.
        expected = canonical_json(
            {
                "version": server.state.session.db_version(),
                **encode_results(evaluate(parse_query(QUERY), db), False),
            }
        )
        print("Server round-trip agrees with in-process evaluation:", first == expected)

        status, _ = request(
            host,
            port,
            "POST",
            "/update",
            {"insert": {"Edge": [[0, 1], [1, 0]]}},
        )
        status, fresh = request(host, port, "POST", "/query", {"query": QUERY})
        print(
            "After /update the version moved and the answer changed:",
            fresh != first,
        )

        status, stats = request(host, port, "GET", "/stats")
        cache = json.loads(stats)["cache"]
        print(
            "Cache: {} hits, {} misses, hit rate {:.0%} at db version {}".format(
                cache["hits"],
                cache["misses"],
                cache["hit_rate"],
                json.loads(stats)["db_version"],
            )
        )
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


if __name__ == "__main__":
    main()
