"""A cached result is its body bytes; every other body is spliced from them.

The server keeps no JSON-ready payload beside a computed result — only
the encoded body.  That is safe because canonical JSON (sorted keys,
fixed separators) is compositional: a document's encoding is its parts'
encodings joined by fixed punctuation.  This module holds each splice
to the construction it replaced, byte for byte:

* **row-wise tables** — ``encode_table`` ≡ ``canonical_json`` of the
  ``{"version", "kind", "results"[, "view"]}`` dict, plain and
  aggregate, empty tables included;
* **``/batch``** — ≡ ``canonical_json({"results": [payload, ...]})``
  over seeded databases, with duplicate texts, mixed kinds, warm and
  cold entries, and the empty batch;
* **``?trace=1``** — the spliced body is the canonical encoding of the
  document it parses to, and its ``result`` is the plain body's;
* **dead versions** — once the version moves, nothing keyed on an
  older one survives in the cache: counted as ``invalidated``, never as
  ``evictions``; a single-flight leader still in the air at the old
  version answers its waiters and stores nothing.
"""

import json
import random
import threading
import time

import pytest

from repro.aggregate.evaluate import evaluate_aggregate
from repro.db.generators import random_database
from repro.engine.evaluate import evaluate
from repro.io import encode_table
from repro.query.aggregate import AggregateQuery
from repro.query.parser import parse_program, parse_query
from repro.server.app import ServerState, canonical_json, encode_results
from repro.server.cache import ResultCache

from test_server_core import drive

SEEDS = range(30)

JOIN = "ans(x, z) :- R(x, y), S(y, z)"
SELECT = "ans(y) :- R({}, y)"
COUNT = "agg(x, count(*)) :- R(x, y)"
SUM = "agg(sum(z)) :- R(x, y), S(y, z)"
#: 99 is outside every seeded domain: the empty table, of either kind.
EMPTY = "ans(x) :- R(x, 99)"
EMPTY_AGGREGATE = "agg(x, count(*)) :- R(x, 99)"


def seeded_db(seed):
    return random_database({"R": 2, "S": 2}, range(6), 14, seed)


def payload_of(text, db, version):
    """The JSON-ready response document, built the way it always was."""
    query = parse_query(text)
    aggregate = isinstance(query, AggregateQuery)
    results = (evaluate_aggregate if aggregate else evaluate)(query, db)
    return {"version": version, **encode_results(results, aggregate)}


def batch_of(seed):
    """A seeded batch: plain and aggregate, one empty table, and
    duplicate texts (adjacent and apart)."""
    rng = random.Random(seed)
    texts = [JOIN, SELECT.format(rng.randrange(6)), COUNT, SUM, EMPTY, EMPTY_AGGREGATE]
    texts += [rng.choice(texts), texts[0]]
    rng.shuffle(texts)
    return texts + [texts[-1]]


# ----------------------------------------------------------------------
# Row-wise tables
# ----------------------------------------------------------------------
class TestRowWiseEncoding:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_the_dict_encoding(self, seed):
        db = seeded_db(seed)
        for text in (JOIN, SELECT.format(seed % 6), COUNT, SUM, EMPTY, EMPTY_AGGREGATE):
            query = parse_query(text)
            aggregate = isinstance(query, AggregateQuery)
            results = (evaluate_aggregate if aggregate else evaluate)(query, db)
            fragment = encode_results(results, aggregate)
            assert encode_table(results, aggregate, version=seed) == canonical_json(
                {"version": seed, **fragment}
            )
            assert encode_table(
                results, aggregate, version=seed, view="V"
            ) == canonical_json({"version": seed, "view": "V", **fragment})

    def test_empty_tables_of_both_kinds(self):
        assert encode_table({}, False, version=0) == (
            b'{"kind":"polynomial","results":[],"version":0}\n'
        )
        assert encode_table({}, True, version=3, view="C") == (
            b'{"kind":"aggregate","results":[],"version":3,"view":"C"}\n'
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_served_query_and_view_bodies(self, seed):
        db = seeded_db(seed)
        program = parse_program("V(x, z) :- R(x, y), S(y, z)\nC(x, count(*)) :- R(x, y)")
        with ServerState(seeded_db(seed), program=program) as state:
            version = state.session.db_version()
            for text in (JOIN, COUNT, EMPTY):
                assert state.run_query(text) == canonical_json(payload_of(text, db, version))
            for name, text in (("V", JOIN), ("C", COUNT)):
                expected = payload_of(text, db, state.registry.db_version())
                expected["view"] = name
                assert state.read_view(name) == canonical_json(expected)


# ----------------------------------------------------------------------
# /batch
# ----------------------------------------------------------------------
class TestBatchSplice:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_encoding_the_list_of_payloads(self, seed):
        db = seeded_db(seed)
        texts = batch_of(seed)
        with ServerState(seeded_db(seed)) as state:
            version = state.session.db_version()
            expected = canonical_json(
                {"results": [payload_of(text, db, version) for text in texts]}
            )
            state.run_query(texts[0])  # one entry warm, the rest cold
            assert state.run_queries(texts) == expected
            assert state.run_queries(texts) == expected  # every entry warm
            response = drive(
                state, "POST", "/v1/batch", json.dumps({"queries": texts}).encode()
            )
            assert (response.status, response.body) == (200, expected)

    def test_the_empty_batch(self):
        with ServerState(seeded_db(0)) as state:
            assert state.run_queries([]) == canonical_json({"results": []})
            assert state.run_queries([]) == b'{"results":[]}\n'


# ----------------------------------------------------------------------
# ?trace=1
# ----------------------------------------------------------------------
class TestTraceSplice:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_is_canonical_and_wraps_the_plain_body(self, seed):
        with ServerState(seeded_db(seed)) as state:
            for text in (JOIN, COUNT, EMPTY):
                request = json.dumps({"query": text}).encode()
                traced = [  # a miss, then a hit
                    drive(state, "POST", "/v1/query?trace=1", request) for _ in range(2)
                ]
                plain = state.run_query(text)
                for response in traced:
                    assert response.status == 200
                    document = json.loads(response.body)
                    assert sorted(document) == ["result", "trace"]
                    assert canonical_json(document) == response.body
                    assert canonical_json(document["result"]) == plain
                # The next text is traced at a later version.
                state.apply_update({"insert": {"R": [[len(text), seed]]}})

    def test_get_trace_route_splices_the_same_way(self):
        with ServerState(seeded_db(1)) as state:
            response = drive(state, "GET", "/v1/trace?query=" + JOIN.replace(" ", "%20"))
            document = json.loads(response.body)
            assert canonical_json(document) == response.body
            assert canonical_json(document["result"]) == state.run_query(JOIN)


# ----------------------------------------------------------------------
# Dead versions
# ----------------------------------------------------------------------
class TestDeadVersions:
    def test_an_update_leaves_no_older_entry_behind(self):
        with ServerState(seeded_db(2)) as state:
            texts = [JOIN, COUNT, SUM]
            state.run_queries(texts)
            state.run_query(EMPTY)
            assert state.cache.stats()["size"] == 4
            state.apply_update({"insert": {"R": [{"row": [7, 7], "annotation": "t1"}]}})
            stats = state.cache.stats()
            assert (stats["size"], stats["invalidated"], stats["evictions"]) == (0, 4, 0)
            # ... and the next version's entries are kept as ever.
            fresh = state.run_query(JOIN)
            assert state.run_query(JOIN) == fresh
            stats = state.cache.stats()
            assert (stats["size"], stats["invalidated"], stats["evictions"]) == (1, 4, 0)

    def test_a_version_moved_behind_the_servers_back_is_noticed_on_lookup(self):
        """Bare-session mode lets the database move without ``/update``;
        the next lookup names the new version and the old entries go."""
        db = seeded_db(3)
        with ServerState(db) as state:
            state.run_queries([JOIN, COUNT])
            db.add("R", (8, 8), annotation="t2")
            body = state.run_query(JOIN)
            assert body == canonical_json(payload_of(JOIN, db, state.session.db_version()))
            stats = state.cache.stats()
            assert (stats["size"], stats["invalidated"], stats["evictions"]) == (1, 2, 0)

    def test_capacity_evictions_are_still_counted_apart(self):
        cache = ResultCache(capacity=2)
        for key in "abc":
            cache.put(key, key.encode(), version=1)
        cache.advance(2)
        stats = cache.stats()
        assert (stats["size"], stats["evictions"], stats["invalidated"]) == (0, 1, 2)
        cache.advance(1)  # versions only move forward
        cache.put("late", b"late", version=1)
        assert cache.get("late", version=1) is None
        assert cache.stats()["size"] == 0

    def test_a_leader_at_a_dead_version_answers_waiters_and_stores_nothing(self):
        cache = ResultCache()
        outcome, flight = cache.lookup(("q", 1), version=1)
        assert outcome == "miss"
        assert cache.lookup(("q", 1), version=1) == ("wait", flight)
        answers = []
        waiter = threading.Thread(target=lambda: answers.append(flight.future.result(10)))
        waiter.start()
        cache.advance(2)
        # A request still holding version 1 joins the old flight; one at
        # version 2 opens its own.
        assert cache.lookup(("q", 1), version=1) == ("wait", flight)
        outcome, successor = cache.lookup(("q", 2), version=2)
        assert outcome == "miss" and successor is not flight
        assert cache.lead(flight, lambda: (b"old", True)) == b"old"
        waiter.join(10)
        assert not waiter.is_alive() and answers == [b"old"]
        assert flight.future.result(0) == b"old"
        stats = cache.stats()
        assert (stats["size"], stats["inflight"], stats["dedup_hits"]) == (0, 1, 2)
        assert cache.lead(successor, lambda: (b"new", True)) == b"new"
        assert cache.get(("q", 2), version=2) == b"new"
        assert cache.get(("q", 1), version=1) is None
        assert cache.stats()["evictions"] == 0

    def test_a_served_leader_overtaken_by_an_update(self):
        """End to end: the engine run of a miss is held while an update
        lands; the held request and its deduplicated waiter both get an
        answer, and the cache holds nothing for either version."""
        with ServerState(seeded_db(4)) as state:
            entered, release = threading.Event(), threading.Event()
            compute = state.compute_query_entry

            def held(query, version):
                result = compute(query, version)  # ran at the old version
                entered.set()
                release.wait(10)
                return result

            state.compute_query_entry = held
            old = state.session.db_version()
            answers = []
            threads = [
                threading.Thread(target=lambda: answers.append(state.run_query(JOIN)))
                for _ in range(2)
            ]
            threads[0].start()
            assert entered.wait(10)
            threads[1].start()
            deadline = time.monotonic() + 10
            while state.cache.stats()["single_flight_waiters"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            del state.compute_query_entry
            state.apply_update({"insert": {"R": [{"row": [7, 7], "annotation": "t3"}]}})
            release.set()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
            expected = canonical_json(payload_of(JOIN, seeded_db(4), old))
            assert answers == [expected, expected]
            stats = state.cache.stats()
            assert (stats["size"], stats["inflight"], stats["evictions"]) == (0, 0, 0)
