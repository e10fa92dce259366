"""Shard-parallel vs serial evaluation on a 10k-tuple join.

The claims under test: (1) on a two-way join over 10,000 annotated
tuples, a warm 4-shard :class:`~repro.session.QuerySession` (process
pool, columnar results in a shared-memory payload) beats the same
session pinned to a single shard by at least 1.5x — and the serial
hash-join engine by at least 2x — in wall-clock, while producing
*identical* provenance polynomials, as the cross-shard differential
suite demands; (2) the session amortizes partitioning, payload
shipping and planning, so steady-state evaluations measure join work,
not setup.

Both sharded contenders run through the same execution path (anchored
fragments, shard-local intern tables, columnar merge), so the
four-vs-one ratio isolates parallelism; the hash-join engine is the
end-to-end serial baseline the 2x tentpole target is measured against.
"""

import json
import os
import time

import pytest

from conftest import banner

from repro.config import EngineConfig
from repro.db.generators import random_database
from repro.engine.hashjoin import evaluate_hashjoin
from repro.obs.trace import tracing, tree_stage_names
from repro.query.parser import parse_query
from repro.session import QuerySession

QUERY = parse_query("ans(x, z) :- R(x, y), S(y, z)")
RELATIONS = {"R": 2, "S": 2}
DOMAIN = list(range(150))


def workload_db():
    """10k tuples split across the two join sides."""
    db = random_database(RELATIONS, DOMAIN, n_facts=10_000, seed=31)
    assert db.fact_count() >= 10_000
    return db


@pytest.fixture(scope="module")
def db():
    return workload_db()


def _session(db, shards, workers):
    session = QuerySession(
        db,
        EngineConfig(
            engine="sharded", shards=shards, workers=workers,
            broadcast_threshold=0,
        ),
    )
    session.evaluate(QUERY)  # warm: partitioning, pool, plans, intern
    return session


def _steady_state(session, rounds=3):
    """Best wall-clock of ``rounds`` re-evaluations on the warm session.

    ``refresh()`` drops the memoized results (so the join actually
    re-runs) but keeps the pool, the partitioning and the plan cache —
    the steady state of a refresh loop.
    """
    best = float("inf")
    for _ in range(rounds):
        session.refresh()
        start = time.perf_counter()
        session.evaluate(QUERY)
        best = min(best, time.perf_counter() - start)
    return best


def test_four_shards_beat_one_with_identical_polynomials(db):
    """The acceptance criterion: 4-shard >= 1.5x 1-shard on 10k tuples,
    polynomial-identical output (asserted unconditionally; the speedup
    needs a core per worker, so it is skipped below four CPUs, where
    four workers time-slice the cores there are)."""
    reference = evaluate_hashjoin(QUERY, db)
    with _session(db, shards=1, workers=1) as single:
        assert single.evaluate(QUERY) == reference  # identical polynomials
        single_shard = _steady_state(single)
    with _session(db, shards=4, workers=4) as four:
        assert four.evaluate(QUERY) == reference  # ... at every shard count
        four_shards = _steady_state(four)
    speedup = single_shard / four_shards
    banner(
        "10k-tuple join: 4 shards {:.2f}x vs 1 shard "
        "({:.0f} ms vs {:.0f} ms) on {} CPU(s)".format(
            speedup, four_shards * 1e3, single_shard * 1e3, os.cpu_count()
        )
    )
    if (os.cpu_count() or 1) < 4:
        pytest.skip("four workers need four real cores to beat one")
    assert speedup >= 1.5, speedup


def test_four_shards_beat_serial_hashjoin(db):
    """The columnar tentpole target: sharded(4) >= 2x the serial
    hash-join engine end to end.  The serial side re-plans, re-indexes
    and eagerly decodes every round; the warm session's columnar path
    amortizes exactly those stages (cached join indexes in the workers,
    vectorized counter-merge, lazy decode at the result boundary) —
    that amortization, times four cores, is where 2x comes from.
    Polynomial identity is asserted unconditionally; the ratio needs
    real cores, so it is skipped below four CPUs."""
    reference = evaluate_hashjoin(QUERY, db)  # also warms the intern table
    serial = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        evaluate_hashjoin(QUERY, db)
        serial = min(serial, time.perf_counter() - start)
    with _session(db, shards=4, workers=4) as four:
        assert four.evaluate(QUERY) == reference  # identical polynomials
        sharded = _steady_state(four)
    speedup = serial / sharded
    banner(
        "10k-tuple join: 4 shards {:.2f}x vs serial hashjoin "
        "({:.0f} ms vs {:.0f} ms) on {} CPU(s)".format(
            speedup, sharded * 1e3, serial * 1e3, os.cpu_count()
        )
    )
    if (os.cpu_count() or 1) < 4:
        pytest.skip("the 2x-vs-serial target needs four real cores")
    assert speedup >= 2.0, speedup


@pytest.fixture(scope="module")
def four_shard_session(db):
    with _session(db, shards=4, workers=4) as session:
        yield session


@pytest.fixture(scope="module")
def single_shard_session(db):
    with _session(db, shards=1, workers=1) as session:
        yield session


def test_sharded_four_shards(benchmark, four_shard_session):
    def run():
        four_shard_session.refresh()
        return four_shard_session.evaluate(QUERY)

    assert benchmark(run)


def test_sharded_single_shard(benchmark, single_shard_session):
    def run():
        single_shard_session.refresh()
        return single_shard_session.evaluate(QUERY)

    assert benchmark(run)


def test_hashjoin_serial_baseline(benchmark, db):
    assert benchmark(evaluate_hashjoin, QUERY, db)


# ----------------------------------------------------------------------
# Trace artifact: where does sharded wall-clock actually go?
# ----------------------------------------------------------------------
def _stage_totals(tree, totals=None):
    """Aggregate a trace tree into ``{stage: total_ms}``."""
    totals = {} if totals is None else totals
    totals[tree["name"]] = totals.get(tree["name"], 0.0) + tree["duration_ms"]
    for child in tree.get("children", ()):
        _stage_totals(child, totals)
    return totals


def test_trace_artifact_breaks_down_sharded_run(db):
    """Capture cold + steady span trees for 1 and 4 shards.

    Writes ``benchmarks/traces/sharded_10k.json`` — the committed
    evidence behind the ROADMAP's columnar-refactor item: the cold run
    shows payload shipping (``shard.ship``), the steady runs split into
    fan-out/execute (``join``) and cross-shard intern-merge
    (``shard.merge``).
    """
    artifact = {"query": "ans(x, z) :- R(x, y), S(y, z)", "facts": db.fact_count()}
    for shards in (1, 4):
        with QuerySession(
            db,
            EngineConfig(
                engine="sharded", shards=shards, workers=shards,
                broadcast_threshold=0,
            ),
        ) as session:
            with tracing("cold") as tracer:
                session.evaluate(QUERY)
            cold = tracer.tree()
            session.refresh()
            with tracing("steady") as tracer:
                session.evaluate(QUERY)
            steady = tracer.tree()
        for want in ("shard.refresh", "join", "shard.merge"):
            assert want in tree_stage_names(steady), (want, steady)
        artifact["shards_{}".format(shards)] = {
            "cold": cold,
            "steady": steady,
            "steady_stage_ms": {
                name: round(value, 3)
                for name, value in sorted(_stage_totals(steady).items())
            },
        }
    path = os.path.join(os.path.dirname(__file__), "traces", "sharded_10k.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
    banner(
        "steady-state stage split (ms): 1 shard {} / 4 shards {}".format(
            artifact["shards_1"]["steady_stage_ms"],
            artifact["shards_4"]["steady_stage_ms"],
        )
    )
