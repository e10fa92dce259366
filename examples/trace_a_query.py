"""Trace one query through the pipeline and read the span tree.

The observability layer (:mod:`repro.obs`) instruments every pipeline
stage through an **ambient tracer**: instrumented code asks
:func:`~repro.obs.trace.current_tracer` for the context's tracer, and
by default gets a shared no-op — tracing costs nothing until a
:func:`~repro.obs.trace.tracing` block installs a live one.  Inside
such a block, one evaluation produces a tree of timed spans — plan
(cache hit/miss), one ``join.step`` per relation with row/binding
counts, the merge — that exports as JSON or pretty-prints.

This example traces the same join twice on each engine:

* **hashjoin** — the first run shows ``plan cache=miss`` and the
  per-step row counts; the second shows ``cache=hit``;
* **sharded** (2 shards, thread mode) — the tree grows the fan-out
  stages: ``shard.refresh``, the ``join`` fan-out with its shard and
  task counts, and the cross-shard ``shard.merge``.

A tracer can also feed a :class:`~repro.obs.metrics.MetricsRegistry`:
every closed span folds its duration into the
``repro_stage_seconds{stage=...}`` histogram — the same aggregates the
server's ``GET /metrics`` endpoint exposes.

Run it:  python examples/trace_a_query.py
"""

from repro.config import EngineConfig
from repro.db.generators import random_database
from repro.obs import MetricsRegistry, format_trace, tracing, tree_stage_names
from repro.query.parser import parse_query
from repro.session import QuerySession

QUERY = parse_query("ans(x, z) :- R(x, y), S(y, z)")


def main():
    db = random_database({"R": 2, "S": 2}, list(range(25)), n_facts=400, seed=7)
    registry = MetricsRegistry()

    print("== hashjoin: cold then warm ==")
    with tracing("query", registry=registry) as tracer:
        with QuerySession(db, "hashjoin") as session:
            session.evaluate(QUERY)
            session.refresh()  # drop the memo; the plan cache survives
            session.evaluate(QUERY)
    print(format_trace(tracer.tree()))

    print()
    print("== sharded: 2 shards, thread mode ==")
    with tracing("query", registry=registry) as tracer:
        config = EngineConfig(
            engine="sharded", shards=2, workers=2, mode="thread",
            broadcast_threshold=0,
        )
        with QuerySession(db, config) as session:
            session.evaluate(QUERY)
    sharded_tree = tracer.tree()
    print(format_trace(sharded_tree))

    print()
    stages = set(tree_stage_names(sharded_tree))
    print(
        "Sharded trace covers the fan-out stages:",
        {"shard.refresh", "join", "shard.merge"} <= stages,
    )

    print()
    print("== the same spans, aggregated into a histogram ==")
    histogram = registry.get("repro_stage_seconds")
    for (stage,), data in sorted(histogram.snapshot().items()):
        print(
            "  {:<14} {} observation(s), {:.3f} ms total".format(
                stage, data["count"], data["sum"] * 1e3
            )
        )


if __name__ == "__main__":
    main()
