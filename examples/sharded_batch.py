"""Shard-parallel, batched evaluation with a QuerySession.

A production serving loop rarely evaluates one query against one
database: it answers *batches* against a slowly changing instance.
This example builds a ~3k-tuple database, opens a
:class:`~repro.session.QuerySession` (4 hash-partitioned shards, a
process-pool of workers fed pickled shard payloads), and pushes a
batch of overlapping queries through it:

* duplicate and overlapping queries are grouped by cached plan — each
  distinct conjunctive adjunct runs its shards exactly once;
* every polynomial is identical to the serial hash-join engine's
  (and hence to the paper's Def. 2.12 semantics);
* after a database update, the session re-partitions through the
  change log instead of re-hashing the world, keeping the pool warm.

Run it:  python examples/sharded_batch.py
"""

from repro import EngineConfig, QuerySession, evaluate, parse_query
from repro.db.generators import random_database


def main():
    db = random_database(
        {"Ships": 2, "Stocks": 2}, list(range(60)), n_facts=3_000, seed=7
    )
    queries = [
        parse_query("supplies(f, s) :- Ships(f, w), Stocks(w, s)"),
        parse_query("froms(f) :- Ships(f, w)"),
        # The same join again: the session reuses its shard runs.
        parse_query("supplies(f, s) :- Ships(f, w), Stocks(w, s)"),
        parse_query("pairs(s, t) :- Stocks(w, s), Stocks(w, t), s != t"),
        parse_query("stocked(w, count(*)) :- Stocks(w, s)"),  # aggregate
    ]

    config = EngineConfig(engine="sharded", shards=4, workers=2)
    with QuerySession(db, config) as session:
        results = session.evaluate_batch(queries)
        stats = session.stats()
        print(
            "Batch of {} queries over {} facts: {} distinct adjuncts "
            "evaluated, {} plans compiled".format(
                len(queries),
                db.fact_count(),
                stats["memoized_adjuncts"],
                stats["plan_cache"]["misses"],
            )
        )
        print(
            "Sharding: {partitioned} partitioned relations, "
            "{owned_rows} owned rows across {shards} shards".format(
                **stats["sharding"]
            )
        )

        agree = all(
            results[index] == evaluate(query, db)
            for index, query in enumerate(queries)
            if index != 4  # the aggregate has its own evaluator
        )
        print("Sharded batch agrees with the hash-join engine:", agree)

        sample = sorted(results[0])[0]
        print("supplies{} <- {}".format(sample, results[0][sample]))
        group = sorted(results[4])[0]
        print("stocked{} -> {}".format(group, results[4][group]))

        # A delta arrives: the session refreshes its partitioning from
        # the change log on the next evaluation — pool and plans stay warm.
        db.add("Ships", ("new-fleet", 0))
        refreshed = session.evaluate(queries[1])
        print(
            "After one insert: froms() grew to {} fleets "
            "(session refreshed {} time(s))".format(
                len(refreshed), session.stats()["refreshes"]
            )
        )


if __name__ == "__main__":
    main()
