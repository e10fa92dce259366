"""Provenance-aware query evaluation.

Four engines compute the same annotated results:

* :mod:`repro.engine.hashjoin` — the default: set-at-a-time hash joins
  over K-relations with interned monomials
  (:mod:`repro.algebra.intern`) and a cardinality-banded plan cache
  (:mod:`repro.engine.plan_cache`);
* :mod:`repro.engine.evaluate` — a backtracking assignment enumerator
  that implements Defs. 2.6 and 2.12 literally;
* :mod:`repro.engine.sql_compile` +
  :class:`repro.db.sqlite_backend.SQLiteDatabase` — compilation of CQ≠
  to SQL self-joins executed by SQLite, with provenance reassembled from
  the per-tuple annotation column;
* :mod:`repro.engine.sharded` — the hash-join plans fanned out across
  hash-partitioned shards (:mod:`repro.db.sharding`) evaluated by a
  worker pool, with shard-local intern tables merged back into global
  ids.

Tests use them as differential oracles for one another.
"""

from repro.engine.evaluate import (
    ENGINES,
    Assignment,
    assignments,
    evaluate,
    evaluate_backtracking,
    provenance,
    provenance_of_boolean,
)
from repro.engine.hashjoin import (
    clear_plan_cache,
    default_plan_cache,
    evaluate_aggregate_hashjoin,
    evaluate_hashjoin,
)
from repro.engine.plan_cache import PlanCache, cardinality_band
from repro.engine.sharded import (
    ShardedExecutor,
    evaluate_aggregate_sharded,
    evaluate_sharded,
)
from repro.engine.sql_compile import compile_cq_to_sql

__all__ = [
    "ENGINES",
    "Assignment",
    "assignments",
    "evaluate",
    "evaluate_backtracking",
    "evaluate_hashjoin",
    "evaluate_aggregate_hashjoin",
    "evaluate_sharded",
    "evaluate_aggregate_sharded",
    "ShardedExecutor",
    "provenance",
    "provenance_of_boolean",
    "compile_cq_to_sql",
    "PlanCache",
    "cardinality_band",
    "default_plan_cache",
    "clear_plan_cache",
]
