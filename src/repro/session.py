"""Batched query sessions: amortize work across queries on one database.

A :class:`QuerySession` serves many queries against one database
version and shares every reusable artifact between them:

* **one pinned intern table** — captured from
  :func:`~repro.algebra.intern.shared_intern` at construction and used
  for every evaluation and every decode until the session closes.  The
  shared table's swap-on-growth
  (:data:`~repro.algebra.intern.MAX_SHARED_ENTRIES`) can replace the
  global table *mid-batch*; without pinning, annotations memoized
  earlier in the batch would be decoded against a different table's
  ids — the stale-monomial-id hazard the swap regression test forces;
* **one plan cache** — every query of the batch compiles against the
  same :class:`~repro.engine.plan_cache.PlanCache`;
* **one shard partitioning and worker pool** — with
  ``engine="sharded"``, a warm
  :class:`~repro.engine.sharded.ShardedExecutor` whose payload ships to
  workers once per database epoch;
* **per-adjunct result memoization** — queries are grouped by their
  cached plans: a batch evaluates each distinct conjunctive adjunct
  (or aggregate query) once, however many submitted queries share it,
  and the memo persists across batches until the database changes.

Sessions track the database version: mutate the database and the next
evaluation transparently refreshes (clears memos, re-syncs the shard
partitioning through the change log, re-ships worker payloads).  The
incremental :class:`~repro.incremental.registry.ViewRegistry` keeps a
session for exactly this — its refresh loop re-partitions per delta,
not per database size.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.algebra.columnar import decode_polynomials
from repro.algebra.intern import InternTable, shared_intern
from repro.config import EngineConfig, resolve_engine_config
from repro.db.instance import AnnotatedDatabase
from repro.engine.hashjoin import HeadTuple, _execute, plan_for
from repro.engine.plan_cache import PlanCache
from repro.engine.sharded import ShardedExecutor
from repro.errors import EvaluationError
from repro.obs.trace import current_tracer
from repro.query.aggregate import AggregateQuery, AnyQuery
from repro.query.cq import ConjunctiveQuery
from repro.query.ucq import adjuncts_of
from repro.semiring.polynomial import Polynomial

#: Engines a session can batch over.
SESSION_ENGINES = ("sharded", "hashjoin")


class QuerySession:
    """Batched evaluation against one (versioned) annotated database.

    >>> db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "c")]})
    >>> from repro.config import EngineConfig
    >>> from repro.query.parser import parse_query
    >>> chain = parse_query("ans(x, z) :- R(x, y), R(y, z)")
    >>> ends = parse_query("ans(x) :- R(x, y)")
    >>> config = EngineConfig(engine="sharded", shards=2, workers=2,
    ...                       mode="thread")
    >>> with QuerySession(db, config) as session:
    ...     results = session.evaluate_batch([chain, ends, chain])
    >>> [sorted(map(str, r.values())) for r in results]
    [['s1*s2'], ['s1', 's2'], ['s1*s2']]
    """

    def __init__(
        self,
        db: AnnotatedDatabase,
        config: Union[EngineConfig, str, None] = None,
        plan_cache: Optional[PlanCache] = None,
    ):  # noqa: D107
        config = resolve_engine_config(
            config, "QuerySession", default=EngineConfig(engine="sharded")
        )
        if config.engine not in SESSION_ENGINES:
            raise EvaluationError(
                "unknown session engine {!r}; supported: {}".format(
                    config.engine, ", ".join(SESSION_ENGINES)
                )
            )
        self._db = db
        self._config = config
        self._engine = config.engine
        # Pinned for the session's lifetime: every interned annotation
        # this session memoizes decodes against this very table, no
        # matter how often the process-wide shared table swaps.
        self._intern = shared_intern()
        self._cache = PlanCache() if plan_cache is None else plan_cache
        self._executor: Optional[ShardedExecutor] = None
        if config.engine == "sharded":
            self._executor = ShardedExecutor(
                db,
                shards=config.shards,
                workers=config.workers,
                mode=config.mode,
                broadcast_threshold=config.broadcast_threshold,
            )
        self._version = db.version()
        # Reentrant so a writer can bundle a database mutation with the
        # refresh it triggers while queries stay out; see :attr:`lock`.
        self._lock = threading.RLock()
        self._adjunct_memo: Dict[ConjunctiveQuery, Dict] = {}
        self._aggregate_memo: Dict[AggregateQuery, Dict] = {}
        self._queries_served = 0
        self._memo_hits = 0
        self._refreshes = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def engine(self) -> str:
        """The session's evaluation engine (``sharded`` or ``hashjoin``)."""
        return self._engine

    @property
    def config(self) -> EngineConfig:
        """The resolved :class:`~repro.config.EngineConfig` in effect."""
        return self._config

    @property
    def intern_table(self) -> InternTable:
        """The intern table pinned at construction."""
        return self._intern

    @property
    def plan_cache(self) -> PlanCache:
        """The session-wide plan cache."""
        return self._cache

    @property
    def executor(self) -> Optional[ShardedExecutor]:
        """The warm sharded executor (``None`` for hashjoin sessions)."""
        return self._executor

    @property
    def lock(self) -> "threading.RLock":
        """The session's reentrant evaluation lock.

        :meth:`run_batch` acquires it around every evaluation;
        concurrent *writers* (the serving tier's ``/update`` path)
        acquire it around database mutations so no evaluation observes
        a half-applied batch.  Single-threaded callers never need it.
        """
        return self._lock

    def db_version(self) -> int:
        """The database's current version counter (a cheap probe).

        The serving tier keys its result cache on this: reading it does
        not synchronize with in-flight evaluations, which is fine —
        cache keys are validated against the version an evaluation
        actually ran at (see :meth:`run_batch`).
        """
        return self._db.version()

    def run_batch(self, queries: Sequence[AnyQuery]) -> Tuple[List, int]:
        """Lock-guarded :meth:`evaluate_batch` for concurrent callers.

        Returns ``(results, version)`` where ``version`` is the
        database version the batch actually evaluated at — under
        concurrency an update may land between a caller's version probe
        and the evaluation, and the caller must not file the results
        under the stale version.
        """
        with self._lock:
            results = self.evaluate_batch(queries)
            return results, self._version

    def refresh(self) -> None:
        """Drop memoized results and re-sync with the database.

        Called automatically when an evaluation notices a new database
        version; call it explicitly to force re-execution (benchmarks
        timing steady-state evaluation do).  The shard partitioning is
        updated from the change log — warm, not rebuilt — and the plan
        cache and pinned intern table survive untouched.
        """
        self._adjunct_memo.clear()
        self._aggregate_memo.clear()
        if self._executor is not None:
            self._executor.refresh()
        self._version = self._db.version()
        self._refreshes += 1

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        self._closed = True
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _sync(self) -> None:
        if self._closed:
            raise EvaluationError("query session is closed")
        if self._db.version() != self._version:
            self.refresh()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, query: AnyQuery) -> Dict[HeadTuple, Polynomial]:
        """Evaluate one CQ≠/UCQ≠ (see :meth:`evaluate_batch`)."""
        if isinstance(query, AggregateQuery):
            raise EvaluationError(
                "aggregate queries produce semimodule annotations; use "
                "QuerySession.evaluate_aggregate"
            )
        return self.evaluate_batch([query])[0]

    def evaluate_aggregate(self, query: AggregateQuery):
        """Evaluate one aggregate query (see :meth:`evaluate_batch`)."""
        if not isinstance(query, AggregateQuery):
            raise EvaluationError(
                "evaluate_aggregate expects an aggregate query; use "
                "QuerySession.evaluate for plain UCQ"
            )
        return self.evaluate_batch([query])[0]

    def evaluate_batch(self, queries: Sequence[AnyQuery]) -> List:
        """Evaluate many queries, amortizing work across the batch.

        Queries may mix plain UCQ≠ (returning polynomial tables) and
        aggregate queries (returning semimodule tables); results align
        with the input order.  The batch is grouped by cached plan:
        each distinct conjunctive adjunct is evaluated once — its
        shards run once — and every query sharing it reuses the
        interned annotations, decoded through the pinned intern table.
        """
        self._sync()
        queries = list(queries)
        self._queries_served += len(queries)

        plain_adjuncts: List[ConjunctiveQuery] = []
        for query in queries:
            if not isinstance(query, AggregateQuery):
                plain_adjuncts.extend(adjuncts_of(query))
        missing = [
            adjunct
            for adjunct in dict.fromkeys(plain_adjuncts)
            if adjunct not in self._adjunct_memo
        ]
        self._memo_hits += len(set(plain_adjuncts) - set(missing))
        if missing:
            self._adjunct_memo.update(self._evaluate_adjuncts(missing))

        results: List = []
        for query in queries:
            if isinstance(query, AggregateQuery):
                results.append(self._aggregate_result(query))
            else:
                adjuncts = list(adjuncts_of(query))
                with current_tracer().span("merge") as span:
                    decoded = decode_polynomials(
                        [self._adjunct_memo[a] for a in adjuncts],
                        self._intern,
                    )
                    span.set(adjuncts=len(adjuncts), tuples=len(decoded))
                    results.append(decoded)
        return results

    def _evaluate_adjuncts(self, adjuncts: List[ConjunctiveQuery]) -> Dict:
        if self._executor is not None:
            return self._executor.evaluate_adjuncts(
                adjuncts, self._intern, self._cache
            )
        executed: Dict = {}
        for adjunct in adjuncts:
            plan = plan_for(adjunct, self._db, self._cache)
            with current_tracer().span("join", engine="hashjoin"):
                executed[adjunct] = _execute(plan, self._db, self._intern)
        return executed

    def _aggregate_result(self, query: AggregateQuery):
        memoized = self._aggregate_memo.get(query)
        if memoized is not None:
            self._memo_hits += 1
            return memoized
        if self._executor is not None:
            result = self._executor.evaluate_aggregate(query, self._cache)
        else:
            from repro.engine.hashjoin import evaluate_aggregate_hashjoin

            result = evaluate_aggregate_hashjoin(
                query, self._db, self._cache, self._intern
            )
        self._aggregate_memo[query] = result
        return result

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Union[int, Dict[str, int]]]:
        """Counters for tests, benchmarks and tuning."""
        counters: Dict[str, Union[int, Dict[str, int]]] = {
            "queries": self._queries_served,
            "memo_hits": self._memo_hits,
            "memoized_adjuncts": len(self._adjunct_memo),
            "memoized_aggregates": len(self._aggregate_memo),
            "refreshes": self._refreshes,
            "plan_cache": self._cache.stats(),
        }
        if self._executor is not None:
            counters["sharding"] = self._executor.sharded_db.stats()
        return counters

    def __repr__(self) -> str:
        return "<QuerySession engine={} {} queries, {} memo hits>".format(
            self._engine, self._queries_served, self._memo_hits
        )
