"""Shard-parallel hash-join execution of CQ≠/UCQ≠ and aggregates.

Scales the set-at-a-time engine (:mod:`repro.engine.hashjoin`) across
cores: the database is hash-partitioned into N shards
(:mod:`repro.db.sharding`), each conjunctive plan is **anchored** on
one join step over a partitioned relation, and shard ``i`` runs the
plan with the anchor step scanning only the rows it owns (every other
step scans a replicated copy).  Every Def. 2.6 assignment maps the
anchor atom to exactly one owned row, so the shard results partition
the assignment space and their union is annotation-identical to the
Def. 2.12 sum over assignments — the cross-shard differential suite
asserts this against the backtracking engine for every shard count.

Results travel one way: workers keep a *persistent* shard-local
:class:`~repro.algebra.intern.InternTable` for the lifetime of the
pool, cache their per-snapshot join-step indexes, and return results
as flat :class:`~repro.algebra.columnar.ColumnarTable` columns plus an
*incremental* intern export (only the symbols/monomials minted since
the previous task).  The parent accumulates each worker's export log,
maintains a dense ``local id -> global id`` array per (worker,
target-table) pair (:class:`~repro.algebra.intern.InternRemapper`),
and remaps whole result columns in one gather (numpy-vectorized when
available).  Thread-mode workers intern straight into the caller's
table — no remap at all.

Execution backends: a ``concurrent.futures`` process pool whose
:class:`~repro.db.sharding.ShardPayload` ships once per database epoch
— through a ``multiprocessing.shared_memory`` segment holding the
offset-based encoding (:func:`repro.db.sharding.encode_payload`), or
pickled initargs when no segment can be created — with a thread-pool
fallback when process spawning is unavailable.
:class:`ShardedExecutor` owns pool, segment and partitioning, and is
what a :class:`~repro.session.QuerySession` keeps warm across a batch.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import uuid
import weakref
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.algebra.columnar import ColumnarTable, decode_polynomials
from repro.algebra.intern import InternRemapper, InternTable, shared_intern
from repro.config import EXECUTOR_MODES
from repro.db.instance import AnnotatedDatabase
from repro.db.sharding import (
    ShardedDatabase,
    ShardPayload,
    decode_payload,
    encode_payload,
)
from repro.engine.hashjoin import HeadTuple, _execute, plan_for
from repro.engine.plan_cache import PlanCache
from repro.errors import EvaluationError
from repro.obs.trace import current_tracer
from repro.query.aggregate import AggregateQuery
from repro.query.cq import ConjunctiveQuery
from repro.query.ucq import Query, adjuncts_of
from repro.semiring.polynomial import Polynomial

#: Default number of shards when the caller does not choose one.
DEFAULT_SHARDS = 4


class _ColumnarShard(NamedTuple):
    """One shard's columnar result plus its incremental intern export.

    ``token`` identifies the worker's persistent intern table (``None``
    for thread-mode results, whose ids are already global).  The export
    continues the worker's log at ``symbol_start``/``monomial_start`` —
    the parent splices contiguous deltas into a full replica.
    """

    token: Optional[str]
    symbol_start: int
    monomial_start: int
    symbols: List[str]
    monomial_keys: List[Tuple[int, ...]]
    table: ColumnarTable


def _release_shm(shm) -> None:
    """Close and unlink a shared-memory segment, ignoring races."""
    try:
        shm.close()
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - teardown race
        pass


def _shutdown_pool(pool, shm=None) -> None:
    """Finalizer target: release a leaked executor's pool and segment.

    Registered through :func:`weakref.finalize` (never ``__del__``) so
    a session dropped without :meth:`ShardedExecutor.close` — an
    exception path, a forgotten context manager — cannot strand a
    process pool or leak its shared-memory segment.  The callback must
    not reference the executor, or the reference cycle would keep it
    alive forever.
    """
    pool.shutdown(wait=False)
    if shm is not None:
        _release_shm(shm)


# ----------------------------------------------------------------------
# Shard tasks (run in workers: top-level, picklable by reference)
# ----------------------------------------------------------------------
def _facts_fn(payload, anchor_step: Optional[int], shard_index: int):
    def facts(step_index, step):
        if step_index == anchor_step:
            return payload.owned_facts(step.relation, shard_index)
        return payload.facts(step.relation)

    return facts


def _index_key_fn(plan, anchor_step: Optional[int], shard_index: int, token: int):
    """Cache keys for one plan run's join-step indexes.

    Non-anchor steps scan the full relation, so their index is shared
    across shards (owner slot ``-1``); the anchor step's index covers
    one shard's fragment only.  The intern token pins the symbol ids
    the index stores to the table that minted them.
    """

    def index_key(step_index):
        owner = shard_index if step_index == anchor_step else -1
        return (token, plan, step_index, owner)

    return index_key


def _run_plan(
    payload,
    plan,
    anchor_step: Optional[int],
    shard_index: int,
    intern: InternTable,
) -> ColumnarTable:
    """Run one plan on one shard into ``intern``'s ids, as columns.

    Join-step indexes are cached on the payload snapshot, so re-running
    the same plan over an unchanged snapshot (the steady state of a
    refresh loop) skips the build scans and goes straight to probing.
    """
    results = _execute(
        plan,
        None,
        intern,
        facts_fn=_facts_fn(payload, anchor_step, shard_index),
        index_cache=payload.index_cache,
        index_key=_index_key_fn(plan, anchor_step, shard_index, intern.token),
    )
    return ColumnarTable.from_results(results)


def _run_plan_local(
    payload, plan, anchor_step, shard_index, intern: InternTable
) -> _ColumnarShard:
    """Thread-mode task: interns directly into the caller's table, so
    the result needs no export and no remap."""
    table = _run_plan(payload, plan, anchor_step, shard_index, intern)
    return _ColumnarShard(None, 0, 0, [], [], table)


def _run_aggregate(
    payload,
    query: AggregateQuery,
    plans: Sequence,
    anchors: Sequence[Optional[int]],
    shard_index: int,
    intern: Optional[InternTable] = None,
):
    """Fold one shard's rule contributions into an accumulator state.

    Rules whose plans have no partitioned anchor run on shard 0 only
    (their work cannot be split); anchored rules run everywhere.  With
    a persistent ``intern`` (process workers), join-step indexes are
    cached on the snapshot like the plan path.
    """
    # Imported here: repro.aggregate reaches back into repro.engine
    # during package initialization (same cycle hashjoin dodges).
    from repro.aggregate.result import AggregateAccumulator

    persistent = intern is not None
    intern = InternTable() if intern is None else intern
    accumulator = AggregateAccumulator(query)
    for rule, plan, anchor in zip(query.rules, plans, anchors):
        if anchor is None and shard_index != 0:
            continue
        results = _execute(
            plan,
            None,
            intern,
            facts_fn=_facts_fn(payload, anchor, shard_index),
            index_cache=payload.index_cache if persistent else None,
            index_key=(
                _index_key_fn(plan, anchor, shard_index, intern.token)
                if persistent
                else None
            ),
        )
        for head, annotation in sorted(
            results.items(), key=lambda kv: repr(kv[0])
        ):
            accumulator.add(rule, head, intern.polynomial(annotation))
    return accumulator.results()


#: Worker-process globals: the payload installed by the pool initializer
#: (plus the shared-memory segment backing it, kept mapped for the
#: pool's lifetime) and the persistent shard-local intern table.
_WORKER_PAYLOAD = None
_WORKER_SHM = None
_WORKER_INTERN: Optional[InternTable] = None
_WORKER_TOKEN: Optional[str] = None
_WORKER_EXPORTED = [0, 0]


def _init_worker(payload: ShardPayload) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _init_worker_shm(name: str) -> None:
    """Pool initializer for the shared-memory shipping path.

    Attaches to the parent's segment by name and opens the offset-based
    payload view over its buffer.  The *parent* owns the segment's
    lifecycle, but attaching registers it with a resource tracker
    (bpo-39959): under ``spawn``/``forkserver`` the worker's tracker is
    not the parent's and would unlink the segment on worker exit, so
    the registration is withdrawn; under ``fork`` the tracker *is* the
    parent's (its name-set already holds the segment, the duplicate
    register is a no-op) and withdrawing would erase the parent's own
    registration instead.
    """
    global _WORKER_PAYLOAD, _WORKER_SHM
    import multiprocessing
    from multiprocessing import resource_tracker, shared_memory

    shm = shared_memory.SharedMemory(name=name)
    if multiprocessing.get_start_method() != "fork":
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
    _WORKER_SHM = shm
    _WORKER_PAYLOAD = decode_payload(shm.buf)


def _worker_intern() -> InternTable:
    """The worker's persistent intern table, created on first use.

    Living as long as the worker process does, it keeps the
    ``times_symbol`` memoization warm across evaluations — the single
    biggest per-task cost of the fresh-table-per-task design it
    replaces.  The token names this table in parent-side export logs.
    """
    global _WORKER_INTERN, _WORKER_TOKEN, _WORKER_EXPORTED
    if _WORKER_INTERN is None:
        _WORKER_INTERN = InternTable()
        _WORKER_TOKEN = uuid.uuid4().hex
        _WORKER_EXPORTED = [0, 0]
    return _WORKER_INTERN


def _run_plan_in_worker(plan, anchor_step, shard_index):
    intern = _worker_intern()
    table = _run_plan(_WORKER_PAYLOAD, plan, anchor_step, shard_index, intern)
    symbol_start, monomial_start = _WORKER_EXPORTED
    symbols, monomial_keys = intern.export_range(symbol_start, monomial_start)
    _WORKER_EXPORTED[0] = symbol_start + len(symbols)
    _WORKER_EXPORTED[1] = monomial_start + len(monomial_keys)
    return _ColumnarShard(
        _WORKER_TOKEN, symbol_start, monomial_start, symbols, monomial_keys,
        table,
    )


def _run_aggregate_in_worker(query, plans, anchors, shard_index):
    return _run_aggregate(
        _WORKER_PAYLOAD, query, plans, anchors, shard_index,
        intern=_worker_intern(),
    )


# ----------------------------------------------------------------------
# Parent-side merging
# ----------------------------------------------------------------------
class _WorkerLog:
    """The parent's accumulated replica of one worker intern table.

    Workers ship contiguous export deltas; :meth:`absorb` splices them
    in order (tasks of one worker complete in submission order, so
    sorting a wave by ``monomial_start`` restores the mint order).  Per
    target intern table, an :class:`InternRemapper` is grown lazily to
    the log's current length — the dense remap array is built once per
    monomial, not once per evaluation.
    """

    __slots__ = ("symbols", "keys", "remappers")

    def __init__(self):  # noqa: D107
        self.symbols: List[str] = []
        self.keys: List[Tuple[int, ...]] = []
        self.remappers: Dict[int, InternRemapper] = {}

    def absorb(self, shard: _ColumnarShard) -> None:
        if (
            shard.monomial_start != len(self.keys)
            or shard.symbol_start != len(self.symbols)
        ):
            if (
                shard.monomial_start + len(shard.monomial_keys)
                <= len(self.keys)
                and shard.symbol_start + len(shard.symbols)
                <= len(self.symbols)
            ):
                return  # duplicate delivery of an already-spliced delta
            raise EvaluationError(
                "worker intern export arrived out of order "
                "(expected offset {}, got {})".format(
                    len(self.keys), shard.monomial_start
                )
            )
        self.symbols.extend(shard.symbols)
        self.keys.extend(shard.monomial_keys)

    def remapper_for(self, intern: InternTable) -> InternRemapper:
        remapper = self.remappers.get(intern.token)
        if remapper is None:
            remapper = self.remappers[intern.token] = InternRemapper(intern)
        if remapper.mapped_monomials < len(self.keys):
            remapper.extend(
                self.symbols[remapper.mapped_symbols:],
                self.keys[remapper.mapped_monomials:],
            )
        return remapper


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class ShardedExecutor:
    """Owns one database's partitioning, worker pool and shipped payload.

    Reuse it (directly or through a
    :class:`~repro.session.QuerySession`) to amortize partitioning,
    payload shipping and worker start-up across many queries; the pool
    re-ships its payload only when :meth:`refresh` detects a new
    database epoch.

    ``mode`` is ``"process"`` (true parallelism, shared-memory or
    pickled payloads) or ``"thread"`` (shared payload, cheap start-up —
    the fallback used automatically when process pools cannot start).
    """

    def __init__(
        self,
        db: AnnotatedDatabase,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        mode: str = "process",
        broadcast_threshold: Optional[int] = None,
    ):  # noqa: D107
        if mode not in EXECUTOR_MODES:
            raise EvaluationError(
                "unknown executor mode {!r}; supported: {}".format(
                    mode, ", ".join(EXECUTOR_MODES)
                )
            )
        shards = DEFAULT_SHARDS if shards is None else shards
        self._db = db
        self._sharded = ShardedDatabase(
            db, shards, broadcast_threshold=broadcast_threshold
        )
        self._workers = (
            max(1, min(shards, os.cpu_count() or 1))
            if workers is None
            else max(1, workers)
        )
        self._mode = mode
        self._pool = None
        self._pool_epoch: Optional[int] = None
        self._shm = None
        self._finalizer: Optional[weakref.finalize] = None
        self._worker_logs: Dict[str, _WorkerLog] = {}
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    @property
    def sharded_db(self) -> ShardedDatabase:
        """The parent-side partitioning this executor evaluates over."""
        return self._sharded

    @property
    def shard_count(self) -> int:
        """Number of shards each anchored plan fans out to."""
        return self._sharded.shard_count

    @property
    def workers(self) -> int:
        """Worker-pool size."""
        return self._workers

    @property
    def mode(self) -> str:
        """The currently effective execution mode."""
        return self._mode

    def refresh(self) -> bool:
        """Re-sync partitioning with the database; True when it changed."""
        return self._sharded.refresh()

    def close(self) -> None:
        """Shut the worker pool down, unlink the segment (idempotent)."""
        self._closed = True
        if self._pool is not None:
            self._release_pool(wait=True)
            self._pool_epoch = None

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- pool management ------------------------------------------------
    def _adopt_pool(self, pool, shm=None) -> None:
        """Install ``pool`` (and its segment) and arm the leak finalizer.

        The finalizer closes over the *pool and segment*, not the
        executor, so dropping the executor without :meth:`close` still
        shuts the workers down and unlinks the shared memory when the
        garbage collector reclaims it.
        """
        self._pool = pool
        self._shm = shm
        self._finalizer = weakref.finalize(self, _shutdown_pool, pool, shm)

    def _release_pool(self, wait: bool) -> None:
        """Shut the pool down, unlink its segment, disarm the finalizer."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._pool.shutdown(wait=wait)
        self._pool = None
        if self._shm is not None:
            _release_shm(self._shm)
            self._shm = None
        # Tokens belong to worker processes of the released pool; any
        # future pool mints fresh tables, so the logs are dead weight.
        self._worker_logs.clear()

    def _ensure_pool(self):
        if self._closed:
            raise EvaluationError("executor is closed")
        epoch = self._sharded.epoch
        if self._pool is not None and (
            # Thread workers read payload() per submit and hold no epoch
            # state, so only process pools (whose initializer installed
            # a snapshot) must be recreated when the database changes.
            self._mode == "thread" or self._pool_epoch == epoch
        ):
            return self._pool
        if self._pool is not None:
            self._release_pool(wait=True)
        if self._mode == "process":
            shm = None
            try:
                # The span covers snapshotting the payload and starting
                # the pool — the "ship" cost a new epoch pays before any
                # worker computes.  The payload is encoded once into a
                # shared-memory segment every worker maps; when no
                # segment can be created, initargs pickle the payload
                # per worker as the processes spawn.
                with current_tracer().span(
                    "shard.ship", workers=self._workers
                ) as span:
                    payload = self._sharded.payload()
                    span.set(facts=payload.fact_count())
                    shm = self._create_segment(payload, span)
                    if shm is not None:
                        initializer, initargs = _init_worker_shm, (shm.name,)
                    else:
                        initializer, initargs = _init_worker, (payload,)
                        span.set(transport="pickle")
                    self._adopt_pool(
                        concurrent.futures.ProcessPoolExecutor(
                            max_workers=self._workers,
                            initializer=initializer,
                            initargs=initargs,
                        ),
                        shm,
                    )
            except (OSError, ValueError):
                if shm is not None:
                    _release_shm(shm)
                self._mode = "thread"
        if self._pool is None:
            self._adopt_pool(
                concurrent.futures.ThreadPoolExecutor(max_workers=self._workers)
            )
        self._pool_epoch = epoch
        return self._pool

    @staticmethod
    def _create_segment(payload: ShardPayload, span):
        """Encode ``payload`` into a fresh shared-memory segment.

        Returns ``None`` when the platform cannot provide one (no
        ``/dev/shm``, permission trouble, unencodable payload) — the
        caller then falls back to pickled initargs.
        """
        try:
            from multiprocessing import shared_memory

            data = encode_payload(payload)
            shm = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
            shm.buf[: len(data)] = data
            span.set(transport="shm", bytes=len(data))
            return shm
        except Exception:
            return None

    def _submit(self, pool, kind: str, args, intern):
        if self._mode == "process":
            if kind == "plan":
                return pool.submit(_run_plan_in_worker, *args)
            return pool.submit(_run_aggregate_in_worker, *args)
        payload = self._sharded.payload()
        if kind == "plan":
            return pool.submit(_run_plan_local, payload, *args, intern)
        return pool.submit(_run_aggregate, payload, *args)

    def _run_tasks(
        self, kind: str, task_args: Sequence[Tuple], intern=None
    ) -> List:
        """Fan a task list out to the pool, falling back to threads when
        the process pool dies (spawn failure, unpicklable payloads)."""
        pool = self._ensure_pool()
        try:
            futures = [
                self._submit(pool, kind, args, intern) for args in task_args
            ]
            return [future.result() for future in futures]
        except (BrokenProcessPool, pickle.PicklingError, OSError):
            if self._mode != "process":
                raise
            self._mode = "thread"
            self._release_pool(wait=False)
            pool = self._ensure_pool()
            futures = [
                self._submit(pool, kind, args, intern) for args in task_args
            ]
            return [future.result() for future in futures]

    # -- result ingestion -----------------------------------------------
    def _ingest(
        self, outputs: Sequence[_ColumnarShard], intern: InternTable
    ) -> List[ColumnarTable]:
        """Splice worker intern exports and remap result columns.

        Thread-mode results (token ``None``) already carry global ids;
        process results are rewritten through the per-worker dense remap
        array — one gather per shard result instead of one dict walk
        per monomial.
        """
        by_token: Dict[str, List[_ColumnarShard]] = {}
        for output in outputs:
            if output.token is not None:
                by_token.setdefault(output.token, []).append(output)
        for token, shards in by_token.items():
            log = self._worker_logs.get(token)
            if log is None:
                log = self._worker_logs[token] = _WorkerLog()
            for shard in sorted(shards, key=lambda s: s.monomial_start):
                log.absorb(shard)
        tables: List[ColumnarTable] = []
        for output in outputs:
            table = output.table
            if output.token is not None:
                remapper = self._worker_logs[output.token].remapper_for(intern)
                table.remap(remapper.mapping())
            tables.append(table)
        return tables

    # -- evaluation -----------------------------------------------------
    def evaluate_adjuncts(
        self,
        adjuncts: Sequence[ConjunctiveQuery],
        intern: InternTable,
        cache: Optional[PlanCache] = None,
    ) -> Dict[ConjunctiveQuery, ColumnarTable]:
        """Evaluate distinct adjuncts, merged into ``intern``'s ids.

        All (adjunct × shard) tasks of the batch are submitted in one
        wave, so a batch of small queries still fills every worker.
        Plans without a partitioned anchor run on shard 0 only.
        Returns ``{adjunct: ColumnarTable}``, which
        :func:`~repro.algebra.columnar.decode_polynomials` decodes.
        """
        tracer = current_tracer()
        with tracer.span("shard.refresh"):
            self.refresh()
        unique = list(dict.fromkeys(adjuncts))
        task_args = []
        spans = []  # (start, count) into task_args per adjunct
        for adjunct in unique:
            plan = plan_for(adjunct, self._db, cache)
            anchor = self._sharded.anchor_step_for(plan)
            shard_indices = (
                range(self._sharded.shard_count)
                if anchor is not None
                else range(1)
            )
            spans.append((len(task_args), len(shard_indices)))
            for shard_index in shard_indices:
                task_args.append((plan, anchor, shard_index))
        with tracer.span(
            "join",
            engine="sharded",
            shards=self._sharded.shard_count,
            tasks=len(task_args),
        ) as fanout:
            outputs = self._run_tasks("plan", task_args, intern)
            fanout.set(mode=self._mode)  # after any fallback flip
        merged: Dict[ConjunctiveQuery, ColumnarTable] = {}
        with tracer.span("shard.merge", adjuncts=len(unique)) as merge_span:
            tables = self._ingest(outputs, intern)
            for adjunct, (start, count) in zip(unique, spans):
                merged[adjunct] = ColumnarTable.concat(
                    tables[start:start + count]
                )
            merge_span.set(
                tuples=sum(table.tuple_count() for table in merged.values()),
                pairs=sum(table.pair_count() for table in merged.values()),
            )
        return merged

    def evaluate(
        self,
        query: Query,
        cache: Optional[PlanCache] = None,
        intern: Optional[InternTable] = None,
    ) -> Dict[HeadTuple, Polynomial]:
        """Evaluate a CQ≠/UCQ≠ across the shards (Def. 2.12 polynomials)."""
        if isinstance(query, AggregateQuery):
            raise EvaluationError(
                "aggregate queries produce semimodule annotations; use "
                "evaluate_aggregate_sharded instead of evaluate_sharded"
            )
        intern = shared_intern() if intern is None else intern
        adjuncts = list(adjuncts_of(query))
        table = self.evaluate_adjuncts(adjuncts, intern, cache)
        with current_tracer().span("merge") as span:
            results = decode_polynomials(
                [table[adjunct] for adjunct in adjuncts], intern
            )
            span.set(tuples=len(results))
        return results

    def evaluate_aggregate(
        self,
        query: AggregateQuery,
        cache: Optional[PlanCache] = None,
    ):
        """Evaluate an aggregate query across the shards.

        Each shard folds its contributions into a local accumulator;
        the states merge through the monoid/semimodule layer, yielding
        the exact aggregated K-relation of the serial engines (addition
        in ``N[X]`` and ``N[X] ⊗ M`` is commutative and normal-form
        stable).  ``condense()`` stays on demand, as everywhere else.
        """
        from repro.aggregate.result import merge_aggregate_results

        tracer = current_tracer()
        with tracer.span("shard.refresh"):
            self.refresh()
        plans = [plan_for(rule.inner, self._db, cache) for rule in query.rules]
        anchors = [self._sharded.anchor_step_for(plan) for plan in plans]
        shard_count = (
            self._sharded.shard_count
            if any(anchor is not None for anchor in anchors)
            else 1
        )
        with tracer.span(
            "join", engine="sharded", shards=shard_count, tasks=shard_count
        ) as fanout:
            outputs = self._run_tasks(
                "aggregate",
                [
                    (query, plans, anchors, shard_index)
                    for shard_index in range(shard_count)
                ],
            )
            fanout.set(mode=self._mode)
        with tracer.span("shard.merge", adjuncts=len(plans)):
            return merge_aggregate_results(outputs)


# ----------------------------------------------------------------------
# Public one-shot API (the ``engine="sharded"`` dispatch target)
# ----------------------------------------------------------------------
def evaluate_sharded(
    query: Query,
    db: AnnotatedDatabase,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    mode: str = "process",
    broadcast_threshold: Optional[int] = None,
    cache: Optional[PlanCache] = None,
    intern: Optional[InternTable] = None,
    executor: Optional[ShardedExecutor] = None,
) -> Dict[HeadTuple, Polynomial]:
    """Evaluate one query shard-parallel, returning Def. 2.12 polynomials.

    One-shot convenience: builds (and tears down) a
    :class:`ShardedExecutor` unless ``executor`` is given.  Batches
    should go through :class:`~repro.session.QuerySession`, which keeps
    the partitioning, pool, plans and intern table warm.

    >>> db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "a")]})
    >>> from repro.query.parser import parse_query
    >>> query = parse_query("ans(x) :- R(x, y), R(y, x)")
    >>> result = evaluate_sharded(
    ...     query, db, shards=2, workers=2, mode="thread",
    ...     broadcast_threshold=0)
    >>> sorted(str(p) for p in result.values())
    ['s1*s2', 's1*s2']
    """
    own = executor is None
    if own:
        executor = ShardedExecutor(
            db,
            shards=shards,
            workers=workers,
            mode=mode,
            broadcast_threshold=broadcast_threshold,
        )
    try:
        return executor.evaluate(query, cache=cache, intern=intern)
    finally:
        if own:
            executor.close()


def evaluate_aggregate_sharded(
    query: AggregateQuery,
    db: AnnotatedDatabase,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    mode: str = "process",
    broadcast_threshold: Optional[int] = None,
    cache: Optional[PlanCache] = None,
    executor: Optional[ShardedExecutor] = None,
):
    """Evaluate an aggregate query shard-parallel (semimodule results).

    >>> from repro.query.parser import parse_query
    >>> db = AnnotatedDatabase.from_rows({"S": [("nyc", 5), ("nyc", 2)]})
    >>> q = parse_query("sales(city, sum(cost)) :- S(city, cost)")
    >>> result = evaluate_aggregate_sharded(
    ...     q, db, shards=2, workers=2, mode="thread",
    ...     broadcast_threshold=0)
    >>> print(result[("nyc",)])
    ⟨s1 + s2⟩ sum[s2⊗2 + s1⊗5]
    """
    own = executor is None
    if own:
        executor = ShardedExecutor(
            db,
            shards=shards,
            workers=workers,
            mode=mode,
            broadcast_threshold=broadcast_threshold,
        )
    try:
        return executor.evaluate_aggregate(query, cache=cache)
    finally:
        if own:
            executor.close()
