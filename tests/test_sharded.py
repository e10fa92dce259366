"""Unit and property tests for the shard-parallel engine stack.

Covers the partitioning layer (:mod:`repro.db.sharding`), the sharded
executor and its process/thread backends
(:mod:`repro.engine.sharded`), the intern-table merge
(:class:`~repro.algebra.intern.InternRemapper`), the batched
:class:`~repro.session.QuerySession`, and the sharded path through the
incremental registry.  The cross-shard differential suite lives in
``test_engine_agreement.py``.
"""

import os
import random

import pytest

import repro.algebra.intern as intern_module
import repro.engine.sharded as sharded_module
from repro.algebra.intern import InternRemapper, InternTable
from repro.config import EngineConfig
from repro.db.generators import random_database
from repro.db.instance import AnnotatedDatabase
from repro.db.sharding import (
    DEFAULT_BROADCAST_THRESHOLD,
    ShardedDatabase,
    partition_rows,
    shard_of,
)
from repro.engine.evaluate import evaluate, evaluate_backtracking, provenance
from repro.engine.sharded import (
    ShardedExecutor,
    evaluate_aggregate_sharded,
    evaluate_sharded,
)
from repro.aggregate.evaluate import evaluate_aggregate
from repro.aggregate.result import merge_aggregate_results
from repro.errors import EvaluationError
from repro.incremental.delta import Delta
from repro.incremental.maintain import check_consistency
from repro.incremental.registry import ViewRegistry
from repro.query.parser import parse_program, parse_query
from repro.session import QuerySession

#: Worker-pool size for the suites; the CI ``parallel`` job pins it to 2.
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def sharded_config(shards):
    """A thread-mode sharded session config that partitions everything."""
    return EngineConfig(
        engine="sharded",
        shards=shards,
        workers=WORKERS,
        mode="thread",
        broadcast_threshold=0,
    )

#: A leaked process pool or shared-memory segment surfaces as a
#: ResourceWarning at gc/interpreter-shutdown time; fail loudly instead
#: of scrolling past.
pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestShardOf:
    def test_deterministic_and_in_range(self):
        rows = [("a", i) for i in range(50)] + [(None, "x"), (3.5, ())]
        for shard_count in (1, 2, 7):
            for row in rows:
                owner = shard_of(row, shard_count)
                assert 0 <= owner < shard_count
                assert owner == shard_of(row, shard_count)

    def test_partition_rows_is_a_partition(self):
        rows = [("r", i) for i in range(40)]
        fragments = partition_rows(rows, 4)
        assert sorted(row for frag in fragments for row in frag) == rows
        assert sum(len(frag) for frag in fragments) == len(rows)


class TestShardedDatabase:
    def _db(self, n=24):
        return random_database({"R": 2, "S": 2}, list(range(8)), n, seed=4)

    def test_fragments_partition_every_partitioned_relation(self):
        db = self._db()
        sharded = ShardedDatabase(db, 4, broadcast_threshold=0)
        for relation in db.relations():
            assert sharded.is_partitioned(relation)
            recovered = {}
            for shard in range(4):
                fragment = sharded.fragment(relation, shard)
                assert not set(recovered) & set(fragment)  # disjoint
                recovered.update(fragment)
            assert recovered == dict(db.facts(relation))

    def test_broadcast_threshold(self):
        db = AnnotatedDatabase.from_rows(
            {"Big": [("b", i) for i in range(20)], "Tiny": [("t",)]}
        )
        sharded = ShardedDatabase(db, 2, broadcast_threshold=8)
        assert sharded.partitioned_relations() == {"Big"}
        assert sharded.broadcast_relations() == {"Tiny"}
        assert sharded.owner_of("Tiny", ("t",)) is None
        assert sharded.owner_of("Big", ("b", 0)) in (0, 1)
        # Default threshold partitions nothing this small.
        assert DEFAULT_BROADCAST_THRESHOLD > 1
        assert not ShardedDatabase(db, 2).is_partitioned("Tiny")

    def test_relations_smaller_than_shard_count(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "c")]})
        db.declare_relation("Empty", 1)
        sharded = ShardedDatabase(db, 8, broadcast_threshold=0)
        fragments = [sharded.fragment("R", shard) for shard in range(8)]
        assert sum(len(fragment) for fragment in fragments) == 2
        assert sharded.payload().owned_facts("Empty", 3) == []

    def test_refresh_folds_change_log_incrementally(self):
        db = self._db()
        sharded = ShardedDatabase(db, 3, broadcast_threshold=0)
        epoch = sharded.epoch
        assert sharded.refresh() is False  # no changes: no epoch bump
        db.add("R", ("new", "row"))
        removed = next(iter(db.rows("S")))
        db.remove("S", removed)
        db.retag("R", ("new", "row"), "zz9")
        assert sharded.refresh() is True
        assert sharded.epoch == epoch + 1
        assert sharded.owner_of("R", ("new", "row")) == shard_of(
            ("new", "row"), 3
        )
        assert sharded.owner_of("S", removed) is None
        payload = sharded.payload()
        assert (("new", "row"), "zz9", shard_of(("new", "row"), 3)) in tuple(
            payload._relations["R"]
        )

    def test_refresh_promotes_and_demotes_across_threshold(self):
        db = AnnotatedDatabase.from_rows({"R": [("r", 0)]})
        sharded = ShardedDatabase(db, 2, broadcast_threshold=4)
        assert not sharded.is_partitioned("R")
        for i in range(1, 6):
            db.add("R", ("r", i))
        sharded.refresh()
        assert sharded.is_partitioned("R")  # promoted
        for i in range(6):
            if db.contains("R", ("r", i)) and db.cardinality("R") > 2:
                db.remove("R", ("r", i))
        sharded.refresh()
        assert not sharded.is_partitioned("R")  # demoted

    def test_refresh_without_change_log_rebuilds(self):
        db = AnnotatedDatabase(track_changes=False)
        for i in range(6):
            db.add("R", ("r", i))
        sharded = ShardedDatabase(db, 2, broadcast_threshold=0)
        db.add("R", ("r", 99))
        assert sharded.refresh() is True
        assert sharded.owner_of("R", ("r", 99)) is not None

    def test_payload_round_trips_through_pickle(self):
        import pickle

        sharded = ShardedDatabase(self._db(), 2, broadcast_threshold=0)
        payload = sharded.payload()
        clone = pickle.loads(pickle.dumps(payload))
        for relation in payload.relations():
            assert clone.facts(relation) == payload.facts(relation)
            for shard in range(2):
                assert clone.owned_facts(relation, shard) == (
                    payload.owned_facts(relation, shard)
                )

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(EvaluationError):
            ShardedDatabase(AnnotatedDatabase(), 0)

    def test_reprs_are_informative(self):
        sharded = ShardedDatabase(self._db(), 2, broadcast_threshold=0)
        assert "2 shards" in repr(sharded)
        assert "2 shards" in repr(sharded.payload())
        with QuerySession(self._db(), "hashjoin") as session:
            assert "engine=hashjoin" in repr(session)


# ----------------------------------------------------------------------
# Engine correctness on targeted shapes
# ----------------------------------------------------------------------
class TestShardedEngine:
    def _agree(self, query, db, **kwargs):
        kwargs.setdefault("shards", 4)
        kwargs.setdefault("workers", WORKERS)
        kwargs.setdefault("mode", "thread")
        kwargs.setdefault("broadcast_threshold", 0)
        assert evaluate_sharded(query, db) == evaluate_backtracking(query, db)
        assert evaluate_sharded(query, db, **kwargs) == (
            evaluate_backtracking(query, db)
        )

    def test_self_join_anchors_one_occurrence_only(self):
        # The anchored atom and the probe atom read the same relation;
        # restricting both would lose cross-fragment assignments.
        db = random_database({"R": 2}, ["a", "b", "c", "d"], 12, seed=8)
        self._agree(parse_query("ans(x, z) :- R(x, y), R(y, z)"), db)

    def test_broadcast_only_query_runs_on_one_shard(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "a")]})
        query = parse_query("ans(x) :- R(x, y), R(y, x)")
        with ShardedExecutor(
            db, shards=4, workers=WORKERS, mode="thread"
        ) as executor:
            assert executor.sharded_db.broadcast_relations() == {"R"}
            assert executor.evaluate(query) == evaluate_backtracking(query, db)

    def test_constants_diseqs_and_unions(self):
        db = random_database({"R": 2, "S": 1}, ["a", "b", "c"], 8, seed=2)
        query = parse_query(
            "ans(x) :- R(x, y), S(y), x != y\nans(x) :- R('a', x)"
        )
        self._agree(query, db)

    def test_unknown_relation_and_arity_mismatch_are_empty(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b")]})
        assert evaluate_sharded(
            parse_query("ans(x) :- Missing(x)"), db, shards=2, mode="thread"
        ) == {}
        assert evaluate_sharded(
            parse_query("ans(x) :- R(x)"), db, shards=2, mode="thread"
        ) == {}

    def test_rejects_aggregates_and_bad_mode(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", 1)]})
        with pytest.raises(EvaluationError):
            evaluate_sharded(parse_query("ans(sum(v)) :- R(x, v)"), db)
        with pytest.raises(EvaluationError):
            ShardedExecutor(db, mode="quantum")

    def test_closed_executor_refuses_work(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b")]})
        executor = ShardedExecutor(db, shards=2, mode="thread")
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(EvaluationError):
            executor.evaluate(parse_query("ans(x) :- R(x, y)"))

    def test_aggregate_states_merge_through_semimodule(self):
        db = random_database({"R": 2, "S": 2}, [0, 1, 2, 3], 14, seed=6)
        query = parse_query(
            "agg(x, sum(v), min(v), count(*)) :- R(x, y), S(y, v)"
        )
        reference = evaluate_aggregate(query, db, "backtrack")
        assert (
            evaluate_aggregate_sharded(
                query,
                db,
                shards=4,
                workers=WORKERS,
                mode="thread",
                broadcast_threshold=0,
            )
            == reference
        )
        # And through the evaluate_aggregate dispatch (process default).
        assert (
            evaluate_aggregate(
                query, db, EngineConfig(engine="sharded", shards=2)
            )
            == reference
        )

    def test_merge_aggregate_results_is_order_insensitive(self):
        db = random_database({"R": 2}, [0, 1, 2], 6, seed=9)
        query = parse_query("agg(x, max(y)) :- R(x, y)")
        partial_a = evaluate_aggregate(query, db)
        empty = {}
        merged = merge_aggregate_results([empty, partial_a, empty])
        assert merged == partial_a

    def test_evaluate_dispatch_and_unknown_engine(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "c")]})
        query = parse_query("ans(x, z) :- R(x, y), R(y, z)")
        config = EngineConfig(engine="sharded", shards=2, workers=1)
        assert evaluate(query, db, config) == evaluate_backtracking(query, db)
        assert provenance(
            query, db, ("a", "c"), config
        ) == evaluate_backtracking(query, db)[("a", "c")]
        with pytest.raises(EvaluationError):
            evaluate(query, db, "turbo")

    def test_one_shot_calls_can_share_an_executor(self):
        db = random_database({"R": 2, "S": 2}, [0, 1, 2], 10, seed=4)
        query = parse_query("ans(x) :- R(x, y)")
        aggregate = parse_query("agg(x, sum(v)) :- S(x, v)")
        with ShardedExecutor(
            db, shards=2, workers=WORKERS, mode="thread", broadcast_threshold=0
        ) as executor:
            assert evaluate_sharded(query, db, executor=executor) == (
                evaluate_backtracking(query, db)
            )
            assert evaluate_aggregate_sharded(
                aggregate, db, executor=executor
            ) == evaluate_aggregate(aggregate, db, "backtrack")
            # The caller-supplied executor survives the one-shot calls.
            assert executor.evaluate(query)


class TestProcessPool:
    """The pickled-payload path: small workloads, real worker processes."""

    def test_plain_and_aggregate_agree(self):
        db = random_database({"R": 2, "S": 2}, [0, 1, 2], 10, seed=13)
        query = parse_query("ans(x, v) :- R(x, y), S(y, v)")
        aggregate = parse_query("agg(x, sum(v)) :- R(x, y), S(y, v)")
        with ShardedExecutor(
            db, shards=2, workers=2, mode="process", broadcast_threshold=0
        ) as executor:
            assert executor.evaluate(query) == evaluate_backtracking(query, db)
            assert executor.evaluate_aggregate(aggregate) == (
                evaluate_aggregate(aggregate, db, "backtrack")
            )
            assert executor.mode == "process"

    def test_falls_back_to_threads_when_processes_unavailable(self, monkeypatch):
        def broken_pool(*_args, **_kwargs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(
            sharded_module.concurrent.futures,
            "ProcessPoolExecutor",
            broken_pool,
        )
        db = random_database({"R": 2}, ["a", "b"], 4, seed=1)
        query = parse_query("ans(x) :- R(x, y)")
        with ShardedExecutor(
            db, shards=2, workers=2, mode="process", broadcast_threshold=0
        ) as executor:
            assert executor.evaluate(query) == evaluate_backtracking(query, db)
            assert executor.mode == "thread"

    def test_falls_back_when_the_pool_breaks_mid_run(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        db = random_database({"R": 2}, ["a", "b"], 4, seed=2)
        query = parse_query("ans(x, y) :- R(x, y)")
        with ShardedExecutor(
            db, shards=2, workers=2, mode="process", broadcast_threshold=0
        ) as executor:
            reference = executor.evaluate(query)
            assert executor.mode == "process"

            def broken_submit(*_args, **_kwargs):
                raise BrokenProcessPool("worker died")

            monkeypatch.setattr(executor._pool, "submit", broken_submit)
            assert executor.evaluate(query) == reference
            assert executor.mode == "thread"


# ----------------------------------------------------------------------
# Shared-memory payload lifecycle
# ----------------------------------------------------------------------
class TestSharedMemoryLifecycle:
    """Columnar process pools ship the payload via one shared-memory
    segment; every exit path — close(), gc of a leaked executor, a
    worker crash — must unlink it (no strays in /dev/shm)."""

    QUERY = parse_query("ans(x, z) :- R(x, y), S(y, z)")

    def _db(self):
        return random_database({"R": 2, "S": 2}, ["a", "b", "c"], 9, seed=7)

    def _segment(self, executor):
        """The executor's live segment, skipping hosts without one."""
        executor.evaluate(self.QUERY)
        if executor.mode != "process" or executor._shm is None:
            executor.close()
            pytest.skip("no shared-memory transport on this host")
        return executor._shm

    @staticmethod
    def _assert_unlinked(name):
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_unlinks_segment(self):
        executor = ShardedExecutor(
            self._db(), shards=2, workers=WORKERS, mode="process"
        )
        name = self._segment(executor).name
        executor.close()
        assert executor._shm is None
        self._assert_unlinked(name)

    def test_finalizer_unlinks_segment_of_leaked_executor(self):
        import gc

        executor = ShardedExecutor(
            self._db(), shards=2, workers=WORKERS, mode="process"
        )
        name = self._segment(executor).name
        finalizer = executor._finalizer
        del executor
        gc.collect()
        assert not finalizer.alive
        self._assert_unlinked(name)

    def test_worker_crash_falls_back_and_unlinks(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        executor = ShardedExecutor(
            self._db(), shards=2, workers=WORKERS, mode="process"
        )
        with executor:
            reference = executor.evaluate(self.QUERY)
            name = self._segment(executor).name

            def broken_submit(*_args, **_kwargs):
                raise BrokenProcessPool("worker died")

            monkeypatch.setattr(executor._pool, "submit", broken_submit)
            assert executor.evaluate(self.QUERY) == reference
            assert executor.mode == "thread"
            assert executor._shm is None
            self._assert_unlinked(name)

    def test_segment_failure_falls_back_to_pickled_initargs(self, monkeypatch):
        monkeypatch.setattr(
            ShardedExecutor,
            "_create_segment",
            staticmethod(lambda _payload, _span: None),
        )
        db = self._db()
        with ShardedExecutor(
            db, shards=2, workers=WORKERS, mode="process"
        ) as executor:
            result = executor.evaluate(self.QUERY)
            assert executor._shm is None
            assert result == evaluate_backtracking(self.QUERY, db)

    def test_epoch_change_recreates_segment(self):
        db = self._db()
        executor = ShardedExecutor(
            db, shards=2, workers=WORKERS, mode="process"
        )
        with executor:
            first = self._segment(executor).name
            db.add("R", ("c", "a"), "s_new")
            executor.refresh()
            executor.evaluate(self.QUERY)
            if executor.mode != "process" or executor._shm is None:
                pytest.skip("no shared-memory transport on this host")
            second = executor._shm.name
            assert second != first
            self._assert_unlinked(first)
        self._assert_unlinked(second)


# ----------------------------------------------------------------------
# Intern-table merging (shard-local ids into a shared table)
# ----------------------------------------------------------------------
class TestInternMerge:
    def _random_local_table(self, rng, symbols):
        """A local table plus the monomial ids it handed out."""
        table = InternTable()
        ids = []
        for _ in range(rng.randrange(3, 12)):
            monomial = table.one
            for _ in range(rng.randrange(0, 4)):
                monomial = table.times_symbol(
                    monomial, table.symbol_id(rng.choice(symbols))
                )
            ids.append(monomial)
        return table, ids

    @pytest.mark.parametrize("seed", range(12))
    def test_remap_preserves_monomial_identity(self, seed):
        rng = random.Random(seed)
        symbols = ["s{}".format(i) for i in range(6)]
        target = InternTable()
        target.symbol_id("pre-existing")  # ids must not be assumed aligned
        local, ids = self._random_local_table(rng, symbols)
        remapper = InternRemapper(target)
        remapper.extend(*local.export_state())
        mapping = remapper.mapping()
        for monomial_id in ids:
            assert str(target.monomial(mapping[monomial_id])) == str(
                local.monomial(monomial_id)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_extend_in_two_slices_equals_one(self, seed):
        """A worker's log arrives as contiguous deltas; splicing them
        slice by slice must map exactly like one full export."""
        rng = random.Random(500 + seed)
        symbols = ["s{}".format(i) for i in range(6)]
        local, first_ids = self._random_local_table(rng, symbols)
        symbol_mark = local.sizes()["symbols"]
        monomial_mark = local.sizes()["monomials"]
        first_slice = local.export_range(0, 0)
        later_ids = []
        for _ in range(rng.randrange(1, 8)):
            monomial = local.one
            for _ in range(rng.randrange(1, 4)):
                symbol = local.symbol_id("t{}".format(rng.randrange(4)))
                monomial = local.times_symbol(monomial, symbol)
            later_ids.append(monomial)
        second_slice = local.export_range(symbol_mark, monomial_mark)

        target = InternTable()
        target.symbol_id("pre-existing")
        sliced = InternRemapper(target)
        sliced.extend(*first_slice)
        assert sliced.mapped_monomials == monomial_mark
        sliced.extend(*second_slice)
        whole = InternRemapper(target)
        whole.extend(*local.export_state())
        assert sliced.mapped_symbols == whole.mapped_symbols
        assert sliced.mapping() == whole.mapping()
        for monomial_id in first_ids + later_ids:
            assert str(target.monomial(sliced.mapping()[monomial_id])) == str(
                local.monomial(monomial_id)
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_merge_order_does_not_change_polynomials(self, seed):
        """Random interleavings of shard tables merge identically."""
        rng = random.Random(1000 + seed)
        symbols = ["s{}".format(i) for i in range(5)]
        shards = []
        for _ in range(4):
            local, ids = self._random_local_table(rng, symbols)
            annotation = {
                monomial_id: rng.randrange(1, 4)
                for monomial_id in set(ids)
            }
            shards.append((local, annotation))

        def merged_polynomial(order):
            target = InternTable()
            combined = {}
            for index in order:
                local, annotation = shards[index]
                remapper = InternRemapper(target)
                remapper.extend(*local.export_state())
                mapping = remapper.mapping()
                for monomial_id, coefficient in annotation.items():
                    key = mapping[monomial_id]
                    combined[key] = combined.get(key, 0) + coefficient
            return target.polynomial(combined)

        orders = [list(range(4)) for _ in range(3)]
        for order in orders[1:]:
            rng.shuffle(order)
        baseline = merged_polynomial(orders[0])
        for order in orders[1:]:
            assert merged_polynomial(order) == baseline

    def test_merge_after_swap_stays_on_the_pinned_table(self, monkeypatch):
        """Regression: a shared-table swap mid-merge must not strand ids.

        A remapper pins the table it was created on; forcing
        :func:`shared_intern` to swap between two extended slices must
        neither corrupt the merge nor make decodes disagree.
        """
        pinned = intern_module.shared_intern()
        local = InternTable()
        first = local.times_symbol(local.one, local.symbol_id("alpha"))
        remapper = InternRemapper(pinned)
        remapper.extend(*local.export_range(0, 0))
        second = local.times_symbol(first, local.symbol_id("beta"))

        monkeypatch.setattr(intern_module, "MAX_SHARED_ENTRIES", 0)
        swapped = intern_module.shared_intern()  # the swap happens here
        assert swapped is not pinned

        # The second slice continues on the pinned table.
        remapper.extend(
            *local.export_range(
                remapper.mapped_symbols, remapper.mapped_monomials
            )
        )
        mapping = remapper.mapping()
        assert str(pinned.monomial(mapping[first])) == "alpha"
        assert str(pinned.monomial(mapping[second])) == "alpha*beta"
        # The MAX_SHARED_ENTRIES bound still governs the shared table:
        # every oversized call starts another fresh table.
        assert intern_module.shared_intern() is not swapped or (
            swapped.entry_count() <= 0
        )

    def test_bounded_growth_swap_respected_under_merging(self, monkeypatch):
        """Merging never resurrects an oversized shared table."""
        monkeypatch.setattr(intern_module, "MAX_SHARED_ENTRIES", 4)
        table = intern_module.shared_intern()
        local = InternTable()
        ids = []
        monomial = local.one
        for index in range(8):
            monomial = local.times_symbol(
                monomial, local.symbol_id("g{}".format(index))
            )
            ids.append(monomial)
        InternRemapper(table).extend(*local.export_state())
        assert table.entry_count() > 4
        assert intern_module.shared_intern() is not table


# ----------------------------------------------------------------------
# QuerySession
# ----------------------------------------------------------------------
class TestQuerySession:
    def _db(self):
        return random_database(
            {"R": 2, "S": 1}, ["a", "b", "c", "d"], 14, seed=21
        )

    def test_batch_groups_by_cached_plan(self):
        db = self._db()
        chain = parse_query("ans(x, z) :- R(x, y), R(y, z)")
        union = parse_query(
            "ans(x, z) :- R(x, y), R(y, z)\nans(x, x) :- R(x, x)"
        )
        with QuerySession(db, sharded_config(shards=2)) as session:
            first = session.evaluate_batch([chain, union, chain])
            stats = session.stats()
            # The chain adjunct is shared by all three queries but
            # evaluated (and planned) once.
            assert stats["memoized_adjuncts"] == 2
            assert stats["plan_cache"]["misses"] == 2
            again = session.evaluate(chain)
            assert session.stats()["memo_hits"] >= 1
        assert first[0] == again == evaluate_backtracking(chain, db)
        assert first[1] == evaluate_backtracking(union, db)
        assert first[2] == first[0]

    def test_mixed_plain_and_aggregate_batch_preserves_order(self):
        db = random_database({"R": 2, "S": 2}, [0, 1, 2], 9, seed=3)
        plain = parse_query("ans(x) :- R(x, y)")
        aggregate = parse_query("agg(x, sum(v)) :- S(x, v)")
        with QuerySession(db, sharded_config(shards=2)) as session:
            results = session.evaluate_batch([aggregate, plain, aggregate])
        assert results[0] == evaluate_aggregate(db=db, query=aggregate)
        assert results[1] == evaluate_backtracking(plain, db)
        assert results[2] == results[0]

    def test_auto_refresh_on_database_change_keeps_partitioning_warm(self):
        db = self._db()
        query = parse_query("ans(x) :- R(x, y)")
        with QuerySession(db, sharded_config(shards=2)) as session:
            before = session.evaluate(query)
            sharded_db = session.executor.sharded_db
            pool = session.executor._pool
            db.add("R", ("zz", "zz"))
            after = session.evaluate(query)
            assert session.executor.sharded_db is sharded_db  # warm, not rebuilt
            # Thread pools hold no payload snapshot: no churn on change.
            assert session.executor._pool is pool
            assert session.stats()["refreshes"] == 1
        assert before != after
        assert after == evaluate_backtracking(query, db)

    def test_session_pins_intern_table_across_forced_swap(self, monkeypatch):
        """Regression: a shared_intern() swap mid-session must not strand
        the memoized interned annotations a batch decodes later."""
        db = self._db()
        query = parse_query("ans(x, z) :- R(x, y), R(y, z)")
        other = parse_query("ans(y) :- R(x, y), S(y)")
        session = QuerySession(db, sharded_config(shards=2))
        try:
            pinned = session.intern_table
            first = session.evaluate(query)
            # Force every shared_intern() call from here on to swap.
            monkeypatch.setattr(intern_module, "MAX_SHARED_ENTRIES", 0)
            assert intern_module.shared_intern() is not pinned
            # The memoized annotations of `query` decode against the
            # pinned table next to freshly evaluated ones.
            second, third = session.evaluate_batch([query, other])
            assert session.intern_table is pinned
            assert second == first == evaluate_backtracking(query, db)
            assert third == evaluate_backtracking(other, db)
        finally:
            session.close()

    def test_hashjoin_session_matches_sharded_session(self):
        db = self._db()
        queries = [
            parse_query("ans(x, z) :- R(x, y), R(y, z), x != z"),
            parse_query("agg(x, count(*)) :- R(x, y)"),
        ]
        with QuerySession(db, "hashjoin") as plain_session:
            plain = plain_session.evaluate_batch(queries)
            assert plain_session.executor is None
        with QuerySession(db, sharded_config(shards=3)) as sharded_session:
            sharded = sharded_session.evaluate_batch(queries)
        assert plain == sharded

    def test_evaluate_type_guards_and_close(self):
        db = self._db()
        plain = parse_query("ans(x) :- R(x, y)")
        aggregate = parse_query("agg(count(*)) :- R(x, y)")
        session = QuerySession(db, "hashjoin")
        with pytest.raises(EvaluationError):
            session.evaluate(aggregate)
        with pytest.raises(EvaluationError):
            session.evaluate_aggregate(plain)
        session.close()
        with pytest.raises(EvaluationError):
            session.evaluate(plain)
        with pytest.raises(EvaluationError):
            QuerySession(db, "quantum")


# ----------------------------------------------------------------------
# Incremental registry on the sharded engine
# ----------------------------------------------------------------------
class TestShardedRegistry:
    PROGRAM = (
        "V(x, z) :- R(x, y), S(y, z)\n"
        "W(x) :- V(x, y), V(y, x)\n"
        "agg(x, count(*)) :- R(x, y)"
    )

    def test_materialization_matches_default_engine(self):
        db = random_database({"R": 2, "S": 2}, list(range(5)), 20, seed=17)
        program = parse_program(self.PROGRAM)
        sharded = ViewRegistry(
            program,
            db,
            config=EngineConfig(engine="sharded", shards=2, workers=WORKERS),
        )
        default = ViewRegistry(program, db)
        for name in default.order:
            assert sharded.base_provenance(name) == default.base_provenance(name)

    def test_refresh_loop_keeps_partitioning_warm_and_consistent(self):
        db = random_database({"R": 2, "S": 2}, list(range(5)), 20, seed=18)
        registry = ViewRegistry(
            parse_program(self.PROGRAM),
            db,
            config=EngineConfig(engine="sharded", shards=2, workers=WORKERS),
        )
        assert registry.session is not None
        sharded_db = registry.session.executor.sharded_db
        epoch_before = sharded_db.epoch
        for index in range(3):
            registry.apply(Delta(inserts=[("R", ("p{}".format(index), 0))]))
            assert check_consistency(registry).consistent
        # Same partitioning object, refreshed through the change log.
        assert registry.session.executor.sharded_db is sharded_db
        assert sharded_db.epoch > epoch_before

    def test_change_log_is_pruned_per_batch(self):
        db = random_database({"R": 2, "S": 2}, list(range(4)), 12, seed=19)
        with ViewRegistry(
            parse_program("V(x, z) :- R(x, y), S(y, z)"),
            db,
            config=EngineConfig(engine="sharded", shards=2, workers=WORKERS),
        ) as registry:
            for index in range(5):
                registry.apply(Delta(inserts=[("R", ("q{}".format(index), 0))]))
                # Every record the partitioning consumed is dropped — a
                # long refresh loop's memory stays bounded.
                assert registry.session.executor.sharded_db._db.changes_since(0) == []
            assert check_consistency(registry).consistent

    def test_session_serves_queries_over_maintained_views(self):
        db = random_database({"R": 2, "S": 2}, list(range(4)), 14, seed=23)
        with ViewRegistry(
            parse_program("V(x, z) :- R(x, y), S(y, z)"),
            db,
            config=EngineConfig(engine="sharded", shards=2, workers=WORKERS),
        ) as registry:
            registry.apply(Delta(inserts=[("R", ("fresh", 0))]))
            served = registry.session.evaluate(
                parse_query("ans(x, z) :- V(x, z)")
            )
            assert set(served) == set(registry.view("V"))
            for row, polynomial in served.items():
                assert str(polynomial) == registry.symbol_of("V", row)

    def test_maintain_refresh_preserves_engine_configuration(self):
        from repro.incremental.maintain import refresh

        db = random_database({"R": 2}, list(range(3)), 6, seed=2)
        with ViewRegistry(
            parse_program("V(x) :- R(x, y)"),
            db,
            config=EngineConfig(engine="sharded", shards=2, workers=WORKERS),
        ) as registry:
            rebuilt = refresh(registry)
            try:
                assert rebuilt.engine == "sharded"
                assert rebuilt.engine_options == {
                    "shards": 2, "workers": WORKERS,
                }
                assert rebuilt.session is not None
                assert rebuilt.base_provenance("V") == (
                    registry.base_provenance("V")
                )
            finally:
                rebuilt.close()

    def test_close_is_idempotent(self):
        db = random_database({"R": 2}, ["a", "b"], 3, seed=1)
        registry = ViewRegistry(
            parse_program("V(x) :- R(x, y)"),
            db,
            config=EngineConfig(engine="sharded", shards=2),
        )
        registry.close()
        registry.close()
        assert ViewRegistry(parse_program("V(x) :- R(x, y)"), db).session is None

    def test_rejects_unknown_engine(self):
        db = random_database({"R": 2}, ["a"], 1, seed=0)
        with pytest.raises(EvaluationError):
            ViewRegistry(
                parse_program("V(x) :- R(x, y)"), db, config="quantum"
            )
