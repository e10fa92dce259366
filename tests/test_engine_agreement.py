"""Differential tests: every evaluation engine must agree exactly.

The backtracking engine (Defs. 2.6/2.12 literally), the SQLite-compiled
engine, the set-at-a-time hash-join engine and the shard-parallel
engine (at every shard count) all compute annotated results; on every
query and database they must produce identical polynomial tables — and,
for aggregate queries, identical semimodule annotation tables, tensor
for tensor.  The backtracking engine is the reference implementation;
the others are checked against it (and hence against each other).
"""

import os

import pytest

from repro.aggregate import evaluate_aggregate
from repro.config import EngineConfig
from repro.db.generators import (
    all_databases,
    chain_query,
    cycle_query,
    random_cq,
    random_database,
    random_ucq,
    star_query,
)
from repro.db.sqlite_backend import SQLiteDatabase
from repro.engine.evaluate import evaluate, evaluate_backtracking
from repro.engine.hashjoin import evaluate_hashjoin
from repro.engine.sharded import (
    evaluate_aggregate_sharded,
    evaluate_sharded,
)
from repro.query.parser import parse_query

#: Worker-pool size of the sharded runs; the CI ``parallel`` job pins
#: it to 2 explicitly.
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def assert_engines_agree(query, db):
    """Backtracking ≡ SQLite ≡ hash join, polynomial for polynomial."""
    reference = evaluate_backtracking(query, db)
    store = SQLiteDatabase.from_annotated(db)
    via_sql = store.evaluate(query)
    store.close()
    assert reference == via_sql
    assert reference == evaluate_hashjoin(query, db)
    assert reference == evaluate(query, db)  # default dispatch


def assert_aggregate_engines_agree(query, db):
    """Backtracking ≡ SQLite ≡ hash join, tensor for tensor."""
    reference = evaluate_aggregate(query, db, "backtrack")
    store = SQLiteDatabase.from_annotated(db)
    via_sql = store.evaluate_aggregate(query)
    store.close()
    assert reference == via_sql
    assert reference == evaluate_aggregate(query, db, "hashjoin")


class TestPaperInstances:
    def test_figure1_on_table2(self, fig1, db_table2):
        assert_engines_agree(fig1.q_union, db_table2)
        assert_engines_agree(fig1.q_conj, db_table2)

    def test_figure2_on_tables45(self, fig2, db_table4, db_table5):
        for db in (db_table4, db_table5):
            assert_engines_agree(fig2.q_no_pmin, db)
            assert_engines_agree(fig2.q_alt, db)

    def test_qhat_on_table6(self, qhat, db_table6):
        assert_engines_agree(qhat, db_table6)


class TestJoinShapes:
    @pytest.mark.parametrize("shape", [chain_query(3), star_query(3), cycle_query(3)])
    def test_shapes_on_random_graph(self, shape):
        db = random_database({"R": 2}, ["a", "b", "c"], 6, seed=11)
        assert_engines_agree(shape, db)


class TestRandomized:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_cqs(self, seed):
        query = random_cq(
            seed=seed,
            n_atoms=3,
            n_variables=3,
            diseq_probability=0.3 if seed % 2 else 0.0,
        )
        db = random_database({"R": 2, "S": 1}, ["a", "b", "c"], 5, seed=seed)
        assert_engines_agree(query, db)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_unions(self, seed):
        query = random_ucq(seed=seed, n_adjuncts=2, n_atoms=2, n_variables=3)
        db = random_database({"R": 2, "S": 1}, ["a", "b"], 4, seed=seed)
        assert_engines_agree(query, db)

    def test_constants_and_diseqs(self):
        query = parse_query("ans(x) :- R(x, y), S(y), x != 'a', x != y")
        for db in all_databases({"R": 2, "S": 1}, ["a", "b"], max_facts=3):
            assert_engines_agree(query, db)


class TestThreeEngineDifferential:
    """The 60-seed property suite: one random workload per seed.

    Each seed derives a random database plus a random query family —
    a conjunctive query with seed-dependent disequality density, a
    union, and (in the aggregate class below) a grouped aggregate —
    and asserts exact three-way agreement.  Seeds vary the domain,
    database size and query shape so the suite sweeps empty results,
    cartesian products, self-joins and disequality filtering.
    """

    SEEDS = range(60)

    @staticmethod
    def _database(seed, domain_size=4):
        domain = ["d{}".format(i) for i in range(2 + seed % domain_size)]
        return random_database(
            {"R": 2, "S": 1, "T": 2},
            domain,
            n_facts=4 + seed % 7,
            seed=seed,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conjunctive_queries(self, seed):
        query = random_cq(
            seed=seed,
            n_atoms=2 + seed % 3,
            n_variables=3,
            relations={"R": 2, "S": 1, "T": 2},
            head_arity=1 + seed % 2,
            diseq_probability=(seed % 4) * 0.25,
        )
        assert_engines_agree(query, self._database(seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unions(self, seed):
        query = random_ucq(
            seed=seed,
            n_adjuncts=2 + seed % 2,
            n_atoms=2,
            n_variables=3,
            relations={"R": 2, "S": 1, "T": 2},
            diseq_probability=0.3 if seed % 2 else 0.0,
        )
        assert_engines_agree(query, self._database(seed))


class TestThreeEngineAggregates:
    """Tensor-for-tensor agreement on aggregate queries, 60 seeds."""

    OPS = ("sum", "count", "min", "max")

    @pytest.mark.parametrize("seed", range(60))
    def test_aggregate_workloads(self, seed):
        op = self.OPS[seed % len(self.OPS)]
        if seed % 3 == 0:
            text = "agg(x, {}(v), count(*)) :- R(x, y), S(y, v)".format(op)
        elif seed % 3 == 1:
            text = (
                "agg(x, {}(v)) :- R(x, v)\n"
                "agg(x, {}(w)) :- S(x, w)".format(op, op)
            )
        else:
            text = "agg({}(v)) :- R(x, v), S(v, y), x != y".format(op)
        query = parse_query(text)
        db = random_database(
            {"R": 2, "S": 2}, list(range(4 + seed % 3)), 5 + seed % 8, seed=seed
        )
        assert_aggregate_engines_agree(query, db)


class TestCrossShardDifferential:
    """The 60-seed cross-shard suite: shard counts must be invisible.

    ``sharded(1) ≡ sharded(2) ≡ sharded(4) ≡ sharded(8) ≡ hashjoin ≡
    backtrack`` — polynomial-identical on CQ≠/UCQ≠, tensor-identical on
    aggregates.  Seeds sweep the shard-specific hazards on top of the
    usual query-shape ones: empty relations, relations smaller than the
    shard count (some shards own nothing), broadcast thresholds from
    "partition everything" to "broadcast everything" (anchorless plans
    run on a single shard), self-joins over partitioned relations, and
    databases whose every relation is broadcast.
    """

    SEEDS = range(60)
    SHARD_COUNTS = (1, 2, 4, 8)
    RELATIONS = {"R": 2, "S": 1, "T": 2}

    @staticmethod
    def _database(seed):
        domain = ["d{}".format(i) for i in range(2 + seed % 4)]
        db = random_database(
            TestCrossShardDifferential.RELATIONS,
            domain,
            n_facts=3 + seed % 9,  # some relations end up below any shard count
            seed=seed,
        )
        if seed % 5 == 0:
            # Drain one relation: declared but empty.
            for row in db.rows("S"):
                db.remove("S", row)
        return db

    @staticmethod
    def _threshold(seed):
        # 0 partitions everything (every fragment exercised), 2 mixes
        # broadcast and partitioned relations, 16 broadcasts these
        # small databases entirely (single-shard anchorless path).
        return (0, 2, 16)[seed % 3]

    @classmethod
    def _assert_shards_agree(cls, query, db, seed):
        reference = evaluate_backtracking(query, db)
        assert evaluate_hashjoin(query, db) == reference
        for shards in cls.SHARD_COUNTS:
            sharded = evaluate_sharded(
                query,
                db,
                shards=shards,
                workers=WORKERS,
                mode="thread",
                broadcast_threshold=cls._threshold(seed),
            )
            assert sharded == reference, "diverged at {} shards".format(shards)

    @classmethod
    def _assert_aggregate_shards_agree(cls, query, db, seed):
        reference = evaluate_aggregate(query, db, "backtrack")
        assert evaluate_aggregate(query, db, "hashjoin") == reference
        for shards in cls.SHARD_COUNTS:
            sharded = evaluate_aggregate_sharded(
                query,
                db,
                shards=shards,
                workers=WORKERS,
                mode="thread",
                broadcast_threshold=cls._threshold(seed),
            )
            assert sharded == reference, "diverged at {} shards".format(shards)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conjunctive_queries(self, seed):
        query = random_cq(
            seed=seed,
            n_atoms=2 + seed % 3,
            n_variables=3,
            relations=self.RELATIONS,
            head_arity=1 + seed % 2,
            diseq_probability=(seed % 4) * 0.25,
        )
        self._assert_shards_agree(query, self._database(seed), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unions(self, seed):
        query = random_ucq(
            seed=seed,
            n_adjuncts=2 + seed % 2,
            n_atoms=2,
            n_variables=3,
            relations=self.RELATIONS,
            diseq_probability=0.3 if seed % 2 else 0.0,
        )
        self._assert_shards_agree(query, self._database(seed), seed)

    OPS = ("sum", "count", "min", "max")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_aggregates(self, seed):
        op = self.OPS[seed % len(self.OPS)]
        if seed % 3 == 0:
            text = "agg(x, {}(v), count(*)) :- R(x, y), T(y, v)".format(op)
        elif seed % 3 == 1:
            text = (
                "agg(x, {}(v)) :- R(x, v)\n"
                "agg(x, {}(w)) :- T(x, w)".format(op, op)
            )
        else:
            text = "agg({}(v)) :- R(x, v), T(v, y), x != y".format(op)
        db = random_database(
            {"R": 2, "T": 2},
            list(range(4 + seed % 3)),
            n_facts=5 + seed % 8,
            seed=seed,
        )
        if seed % 7 == 0:
            for row in db.rows("T"):  # empty relation inside a join
                db.remove("T", row)
        self._assert_aggregate_shards_agree(parse_query(text), db, seed)


class TestAggregates:
    @pytest.mark.parametrize("op", ["sum", "count", "min", "max"])
    def test_operators_on_join(self, op):
        query = parse_query(
            "agg(x, {}(v)) :- R(x, y), S(y, v)".format(op)
        )
        db = random_database({"R": 2, "S": 2}, [0, 1, 2], 8, seed=3)
        assert_aggregate_engines_agree(query, db)

    def test_union_rules_and_count_star(self):
        query = parse_query(
            "agg(x, sum(v), count(*)) :- R(x, v)\n"
            "agg(x, sum(w), count(*)) :- S(x, w)"
        )
        db = random_database({"R": 2, "S": 2}, [0, 1, 2], 7, seed=5)
        assert_aggregate_engines_agree(query, db)

    def test_constants_and_diseqs_in_aggregate_bodies(self):
        query = parse_query("agg(min(y)) :- R(x, y), R(y, x), x != y")
        for db in all_databases({"R": 2}, [0, 1], max_facts=3):
            assert_aggregate_engines_agree(query, db)

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_small_instances(self, seed):
        query = parse_query("agg(x, sum(v), min(v)) :- R(x, v), S(v, y)")
        db = random_database({"R": 2, "S": 2}, [0, 1, 2], 6, seed=seed)
        assert_aggregate_engines_agree(query, db)


class TestColumnarVsDictDifferential:
    """The sharded engine's one result path, reached through the config.

    Named for the dict-of-dicts merge it was once held equal to; that
    path is gone, and the flat-column kernels (``ColumnarTable`` +
    vectorized counter-merge + lazy decode) are the only shard merge
    left.  Where the cross-shard suite calls the executor directly,
    this one goes through ``evaluate``/``evaluate_aggregate`` with an
    :class:`~repro.EngineConfig`, the spelling every caller uses: over
    the 60-seed sweep it must be polynomial-identical to backtracking
    at every shard count, and tensor-identical on aggregates.
    """

    SEEDS = range(60)
    SHARD_COUNTS = (1, 2, 4)

    _database = staticmethod(TestCrossShardDifferential._database)
    _threshold = staticmethod(TestCrossShardDifferential._threshold)

    @classmethod
    def _config(cls, shards, seed):
        return EngineConfig(
            engine="sharded",
            shards=shards,
            workers=WORKERS,
            mode="thread",
            broadcast_threshold=cls._threshold(seed),
        )

    @classmethod
    def _assert_matches_backtracking(cls, query, db, seed):
        reference = evaluate_backtracking(query, db)
        for shards in cls.SHARD_COUNTS:
            sharded = evaluate(query, db, cls._config(shards, seed))
            assert sharded == reference, (
                "diverged at {} shards".format(shards)
            )

    @classmethod
    def _assert_aggregate_matches_backtracking(cls, query, db, seed):
        reference = evaluate_aggregate(query, db, "backtrack")
        for shards in cls.SHARD_COUNTS:
            sharded = evaluate_aggregate(query, db, cls._config(shards, seed))
            assert sharded == reference, (
                "diverged at {} shards".format(shards)
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conjunctive_queries(self, seed):
        query = random_cq(
            seed=seed,
            n_atoms=2 + seed % 3,
            n_variables=3,
            relations=TestCrossShardDifferential.RELATIONS,
            head_arity=1 + seed % 2,
            diseq_probability=(seed % 4) * 0.25,
        )
        self._assert_matches_backtracking(query, self._database(seed), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unions(self, seed):
        query = random_ucq(
            seed=seed,
            n_adjuncts=2 + seed % 2,
            n_atoms=2,
            n_variables=3,
            relations=TestCrossShardDifferential.RELATIONS,
            diseq_probability=0.3 if seed % 2 else 0.0,
        )
        self._assert_matches_backtracking(query, self._database(seed), seed)

    @pytest.mark.parametrize("seed", range(0, 60, 4))
    def test_aggregates(self, seed):
        op = ("sum", "count", "min", "max")[seed % 4]
        text = "agg(x, {}(v), count(*)) :- R(x, y), T(y, v)".format(op)
        db = random_database(
            {"R": 2, "T": 2},
            list(range(4 + seed % 3)),
            n_facts=5 + seed % 8,
            seed=seed,
        )
        self._assert_aggregate_matches_backtracking(
            parse_query(text), db, seed
        )
