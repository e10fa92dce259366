"""Unit tests for the hash-join engine, the intern table and plan cache."""

import pytest

from repro.algebra.intern import InternTable
from repro.db.generators import (
    chain_query,
    cycle_query,
    random_database,
    star_query,
    uniform_binary_database,
)
from repro.db.instance import AnnotatedDatabase
from repro.engine.evaluate import evaluate, evaluate_backtracking
from repro.engine.hashjoin import (
    clear_plan_cache,
    compile_cq,
    default_plan_cache,
    evaluate_aggregate_hashjoin,
    evaluate_hashjoin,
    plan_for,
)
from repro.engine.plan_cache import PlanCache, cardinality_band, greedy_order
from repro.errors import EvaluationError
from repro.incremental.delta import Delta
from repro.incremental.maintain import check_consistency
from repro.incremental.registry import ViewRegistry
from repro.query.parser import parse_program, parse_query
from repro.semiring.polynomial import Polynomial


# ----------------------------------------------------------------------
# Intern table
# ----------------------------------------------------------------------
class TestInternTable:
    def test_symbol_ids_are_stable(self):
        table = InternTable()
        assert table.symbol_id("s1") == table.symbol_id("s1")
        assert table.symbol(table.symbol_id("s1")) == "s1"

    def test_times_symbol_is_memoized_and_commutative(self):
        table = InternTable()
        a, b = table.symbol_id("a"), table.symbol_id("b")
        ab = table.times_symbol(table.times_symbol(table.one, a), b)
        ba = table.times_symbol(table.times_symbol(table.one, b), a)
        assert ab == ba  # interned monomials are canonical (sorted)
        assert str(table.monomial(ab)) == "a*b"

    def test_decodes_exponents(self):
        table = InternTable()
        s = table.symbol_id("s")
        m = table.one
        for _ in range(3):
            m = table.times_symbol(m, s)
        assert str(table.monomial(m)) == "s^3"
        assert table.polynomial({m: 2}) == Polynomial.parse("2*s^3")

    def test_clear_resets_ids(self):
        table = InternTable()
        table.symbol_id("z")
        table.clear()
        assert table.sizes() == {"symbols": 0, "monomials": 1, "products": 0}
        assert table.polynomial({table.one: 1}) == Polynomial.one()

    def test_shared_intern_swaps_when_oversized(self, monkeypatch):
        import repro.algebra.intern as intern_module

        first = intern_module.shared_intern()
        assert intern_module.shared_intern() is first  # stable under limit
        monkeypatch.setattr(intern_module, "MAX_SHARED_ENTRIES", 0)
        first.symbol_id("overflow")  # entry_count now > 0
        replacement = intern_module.shared_intern()
        assert replacement is not first
        assert intern_module.GLOBAL_INTERN is replacement
        # The old table still works for an in-flight evaluation.
        assert first.symbol(first.symbol_id("overflow")) == "overflow"

    def test_concurrent_interning_is_consistent(self):
        import threading

        table = InternTable()
        symbols = ["s{}".format(i) for i in range(200)]
        errors = []

        def worker():
            try:
                for symbol in symbols:
                    monomial = table.times_symbol(
                        table.one, table.symbol_id(symbol)
                    )
                    assert str(table.monomial(monomial)) == symbol
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # One id per symbol: no duplicate assignment slipped through.
        assert table.sizes()["symbols"] == len(symbols)
        for symbol in symbols:
            assert table.symbol(table.symbol_id(symbol)) == symbol


# ----------------------------------------------------------------------
# Engine correctness on targeted shapes
# ----------------------------------------------------------------------
class TestHashJoinEngine:
    def _agree(self, query, db):
        assert evaluate_hashjoin(query, db) == evaluate_backtracking(query, db)

    @pytest.mark.parametrize(
        "query",
        [chain_query(3), star_query(3), cycle_query(3)],
        ids=["chain", "star", "cycle"],
    )
    def test_join_shapes(self, query):
        db = random_database({"R": 2}, ["a", "b", "c", "d"], 9, seed=7)
        self._agree(query, db)

    def test_constants_everywhere(self):
        db = AnnotatedDatabase.from_rows(
            {"R": [("a", "b"), ("a", "a"), ("b", "a")]}
        )
        self._agree(parse_query("ans('k', x) :- R('a', x), x != 'b'"), db)

    def test_repeated_variables(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "a"), ("a", "b")]})
        self._agree(parse_query("ans(x, x) :- R(x, x)"), db)

    def test_cartesian_product(self):
        db = AnnotatedDatabase.from_rows({"R": [("a",)], "S": [("b",), ("c",)]})
        self._agree(parse_query("ans(x, y) :- R(x), S(y)"), db)

    def test_unknown_relation_is_empty(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b")]})
        assert evaluate_hashjoin(parse_query("ans(x) :- Missing(x)"), db) == {}

    def test_arity_mismatch_is_empty(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b")]})
        assert evaluate_hashjoin(parse_query("ans(x) :- R(x)"), db) == {}

    def test_diseq_between_late_bound_variables(self):
        # x and z bind at different steps; the check must wait for both.
        db = random_database({"R": 2}, ["a", "b", "c"], 7, seed=3)
        self._agree(parse_query("ans(x, z) :- R(x, y), R(y, z), x != z"), db)

    def test_coefficients_from_projection(self):
        # Projecting y away merges derivations: coefficient 2 appears.
        db = AnnotatedDatabase.from_dict(
            {"R": {("a", "b"): "s1", ("a", "c"): "s2"}, "S": {("a",): "s3"}}
        )
        result = evaluate_hashjoin(parse_query("ans(x) :- R(x, y), S(x)"), db)
        assert result[("a",)] == Polynomial.parse("s1*s3 + s2*s3")

    def test_rejects_aggregate_queries(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", 1)]})
        with pytest.raises(EvaluationError):
            evaluate_hashjoin(parse_query("ans(sum(v)) :- R(x, v)"), db)

    def test_unknown_engine_name_rejected(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b")]})
        with pytest.raises(EvaluationError):
            evaluate(parse_query("ans(x) :- R(x, y)"), db, "quantum")


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_hit_on_repeated_evaluation(self):
        cache = PlanCache()
        db = random_database({"R": 2}, ["a", "b", "c"], 6, seed=1)
        query = chain_query(3)
        evaluate_hashjoin(query, db, cache=cache)
        misses_after_first = cache.stats()["misses"]
        evaluate_hashjoin(query, db, cache=cache)
        stats = cache.stats()
        assert stats["misses"] == misses_after_first  # no recompile
        assert stats["hits"] >= 1

    def test_same_band_reuses_plan(self):
        cache = PlanCache()
        db = random_database({"R": 2}, ["a", "b", "c", "d"], 9, seed=2)
        query = chain_query(2)
        plan_a = plan_for(query, db, cache=cache)
        db.add("R", ("zz", "zz"))  # 9 -> 10 stays inside band 4 (8..15)
        plan_b = plan_for(query, db, cache=cache)
        assert plan_a is plan_b
        assert cache.stats()["hits"] == 1

    def test_band_crossing_invalidates(self):
        cache = PlanCache()
        db = AnnotatedDatabase.from_rows(
            {"R": [("a", str(i)) for i in range(7)]}
        )
        query = chain_query(2)
        plan_small = plan_for(query, db, cache=cache)
        db.add("R", ("a", "x7"))  # 7 -> 8 crosses into band 4
        plan_large = plan_for(query, db, cache=cache)
        assert cardinality_band(7) != cardinality_band(8)
        assert plan_small is not plan_large
        assert cache.stats()["misses"] == 2

    def test_profile_includes_arity(self):
        cache = PlanCache()
        query = parse_query("ans(x) :- R(x, y)")
        binary = AnnotatedDatabase.from_rows({"R": [("a", "b")]})
        unary = AnnotatedDatabase.from_rows({"R": [("a",)]})
        assert plan_for(query, binary, cache=cache).satisfiable
        assert not plan_for(query, unary, cache=cache).satisfiable

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        db = random_database({"R": 2, "S": 1}, ["a", "b"], 4, seed=0)
        queries = [
            parse_query("ans(x) :- R(x, y)"),
            parse_query("ans(x) :- S(x)"),
            parse_query("ans(x) :- R(x, x)"),
        ]
        for query in queries:
            plan_for(query, db, cache=cache)
        assert len(cache) == 2
        plan_for(queries[0], db, cache=cache)  # evicted: recompiled
        assert cache.stats()["misses"] == 4

    def test_compile_cq_reorders_small_relation_first(self):
        db = AnnotatedDatabase.from_rows(
            {"Big": [("a", str(i)) for i in range(20)], "Small": [("a",)]}
        )
        plan = compile_cq(parse_query("ans(x) :- Big(x, y), Small(x)"), db)
        assert plan.steps[0].relation == "Small"

    def test_default_cache_round_trip(self):
        clear_plan_cache()
        db = random_database({"R": 2}, ["a", "b"], 4, seed=5)
        query = parse_query("ans(x) :- R(x, y)")
        evaluate_hashjoin(query, db)
        evaluate_hashjoin(query, db)
        stats = default_plan_cache().stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1


# ----------------------------------------------------------------------
# Greedy join ordering (the heuristic the compiler plans with)
# ----------------------------------------------------------------------
def ordered_relations(query, db):
    """The relation of each atom of ``query`` in greedy join order."""
    cardinalities = {
        relation: db.cardinality(relation) for relation in query.relations()
    }
    order = greedy_order(query.atoms, cardinalities)
    return [query.atoms[index].relation for index in order], order


class TestGreedyOrder:
    def test_connected_atom_follows_binding(self):
        db = AnnotatedDatabase.from_rows(
            {"Big": [("a", str(i)) for i in range(20)], "Small": [("a",)]}
        )
        query = parse_query("ans(x) :- Big(x, y), Small(x)")
        relations, _ = ordered_relations(query, db)
        # The small relation should be scanned first.
        assert relations[0] == "Small"
        # A bound variable outranks a smaller, disconnected relation.
        db = AnnotatedDatabase.from_rows(
            {
                "A": [(str(i), "b") for i in range(5)],
                "B": [("b",)],
                "C": [("c",), ("d",)],
            }
        )
        query = parse_query("ans(x) :- A(x, y), B(y), C(z)")
        assert ordered_relations(query, db)[0] == ["B", "A", "C"]

    def test_cartesian_product_deferred(self):
        db = AnnotatedDatabase.from_rows(
            {"R": [("a", "b")], "S": [(str(i),) for i in range(10)]}
        )
        query = parse_query("ans(x) :- S(z), R(x, y), R(y, x)")
        relations, _ = ordered_relations(query, db)
        # After R(x,y) is chosen, R(y,x) shares variables and should
        # precede the disconnected S(z).
        assert relations.index("S") == 2

    def test_order_is_a_permutation(self):
        db = uniform_binary_database(4, density=0.6, seed=2)
        query = chain_query(3)
        _, order = ordered_relations(query, db)
        assert sorted(order) == list(range(len(query.atoms)))


# ----------------------------------------------------------------------
# Plan reuse across the incremental refresh loop
# ----------------------------------------------------------------------
class TestIncrementalPlanReuse:
    def test_refresh_loop_reuses_cached_plans(self):
        clear_plan_cache()
        db = random_database({"R": 2, "S": 2}, list(range(6)), 24, seed=9)
        program = parse_program(
            "V(x, z) :- R(x, y), S(y, z)\n"
            "agg(x, count(*)) :- R(x, y)"
        )
        registry = ViewRegistry(program, db)
        baseline = default_plan_cache().stats()
        # Small deltas stay inside the cardinality bands, so every
        # audit's full recompute reuses the plans compiled at
        # materialization time.
        for i in range(3):
            registry.apply(Delta(inserts=[("R", ("p{}".format(i), 0))]))
            assert check_consistency(registry).consistent
        stats = default_plan_cache().stats()
        assert stats["misses"] == baseline["misses"]
        assert stats["hits"] > baseline["hits"]


# ----------------------------------------------------------------------
# Aggregate path details
# ----------------------------------------------------------------------
class TestHashJoinAggregates:
    def test_accumulator_receives_merged_contributions(self):
        # Two facts share the value 5: the join result merges nothing
        # (distinct tuples) but the tensor groups them by value.
        db = AnnotatedDatabase.from_rows(
            {"S": [("nyc", 5), ("sf", 5), ("nyc", 2)], "C": [("nyc",), ("sf",)]}
        )
        query = parse_query("sales(sum(cost)) :- S(city, cost), C(city)")
        [result] = evaluate_aggregate_hashjoin(query, db).values()
        assert str(result.provenance) == "s1*s4 + s2*s5 + s3*s4"
        [element] = result.aggregates
        assert element.specialize(lambda _s: 1) == 12
        assert element.terms()[5] == Polynomial.parse("s1*s4 + s2*s5")

    def test_empty_database_has_no_groups(self):
        db = AnnotatedDatabase()
        db.declare_relation("S", 2)
        query = parse_query("sales(city, sum(cost)) :- S(city, cost)")
        assert evaluate_aggregate_hashjoin(query, db) == {}
