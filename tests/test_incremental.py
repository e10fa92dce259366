"""The incremental view-maintenance subsystem.

The load-bearing guarantee is the equivalence property at the bottom:
for ≥ 50 seeded-random program/delta-batch pairs (CQ and UCQ views,
stacked layers, inserts, deletes, retags, kills and revivals), the
incrementally maintained registry matches full re-evaluation on
base-expanded provenance — exact polynomials, coefficients included.
"""

import random

import pytest

from repro.apps.deletion import (
    delete_tuples,
    partition_by_survival,
    propagate_deletion,
)
from repro.db.generators import random_cq, random_database, random_ucq
from repro.db.instance import AnnotatedDatabase
from repro.engine.evaluate import evaluate
from repro.errors import EvaluationError, SchemaError
from repro.incremental.delta import Delta, delta_provenance
from repro.incremental.maintain import (
    check_consistency,
    full_recompute,
    maintain,
    refresh,
)
from repro.incremental.registry import ViewRegistry
from repro.query.parser import parse_program, parse_query
from repro.semiring.polynomial import Polynomial
from repro.views.program import evaluate_program, invalidation_index


def simple_db():
    return AnnotatedDatabase.from_dict(
        {
            "R": {
                ("a", "b"): "s1",
                ("b", "c"): "s2",
                ("c", "a"): "s3",
            }
        }
    )


class TestDbBookkeeping:
    def test_remove_returns_annotation_and_clears_index(self):
        db = simple_db()
        assert db.remove("R", ("a", "b")) == "s1"
        assert not db.contains("R", ("a", "b"))
        assert "s1" not in db.annotations()
        assert db.fact_count() == 2

    def test_remove_absent_raises(self):
        db = simple_db()
        with pytest.raises(SchemaError):
            db.remove("R", ("z", "z"))
        with pytest.raises(SchemaError):
            db.remove("Nope", ("z",))

    def test_remove_keeps_relation_declared(self):
        db = simple_db()
        for row in list(db.rows("R")):
            db.remove("R", row)
        assert db.rows("R") == []
        db.add("R", ("x", "y"))  # same arity still enforced
        with pytest.raises(SchemaError):
            db.add("R", ("x",))

    def test_retag_moves_annotation(self):
        db = simple_db()
        assert db.retag("R", ("a", "b"), "t9") == "s1"
        assert db.annotation_of("R", ("a", "b")) == "t9"
        assert db.tuples_for_annotation("s1") == []
        assert db.tuples_for_annotation("t9") == [("R", ("a", "b"))]

    def test_retag_to_same_annotation_is_noop(self):
        db = simple_db()
        version = db.version()
        assert db.retag("R", ("a", "b"), "s1") == "s1"
        assert db.version() == version

    def test_version_and_changes_since(self):
        db = simple_db()
        version = db.version()
        db.add("R", ("x", "y"))
        db.remove("R", ("b", "c"))
        db.retag("R", ("c", "a"), "t1")
        records = db.changes_since(version)
        assert [record[1] for record in records] == ["insert", "delete", "retag"]
        assert db.changes_since(db.version()) == []
        assert db.changes_since(0) == db._changelog
        assert db.changes_since(version + 1) == records[1:]

    def test_prune_changes_drops_consumed_prefix(self):
        db = simple_db()
        initial = len(db.changes_since(0))
        version = db.version()
        db.add("R", ("x", "y"))
        db.remove("R", ("b", "c"))
        later = db.version()
        db.retag("R", ("c", "a"), "t1")
        assert db.prune_changes(later) == initial + 2
        assert [record[1] for record in db.changes_since(0)] == ["retag"]
        assert db.changes_since(version) == db.changes_since(0)
        assert db.prune_changes(later) == 0  # idempotent on a pruned log
        assert db.prune_changes(db.version()) == 1
        assert db.changes_since(0) == []

    def test_track_changes_false_keeps_no_log(self):
        db = AnnotatedDatabase(track_changes=False)
        db.add("R", ("a", "b"))
        db.remove("R", ("a", "b"))
        assert db.version() == 2
        assert db.changes_since(0) == []

    def test_delta_from_changes_folds_churn(self):
        db = simple_db()
        version = db.version()
        db.add("R", ("x", "y"))          # born ...
        db.remove("R", ("x", "y"))       # ... and died: nets to nothing
        db.remove("R", ("a", "b"))       # real delete ...
        db.add("R", ("a", "b"), annotation="fresh")  # ... then revival
        db.retag("R", ("b", "c"), "t7")  # plain retag
        delta = Delta.from_changes(db.changes_since(version))
        assert ("R", ("x", "y")) not in delta.deletes
        assert all(row != ("x", "y") for _r, row, _a in delta.inserts)
        assert ("R", ("a", "b")) in delta.deletes
        assert ("R", ("a", "b"), "fresh") in delta.inserts
        assert ("R", ("b", "c"), "t7") in delta.retags

    def test_retag_folds_into_window_insert(self):
        db = simple_db()
        version = db.version()
        db.add("R", ("x", "y"))
        db.retag("R", ("x", "y"), "renamed")
        delta = Delta.from_changes(db.changes_since(version))
        assert delta.inserts == (("R", ("x", "y"), "renamed"),)
        assert delta.retags == ()


class TestDeletionHelpers:
    def test_delete_absent_symbol_is_noop(self):
        p = Polynomial.parse("s1*s2 + s3")
        assert delete_tuples(p, ["nope"]) == p
        assert delete_tuples(p, []) == p

    def test_partition_by_survival(self):
        view = {
            ("a",): Polynomial.parse("s1*s2 + s3"),
            ("b",): Polynomial.parse("s1*s2"),
        }
        survivors, killed = partition_by_survival(view, ["s2", "absent"])
        assert survivors == {("a",): Polynomial.parse("s3")}
        assert killed == [("b",)]

    def test_propagate_deletion_delegates(self):
        view = {("a",): Polynomial.parse("s1"), ("b",): Polynomial.parse("s2")}
        assert propagate_deletion(view, ["s1", "ghost"]) == {
            ("b",): Polynomial.parse("s2")
        }


class TestHashIndexes:
    """The database's maintained indexes, which the delta join probes."""

    def test_lookup_builds_lazily_and_filters(self):
        db = simple_db()
        assert db.indexed_positions() == []
        assert db.lookup("R", (0,), ("a",)) == [("a", "b")]
        assert db.indexed_positions() == [("R", (0,))]
        assert db.lookup("R", (0,), ("zzz",)) == ()

    def test_empty_mask_scans(self):
        db = simple_db()
        assert sorted(db.lookup("R", (), ())) == sorted(db.rows("R"))

    def test_maintained_under_updates(self):
        db = simple_db()
        db.lookup("R", (1,), ("b",))  # build
        db.add("R", ("z", "b"))
        assert sorted(db.lookup("R", (1,), ("b",))) == [("a", "b"), ("z", "b")]
        db.remove("R", ("a", "b"))
        assert db.lookup("R", (1,), ("b",)) == [("z", "b")]


class TestDeltaProvenance:
    """Delta evaluation against the brute-force definition."""

    def brute_force_increase(self, query, old_db, new_db):
        """New-minus-old provenance, monomial by monomial."""
        old = evaluate(query, old_db)
        new = evaluate(query, new_db)
        increase = {}
        for row, polynomial in new.items():
            stale = old.get(row, Polynomial.zero()).terms
            terms = {
                monomial: coefficient - stale.get(monomial, 0)
                for monomial, coefficient in polynomial.terms.items()
                if coefficient > stale.get(monomial, 0)
            }
            if terms:
                increase[row] = Polynomial(terms)
        return increase

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_on_random_cqs(self, seed):
        rng = random.Random(seed * 31 + 1009)  # decorrelated from the db seed
        old_db = random_database({"R": 2, "S": 1}, ["a", "b", "c"], 7, seed=seed)
        query = random_cq(
            seed=seed, n_atoms=3, n_variables=3, head_arity=1,
            diseq_probability=0.3,
        )
        new_db = AnnotatedDatabase()
        for relation, row, annotation in old_db.all_facts():
            new_db.add(relation, row, annotation=annotation)
        universe = [
            ("R", (x, y)) for x in "abc" for y in "abc"
        ] + [("S", (x,)) for x in "abc"]
        inserted = {}
        for relation, row in rng.sample(universe, 6):
            if not new_db.contains(relation, row):
                new_db.add(relation, row)
                inserted.setdefault(relation, set()).add(row)
        if not inserted:
            pytest.skip("sample landed entirely on existing rows")
        increase = delta_provenance(query, new_db, inserted)
        assert increase == self.brute_force_increase(query, old_db, new_db)

    def test_union_adjunct_increases_add_up(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b")], "S": [("b",)]})
        query = parse_query(
            """
            ans(x) :- R(x, y)
            ans(x) :- R(x, y), S(y)
            """
        )
        new_db = AnnotatedDatabase()
        for relation, row, annotation in db.all_facts():
            new_db.add(relation, row, annotation=annotation)
        new_db.add("R", ("c", "b"), annotation="s9")
        increase = delta_provenance(query, new_db, {"R": {("c", "b")}})
        assert increase == {("c",): Polynomial.parse("s9 + s2*s9")}


class TestViewRegistry:
    PROGRAM = """
        supplies(f, s) :- Ships(f, w), Stocks(w, s)
        shared(s, t) :- supplies(f, s), supplies(f, t), s != t
        entangled(t) :- shared('s1', t)
    """

    def network_db(self):
        db = AnnotatedDatabase()
        for factory, warehouse in [("f1", "w1"), ("f1", "w2"), ("f2", "w2")]:
            db.add("Ships", (factory, warehouse))
        for warehouse, store in [("w1", "s1"), ("w2", "s1"), ("w2", "s2")]:
            db.add("Stocks", (warehouse, store))
        return db

    def registry(self):
        return ViewRegistry(parse_program(self.PROGRAM), self.network_db())

    def test_initial_state_matches_evaluate_program(self):
        registry = self.registry()
        reference = evaluate_program(
            parse_program(self.PROGRAM), self.network_db()
        )
        for name in registry.order:
            assert registry.base_provenance(name) == reference.base_provenance(name)

    def test_insert_propagates_through_layers(self):
        registry = self.registry()
        before = registry.base_provenance("shared")
        report = registry.apply(Delta(inserts=[("Stocks", ("w1", "s2"))]))
        assert ("f1", "s2") in registry.view("supplies")
        # supplies(f1, s2) already existed (via w2), so only its polynomial
        # grows; downstream views keep their symbolic polynomials and pick
        # the change up through the updated binding.
        assert report.touched_views() == ["supplies"]
        assert registry.base_provenance("shared") != before
        assert check_consistency(registry).consistent

    def test_insert_creating_new_view_tuple_reaches_downstream(self):
        registry = self.registry()
        report = registry.apply(Delta(inserts=[("Ships", ("f9", "w1"))]))
        assert ("f9", "s1") in registry.view("supplies")
        assert report.changes["supplies"].inserted
        assert check_consistency(registry).consistent

    def test_delete_kills_and_reinsert_revives(self):
        registry = self.registry()
        killed = registry.apply(Delta(deletes=[("Stocks", ("w2", "s2"))]))
        assert ("s2",) not in registry.view("entangled")
        assert killed.changes["entangled"].deleted
        revived = registry.apply(Delta(inserts=[("Stocks", ("w2", "s2"))]))
        assert ("s2",) in registry.view("entangled")
        assert revived.changes["entangled"].inserted
        assert check_consistency(registry).consistent

    def test_retag_rewrites_polynomials_and_reports(self):
        registry = self.registry()
        old_symbol = self.network_db().annotation_of("Ships", ("f1", "w1"))
        report = registry.apply(
            Delta(retags=[("Ships", ("f1", "w1"), "audit1")])
        )
        assert report.changes["supplies"].updated
        assert all(
            "audit1" in polynomial.support() or old_symbol not in polynomial.support()
            for polynomial in registry.base_provenance("supplies").values()
        )
        assert check_consistency(registry).consistent

    def test_non_abstractly_tagged_base_rejected(self):
        db = AnnotatedDatabase.from_dict(
            {"R": {("a", "b"): "s1", ("c", "d"): "s1"}}
        )
        with pytest.raises(EvaluationError):
            ViewRegistry(parse_program("V(x) :- R(x, y)"), db)

    def test_insert_with_live_annotation_rejected(self):
        registry = self.registry()
        live = registry.base_database().annotation_of("Ships", ("f1", "w1"))
        with pytest.raises(EvaluationError):
            registry.apply(Delta(inserts=[("Ships", ("f9", "w9"), live)]))

    def test_retag_creating_shared_tag_rejected(self):
        registry = self.registry()
        live = registry.base_database().annotation_of("Ships", ("f1", "w1"))
        with pytest.raises(EvaluationError):
            registry.apply(Delta(retags=[("Ships", ("f2", "w2"), live)]))

    def test_reusing_annotation_freed_in_same_batch_is_allowed(self):
        registry = self.registry()
        freed = registry.base_database().annotation_of("Ships", ("f1", "w1"))
        registry.apply(
            Delta(
                deletes=[("Ships", ("f1", "w1"))],
                inserts=[("Ships", ("f1", "w9"), freed)],
            )
        )
        assert check_consistency(registry).consistent

    def test_retag_to_annotation_freed_in_same_batch(self):
        registry = self.registry()
        base = registry.base_database()
        freed = base.annotation_of("Stocks", ("w1", "s1"))
        report = registry.apply(
            Delta(
                deletes=[("Stocks", ("w1", "s1"))],
                retags=[("Stocks", ("w2", "s1"), freed)],
            )
        )
        # The surviving supplies via w2 must not be eaten by the filter.
        assert ("f1", "s1") in registry.view("supplies")
        assert report.changes["supplies"].updated
        assert check_consistency(registry).consistent

    def test_chained_retags_in_one_batch_compose(self):
        registry = self.registry()
        registry.apply(
            Delta(
                retags=[
                    ("Ships", ("f1", "w1"), "t1"),
                    ("Ships", ("f1", "w1"), "t2"),
                ]
            )
        )
        for polynomial in registry.base_provenance("supplies").values():
            assert "t1" not in polynomial.support()
        assert check_consistency(registry).consistent

    def test_retag_round_trip_in_one_batch_is_noop(self):
        registry = self.registry()
        before = registry.base_provenance("supplies")
        original = registry.base_database().annotation_of("Ships", ("f1", "w1"))
        registry.apply(
            Delta(
                retags=[
                    ("Ships", ("f1", "w1"), "t1"),
                    ("Ships", ("f1", "w1"), original),
                ]
            )
        )
        assert registry.base_provenance("supplies") == before
        assert check_consistency(registry).consistent

    def test_view_deltas_are_rejected(self):
        registry = self.registry()
        with pytest.raises(EvaluationError):
            registry.apply(Delta(inserts=[("supplies", ("f9", "s9"))]))

    def test_clashing_view_names_are_rejected(self):
        with pytest.raises(EvaluationError):
            ViewRegistry(
                parse_program("Ships(x, y) :- Stocks(x, y)"), self.network_db()
            )

    def test_insert_into_brand_new_relation(self):
        registry = ViewRegistry(
            parse_program("V(x) :- T(x, x)"), AnnotatedDatabase()
        )
        registry.apply(Delta(inserts=[("T", ("a", "a")), ("T", ("a", "b"))]))
        assert sorted(registry.view("V")) == [("a",)]
        assert check_consistency(registry).consistent

    def test_noop_reinsert_adds_no_monomials(self):
        registry = self.registry()
        before = registry.view("supplies")
        report = registry.apply(Delta(inserts=[("Ships", ("f1", "w1"), "s1")]))
        assert registry.view("supplies") == before
        assert report.summary() == "no view changes"

    def test_base_database_round_trips(self):
        registry = self.registry()
        registry.apply(Delta(deletes=[("Ships", ("f2", "w2"))]))
        base = registry.base_database()
        assert base.relations() == {"Ships", "Stocks"}
        assert base.fact_count() == 5

    def test_refresh_and_full_recompute_agree(self):
        registry = self.registry()
        registry.apply(Delta(inserts=[("Ships", ("f3", "w1"))]))
        rebuilt = refresh(registry)
        for name in registry.order:
            assert registry.base_provenance(name) == rebuilt.base_provenance(name)
        assert set(full_recompute(registry).views) == set(registry.order)

    def test_as_evaluation_exports_layer_symbols(self):
        registry = self.registry()
        evaluation = registry.as_evaluation()
        layers = evaluation.layer_symbols()
        assert set(layers) == {"supplies", "shared", "entangled"}
        some_symbol = next(iter(layers["supplies"]))
        assert evaluation.symbol_layer(some_symbol) == "supplies"
        assert evaluation.symbol_layer("s1") is None
        index = invalidation_index(evaluation.bindings)
        assert any(
            dependent in layers["shared"]
            for dependent in index.get(some_symbol, frozenset())
        ) or some_symbol not in index


class TestMaintainLoop:
    def test_maintain_applies_stream_with_audits(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "c")]})
        deltas = [
            Delta(inserts=[("R", ("c", "d"))]),
            Delta(deletes=[("R", ("a", "b"))]),
            Delta(inserts=[("R", ("a", "b"))]),
        ]
        registry, reports = maintain(
            parse_program("V(x, z) :- R(x, y), R(y, z)"), db, deltas,
            check_every=1,
        )
        assert len(reports) == 3
        assert sorted(registry.view("V")) == [("a", "c"), ("b", "d")]


# ----------------------------------------------------------------------
# The equivalence property: incremental ≡ recompute
# ----------------------------------------------------------------------
RELATIONS = {"R": 2, "S": 1}
DOMAIN = ["a", "b", "c"]


def random_program(rng):
    """A 1-3 view program: random CQ/UCQ base views plus, sometimes, a
    second layer joining a view with a base relation."""
    program = {}
    v1 = random_cq(
        seed=rng.randrange(2**30), n_atoms=rng.choice([2, 3]),
        n_variables=3, relations=RELATIONS, head_arity=2,
        diseq_probability=0.25,
    )
    while v1.arity != 2:  # random_cq may shrink the head
        v1 = random_cq(
            seed=rng.randrange(2**30), n_atoms=3, n_variables=3,
            relations=RELATIONS, head_arity=2, diseq_probability=0.25,
        )
    program["V1"] = v1
    if rng.random() < 0.6:
        program["V2"] = random_ucq(
            seed=rng.randrange(2**30), n_adjuncts=2, n_atoms=2,
            n_variables=3, relations=RELATIONS, head_arity=1,
        )
    if rng.random() < 0.6:
        program["V3"] = parse_query("V3(x) :- V1(x, y), S(y)")
    return program


def random_delta(rng, db):
    """A random batch: deletes of present rows, inserts of absent (or
    just-deleted — revival) rows, occasional retags of untouched rows."""
    present = [
        (relation, row)
        for relation in sorted(db.relations())
        for row in db.rows(relation)
    ]
    universe = [("R", (x, y)) for x in DOMAIN for y in DOMAIN]
    universe += [("S", (x,)) for x in DOMAIN]
    deletes = rng.sample(present, min(len(present), rng.randrange(0, 3)))
    deleted = set(deletes)
    absent = [fact for fact in universe if not db.contains(*fact)]
    candidates = absent + list(deleted)  # re-inserting a delete = revival
    inserts = [
        (relation, row)
        for relation, row in rng.sample(
            candidates, min(len(candidates), rng.randrange(0, 3))
        )
    ]
    retags = []
    for relation, row in rng.sample(present, min(len(present), 1)):
        if (relation, row) not in deleted and rng.random() < 0.4:
            retags.append((relation, row, "rt{}".format(rng.randrange(10**6))))
    return Delta(inserts=inserts, deletes=deletes, retags=retags)


def mirror_apply(db, delta):
    """Apply a delta to a plain base database (the oracle's copy)."""
    for relation, row in delta.deletes:
        db.remove(relation, row)
    for relation, row, annotation in delta.inserts:
        db.add(relation, row, annotation=annotation)
    for relation, row, annotation in delta.retags:
        db.retag(relation, row, annotation)


@pytest.mark.parametrize("seed", range(60))
def test_incremental_equals_recompute(seed):
    """incremental maintenance ≡ full re-evaluation, 60 random pairs."""
    rng = random.Random(seed * 7919 + 13)
    base = random_database(RELATIONS, DOMAIN, n_facts=rng.randrange(4, 9), seed=seed)
    program = random_program(rng)
    registry = ViewRegistry(program, base)
    oracle = registry.base_database()
    for _batch in range(rng.randrange(1, 4)):
        delta = random_delta(rng, oracle)
        mirror_apply(oracle, delta)
        registry.apply(delta)
    reference = evaluate_program(program, oracle)
    for name in registry.order:
        assert registry.base_provenance(name) == reference.base_provenance(name), (
            seed, name
        )


def test_property_run_covers_kill_and_revive():
    """At least one seeded run must exercise a kill followed by a
    revival, so the property above cannot silently stop covering it."""
    kills = revivals = 0
    for seed in range(60):
        rng = random.Random(seed * 7919 + 13)
        base = random_database(
            RELATIONS, DOMAIN, n_facts=rng.randrange(4, 9), seed=seed
        )
        program = random_program(rng)
        registry = ViewRegistry(program, base)
        oracle = registry.base_database()
        dead_rows = set()
        for _batch in range(rng.randrange(1, 4)):
            delta = random_delta(rng, oracle)
            mirror_apply(oracle, delta)
            report = registry.apply(delta)
            for name, change in report.changes.items():
                for row in change.deleted:
                    dead_rows.add((name, row))
                    kills += 1
                for row in change.inserted:
                    if (name, row) in dead_rows:
                        revivals += 1
    assert kills > 0 and revivals > 0, (kills, revivals)
