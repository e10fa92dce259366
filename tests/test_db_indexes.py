"""The database's maintained hash indexes stay exact under updates.

Every join — the hash-join engine's probes, the delta join's lookups,
the planner's selected cardinalities — reads through the one index per
``(relation, bound positions)`` that :class:`AnnotatedDatabase` builds
on first use and keeps current in ``add``/``remove``.  The engine
agreement suites evaluate static databases only, so staleness after an
update is the risk this module covers: a Hypothesis state machine
drives add / remove / retag / re-add / probe over random positions,
and after every step

* each built index equals a fresh rebuild from the relation,
* no bucket is empty (an emptied bucket is dropped, not kept),
* hash-join results over the mutated database equal the backtracking
  engine's (Def. 2.12 sum over assignments).
"""

import itertools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.db.instance import AnnotatedDatabase
from repro.engine.evaluate import evaluate_backtracking
from repro.engine.hashjoin import evaluate_hashjoin
from repro.engine.plan_cache import PlanCache
from repro.incremental.delta import Delta, delta_provenance
from repro.query.parser import parse_query

VALUES = ["a", "b", "c", 1, 2]
ARITIES = {"R": 2, "S": 2, "T": 3}

#: Constants, carried variables, repeated variables and disequalities:
#: every way a step can have a bound position.
QUERIES = [
    parse_query(text)
    for text in (
        "ans(x, z) :- R(x, y), S(y, z)",
        "ans(z) :- R('a', y), S(y, z)",
        "ans(x) :- R(x, y), S(y, 'b')",
        "ans(x, w) :- R(x, y), T(y, z, w), x != w",
        "ans(x) :- T(x, x, y), R(y, 'c')",
        "ans(y) :- R(1, y), S(y, y)",
        "ans(x) :- T(x, 'a', 2)",
        "ans(x, y) :- R(x, y), S(x, y), T(x, y, x)",
    )
]

facts = st.sampled_from(
    [
        (relation, row)
        for relation, arity in sorted(ARITIES.items())
        for row in itertools.product(VALUES, repeat=arity)
    ]
)


def all_positions(arity):
    """Every sorted, non-empty position tuple of one relation."""
    return [
        combo
        for size in range(1, arity + 1)
        for combo in itertools.combinations(range(arity), size)
    ]


def rebuilt(db, relation, positions):
    """The index a fresh scan would build (buckets in relation order)."""
    index = {}
    for row in db.rows(relation):
        index.setdefault(tuple(row[p] for p in positions), []).append(row)
    return index


class IndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = AnnotatedDatabase()
        self.removed = []
        self.serial = 0
        self.cache = PlanCache()

    @initialize()
    def declare(self):
        for relation, arity in ARITIES.items():
            self.db.declare_relation(relation, arity)

    @rule(fact=facts)
    def add(self, fact):
        relation, row = fact
        if not self.db.contains(relation, row):
            self.db.add(relation, row)

    @rule(data=st.data())
    @precondition(lambda self: self.db.fact_count() > 0)
    def remove(self, data):
        relation, row, _annotation = data.draw(
            st.sampled_from(sorted(self.db.all_facts(), key=repr))
        )
        self.db.remove(relation, row)
        self.removed.append((relation, row))

    @rule(data=st.data())
    @precondition(lambda self: self.db.fact_count() > 0)
    def retag(self, data):
        relation, row, _annotation = data.draw(
            st.sampled_from(sorted(self.db.all_facts(), key=repr))
        )
        self.serial += 1
        self.db.retag(relation, row, "r{}".format(self.serial))

    @rule(data=st.data())
    @precondition(lambda self: bool(self.removed))
    def re_add(self, data):
        relation, row = data.draw(st.sampled_from(self.removed))
        if not self.db.contains(relation, row):
            self.db.add(relation, row)

    @rule(data=st.data())
    def probe(self, data):
        relation = data.draw(st.sampled_from(sorted(ARITIES)))
        positions = data.draw(st.sampled_from(all_positions(ARITIES[relation])))
        key = tuple(data.draw(st.sampled_from(VALUES)) for _ in positions)
        expected = [
            row
            for row in self.db.rows(relation)
            if tuple(row[p] for p in positions) == key
        ]
        assert list(self.db.lookup(relation, positions, key)) == expected

    @rule(data=st.data())
    def delta_join(self, data):
        """A fresh insert's provenance increase equals new minus old."""
        query = data.draw(st.sampled_from(QUERIES))
        relation, row = data.draw(facts)
        if self.db.contains(relation, row):
            return
        before = evaluate_backtracking(query, self.db)
        self.serial += 1
        self.db.add(relation, row, annotation="d{}".format(self.serial))
        increase = delta_provenance(query, self.db, {relation: {row}})
        after = evaluate_backtracking(query, self.db)
        for head, polynomial in after.items():
            old = before.get(head)
            extra = increase.get(head)
            if extra is None:
                assert old == polynomial
            else:
                assert (extra if old is None else old + extra) == polynomial

    @invariant()
    def indexes_equal_a_rebuild(self):
        for relation, positions in self.db.indexed_positions():
            index = self.db.index(relation, positions)
            assert index == rebuilt(self.db, relation, positions)
            assert all(index.values()), "an emptied bucket was kept"

    @invariant()
    def hashjoin_equals_backtracking(self):
        for query in QUERIES:
            assert evaluate_hashjoin(
                query, self.db, cache=self.cache
            ) == evaluate_backtracking(query, self.db)


IndexMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestIndexMaintenance = IndexMachine.TestCase


class TestOwnership:
    def test_retag_leaves_indexes_alone(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("a", "c")]})
        index = db.index("R", (0,))
        bucket = index[("a",)]
        db.retag("R", ("a", "b"), "z9")
        assert db.index("R", (0,)) is index
        assert index[("a",)] is bucket == [("a", "b"), ("a", "c")]
        assert db.lookup_facts("R", (0,), ("a",)) == [
            (("a", "b"), "z9"),
            (("a", "c"), "s2"),
        ]

    def test_emptied_bucket_is_dropped(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("c", "b")]})
        index = db.index("R", (0,))
        db.remove("R", ("a", "b"))
        assert ("a",) not in index
        assert db.lookup("R", (0,), ("a",)) == ()

    def test_unknown_relation_is_empty_and_not_kept(self):
        db = AnnotatedDatabase()
        assert db.lookup("R", (0,), ("a",)) == ()
        assert db.indexed_positions() == []
        db.add("R", ("a",))
        assert db.lookup("R", (0,), ("a",)) == [("a",)]

    def test_checkpoint_restores_without_indexes(self):
        db = AnnotatedDatabase.from_rows({"R": [("a", "b")]})
        db.index("R", (1,))
        restored = AnnotatedDatabase.from_checkpoint(db.checkpoint_state())
        assert restored.indexed_positions() == []
        assert restored.lookup("R", (1,), ("b",)) == [("a", "b")]

    def test_hashjoin_probes_only_reached_buckets(self):
        """A constant-anchored query builds indexes, never a step scan,
        and the planner starts from the constant's side."""
        db = AnnotatedDatabase.from_rows(
            {
                "R": [(i, i + 1) for i in range(50)],
                "S": [(i, i) for i in range(40)],
            }
        )
        query = parse_query("ans(z) :- S(y, z), R(7, y)")
        assert evaluate_hashjoin(query, db) == evaluate_backtracking(query, db)
        assert db.indexed_positions() == [("R", (0,)), ("S", (0,))]

    def test_registry_maintains_through_the_database(self):
        from repro.incremental.registry import ViewRegistry
        from repro.query.parser import parse_program

        db = AnnotatedDatabase.from_rows(
            {"R": [("a", "b")], "S": [("b", "c")]}
        )
        registry = ViewRegistry(
            parse_program("V(x, z) :- R(x, y), S(y, z)"), db
        )
        registry.apply(Delta(inserts=[("R", ("d", "b"))]))
        registry.apply(Delta(deletes=[("S", ("b", "c"))]))
        registry.apply(Delta(inserts=[("S", ("b", "e"))]))
        assert sorted(registry.view("V")) == [("a", "e"), ("d", "e")]
        working = registry.serving_db
        for relation, positions in working.indexed_positions():
            assert working.index(relation, positions) == rebuilt(
                working, relation, positions
            )
        assert registry.stats()["indexes"] == len(working.indexed_positions())
