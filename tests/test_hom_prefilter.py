"""The homomorphism prefilter and the |Aut| pattern memo change no answer.

* ``may_embed`` is a necessary condition for a homomorphism out of a
  complete query: it may only reject pairs the search would reject.
* ``is_contained`` and MinProv step III give exactly what they gave
  before the prefilter: the references below are those procedures
  without it.
* The direct pipeline counts automorphisms once per adjunct pattern and
  still equals per-row ``core_provenance`` and rewrite-then-evaluate.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.direct.pipeline as pipeline
from repro.db.generators import random_cq, random_database, random_ucq
from repro.db.instance import AnnotatedDatabase
from repro.direct.pipeline import core_provenance, core_provenance_table
from repro.engine.evaluate import evaluate
from repro.errors import NotAbstractlyTaggedError
from repro.hom.containment import (
    _completions_for_containment,
    is_contained,
    is_contained_canonical_db,
)
from repro.hom.homomorphism import embedding_invariants, has_homomorphism, may_embed
from repro.minimize.canonical import possible_completions
from repro.minimize.minprov import min_prov, min_prov_trace
from repro.paperdata.constructions import theorem_4_10_query
from repro.paperdata.figures import figure3_qhat
from repro.query.atoms import Disequality
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.query.printer import query_to_str
from repro.query.terms import Constant, is_constant
from repro.query.ucq import UnionQuery, adjuncts_of, as_union
from repro.semiring.polynomial import Polynomial

CONSTANTS = (Constant("a"), Constant(1))


def with_constants(query, rng):
    """``query`` with up to two of its variables replaced by constants;
    disequalities left between two constants are dropped."""
    variables = sorted(query.variables())
    chosen = rng.sample(variables, min(len(variables) - 1, rng.randint(0, 2)))
    substitution = dict(zip(chosen, CONSTANTS))
    if not substitution:
        return query
    disequalities = []
    for dis in query.disequalities:
        left, right = (substitution.get(term, term) for term in dis.pair)
        if not (is_constant(left) and is_constant(right)):
            disequalities.append(Disequality(left, right))
    return ConjunctiveQuery(
        query.head.substitute(substitution),
        [atom.substitute(substitution) for atom in query.atoms],
        disequalities,
    )


def seeded_cq(seed, head_arity=None, diseq_probability=None):
    rng = random.Random(seed)
    query = random_cq(
        seed=seed,
        n_atoms=rng.randint(2, 3),
        n_variables=rng.randint(3, 4),
        head_arity=rng.randint(0, 2) if head_arity is None else head_arity,
        diseq_probability=(
            rng.choice([0.0, 0.4, 0.7]) if diseq_probability is None else diseq_probability
        ),
    )
    return with_constants(query, rng)


def seeded_query(seed):
    """A CQ or (every third seed) a two-adjunct UCQ, with constants and
    disequalities on most seeds."""
    if seed % 3:
        return seeded_cq(seed)
    rng = random.Random(seed)
    union = random_ucq(
        seed=seed,
        n_adjuncts=2,
        n_atoms=rng.randint(1, 2),
        n_variables=3,
        head_arity=rng.randint(0, 2),
        diseq_probability=rng.choice([0.0, 0.5]),
    )
    return UnionQuery([with_constants(adjunct, rng) for adjunct in union.adjuncts])


# ----------------------------------------------------------------------
# References: the procedures as they were before the prefilter
# ----------------------------------------------------------------------
def reference_is_contained(q1, q2):
    left = adjuncts_of(q1)
    right = adjuncts_of(q2)
    if left[0].arity != right[0].arity:
        return False
    if not any(a.has_disequalities() for a in left + right):
        return all(any(has_homomorphism(r, adj) for r in right) for adj in left)
    constants = set()
    for adjunct in left + right:
        constants.update(adjunct.constants())
    for adjunct in left:
        for completion in _completions_for_containment(adjunct, constants):
            if not any(has_homomorphism(r, completion) for r in right):
                return False
    return True


def reference_step3(adjuncts):
    """MinProv step III as a plain double loop: one homomorphism test per
    ordered pair, the first of two mutually contained adjuncts survives."""
    removed = [False] * len(adjuncts)
    for i, keeper in enumerate(adjuncts):
        if removed[i]:
            continue
        for j, other in enumerate(adjuncts):
            if i == j or removed[j]:
                continue
            if has_homomorphism(keeper, other):
                removed[j] = True
    return [adjunct for adjunct, gone in zip(adjuncts, removed) if not gone]


def reference_steps(query):
    union = as_union(query)
    constants = union.constants()
    step1 = []
    for adjunct in union.adjuncts:
        step1.extend(possible_completions(adjunct, constants))
    step2 = [adjunct.deduplicate_atoms() for adjunct in step1]
    return step1, step2, reference_step3(step2)


def strs(adjuncts):
    return [query_to_str(adjunct) for adjunct in adjuncts]


# ----------------------------------------------------------------------
# Soundness of the prefilter
# ----------------------------------------------------------------------
class TestMayEmbedIsNecessary:
    @given(
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.integers(0, 2),
        st.sampled_from([0.2, 0.5, 1.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_rejection_implies_no_homomorphism(self, seed_src, seed_dst, arity, p):
        source_query = seeded_cq(seed_src, head_arity=arity, diseq_probability=p)
        target_query = seeded_cq(seed_dst, head_arity=arity, diseq_probability=p)
        constants = source_query.constants() | target_query.constants()
        targets = [target_query] + possible_completions(target_query, constants)
        sources = possible_completions(source_query, constants) + possible_completions(
            source_query
        )
        for source in sources:
            for target in targets:
                if not source.is_complete(constants | target.constants()):
                    continue
                if not may_embed(embedding_invariants(source), embedding_invariants(target)):
                    assert not has_homomorphism(source, target), (source, target)

    def test_rejects_most_failing_searches(self):
        """Not vacuous: over these pairs the filter turns most failing
        searches away and never a succeeding one."""
        rejected = failing = 0
        for seed in range(40):
            query = seeded_cq(seed, head_arity=1, diseq_probability=0.0)
            completions = possible_completions(query, query.constants())
            for source in completions:
                for target in completions:
                    found = has_homomorphism(source, target)
                    allowed = may_embed(
                        embedding_invariants(source), embedding_invariants(target)
                    )
                    assert allowed or not found
                    failing += not found
                    rejected += not allowed
        assert failing and rejected >= failing // 2

    def test_duplicate_atoms_count_once(self):
        source = parse_query("ans(x) :- R(x, y), R(x, y), x != y")
        target = parse_query("ans(x) :- R(x, y), x != y")
        assert may_embed(embedding_invariants(source), embedding_invariants(target))
        assert has_homomorphism(source, target)

    def test_head_shape_and_variable_count(self):
        diagonal = parse_query("ans(x, x) :- R(x, x)")
        pair = parse_query("ans(x, y) :- R(x, y), x != y")
        assert not may_embed(embedding_invariants(pair), embedding_invariants(diagonal))
        triangle = parse_query(
            "ans() :- R(x, y), R(y, z), R(z, x), x != y, y != z, x != z")
        edge = parse_query("ans() :- R(x, y), x != y")
        assert not may_embed(embedding_invariants(triangle), embedding_invariants(edge))
        assert may_embed(embedding_invariants(edge), embedding_invariants(triangle))


class TestContainmentUnchanged:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, seed1, seed2):
        q1, q2 = seeded_query(seed1), seeded_query(seed2)
        assert is_contained(q1, q2) == reference_is_contained(q1, q2)

    @given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_equals_canonical_db_without_disequalities(self, seed1, seed2, arity):
        q1 = seeded_cq(seed1, head_arity=arity, diseq_probability=0.0)
        q2 = seeded_cq(seed2, head_arity=arity, diseq_probability=0.0)
        if q1.arity != q2.arity or q1.has_disequalities() or q2.has_disequalities():
            return
        assert is_contained(q1, q2) == is_contained_canonical_db(q1, q2)

    @pytest.mark.parametrize("start", range(0, 400, 100))
    def test_seeded_pairs(self, start):
        for seed in range(start, start + 100):
            q1, q2 = seeded_query(seed), seeded_query(seed * 7 + 1)
            assert is_contained(q1, q2) == reference_is_contained(q1, q2), seed

    @pytest.mark.parametrize("start", range(0, 100, 50))
    def test_against_own_minimization(self, start):
        """Complete right-hand sides, where the prefilter does its work."""
        for seed in range(start, start + 50):
            query = seeded_query(seed)
            minimal = min_prov(query)
            for q1, q2 in ((query, minimal), (minimal, query)):
                assert is_contained(q1, q2) == reference_is_contained(q1, q2) is True


# ----------------------------------------------------------------------
# MinProv output identical, step by step
# ----------------------------------------------------------------------
class TestMinProvStepsUnchanged:
    @pytest.mark.parametrize("start", range(0, 150, 50))
    def test_seeded_queries(self, start):
        for seed in range(start, start + 50):
            query = seeded_query(seed)
            trace = min_prov_trace(query)
            step1, step2, step3 = reference_steps(query)
            assert strs(trace.step1.adjuncts) == strs(step1), seed
            assert strs(trace.step2.adjuncts) == strs(step2), seed
            assert strs(trace.step3.adjuncts) == strs(step3), seed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_theorem_4_10(self, n):
        query = theorem_4_10_query(n)
        assert strs(min_prov_trace(query).step3.adjuncts) == strs(reference_steps(query)[2])

    def test_figure3(self):
        qhat = figure3_qhat()
        assert strs(min_prov(qhat).adjuncts) == strs(reference_steps(qhat)[2])


# ----------------------------------------------------------------------
# Direct pipeline: one |Aut| per pattern, same tables
# ----------------------------------------------------------------------
CONSTANT_FREE = [
    "ans(x, z) :- R(x, y), R(y, z)",
    "ans(x) :- R(x, y), R(y, x)",
    "ans() :- R(x, y), R(y, z), R(z, x)",
]
WITH_CONSTANTS = [
    "ans(x) :- R(x, y), R(y, 'c1')",
    "ans(x, y) :- R(x, y), S(y), x != 'c0'",
    "ans(y) :- R('c2', y), R(y, z), y != z",
]


class TestDirectPipeline:
    @pytest.mark.parametrize("seed", range(32))
    def test_three_tables_agree(self, seed):
        """With ``Const(Q)`` empty and not: the table, per-row core
        provenance and MinProv-rewrite-then-evaluate are one table."""
        db = random_database(
            {"R": 2, "S": 1}, ["c{}".format(i) for i in range(4)], 9 + seed % 5, seed
        )
        for texts in (CONSTANT_FREE, WITH_CONSTANTS):
            query = parse_query(texts[seed % len(texts)])
            constants = query.constants()
            results = evaluate(query, db)
            table = core_provenance_table(results, db, constants)
            per_row = {
                output: core_provenance(polynomial, db, output, constants)
                for output, polynomial in results.items()
            }
            assert table == per_row, (query, seed)
            assert table == evaluate(min_prov(query), db), (query, seed)

    def test_one_automorphism_search_per_pattern(self, monkeypatch):
        vertices = ["v{}".format(index) for index in range(12)]
        graph = random_database({"R": 2}, vertices, 58, 1)
        results = evaluate(parse_query("ans(x, z) :- R(x, y), R(y, z)"), graph)
        expected = core_provenance_table(results, graph)
        calls = []
        original = pipeline.count_automorphisms

        def counting(query):
            calls.append(query)
            return original(query)

        monkeypatch.setattr(pipeline, "count_automorphisms", counting)
        assert core_provenance_table(results, graph) == expected
        monomials = sum(len(polynomial.terms) for polynomial in expected.values())
        assert (monomials, len(calls)) == (264, 9)

    def test_both_entry_points_require_abstract_tagging(self):
        db = AnnotatedDatabase()
        db.add("R", ("a",), annotation="s")
        db.add("R", ("b",), annotation="s")
        with pytest.raises(NotAbstractlyTaggedError):
            core_provenance(Polynomial.parse("s^2"), db, ("a",))
        with pytest.raises(NotAbstractlyTaggedError):
            core_provenance_table({("a",): Polynomial.parse("s^2")}, db)
