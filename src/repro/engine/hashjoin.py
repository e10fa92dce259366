"""Set-at-a-time hash-join evaluation of CQ≠/UCQ≠ with interned provenance.

The backtracking engine (:mod:`repro.engine.evaluate`) enumerates
assignments one tuple at a time and builds each provenance monomial
from scratch.  This engine evaluates whole K-relations instead: a
conjunctive adjunct becomes a sequence of **hash joins** over
intermediate annotated relations

``{binding tuple: {interned monomial id: coefficient}}``

where each step probes the database's maintained hash index on the
positions bound so far (see :meth:`AnnotatedDatabase.lookup
<repro.db.instance.AnnotatedDatabase.lookup>`), extends every
intermediate binding with the matching rows, multiplies annotations
through the global intern table
(:mod:`repro.algebra.intern` — monomial × symbol is a memoized lookup)
and projects away variables no longer needed.  Projection and union
merge annotation dictionaries by *adding* coefficients, which is
exactly polynomial addition in ``N[X]``; by distributivity the final
polynomials equal the Def. 2.12 sum over assignments monomial for
monomial — an equality the three-engine differential suite asserts on
every workload.

Join orders come from the shared greedy heuristic, which costs an atom
with a constant by the rows its constants select, and are cached in a
:class:`~repro.engine.plan_cache.PlanCache` keyed by the query and the
cardinality band profile of its relations, so repeated evaluation —
the incremental-maintenance refresh loop, benchmarks, view audits —
compiles nothing after the first call.

Aggregate queries reuse the same machinery: each rule's inner CQ is
evaluated set-at-a-time and its per-group annotation polynomials are
folded through the shared
:class:`~repro.aggregate.result.AggregateAccumulator`, producing
tensor-identical semimodule annotations to the other engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.algebra.intern import InternTable, shared_intern
from repro.db.instance import AnnotatedDatabase, Value
from repro.engine.plan_cache import (
    PlanCache,
    cardinality_profile,
    greedy_order,
)
from repro.errors import EvaluationError, SchemaError
from repro.obs.trace import current_tracer
from repro.query.aggregate import AggregateQuery
from repro.query.cq import ConjunctiveQuery
from repro.query.terms import Constant, Variable
from repro.query.ucq import Query, adjuncts_of
from repro.semiring.polynomial import Polynomial

HeadTuple = Tuple[Value, ...]

#: Interned annotation of one intermediate tuple.
_Annotation = Dict[int, int]

#: Value sources of compiled slots (carried tuple / fresh row / literal).
CARRIED = 0
NEW = 1
CONST = 2

_Src = Tuple[int, object]


@dataclass(frozen=True)
class JoinStep:
    """One compiled hash-join step of a conjunctive plan.

    ``key_positions``/``key_indices`` pair row positions with carried
    tuple indices to form the join key; ``ext_positions`` are the row
    positions contributing newly bound variables; ``diseq_checks`` are
    the disequalities whose endpoints all become bound at this step;
    ``carry`` rebuilds the next carried tuple from ``(CARRIED, i)`` and
    ``(NEW, j)`` sources.
    """

    relation: str
    const_checks: Tuple[Tuple[int, object], ...]
    intra_checks: Tuple[Tuple[int, int], ...]
    key_positions: Tuple[int, ...]
    key_indices: Tuple[int, ...]
    ext_positions: Tuple[int, ...]
    diseq_checks: Tuple[Tuple[_Src, _Src], ...]
    carry: Tuple[_Src, ...]


@dataclass(frozen=True)
class CQPlan:
    """A compiled conjunctive adjunct: join steps plus head assembly.

    ``satisfiable`` is ``False`` when some atom's relation is unknown
    to the database or declared with a different arity — the adjunct
    then contributes nothing (matching the row-level arity check of the
    backtracking engine).
    """

    steps: Tuple[JoinStep, ...]
    head_slots: Tuple[_Src, ...]
    satisfiable: bool


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _db_arity(db: AnnotatedDatabase, relation: str) -> Optional[int]:
    try:
        return db.arity(relation)
    except SchemaError:
        return None


#: What the planner measures of a database for one query (see
#: :func:`_measure`): relation measures plus selected cardinalities.
Measured = Tuple[Dict[str, Tuple[Optional[int], int]], Dict[int, int]]


def _measure(query: ConjunctiveQuery, db: AnnotatedDatabase) -> Measured:
    """What the planner reads of ``db``, each figure measured once.

    ``({relation: (arity or None, cardinality)}, {atom index: selected
    cardinality})``: an atom with a constant is costed by the exact
    number of rows matching its constants — the bucket size of the
    database's maintained index on the constant positions — instead of
    by its relation's size.
    """
    relations = {
        relation: (_db_arity(db, relation), db.cardinality(relation))
        for relation in query.relations()
    }
    selected: Dict[int, int] = {}
    for atom_index, atom in enumerate(query.atoms):
        constants = [
            (position, term.value)
            for position, term in enumerate(atom.args)
            if isinstance(term, Constant)
        ]
        if constants and relations[atom.relation][0] == atom.arity:
            positions, key = zip(*constants)
            selected[atom_index] = len(db.lookup(atom.relation, positions, key))
    return relations, selected


def compile_cq(
    query: ConjunctiveQuery,
    db: AnnotatedDatabase,
    measured: Optional[Measured] = None,
) -> CQPlan:
    """Compile one conjunctive adjunct into a hash-join plan for ``db``.

    ``measured`` lets :func:`plan_for` reuse the measures it already
    took for the cache key.
    """
    if measured is None:
        measured = _measure(query, db)
    relations, selected = measured
    atoms = query.atoms
    for atom in atoms:
        arity = relations[atom.relation][0]
        if arity is None or arity != atom.arity:
            return CQPlan(steps=(), head_slots=(), satisfiable=False)

    cardinalities = {
        relation: cardinality
        for relation, (_arity, cardinality) in relations.items()
    }
    order = greedy_order(atoms, cardinalities, selected)

    # First step (in plan order) at which each variable becomes bound.
    bind_step: Dict[Variable, int] = {}
    for step_number, atom_index in enumerate(order):
        for variable in atoms[atom_index].variables():
            bind_step.setdefault(variable, step_number)

    # A disequality is checked at the step binding its last endpoint.
    checks_at: Dict[int, List] = {}
    for dis in sorted(query.disequalities, key=lambda d: d.sort_key()):
        step_number = max(
            bind_step[variable] for variable in dis.variables()
        )
        checks_at.setdefault(step_number, []).append(dis)

    def needed_after(step_number: int) -> set:
        needed = {
            term
            for term in query.head.args
            if isinstance(term, Variable)
        }
        for later in order[step_number + 1:]:
            needed.update(atoms[later].variables())
        for check_step, checks in checks_at.items():
            if check_step > step_number:
                for dis in checks:
                    needed.update(dis.variables())
        return needed

    steps: List[JoinStep] = []
    carried: List[Variable] = []
    for step_number, atom_index in enumerate(order):
        atom = atoms[atom_index]
        const_checks: List[Tuple[int, object]] = []
        intra_checks: List[Tuple[int, int]] = []
        key_positions: List[int] = []
        key_indices: List[int] = []
        ext_positions: List[int] = []
        new_index: Dict[Variable, int] = {}
        first_position: Dict[Variable, int] = {}
        for position, term in enumerate(atom.args):
            if isinstance(term, Constant):
                const_checks.append((position, term.value))
            elif term in carried:
                key_positions.append(position)
                key_indices.append(carried.index(term))
            elif term in new_index:
                intra_checks.append((first_position[term], position))
            else:
                new_index[term] = len(ext_positions)
                first_position[term] = position
                ext_positions.append(position)

        def resolve(term) -> _Src:
            if isinstance(term, Constant):
                return (CONST, term.value)
            if term in new_index:
                return (NEW, new_index[term])
            return (CARRIED, carried.index(term))

        diseq_checks = tuple(
            (resolve(dis.left), resolve(dis.right))
            for dis in checks_at.get(step_number, ())
        )

        needed = needed_after(step_number)
        carry: List[_Src] = []
        next_carried: List[Variable] = []
        for index, variable in enumerate(carried):
            if variable in needed:
                carry.append((CARRIED, index))
                next_carried.append(variable)
        for variable, index in new_index.items():
            if variable in needed:
                carry.append((NEW, index))
                next_carried.append(variable)
        steps.append(
            JoinStep(
                relation=atom.relation,
                const_checks=tuple(const_checks),
                intra_checks=tuple(intra_checks),
                key_positions=tuple(key_positions),
                key_indices=tuple(key_indices),
                ext_positions=tuple(ext_positions),
                diseq_checks=diseq_checks,
                carry=tuple(carry),
            )
        )
        carried = next_carried

    head_slots: List[_Src] = []
    for term in query.head.args:
        if isinstance(term, Constant):
            head_slots.append((CONST, term.value))
        else:
            head_slots.append((CARRIED, carried.index(term)))
    return CQPlan(
        steps=tuple(steps), head_slots=tuple(head_slots), satisfiable=True
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _merge_into(target: _Annotation, source: _Annotation) -> None:
    """Polynomial addition on interned annotations: coefficients add."""
    for monomial, coefficient in source.items():
        target[monomial] = target.get(monomial, 0) + coefficient


#: Soft bound on a payload-scoped join-index cache; crossing it clears
#: the cache wholesale (steady-state workloads reuse a handful of keys,
#: so eviction sophistication buys nothing).
_INDEX_CACHE_LIMIT = 512


def _build_step_index(
    step: JoinStep,
    source,
    symbol_id,
) -> Dict[Tuple[Value, ...], List[Tuple[Tuple[Value, ...], int]]]:
    """Hash one step's rows on the join key, applying row-local checks.

    The annotation symbols are interned here — the index stores interned
    ids, which is why cached indexes are keyed by the intern table's
    token (see :func:`_execute`).
    """
    index: Dict[Tuple[Value, ...], List[Tuple[Tuple[Value, ...], int]]] = {}
    for row, annotation in source:
        if any(row[p] != value for p, value in step.const_checks):
            continue
        if any(row[a] != row[b] for a, b in step.intra_checks):
            continue
        key = tuple(row[p] for p in step.key_positions)
        extension = tuple(row[p] for p in step.ext_positions)
        index.setdefault(key, []).append((extension, symbol_id(annotation)))
    return index


def _probe_fill(step: JoinStep, db: AnnotatedDatabase, memo: Dict, symbol_id):
    """The miss handler of one step's probe memo over ``db``'s indexes.

    The returned ``fill(key)`` maps a join key (the carried values, in
    ``key_positions`` order) to the step's ``(extension, symbol id)``
    matches: it merges in the step's constants, probes the database's
    maintained index on the bound positions, applies the intra-atom
    checks and memoizes the answer for the rest of the call.  Only the
    buckets a call actually reaches are read and interned.
    """
    slots = sorted(
        [(position, False, value) for position, value in step.const_checks]
        + [(position, True, i) for i, position in enumerate(step.key_positions)]
    )
    positions = tuple(position for position, _carried, _v in slots)
    recipe = tuple((carried, v) for _position, carried, v in slots)
    relation = step.relation
    intra_checks = step.intra_checks
    ext_positions = step.ext_positions

    def fill(key):
        probe = tuple([key[v] if carried else v for carried, v in recipe])
        matches = [
            (tuple([row[p] for p in ext_positions]), symbol_id(annotation))
            for row, annotation in db.lookup_facts(relation, positions, probe)
            if not intra_checks
            or all(row[a] == row[b] for a, b in intra_checks)
        ]
        memo[key] = matches
        return matches

    return fill


def _execute(
    plan: CQPlan,
    db: Optional[AnnotatedDatabase],
    intern: InternTable,
    facts_fn=None,
    index_cache: Optional[Dict] = None,
    index_key=None,
) -> Dict[HeadTuple, _Annotation]:
    """Run a compiled plan over ``db``, or over ``facts_fn(step_index,
    step)`` row sources (the sharded engine anchors one step on a
    shard's owned fragment this way).

    Over ``db``, every step with a bound position (a constant or a
    carried variable) probes the database's maintained hash index on
    those positions, so a selective query reads only the buckets it
    reaches and an unchanged relation is never re-hashed.  A step with
    nothing bound, and every step over ``facts_fn``, hashes its rows
    per call instead.

    ``index_cache``/``index_key`` enable per-snapshot reuse of those
    per-call indexes: when both are given, each step's hash index is
    cached in ``index_cache`` under ``index_key(step_index)`` —
    steady-state re-evaluation over an unchanged snapshot becomes
    probe-only.  The key must capture everything the index depends on:
    the plan, the step, the row source (anchored fragment vs full
    relation) and the intern table the symbol ids belong to.
    """
    if not plan.satisfiable:
        return {}
    tracer = current_tracer()
    state: Dict[Tuple[Value, ...], _Annotation] = {(): {intern.one: 1}}
    symbol_id = intern.symbol_id
    times = intern.times_symbol
    for step_index, step in enumerate(plan.steps):
        # One span per *join step*, never per tuple: the inner loops run
        # untouched, so a null tracer leaves the engine loop as it was.
        step_span_cm = tracer.span("join.step", relation=step.relation)
        step_span = step_span_cm.__enter__()
        fill = None
        if facts_fn is None and (step.key_positions or step.const_checks):
            index: Dict = {}
            fill = _probe_fill(step, db, index, symbol_id)
            rows = db.cardinality(step.relation)
        else:
            cached = None
            cache_key = None
            if index_cache is not None and index_key is not None:
                cache_key = index_key(step_index)
                cached = index_cache.get(cache_key)
            if cached is None:
                source = (
                    db.facts(step.relation)
                    if facts_fn is None
                    else facts_fn(step_index, step)
                )
                rows = len(source)
                index = _build_step_index(step, source, symbol_id)
                if cache_key is not None:
                    if len(index_cache) >= _INDEX_CACHE_LIMIT:
                        index_cache.clear()
                    index_cache[cache_key] = (index, rows)
                    step_span.set(cache="miss")
            else:
                index, rows = cached
                step_span.set(cache="hit")

        diseq_checks = step.diseq_checks
        carry = step.carry
        key_indices = step.key_indices
        new_state: Dict[Tuple[Value, ...], _Annotation] = {}
        lookup = index.get
        for bindings, annotation in state.items():
            key = tuple([bindings[i] for i in key_indices])
            matches = lookup(key)
            if matches is None and fill is not None:
                matches = fill(key)
            if not matches:
                continue
            for extension, symbol in matches:
                if diseq_checks:
                    violated = False
                    for (lk, lv), (rk, rv) in diseq_checks:
                        left = (
                            bindings[lv]
                            if lk == CARRIED
                            else extension[lv] if lk == NEW else lv
                        )
                        right = (
                            bindings[rv]
                            if rk == CARRIED
                            else extension[rv] if rk == NEW else rv
                        )
                        if left == right:
                            violated = True
                            break
                    if violated:
                        continue
                out = tuple(
                    bindings[i] if kind == CARRIED else extension[i]
                    for kind, i in carry
                )
                bucket = new_state.get(out)
                if bucket is None:
                    bucket = new_state[out] = {}
                for monomial, coefficient in annotation.items():
                    product = times(monomial, symbol)
                    bucket[product] = bucket.get(product, 0) + coefficient
        state = new_state
        step_span.set(rows=rows, bindings=len(state))
        step_span_cm.__exit__(None, None, None)
        if not state:
            return {}

    results: Dict[HeadTuple, _Annotation] = {}
    for bindings, annotation in state.items():
        head = tuple(
            bindings[i] if kind == CARRIED else i
            for kind, i in plan.head_slots
        )
        bucket = results.get(head)
        if bucket is None:
            results[head] = dict(annotation)
        else:
            _merge_into(bucket, annotation)
    return results


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
#: The process-wide default plan cache (see :func:`default_plan_cache`).
_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The shared plan cache used when no explicit cache is passed."""
    return _DEFAULT_CACHE


def clear_plan_cache() -> None:
    """Drop every cached plan from the shared cache (tests, tooling)."""
    _DEFAULT_CACHE.clear()


def plan_for(
    query: ConjunctiveQuery,
    db: AnnotatedDatabase,
    cache: Optional[PlanCache] = None,
) -> CQPlan:
    """The (cached) hash-join plan of one conjunctive adjunct on ``db``."""
    cache = _DEFAULT_CACHE if cache is None else cache
    with current_tracer().span("plan") as span:
        measured = _measure(query, db)
        key = (query, cardinality_profile(*measured))
        plan = cache.lookup(key)
        if plan is None:
            span.set(cache="miss")
            plan = compile_cq(query, db, measured)
            cache.store(key, plan)
        else:
            span.set(cache="hit")
    return plan


def evaluate_hashjoin(
    query: Query,
    db: AnnotatedDatabase,
    cache: Optional[PlanCache] = None,
    intern: Optional[InternTable] = None,
) -> Dict[HeadTuple, Polynomial]:
    """Evaluate a CQ≠/UCQ≠ set-at-a-time, returning Def. 2.12 polynomials.

    >>> db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "a")]})
    >>> from repro.query.parser import parse_query
    >>> result = evaluate_hashjoin(parse_query("ans(x) :- R(x, y), R(y, x)"), db)
    >>> sorted(str(p) for p in result.values())
    ['s1*s2', 's1*s2']
    """
    if isinstance(query, AggregateQuery):
        raise EvaluationError(
            "aggregate queries produce semimodule annotations; use "
            "evaluate_aggregate_hashjoin instead of evaluate_hashjoin"
        )
    intern = shared_intern() if intern is None else intern
    tracer = current_tracer()
    merged: Dict[HeadTuple, _Annotation] = {}
    for adjunct in adjuncts_of(query):
        plan = plan_for(adjunct, db, cache)
        with tracer.span("join", engine="hashjoin"):
            executed = _execute(plan, db, intern)
        for head, annotation in executed.items():
            bucket = merged.get(head)
            if bucket is None:
                merged[head] = annotation
            else:
                _merge_into(bucket, annotation)
    with tracer.span("merge", tuples=len(merged)):
        return {
            head: intern.polynomial(annotation)
            for head, annotation in merged.items()
        }


def evaluate_aggregate_hashjoin(
    query: AggregateQuery,
    db: AnnotatedDatabase,
    cache: Optional[PlanCache] = None,
    intern: Optional[InternTable] = None,
):
    """Evaluate an aggregate query set-at-a-time to semimodule annotations.

    Each rule's inner CQ runs through the hash-join pipeline; the
    per-group annotation polynomials feed the shared accumulator, so
    the aggregated K-relation is tensor-identical to the other engines'.

    >>> from repro.query.parser import parse_query
    >>> db = AnnotatedDatabase.from_rows({"S": [("nyc", 5), ("nyc", 2)]})
    >>> q = parse_query("sales(city, sum(cost)) :- S(city, cost)")
    >>> print(evaluate_aggregate_hashjoin(q, db)[("nyc",)])
    ⟨s1 + s2⟩ sum[s2⊗2 + s1⊗5]
    """
    # Imported here: repro.aggregate pulls the algebra compiler, whose
    # imports reach back into repro.engine — a top-level import would be
    # circular through the package __init__ modules.
    from repro.aggregate.result import AggregateAccumulator

    intern = shared_intern() if intern is None else intern
    tracer = current_tracer()
    accumulator = AggregateAccumulator(query)
    for rule in query.rules:
        plan = plan_for(rule.inner, db, cache)
        with tracer.span("join", engine="hashjoin"):
            executed = _execute(plan, db, intern)
        with tracer.span("aggregate.fold", groups=len(executed)):
            for head, annotation in sorted(
                executed.items(), key=lambda kv: repr(kv[0])
            ):
                accumulator.add(rule, head, intern.polynomial(annotation))
    return accumulator.results()
