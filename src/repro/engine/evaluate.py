"""Backtracking evaluation of CQ≠/UCQ≠ with provenance (Defs. 2.6, 2.12).

An *assignment* maps the relational atoms of a query to database tuples,
consistently binding variables, mapping constants to themselves and
respecting the disequalities.  The provenance of an output tuple ``t``
is the polynomial

``P(t, Q, D) = Σ_{σ ∈ A(t,Q,D)} Π_{Ri ∈ body(Q)} P(σ(Ri))``

— one monomial per assignment, one factor per atom.  For unions the
polynomials of the adjuncts add up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from repro.config import EngineConfig, resolve_engine_config
from repro.db.instance import AnnotatedDatabase, Row, Value
from repro.errors import EvaluationError
from repro.query.aggregate import AggregateQuery
from repro.query.cq import ConjunctiveQuery
from repro.query.terms import Constant, Term, Variable, is_variable
from repro.query.ucq import Query, adjuncts_of
from repro.semiring.polynomial import Monomial, Polynomial

HeadTuple = Tuple[Value, ...]


@dataclass(frozen=True)
class Assignment:
    """One satisfying assignment of a conjunctive query (Def. 2.6).

    ``atom_rows[i]`` is the database tuple assigned to the ``i``-th
    relational atom; ``binding`` is the induced mapping of variables to
    domain values.
    """

    query: ConjunctiveQuery
    atom_rows: Tuple[Row, ...]
    binding: Tuple[Tuple[Variable, Value], ...]

    def binding_dict(self) -> Dict[Variable, Value]:
        """The variable binding as a dictionary."""
        return dict(self.binding)

    def head_tuple(self) -> HeadTuple:
        """``σ(head(Q))`` — the output tuple produced (Def. 2.6)."""
        values = dict(self.binding)
        result: List[Value] = []
        for term in self.query.head.args:
            if is_variable(term):
                result.append(values[term])
            else:
                result.append(term.value)
        return tuple(result)

    def monomial(self, db: AnnotatedDatabase) -> Monomial:
        """The provenance monomial of this assignment (Def. 2.12)."""
        symbols = [
            db.annotation_of(atom.relation, row)
            for atom, row in zip(self.query.atoms, self.atom_rows)
        ]
        return Monomial(symbols)


def assignments(
    query: ConjunctiveQuery, db: AnnotatedDatabase
) -> Iterator[Assignment]:
    """Enumerate ``A(Q, D)``: all satisfying assignments (Def. 2.6).

    Backtracks atom by atom; a disequality is checked as soon as both of
    its endpoints are bound.
    """
    atoms = query.atoms
    disequalities = list(query.disequalities)
    missing = object()  # sentinel: None is a legitimate domain value

    def value_of(term: Term, binding: Dict[Variable, Value]):
        if isinstance(term, Constant):
            return term.value
        return binding.get(term, missing)

    def diseqs_hold(binding: Dict[Variable, Value]) -> bool:
        for dis in disequalities:
            left = value_of(dis.left, binding)
            right = value_of(dis.right, binding)
            if left is not missing and right is not missing and left == right:
                return False
        return True

    def extend(
        index: int,
        binding: Dict[Variable, Value],
        chosen: List[Row],
    ) -> Iterator[Assignment]:
        if index == len(atoms):
            yield Assignment(
                query=query,
                atom_rows=tuple(chosen),
                binding=tuple(sorted(binding.items(), key=lambda kv: kv[0].name)),
            )
            return
        atom = atoms[index]
        for row in db.rows(atom.relation):
            if len(row) != atom.arity:
                continue
            new_bindings: Dict[Variable, Value] = {}
            consistent = True
            for term, value in zip(atom.args, row):
                if isinstance(term, Constant):
                    if term.value != value:
                        consistent = False
                        break
                else:
                    bound = binding.get(term, new_bindings.get(term, missing))
                    if bound is missing:
                        new_bindings[term] = value
                    elif bound != value:
                        consistent = False
                        break
            if not consistent:
                continue
            binding.update(new_bindings)
            if diseqs_hold(binding):
                chosen.append(row)
                yield from extend(index + 1, binding, chosen)
                chosen.pop()
            for var in new_bindings:
                del binding[var]

    yield from extend(0, {}, [])


def evaluate_backtracking(
    query: Query, db: AnnotatedDatabase
) -> Dict[HeadTuple, Polynomial]:
    """Evaluate by backtracking assignment enumeration (Defs. 2.6/2.12).

    The literal reference implementation: one monomial per assignment,
    adjunct polynomials summed.  Tuples with zero provenance never
    appear.
    """
    if isinstance(query, AggregateQuery):
        raise EvaluationError(
            "aggregate queries produce semimodule annotations; use "
            "repro.aggregate.evaluate_aggregate instead of evaluate"
        )
    results: Dict[HeadTuple, Polynomial] = {}
    for adjunct in adjuncts_of(query):
        for assignment in assignments(adjunct, db):
            head = assignment.head_tuple()
            monomial = assignment.monomial(db)
            previous = results.get(head, Polynomial.zero())
            results[head] = previous + Polynomial({monomial: 1})
    return results


#: In-memory engine names accepted by :func:`evaluate`.  The CLI builds
#: its ``--engine`` choices on top of these (adding the SQLite and
#: algebra backends plus legacy aliases) — see ``repro.cli``.
ENGINES = ("hashjoin", "backtrack", "sharded")


def evaluate(
    query: Query,
    db: AnnotatedDatabase,
    config: Union[EngineConfig, str, None] = None,
) -> Dict[HeadTuple, Polynomial]:
    """Evaluate a CQ≠ or UCQ≠, returning ``{output tuple: provenance}``.

    Implements Def. 2.12: one monomial per assignment, adjunct
    polynomials summed.  Tuples with zero provenance never appear.

    ``config`` is an :class:`~repro.config.EngineConfig` (or a bare
    engine name).  The default ``hashjoin`` engine evaluates
    set-at-a-time with a cardinality-banded plan cache
    (:mod:`repro.engine.hashjoin`); ``backtrack`` is the
    tuple-at-a-time reference implementation; ``sharded`` fans the
    hash-join plans out across hash-partitioned shards evaluated by
    parallel workers (:mod:`repro.engine.sharded`) — batches should
    prefer a warm :class:`~repro.session.QuerySession`.  All engines
    return identical polynomials on every input — the differential
    suites assert it — so the choice is purely about speed.

    Aggregate queries annotate their values in a semimodule, not a
    polynomial — they have their own evaluator,
    :func:`repro.aggregate.evaluate.evaluate_aggregate`, built on the
    same engines.
    """
    config = resolve_engine_config(config, "evaluate")
    if config.engine in ("hashjoin", "sharded"):
        if isinstance(query, AggregateQuery):
            raise EvaluationError(
                "aggregate queries produce semimodule annotations; use "
                "repro.aggregate.evaluate_aggregate instead of evaluate"
            )
        # Imported lazily: these engines' import chains reach the
        # repro.aggregate package, whose evaluator imports this module —
        # a top-level import here would close that cycle during
        # package initialization.
        if config.engine == "sharded":
            from repro.engine.sharded import evaluate_sharded

            return evaluate_sharded(
                query,
                db,
                shards=config.shards,
                workers=config.workers,
                mode=config.mode,
                broadcast_threshold=config.broadcast_threshold,
            )
        from repro.engine.hashjoin import evaluate_hashjoin

        return evaluate_hashjoin(query, db)
    if config.engine == "backtrack":
        return evaluate_backtracking(query, db)
    raise EvaluationError(
        "unknown engine {!r}; supported: {}".format(
            config.engine, ", ".join(ENGINES)
        )
    )


def provenance(
    query: Query,
    db: AnnotatedDatabase,
    output: Sequence[Value],
    config: Union[EngineConfig, str, None] = None,
) -> Polynomial:
    """``P(t, Q, D)`` for one output tuple (zero when absent)."""
    config = resolve_engine_config(config, "provenance")
    return evaluate(query, db, config).get(tuple(output), Polynomial.zero())


def provenance_of_boolean(query: Query, db: AnnotatedDatabase) -> Polynomial:
    """``P(Q, D)`` for a boolean query (Def. 2.12, boolean case)."""
    return provenance(query, db, ())


def result_tuples(query: Query, db: AnnotatedDatabase) -> List[HeadTuple]:
    """``Q(D)`` under set semantics, sorted deterministically."""
    return sorted(evaluate(query, db).keys(), key=lambda row: tuple(map(repr, row)))
