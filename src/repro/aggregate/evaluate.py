"""In-memory evaluation of aggregate queries to semimodule annotations.

Lifts the backtracking engine (Def. 2.6 assignments) to aggregation:
every assignment of a rule's inner CQ contributes one simple tensor
``monomial ⊗ value`` to its group, and the group's existence provenance
collects the same monomials — so specializing the annotated result
under any valuation agrees with evaluating the plain aggregate on the
specialized database (the property tests assert exactly this).
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple, Union

from repro.aggregate.result import AggregateAccumulator, AggregateResult
from repro.algebra.monoid import monoid_for
from repro.config import EngineConfig, resolve_engine_config
from repro.db.instance import AnnotatedDatabase
from repro.engine.evaluate import assignments
from repro.errors import EvaluationError
from repro.query.aggregate import AggregateQuery
from repro.semiring.polynomial import Polynomial

Row = Tuple[Hashable, ...]


def evaluate_aggregate(
    query: AggregateQuery,
    db: AnnotatedDatabase,
    config: Union[EngineConfig, str, None] = None,
) -> Dict[Row, AggregateResult]:
    """Evaluate an aggregate query, returning ``{group: result}``.

    ``config`` is an :class:`~repro.config.EngineConfig` (or a bare
    engine name).  The default ``hashjoin`` engine computes
    each rule's contributions set-at-a-time
    (:mod:`repro.engine.hashjoin`); ``backtrack`` enumerates
    assignments one at a time; ``sharded`` splits each rule's hash-join
    plan across shards and merges the per-shard accumulator states
    through the semimodule layer (:mod:`repro.engine.sharded`).  All
    fold through the shared accumulator shape and produce
    tensor-identical results.

    >>> from repro.query.parser import parse_query
    >>> db = AnnotatedDatabase.from_rows({"S": [("nyc", 5), ("nyc", 2)]})
    >>> q = parse_query("sales(city, sum(cost)) :- S(city, cost)")
    >>> print(evaluate_aggregate(q, db)[("nyc",)])
    ⟨s1 + s2⟩ sum[s2⊗2 + s1⊗5]
    """
    config = resolve_engine_config(config, "evaluate_aggregate")
    if config.engine == "hashjoin":
        from repro.engine.hashjoin import evaluate_aggregate_hashjoin

        return evaluate_aggregate_hashjoin(query, db)
    if config.engine == "sharded":
        from repro.engine.sharded import evaluate_aggregate_sharded

        return evaluate_aggregate_sharded(
            query,
            db,
            shards=config.shards,
            workers=config.workers,
            mode=config.mode,
            broadcast_threshold=config.broadcast_threshold,
        )
    if config.engine != "backtrack":
        raise EvaluationError(
            "unknown aggregate engine {!r}; supported: hashjoin, "
            "backtrack, sharded".format(config.engine)
        )
    accumulator = AggregateAccumulator(query)
    for rule in query.rules:
        for assignment in assignments(rule.inner, db):
            accumulator.add(
                rule,
                assignment.head_tuple(),
                Polynomial({assignment.monomial(db): 1}),
            )
    return accumulator.results()


def aggregate_table(
    query: AggregateQuery, db: AnnotatedDatabase
) -> Dict[Row, Tuple]:
    """Plain (annotation-free) aggregate evaluation, bag semantics.

    The direct reference implementation: fold monoid values straight
    from the assignments, no provenance recorded.  Used as the oracle
    the semimodule specialization is checked against.

    >>> from repro.query.parser import parse_query
    >>> db = AnnotatedDatabase.from_rows({"S": [("nyc", 5), ("nyc", 2)]})
    >>> q = parse_query("sales(city, sum(cost)) :- S(city, cost)")
    >>> aggregate_table(q, db)
    {('nyc',): (7,)}
    """
    monoids = tuple(monoid_for(op) for op in query.aggregate_ops)
    groups: Dict[Row, list] = {}
    for rule in query.rules:
        for assignment in assignments(rule.inner, db):
            group, contributions = rule.split_inner_head(
                assignment.head_tuple()
            )
            folded = groups.get(group)
            if folded is None:
                folded = [monoid.identity for monoid in monoids]
                groups[group] = folded
            for index, (monoid, value) in enumerate(
                zip(monoids, contributions)
            ):
                monoid.validate(value)
                folded[index] = monoid.combine(folded[index], value)
    return {group: tuple(values) for group, values in groups.items()}
