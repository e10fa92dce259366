"""repro — a reproduction of *On Provenance Minimization* (PODS 2011).

The library implements the full system of Amsterdamer, Deutch, Milo and
Tannen's paper: N[X] provenance polynomials and their terseness order,
conjunctive queries with disequalities and unions thereof, three
provenance-aware evaluation engines (set-at-a-time hash join,
backtracking, SQLite), query containment/equivalence, standard and
provenance minimization (**MinProv**), and the direct (query-free)
computation of core provenance.

Quickstart::

    from repro import AnnotatedDatabase, parse_query, evaluate, min_prov

    db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "a")]})
    query = parse_query("ans(x) :- R(x, y), R(y, x)")
    print(evaluate(query, db))           # provenance polynomials
    print(min_prov(query))               # the p-minimal equivalent

Engine selection goes through one object, :class:`repro.EngineConfig`
— ``evaluate(query, db, EngineConfig(engine="sharded", shards=4))`` —
and batches through :func:`repro.connect`, which opens a warm
:class:`repro.QuerySession`::

    from repro import EngineConfig, connect

    with connect(db, EngineConfig(engine="sharded", shards=4)) as session:
        results = session.evaluate_batch([query, query])

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
paper-artifact reproduction index.
"""

from repro.aggregate.evaluate import aggregate_table, evaluate_aggregate
from repro.aggregate.result import AggregateResult
from repro.algebra.compile import evaluate_in_semiring, evaluate_via_algebra
from repro.algebra.monoid import AggregationMonoid, monoid_for
from repro.algebra.semimodule import SemimoduleElement
from repro.config import EngineConfig, connect
from repro.db.instance import AnnotatedDatabase
from repro.db.sharding import ShardedDatabase
from repro.db.sqlite_backend import SQLiteDatabase
from repro.explain import explain_missing, explain_tuple
from repro.views.program import evaluate_program
from repro.direct.core_polynomial import core_monomials, core_polynomial_approx
from repro.direct.pipeline import core_provenance, core_provenance_table
from repro.engine.evaluate import (
    evaluate,
    evaluate_backtracking,
    provenance,
    provenance_of_boolean,
)
from repro.engine.hashjoin import evaluate_hashjoin
from repro.engine.sharded import (
    ShardedExecutor,
    evaluate_aggregate_sharded,
    evaluate_sharded,
)
from repro.hom.containment import is_contained, is_equivalent
from repro.incremental.delta import Delta
from repro.incremental.maintain import check_consistency, maintain
from repro.incremental.registry import MaintenanceReport, ViewRegistry
from repro.hom.homomorphism import (
    count_automorphisms,
    find_homomorphism,
    has_homomorphism,
    has_surjective_homomorphism,
    is_isomorphic,
)
from repro.minimize.canonical import canonical_rewriting, possible_completions
from repro.minimize.minprov import (
    MinProvTrace,
    is_p_minimal,
    min_prov,
    min_prov_trace,
)
from repro.minimize.standard import minimize_cq, minimize_query, minimize_ucq
from repro.order.query_order import (
    bounded_le_p,
    compare_on_database,
    le_on_database,
    prove_le_p,
    provenance_equivalent,
)
from repro.query.aggregate import (
    AggregateQuery,
    AggregateRule,
    AggregateTerm,
    is_aggregate,
)
from repro.query.atoms import Atom, Disequality
from repro.query.build import atom, boolean_cq, c, cq, diseq, ucq, v
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_program, parse_query
from repro.query.printer import query_to_str
from repro.query.terms import Constant, Variable
from repro.query.ucq import UnionQuery, as_union
from repro.semiring.order import (
    Ordering,
    compare_polynomials,
    polynomial_eq,
    polynomial_le,
    polynomial_lt,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    current_tracer,
    default_registry,
    format_trace,
    tracing,
)
from repro.client import Client, Subscription
from repro.durability import DurableStore, RecoveredState, WriteAheadLog
from repro.semiring.polynomial import Monomial, Polynomial
from repro.server import ResultCache, ServerState, make_server
from repro.session import QuerySession

__version__ = "1.6.0"

__all__ = [
    # engine configuration facade (the documented way to pick engines)
    "EngineConfig",
    "connect",
    # query model
    "Variable",
    "Constant",
    "Atom",
    "Disequality",
    "ConjunctiveQuery",
    "UnionQuery",
    "as_union",
    "parse_query",
    "parse_program",
    "query_to_str",
    "atom",
    "diseq",
    "cq",
    "boolean_cq",
    "ucq",
    "v",
    "c",
    # provenance
    "Monomial",
    "Polynomial",
    "Ordering",
    "polynomial_le",
    "polynomial_lt",
    "polynomial_eq",
    "compare_polynomials",
    # databases and evaluation
    "AnnotatedDatabase",
    "SQLiteDatabase",
    "ShardedDatabase",
    "ShardedExecutor",
    "QuerySession",
    "evaluate",
    "evaluate_backtracking",
    # (evaluate_hashjoin / evaluate_sharded / evaluate_aggregate_sharded
    # remain importable, but the facade is evaluate + EngineConfig)
    "provenance",
    "provenance_of_boolean",
    # homomorphisms, containment
    "find_homomorphism",
    "has_homomorphism",
    "has_surjective_homomorphism",
    "count_automorphisms",
    "is_isomorphic",
    "is_contained",
    "is_equivalent",
    # minimization
    "minimize_cq",
    "minimize_ucq",
    "minimize_query",
    "possible_completions",
    "canonical_rewriting",
    "min_prov",
    "min_prov_trace",
    "MinProvTrace",
    "is_p_minimal",
    # query order
    "le_on_database",
    "compare_on_database",
    "bounded_le_p",
    "prove_le_p",
    "provenance_equivalent",
    # direct computation
    "core_monomials",
    "core_polynomial_approx",
    "core_provenance",
    "core_provenance_table",
    # additional engines, views and explanations
    "evaluate_via_algebra",
    "evaluate_in_semiring",
    "evaluate_program",
    "explain_tuple",
    "explain_missing",
    # incremental view maintenance
    "Delta",
    "ViewRegistry",
    "MaintenanceReport",
    "check_consistency",
    "maintain",
    # serving tier (+ the /v1 client and continuous queries)
    "ResultCache",
    "ServerState",
    "make_server",
    "Client",
    "Subscription",
    # durability (snapshots + write-ahead log)
    "DurableStore",
    "RecoveredState",
    "WriteAheadLog",
    # observability
    "MetricsRegistry",
    "Tracer",
    "current_tracer",
    "default_registry",
    "format_trace",
    "tracing",
    # aggregate provenance (semimodule annotations)
    "AggregateTerm",
    "AggregateRule",
    "AggregateQuery",
    "is_aggregate",
    "AggregationMonoid",
    "monoid_for",
    "SemimoduleElement",
    "AggregateResult",
    "evaluate_aggregate",
    "aggregate_table",
    "__version__",
]
