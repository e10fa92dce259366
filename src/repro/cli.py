"""Command-line interface: evaluate, aggregate, minimize, core, sql, maintain.

Usage (installed as ``repro-prov``, or ``python -m repro.cli``)::

    repro-prov eval      -p program.dl -d data.json [--view NAME] [--engine hashjoin|backtrack|sharded|sql|algebra]
                         [--shards N] [--workers N]
    repro-prov aggregate -p program.dl -d data.json [--view NAME] [--engine hashjoin|backtrack|sharded|sql]
                         [--delete s1,s2] [--trust s1,s2] [--probabilities probs.json]
    repro-prov batch     -q queries.json -d data.json [--engine ...] [--shards N] [--workers N]
    repro-prov minimize  -p program.dl [--algorithm minprov|standard] [--trace]
    repro-prov core      -p program.dl -d data.json [--view NAME]
    repro-prov sql       -p program.dl
    repro-prov maintain  -p program.dl -d data.json -u updates.json [--check] [--quiet]
    repro-prov serve     -d data.json [-p program.dl] [--host H] [--port P]
                         [--engine hashjoin|sharded] [--shards N] [--workers N]
                         [--server-mode async|threaded] [--request-timeout S]
                         [--idle-timeout S] [--max-pending N]
                         [--max-subscriptions N] [--ring-size N]
                         [--cache-size N] [--no-metrics] [--log-level LEVEL]
                         [--data-dir DIR] [--snapshot-every N]
    repro-prov snapshot  --data-dir DIR [-d data.json] [-p program.dl]
    repro-prov recover   --data-dir DIR [-p program.dl] [--check]
    repro-prov trace     "<query text>" -d data.json [--engine hashjoin|sharded]
                         [--shards N] [--workers N] [--json]

The program file uses the rule syntax of :mod:`repro.query.parser`
(one or more rules; rules sharing a head relation form a union).  The
data file is JSON: either ``{"R": [["a", "b"], ...]}`` (fresh
annotations are generated, keeping the database abstractly tagged) or
``{"R": [{"row": ["a", "b"], "annotation": "s1"}, ...]}``.

The queries file for ``batch`` is a JSON list of query texts — each
entry one query in rule syntax (multi-rule unions and aggregates join
their rules with ``\\n``).  The whole batch runs through one
:class:`~repro.session.QuerySession`, so repeated or overlapping
queries share plans, shard runs and interned provenance.

The updates file for ``maintain`` is a JSON list of delta batches (a
single object is treated as one batch)::

    [{"insert": {"R": [["a", "b"],
                       {"row": ["c", "d"], "annotation": "s9"}]},
      "delete": {"R": [["b", "a"]]},
      "retag":  {"R": [{"row": ["a", "b"], "annotation": "t1"}]}}]
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Dict, List, Optional

from repro.aggregate.evaluate import evaluate_aggregate
from repro.apps.deletion import propagate_deletion_aggregates
from repro.apps.probability import aggregate_distribution, expected_aggregate
from repro.apps.trust import trusted_aggregate_value
from repro.config import EngineConfig
from repro.db.instance import AnnotatedDatabase
from repro.db.sqlite_backend import SQLiteDatabase
from repro.direct.pipeline import core_provenance_table
from repro.engine.evaluate import ENGINES as MEMORY_ENGINES
from repro.engine.evaluate import evaluate
from repro.errors import ReproError
from repro.incremental.delta import Delta
from repro.incremental.maintain import check_consistency
from repro.incremental.registry import ViewRegistry
from repro.io import deltas_from_payload
from repro.minimize.minprov import min_prov, min_prov_trace
from repro.minimize.standard import minimize_query
from repro.query.aggregate import AggregateQuery, AnyQuery
from repro.query.parser import parse_program, parse_query
from repro.query.printer import query_to_str
from repro.query.ucq import query_constants


def load_database(path: str) -> AnnotatedDatabase:
    """Load an annotated database from a JSON file."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ReproError("data file must hold a JSON object of relations")
    db = AnnotatedDatabase()
    for relation, rows in payload.items():
        for entry in rows:
            if isinstance(entry, dict):
                db.add(
                    relation,
                    tuple(entry["row"]),
                    annotation=entry.get("annotation"),
                )
            else:
                db.add(relation, tuple(entry))
    return db


def load_program(path: str) -> Dict[str, Query]:
    """Load a query program from a rule file."""
    with open(path) as handle:
        return parse_program(handle.read())


def load_deltas(path: str) -> List[Delta]:
    """Load a list of delta batches from a JSON updates file.

    The parsing itself lives in :func:`repro.io.deltas_from_payload` —
    the server's ``POST /update`` bodies use the identical format.
    """
    with open(path) as handle:
        payload = json.load(handle)
    return deltas_from_payload(payload)


def _select_views(
    program: Dict[str, AnyQuery], requested: Optional[str]
) -> Dict[str, AnyQuery]:
    if requested is None:
        return program
    if requested not in program:
        raise ReproError(
            "no view named {!r}; program defines {}".format(
                requested, sorted(program)
            )
        )
    return {requested: program[requested]}


def _print_results(name: str, results, out) -> None:
    print("-- {} ({} tuples)".format(name, len(results)), file=out)
    for output in sorted(results, key=repr):
        print("  {!r:<24} {}".format(output, results[output]), file=out)


#: Engine aliases kept for backward compatibility: ``memory`` was the
#: backtracking engine's historical CLI name, ``sql`` reads better than
#: ``sqlite`` next to ``hashjoin``/``backtrack``.
ENGINE_ALIASES = {"memory": "backtrack", "sql": "sqlite"}

#: All accepted ``--engine`` values: the in-memory engines (from the
#: evaluator's own registry, so a new engine shows up here untouched)
#: plus the SQLite backend, its aliases, and — for plain UCQ evaluation
#: only — the K-relation algebra interpreter.
AGGREGATE_ENGINES = MEMORY_ENGINES + ("sql", "sqlite", "memory")
EVAL_ENGINES = AGGREGATE_ENGINES + ("algebra",)


def _engine_config(args, engine: str) -> EngineConfig:
    """Fold a subcommand's engine flags into one :class:`EngineConfig`.

    The CLI flags are the user interface over the config (not shims):
    they build the config here, and internal calls pass it on.
    """
    return EngineConfig(
        engine=engine,
        shards=getattr(args, "shards", None),
        workers=getattr(args, "workers", None),
        broadcast_threshold=getattr(args, "broadcast_threshold", None),
    )


def _evaluate_any(
    query: AnyQuery,
    db: AnnotatedDatabase,
    config: EngineConfig,
):
    engine = config.engine
    if isinstance(query, AggregateQuery):
        if engine in MEMORY_ENGINES:
            return evaluate_aggregate(query, db, config)
        if engine == "sqlite":
            store = SQLiteDatabase.from_annotated(db)
            try:
                return store.evaluate_aggregate(query)
            finally:
                store.close()
        raise ReproError(
            "the {} engine does not support aggregate queries; use "
            "--engine hashjoin, backtrack, sharded or sql".format(engine)
        )
    if engine in MEMORY_ENGINES:
        return evaluate(query, db, config)
    if engine == "sqlite":
        store = SQLiteDatabase.from_annotated(db)
        try:
            return store.evaluate(query)
        finally:
            store.close()
    if engine == "algebra":
        from repro.algebra.compile import evaluate_via_algebra

        return evaluate_via_algebra(query, db)
    raise ReproError(  # pragma: no cover - argparse restricts choices
        "unknown engine {!r}".format(engine)
    )


def command_eval(args, out) -> int:
    program = _select_views(load_program(args.program), args.view)
    db = load_database(args.data)
    engine = ENGINE_ALIASES.get(args.engine, args.engine)
    config = _engine_config(args, engine)
    if engine == "sharded":
        # One session for the whole program: the database is
        # partitioned (and shipped to the worker pool) once, not once
        # per view.
        from repro.session import QuerySession

        with QuerySession(db, config) as session:
            for name, query in sorted(program.items()):
                if isinstance(query, AggregateQuery):
                    _print_results(name, session.evaluate_aggregate(query), out)
                else:
                    _print_results(name, session.evaluate(query), out)
        return 0
    for name, query in sorted(program.items()):
        _print_results(name, _evaluate_any(query, db, config), out)
    return 0


def load_queries(path: str) -> List[str]:
    """Load the ``batch`` subcommand's JSON list of query texts."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, list) or not all(
        isinstance(entry, str) for entry in payload
    ):
        raise ReproError(
            "queries file must hold a JSON list of query strings"
        )
    return payload


def command_batch(args, out) -> int:
    texts = load_queries(args.queries)
    queries = [parse_query(text) for text in texts]
    db = load_database(args.data)
    engine = ENGINE_ALIASES.get(args.engine, args.engine)
    config = _engine_config(args, engine)
    if engine in ("sharded", "hashjoin"):
        # One session for the whole batch: shared plan cache, shared
        # shard partitioning/pool, one pinned intern table, and
        # duplicate or overlapping queries evaluated once.
        from repro.session import QuerySession

        with QuerySession(db, config) as session:
            results = session.evaluate_batch(queries)
    else:
        results = [_evaluate_any(query, db, config) for query in queries]
    for index, (text, result) in enumerate(zip(texts, results)):
        _print_results("[{}] {}".format(index, " ".join(text.split())), result, out)
    return 0


def _symbol_set(text: Optional[str]):
    return {part.strip() for part in text.split(",") if part.strip()} if text else None


def command_aggregate(args, out) -> int:
    program = _select_views(load_program(args.program), args.view)
    aggregates = {
        name: query
        for name, query in program.items()
        if isinstance(query, AggregateQuery)
    }
    if not aggregates:
        raise ReproError(
            "the program defines no aggregate queries; heads like "
            "ans(x, sum(y)) are required"
        )
    db = load_database(args.data)
    deleted = _symbol_set(args.delete)
    trusted = _symbol_set(args.trust)
    probabilities = None
    if args.probabilities:
        with open(args.probabilities) as handle:
            try:
                probabilities = {
                    str(symbol): float(p)
                    for symbol, p in json.load(handle).items()
                }
            except (AttributeError, TypeError, ValueError) as error:
                raise ReproError(
                    "probabilities file must map annotations to numbers: "
                    "{}".format(error)
                )
    config = _engine_config(
        args, ENGINE_ALIASES.get(args.engine, args.engine)
    )
    for name, query in sorted(aggregates.items()):
        results = _evaluate_any(query, db, config)
        ops = query.aggregate_ops
        _print_results(name, results, out)
        if deleted is not None:
            survivors, killed = propagate_deletion_aggregates(results, deleted)
            print(
                "-- after deleting {{{}}}".format(", ".join(sorted(deleted))),
                file=out,
            )
            for group in sorted(results, key=repr):
                if group in survivors:
                    values = survivors[group].specialize(
                        lambda s: 0 if s in deleted else 1
                    )
                    print(
                        "  {!r:<24} {}".format(
                            group,
                            " ".join(
                                "{}={!r}".format(op, value)
                                for op, value in zip(ops, values)
                            ),
                        ),
                        file=out,
                    )
            for group in sorted(killed, key=repr):
                print("  {!r:<24} (group deleted)".format(group), file=out)
        if trusted is not None:
            print(
                "-- trusting {{{}}} only".format(", ".join(sorted(trusted))),
                file=out,
            )
            for group in sorted(results, key=repr):
                values = [
                    trusted_aggregate_value(element, trusted)
                    for element in results[group].aggregates
                ]
                print(
                    "  {!r:<24} {}".format(
                        group,
                        " ".join(
                            "{}={!r}".format(op, value)
                            for op, value in zip(ops, values)
                        ),
                    ),
                    file=out,
                )
        if probabilities is not None:
            print("-- under tuple probabilities", file=out)
            for group in sorted(results, key=repr):
                rendered = []
                for index, op in enumerate(ops):
                    element = results[group].aggregates[index]
                    try:
                        if element.monoid.linear:
                            rendered.append(
                                "E[{}]={:.4f}".format(
                                    op,
                                    expected_aggregate(element, probabilities),
                                )
                            )
                        else:
                            distribution = aggregate_distribution(
                                results[group], probabilities, aggregate=index
                            )
                            rendered.append(
                                "P[{}]={{{}}}".format(
                                    op,
                                    ", ".join(
                                        "{!r}: {:.4f}".format(value, p)
                                        for value, p in sorted(
                                            distribution.items(), key=repr
                                        )
                                    ),
                                )
                            )
                    except KeyError as error:
                        raise ReproError(
                            "probabilities file is incomplete: "
                            "{}".format(error.args[0])
                        )
                print("  {!r:<24} {}".format(group, " ".join(rendered)), file=out)
    return 0


def command_minimize(args, out) -> int:
    program = _select_views(load_program(args.program), args.view)
    for name, query in sorted(program.items()):
        if isinstance(query, AggregateQuery):
            raise ReproError(
                "view {!r} is an aggregate query; minimization is defined "
                "for UCQ≠ only".format(name)
            )
        print("-- {}".format(name), file=out)
        if args.algorithm == "standard":
            print(query_to_str(minimize_query(query)), file=out)
        elif args.trace:
            trace = min_prov_trace(query)
            for label, step in (
                ("QI", trace.step1),
                ("QII", trace.step2),
                ("QIII", trace.step3),
            ):
                print("{} ({} adjuncts):".format(label, len(step.adjuncts)), file=out)
                print(query_to_str(step), file=out)
        else:
            print(query_to_str(min_prov(query)), file=out)
    return 0


def command_core(args, out) -> int:
    program = _select_views(load_program(args.program), args.view)
    db = load_database(args.data)
    for name, query in sorted(program.items()):
        if isinstance(query, AggregateQuery):
            raise ReproError(
                "view {!r} is an aggregate query; core provenance is "
                "defined for UCQ≠ results (aggregate annotations are "
                "semimodule elements)".format(name)
            )
        results = evaluate(query, db)
        core = core_provenance_table(results, db, query_constants(query))
        _print_results(name + " (core provenance)", core, out)
    return 0


def command_maintain(args, out) -> int:
    program = load_program(args.program)
    db = load_database(args.data)
    deltas = load_deltas(args.updates)
    # Context-managed like every other CLI session holder: a hashjoin
    # registry has no pool, but forgetting close() on a sharded one
    # would leak its worker threads past the command.
    with ViewRegistry(program, db) as registry:
        stats = registry.stats()
        print(
            "-- materialized {} views ({} tuples) over {} base facts".format(
                len(registry.order), stats["view_tuples"], stats["base_facts"]
            ),
            file=out,
        )
        for index, delta in enumerate(deltas, start=1):
            report = registry.apply(delta)
            print(
                "-- batch {} ({} changes): {}".format(
                    index, delta.size(), report.summary()
                ),
                file=out,
            )
        if args.check:
            audit = check_consistency(registry)
            if not audit.consistent:
                print("consistency: FAILED", file=out)
                for mismatch in audit.mismatches:
                    print("  {}".format(mismatch), file=out)
                return 1
            print("consistency: ok (matches full re-evaluation)", file=out)
        if not args.quiet:
            for name in registry.order:
                _print_results(name, registry.view(name), out)
    return 0


def command_serve(args, out) -> int:
    """Serve the database (and optional view program) over HTTP.

    Everything is context-managed: the server owns a
    :class:`~repro.server.app.ServerState` whose session (and registry)
    worker pools are released on the way out — including on Ctrl-C and
    on errors — so no leaked pool outlives the command.
    """
    from repro.server.app import make_server

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    db = load_database(args.data)
    program = load_program(args.program) if args.program else None
    with make_server(
        db,
        host=args.host,
        port=args.port,
        program=program,
        config=_engine_config(args, args.engine),
        cache_size=args.cache_size,
        metrics=not args.no_metrics,
        data_dir=args.data_dir,
        snapshot_every=args.snapshot_every,
        server_mode=args.server_mode,
        request_timeout=args.request_timeout,
        idle_timeout=args.idle_timeout,
        max_pending=args.max_pending,
        max_subscriptions=args.max_subscriptions,
        ring_size=args.ring_size,
    ) as server:
        host, port = server.server_address[:2]
        print(
            "listening on http://{}:{} (engine={}, mode={}{}; "
            "Ctrl-C stops)".format(
                host,
                port,
                args.engine,
                args.server_mode,
                ", {} views".format(len(program)) if program else "",
            ),
            file=out,
        )
        recovery = server.state.recovery
        if recovery is not None:
            # After the banner: subprocess harnesses parse the first
            # line for the bound port.
            print(
                "recovered version {} from {} (snapshot {}, {} wal "
                "records replayed)".format(
                    recovery.version,
                    args.data_dir,
                    recovery.snapshot_version,
                    recovery.replayed,
                ),
                file=out,
            )
        out.flush()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=out)
    return 0


def command_snapshot(args, out) -> int:
    """Write a fresh durability snapshot into ``--data-dir``.

    With existing durable state the directory is *compacted*: the
    state is recovered (snapshot + WAL replay) and re-snapshotted at
    its current version, so the next boot replays nothing.  An empty
    directory is seeded from ``-d data.json`` (plus ``-p program.dl``
    for a registry-backed server).
    """
    from repro.durability.store import DurableStore

    program = load_program(args.program) if args.program else None
    store = DurableStore(args.data_dir)
    try:
        if store.has_state():
            recovered = store.recover(program=program)
            registry = recovered.registry
            db = registry.serving_db if registry is not None else recovered.db
            intern_state = recovered.intern_state
            action = "compacted ({} wal records folded in)".format(
                recovered.replayed
            )
        elif args.data is None:
            raise ReproError(
                "{} holds no durable state; seed it with -d data.json".format(
                    args.data_dir
                )
            )
        else:
            db = load_database(args.data)
            registry = None
            if program is not None:
                registry = ViewRegistry(program, db)
                db = registry.serving_db
            intern_state = None
            action = "seeded"
        try:
            version = store.snapshot(db, registry, intern_state)
        finally:
            if registry is not None:
                registry.close()
    finally:
        store.close()
    print(
        "snapshot {} in {}: version {}".format(action, args.data_dir, version),
        file=out,
    )
    return 0


def command_recover(args, out) -> int:
    """Recover from ``--data-dir`` and report (optionally audit) it.

    A dry run of exactly what ``serve --data-dir`` does on boot:
    loads the latest valid snapshot, replays the WAL tail, and prints
    the version the state came back at.  ``--check`` additionally
    audits a registry-backed state against full re-evaluation.
    """
    from repro.durability.store import DurableStore

    program = load_program(args.program) if args.program else None
    store = DurableStore(args.data_dir)
    try:
        recovered = store.recover(program=program)
    finally:
        store.close()
    print(
        "recovered version {} (snapshot {}, {} wal records replayed, "
        "{} skipped, {} torn tails truncated)".format(
            recovered.version,
            recovered.snapshot_version,
            recovered.replayed,
            recovered.skipped,
            recovered.truncated,
        ),
        file=out,
    )
    registry = recovered.registry
    if registry is not None:
        try:
            stats = registry.stats()
            print(
                "-- {} views ({} tuples) over {} base facts".format(
                    len(registry.order),
                    stats["view_tuples"],
                    stats["base_facts"],
                ),
                file=out,
            )
            if args.check:
                audit = check_consistency(registry)
                if not audit.consistent:
                    print("consistency: FAILED", file=out)
                    for mismatch in audit.mismatches:
                        print("  {}".format(mismatch), file=out)
                    return 1
                print(
                    "consistency: ok (matches full re-evaluation)", file=out
                )
        finally:
            registry.close()
    elif args.check:
        print(
            "consistency: ok (bare database, {} facts)".format(
                recovered.db.fact_count()
            ),
            file=out,
        )
    return 0


def command_trace(args, out) -> int:
    """Evaluate one query with tracing on and print the span tree.

    The same ambient-tracer plumbing the server's ``?trace=1`` uses,
    pointed at a one-shot :class:`~repro.session.QuerySession` — so the
    printed stages (parse → plan → join → merge, plus the shard
    fan-out under ``--engine sharded``) are exactly what a served
    request would record.
    """
    from repro.obs.trace import format_trace, tracing
    from repro.session import QuerySession

    db = load_database(args.data)
    with tracing("query") as tracer:
        with tracer.span("parse"):
            query = parse_query(args.query)
        config = _engine_config(args, args.engine).with_overrides(
            mode="thread"
        )
        with QuerySession(db, config) as session:
            results = session.evaluate_batch([query])[0]
    tree = tracer.tree()
    if args.json:
        json.dump(tree, out, indent=2, sort_keys=True)
        print(file=out)
    else:
        print(format_trace(tree), file=out)
        print("-- {} result tuples".format(len(results)), file=out)
    return 0


def command_sql(args, out) -> int:
    program = _select_views(load_program(args.program), args.view)
    store = SQLiteDatabase()
    for name, query in sorted(program.items()):
        print("-- {}".format(name), file=out)
        print(store.explain(query), file=out)
    store.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-prov",
        description="Provenance evaluation and minimization "
        "(reproduction of 'On Provenance Minimization', PODS 2011)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, needs_data):
        sub.add_argument("-p", "--program", required=True, help="rule file")
        if needs_data:
            sub.add_argument("-d", "--data", required=True, help="JSON data file")
        sub.add_argument("--view", help="restrict to one view name")

    def add_parallel(sub):
        sub.add_argument(
            "--shards",
            type=int,
            metavar="N",
            help="shard count for --engine sharded (default: 4)",
        )
        sub.add_argument(
            "--workers",
            type=int,
            metavar="N",
            help="worker-pool size for --engine sharded "
            "(default: min(shards, CPU count))",
        )
        sub.add_argument(
            "--broadcast-threshold",
            type=int,
            metavar="N",
            help="replicate relations smaller than N rows to every "
            "shard instead of partitioning them (--engine sharded)",
        )

    sub_eval = subparsers.add_parser("eval", help="evaluate with provenance")
    add_common(sub_eval, needs_data=True)
    sub_eval.add_argument(
        "--engine",
        choices=EVAL_ENGINES,
        default="hashjoin",
        help="evaluation engine (default: hashjoin; memory/sql are "
        "aliases of backtrack/sqlite)",
    )
    add_parallel(sub_eval)
    sub_eval.set_defaults(handler=command_eval)

    sub_batch = subparsers.add_parser(
        "batch",
        help="evaluate a JSON list of queries through one QuerySession",
    )
    sub_batch.add_argument(
        "-q",
        "--queries",
        required=True,
        help="JSON file: a list of query texts (rule syntax)",
    )
    sub_batch.add_argument("-d", "--data", required=True, help="JSON data file")
    sub_batch.add_argument(
        "--engine",
        choices=EVAL_ENGINES,
        default="sharded",
        help="evaluation engine (default: sharded; sharded/hashjoin "
        "batch through a QuerySession)",
    )
    add_parallel(sub_batch)
    sub_batch.set_defaults(handler=command_batch)

    sub_agg = subparsers.add_parser(
        "aggregate",
        help="evaluate aggregate queries to semimodule annotations",
    )
    add_common(sub_agg, needs_data=True)
    sub_agg.add_argument(
        "--engine",
        choices=AGGREGATE_ENGINES,
        default="hashjoin",
        help="evaluation engine (default: hashjoin; memory/sql are "
        "aliases of backtrack/sqlite)",
    )
    add_parallel(sub_agg)
    sub_agg.add_argument(
        "--delete",
        metavar="SYMS",
        help="comma-separated annotations to delete; prints the "
        "specialized aggregates",
    )
    sub_agg.add_argument(
        "--trust",
        metavar="SYMS",
        help="comma-separated trusted annotations; prints the "
        "trusted-only aggregates",
    )
    sub_agg.add_argument(
        "--probabilities",
        metavar="FILE",
        help="JSON {annotation: probability}; prints expected values "
        "(sum/count) and exact distributions (min/max)",
    )
    sub_agg.set_defaults(handler=command_aggregate)

    sub_min = subparsers.add_parser("minimize", help="rewrite to p-minimal form")
    add_common(sub_min, needs_data=False)
    sub_min.add_argument(
        "--algorithm",
        choices=("minprov", "standard"),
        default="minprov",
        help="minimization algorithm (default: minprov)",
    )
    sub_min.add_argument(
        "--trace", action="store_true", help="print the MinProv steps"
    )
    sub_min.set_defaults(handler=command_minimize)

    sub_core = subparsers.add_parser(
        "core", help="direct core provenance of every output tuple"
    )
    add_common(sub_core, needs_data=True)
    sub_core.set_defaults(handler=command_core)

    sub_sql = subparsers.add_parser("sql", help="show compiled SQL")
    add_common(sub_sql, needs_data=False)
    sub_sql.set_defaults(handler=command_sql)

    sub_maintain = subparsers.add_parser(
        "maintain", help="materialize views and apply update batches incrementally"
    )
    sub_maintain.add_argument("-p", "--program", required=True, help="rule file")
    sub_maintain.add_argument("-d", "--data", required=True, help="JSON data file")
    sub_maintain.add_argument(
        "-u", "--updates", required=True, help="JSON updates file (delta batches)"
    )
    sub_maintain.add_argument(
        "--check",
        action="store_true",
        help="audit the maintained state against full re-evaluation",
    )
    sub_maintain.add_argument(
        "--quiet", action="store_true", help="suppress the final view dump"
    )
    sub_maintain.set_defaults(handler=command_maintain)

    sub_serve = subparsers.add_parser(
        "serve",
        help="serve queries, updates and views over JSON HTTP",
    )
    sub_serve.add_argument("-d", "--data", required=True, help="JSON data file")
    sub_serve.add_argument(
        "-p",
        "--program",
        help="optional rule file; given one, the server fronts a "
        "ViewRegistry (incremental /update, /views/<name> reads)",
    )
    sub_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    sub_serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (0 picks a free one; the chosen port is printed)",
    )
    sub_serve.add_argument(
        "--engine",
        choices=("hashjoin", "sharded"),
        default="hashjoin",
        help="serving engine (default: hashjoin; sharded runs a "
        "thread-mode shard pool)",
    )
    add_parallel(sub_serve)
    sub_serve.add_argument(
        "--server-mode",
        choices=("async", "threaded"),
        default="async",
        help="serving front end: the asyncio event-loop tier (default; "
        "10k+ concurrent connections) or the one-thread-per-connection "
        "fallback",
    )
    sub_serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request read deadline: a client that stalls sending "
        "headers or the promised body is cut loose after this long "
        "(default: 30)",
    )
    sub_serve.add_argument(
        "--idle-timeout",
        type=float,
        metavar="SECONDS",
        help="async tier: how long a keep-alive connection may idle "
        "between requests (default: 60)",
    )
    sub_serve.add_argument(
        "--max-pending",
        type=int,
        metavar="N",
        help="async tier: engine-bound requests admitted concurrently "
        "before 503 + Retry-After load shedding (default: 256)",
    )
    sub_serve.add_argument(
        "--max-subscriptions",
        type=int,
        metavar="N",
        help="changefeed subscriptions admitted before POST /v1/subscribe "
        "answers 429 (default: 1024)",
    )
    sub_serve.add_argument(
        "--ring-size",
        type=int,
        metavar="N",
        help="per-subscription replay ring: events a disconnected "
        "consumer can resume across before a full reset (default: 256)",
    )
    sub_serve.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="N",
        help="LRU bound of the version-keyed result cache (default: 256)",
    )
    sub_serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable the metrics registry (GET /metrics answers 404; "
        "instrumentation points become shared no-ops)",
    )
    sub_serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="stdlib logging level; 'info' emits one structured line "
        "per request on the repro.server logger (default: warning)",
    )
    sub_serve.add_argument(
        "--data-dir",
        metavar="DIR",
        help="durability directory (snapshots + write-ahead log); an "
        "existing state is recovered and served instead of -d",
    )
    sub_serve.add_argument(
        "--snapshot-every",
        type=int,
        metavar="N",
        help="rotate the WAL into a fresh snapshot every N accepted "
        "update batches (default: 512)",
    )
    sub_serve.set_defaults(handler=command_serve)

    sub_snapshot = subparsers.add_parser(
        "snapshot",
        help="write (or compact into) a durability snapshot",
    )
    sub_snapshot.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="durability directory to snapshot into",
    )
    sub_snapshot.add_argument(
        "-d", "--data",
        help="JSON data file to seed an empty directory from",
    )
    sub_snapshot.add_argument(
        "-p", "--program",
        help="rule file (required when the state serves a view program)",
    )
    sub_snapshot.set_defaults(handler=command_snapshot)

    sub_recover = subparsers.add_parser(
        "recover",
        help="dry-run boot recovery from a durability directory",
    )
    sub_recover.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="durability directory to recover from",
    )
    sub_recover.add_argument(
        "-p", "--program",
        help="rule file (required when the state serves a view program)",
    )
    sub_recover.add_argument(
        "--check",
        action="store_true",
        help="audit the recovered views against full re-evaluation",
    )
    sub_recover.set_defaults(handler=command_recover)

    sub_trace = subparsers.add_parser(
        "trace",
        help="evaluate one query with tracing on and print the span tree",
    )
    sub_trace.add_argument("query", help="query text (rule syntax)")
    sub_trace.add_argument("-d", "--data", required=True, help="JSON data file")
    sub_trace.add_argument(
        "--engine",
        choices=("hashjoin", "sharded"),
        default="hashjoin",
        help="evaluation engine (default: hashjoin; sharded shows the "
        "shard fan-out stages)",
    )
    add_parallel(sub_trace)
    sub_trace.add_argument(
        "--json",
        action="store_true",
        help="print the trace tree as JSON instead of the indented view",
    )
    sub_trace.set_defaults(handler=command_trace)
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
