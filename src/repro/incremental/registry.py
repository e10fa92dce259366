"""A registry of materialized views maintained incrementally.

:class:`ViewRegistry` materializes a view program (as
:func:`repro.views.program.evaluate_program` does) and then keeps every
view consistent under batched base updates without re-evaluation:

* deletions and annotation updates are pushed through the stored
  polynomials — a view tuple is touched **only** when one of its
  monomials mentions a changed symbol, found through an inverted
  symbol → view-tuple index (provenance-driven invalidation, reusing
  :func:`repro.apps.deletion.partition_by_survival`);
* insertions are pushed through the delta rule of
  :mod:`repro.incremental.delta`, joining only against rows reachable
  from the inserted tuples via the working database's hash indexes;
* view-level changes (a view tuple dying or being born) become the
  delta of downstream views, processed in topological order.

Fresh symbols keep the layered structure of
:class:`~repro.views.program.ViewEvaluation`: each view tuple carries a
symbol standing for its polynomial over the previous layers, and
``base_provenance`` composes the layers down to base annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.aggregate.evaluate import evaluate_aggregate
from repro.aggregate.result import AggregateAccumulator, AggregateResult
from repro.apps.deletion import delete_tuples, partition_by_survival
from repro.config import EngineConfig, resolve_engine_config
from repro.db.instance import AnnotatedDatabase, Row
from repro.engine.evaluate import evaluate
from repro.errors import EvaluationError
from repro.incremental.delta import (
    Delta,
    apply_to_database,
    delta_assignments,
    delta_provenance,
)
from repro.query.aggregate import AggregateQuery, AnyQuery
from repro.semiring.polynomial import Polynomial
from repro.utils.naming import NameSupply
from repro.views.program import (
    MaterializedView,
    ViewEvaluation,
    check_aggregates_terminal,
    dependency_order,
    expand_to_base,
)

ViewTuple = Tuple[str, Row]

#: Where a cached row fragment's polynomial text starts: right after
#: ``{"provenance":`` (see :func:`repro.io.result_row_json`).
_PROVENANCE_AT = len('{"provenance":')

#: Binding or group fragments joined per :meth:`ViewRegistry.
#: materialized_json` chunk.
_FRAGMENTS_PER_CHUNK = 256


@dataclass
class ViewChange:
    """What one maintenance batch did to one view.

    For plain views the values are polynomials and ``deleted`` maps
    each dead row to its retired symbol; for aggregate views the values
    are :class:`~repro.aggregate.result.AggregateResult` rows and the
    retired symbol is ``""`` (terminal views bind no symbols).
    """

    inserted: Dict[Row, Polynomial] = field(default_factory=dict)
    deleted: Dict[Row, str] = field(default_factory=dict)  # row -> retired symbol
    updated: Dict[Row, Polynomial] = field(default_factory=dict)

    def is_empty(self) -> bool:
        """True when the view was untouched."""
        return not (self.inserted or self.deleted or self.updated)

    def summary(self) -> str:
        """Compact ``+i -d ~u`` counts."""
        return "+{} -{} ~{}".format(
            len(self.inserted), len(self.deleted), len(self.updated)
        )


@dataclass
class MaintenanceReport:
    """The per-view outcome of applying one :class:`Delta` batch."""

    base: Delta
    changes: Dict[str, ViewChange]

    def touched_views(self) -> List[str]:
        """Views actually modified, in maintenance order."""
        return [name for name, change in self.changes.items() if not change.is_empty()]

    def summary(self) -> str:
        """One line, e.g. ``V1 +1 -0 ~2; V2 +0 -1 ~0``."""
        parts = [
            "{} {}".format(name, change.summary())
            for name, change in self.changes.items()
            if not change.is_empty()
        ]
        return "; ".join(parts) if parts else "no view changes"


class ViewRegistry:
    """Materialized views over an annotated database, kept fresh by deltas.

    >>> from repro.query.parser import parse_program
    >>> db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "c")]})
    >>> registry = ViewRegistry(parse_program("V(x, z) :- R(x, y), R(y, z)"), db)
    >>> sorted(registry.view("V"))
    [('a', 'c')]
    >>> report = registry.apply(Delta(inserts=[("R", ("c", "a"))]))
    >>> sorted(registry.view("V"))
    [('a', 'c'), ('b', 'a'), ('c', 'b')]
    """

    def __init__(
        self,
        program: Mapping[str, AnyQuery],
        db: AnnotatedDatabase,
        symbol_prefix: str = "w",
        config: Union[EngineConfig, str, None] = None,
    ):  # noqa: D107
        config = resolve_engine_config(config, "ViewRegistry")
        if config.engine not in ("hashjoin", "sharded"):
            raise EvaluationError(
                "unknown registry engine {!r}; supported: hashjoin, "
                "sharded".format(config.engine)
            )
        self._config = config
        engine = config.engine
        self._engine = engine
        clashes = set(program) & db.relations()
        if clashes:
            raise EvaluationError(
                "view names clash with base relations: {}".format(sorted(clashes))
            )
        if not db.is_abstractly_tagged():
            # Symbol-keyed invalidation identifies tuples by annotation;
            # a shared tag would make deletion of one tuple zero the
            # monomials of another (the Sec. 6 repeated-tag regime needs
            # composition through views, not shared base tags).
            raise EvaluationError(
                "incremental maintenance requires an abstractly-tagged "
                "base database (every tuple carrying a distinct annotation)"
            )
        self._program: Dict[str, AnyQuery] = dict(program)
        self._order = dependency_order(self._program)
        self._aggregate_names = check_aggregates_terminal(self._program)
        self._base_relations = set(db.relations())
        self._supply = NameSupply(symbol_prefix, avoid=db.annotations())
        # The sharded engine keeps its partitioning warm through the
        # working database's change log, so only that engine pays for
        # one.
        self._db = AnnotatedDatabase(track_changes=(engine == "sharded"))
        for relation in sorted(db.relations()):
            self._db.declare_relation(relation, db.arity(relation))
        for relation, row, annotation in db.all_facts():
            self._db.add(relation, row, annotation=annotation)
        self._session = None
        if engine == "sharded":
            # Imported lazily (repro.session imports the engine stack,
            # which reaches back into this package's siblings).  Thread
            # mode: the working database mutates every batch, and
            # re-pickling payloads to a process pool per delta would
            # swamp the deltas themselves.
            from repro.session import QuerySession

            self._session = QuerySession(
                self._db, config.with_overrides(mode="thread")
            )
        self._views: Dict[str, Dict[Row, Polynomial]] = {}
        self._symbols: Dict[str, Dict[Row, str]] = {}
        self._bindings: Dict[str, Polynomial] = {}
        self._aggregates: Dict[str, Dict[Row, AggregateResult]] = {}
        self._dependents: Dict[str, Set[ViewTuple]] = {}
        self._dynamic: Dict[str, AnyQuery] = {}
        self._observers: List = []
        self._fragments: Dict[str, Tuple[Polynomial, str]] = {}
        self._materialize()

    # ------------------------------------------------------------------
    # Durability (checkpoint / restore without re-materializing)
    # ------------------------------------------------------------------
    def materialized_state(self) -> Dict[str, object]:
        """JSON-ready registry state for the durability snapshot.

        Plain views are *not* serialized here: their rows and symbols
        live in the working database (checkpointed separately), and
        their polynomials are exactly the ``bindings`` values — storing
        them twice would only invite divergence.  What the working
        database cannot reconstruct travels here: the fresh-symbol
        supply, bindings, aggregate views (terminal, so absent from the
        working database), and the base-relation set.
        """
        from repro.io import aggregate_results_to_list, polynomial_to_list
        from repro.query.printer import query_to_str

        return {
            "supply": self._supply.state(),
            "order": list(self._order),
            "dynamic": {
                name: query_to_str(query)
                for name, query in sorted(self._dynamic.items())
            },
            "aggregate_names": sorted(self._aggregate_names),
            "base_relations": sorted(self._base_relations),
            "bindings": {
                symbol: polynomial_to_list(polynomial)
                for symbol, polynomial in sorted(self._bindings.items())
            },
            "aggregates": {
                name: aggregate_results_to_list(groups)
                for name, groups in sorted(self._aggregates.items())
            },
        }

    def materialized_json(self) -> List[bytes]:
        """``canonical_json(materialized_state())`` (no trailing newline),
        as chunks whose concatenation is those exact bytes.

        The durability snapshot writes these chunks instead of building
        the JSON-ready state: each binding's polynomial text is reused
        from the view-read cache (see :meth:`view_fragments`) when its
        row is unchanged since the last read, and everything else is
        encoded a few rows at a time, so the transient heap stays a
        small multiple of the section's size.
        """
        from repro.io import (
            aggregate_result_to_dict,
            fragment_json,
            polynomial_json,
        )
        from repro.query.printer import query_to_str

        chunks: List[bytes] = []
        parts: List[str] = []

        def emit(text: str) -> None:
            parts.append(text)
            if len(parts) >= _FRAGMENTS_PER_CHUNK:
                flush()

        def flush() -> None:
            chunks.append("".join(parts).encode("utf-8"))
            parts.clear()

        emit('{{"aggregate_names":{},"aggregates":{{'.format(
            fragment_json(sorted(self._aggregate_names))
        ))
        aggregates = sorted(self._aggregates.items())
        for position, (name, groups) in enumerate(aggregates):
            emit('{}{}:['.format("," if position else "", fragment_json(name)))
            for index, (group, result) in enumerate(
                sorted(groups.items(), key=lambda kv: repr(kv[0]))
            ):
                text = fragment_json(aggregate_result_to_dict(group, result))
                emit("," + text if index else text)
            emit("]")
        emit('}},"base_relations":{},"bindings":{{'.format(
            fragment_json(sorted(self._base_relations))
        ))
        fragments = self._fragments
        bindings = sorted(self._bindings.items())
        for index, (symbol, polynomial) in enumerate(bindings):
            entry = fragments.get(symbol)
            if entry is not None and entry[0] is polynomial:
                # The fragment's last ',"tuple":' is its own separator:
                # inside JSON text a quote before a colon ends a key,
                # and the tuple is an array, so it holds no keys.
                text = entry[1][_PROVENANCE_AT:entry[1].rindex(',"tuple":')]
            else:
                text = polynomial_json(polynomial)
            emit(
                '{}{}:{}'.format("," if index else "", fragment_json(symbol), text)
            )
        emit('}},"dynamic":{},"order":{},"supply":{}}}'.format(
            fragment_json(
                {
                    name: query_to_str(query)
                    for name, query in self._dynamic.items()
                }
            ),
            fragment_json(list(self._order)),
            fragment_json(self._supply.state()),
        ))
        flush()
        return chunks

    def view_fragments(self, name: str) -> List[str]:
        """The row fragments of plain view ``name``'s ``GET /views`` body
        (see :func:`repro.io.encode_rows`), in wire order.

        A row's fragment is kept with the row and reused for as long as
        the row's polynomial is the same object: polynomials are
        immutable and every maintenance step that changes a row installs
        a new one, so identity is exactly "unchanged since the last
        read".  A read therefore re-encodes only the rows the updates
        since the previous read touched.  Aggregate views have no
        fragments (:meth:`read_view` serves them).
        """
        from repro.io import polynomial_json, result_row_json

        self._require_view(name)
        if name in self._aggregate_names:
            raise EvaluationError(
                "view {!r} is an aggregate view; it has no row "
                "fragments".format(name)
            )
        view = self._views[name]
        symbols = self._symbols[name]
        fragments = self._fragments
        out: List[str] = []
        for row in sorted(view, key=repr):
            polynomial = view[row]
            symbol = symbols[row]
            entry = fragments.get(symbol)
            if entry is None or entry[0] is not polynomial:
                entry = fragments[symbol] = (
                    polynomial,
                    result_row_json(row, polynomial_json(polynomial)),
                )
            out.append(entry[1])
        return out

    @classmethod
    def from_materialized(
        cls,
        program: Mapping[str, AnyQuery],
        db: AnnotatedDatabase,
        state: Mapping[str, object],
        config: Optional[EngineConfig] = None,
    ) -> "ViewRegistry":
        """Rebuild a registry from a checkpointed *working* database plus
        :meth:`materialized_state`, skipping ``_materialize`` entirely.

        ``db`` must be the restored working database (base relations and
        plain-view rows, e.g. via
        :meth:`~repro.db.instance.AnnotatedDatabase.from_checkpoint`);
        recovery asserts the snapshot was taken under the same view
        program and raises :class:`~repro.errors.EvaluationError`
        otherwise.
        """
        from repro.io import aggregate_results_from_list, polynomial_from_list

        config = resolve_engine_config(config, "ViewRegistry.from_materialized")
        if config.engine not in ("hashjoin", "sharded"):
            raise EvaluationError(
                "unknown registry engine {!r}; supported: hashjoin, "
                "sharded".format(config.engine)
            )
        registry = cls.__new__(cls)
        registry._config = config
        registry._engine = config.engine
        registry._program = dict(program)
        # Views registered at runtime (``add_view``) travel in the
        # snapshot as rule text — merge them back before the
        # program-identity check, or recovery of a server that gained a
        # subscription view would refuse its own snapshot.
        from repro.query.parser import parse_query

        registry._dynamic = {
            name: parse_query(text)
            for name, text in (state.get("dynamic") or {}).items()
        }
        registry._program.update(registry._dynamic)
        registry._order = dependency_order(registry._program)
        registry._aggregate_names = check_aggregates_terminal(registry._program)
        if list(state["order"]) != registry._order or sorted(
            state["aggregate_names"]
        ) != sorted(registry._aggregate_names):
            raise EvaluationError(
                "snapshot was taken under a different view program "
                "(snapshot order {!r}, current {!r})".format(
                    state["order"], registry._order
                )
            )
        registry._base_relations = set(state["base_relations"])
        registry._supply = NameSupply.from_state(state["supply"])
        registry._db = db
        registry._session = None
        if config.engine == "sharded":
            from repro.session import QuerySession

            registry._session = QuerySession(
                db, config.with_overrides(mode="thread")
            )
        registry._bindings = {
            symbol: polynomial_from_list(payload)
            for symbol, payload in state["bindings"].items()
        }
        registry._views = {}
        registry._symbols = {}
        registry._aggregates = {}
        registry._dependents = {}
        registry._observers = []
        registry._fragments = {}
        for name in registry._order:
            if name in registry._aggregate_names:
                groups = aggregate_results_from_list(state["aggregates"][name])
                registry._aggregates[name] = groups
                for row, result in groups.items():
                    registry._register_aggregate(name, row, result)
                continue
            registry._views[name] = {}
            registry._symbols[name] = {}
            for row, symbol in db.facts(name):
                polynomial = registry._bindings.get(symbol)
                if polynomial is None:
                    raise EvaluationError(
                        "snapshot binding for view symbol {!r} of {}{} is "
                        "missing".format(symbol, name, row)
                    )
                registry._views[name][row] = polynomial
                registry._symbols[name][row] = symbol
                for mentioned in polynomial.support():
                    registry._dependents.setdefault(mentioned, set()).add(
                        (name, row)
                    )
        return registry

    # ------------------------------------------------------------------
    # Initial materialization (and full-recompute fallback)
    # ------------------------------------------------------------------
    # Materialization and every full-recompute audit go through the
    # default (hash-join) engine; its cardinality-banded plan cache
    # means the refresh loop re-plans a view query only when a base
    # relation's size crosses a power-of-two band.
    def _materialize(self) -> None:
        for name in self._order:
            if name in self._aggregate_names:
                # Aggregate views are terminal: their groups never feed
                # other views, so they get no fresh symbols and no rows
                # in the working database — only the inverted index.
                if self._session is not None:
                    results = self._session.evaluate_aggregate(
                        self._program[name]
                    )
                else:
                    results = evaluate_aggregate(self._program[name], self._db)
                self._aggregates[name] = results
                for row, result in results.items():
                    self._register_aggregate(name, row, result)
                continue
            self._views[name] = {}
            self._symbols[name] = {}
            self._db.declare_relation(name, self._program[name].arity)
            if self._session is not None:
                results = self._session.evaluate(self._program[name])
            else:
                results = evaluate(self._program[name], self._db)
            for row, polynomial in sorted(results.items(), key=lambda kv: repr(kv[0])):
                self._install(name, row, polynomial)

    def _affected_rows(self, name: str, changed_symbols: Set[str]) -> Set[Row]:
        """Rows of one view whose provenance mentions a changed symbol.

        The inverted-index lookup behind provenance-driven invalidation,
        shared by plain and aggregate maintenance.
        """
        affected: Set[Row] = set()
        for symbol in changed_symbols:
            for dep_name, dep_row in self._dependents.get(symbol, ()):
                if dep_name == name:
                    affected.add(dep_row)
        return affected

    def _register_aggregate(
        self, name: str, row: Row, result: AggregateResult
    ) -> None:
        # Element annotations only mention monomials of the group's
        # provenance, so indexing the provenance support covers both.
        for mentioned in result.provenance.support():
            self._dependents.setdefault(mentioned, set()).add((name, row))

    def _install(self, name: str, row: Row, polynomial: Polynomial) -> str:
        symbol = self._supply.fresh()
        self._views[name][row] = polynomial
        self._symbols[name][row] = symbol
        self._bindings[symbol] = polynomial
        self._db.add(name, row, annotation=symbol)
        for mentioned in polynomial.support():
            self._dependents.setdefault(mentioned, set()).add((name, row))
        return symbol

    def _reindex(
        self, name: str, row: Row, old: Polynomial, new: Polynomial
    ) -> None:
        before = old.support()
        after = new.support()
        for symbol in before - after:
            bucket = self._dependents.get(symbol)
            if bucket is not None:
                bucket.discard((name, row))
                if not bucket:
                    del self._dependents[symbol]
        for symbol in after - before:
            self._dependents.setdefault(symbol, set()).add((name, row))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def apply(self, delta: Delta) -> MaintenanceReport:
        """Apply one batch of base changes, maintaining every view.

        Views never appear in a :class:`Delta` — they change only as a
        consequence of base changes.
        """
        illegal = delta.touched_relations() & set(self._program)
        if illegal:
            raise EvaluationError(
                "deltas must touch base relations only, not views: "
                "{}".format(sorted(illegal))
            )
        self._validate_annotations(delta)
        deleted_symbols, inserted, retag_map = apply_to_database(
            self._db, delta
        )
        self._base_relations.update(inserted)
        changes: Dict[str, ViewChange] = {}
        for name in self._order:
            if name in self._aggregate_names:
                changes[name] = self._maintain_aggregate(
                    name, deleted_symbols, inserted
                )
            else:
                changes[name] = self._maintain_view(
                    name, deleted_symbols, inserted
                )
        # Renames run after the maintenance loop: the deletion filter
        # above matches monomials by the *old* tags, so a batch may
        # retag a surviving tuple to an annotation freed by one of its
        # own deletes without the filter eating the survivor.
        retag_updates = self._apply_retags(retag_map) if retag_map else {}
        for name, rows in retag_updates.items():
            change = changes[name]
            view = (
                self._aggregates[name]
                if name in self._aggregate_names
                else self._views[name]
            )
            for row in rows:
                if (
                    row not in change.deleted
                    and row not in change.updated
                    and row not in change.inserted
                ):
                    change.updated[row] = view[row]
        if self._session is not None:
            # Keep the shard partitioning warm: fold this batch's change
            # records into the ownership maps now, so ad-hoc queries
            # served through :attr:`session` (and re-materializations)
            # re-partition nothing — then prune the consumed records so
            # a long-lived refresh loop's change log stays bounded.
            self._session.refresh()
            self._db.prune_changes(self._db.version())
        report = MaintenanceReport(base=delta, changes=changes)
        version = self._db.version()
        for observer in list(self._observers):
            observer(version, report)
        return report

    def _validate_annotations(self, delta: Delta) -> None:
        """Keep the working database abstractly tagged across the batch.

        Annotations introduced by inserts or retags must be fresh —
        neither live (outside the tuples this very batch deletes) nor
        introduced twice within the batch.  Re-using the annotation of
        a tuple deleted in the same batch is fine: by apply order the
        delete lands first.
        """
        freed: Set[str] = set()
        for relation, row in delta.deletes:
            if self._db.contains(relation, row):
                freed.add(self._db.annotation_of(relation, row))
        introduced: Set[str] = set()
        for relation, row, annotation in delta.inserts:
            if annotation is None or self._db.contains(relation, row):
                continue  # fresh symbol / no-op re-insert
            if (
                annotation in introduced
                or (annotation in self._db.annotations() and annotation not in freed)
            ):
                raise EvaluationError(
                    "insert annotation {!r} is already in use; incremental "
                    "maintenance requires abstract tagging".format(annotation)
                )
            introduced.add(annotation)
        for relation, row, annotation in delta.retags:
            current: Set[str] = set()
            if self._db.contains(relation, row):
                current.add(self._db.annotation_of(relation, row))
            if annotation in current:
                continue  # retag to itself: no-op
            if (
                annotation in introduced
                or (annotation in self._db.annotations() and annotation not in freed)
            ):
                raise EvaluationError(
                    "retag annotation {!r} is already in use; incremental "
                    "maintenance requires abstract tagging".format(annotation)
                )
            introduced.add(annotation)

    def _apply_retags(self, retag_map: Dict[str, str]) -> Dict[str, Set[Row]]:
        affected: Set[ViewTuple] = set()
        for old_symbol in retag_map:
            affected |= self._dependents.get(old_symbol, set())
        touched: Dict[str, Set[Row]] = {}
        for name, row in sorted(affected, key=repr):
            if name in self._aggregate_names:
                old_result = self._aggregates[name][row]
                new_result = old_result.map_polynomials(
                    lambda p: p.map_symbols(retag_map)
                )
                self._aggregates[name][row] = new_result
                self._reindex(
                    name, row, old_result.provenance, new_result.provenance
                )
            else:
                old = self._views[name][row]
                new = old.map_symbols(retag_map)
                self._views[name][row] = new
                self._bindings[self._symbols[name][row]] = new
                self._reindex(name, row, old, new)
            touched.setdefault(name, set()).add(row)
        return touched

    def _maintain_view(
        self,
        name: str,
        deleted_symbols: Set[str],
        inserted: Dict[str, Set[Row]],
    ) -> ViewChange:
        view = self._views[name]
        symbols = self._symbols[name]
        change = ViewChange()

        # Invalidation: only view tuples whose provenance mentions a
        # deleted symbol are touched; everything else is provably stale-free.
        if deleted_symbols:
            affected_rows = self._affected_rows(name, deleted_symbols)
            if affected_rows:
                affected = {row: view[row] for row in affected_rows}
                survivors, killed = partition_by_survival(
                    affected, deleted_symbols
                )
                for row in sorted(killed, key=repr):
                    old = view.pop(row)
                    retired = symbols.pop(row)
                    del self._bindings[retired]
                    self._fragments.pop(retired, None)
                    self._db.remove(name, row)
                    self._reindex(name, row, old, Polynomial.zero())
                    deleted_symbols.add(retired)  # invalidates downstream
                    change.deleted[row] = retired
                for row, new in survivors.items():
                    old = view[row]
                    view[row] = new
                    self._bindings[symbols[row]] = new
                    self._reindex(name, row, old, new)
                    change.updated[row] = new

        # Insertions: the delta join adds the provenance increase.
        if inserted:
            increase = delta_provenance(
                self._program[name], self._db, inserted
            )
            for row in sorted(increase, key=repr):
                extra = increase[row]
                if row in view:
                    old = view[row]
                    new = old + extra
                    view[row] = new
                    self._bindings[symbols[row]] = new
                    self._reindex(name, row, old, new)
                    change.updated[row] = new
                else:
                    self._install(name, row, extra)
                    inserted.setdefault(name, set()).add(row)
                    change.inserted[row] = extra

        return change

    def _maintain_aggregate(
        self,
        name: str,
        deleted_symbols: Set[str],
        inserted: Dict[str, Set[Row]],
    ) -> ViewChange:
        """Maintain one aggregate view through monomial-level deltas.

        Deletions filter the provenance *and* every semimodule tensor
        of exactly the groups the inverted index flags; insertions run
        the delta join over the rules' inner CQs and fold the new
        contributions in.  Aggregate groups never invalidate downstream
        state (the views are terminal), so nothing propagates further.
        """
        query: AggregateQuery = self._program[name]
        view = self._aggregates[name]
        change = ViewChange()

        if deleted_symbols:
            for row in sorted(
                self._affected_rows(name, deleted_symbols), key=repr
            ):
                old = view[row]
                new = old.map_polynomials(
                    lambda p: delete_tuples(p, deleted_symbols)
                )
                if new.provenance.is_zero():
                    del view[row]
                    self._reindex(
                        name, row, old.provenance, Polynomial.zero()
                    )
                    # Terminal views retire no symbol; record the death.
                    change.deleted[row] = ""
                else:
                    view[row] = new
                    self._reindex(name, row, old.provenance, new.provenance)
                    change.updated[row] = new

        if inserted:
            accumulator = AggregateAccumulator(query)
            for rule in query.rules:
                for assignment in delta_assignments(
                    rule.inner, self._db, inserted
                ):
                    accumulator.add(
                        rule,
                        assignment.head_tuple(),
                        Polynomial({assignment.monomial(self._db): 1}),
                    )
            increase = accumulator.results()
            for row in sorted(increase, key=repr):
                extra = increase[row]
                if row in view:
                    old = view[row]
                    new = AggregateResult(
                        old.provenance + extra.provenance,
                        tuple(
                            a + b
                            for a, b in zip(old.aggregates, extra.aggregates)
                        ),
                    )
                    view[row] = new
                    self._reindex(name, row, old.provenance, new.provenance)
                    change.updated[row] = new
                else:
                    view[row] = extra
                    self._register_aggregate(name, row, extra)
                    change.inserted[row] = extra

        return change

    # ------------------------------------------------------------------
    # Observers and dynamic views (the changefeed substrate)
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Call ``observer(version, report)`` after every :meth:`apply`.

        The callback runs synchronously under whatever lock the caller
        holds around :meth:`apply` (the serving tier holds its session
        lock), so an observer sees reports in version order with no
        gaps — exactly the ordering a changefeed cursor promises.
        """
        self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Detach a previously added observer (missing ones ignored)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def add_view(self, name: str, query: AnyQuery) -> None:
        """Register and materialize one view at runtime.

        The new view may read base relations and existing plain views
        (never aggregate views — those stay terminal), and nothing may
        read *it* yet, so the existing materialized state is untouched:
        the view is evaluated once at the current version and then
        maintained like any other.  Dynamic views are recorded in
        :meth:`materialized_state` as rule text so a durability
        snapshot taken after this call recovers them.
        """
        if name in self._program or name in self._db.relations():
            raise EvaluationError(
                "view name {!r} clashes with an existing view or base "
                "relation".format(name)
            )
        missing = query.relations() - self._db.relations()
        if missing:
            raise EvaluationError(
                "view {!r} reads unknown relations: {}".format(
                    name, sorted(missing)
                )
            )
        candidate = dict(self._program)
        candidate[name] = query
        # Validates terminality (an aggregate view can never be read by
        # the newcomer) and recursion-freedom before anything mutates.
        aggregate_names = check_aggregates_terminal(candidate)
        order = dependency_order(candidate)
        self._program = candidate
        self._aggregate_names = aggregate_names
        self._order = order
        self._dynamic[name] = query
        if name in self._aggregate_names:
            if self._session is not None:
                results = self._session.evaluate_aggregate(query)
            else:
                results = evaluate_aggregate(query, self._db)
            self._aggregates[name] = results
            for row, result in results.items():
                self._register_aggregate(name, row, result)
        else:
            self._views[name] = {}
            self._symbols[name] = {}
            self._db.declare_relation(name, query.arity)
            if self._session is not None:
                results = self._session.evaluate(query)
            else:
                results = evaluate(query, self._db)
            for row, polynomial in sorted(
                results.items(), key=lambda kv: repr(kv[0])
            ):
                self._install(name, row, polynomial)
        if self._session is not None:
            self._session.refresh()
            self._db.prune_changes(self._db.version())

    @property
    def dynamic_views(self) -> Dict[str, AnyQuery]:
        """Views registered at runtime via :meth:`add_view` (a copy)."""
        return dict(self._dynamic)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def program(self) -> Dict[str, AnyQuery]:
        """The view program (a copy)."""
        return dict(self._program)

    @property
    def order(self) -> List[str]:
        """The maintenance (topological) order of the views."""
        return list(self._order)

    @property
    def aggregate_names(self) -> Set[str]:
        """Names of the program's aggregate views (a copy)."""
        return set(self._aggregate_names)

    @property
    def session(self):
        """The warm :class:`~repro.session.QuerySession` of a registry
        built with ``engine="sharded"`` (``None`` otherwise).

        It evaluates over the registry's working database — base
        relations *and* materialized plain views — so it doubles as a
        serving path for ad-hoc queries against the maintained state,
        staying warm across :meth:`apply` batches.
        """
        return self._session

    @property
    def engine(self) -> str:
        """The evaluation engine this registry was built with."""
        return self._engine

    @property
    def config(self) -> EngineConfig:
        """The resolved :class:`~repro.config.EngineConfig` in effect."""
        return self._config

    @property
    def engine_options(self) -> Dict[str, Optional[int]]:
        """The ``shards``/``workers`` configuration (for rebuilds)."""
        return {"shards": self._config.shards, "workers": self._config.workers}

    def close(self) -> None:
        """Release the session's worker pool, if any (idempotent)."""
        if self._session is not None:
            self._session.close()

    def __enter__(self) -> "ViewRegistry":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def view(self, name: str) -> Dict[Row, Polynomial]:
        """The materialized view: output tuple → polynomial over the
        previous layers' symbols; for aggregate views, group →
        :class:`~repro.aggregate.result.AggregateResult` (a copy)."""
        if name in self._aggregate_names:
            return dict(self._aggregates[name])
        return dict(self._views[name])

    # ------------------------------------------------------------------
    # Serving path
    # ------------------------------------------------------------------
    @property
    def serving_db(self) -> AnnotatedDatabase:
        """The working database: base relations plus materialized plain
        views, the instance a serving session should evaluate over.

        Read/evaluate only — every mutation must go through
        :meth:`apply`, or the maintained polynomials would silently
        diverge from the data.
        """
        return self._db

    def db_version(self) -> int:
        """The working database's version counter.

        Bumps on every base *and* view change of an :meth:`apply`
        batch, so it is the freshness token the serving tier keys its
        version-keyed result cache on: any maintained change moves it.
        """
        return self._db.version()

    def read_view(self, name: str, base: bool = False) -> Dict[Row, object]:
        """One materialized view for the serving tier (a copy).

        Unlike the version-keyed query cache, view reads need no
        staleness machinery at all: the registry's provenance-driven
        invalidation already rewrote exactly the affected rows during
        :meth:`apply`, so the materialized table *is* the current
        answer.  With ``base=True`` annotations are expanded down to
        base symbols (plain views yield polynomials, aggregate views
        yield :class:`~repro.aggregate.result.AggregateResult` rows
        either way).  Unknown names raise
        :class:`~repro.errors.EvaluationError` — the HTTP layer maps
        that to a 404, not a 500.
        """
        self._require_view(name)
        if not base:
            return self.view(name)
        if name in self._aggregate_names:
            return self.base_aggregates(name)
        return self.base_provenance(name)

    def _require_view(self, name: str) -> None:
        if name not in self._program:
            raise EvaluationError(
                "no view named {!r}; registry serves {}".format(
                    name, sorted(self._program)
                )
            )

    def aggregate_view(self, name: str) -> Dict[Row, AggregateResult]:
        """One maintained aggregate view (a copy)."""
        return dict(self._aggregates[name])

    def base_aggregates(self, name: str) -> Dict[Row, AggregateResult]:
        """An aggregate view with every annotation expanded to base."""
        return {
            row: result.map_polynomials(
                lambda p: expand_to_base(p, self._bindings)
            )
            for row, result in self._aggregates[name].items()
        }

    def symbol_of(self, name: str, row: Row) -> str:
        """The fresh symbol annotating one view tuple."""
        return self._symbols[name][tuple(row)]

    def bindings(self) -> Dict[str, Polynomial]:
        """Every live view symbol → its defining polynomial (a copy)."""
        return dict(self._bindings)

    def base_provenance(self, name: str) -> Dict[Row, Polynomial]:
        """The view's provenance fully expanded to base annotations."""
        if name in self._aggregate_names:
            return {
                row: expand_to_base(result.provenance, self._bindings)
                for row, result in self._aggregates[name].items()
            }
        return {
            row: expand_to_base(polynomial, self._bindings)
            for row, polynomial in self._views[name].items()
        }

    def base_database(self) -> AnnotatedDatabase:
        """A copy of the current base portion of the working database."""
        base = AnnotatedDatabase()
        for relation in sorted(self._base_relations):
            if relation not in self._program:
                base.declare_relation(relation, self._db.arity(relation))
        for relation, row, annotation in self._db.all_facts():
            if relation not in self._program:
                base.add(relation, row, annotation=annotation)
        return base

    def as_evaluation(self) -> ViewEvaluation:
        """The current state in :class:`ViewEvaluation` form."""
        views = {
            name: MaterializedView(
                name=name,
                results=dict(self._views[name]),
                symbols=dict(self._symbols[name]),
            )
            for name in self._order
            if name not in self._aggregate_names
        }
        return ViewEvaluation(
            views=views,
            bindings=dict(self._bindings),
            aggregates={
                name: dict(groups)
                for name, groups in self._aggregates.items()
            },
        )

    def stats(self) -> Dict[str, int]:
        """Cheap size counters (for reports and benchmarks)."""
        return {
            "base_facts": sum(
                len(self._db.rows(relation))
                for relation in self._db.relations()
                if relation not in self._program
            ),
            "view_tuples": sum(len(view) for view in self._views.values())
            + sum(len(groups) for groups in self._aggregates.values()),
            "live_symbols": len(self._bindings),
            "indexes": len(self._db.indexed_positions()),
            "fragments": len(self._fragments),
        }

    def __repr__(self) -> str:
        return "<ViewRegistry {} views, {} view tuples>".format(
            len(self._views), sum(len(view) for view in self._views.values())
        )
