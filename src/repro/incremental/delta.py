"""Semiring delta evaluation for CQ≠/UCQ≠ over hash-indexed databases.

The multiplicative delta rule

``Δ(Q1 ⋈ Q2) = ΔQ1 ⋈ Q2  +  Q1 ⋈ ΔQ2  +  ΔQ1 ⋈ ΔQ2``

generalizes to an ``n``-atom body by designating, per new assignment,
the *first* atom bound to a changed tuple: atoms before the pivot range
over the old tuples only, the pivot ranges over the changed tuples, and
atoms after the pivot range over the whole new relation.  Every
assignment of the new database that touches at least one changed tuple
is enumerated exactly once, so summing its monomials gives precisely
the provenance polynomial *increase* — no subtraction is ever needed in
``N[X]``; deletions are handled separately by monomial filtering (see
:mod:`repro.apps.deletion`).

Joins against the unchanged part of the database probe the database's
own maintained hash indexes (:meth:`AnnotatedDatabase.lookup
<repro.db.instance.AnnotatedDatabase.lookup>` — one per ``(relation,
bound positions)``, built lazily and kept current by every insert and
delete), so a delta join inspects only rows matching the already-bound
attributes instead of scanning whole relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.db.instance import AnnotatedDatabase, ChangeRecord, Row, Value
from repro.engine.evaluate import Assignment, HeadTuple
from repro.errors import SchemaError
from repro.query.cq import ConjunctiveQuery
from repro.query.terms import Constant, Variable
from repro.query.ucq import Query, adjuncts_of
from repro.semiring.polynomial import Polynomial

Fact = Tuple[str, Row]


def _normalize_insert(entry: Sequence) -> Tuple[str, Row, Optional[str]]:
    if len(entry) == 2:
        relation, row = entry
        annotation: Optional[str] = None
    else:
        relation, row, annotation = entry
    return (relation, tuple(row), annotation)


@dataclass(frozen=True)
class Delta:
    """A batch of base-tuple changes: inserts, deletes, annotation updates.

    ``inserts`` holds ``(relation, row, annotation)`` triples (the
    annotation may be ``None`` for a fresh one; plain ``(relation, row)``
    pairs are accepted and normalized); ``deletes`` holds
    ``(relation, row)`` pairs; ``retags`` holds
    ``(relation, row, new_annotation)`` triples.

    >>> d = Delta(inserts=[("R", ("a", "b"))], deletes=[("R", ("b", "a"))])
    >>> d.is_empty()
    False
    >>> sorted(d.touched_relations())
    ['R']
    """

    inserts: Tuple[Tuple[str, Row, Optional[str]], ...] = ()
    deletes: Tuple[Fact, ...] = ()
    retags: Tuple[Tuple[str, Row, str], ...] = ()

    def __post_init__(self):  # noqa: D105
        object.__setattr__(
            self,
            "inserts",
            tuple(_normalize_insert(entry) for entry in self.inserts),
        )
        object.__setattr__(
            self,
            "deletes",
            tuple((relation, tuple(row)) for relation, row in self.deletes),
        )
        object.__setattr__(
            self,
            "retags",
            tuple(
                (relation, tuple(row), annotation)
                for relation, row, annotation in self.retags
            ),
        )

    def is_empty(self) -> bool:
        """True when the batch changes nothing."""
        return not (self.inserts or self.deletes or self.retags)

    def __bool__(self) -> bool:
        return not self.is_empty()

    def touched_relations(self) -> Set[str]:
        """Names of the relations mentioned by any change."""
        touched = {relation for relation, _row, _a in self.inserts}
        touched.update(relation for relation, _row in self.deletes)
        touched.update(relation for relation, _row, _a in self.retags)
        return touched

    def size(self) -> int:
        """Total number of changed tuples."""
        return len(self.inserts) + len(self.deletes) + len(self.retags)

    @classmethod
    def from_changes(cls, records: Iterable[ChangeRecord]) -> "Delta":
        """Fold an :meth:`AnnotatedDatabase.changes_since` log into a batch.

        Churn inside the window cancels: a tuple inserted and deleted
        again nets to nothing; a tuple deleted and re-inserted becomes a
        delete + insert pair; a retag of a tuple inserted in the window
        folds into the insert.
        """
        inserted: Dict[Fact, Optional[str]] = {}
        deleted: Dict[Fact, None] = {}
        retagged: Dict[Fact, str] = {}
        for _version, op, relation, row, annotation in records:
            fact = (relation, row)
            if op == "insert":
                inserted[fact] = annotation
            elif op == "delete":
                retagged.pop(fact, None)
                if fact in inserted and fact not in deleted:
                    del inserted[fact]  # born and died inside the window
                else:
                    inserted.pop(fact, None)
                    deleted[fact] = None
            elif op == "retag":
                if fact in inserted:
                    inserted[fact] = annotation
                else:
                    retagged[fact] = annotation
            else:  # pragma: no cover - the log only holds the three ops
                raise ValueError("unknown change op {!r}".format(op))
        return cls(
            inserts=tuple(
                (relation, row, annotation)
                for (relation, row), annotation in inserted.items()
            ),
            deletes=tuple(deleted),
            retags=tuple(
                (relation, row, annotation)
                for (relation, row), annotation in retagged.items()
            ),
        )


def _bound_positions(
    atom, binding: Dict[Variable, Value]
) -> Tuple[Tuple[int, ...], Tuple[Value, ...]]:
    """The atom positions already determined by constants or the binding."""
    positions: List[int] = []
    key: List[Value] = []
    for position, term in enumerate(atom.args):
        if isinstance(term, Constant):
            positions.append(position)
            key.append(term.value)
        elif term in binding:
            positions.append(position)
            key.append(binding[term])
    return tuple(positions), tuple(key)


def _match(atom, row: Row, binding: Dict[Variable, Value]):
    """New variable bindings induced by assigning ``row`` to ``atom``.

    Returns ``None`` when inconsistent with the existing binding (or
    with a repeated variable inside the atom).
    """
    new: Dict[Variable, Value] = {}
    for term, value in zip(atom.args, row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        elif term in binding:
            if binding[term] != value:
                return None
        elif term in new:
            if new[term] != value:
                return None
        else:
            new[term] = value
    return new


def _arity_matches(db: AnnotatedDatabase, atom) -> bool:
    try:
        return db.arity(atom.relation) == atom.arity
    except SchemaError:
        return True  # unknown relation: no rows, harmless


def delta_assignments(
    query: ConjunctiveQuery,
    db: AnnotatedDatabase,
    inserted: Mapping[str, AbstractSet[Row]],
) -> Iterator[Assignment]:
    """Assignments of ``query`` over ``db`` using ≥ 1 inserted tuple.

    ``db`` must already be the *post-delta* database; ``inserted`` maps
    relation names to the rows added by the delta.  Each qualifying
    assignment is produced exactly once via the pivot decomposition of
    the delta rule (see the module docstring).
    """
    atoms = query.atoms
    if not all(_arity_matches(db, atom) for atom in atoms):
        return
    disequalities = list(query.disequalities)
    missing = object()

    def term_value(term, binding):
        if isinstance(term, Constant):
            return term.value
        return binding.get(term, missing)

    def diseqs_hold(binding) -> bool:
        for dis in disequalities:
            left = term_value(dis.left, binding)
            right = term_value(dis.right, binding)
            if left is not missing and right is not missing and left == right:
                return False
        return True

    for pivot, pivot_atom in enumerate(atoms):
        fresh_rows = inserted.get(pivot_atom.relation)
        if not fresh_rows:
            continue

        def extend(index, binding, chosen, pivot=pivot, fresh_rows=fresh_rows):
            if index == len(atoms):
                yield Assignment(
                    query=query,
                    atom_rows=tuple(chosen),
                    binding=tuple(
                        sorted(binding.items(), key=lambda kv: kv[0].name)
                    ),
                )
                return
            atom = atoms[index]
            if index == pivot:
                candidates: Iterable[Row] = fresh_rows
            else:
                positions, key = _bound_positions(atom, binding)
                candidates = db.lookup(atom.relation, positions, key)
                if index < pivot:
                    changed = inserted.get(atom.relation)
                    if changed:
                        candidates = [
                            row for row in candidates if row not in changed
                        ]
            for row in candidates:
                if len(row) != atom.arity:
                    continue
                new = _match(atom, row, binding)
                if new is None:
                    continue
                binding.update(new)
                if diseqs_hold(binding):
                    chosen.append(row)
                    yield from extend(index + 1, binding, chosen)
                    chosen.pop()
                for variable in new:
                    del binding[variable]

        yield from extend(0, {}, [])


def delta_provenance(
    query: Query,
    db: AnnotatedDatabase,
    inserted: Mapping[str, AbstractSet[Row]],
) -> Dict[HeadTuple, Polynomial]:
    """The provenance *increase* per output tuple caused by ``inserted``.

    Adding these polynomials to the (deletion-filtered) old view yields
    exactly ``evaluate(query, db)`` — the algebraic heart of incremental
    maintenance over ``N[X]``.
    """
    results: Dict[HeadTuple, Polynomial] = {}
    for adjunct in adjuncts_of(query):
        for assignment in delta_assignments(adjunct, db, inserted):
            head = assignment.head_tuple()
            monomial = assignment.monomial(db)
            previous = results.get(head, Polynomial.zero())
            results[head] = previous + Polynomial({monomial: 1})
    return results


def apply_to_database(
    db: AnnotatedDatabase, delta: Delta
) -> Tuple[Set[str], Dict[str, Set[Row]], Dict[str, str]]:
    """Apply a base delta to ``db`` (its hash indexes follow on their own).

    Returns ``(deleted_symbols, inserted_rows_by_relation, retag_map)``
    — the three ingredients of polynomial maintenance.  Deletes are
    applied first, then inserts, then retags, so a delete + re-insert of
    the same tuple in one batch works.  Inserting an already-present
    tuple with a compatible annotation is a no-op (it contributes no new
    assignments).
    """
    deleted_symbols: Set[str] = set()
    inserted: Dict[str, Set[Row]] = {}
    retag_map: Dict[str, str] = {}
    for relation, row in delta.deletes:
        deleted_symbols.add(db.remove(relation, row))
    for relation, row, annotation in delta.inserts:
        if db.contains(relation, row):
            db.add(relation, row, annotation=annotation)  # annotation check
            continue
        db.add(relation, row, annotation=annotation)
        inserted.setdefault(relation, set()).add(row)
    for relation, row, annotation in delta.retags:
        old = db.retag(relation, row, annotation)
        if old == annotation:
            continue
        # Chained retags of the same tuple within one batch compose: the
        # map is applied simultaneously later, so fold a -> b, b -> c
        # into a -> c instead of recording both renames.
        for key, value in list(retag_map.items()):
            if value == old:
                if key == annotation:
                    del retag_map[key]
                else:
                    retag_map[key] = annotation
                break
        else:
            retag_map[old] = annotation
    return deleted_symbols, inserted, retag_map
