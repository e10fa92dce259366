"""In-memory annotated databases (N[X]-relations, Sec. 2.3).

An :class:`AnnotatedDatabase` maps each tuple of each relation to a
provenance annotation symbol.  A database is *abstractly tagged* when
all annotations are distinct — the paper's standing assumption outside
Sec. 6.  Databases with repeated annotations are fully supported so
that the Sec. 6 results (Thms. 6.1 and 6.2) can be exercised.

The database also owns the hash indexes every join reads through: one
per ``(relation, bound positions)``, built on the first probe and kept
current by :meth:`AnnotatedDatabase.add` and
:meth:`AnnotatedDatabase.remove` (see :meth:`AnnotatedDatabase.lookup`).
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    NotAbstractlyTaggedError,
    SchemaError,
    UnknownAnnotationError,
)
from repro.utils.naming import NameSupply

Value = Hashable
Row = Tuple[Value, ...]
FactKey = Tuple[str, Row]

#: A maintained hash index: bound-position values -> the rows carrying them.
Index = Dict[Tuple[Value, ...], List[Row]]

_NO_ROWS: Tuple[Row, ...] = ()

#: One entry of the change log: ``(version, op, relation, row, annotation)``
#: where ``op`` is ``"insert"``, ``"delete"`` or ``"retag"``.  For a retag
#: the annotation field holds the *new* annotation.
ChangeRecord = Tuple[int, str, str, Row, str]


class AnnotatedDatabase:
    """A database whose tuples carry provenance annotations.

    >>> db = AnnotatedDatabase()
    >>> db.add("R", ("a", "b"))
    's1'
    >>> db.add("R", ("b", "a"), annotation="s9")
    's9'
    >>> db.annotation_of("R", ("a", "b"))
    's1'
    """

    def __init__(
        self, annotation_prefix: str = "s", track_changes: bool = True
    ):  # noqa: D107
        self._relations: Dict[str, Dict[Row, str]] = {}
        self._arities: Dict[str, int] = {}
        self._supply = NameSupply(annotation_prefix)
        #: annotation -> its fact, or a list of its facts when it tags
        #: several (a bare key saves a list per fact in the abstractly
        #: tagged common case).
        self._by_annotation: Dict[str, object] = {}
        self._version = 0
        self._track_changes = track_changes
        self._changelog: List[ChangeRecord] = []
        #: relation -> {bound positions: index}; see :meth:`lookup`.
        self._indexes: Dict[str, Dict[Tuple[int, ...], Index]] = {}

    def _tag(self, annotation: str, fact: FactKey) -> None:
        facts = self._by_annotation.get(annotation)
        if facts is None:
            self._by_annotation[annotation] = fact
        elif type(facts) is list:
            facts.append(fact)
        else:
            self._by_annotation[annotation] = [facts, fact]

    def _untag(self, annotation: str, fact: FactKey) -> None:
        facts = self._by_annotation[annotation]
        if type(facts) is not list:
            del self._by_annotation[annotation]
            return
        facts.remove(fact)
        if len(facts) == 1:
            self._by_annotation[annotation] = facts[0]

    def _log(self, op: str, relation: str, row: Row, annotation: str) -> None:
        self._version += 1
        if self._track_changes:
            self._changelog.append((self._version, op, relation, row, annotation))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        relations: Mapping[str, Mapping[Sequence[Value], str]],
    ) -> "AnnotatedDatabase":
        """Build from ``{relation: {tuple: annotation}}``.

        >>> db = AnnotatedDatabase.from_dict({"R": {("a", "b"): "s1"}})
        >>> db.annotation_of("R", ("a", "b"))
        's1'
        """
        db = cls()
        for relation, rows in relations.items():
            for row, annotation in rows.items():
                db.add(relation, tuple(row), annotation=annotation)
        return db

    @classmethod
    def from_rows(
        cls, relations: Mapping[str, Iterable[Sequence[Value]]]
    ) -> "AnnotatedDatabase":
        """Build abstractly-tagged from ``{relation: [tuples]}``; fresh
        annotations ``s1, s2, ...`` are assigned in iteration order."""
        db = cls()
        for relation, rows in relations.items():
            for row in rows:
                db.add(relation, tuple(row))
        return db

    def checkpoint_state(self) -> Dict[str, object]:
        """Internal state needed to rebuild this database exactly.

        Unlike the fact list alone, the checkpoint carries the version
        counter, the fresh-name supply, and empty-but-declared relations,
        so a database restored via :meth:`from_checkpoint` continues to
        generate the same annotations and version numbers as the
        original would have — the invariant durable recovery needs for
        byte-identical replay.  The change log is deliberately excluded:
        consumers re-synchronise from the restored version.
        """
        return {
            "relations": {
                relation: dict(rows) for relation, rows in self._relations.items()
            },
            "arities": dict(self._arities),
            "version": self._version,
            "supply": self._supply.state(),
        }

    @classmethod
    def from_checkpoint(
        cls, state: Mapping[str, object], track_changes: bool = True
    ) -> "AnnotatedDatabase":
        """Rebuild a database from a :meth:`checkpoint_state` snapshot.

        Restoration writes the internal tables directly (it must not go
        through :meth:`add`, which would advance the version counter and
        re-derive the name supply).
        """
        db = cls(track_changes=track_changes)
        arities: Dict[str, int] = dict(state["arities"])  # type: ignore[arg-type]
        relations: Mapping[str, Mapping[Row, str]] = state["relations"]  # type: ignore[assignment]
        for relation, arity in arities.items():
            db._arities[relation] = int(arity)
            db._relations[relation] = {}
        for relation, rows in relations.items():
            table = db._relations[relation]
            for row, annotation in rows.items():
                row = tuple(row)
                table[row] = annotation
                db._tag(annotation, (relation, row))
        db._version = int(state["version"])  # type: ignore[arg-type]
        db._supply = NameSupply.from_state(state["supply"])  # type: ignore[arg-type]
        return db

    def add(
        self,
        relation: str,
        row: Sequence[Value],
        annotation: Optional[str] = None,
    ) -> str:
        """Insert a tuple; returns its annotation.

        Without an explicit ``annotation`` a fresh one is generated,
        keeping the database abstractly tagged.  Re-inserting an
        existing tuple with a different annotation raises
        :class:`~repro.errors.SchemaError` (a tuple has one annotation).
        """
        row = tuple(row)
        if relation in self._arities:
            if self._arities[relation] != len(row):
                raise SchemaError(
                    "relation {} has arity {}, got a {}-tuple".format(
                        relation, self._arities[relation], len(row)
                    )
                )
        else:
            self._arities[relation] = len(row)
            self._relations[relation] = {}
        existing = self._relations[relation].get(row)
        if existing is not None:
            if annotation is not None and annotation != existing:
                raise SchemaError(
                    "tuple {}{} is already annotated {}".format(relation, row, existing)
                )
            return existing
        if annotation is None:
            annotation = self._supply.fresh()
        else:
            self._supply.reserve(annotation)
        self._relations[relation][row] = annotation
        self._tag(annotation, (relation, row))
        indexes = self._indexes.get(relation)
        if indexes:
            for positions, index in indexes.items():
                key = tuple([row[p] for p in positions])
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
        self._log("insert", relation, row, annotation)
        return annotation

    def remove(self, relation: str, row: Sequence[Value]) -> str:
        """Delete a tuple; returns the annotation it carried.

        Raises :class:`~repro.errors.SchemaError` when the tuple is
        absent.  The relation stays declared (with its arity), so later
        re-insertions keep working.
        """
        row = tuple(row)
        rows = self._relations.get(relation)
        if rows is None or row not in rows:
            raise SchemaError(
                "cannot remove absent tuple {}{}".format(relation, row)
            )
        annotation = rows.pop(row)
        self._untag(annotation, (relation, row))
        indexes = self._indexes.get(relation)
        if indexes:
            for positions, index in indexes.items():
                key = tuple([row[p] for p in positions])
                bucket = index[key]
                bucket.remove(row)
                if not bucket:
                    del index[key]
        self._log("delete", relation, row, annotation)
        return annotation

    def retag(self, relation: str, row: Sequence[Value], annotation: str) -> str:
        """Change the annotation of an existing tuple; returns the old one.

        This is the "annotation update" primitive of incremental view
        maintenance: the tuple itself is untouched, only its provenance
        symbol changes — which is why the hash indexes, holding rows
        only, need no maintenance here.
        """
        row = tuple(row)
        rows = self._relations.get(relation)
        if rows is None or row not in rows:
            raise SchemaError(
                "cannot retag absent tuple {}{}".format(relation, row)
            )
        old = rows[row]
        if annotation == old:
            return old
        rows[row] = annotation
        self._untag(old, (relation, row))
        self._supply.reserve(annotation)
        self._tag(annotation, (relation, row))
        self._log("retag", relation, row, annotation)
        return old

    def declare_relation(self, relation: str, arity: int) -> None:
        """Declare an (initially empty) relation."""
        if relation in self._arities:
            if self._arities[relation] != arity:
                raise SchemaError(
                    "relation {} already declared with arity {}".format(
                        relation, self._arities[relation]
                    )
                )
            return
        self._arities[relation] = arity
        self._relations[relation] = {}

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def relations(self) -> Set[str]:
        """Names of the stored relations."""
        return set(self._relations.keys())

    def arity(self, relation: str) -> int:
        """Arity of ``relation``."""
        if relation not in self._arities:
            raise SchemaError("unknown relation {}".format(relation))
        return self._arities[relation]

    def rows(self, relation: str) -> List[Row]:
        """All tuples of ``relation`` (empty for unknown relations —
        queries over absent relations simply have no assignments)."""
        return list(self._relations.get(relation, {}).keys())

    def cardinality(self, relation: str) -> int:
        """Number of tuples in ``relation`` (0 for unknown relations).

        Constant-time — planners key join orders on cardinalities, so
        this must not copy the row set the way :meth:`rows` does.
        """
        return len(self._relations.get(relation, ()))

    # ------------------------------------------------------------------
    # Maintained hash indexes
    # ------------------------------------------------------------------
    def index(self, relation: str, positions: Tuple[int, ...]) -> Index:
        """The hash index of ``relation`` on ``positions``: a live mapping
        from the values at ``positions`` to the rows carrying them.

        Built by one scan on first use, then kept current by every
        :meth:`add`/:meth:`remove` (an emptied bucket is dropped).  The
        mapping is the database's own: read it, never mutate it, and do
        not iterate it across a mutation.  ``positions`` must be sorted,
        distinct and within the relation's arity; an unknown relation
        has an empty index that is not kept.
        """
        by_positions = self._indexes.get(relation)
        if by_positions is not None:
            index = by_positions.get(positions)
            if index is not None:
                return index
        rows = self._relations.get(relation)
        if rows is None:
            return {}
        index = {}
        for row in rows:
            key = tuple([row[p] for p in positions])
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
        self._indexes.setdefault(relation, {})[positions] = index
        return index

    def lookup(
        self, relation: str, positions: Tuple[int, ...], key: Tuple[Value, ...]
    ) -> Sequence[Row]:
        """Rows of ``relation`` whose values at ``positions`` equal ``key``.

        Probes the maintained :meth:`index`; an empty ``positions`` is a
        full scan (there is nothing to index on).  The result may be the
        index's own bucket: do not mutate it or hold it across updates.

        >>> db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("c", "b")]})
        >>> db.lookup("R", (1,), ("b",))
        [('a', 'b'), ('c', 'b')]
        >>> db.remove("R", ("a", "b"))
        's1'
        >>> db.lookup("R", (1,), ("b",))
        [('c', 'b')]
        """
        if not positions:
            return self.rows(relation)
        return self.index(relation, positions).get(key, _NO_ROWS)

    def lookup_facts(
        self, relation: str, positions: Tuple[int, ...], key: Tuple[Value, ...]
    ) -> List[Tuple[Row, str]]:
        """``(tuple, annotation)`` pairs of :meth:`lookup` (a fresh list)."""
        annotations = self._relations.get(relation, {})
        return [
            (row, annotations[row])
            for row in self.lookup(relation, positions, key)
        ]

    def indexed_positions(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """``(relation, positions)`` of every built index, sorted."""
        return sorted(
            (relation, positions)
            for relation, by_positions in self._indexes.items()
            for positions in by_positions
        )

    def facts(self, relation: str) -> List[Tuple[Row, str]]:
        """``(tuple, annotation)`` pairs of ``relation``."""
        return list(self._relations.get(relation, {}).items())

    def all_facts(self) -> Iterator[Tuple[str, Row, str]]:
        """``(relation, tuple, annotation)`` triples of the database."""
        for relation, rows in self._relations.items():
            for row, annotation in rows.items():
                yield relation, row, annotation

    def annotation_of(self, relation: str, row: Sequence[Value]) -> str:
        """The annotation of a tuple; raises ``KeyError`` when absent."""
        return self._relations[relation][tuple(row)]

    def contains(self, relation: str, row: Sequence[Value]) -> bool:
        """Is the tuple present?  (Cheap dictionary lookup.)"""
        return tuple(row) in self._relations.get(relation, {})

    def version(self) -> int:
        """Monotonically increasing modification counter.

        Every :meth:`add`, :meth:`remove` and :meth:`retag` that actually
        changes the database bumps it by one; a snapshot of the version
        plus :meth:`changes_since` yields the delta accumulated since.
        """
        return self._version

    def changes_since(self, version: int) -> List[ChangeRecord]:
        """The change records logged after ``version``.

        This is the cheap tuple-touch bookkeeping consumed by
        :mod:`repro.incremental`:  callers snapshot :meth:`version`,
        mutate freely, then fold the returned records into a
        :class:`~repro.incremental.delta.Delta` batch.  Versions in the
        log are strictly increasing, so the cut point is found by
        bisection.  Databases built with ``track_changes=False`` keep
        no log (the version counter still advances).
        """
        records = self._changelog
        low, high = 0, len(records)
        while low < high:
            mid = (low + high) // 2
            if records[mid][0] <= version:
                low = mid + 1
            else:
                high = mid
        return records[low:]

    def prune_changes(self, version: int) -> int:
        """Drop change records at or before ``version``; returns the count.

        The change log exists so incremental consumers can catch up from
        a version snapshot; once every consumer has folded the records
        up to ``version`` in (a :class:`~repro.db.sharding.ShardedDatabase`
        refresh does), that prefix is dead weight.  Long-lived refresh
        loops prune as they go to keep memory bounded.
        """
        records = self._changelog
        low, high = 0, len(records)
        while low < high:
            mid = (low + high) // 2
            if records[mid][0] <= version:
                low = mid + 1
            else:
                high = mid
        if low:
            del records[:low]
        return low

    def tuples_for_annotation(self, annotation: str) -> List[FactKey]:
        """All ``(relation, tuple)`` pairs carrying ``annotation``."""
        facts = self._by_annotation.get(annotation)
        if facts is None:
            return []
        return list(facts) if type(facts) is list else [facts]

    def tuple_for_annotation(self, annotation: str) -> FactKey:
        """The unique tuple carrying ``annotation``.

        Requires abstract tagging for uniqueness; raises
        :class:`~repro.errors.UnknownAnnotationError` when absent and
        :class:`~repro.errors.NotAbstractlyTaggedError` when ambiguous.
        This is the inversion step of the Sec. 5 direct-computation
        pipeline.
        """
        facts = self._by_annotation.get(annotation)
        if facts is None:
            raise UnknownAnnotationError(
                "no tuple is annotated {}".format(annotation)
            )
        if type(facts) is list:
            raise NotAbstractlyTaggedError(
                "annotation {} tags {} tuples; the database is not "
                "abstractly tagged".format(annotation, len(facts))
            )
        return facts

    def is_abstractly_tagged(self) -> bool:
        """True when all annotations are pairwise distinct (Sec. 2.3)."""
        return not any(type(facts) is list for facts in self._by_annotation.values())

    def annotations(self) -> Set[str]:
        """All annotation symbols in use."""
        return set(self._by_annotation.keys())

    def active_domain(self) -> Set[Value]:
        """All values occurring in any tuple."""
        domain: Set[Value] = set()
        for rows in self._relations.values():
            for row in rows:
                domain.update(row)
        return domain

    def fact_count(self) -> int:
        """Total number of tuples."""
        return sum(len(rows) for rows in self._relations.values())

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def retagged(self, prefix: str = "t") -> Tuple["AnnotatedDatabase", Dict[str, str]]:
        """A fresh abstractly-tagged copy plus the re-tagging map.

        Every tuple receives a new distinct annotation; the returned map
        sends each *new* annotation to the original one.  This is the
        construction behind Thm. 6.1 (p-minimality transfers to
        non-abstractly-tagged databases).
        """
        copy = AnnotatedDatabase(annotation_prefix=prefix)
        mapping: Dict[str, str] = {}
        for relation, row, annotation in sorted(self.all_facts()):
            fresh = copy.add(relation, row)
            mapping[fresh] = annotation
        return copy, mapping

    def __len__(self) -> int:
        return self.fact_count()

    def __repr__(self) -> str:
        return "<AnnotatedDatabase {} relations, {} facts>".format(
            len(self._relations), self.fact_count()
        )
