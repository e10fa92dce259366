"""JSON serialization of databases, queries and provenance.

Recorded provenance is meant to outlive the session that computed it
(the paper's Sec. 5 workflow evaluates now, minimizes off-line later),
so the library provides a stable JSON wire format:

* databases — ``{"relations": {name: [{"row": [...], "annotation": s}]}}``;
* polynomials — ``[{"monomial": {symbol: exponent}, "coefficient": n}]``;
* queries — their rule-syntax text (the parser is the codec);
* annotated results — rows paired with polynomials.

The same codecs double as the serving tier's wire format
(:mod:`repro.server`): update requests reuse the ``maintain``
subcommand's delta-batch JSON (:func:`deltas_from_payload`), and
aggregate responses serialize their ``N[X] ⊗ M`` tensors with
:func:`aggregate_results_to_list`.

Round-trips are exact and tested.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.aggregate.result import AggregateResult
from repro.algebra.monoid import monoid_for
from repro.algebra.semimodule import SemimoduleElement
from repro.db.instance import AnnotatedDatabase
from repro.errors import ReproError
from repro.incremental.delta import Delta
from repro.query.parser import parse_query
from repro.query.printer import query_to_str
from repro.query.ucq import Query
from repro.semiring.polynomial import Monomial, Polynomial
from repro.utils.multiset import FrozenMultiset

Row = Tuple[Hashable, ...]


# ----------------------------------------------------------------------
# Databases
# ----------------------------------------------------------------------
def database_to_dict(db: AnnotatedDatabase) -> dict:
    """A JSON-ready representation of an annotated database."""
    relations: Dict[str, list] = {}
    for relation in sorted(db.relations()):
        relations[relation] = [
            {"row": list(row), "annotation": annotation}
            for row, annotation in sorted(
                db.facts(relation), key=lambda kv: repr(kv[0])
            )
        ]
    return {"relations": relations}


def database_from_dict(payload: Mapping) -> AnnotatedDatabase:
    """Inverse of :func:`database_to_dict`."""
    if not isinstance(payload, Mapping) or "relations" not in payload:
        raise ReproError("database payload lacks a 'relations' key")
    if not isinstance(payload["relations"], Mapping):
        raise ReproError(
            "database 'relations' must map names to fact lists, got "
            "{!r}".format(type(payload["relations"]).__name__)
        )
    db = AnnotatedDatabase()
    for relation, facts in payload["relations"].items():
        if not isinstance(facts, list):
            raise ReproError(
                "facts of relation {!r} must be a list, got {!r}".format(
                    relation, type(facts).__name__
                )
            )
        for fact in facts:
            if (
                not isinstance(fact, Mapping)
                or not isinstance(fact.get("row"), list)
                or "annotation" not in fact
            ):
                raise ReproError(
                    "each fact of {!r} needs {{\"row\": [...], "
                    "\"annotation\": ...}}, got {!r}".format(relation, fact)
                )
            db.add(relation, tuple(fact["row"]), annotation=fact["annotation"])
    return db


# ----------------------------------------------------------------------
# Polynomials
# ----------------------------------------------------------------------
def polynomial_to_list(polynomial: Polynomial) -> list:
    """A JSON-ready representation of an N[X] polynomial.

    Each term's ``monomial`` is a copy of the monomial's own count
    mapping, in whatever key order it holds: :func:`canonical_json`
    sorts keys, so the encoded bytes do not depend on it.
    """
    return [
        {"monomial": monomial.factors.counts, "coefficient": coefficient}
        for monomial, coefficient in polynomial.sorted_terms()
    ]


def polynomial_from_list(payload) -> Polynomial:
    """Inverse of :func:`polynomial_to_list`."""
    if not isinstance(payload, list):
        raise ReproError(
            "polynomial payload must be a list of terms, got {!r}".format(
                type(payload).__name__
            )
        )
    terms = {}
    for entry in payload:
        # ``type(...) is dict`` first: this loop decodes hundreds of
        # thousands of terms on snapshot recovery, and an isinstance
        # check against typing.Mapping costs ~3.5us per call.
        if not (
            (type(entry) is dict or isinstance(entry, Mapping))
            and (
                type(entry.get("monomial")) is dict
                or isinstance(entry.get("monomial"), Mapping)
            )
            and "coefficient" in entry
        ):
            raise ReproError(
                "each polynomial term needs {{\"monomial\": {{...}}, "
                "\"coefficient\": n}}, got {!r}".format(entry)
            )
        try:
            counts = {
                str(symbol): int(exponent)
                for symbol, exponent in entry["monomial"].items()
                if int(exponent) > 0
            }
            coefficient = int(entry["coefficient"])
        except (TypeError, ValueError) as exc:
            raise ReproError(
                "polynomial term {!r} has a non-integer exponent or "
                "coefficient".format(entry)
            ) from exc
        if coefficient < 0:
            raise ReproError(
                "polynomial term {!r} has a negative coefficient".format(
                    entry
                )
            )
        if coefficient == 0:
            continue
        # Hot on recovery: thousands of view bindings decode through
        # here, so skip the validating Monomial/Polynomial constructors.
        monomial = Monomial.from_multiset(FrozenMultiset.from_counts(counts))
        previous = terms.get(monomial)
        terms[monomial] = (
            coefficient if previous is None else previous + coefficient
        )
    return Polynomial._from_clean(terms)


# ----------------------------------------------------------------------
# Queries and annotated results
# ----------------------------------------------------------------------
def query_to_text(query: Query) -> str:
    """Serialize a query as rule-syntax text."""
    return query_to_str(query)


def query_from_text(text: str) -> Query:
    """Parse a serialized query."""
    return parse_query(text)


def results_to_list(results: Mapping[Row, Polynomial]) -> list:
    """A JSON-ready representation of an annotated result table."""
    return [
        {"tuple": list(output), "provenance": polynomial_to_list(polynomial)}
        for output, polynomial in sorted(
            results.items(), key=lambda kv: repr(kv[0])
        )
    ]


def results_from_list(payload) -> Dict[Row, Polynomial]:
    """Inverse of :func:`results_to_list`."""
    if not isinstance(payload, list):
        raise ReproError(
            "results payload must be a list of rows, got {!r}".format(
                type(payload).__name__
            )
        )
    results: Dict[Row, Polynomial] = {}
    for entry in payload:
        if (
            not isinstance(entry, Mapping)
            or not isinstance(entry.get("tuple"), list)
            or "provenance" not in entry
        ):
            raise ReproError(
                "each result row needs {{\"tuple\": [...], "
                "\"provenance\": [...]}}, got {!r}".format(entry)
            )
        results[tuple(entry["tuple"])] = polynomial_from_list(
            entry["provenance"]
        )
    return results


# ----------------------------------------------------------------------
# Aggregate results (N[X] ⊗ M tensors)
# ----------------------------------------------------------------------
def semimodule_to_dict(element: SemimoduleElement) -> dict:
    """A JSON-ready representation of one ``N[X] ⊗ M`` element.

    Tensors appear in the element's deterministic value order, each as
    ``{"value": m, "annotation": [polynomial terms]}``; the monoid name
    travels along so the inverse can rebuild the element.
    """
    return {
        "monoid": element.monoid.name,
        "tensors": [
            {"value": value, "annotation": polynomial_to_list(polynomial)}
            for value, polynomial in element
        ],
    }


def semimodule_from_dict(payload: Mapping) -> SemimoduleElement:
    """Inverse of :func:`semimodule_to_dict`."""
    if (
        not isinstance(payload, Mapping)
        or "monoid" not in payload
        or not isinstance(payload.get("tensors"), list)
    ):
        raise ReproError(
            "semimodule payload needs {{\"monoid\": name, "
            "\"tensors\": [...]}}, got {!r}".format(payload)
        )
    monoid = monoid_for(payload["monoid"])
    terms: Dict[Hashable, Polynomial] = {}
    for tensor in payload["tensors"]:
        if (
            not isinstance(tensor, Mapping)
            or "value" not in tensor
            or "annotation" not in tensor
        ):
            raise ReproError(
                "each tensor needs {{\"value\": m, \"annotation\": [...]}}, "
                "got {!r}".format(tensor)
            )
        polynomial = polynomial_from_list(tensor["annotation"])
        previous = terms.get(tensor["value"])
        terms[tensor["value"]] = (
            polynomial if previous is None else previous + polynomial
        )
    return SemimoduleElement(monoid, terms)


def aggregate_result_to_dict(group: Row, result: AggregateResult) -> dict:
    """One row of :func:`aggregate_results_to_list`."""
    return {
        "group": list(group),
        "provenance": polynomial_to_list(result.provenance),
        "aggregates": [
            semimodule_to_dict(element) for element in result.aggregates
        ],
    }


def aggregate_results_to_list(results: Mapping[Row, AggregateResult]) -> list:
    """A JSON-ready representation of an aggregated K-relation."""
    return [
        aggregate_result_to_dict(group, result)
        for group, result in sorted(results.items(), key=lambda kv: repr(kv[0]))
    ]


def aggregate_results_from_list(payload) -> Dict[Row, AggregateResult]:
    """Inverse of :func:`aggregate_results_to_list`."""
    if not isinstance(payload, list):
        raise ReproError(
            "aggregate results payload must be a list of groups, got "
            "{!r}".format(type(payload).__name__)
        )
    results: Dict[Row, AggregateResult] = {}
    for entry in payload:
        if (
            not isinstance(entry, Mapping)
            or not isinstance(entry.get("group"), list)
            or "provenance" not in entry
            or not isinstance(entry.get("aggregates"), list)
        ):
            raise ReproError(
                "each aggregate group needs {{\"group\": [...], "
                "\"provenance\": [...], \"aggregates\": [...]}}, got "
                "{!r}".format(entry)
            )
        results[tuple(entry["group"])] = AggregateResult(
            polynomial_from_list(entry["provenance"]),
            tuple(
                semimodule_from_dict(element)
                for element in entry["aggregates"]
            ),
        )
    return results


# ----------------------------------------------------------------------
# Canonical response bodies (the serving tier's wire format)
# ----------------------------------------------------------------------
def canonical_json(payload) -> bytes:
    """Serialize a response payload to canonical JSON bytes.

    Sorted keys and fixed separators make encoding deterministic, which
    is what lets the differential suite compare served bodies against
    in-process evaluation byte for byte.  The trailing newline is for
    humans running ``curl``.
    """
    return (_dumps(payload) + "\n").encode("utf-8")


#: One shared encoder: ``json.dumps`` with options builds a new one per call.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_dumps = _JSON.encode


def _fragment_encoder():
    """``_dumps`` for one small value, less its per-call set-up.

    ``JSONEncoder.encode`` builds a fresh C encoder on every call, which
    costs as much as encoding a small table row; a row-at-a-time
    encoder keeps one.  It skips the circular-reference check (the
    payloads are fresh trees) and falls back to ``_dumps`` where the C
    accelerator is missing.
    """
    if c_make_encoder is None:  # pragma: no cover - CPython ships _json
        return _dumps
    encoder = c_make_encoder(
        None, _JSON.default, encode_basestring_ascii, None,
        ":", ",", True, False, True,
    )
    return lambda value: "".join(encoder(value, 0))


#: Canonical JSON text of one value (no trailing newline).
fragment_json = _fragment_encoder()


def polynomial_json(polynomial: Polynomial) -> str:
    """``canonical_json(polynomial_to_list(polynomial))`` as text."""
    return fragment_json(polynomial_to_list(polynomial))


def result_row_json(row: Row, provenance_json: str) -> str:
    """One row of a polynomial table body, from its polynomial's
    :func:`polynomial_json` — so a caller holding that text (the view
    registry keeps it per row) re-encodes only the tuple."""
    return '{{"provenance":{},"tuple":{}}}'.format(
        provenance_json, fragment_json(list(row))
    )


def encode_results(results: Mapping, aggregate: Optional[bool] = None) -> dict:
    """The response fragment for one query's result table.

    Plain UCQ≠ tables serialize their polynomials, aggregate tables
    their ``N[X] ⊗ M`` tensors; pass ``aggregate`` explicitly when the
    table may be empty (an empty dict carries no type of its own).
    """
    if aggregate is None:
        aggregate = any(
            isinstance(value, AggregateResult) for value in results.values()
        )
    if aggregate:
        return {"kind": "aggregate", "results": aggregate_results_to_list(results)}
    return {"kind": "polynomial", "results": results_to_list(results)}


def encode_rows(aggregate: bool, fragments: Iterable[str], **tail) -> bytes:
    """Splice row fragments into a table body: ``canonical_json({"kind":
    ..., "results": [rows], **tail})`` without re-encoding any row.

    Byte-identical as long as every ``tail`` key sorts after
    ``"results"`` (``version`` and ``view`` do).
    """
    return '{{"kind":"{}","results":[{}]{}}}\n'.format(
        "aggregate" if aggregate else "polynomial",
        ",".join(fragments),
        "," + _dumps(tail)[1:-1] if tail else "",
    ).encode("utf-8")


def encode_table(results: Mapping, aggregate: bool, **tail) -> bytes:
    """``canonical_json({**encode_results(results, aggregate), **tail})``,
    one row fragment at a time: the JSON-ready form of a big table
    (several times its encoding) is never built, let alone kept."""
    rows = sorted(results.items(), key=lambda kv: repr(kv[0]))
    if aggregate:
        fragments = [
            fragment_json(aggregate_result_to_dict(group, result))
            for group, result in rows
        ]
    else:
        fragments = [
            result_row_json(row, polynomial_json(polynomial))
            for row, polynomial in rows
        ]
    return encode_rows(aggregate, fragments, **tail)


# ----------------------------------------------------------------------
# Update batches (the `maintain` delta format, shared with the server)
# ----------------------------------------------------------------------
def _delta_entries(section: Mapping) -> List[Tuple]:
    entries: List[Tuple] = []
    for relation, rows in section.items():
        for entry in rows:
            if isinstance(entry, dict):
                if "row" not in entry or not isinstance(entry["row"], list):
                    raise ReproError(
                        "update entry for {!r} needs a \"row\" list, got "
                        "{!r}".format(relation, entry)
                    )
                entries.append(
                    (relation, tuple(entry["row"]), entry.get("annotation"))
                )
            elif isinstance(entry, list):
                entries.append((relation, tuple(entry)))
            else:
                raise ReproError(
                    "update entry for {!r} must be a row list or an object, "
                    "got {!r}".format(relation, entry)
                )
    return entries


def delta_from_dict(batch: Mapping) -> Delta:
    """One update batch — ``{"insert": ..., "delete": ..., "retag": ...}``.

    The format is exactly the ``maintain`` subcommand's updates file
    (and therefore the server's ``POST /update`` body): each section
    maps relations to rows, where a row is either a plain list (fresh
    annotation) or ``{"row": [...], "annotation": s}``.
    """
    if not isinstance(batch, Mapping):
        raise ReproError("each update batch must be a JSON object")
    unknown = set(batch) - {"insert", "delete", "retag"}
    if unknown:
        raise ReproError(
            "unknown update batch keys: {}".format(sorted(unknown))
        )
    retags = []
    for relation, rows in batch.get("retag", {}).items():
        for entry in rows:
            if (
                not isinstance(entry, dict)
                or "annotation" not in entry
                or not isinstance(entry.get("row"), list)
            ):
                raise ReproError(
                    "retag entries need {\"row\": [...], \"annotation\": ...}"
                )
            retags.append((relation, tuple(entry["row"]), entry["annotation"]))
    return Delta(
        inserts=_delta_entries(batch.get("insert", {})),
        deletes=[
            entry[:2] for entry in _delta_entries(batch.get("delete", {}))
        ],
        retags=retags,
    )


def deltas_from_payload(payload) -> List[Delta]:
    """A list of update batches (a single object counts as one batch)."""
    if isinstance(payload, Mapping):
        payload = [payload]
    if not isinstance(payload, list):
        raise ReproError("updates payload must be a JSON object or list")
    return [delta_from_dict(batch) for batch in payload]


def delta_to_dict(delta: Delta) -> dict:
    """Inverse of :func:`delta_from_dict` (annotations always explicit)."""
    payload: Dict[str, Dict[str, list]] = {}
    for relation, row, annotation in delta.inserts:
        entry = {"row": list(row)}
        if annotation is not None:
            entry["annotation"] = annotation
        payload.setdefault("insert", {}).setdefault(relation, []).append(entry)
    for relation, row in delta.deletes:
        payload.setdefault("delete", {}).setdefault(relation, []).append(
            list(row)
        )
    for relation, row, annotation in delta.retags:
        payload.setdefault("retag", {}).setdefault(relation, []).append(
            {"row": list(row), "annotation": annotation}
        )
    return payload


# ----------------------------------------------------------------------
# View changes and changefeed events (the subscription wire format)
# ----------------------------------------------------------------------
def view_change_to_dict(change, aggregate: bool) -> dict:
    """A JSON-ready representation of one per-view maintenance delta.

    ``change`` is a :class:`~repro.incremental.registry.ViewChange`
    (anything with ``inserted``/``deleted``/``updated`` mappings).
    Plain views serialize rows with their polynomials and each dead row
    with its retired symbol; aggregate views serialize ``N[X] ⊗ M``
    groups and dead groups bare (terminal views retire no symbol).
    """
    if aggregate:
        return {
            "inserted": aggregate_results_to_list(change.inserted),
            "deleted": [
                {"group": list(row)}
                for row in sorted(change.deleted, key=repr)
            ],
            "updated": aggregate_results_to_list(change.updated),
        }
    return {
        "inserted": results_to_list(change.inserted),
        "deleted": [
            {"tuple": list(row), "symbol": change.deleted[row]}
            for row in sorted(change.deleted, key=repr)
        ],
        "updated": results_to_list(change.updated),
    }


def view_change_from_dict(payload, aggregate: bool) -> dict:
    """Inverse of :func:`view_change_to_dict` (as plain mappings).

    Returns ``{"inserted": {row: value}, "deleted": {row: symbol},
    "updated": {row: value}}`` where values are
    :class:`~repro.semiring.polynomial.Polynomial` or
    :class:`~repro.aggregate.result.AggregateResult` rows — everything
    a client needs to replay the delta onto its copy of the view.
    """
    if not isinstance(payload, Mapping) or not isinstance(
        payload.get("deleted"), list
    ):
        raise ReproError(
            "view change payload needs 'inserted', 'deleted' and "
            "'updated' keys, got {!r}".format(payload)
        )
    decode = aggregate_results_from_list if aggregate else results_from_list
    key = "group" if aggregate else "tuple"
    deleted: Dict[Row, str] = {}
    for entry in payload["deleted"]:
        if not isinstance(entry, Mapping) or not isinstance(
            entry.get(key), list
        ):
            raise ReproError(
                "each deleted view row needs a {!r} list, got {!r}".format(
                    key, entry
                )
            )
        deleted[tuple(entry[key])] = entry.get("symbol", "")
    return {
        "inserted": decode(payload.get("inserted", [])),
        "deleted": deleted,
        "updated": decode(payload.get("updated", [])),
    }


def changefeed_event_to_dict(
    cursor: int, view: str, aggregate: bool, change=None, state=None
) -> dict:
    """One changefeed event: a per-version delta or a full reset.

    Delta events (``change`` given) carry exactly what one
    :meth:`ViewRegistry.apply` did to one view at one db version;
    reset events (``state`` given) carry the whole materialized table
    for consumers that fell off the replay ring.
    """
    payload = {"cursor": cursor, "view": view, "aggregate": bool(aggregate)}
    if change is not None:
        payload["event"] = "delta"
        payload["changes"] = view_change_to_dict(change, aggregate)
    else:
        payload["event"] = "reset"
        payload["state"] = (
            aggregate_results_to_list(state)
            if aggregate
            else results_to_list(state)
        )
    return payload


def changefeed_event_from_dict(payload) -> dict:
    """Inverse of :func:`changefeed_event_to_dict` (decoded values).

    The result mirrors the wire shape with ``changes`` (delta events)
    decoded via :func:`view_change_from_dict` and ``state`` (reset
    events) via the result-table codecs.
    """
    if (
        not isinstance(payload, Mapping)
        or not isinstance(payload.get("cursor"), int)
        or not isinstance(payload.get("view"), str)
        or payload.get("event") not in ("delta", "reset")
    ):
        raise ReproError(
            "changefeed event needs 'cursor', 'view' and 'event' "
            "(delta|reset) keys, got {!r}".format(payload)
        )
    aggregate = bool(payload.get("aggregate"))
    event = {
        "cursor": payload["cursor"],
        "view": payload["view"],
        "event": payload["event"],
        "aggregate": aggregate,
    }
    if payload["event"] == "delta":
        event["changes"] = view_change_from_dict(
            payload.get("changes"), aggregate
        )
    else:
        decode = aggregate_results_from_list if aggregate else results_from_list
        event["state"] = decode(payload.get("state", []))
    return event


def apply_changefeed_event(state: Dict[Row, object], event: Mapping) -> None:
    """Replay one decoded changefeed event onto a client-held table.

    ``state`` maps rows to polynomials (plain views) or
    :class:`~repro.aggregate.result.AggregateResult` rows (aggregate
    views) — the shape :func:`results_from_list` and friends produce.
    After replaying every event in cursor order, ``state`` equals the
    server's ``read_view()`` at the last cursor — the differential
    suite asserts it byte-for-byte through the encoders.
    """
    if event["event"] == "reset":
        state.clear()
        state.update(event["state"])
        return
    changes = event["changes"]
    for row in changes["deleted"]:
        state.pop(row, None)
    state.update(changes["updated"])
    state.update(changes["inserted"])


# ----------------------------------------------------------------------
# Whole sessions
# ----------------------------------------------------------------------
def dump_session(
    path: str,
    db: AnnotatedDatabase,
    queries: Mapping[str, Query],
    results: Mapping[str, Mapping[Row, Polynomial]] = (),
) -> None:
    """Write a database, queries and (optionally) results to one file."""
    payload = {
        "database": database_to_dict(db),
        "queries": {name: query_to_text(query) for name, query in queries.items()},
        "results": {
            name: results_to_list(table) for name, table in dict(results).items()
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def load_session(path: str):
    """Inverse of :func:`dump_session`; returns (db, queries, results)."""
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise ReproError(
                "session file {!r} is not valid JSON: {}".format(path, exc)
            ) from exc
    if (
        not isinstance(payload, Mapping)
        or "database" not in payload
        or not isinstance(payload.get("queries"), Mapping)
    ):
        raise ReproError(
            "session file {!r} needs 'database' and 'queries' keys".format(
                path
            )
        )
    db = database_from_dict(payload["database"])
    queries = {
        name: query_from_text(text) for name, text in payload["queries"].items()
    }
    results = {
        name: results_from_list(table)
        for name, table in payload.get("results", {}).items()
    }
    return db, queries, results
