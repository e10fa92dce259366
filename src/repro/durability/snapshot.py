"""Versioned binary snapshots of the serving state (``RPSN`` v1).

A snapshot captures everything a server needs to come back at the
exact database version it died at: the working database (base facts
*and* materialized plain-view rows, via
:meth:`~repro.db.instance.AnnotatedDatabase.checkpoint_state`), the
session's intern table, and the registry's materialized state.  Byte
layout (documented in ``DESIGN.md``) reuses the ``RPCP`` idiom of
:mod:`repro.db.sharding` — tagged value blobs delimited by
prefix-offset arrays, decoders slice instead of scanning:

* **file header** — ``<4sIQI>``: magic ``b"RPSN"``, format version
  ``1``, the database version, and the section count;
* **section** — ``<4sQI>`` (kind, payload length, CRC32 of the
  payload) followed by the payload.  Kinds: ``DBST`` (database
  checkpoint), ``INTB`` (intern table), ``VREG`` (registry state,
  canonical JSON — ``null`` for a bare session).

Every decode error — truncated header or section, bad magic, version
mismatch, checksum failure — raises
:class:`~repro.errors.SnapshotError`, which recovery treats as "try
the previous snapshot".  Writes go through a temp file, fsync, and an
atomic rename, so a crash mid-write never shadows a good snapshot
with a torn one.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.db.sharding import _decode_value, _encode_value
from repro.errors import SnapshotError

#: Leading magic of a snapshot file ("RePro SNapshot").
SNAPSHOT_MAGIC = b"RPSN"

#: Bump on incompatible layout changes; readers reject mismatches.
SNAPSHOT_VERSION = 1

SECTION_DATABASE = b"DBST"
SECTION_INTERN = b"INTB"
SECTION_REGISTRY = b"VREG"

_SNAPSHOT_HEADER = struct.Struct("<4sIQI")
_SECTION_HEADER = struct.Struct("<4sQI")
_RELATION_HEADER = struct.Struct("<IiQ")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Intern-table state as exported by
#: :meth:`repro.algebra.intern.InternTable.export_state`.
InternState = Tuple[List[str], List[Tuple[int, ...]]]


@dataclass
class SnapshotContent:
    """The decoded sections of one snapshot file."""

    db_version: int
    checkpoint: Dict[str, object]
    intern_state: Optional[InternState]
    registry_state: Optional[Dict[str, object]]


def _canonical_json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


# ----------------------------------------------------------------------
# Section payloads
# ----------------------------------------------------------------------
def _encode_database(checkpoint: Dict[str, object]) -> List[bytes]:
    """The ``DBST`` payload, as chunks (one relation's blobs at a time)."""
    supply = _canonical_json(checkpoint["supply"])
    relations: Dict[str, Dict] = checkpoint["relations"]  # type: ignore[assignment]
    arities: Dict[str, int] = checkpoint["arities"]  # type: ignore[assignment]
    chunks: List[bytes] = [
        _U32.pack(len(supply)),
        supply,
        _U64.pack(int(checkpoint["version"])),  # type: ignore[arg-type]
        _U32.pack(len(arities)),
    ]
    for relation in sorted(arities):
        rows = relations.get(relation, {})
        name = relation.encode("utf-8")
        arity = arities[relation]
        ann_offsets = array("q", [0])
        ann_blob = bytearray()
        cell_offsets = array("q", [0])
        cell_blob = bytearray()
        for row, annotation in rows.items():
            _encode_value(annotation, ann_blob)
            ann_offsets.append(len(ann_blob))
            for value in row:
                _encode_value(value, cell_blob)
                cell_offsets.append(len(cell_blob))
        chunks.append(_RELATION_HEADER.pack(len(name), arity, len(rows)))
        chunks.append(name)
        chunks.append(ann_offsets.tobytes())
        chunks.append(ann_blob)
        chunks.append(cell_offsets.tobytes())
        chunks.append(cell_blob)
    return chunks


def _decode_database(payload: bytes) -> Dict[str, object]:
    try:
        cursor = 0
        (supply_len,) = _U32.unpack_from(payload, cursor)
        cursor += _U32.size
        supply = json.loads(payload[cursor:cursor + supply_len].decode("utf-8"))
        cursor += supply_len
        (version,) = _U64.unpack_from(payload, cursor)
        cursor += _U64.size
        (n_relations,) = _U32.unpack_from(payload, cursor)
        cursor += _U32.size
        relations: Dict[str, Dict] = {}
        arities: Dict[str, int] = {}
        for _ in range(n_relations):
            name_len, arity, n_rows = _RELATION_HEADER.unpack_from(
                payload, cursor
            )
            cursor += _RELATION_HEADER.size
            name = payload[cursor:cursor + name_len].decode("utf-8")
            cursor += name_len
            ann_offsets = array("q")
            ann_offsets.frombytes(payload[cursor:cursor + 8 * (n_rows + 1)])
            cursor += 8 * (n_rows + 1)
            ann_blob = payload[cursor:cursor + ann_offsets[-1]]
            cursor += ann_offsets[-1]
            n_cells = n_rows * arity
            cell_offsets = array("q")
            cell_offsets.frombytes(payload[cursor:cursor + 8 * (n_cells + 1)])
            cursor += 8 * (n_cells + 1)
            cell_blob = payload[cursor:cursor + cell_offsets[-1]]
            cursor += cell_offsets[-1]
            rows: Dict[Tuple, str] = {}
            cell = 0
            for i in range(n_rows):
                row = tuple(
                    _decode_value(
                        cell_blob,
                        cell_offsets[cell + j],
                        cell_offsets[cell + j + 1],
                    )
                    for j in range(arity)
                )
                cell += arity
                rows[row] = _decode_value(
                    ann_blob, ann_offsets[i], ann_offsets[i + 1]
                )
            relations[name] = rows
            arities[name] = arity
        return {
            "relations": relations,
            "arities": arities,
            "version": version,
            "supply": supply,
        }
    except (IndexError, ValueError, struct.error) as error:
        raise SnapshotError(
            "corrupt DBST section: {}".format(error)
        ) from error


def _encode_intern(state: InternState) -> bytes:
    symbols, monomial_keys = state
    symbol_offsets = array("q", [0])
    symbol_blob = bytearray()
    for symbol in symbols:
        symbol_blob += symbol.encode("utf-8")
        symbol_offsets.append(len(symbol_blob))
    key_offsets = array("q", [0])
    key_ids = array("q")
    for key in monomial_keys:
        key_ids.extend(key)
        key_offsets.append(len(key_ids))
    return b"".join(
        [
            _U32.pack(len(symbols)),
            symbol_offsets.tobytes(),
            bytes(symbol_blob),
            _U32.pack(len(monomial_keys)),
            key_offsets.tobytes(),
            key_ids.tobytes(),
        ]
    )


def _decode_intern(payload: bytes) -> InternState:
    try:
        cursor = 0
        (n_symbols,) = _U32.unpack_from(payload, cursor)
        cursor += _U32.size
        symbol_offsets = array("q")
        symbol_offsets.frombytes(payload[cursor:cursor + 8 * (n_symbols + 1)])
        cursor += 8 * (n_symbols + 1)
        symbol_blob = payload[cursor:cursor + symbol_offsets[-1]]
        cursor += symbol_offsets[-1]
        symbols = [
            symbol_blob[symbol_offsets[i]:symbol_offsets[i + 1]].decode("utf-8")
            for i in range(n_symbols)
        ]
        (n_keys,) = _U32.unpack_from(payload, cursor)
        cursor += _U32.size
        key_offsets = array("q")
        key_offsets.frombytes(payload[cursor:cursor + 8 * (n_keys + 1)])
        cursor += 8 * (n_keys + 1)
        key_ids = array("q")
        key_ids.frombytes(payload[cursor:cursor + 8 * key_offsets[-1]])
        monomial_keys = [
            tuple(key_ids[key_offsets[i]:key_offsets[i + 1]])
            for i in range(n_keys)
        ]
        return symbols, monomial_keys
    except (IndexError, ValueError, struct.error) as error:
        raise SnapshotError(
            "corrupt INTB section: {}".format(error)
        ) from error


# ----------------------------------------------------------------------
# Whole snapshots
# ----------------------------------------------------------------------
def snapshot_chunks(
    checkpoint: Dict[str, object],
    intern_state: Optional[InternState] = None,
    registry_json: Optional[List[bytes]] = None,
) -> List[bytes]:
    """One snapshot as chunks whose concatenation is the file.

    ``registry_json`` is the ``VREG`` payload already encoded (e.g.
    :meth:`~repro.incremental.registry.ViewRegistry.materialized_json`);
    ``None`` stands for a bare session.  Section lengths and checksums
    are folded over the chunks, so the file is never joined in memory:
    :func:`write_snapshot` writes the chunks as they are.
    """
    sections = [
        (SECTION_DATABASE, _encode_database(checkpoint)),
        (SECTION_INTERN, [_encode_intern(intern_state or ([], []))]),
        (SECTION_REGISTRY, registry_json or [b"null"]),
    ]
    chunks: List[bytes] = [
        _SNAPSHOT_HEADER.pack(
            SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            int(checkpoint["version"]),  # type: ignore[arg-type]
            len(sections),
        )
    ]
    for kind, payload in sections:
        length = 0
        checksum = 0
        for chunk in payload:
            length += len(chunk)
            checksum = zlib.crc32(chunk, checksum)
        chunks.append(_SECTION_HEADER.pack(kind, length, checksum))
        chunks.extend(payload)
    return chunks


def encode_snapshot(
    checkpoint: Dict[str, object],
    intern_state: Optional[InternState] = None,
    registry_state: Optional[Dict[str, object]] = None,
) -> bytes:
    """Serialize one snapshot (database, intern table, registry)."""
    return b"".join(
        snapshot_chunks(
            checkpoint, intern_state, [_canonical_json(registry_state)]
        )
    )


def decode_snapshot(data: bytes) -> SnapshotContent:
    """Inverse of :func:`encode_snapshot`; raises on any corruption."""
    if len(data) < _SNAPSHOT_HEADER.size:
        raise SnapshotError("truncated snapshot header")
    magic, version, db_version, n_sections = _SNAPSHOT_HEADER.unpack_from(
        data, 0
    )
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError("bad snapshot magic {!r}".format(magic))
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            "unsupported snapshot format version {}".format(version)
        )
    sections: Dict[bytes, bytes] = {}
    cursor = _SNAPSHOT_HEADER.size
    for _ in range(n_sections):
        if cursor + _SECTION_HEADER.size > len(data):
            raise SnapshotError("truncated section header")
        kind, length, checksum = _SECTION_HEADER.unpack_from(data, cursor)
        cursor += _SECTION_HEADER.size
        payload = data[cursor:cursor + length]
        if len(payload) != length:
            raise SnapshotError(
                "truncated {} section ({} of {} bytes)".format(
                    kind, len(payload), length
                )
            )
        if zlib.crc32(payload) != checksum:
            raise SnapshotError("checksum mismatch in {} section".format(kind))
        sections[kind] = payload
        cursor += length
    if cursor != len(data):
        raise SnapshotError(
            "{} trailing bytes after the last section".format(
                len(data) - cursor
            )
        )
    for required in (SECTION_DATABASE, SECTION_INTERN, SECTION_REGISTRY):
        if required not in sections:
            raise SnapshotError("missing {} section".format(required))
    checkpoint = _decode_database(sections[SECTION_DATABASE])
    if int(checkpoint["version"]) != db_version:  # type: ignore[arg-type]
        raise SnapshotError(
            "header db version {} disagrees with checkpoint {}".format(
                db_version, checkpoint["version"]
            )
        )
    intern_state = _decode_intern(sections[SECTION_INTERN])
    try:
        registry_state = json.loads(
            sections[SECTION_REGISTRY].decode("utf-8")
        )
    except ValueError as error:
        raise SnapshotError(
            "corrupt VREG section: {}".format(error)
        ) from error
    return SnapshotContent(
        db_version=db_version,
        checkpoint=checkpoint,
        intern_state=intern_state,
        registry_state=registry_state,
    )


def write_snapshot(path: str, data: Union[bytes, Sequence[bytes]]) -> None:
    """Write snapshot bytes — or the chunks of :func:`snapshot_chunks` —
    atomically (temp file, fsync, rename)."""
    directory = os.path.dirname(path) or "."
    temp = os.path.join(
        directory, ".{}.tmp".format(os.path.basename(path))
    )
    with open(temp, "wb") as handle:
        if isinstance(data, (bytes, bytearray)):
            handle.write(data)
        else:
            handle.writelines(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    # Durability of the rename itself: fsync the directory entry where
    # the platform supports opening directories (POSIX does).
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_snapshot(path: str) -> SnapshotContent:
    """Load and decode one snapshot file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise SnapshotError(
            "cannot read snapshot {}: {}".format(path, error)
        ) from error
    return decode_snapshot(data)
