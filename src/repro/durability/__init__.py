"""Durability: binary snapshots, a write-ahead delta log, and recovery.

The serving tier's state — the annotated database, interned
provenance, and materialized views — normally dies with the process.
This package persists it:

* :mod:`repro.durability.snapshot` — the ``RPSN`` versioned binary
  snapshot codec (database checkpoint + intern table + registry
  state);
* :mod:`repro.durability.wal` — the ``RPWL`` fsync-on-append
  write-ahead log of accepted ``/update`` batches;
* :mod:`repro.durability.store` — :class:`DurableStore`, which owns a
  data directory, rotates the WAL into fresh snapshots, and rebuilds
  the exact pre-crash state on boot.

Wire it in with ``ServerState(db, data_dir=...)`` /
``make_server(db, data_dir=...)`` / ``repro-prov serve --data-dir``;
the on-disk formats are specified byte-by-byte in ``DESIGN.md``.
"""

from repro.durability.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotContent,
    decode_snapshot,
    encode_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.durability.store import (
    DEFAULT_SNAPSHOT_EVERY,
    DurableStore,
    RecoveredState,
)
from repro.durability.wal import (
    FAULT_ENV,
    WAL_MAGIC,
    WAL_VERSION,
    WriteAheadLog,
    encode_record,
    scan_wal,
)

__all__ = [
    "DEFAULT_SNAPSHOT_EVERY",
    "DurableStore",
    "FAULT_ENV",
    "RecoveredState",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotContent",
    "WAL_MAGIC",
    "WAL_VERSION",
    "WriteAheadLog",
    "decode_snapshot",
    "encode_record",
    "encode_snapshot",
    "read_snapshot",
    "scan_wal",
    "write_snapshot",
]
