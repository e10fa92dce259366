"""The durable state directory: snapshots + WAL + boot-time recovery.

:class:`DurableStore` owns one ``data_dir`` holding

* ``snapshot-<version>.rpsn`` — full-state snapshots
  (:mod:`repro.durability.snapshot`), named by the database version
  they capture, zero-padded so lexicographic order is version order;
* ``wal-<version>.rpwl`` — write-ahead logs
  (:mod:`repro.durability.wal`), named by the version they start at
  (always the version of the snapshot they extend).

The protocol the serving tier follows:

1. boot: :meth:`recover` when :meth:`has_state`, else build normally
   and :meth:`snapshot` the initial state;
2. every accepted ``/update`` batch: :meth:`log_update` *before* the
   batch is applied (under the session lock, so the log order is the
   apply order);
3. after a successful update: :meth:`should_rotate` → :meth:`snapshot`
   (rotation) once the WAL passes its configured threshold.

Recovery walks snapshots newest-first, skipping any that fail their
checksums (a crash can tear at most the newest one — rotation never
touches older generations), replays every WAL record past the chosen
snapshot (truncating a torn tail), and returns the rebuilt state at
the exact pre-crash version.  Replay re-applies deltas through the
same code paths the live server used, so a batch that failed
mid-sequence then fails again identically — byte-for-byte equivalence
with the uninterrupted history, which the crash-injection suite
asserts over the HTTP surface.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.db.instance import AnnotatedDatabase
from repro.durability.snapshot import (
    InternState,
    read_snapshot,
    snapshot_chunks,
    write_snapshot,
)
from repro.durability.wal import WriteAheadLog, scan_wal
from repro.errors import DurabilityError, ReproError, SnapshotError, WalError
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import current_tracer

#: Default WAL-records-per-snapshot rotation threshold.
DEFAULT_SNAPSHOT_EVERY = 512

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{20})\.rpsn$")
_WAL_RE = re.compile(r"^wal-(\d{20})\.rpwl$")


@dataclass
class RecoveredState:
    """What :meth:`DurableStore.recover` rebuilt.

    ``registry`` is ``None`` when the snapshot was taken by a bare
    session; ``version`` is the post-replay database version — exactly
    the version the process died at.
    """

    db: AnnotatedDatabase
    registry: Optional[object]
    version: int
    snapshot_version: int
    replayed: int
    skipped: int
    truncated: int
    intern_state: InternState


class DurableStore:
    """Snapshot + WAL persistence rooted at one data directory."""

    def __init__(
        self,
        data_dir: str,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        keep_snapshots: int = 2,
        metrics=NULL_REGISTRY,
    ):  # noqa: D107
        if snapshot_every < 1:
            raise DurabilityError(
                "snapshot_every must be >= 1, got {}".format(snapshot_every)
            )
        self._dir = data_dir
        self._snapshot_every = snapshot_every
        self._keep_snapshots = max(1, keep_snapshots)
        self._wal: Optional[WriteAheadLog] = None
        self._last_snapshot_version: Optional[int] = None
        self._wal_counter = metrics.counter(
            "repro_wal_records_total",
            "Delta batches fsynced to the write-ahead log",
        )
        os.makedirs(data_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # Directory layout
    # ------------------------------------------------------------------
    @property
    def data_dir(self) -> str:
        """The directory this store persists into."""
        return self._dir

    def _snapshot_path(self, version: int) -> str:
        return os.path.join(self._dir, "snapshot-{:020d}.rpsn".format(version))

    def _wal_path(self, version: int) -> str:
        return os.path.join(self._dir, "wal-{:020d}.rpwl".format(version))

    def _listed(self, pattern: "re.Pattern") -> List[Tuple[int, str]]:
        found = []
        for name in os.listdir(self._dir):
            match = pattern.match(name)
            if match:
                found.append((int(match.group(1)), os.path.join(self._dir, name)))
        return sorted(found)

    def snapshot_files(self) -> List[Tuple[int, str]]:
        """``(version, path)`` of every snapshot, ascending."""
        return self._listed(_SNAPSHOT_RE)

    def wal_files(self) -> List[Tuple[int, str]]:
        """``(base version, path)`` of every WAL, ascending."""
        return self._listed(_WAL_RE)

    def has_state(self) -> bool:
        """Is there anything to recover from?"""
        return bool(self.snapshot_files())

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def snapshot(
        self,
        db: AnnotatedDatabase,
        registry=None,
        intern_state: Optional[InternState] = None,
    ) -> int:
        """Write a snapshot of the current state and rotate the WAL.

        ``db`` is the *working* database (the registry's, when one is
        fronted).  Returns the version the snapshot captured.  The old
        WAL is closed only after the new snapshot and WAL are durably
        on disk, so every crash window leaves a recoverable pair.
        """
        version = db.version()
        chunks = snapshot_chunks(
            db.checkpoint_state(),
            intern_state,
            registry.materialized_json() if registry is not None else None,
        )
        with current_tracer().span(
            "snapshot.write",
            version=version,
            bytes=sum(len(chunk) for chunk in chunks),
        ):
            write_snapshot(self._snapshot_path(version), chunks)
            wal_path = self._wal_path(version)
            if self._wal is None or self._wal.path != wal_path:
                old = self._wal
                if os.path.exists(wal_path):
                    # A dead zero-record log from a snapshot at the same
                    # version (only empty update batches in between).
                    os.remove(wal_path)
                self._wal = WriteAheadLog.create(wal_path, version)
                if old is not None:
                    old.close()
        self._last_snapshot_version = version
        self._prune()
        return version

    def log_update(self, payload: dict) -> int:
        """Durably append one ``delta_to_dict`` batch; returns its index.

        Must be called *before* the batch is applied, under the same
        lock that serializes applies — the WAL order is the replay
        order.
        """
        if self._wal is None:
            raise WalError(
                "no write-ahead log is open; snapshot() or recover() first"
            )
        with current_tracer().span("wal.append", records=self._wal.records):
            index = self._wal.append(payload)
        self._wal_counter.inc()
        return index

    def should_rotate(self) -> bool:
        """Has the WAL grown past the rotation threshold?"""
        return self._wal is not None and self._wal.records >= self._snapshot_every

    def _prune(self) -> None:
        snapshots = self.snapshot_files()
        kept = snapshots[-self._keep_snapshots:]
        for _version, path in snapshots[: -self._keep_snapshots]:
            os.remove(path)
        if not kept:
            return
        oldest_kept = kept[0][0]
        for base, path in self.wal_files():
            if base < oldest_kept and (
                self._wal is None or path != self._wal.path
            ):
                os.remove(path)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, program=None, config=None) -> RecoveredState:
        """Rebuild the serving state: latest valid snapshot + WAL replay.

        ``program``/``config`` must match what the snapshotting server
        ran with (the registry restore asserts the program).  Corrupt
        snapshots fall back to the previous generation; WAL records are
        replayed through the very maintenance paths the live server
        used, and a torn tail record is truncated.  Afterwards the
        store is positioned for appending (``log_update``) exactly
        where the dead process stopped.
        """
        snapshots = self.snapshot_files()
        if not snapshots:
            raise DurabilityError(
                "nothing to recover: no snapshot in {}".format(self._dir)
            )
        content = None
        snapshot_version = -1
        rejected: List[str] = []
        for version, path in reversed(snapshots):
            try:
                content = read_snapshot(path)
                snapshot_version = version
                break
            except SnapshotError as error:
                rejected.append("{}: {}".format(os.path.basename(path), error))
        if content is None:
            raise SnapshotError(
                "every snapshot in {} is corrupt ({})".format(
                    self._dir, "; ".join(rejected)
                )
            )
        from repro.config import resolve_engine_config

        resolved = resolve_engine_config(config, "DurableStore.recover")
        registry = None
        if content.registry_state is not None:
            if program is None:
                raise DurabilityError(
                    "snapshot {} serves a view program; pass it to "
                    "recover()".format(snapshot_version)
                )
            from repro.incremental.registry import ViewRegistry

            db = AnnotatedDatabase.from_checkpoint(
                content.checkpoint,
                track_changes=(resolved.engine == "sharded"),
            )
            registry = ViewRegistry.from_materialized(
                program, db, content.registry_state, config=resolved
            )
        else:
            if program is not None:
                raise DurabilityError(
                    "snapshot {} was taken without a view program; it "
                    "cannot back a registry server".format(snapshot_version)
                )
            db = AnnotatedDatabase.from_checkpoint(content.checkpoint)
        from repro.incremental.delta import apply_to_database
        from repro.io import delta_from_dict

        replayed = skipped = truncated = 0
        tail = [
            entry for entry in self.wal_files() if entry[0] >= snapshot_version
        ]
        with current_tracer().span(
            "recover.replay", snapshot=snapshot_version, wals=len(tail)
        ):
            for _base, path in tail:
                _version, payloads, _valid, torn = scan_wal(path)
                if torn:
                    truncated += 1
                for payload in payloads:
                    delta = delta_from_dict(payload)
                    try:
                        if registry is not None:
                            registry.apply(delta)
                        else:
                            apply_to_database(db, delta)
                    except ReproError:
                        # The live server logged this batch, then its
                        # apply failed mid-sequence; the failure is
                        # deterministic, so skipping reproduces the
                        # pre-crash state exactly.
                        skipped += 1
                    else:
                        replayed += 1
        version = registry.db_version() if registry is not None else db.version()
        if tail:
            self._wal = WriteAheadLog.open(tail[-1][1])
        else:
            # Crash between snapshot rename and WAL creation: start the
            # log the rotation never got to.
            self._wal = WriteAheadLog.create(
                self._wal_path(version), version
            )
        self._last_snapshot_version = snapshot_version
        return RecoveredState(
            db=db,
            registry=registry,
            version=version,
            snapshot_version=snapshot_version,
            replayed=replayed,
            skipped=skipped,
            truncated=truncated,
            intern_state=content.intern_state or ([], []),
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The ``/stats`` durability fragment."""
        return {
            "data_dir": self._dir,
            "wal_records": self._wal.records if self._wal is not None else 0,
            "last_snapshot_version": self._last_snapshot_version,
            "snapshots": len(self.snapshot_files()),
            "snapshot_every": self._snapshot_every,
        }

    def close(self) -> None:
        """Close the open WAL handle (idempotent)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return "<DurableStore {} snapshot_every={}>".format(
            self._dir, self._snapshot_every
        )
