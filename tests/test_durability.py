"""Unit tests for the durability subsystem (snapshots + WAL + store).

The byte formats themselves are fuzzed in ``test_durability_codecs.py``
and the subprocess SIGKILL differential lives in
``test_crash_recovery.py``; this module covers the deterministic unit
behavior: round trips, rotation, pruning, corrupt-generation fallback,
recovery wiring and the server integration.
"""

import json
import os

import pytest

from repro.config import EngineConfig
from repro.db.instance import AnnotatedDatabase
from repro.durability import (
    DurableStore,
    WriteAheadLog,
    decode_snapshot,
    encode_record,
    encode_snapshot,
    read_snapshot,
    scan_wal,
    write_snapshot,
)
from repro.durability.store import RecoveredState
from repro.errors import DurabilityError, ReproError, SnapshotError, WalError
from repro.incremental.delta import Delta
from repro.incremental.registry import ViewRegistry
from repro.io import delta_to_dict
from repro.obs import MetricsRegistry
from repro.query.parser import parse_query
from repro.server.app import ServerState


def small_db() -> AnnotatedDatabase:
    return AnnotatedDatabase.from_rows(
        {"R": [("a", "b"), ("b", "c")], "S": [("c",)]}
    )


PROGRAM = {
    "V": parse_query("V(x, z) :- R(x, y), R(y, z)"),
    "W": parse_query("W(x) :- V(x, z), S(z)"),
}


def db_facts(db: AnnotatedDatabase):
    return sorted(db.all_facts(), key=repr)


# ----------------------------------------------------------------------
# Snapshot codec
# ----------------------------------------------------------------------
class TestSnapshotRoundTrip:
    def test_database_round_trip(self):
        db = small_db()
        content = decode_snapshot(encode_snapshot(db.checkpoint_state()))
        restored = AnnotatedDatabase.from_checkpoint(content.checkpoint)
        assert db_facts(restored) == db_facts(db)
        assert restored.version() == db.version()

    def test_non_string_cells_round_trip(self):
        db = AnnotatedDatabase()
        db.add("T", (1, "x"))
        db.add("T", (2.5, None))
        db.add("T", (True, (1, 2)))
        content = decode_snapshot(encode_snapshot(db.checkpoint_state()))
        restored = AnnotatedDatabase.from_checkpoint(content.checkpoint)
        assert db_facts(restored) == db_facts(db)

    def test_empty_declared_relation_survives(self):
        db = small_db()
        db.declare_relation("Empty", 3)
        content = decode_snapshot(encode_snapshot(db.checkpoint_state()))
        restored = AnnotatedDatabase.from_checkpoint(content.checkpoint)
        assert restored.arity("Empty") == 3
        assert restored.rows("Empty") == []

    def test_name_supply_continues_after_restore(self):
        db = small_db()
        content = decode_snapshot(encode_snapshot(db.checkpoint_state()))
        restored = AnnotatedDatabase.from_checkpoint(content.checkpoint)
        fresh_original = db.add("R", ("x", "y"))
        fresh_restored = restored.add("R", ("x", "y"))
        assert fresh_restored == fresh_original

    def test_version_round_trips_through_header(self):
        db = small_db()
        db.add("R", ("q", "r"))
        data = encode_snapshot(db.checkpoint_state())
        assert decode_snapshot(data).db_version == db.version()

    def test_intern_state_round_trips(self):
        state = (["s1", "s2", "s3"], [(0, 1), (2, 2, 2), ()])
        data = encode_snapshot(
            small_db().checkpoint_state(), intern_state=state
        )
        assert decode_snapshot(data).intern_state == state

    def test_registry_state_round_trips(self):
        db = small_db()
        registry = ViewRegistry(
            PROGRAM, db, config=EngineConfig(engine="hashjoin")
        )
        state = registry.materialized_state()
        data = encode_snapshot(
            registry.serving_db.checkpoint_state(), registry_state=state
        )
        assert decode_snapshot(data).registry_state == json.loads(
            json.dumps(state)
        )

    def test_atomic_write_and_read(self, tmp_path):
        path = str(tmp_path / "snap.rpsn")
        db = small_db()
        write_snapshot(path, encode_snapshot(db.checkpoint_state()))
        assert not [p for p in os.listdir(str(tmp_path)) if "tmp" in p]
        content = read_snapshot(path)
        assert content.db_version == db.version()

    def test_read_missing_file_is_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(str(tmp_path / "nope.rpsn"))


class TestSnapshotValidation:
    def test_bad_magic_rejected(self):
        data = encode_snapshot(small_db().checkpoint_state())
        with pytest.raises(SnapshotError):
            decode_snapshot(b"XXXX" + data[4:])

    def test_unknown_format_version_rejected(self):
        data = bytearray(encode_snapshot(small_db().checkpoint_state()))
        data[4] = 99
        with pytest.raises(SnapshotError):
            decode_snapshot(bytes(data))

    def test_truncated_payload_rejected(self):
        data = encode_snapshot(small_db().checkpoint_state())
        with pytest.raises(SnapshotError):
            decode_snapshot(data[: len(data) - 7])

    def test_corrupt_section_checksum_rejected(self):
        data = bytearray(encode_snapshot(small_db().checkpoint_state()))
        data[-1] ^= 0xFF
        with pytest.raises(SnapshotError):
            decode_snapshot(bytes(data))


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    PAYLOADS = [
        {"insert": {"R": [{"row": ["x", "y"], "annotation": "s9"}]}},
        {"delete": {"R": [["a", "b"]]}},
        {"retag": {"S": [{"row": ["c"], "annotation": "t1"}]}},
    ]

    def test_append_then_scan(self, tmp_path):
        path = str(tmp_path / "wal.rpwl")
        with WriteAheadLog.create(path, base_version=7) as wal:
            for payload in self.PAYLOADS:
                wal.append(payload)
        base, records, _, torn = scan_wal(path)
        assert (base, torn) == (7, False)
        assert records == self.PAYLOADS

    def test_reopen_continues_appending(self, tmp_path):
        path = str(tmp_path / "wal.rpwl")
        with WriteAheadLog.create(path, base_version=0) as wal:
            wal.append(self.PAYLOADS[0])
        with WriteAheadLog.open(path) as wal:
            assert wal.records == 1
            wal.append(self.PAYLOADS[1])
        assert scan_wal(path)[1] == self.PAYLOADS[:2]

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "wal.rpwl")
        with WriteAheadLog.create(path, base_version=0) as wal:
            wal.append(self.PAYLOADS[0])
            wal.append(self.PAYLOADS[1])
        frame = encode_record(self.PAYLOADS[2])
        with open(path, "ab") as handle:
            handle.write(frame[: len(frame) - 3])
        base, records, _, torn = scan_wal(path)
        assert torn and records == self.PAYLOADS[:2]
        with WriteAheadLog.open(path) as wal:
            assert wal.records == 2
            wal.append(self.PAYLOADS[2])
        base, records, _, torn = scan_wal(path)
        assert not torn and records == self.PAYLOADS

    def test_bitflip_in_record_truncates_from_there(self, tmp_path):
        path = str(tmp_path / "wal.rpwl")
        with WriteAheadLog.create(path, base_version=0) as wal:
            for payload in self.PAYLOADS:
                wal.append(payload)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 4)
            handle.write(b"\xff")
        _, records, _, torn = scan_wal(path)
        assert torn and records == self.PAYLOADS[:2]

    def test_corrupt_header_is_wal_error(self, tmp_path):
        path = str(tmp_path / "wal.rpwl")
        with open(path, "wb") as handle:
            handle.write(b"NOPE" + b"\x00" * 12)
        with pytest.raises(WalError):
            scan_wal(path)

    def test_create_refuses_to_overwrite(self, tmp_path):
        path = str(tmp_path / "wal.rpwl")
        WriteAheadLog.create(path, base_version=0).close()
        with pytest.raises(OSError):
            WriteAheadLog.create(path, base_version=0)


# ----------------------------------------------------------------------
# DurableStore
# ----------------------------------------------------------------------
class TestDurableStoreBare:
    def test_bare_snapshot_and_recover(self, tmp_path):
        db = small_db()
        with DurableStore(str(tmp_path)) as store:
            store.snapshot(db)
            for delta in (
                Delta(inserts=[("R", ("x", "y"), None)]),
                Delta(deletes=[("S", ("c",))]),
            ):
                store.log_update(delta_to_dict(delta))
        oracle = small_db()
        oracle.add("R", ("x", "y"))
        oracle.remove("S", ("c",))
        with DurableStore(str(tmp_path)) as store:
            recovered = store.recover()
            assert isinstance(recovered, RecoveredState)
            assert recovered.replayed == 2 and recovered.skipped == 0
            assert recovered.registry is None
            assert db_facts(recovered.db) == db_facts(oracle)
            assert recovered.version == oracle.version()

    def test_empty_dir_has_no_state(self, tmp_path):
        with DurableStore(str(tmp_path)) as store:
            assert not store.has_state()
            with pytest.raises(DurabilityError, match="nothing to recover"):
                store.recover()

    def test_replay_skips_deterministically_failing_deltas(self, tmp_path):
        with DurableStore(str(tmp_path)) as store:
            store.snapshot(small_db())
            store.log_update(
                delta_to_dict(Delta(deletes=[("R", ("no", "such"))]))
            )
            store.log_update(
                delta_to_dict(Delta(inserts=[("R", ("x", "y"), None)]))
            )
        with DurableStore(str(tmp_path)) as store:
            recovered = store.recover()
        assert recovered.replayed == 1 and recovered.skipped == 1
        assert ("R", ("x", "y")) in [
            (rel, row) for rel, row, _ in recovered.db.all_facts()
        ]

    def test_recover_falls_back_to_previous_generation(self, tmp_path):
        with DurableStore(str(tmp_path), snapshot_every=1) as store:
            db = small_db()
            store.snapshot(db)
            db.add("R", ("x", "y"))
            store.snapshot(db)
        snapshots = DurableStore(str(tmp_path)).snapshot_files()
        assert len(snapshots) == 2
        with open(snapshots[-1][1], "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff\xff\xff")
        with DurableStore(str(tmp_path)) as store:
            recovered = store.recover()
        assert recovered.snapshot_version == snapshots[0][0]

    def test_all_snapshots_corrupt_is_an_error(self, tmp_path):
        with DurableStore(str(tmp_path)) as store:
            store.snapshot(small_db())
        (snap,) = DurableStore(str(tmp_path)).snapshot_files()
        with open(snap[1], "r+b") as handle:
            handle.seek(6)
            handle.write(b"\xff\xff\xff\xff")
        with DurableStore(str(tmp_path)) as store:
            with pytest.raises(SnapshotError, match="snapshot"):
                store.recover()

    def test_rotation_prunes_old_generations(self, tmp_path):
        db = small_db()
        with DurableStore(
            str(tmp_path), snapshot_every=1, keep_snapshots=2
        ) as store:
            store.snapshot(db)
            for i in range(4):
                store.log_update(
                    delta_to_dict(
                        Delta(inserts=[("R", ("n%d" % i, "m%d" % i), None)])
                    )
                )
                assert store.should_rotate()
                db.add("R", ("n%d" % i, "m%d" % i))
                store.snapshot(db)
            assert len(store.snapshot_files()) == 2
            wal_bases = [base for base, _ in store.wal_files()]
            assert min(wal_bases) >= store.snapshot_files()[0][0]
        with DurableStore(str(tmp_path)) as store:
            recovered = store.recover()
        assert db_facts(recovered.db) == db_facts(db)

    def test_wal_records_metric_increments(self, tmp_path):
        registry = MetricsRegistry()
        with DurableStore(str(tmp_path), metrics=registry) as store:
            store.snapshot(small_db())
            store.log_update(
                delta_to_dict(Delta(inserts=[("R", ("x", "y"), None)]))
            )
        assert "repro_wal_records_total 1" in registry.render()

    def test_stats_fields(self, tmp_path):
        with DurableStore(str(tmp_path)) as store:
            store.snapshot(small_db())
            stats = store.stats()
        assert stats["data_dir"] == str(tmp_path)
        assert stats["wal_records"] == 0
        assert stats["snapshots"] == 1
        assert stats["last_snapshot_version"] == small_db().version()
        assert stats["snapshot_every"] > 0


class TestDurableStoreRegistry:
    def seed(self, tmp_path) -> AnnotatedDatabase:
        db = small_db()
        registry = ViewRegistry(
            PROGRAM, db, config=EngineConfig(engine="hashjoin")
        )
        with DurableStore(str(tmp_path)) as store:
            store.snapshot(registry.serving_db, registry)
            delta = Delta(inserts=[("R", ("c", "a"), None)])
            store.log_update(delta_to_dict(delta))
            registry.apply(delta)
        return registry.serving_db

    def test_registry_recover_matches_live_maintenance(self, tmp_path):
        live = self.seed(tmp_path)
        with DurableStore(str(tmp_path)) as store:
            recovered = store.recover(program=PROGRAM)
        assert recovered.registry is not None
        assert db_facts(recovered.registry.serving_db) == db_facts(live)
        assert recovered.registry.db_version() == live.version()

    def test_recovered_registry_keeps_maintaining(self, tmp_path):
        self.seed(tmp_path)
        with DurableStore(str(tmp_path)) as store:
            recovered = store.recover(program=PROGRAM)
        report = recovered.registry.apply(
            Delta(inserts=[("S", ("b",), None)])
        )
        assert "W" in report.touched_views()
        assert recovered.registry.read_view("V")

    def test_program_mismatch_raises(self, tmp_path):
        self.seed(tmp_path)
        with DurableStore(str(tmp_path)) as store:
            with pytest.raises(ReproError, match="view program"):
                store.recover(
                    program={"Z": parse_query("Z(x) :- R(x, y)")}
                )

    def test_bare_recover_of_registry_snapshot_raises(self, tmp_path):
        self.seed(tmp_path)
        with DurableStore(str(tmp_path)) as store:
            with pytest.raises(DurabilityError, match="program"):
                store.recover()

    def test_registry_recover_of_bare_snapshot_raises(self, tmp_path):
        with DurableStore(str(tmp_path)) as store:
            store.snapshot(small_db())
        with DurableStore(str(tmp_path)) as store:
            with pytest.raises(DurabilityError, match="program"):
                store.recover(program=PROGRAM)


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------
UPDATE = {"insert": {"R": [{"row": ["c", "a"], "annotation": "u1"}]}}


class TestServerDurability:
    def boot(self, tmp_path, program=None, **kwargs) -> ServerState:
        return ServerState(
            small_db(), program=program, data_dir=str(tmp_path), **kwargs
        )

    def test_restart_serves_identical_bytes(self, tmp_path):
        with self.boot(tmp_path) as state:
            state.apply_update(UPDATE)
            before = state.run_query("ans(x, y) :- R(x, y)")
            version = state.stats()["db_version"]
        with self.boot(tmp_path) as state:
            assert state.recovery is not None
            assert state.stats()["db_version"] == version
            assert state.run_query("ans(x, y) :- R(x, y)") == before

    def test_registry_restart_serves_identical_views(self, tmp_path):
        with self.boot(tmp_path, program=PROGRAM) as state:
            state.apply_update(UPDATE)
            view = state.read_view("V")
            query = state.run_query("ans(x) :- W(x)")
        with self.boot(tmp_path, program=PROGRAM) as state:
            assert state.recovery is not None
            assert state.read_view("V") == view
            assert state.run_query("ans(x) :- W(x)") == query

    def test_rotation_threshold_respected(self, tmp_path):
        with self.boot(tmp_path, snapshot_every=1) as state:
            state.apply_update(UPDATE)
            assert len(state.store.snapshot_files()) == 2

    def test_stats_exposes_durability(self, tmp_path):
        with self.boot(tmp_path) as state:
            payload = state.stats()
            assert payload["durability"]["data_dir"] == str(tmp_path)

    def test_rejected_update_is_not_replayed(self, tmp_path):
        bad = {"delete": {"R": [["no", "such"]]}}
        with self.boot(tmp_path) as state:
            with pytest.raises(ReproError):
                state.apply_update(bad)
            state.apply_update(UPDATE)
            version = state.stats()["db_version"]
        with self.boot(tmp_path) as state:
            assert state.stats()["db_version"] == version

    def test_no_data_dir_means_no_store(self):
        with ServerState(small_db()) as state:
            assert state.store is None and state.recovery is None
            assert "durability" not in state.stats()
