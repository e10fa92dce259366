"""The snapshot is written as chunks, its ``VREG`` section spliced.

:meth:`ViewRegistry.materialized_json` encodes the registry state
straight to chunks (reusing the polynomial text of rows a view read
already encoded) and :func:`snapshot_chunks` folds section lengths and
checksums over them, so no JSON-ready state and no joined file ever
sits in memory.  Held here:

* the streamed ``VREG`` bytes equal ``canonical_json`` of
  :meth:`ViewRegistry.materialized_state` (kept as this oracle) over 20
  seeds with aggregate and dynamic views and partly warm fragments;
* a whole written snapshot equals :func:`encode_snapshot` of the same
  state, and decodes to it;
* at serving scale (about 2 000 base facts, 1 000 view rows) the
  snapshot's transient heap stays within twice the file's size.
"""

import json
import os
import random
import tracemalloc

import pytest

from repro.db.generators import random_database
from repro.durability.snapshot import (
    encode_snapshot,
    read_snapshot,
    snapshot_chunks,
)
from repro.incremental.delta import Delta
from repro.incremental.registry import ViewRegistry
from repro.io import canonical_json
from repro.query.parser import parse_program, parse_query
from repro.server.app import ServerState

PROGRAM = """
V(x, z) :- R(x, y), S(y, z)
W(x) :- V(x, y), R(y, x)
C(x, count(*)) :- R(x, y)
T(y, sum(z)) :- S(y, z)
"""

DOMAIN = range(7)


def churned_registry(seed):
    """A registry after a seeded history of inserts, deletes and
    retags, with a dynamic plain and a dynamic aggregate view, and
    fragments warm for some rows only."""
    rng = random.Random(seed)
    db = random_database({"R": 2, "S": 2}, DOMAIN, 16, seed)
    registry = ViewRegistry(parse_program(PROGRAM), db)
    registry.add_view("D", parse_query("D(x) :- R(x, x)"))
    registry.add_view("E", parse_query("E(count(*)) :- S(x, y)"))
    serial = 0
    for _ in range(25):
        relation = rng.choice(["R", "S"])
        rows = sorted(registry.serving_db.rows(relation))
        serial += 1
        kind = rng.random()
        if kind < 0.5 or not rows:
            row = (rng.choice(DOMAIN), rng.choice(DOMAIN))
            if registry.serving_db.contains(relation, row):
                continue
            delta = Delta(inserts=[(relation, row)])
        elif kind < 0.75:
            delta = Delta(deletes=[(relation, rng.choice(rows))])
        else:
            delta = Delta(
                retags=[(relation, rng.choice(rows), "t{}".format(serial))]
            )
        registry.apply(delta)
        if rng.random() < 0.3:
            registry.view_fragments(rng.choice(["V", "W", "D"]))
    return registry


@pytest.mark.parametrize("seed", range(20))
def test_streamed_vreg_equals_the_materialized_state(seed):
    registry = churned_registry(seed)
    streamed = b"".join(registry.materialized_json())
    assert streamed == canonical_json(registry.materialized_state())[:-1]


@pytest.mark.parametrize("seed", range(3))
def test_written_snapshot_equals_encode_snapshot(tmp_path, seed):
    registry = churned_registry(seed)
    db = registry.serving_db
    checkpoint = db.checkpoint_state()
    intern_state = (["s1", "ü"], [(0,), (0, 1)])
    chunks = snapshot_chunks(
        checkpoint, intern_state, registry.materialized_json()
    )
    data = encode_snapshot(
        checkpoint, intern_state, registry.materialized_state()
    )
    assert b"".join(chunks) == data
    path = tmp_path / "snapshot"
    path.write_bytes(b"".join(chunks))
    content = read_snapshot(str(path))
    assert content.registry_state == json.loads(
        canonical_json(registry.materialized_state())
    )
    assert content.checkpoint["version"] == db.version()


def test_bare_session_snapshot_has_a_null_registry():
    db = random_database({"R": 2}, DOMAIN, 5, 1)
    checkpoint = db.checkpoint_state()
    assert b"".join(snapshot_chunks(checkpoint)) == encode_snapshot(checkpoint)


def serving_scale_state(data_dir):
    """About serve-churn's scale: R with 1 000 and S with 1 100 seeded
    pairs over range(1000), then 300 single-row updates."""
    rng = random.Random(31)
    from repro.db.instance import AnnotatedDatabase

    db = AnnotatedDatabase()
    for relation, count in (("R", 1000), ("S", 1100)):
        rows = set()
        while len(rows) < count:
            rows.add((rng.randrange(1000), rng.randrange(1000)))
        for row in sorted(rows):
            db.add(relation, row)
    state = ServerState(
        db,
        program=parse_program(
            "V(x, z) :- R(x, y), S(y, z)\nC(x, count(*)) :- R(x, y)\n"
        ),
        data_dir=data_dir,
    )
    present = {name: sorted(db.rows(name)) for name in ("R", "S")}
    for serial in range(300):
        relation = rng.choice(["R", "S"])
        rows = present[relation]
        if serial % 4 == 3:
            state.apply_update({"delete": {relation: [list(rows.pop())]}})
        else:
            row = (rng.randrange(1000), rng.randrange(1000))
            if row in rows:
                continue
            rows.insert(0, row)
            entry = {"row": list(row), "annotation": "u{}".format(serial)}
            state.apply_update({"insert": {relation: [entry]}})
        if serial % 3 == 0:
            state.read_view("V")
    return state


def test_snapshot_transient_heap_is_within_twice_the_file(tmp_path):
    with serving_scale_state(str(tmp_path)) as state:
        intern_state = state.session.intern_table.export_state()
        store = state.store
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            version = store.snapshot(
                state.registry.serving_db, state.registry, intern_state
            )
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        path = dict(store.snapshot_files())[version]
        size = os.path.getsize(path)
        assert size > 200_000  # the scale this bound is about
        assert peak <= 2 * size, (peak, size)
