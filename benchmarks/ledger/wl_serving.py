"""The three serving workloads: serve-hit, serve-write, serve-churn.

The system under test is a ``python -m repro.cli serve`` subprocess
(the CLI's default tier, async); this process is only its client and
its oracle.  The oracle is an in-process ``ServerState`` — the same
public object the server wraps — fed the same inputs: every response
byte and every changefeed frame is compared with what it produces, and
the write workloads finish by auditing the oracle's maintained views
against full re-evaluation.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import (
    AnnotatedDatabase,
    DurableStore,
    ServerState,
    check_consistency,
    evaluate,
    evaluate_aggregate,
    evaluate_program,
    parse_program,
    parse_query,
)
from repro.db.generators import random_database
from repro.io import delta_to_dict, deltas_from_payload
from repro.server.app import canonical_json, encode_results
from repro.server.subscriptions import SubscriptionHub

import core
import httpclient
import proctree
import servers


def _query_body(text: str) -> bytes:
    return json.dumps({"query": text}).encode("utf-8")


class _ServeWorkload(core.Workload):
    """Server lifecycle shared by the three workloads."""

    program_text = None
    #: Whether this client ACKs at once (``TCP_QUICKACK``) or, like any
    #: stock client, leaves the kernel's delayed ACK alone; the latter
    #: is what makes a workload stall.
    quickack = False
    stalls = True

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.server = None
        self.connection = None
        self.boots = 0
        #: Traced window: ms each update's ack arrived after its event.
        self.ack_minus_event_ms: List[float] = []

    def root_pid(self) -> int:
        return self.server.pid

    def back_to_back(self, on: bool) -> None:
        """ACK at once, and share one core with the server.  On two
        cores every wake-up between client and server is an IPI through
        the hypervisor, charged to whoever sends it: serve-hit's page
        then costs the server 1.8–2.0 ms, or 1.5 ms whenever the
        scheduler happens to co-locate the two for a run.  Pinned
        together it is 1.47–1.53 ms every time.  Only CPU is read in
        this phase, so the lost overlap costs no metric anything."""
        self.connection.quickack = on or self.quickack
        if on:
            self._cpus = os.sched_getaffinity(0)
        both = [self.server.pid, os.getpid()]
        proctree.pin(both, {max(self._cpus)} if on else self._cpus)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write_inputs(self, db) -> None:
        self.facts = servers.write_data_file(self._path("data.json"), db)
        if self.program_text is not None:
            with open(self._path("program.dl"), "w") as handle:
                handle.write(self.program_text)

    def _boot(self, data_dir=None, server_mode=None) -> servers.Server:
        self.boots += 1
        return servers.start(
            core.SRC_DIR,
            self._path("data.json"),
            self._path("server-{}.log".format(self.boots)),
            program_path=self._path("program.dl") if self.program_text else None,
            data_dir=data_dir,
            server_mode=server_mode,
        )

    def _note(self, rec, name: str, response: httpclient.Response) -> None:
        """Record one response as a span with its wire split below it."""
        if not rec.enabled:
            return
        index = rec.add(name, response.sent_ns, response.last_ns)
        rec.add(name + "/ttfb", response.sent_ns, response.first_ns, index)
        rec.add(name + "/body_gap", response.first_ns, response.last_ns, index)

    def _mark_cache(self) -> None:
        """Remember the result cache's counters as set-up leaves them."""
        self.cache_before = self.server.stats(self.connection)["cache"]

    def _cache_probe(self) -> Dict[str, float]:
        """Hit ratio and evictions since :meth:`_mark_cache`."""
        cache = self.server.stats(self.connection)["cache"]
        hits = cache["hits"] - self.cache_before["hits"]
        misses = cache["misses"] - self.cache_before["misses"]
        return {
            "server.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "server.cache.evictions": cache["evictions"] - self.cache_before["evictions"],
        }

    def teardown(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.server is not None:
            self.server.stop()
            self.server = None


# ----------------------------------------------------------------------
# serve-hit
# ----------------------------------------------------------------------
BIG = "ans(x, z) :- R(x, y), S(y, z)"

#: 3 000 facts over range(80): the join's response is 1.6 MB, past the
#: async tier's 1 MiB streaming threshold, and its cold miss costs
#: ~0.5 s, which keeps three set-ups per run affordable.
HIT_SHAPE = ({"R": 2, "S": 2}, 80, 3000)


class ServeHit(_ServeWorkload):
    name = "serve-hit"
    why = (
        "warm cache hits over one keep-alive connection, small bodies "
        "and one over the 1 MiB streaming threshold: the engine idles; "
        "request parse, routing, cache lookup and socket writes are all "
        "the work"
    )

    def build(self) -> None:
        relations, domain, facts = HIT_SHAPE
        self.db = random_database(relations, range(domain), facts, self.seed)
        self._write_inputs(self.db)
        rng = random.Random(self.seed)
        r_rows = sorted(row for row, _annotation in self.db.facts("R"))
        s_rows = sorted(row for row, _annotation in self.db.facts("S"))
        anchor = rng.choice(r_rows)
        partner = rng.choice([row for row in s_rows if row[0] == anchor[1]] or s_rows)
        self.small = [
            "ans(y) :- R({}, y)".format(rng.choice(r_rows)[0]),
            "ans(x) :- S(x, {})".format(rng.choice(s_rows)[1]),
            "ans(y) :- R({}, y), S(y, {})".format(anchor[0], partner[1]),
        ]
        self.bodies = [_query_body(text) for text in self.small + [BIG]]
        self.turn = 0

    def oracle(self) -> None:
        with ServerState(self.db) as state:
            self.expected = [state.run_query(text) for text in self.small + [BIG]]
        if any(json.loads(body)["results"] == [] for body in self.expected):
            raise RuntimeError("serve-hit: an oracle answer is empty")

    def corrupt_oracle(self) -> None:
        self.expected[-1] = self.expected[-1][:-2] + b" \n"

    def setup(self) -> float:
        started = perf_counter()
        self.server = self._boot()
        self.connection = self.server.connect(self.quickack)
        self.server.assert_loaded(self.connection, self.facts)
        # One pass over every query first, so the timed pages only hit.
        for body, expected in zip(self.bodies, self.expected):
            if self.connection.post("/v1/query", body).body != expected and self.checked:
                raise RuntimeError("serve-hit: a cold answer differs from the oracle")
        self.warm_up()
        elapsed = perf_counter() - started
        self._mark_cache()
        return elapsed

    def op(self, rec) -> bool:
        """One page: a selective query (three take turns) then the join.

        The small response is read under the kernel's default delayed
        ACK, like any stock client: at this commit every one of them
        stalls ~42 ms between headers and body, and that belongs in the
        op.  The streamed join is read with ``TCP_QUICKACK`` re-armed:
        under default ACKs its last partial segment stalls the same
        way, but only on a random 26–74 % of responses (in bursts),
        which would make ``op_p50_ms`` flip between 47 and 88 ms from
        run to run; the traced probe still reads it both ways.
        """
        turn = self.turn
        self.turn = (turn + 1) % len(self.small)
        small = self.connection.post("/v1/query", self.bodies[turn])
        big = self.connection.post("/v1/query", self.bodies[-1], quickack=True)
        self._note(rec, "server.http.hit_small", small)
        self._note(rec, "server.http.hit_big", big)
        with rec.span("ledger.check"):
            return (
                small.status == 200
                and big.status == 200
                and small.body == self.expected[turn]
                and big.body == self.expected[-1]
            )

    def _page_medians(self, connection, pages: int) -> Tuple[float, float]:
        """Median small and big round trips, both under default ACKs."""
        small_ms, big_ms = [], []
        for index in range(pages):
            small = connection.post("/v1/query", self.bodies[index % len(self.small)])
            big = connection.post("/v1/query", self.bodies[-1])
            small_ms.append((small.last_ns - small.sent_ns) / 1e6)
            big_ms.append((big.last_ns - big.sent_ns) / 1e6)
        return statistics.median(small_ms), statistics.median(big_ms)

    def probes(self, window: dict) -> Dict[str, float]:
        out = self._cache_probe()
        out["query.parse_ms"] = core.median_ms(
            lambda: [parse_query(text) for text in (self.small[0], BIG)], 50
        )
        with ServerState(self.db) as state:
            state.run_query(self.small[0])
            out["server.state.hit_ms"] = core.median_ms(
                lambda: state.run_query(self.small[0]), 200
            )
        results = evaluate(parse_query(BIG), self.db)
        out["io.encode_ms"] = core.median_ms(
            lambda: canonical_json({"version": 0, **encode_results(results)}), 3
        )
        out["io.encode_bytes"] = len(self.expected[-1])  # that very encoding
        async_small, async_big = self._page_medians(self.connection, 15)
        out["server.http.big_mb_per_s"] = len(self.expected[-1]) / 1e6 / (async_big / 1e3)
        out["server.http.overhead_ms"] = async_small - out["server.state.hit_ms"]
        # The same pages against the thread-per-connection tier
        # (ROADMAP gate: async within 2× of it on the big body).
        threaded = self._boot(server_mode="threaded")
        try:
            connection = threaded.connect()
            try:
                for body in self.bodies:
                    connection.post("/v1/query", body)
                small_ms, big_ms = self._page_medians(connection, 15)
            finally:
                connection.close()
        finally:
            threaded.stop()
        out["server.http.threaded.hit_small_ms"] = small_ms
        out["server.http.threaded.hit_big_ms"] = big_ms
        out["server.http.async_over_threaded"] = async_big / big_ms
        return out


# ----------------------------------------------------------------------
# serve-write and serve-churn
# ----------------------------------------------------------------------
PROGRAM = "V(x, z) :- R(x, y), S(y, z)\nC(x, count(*)) :- R(x, y)\n"


#: WAL records the seeded data directory carries past its snapshot, so
#: that every boot is a recovery (snapshot load + replay).
WAL_TAIL = 64


def sparse_database(seed: int, size: int) -> AnnotatedDatabase:
    """R with ``size`` seeded random pairs over ``range(size)`` and S
    with a tenth more: a sparse join, about one partner per fact, so a
    single-row update changes a handful of V rows.  S is the larger by
    a margin the history never closes (it deals R and S evenly): the
    planner starts a join from the smaller relation, and at a tie the
    side it picks, and with it the cost of a miss on serve-churn,
    would flip by seed.  (``random_database`` enumerates the full cross
    product first: 18 M rows at size 3 000.)"""
    rng = random.Random(seed)
    db = AnnotatedDatabase()
    serial = 0
    for relation, count in (("R", size), ("S", size + size // 10)):
        db.declare_relation(relation, 2)
        rows = set()
        while len(rows) < count:
            rows.add((rng.randrange(size), rng.randrange(size)))
        for row in sorted(rows):
            serial += 1
            db.add(relation, row, annotation="s{}".format(serial))
    return db


#: One deck of the update stream: 70/15/15 insert/delete/retag, each
#: kind half on R and half on S.  The stream deals seeded shuffles of
#: this deck instead of drawing every batch independently, because the
#: kinds cost very different amounts (an insert into S is 13 ms of
#: server CPU, one into R 2 ms) and independent draws put 30–40 % of S
#: inserts into a window of 250: ±9 % on ``cpu_ms_per_op`` by seed alone.
_DECK = [
    (kind, relation)
    for kind, count in (("insert", 14), ("delete", 3), ("retag", 3))
    for relation in ("R", "S")
    for _ in range(count)
]


class History:
    """A seeded 70/15/15 insert/delete/retag stream of single-row
    batches, every one of which changes ``V(x,z) :- R(x,y), S(y,z)``.

    It keeps its own model of R and S (never the program's), and only
    touches facts that have a join partner: an R fact (x, y) matters to
    V iff some S fact starts at y, and the other way round.
    """

    def __init__(self, db: AnnotatedDatabase, seed: int, domain: int):
        self._rng = random.Random(seed * 7919 + 1)
        self._domain = domain
        self._rows = {
            name: [row for row, _annotation in db.facts(name)] for name in ("R", "S")
        }
        self._present = {name: set(rows) for name, rows in self._rows.items()}
        self._r_by_y: Dict[int, int] = {}
        self._s_by_y: Dict[int, int] = {}
        for _x, y in self._rows["R"]:
            self._r_by_y[y] = self._r_by_y.get(y, 0) + 1
        for y, _z in self._rows["S"]:
            self._s_by_y[y] = self._s_by_y.get(y, 0) + 1
        self._serial = 0
        self._deck: List[Tuple[str, str]] = []
        self.batches: List[dict] = []

    def _joins(self, relation: str, row) -> bool:
        if relation == "R":
            return self._s_by_y.get(row[1], 0) > 0
        return self._r_by_y.get(row[0], 0) > 0

    def _count(self, relation: str, row, step: int) -> None:
        index, key = (self._r_by_y, row[1]) if relation == "R" else (self._s_by_y, row[0])
        index[key] = index.get(key, 0) + step

    def _existing(self, relation: str):
        rows = self._rows[relation]
        while True:
            position = self._rng.randrange(len(rows))
            row = rows[position]
            if self._joins(relation, row):
                return position, row

    def _next(self) -> dict:
        rng = self._rng
        if not self._deck:
            self._deck = list(_DECK)
            rng.shuffle(self._deck)
        kind, relation = self._deck.pop()
        self._serial += 1
        annotation = "u{}".format(self._serial)
        if kind == "insert":
            while True:
                _position, partner = self._existing("S" if relation == "R" else "R")
                fresh = rng.randrange(self._domain)
                row = (fresh, partner[0]) if relation == "R" else (partner[1], fresh)
                if row not in self._present[relation]:
                    break
            self._rows[relation].append(row)
            self._present[relation].add(row)
            self._count(relation, row, +1)
            return {"insert": {relation: [{"row": list(row), "annotation": annotation}]}}
        position, row = self._existing(relation)
        if kind == "delete":
            rows = self._rows[relation]
            rows[position] = rows[-1]
            rows.pop()
            self._present[relation].discard(row)
            self._count(relation, row, -1)
            return {"delete": {relation: [list(row)]}}
        return {"retag": {relation: [{"row": list(row), "annotation": annotation}]}}

    def batch(self, index: int) -> dict:
        """The ``index``-th batch of the stream (generated on demand)."""
        while len(self.batches) <= index:
            self.batches.append(self._next())
        return self.batches[index]


class _Expected(NamedTuple):
    """One update's request body and what the oracle says it must
    produce (``batch`` and ``view`` on serve-churn only)."""

    body: bytes
    ack: bytes
    version: int
    frame: bytes
    batch: Optional[bytes] = None
    view: Optional[bytes] = None


class ServeWrite(_ServeWorkload):
    name = "serve-write"
    why = (
        "single-row updates on a recovered, durable, view-maintaining server "
        "with one changefeed subscriber: WAL append + fsync, registry.apply, "
        "hub.publish and the SSE write are the op; engine and cache idle"
    )
    program_text = PROGRAM
    #: 3 000 facts per relation over range(3000).
    size = 3000

    def _database(self) -> AnnotatedDatabase:
        return sparse_database(self.seed, self.size)

    def build(self) -> None:
        self.db = self._database()
        self._write_inputs(self.db)
        self.program = parse_program(PROGRAM)
        self.history = History(self.db, self.seed, self.size)
        # The data directory every boot recovers from: a snapshot of the
        # loaded state and a WAL tail of the first 64 history batches.
        self.seed_dir = self._path("seed-data-dir")
        with ServerState(self._database(), self.program, data_dir=self.seed_dir) as state:
            for index in range(WAL_TAIL):
                state.apply_update(self.history.batch(index))
        self.stream = None
        self.log: List[_Expected] = []
        self.position = 0

    def oracle(self) -> None:
        self.shadow = ServerState(self._database(), self.program)
        for index in range(WAL_TAIL):
            self.shadow.apply_update(self.history.batch(index))
        self.shadow_subscribed = self.shadow.subscribe({"view": "V"})
        self.shadow_feed = self.shadow.hub.get(
            json.loads(self.shadow_subscribed)["subscription"]
        )
        self.corrupted = False

    def corrupt_oracle(self) -> None:
        self.corrupted = True

    def _expect(self, index: int) -> _Expected:
        """Advance the oracle to history position ``index`` (memoized:
        every set-up replays the same first ops against a fresh boot)."""
        while len(self.log) <= index:
            payload = self.history.batch(WAL_TAIL + len(self.log))
            cursor = self.shadow.registry.db_version()
            ack = self.shadow.apply_update(payload)
            events = self.shadow.changefeed_events(self.shadow_feed, cursor)
            if len(events) != 1:
                raise RuntimeError(
                    "history batch {} did not change V exactly once".format(len(self.log))
                )
            if self.corrupted:
                ack = ack[:-2] + b" \n"
            self.log.append(self._expected(payload, ack, events[0]))
        return self.log[index]

    def _expected(self, payload, ack, event) -> _Expected:
        return _Expected(canonical_json(payload), ack, event.cursor, event.sse())

    def prepare(self) -> None:
        self.pending = self._expect(self.position)

    def setup(self) -> float:
        data_dir = self._path("data-dir-{}".format(self.boots + 1))
        shutil.copytree(self.seed_dir, data_dir)
        self.data_dir = data_dir
        self.position = 0
        started = perf_counter()
        self.server = self._boot(data_dir=data_dir)
        if self.server.replayed != WAL_TAIL:
            raise RuntimeError(
                "boot replayed {} WAL records, expected {}".format(
                    self.server.replayed, WAL_TAIL
                )
            )
        self.connection = self.server.connect(self.quickack)
        self.server.assert_loaded(self.connection, self.facts)
        subscribed = self.connection.post("/v1/subscribe", b'{"view":"V"}')
        if subscribed.body != self.shadow_subscribed:
            raise RuntimeError("serve: the subscription snapshot differs from the oracle")
        answer = json.loads(subscribed.body)
        self.stream = httpclient.EventStream(
            self.server.host, self.server.port, answer["subscription"], answer["cursor"]
        )
        self.warm_up()
        return perf_counter() - started

    def _update(self, rec):
        """POST the pending batch; returns (ack ok, frame ok)."""
        expected = self.pending
        response = self.connection.post("/v1/update", expected.body)
        frame, arrived = self.stream.wait_for(expected.version)
        self._note(rec, "server.update.ack", response)
        if rec.enabled:
            rec.add("changefeed.lag", response.sent_ns, arrived, -1)
            self.ack_minus_event_ms.append((response.last_ns - arrived) / 1e6)
        return response.status == 200 and response.body == expected.ack, frame == expected.frame

    def op(self, rec) -> bool:
        ack_ok, frame_ok = self._update(rec)
        self.position += 1
        return ack_ok and frame_ok

    def final_check(self) -> bool:
        """The server's V equals the oracle's, and the oracle's views
        equal full re-evaluation over its base facts."""
        served = self.connection.get("/v1/views/V").body
        return (
            served == self.shadow.read_view("V")
            and check_consistency(self.shadow.registry).consistent
        )

    def teardown(self) -> None:
        if self.stream is not None:
            self.stream.close()
            self.stream = None
        super().teardown()

    def _wire_probe(self) -> Dict[str, float]:
        return {
            "changefeed.ack_minus_event_ms": statistics.median(self.ack_minus_event_ms)
        }

    def probes(self, window: dict) -> Dict[str, float]:
        out = self._wire_probe()
        # Bytes the server's own WAL grew by, per update it accepted
        # since boot (exact: one framed record per single-row batch).
        wal_bytes = sum(
            os.path.getsize(os.path.join(self.data_dir, name))
            - os.path.getsize(os.path.join(self.seed_dir, name))
            for name in os.listdir(self.data_dir)
            if name.endswith(".rpwl") and os.path.exists(os.path.join(self.seed_dir, name))
        )
        out["durability.wal_bytes_per_update"] = wal_bytes / self.position
        out.update(self._layer_probes())
        return out

    def _layer_probes(self) -> Dict[str, float]:
        """The write path's layers, one by one, in this process on the
        workload's own data: what the server does inside one update."""
        out: Dict[str, float] = {}
        deltas = [
            deltas_from_payload(self.history.batch(WAL_TAIL + index))[0]
            for index in range(min(40, len(self.log)))
        ]
        # durability: recovery of the seeded directory against the cold
        # path it replaces (load, materialize, replay the same batches).
        scratch = self._path("probe-data-dir")
        shutil.copytree(self.seed_dir, scratch)
        store = DurableStore(scratch)
        try:
            started = perf_counter()
            recovered = store.recover(program=self.program)
            out["durability.recover_ms"] = (perf_counter() - started) * 1e3
            registry = recovered.registry
            reports = []
            registry.add_observer(lambda _version, report: reports.append(report))
            log_ms, apply_ms = [], []
            for delta in deltas:
                started = perf_counter()
                store.log_update(delta_to_dict(delta))
                middle = perf_counter()
                registry.apply(delta)
                log_ms.append((middle - started) * 1e3)
                apply_ms.append((perf_counter() - middle) * 1e3)
            out["durability.log_update_ms"] = statistics.median(log_ms)
            out["incremental.apply_ms"] = statistics.median(apply_ms)
            started = perf_counter()
            store.snapshot(registry.serving_db, registry)
            out["durability.snapshot_ms"] = (perf_counter() - started) * 1e3
            newest = max(name for name in os.listdir(scratch) if name.endswith(".rpsn"))
            base = registry.base_database()
            out["durability.snapshot_bytes_per_fact"] = (
                os.path.getsize(os.path.join(scratch, newest)) / base.fact_count()
            )
            started = perf_counter()
            evaluate_program(self.program, base)
            recompute_ms = (perf_counter() - started) * 1e3
            out["incremental.apply_over_recompute"] = out["incremental.apply_ms"] / recompute_ms
            registry.close()
        finally:
            store.close()
            shutil.rmtree(scratch)
        started = perf_counter()
        with ServerState(self._database(), self.program) as cold:
            for index in range(WAL_TAIL):
                cold.apply_update(self.history.batch(index))
        cold_ms = (perf_counter() - started) * 1e3
        out["durability.recover_over_cold_boot"] = out["durability.recover_ms"] / cold_ms
        # subscriptions: fan-out of the captured reports to 1 and to 64
        # subscribers (encode once, append to every ring).
        for fanout in (1, 64):
            hub = SubscriptionHub()
            for _ in range(fanout):
                hub.subscribe("V", False, 0)
            versions = iter(range(1, 10_000))
            out["subscriptions.publish_{}_ms".format(fanout)] = core.median_ms(
                lambda: [hub.publish(next(versions), report) for report in reports], 5
            ) / len(reports)
            hub.close()
        return out


#: The two ad-hoc queries of a churn batch.  Both are selective: their
#: cached payloads must stay small, because the result cache keeps the
#: entries of dead versions until its LRU evicts them, and a 500-group
#: payload per op grows the server's heap by ~10 k objects an op and its
#: full collections from 20 ms to 180 ms inside one window.  One is
#: anchored on R, the other on S: the planner starts from the smaller
#: relation whichever side the constant is on (a miss costs 6 ms one
#: way, 9 ms the other), and which relation is smaller after the
#: history's inserts depends on the seed; anchored on both sides, the
#: pair costs the same either way.
SELECTIVE = "ans(z) :- R({}, y), S(y, z)"
AGGREGATE = "agg(x, count(*)) :- R(x, y), S(y, {})"


class ServeChurn(ServeWrite):
    name = "serve-churn"
    why = (
        "update, then the same two-query batch twice (both miss: the "
        "version moved; then both hit), then a view read: the one place "
        "cache, registry and session lock serve writes and reads in turn"
    )
    #: A third of serve-write's data: the op is four requests, and the
    #: view read costs in proportion to the data.
    size = 1000
    #: This client ACKs at once.  Under default delayed ACKs the update
    #: ack stalls ~42 ms on a random tenth of the ops here (the larger
    #: responses in between keep knocking the connection out of
    #: ping-pong mode); serve-hit and serve-write carry the stall where
    #: it is steady, this workload is about what the server computes.
    quickack = True
    stalls = False

    def build(self) -> None:
        super().build()
        rng = random.Random(self.seed + 1)
        r_rows = sorted(row for row, _annotation in self.db.facts("R"))
        s_rows = sorted(row for row, _annotation in self.db.facts("S"))
        starts = {row[0] for row in s_rows}
        ends = {row[1] for row in r_rows}
        self.texts = [
            SELECTIVE.format(rng.choice([x for x, y in r_rows if y in starts])),
            AGGREGATE.format(rng.choice([z for y, z in s_rows if y in ends])),
        ]
        self.batch_body = json.dumps({"queries": self.texts}).encode("utf-8")

    def _expected(self, payload, ack, event) -> _Expected:
        batch = self.shadow.run_queries(self.texts)
        if self.corrupted:
            batch = batch[:-2] + b" \n"
        return _Expected(
            canonical_json(payload), ack, event.cursor, event.sse(),
            batch, self.shadow.read_view("V"),
        )

    def op(self, rec) -> bool:
        expected = self.pending
        ack_ok, frame_ok = self._update(rec)
        self.position += 1
        miss = self.connection.post("/v1/batch", self.batch_body)
        hit = self.connection.post("/v1/batch", self.batch_body)
        view = self.connection.get("/v1/views/V")
        self._note(rec, "server.batch_miss", miss)
        self._note(rec, "server.batch_hit", hit)
        self._note(rec, "server.view_read", view)
        with rec.span("ledger.check"):
            return (
                ack_ok
                and frame_ok
                and miss.body == expected.batch
                and hit.body == expected.batch
                and view.body == expected.view
            )

    def setup(self) -> float:
        elapsed = super().setup()
        self._mark_cache()
        return elapsed

    def probes(self, window: dict) -> Dict[str, float]:
        out = self._cache_probe()
        out.update(self._wire_probe())
        base = self.shadow.registry.serving_db
        aggregate = parse_query(self.texts[1])
        out["aggregate.evaluate_ms"] = core.median_ms(
            lambda: evaluate_aggregate(aggregate, base), 5
        )
        results = evaluate_aggregate(aggregate, base)

        def encode() -> bytes:
            return canonical_json({"version": 0, **encode_results(results, True)})

        out["io.encode_ms"] = core.median_ms(encode, 5)
        out["io.encode_bytes"] = len(encode())
        out["query.parse_ms"] = core.median_ms(
            lambda: [parse_query(text) for text in self.texts], 50
        )
        # Four requests an op: update, two batches, view read.
        out["server.cpu_ms_per_request"] = window["cpu_ms_per_op"] / 4
        return out
