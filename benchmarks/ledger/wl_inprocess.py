"""The three in-process workloads: join-serial, join-sharded, minimize.

The system under test is this process (plus pool workers for
join-sharded).  Oracles run in a spawned child so the measured process
never executes anything but the op itself.
"""

from __future__ import annotations

import os
import statistics
import time
from time import perf_counter
from typing import Dict, List

from repro import (
    EngineConfig,
    QuerySession,
    ShardedDatabase,
    as_union,
    core_provenance_table,
    evaluate,
    evaluate_hashjoin,
    is_equivalent,
    min_prov,
    minimize_query,
    parse_query,
    possible_completions,
    prove_le_p,
    query_to_str,
    tracing,
)
from repro.algebra.intern import shared_intern
from repro.db.generators import random_database
from repro.db.sharding import encode_payload
from repro.engine import default_plan_cache
from repro.io import results_from_list, results_to_list
from repro.paperdata.constructions import theorem_4_10_query

import core
import proctree
import spans

DENSE = "ans(x, z) :- R(x, y), S(y, z)"
CHAIN = "ans(x, w) :- R(x, y), S(y, z), T(z, w), x != w"

#: Sized for ≥ 100 ops in a 10 s window on a 2-core 2.1 GHz host, and a
#: backtracking oracle (Def. 2.12, sum over assignments) under 1.5 s.
DENSE_SHAPE = ({"R": 2, "S": 2}, 60, 1200)
CHAIN_SHAPE = ({"R": 2, "S": 2, "T": 2}, 40, 600)

SERIAL = EngineConfig(engine="hashjoin")
#: shards = workers = 2, fixed: never more workers than the 2 cores
#: this suite is sized for, whatever ``nproc`` says.
SHARDED = EngineConfig(
    engine="sharded", shards=2, workers=2, mode="process", broadcast_threshold=0
)


def join_inputs(seed: int):
    """The two seeded databases of the join workloads."""
    dense = random_database(DENSE_SHAPE[0], range(DENSE_SHAPE[1]), DENSE_SHAPE[2], seed)
    chain = random_database(CHAIN_SHAPE[0], range(CHAIN_SHAPE[1]), CHAIN_SHAPE[2], seed)
    return dense, chain


def join_oracle(seed: int) -> List[list]:
    """Both answers by the backtracking engine (runs in a child).

    Results cross the process boundary in the ``repro.io`` list codec,
    not pickled: a pickled monomial carries the hash its strings had in
    the child, and under hash randomization it then equals nothing the
    parent computes.
    """
    dense, chain = join_inputs(seed)
    config = EngineConfig(engine="backtrack")
    return [
        results_to_list(evaluate(parse_query(DENSE), dense, config)),
        results_to_list(evaluate(parse_query(CHAIN), chain, config)),
    ]


class _JoinWorkload(core.Workload):
    in_process = True

    def build(self) -> None:
        self.dense, self.chain = join_inputs(self.seed)
        self.expected = None
        self.sessions: List[QuerySession] = []

    def oracle(self) -> None:
        self.expected = [
            results_from_list(table)
            for table in core.run_in_child(join_oracle, self.seed)
        ]
        if not (self.expected[0] and self.expected[1]):
            raise RuntimeError("{}: an oracle answer is empty".format(self.name))

    def corrupt_oracle(self) -> None:
        victim = next(iter(self.expected[0]))
        del self.expected[0][victim]

    def _check(self, rec, dense_result, chain_result) -> bool:
        if self.expected is None:
            return bool(dense_result) and bool(chain_result)
        with rec.span("ledger.check"):
            return dense_result == self.expected[0] and chain_result == self.expected[1]


class JoinSerial(_JoinWorkload):
    name = "join-serial"
    why = (
        "parse, plan, hashjoin and decode are all the work; no pool, no "
        "server: where a columnar join must show and sharding must not"
    )

    def setup(self) -> float:
        started = perf_counter()
        self.layer["engine.hashjoin.cold_ms"] = self.warm_up()
        return perf_counter() - started

    def op(self, rec) -> bool:
        with rec.span("query.parse"):
            dense_query = parse_query(DENSE)
            chain_query = parse_query(CHAIN)
        dense_result = core.traced_call(
            rec, "engine.hashjoin.dense", evaluate, dense_query, self.dense, SERIAL
        )
        chain_result = core.traced_call(
            rec, "engine.hashjoin.chain", evaluate, chain_query, self.chain, SERIAL
        )
        return self._check(rec, dense_result, chain_result)

    def probes(self, window: dict) -> Dict[str, float]:
        out: Dict[str, float] = {}
        stats = default_plan_cache().stats()
        lookups = stats["hits"] + stats["misses"]
        out["engine.plan_cache.hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
        sizes = shared_intern().sizes()
        out["algebra.intern.monomials"] = sizes["monomials"]
        out["algebra.intern.products"] = sizes["products"]
        dense_query = parse_query(DENSE)
        # The op under the program's own tracer against the plain op,
        # interleaved so drift hits both sides alike (PR 6 budget: 1.01).
        plain, traced = [], []
        for _ in range(10):
            started = perf_counter()
            self.op(spans.NULL)
            plain.append(perf_counter() - started)
            started = perf_counter()
            with tracing("op"):
                self.op(spans.NULL)
            traced.append(perf_counter() - started)
        out["obs.tracing_on_ratio"] = statistics.median(traced) / statistics.median(plain)
        # The ROADMAP's reference join (10k facts over range(150)),
        # kept for continuity with its 466 ms; nothing end to end
        # depends on it.
        reference = random_database({"R": 2, "S": 2}, range(150), 10_000, self.seed)
        evaluate_hashjoin(dense_query, reference)  # plan it, intern its monomials
        out["engine.hashjoin.dense10k_ms"] = core.median_ms(
            lambda: evaluate_hashjoin(dense_query, reference), 1
        )
        return out


class JoinSharded(_JoinWorkload):
    name = "join-sharded"
    why = (
        "the same joins through db.sharding + engine.sharded + "
        "algebra.columnar on a 2-worker process pool: its ratio to "
        "join-serial isolates sharding"
    )

    def setup(self) -> float:
        self._shm_before = set(os.listdir("/dev/shm"))
        started = perf_counter()
        self.sessions = [QuerySession(self.dense, SHARDED), QuerySession(self.chain, SHARDED)]
        constructed_ms = (perf_counter() - started) * 1e3
        # Pools start lazily: the first op pays for the worker spawn.
        self.layer["engine.sharded.pool_spawn_ms"] = constructed_ms + self.warm_up()
        return perf_counter() - started

    def _evaluate(self, session, query):
        session.refresh()
        return session.evaluate(query)

    def op(self, rec) -> bool:
        with rec.span("query.parse"):
            dense_query = parse_query(DENSE)
            chain_query = parse_query(CHAIN)
        dense_result = core.traced_call(
            rec, "engine.sharded.dense", self._evaluate, self.sessions[0], dense_query
        )
        chain_result = core.traced_call(
            rec, "engine.sharded.chain", self._evaluate, self.sessions[1], chain_query
        )
        return self._check(rec, dense_result, chain_result)

    def teardown(self) -> None:
        for session in self.sessions:
            session.close()
        deadline = time.monotonic() + 10
        while True:
            workers = [
                pid
                for pid in proctree.tree(os.getpid())
                if pid != os.getpid()
                and "resource_tracker" not in proctree.command_line(pid)
                and proctree.command_line(pid)
            ]
            if not workers:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("join-sharded: orphan pool workers {}".format(workers))
            time.sleep(0.05)
        leaked = set(os.listdir("/dev/shm")) - self._shm_before
        if leaked:
            raise RuntimeError("join-sharded: leaked shm segments {}".format(sorted(leaked)))

    def probes(self, window: dict) -> Dict[str, float]:
        out: Dict[str, float] = {}
        caches = [session.stats()["plan_cache"] for session in self.sessions]
        hits = sum(cache["hits"] for cache in caches)
        out["engine.plan_cache.hit_ratio"] = hits / (
            hits + sum(cache["misses"] for cache in caches)
        )
        started = perf_counter()
        sharded_db = ShardedDatabase(self.dense, 2, broadcast_threshold=0)
        out["db.sharding.partition_ms"] = (perf_counter() - started) * 1e3
        payload = sharded_db.payload()
        out["db.sharding.payload_bytes"] = len(encode_payload(payload))
        # Rows each worker is shipped, per row stored: 1.0 while every
        # shard receives the whole database and scans its own fragment
        # of the anchor relation only.
        out["db.sharding.replicated_row_ratio"] = (
            payload.fact_count() / self.dense.fact_count()
        )
        dense_query, chain_query = parse_query(DENSE), parse_query(CHAIN)

        def serial_op():
            evaluate(dense_query, self.dense, SERIAL) == self.expected[0]
            evaluate(chain_query, self.chain, SERIAL) == self.expected[1]

        repeats = 15
        pids = proctree.tree(os.getpid())
        serial_ms, sharded_ms = [], []
        cpu_serial = cpu_sharded = 0.0
        for _ in range(repeats):
            before = proctree.cpu_seconds(pids)
            started = perf_counter()
            serial_op()
            serial_ms.append((perf_counter() - started) * 1e3)
            middle = proctree.cpu_seconds(pids)
            started = perf_counter()
            self.op(spans.NULL)
            sharded_ms.append((perf_counter() - started) * 1e3)
            cpu_serial += middle - before
            cpu_sharded += proctree.cpu_seconds(pids) - middle
        out["engine.sharded.cpu_ratio"] = cpu_sharded / cpu_serial
        out["engine.sharded.speedup"] = statistics.median(serial_ms) / statistics.median(
            sharded_ms
        )
        threaded = [
            QuerySession(db, SHARDED.with_overrides(mode="thread"))
            for db in (self.dense, self.chain)
        ]
        try:
            pool, self.sessions = self.sessions, threaded
            self.op(spans.NULL)
            out["engine.sharded.thread_mode_ms"] = core.median_ms(
                lambda: self.op(spans.NULL), repeats
            )
        finally:
            self.sessions = pool
            for session in threaded:
                session.close()
        return out


# ----------------------------------------------------------------------
# minimize
# ----------------------------------------------------------------------
TWO_HOP = "ans(x, z) :- R(x, y), R(y, z)"
FOUR_CHAIN = "ans(x, u) :- R(x, y), R(y, z), R(z, w), R(w, u)"


def minimize_inputs(seed: int):
    """Thm. 4.10's Q2, a 4-chain (5 variables: Bell(5) = 52 canonical
    cases) and the seeded graph the two-hop core table is computed on:
    58 of the 144 possible edges over 12 vertices (density 0.4).  A
    fixed edge count, because ``uniform_binary_database(12, 0.4, seed)``
    draws 45–70 edges and the core table then costs 17–28 ms by seed."""
    vertices = ["v{}".format(index) for index in range(12)]
    return (
        theorem_4_10_query(2),
        parse_query(FOUR_CHAIN),
        parse_query(TWO_HOP),
        random_database({"R": 2}, vertices, 58, seed),
    )


def minimize_oracle(seed: int) -> dict:
    """Set-up results the ops must reproduce, plus the paper's claims
    checked once at full size (runs in a child)."""
    q2, chain, two_hop, graph = minimize_inputs(seed)
    q3 = theorem_4_10_query(3)
    q3_min = min_prov(q3)
    adjuncts = len(as_union(q3_min).adjuncts)
    q2_min, chain_min = min_prov(q2), min_prov(chain)
    results = evaluate(two_hop, graph)
    rewritten = evaluate(min_prov(two_hop), graph)
    return {
        # Thm. 4.10: the p-minimal equivalent of Qn has 2^Ω(n) adjuncts.
        "theorem_4_10": adjuncts >= 2 ** 3 and is_equivalent(q3_min, q3),
        "adjuncts_q3": adjuncts,
        "q2_min": query_to_str(q2_min),
        "chain_min": query_to_str(chain_min),
        "equivalent": is_equivalent(q2_min, q2) and is_equivalent(chain_min, chain),
        # Thm. 5.1: direct core == MinProv-rewrite-then-evaluate.
        "core": results_to_list(rewritten),
        "core_matches": core_provenance_table(results, graph) == rewritten,
    }


class Minimize(core.Workload):
    name = "minimize"
    why = (
        "the paper's own algorithms (minimize, hom, order, direct) on "
        "query-sized inputs: the control every engine or serving change "
        "must leave unmoved"
    )
    in_process = True

    def build(self) -> None:
        self.q2, self.chain_query, self.two_hop, self.graph = minimize_inputs(self.seed)
        self.results = evaluate(self.two_hop, self.graph)
        self.expected = None

    def oracle(self) -> None:
        self.expected = core.run_in_child(minimize_oracle, self.seed)
        for name in ("q2_min", "chain_min"):
            self.expected[name] = parse_query(self.expected[name])
        self.expected["core"] = results_from_list(self.expected["core"])
        for claim in ("theorem_4_10", "equivalent", "core_matches"):
            if not self.expected[claim]:
                raise RuntimeError("minimize: the oracle refutes {}".format(claim))
        if not self.expected["core"]:
            raise RuntimeError("minimize: the two-hop result is empty")

    def corrupt_oracle(self) -> None:
        victim = next(iter(self.expected["core"]))
        del self.expected["core"][victim]

    def setup(self) -> float:
        started = perf_counter()
        self.warm_up()
        return perf_counter() - started

    def op(self, rec) -> bool:
        with rec.span("minimize.minprov"):
            q2_min = min_prov(self.q2)
            chain_min = min_prov(self.chain_query)
        with rec.span("hom.equivalence"):
            equivalent = is_equivalent(q2_min, self.q2) and is_equivalent(
                chain_min, self.chain_query
            )
        with rec.span("direct.core_table"):
            table = core_provenance_table(self.results, self.graph)
        if self.expected is None:
            return equivalent and bool(table)
        with rec.span("ledger.check"):
            return (
                equivalent
                and q2_min == self.expected["q2_min"]
                and chain_min == self.expected["chain_min"]
                and table == self.expected["core"]
            )

    def probes(self, window: dict) -> Dict[str, float]:
        out: Dict[str, float] = {}
        out["minimize.canonical_cases"] = len(list(possible_completions(self.chain_query)))
        out["minimize.adjuncts_out"] = len(as_union(self.expected["chain_min"]).adjuncts)
        out["minimize.standard_ms"] = core.median_ms(
            lambda: minimize_query(self.chain_query), 10
        )
        out["order.prove_le_p_ms"] = core.median_ms(
            lambda: prove_le_p(self.expected["q2_min"], self.q2), 10
        )
        direct_ms = core.median_ms(lambda: core_provenance_table(self.results, self.graph), 5)
        rewrite_ms = core.median_ms(lambda: evaluate(min_prov(self.two_hop), self.graph), 5)
        out["direct.over_rewrite"] = direct_ms / rewrite_ms
        return out
