"""The metric names of the ledger, and the span → layer reduction.

End-to-end metrics are generic: every one is measured on every
workload, and what differs per workload is what an op is.  Per-layer
metrics are named after the program's modules.  A traced run of any
workload reports all of them; a layer the workload never enters reports
0 (no call was made, no time was spent) — see the README for which
workload exercises which layer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: name, unit, better, regression bound (share of the parent's median).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: name, unit, better.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("query.parse_ms", "ms", "lower"),
    ("engine.plan_ms", "ms", "lower"),
    ("engine.plan_cache.hit_ratio", "ratio", "higher"),
    ("engine.hashjoin.dense_ms", "ms", "lower"),
    ("engine.hashjoin.chain_ms", "ms", "lower"),
    ("engine.hashjoin.cold_ms", "ms", "lower"),
    ("engine.hashjoin.dense10k_ms", "ms", "lower"),
    ("algebra.intern.monomials", "count", "lower"),
    ("algebra.intern.products", "count", "lower"),
    ("db.sharding.partition_ms", "ms", "lower"),
    ("db.sharding.payload_bytes", "bytes", "lower"),
    ("db.sharding.replicated_row_ratio", "ratio", "lower"),
    ("engine.sharded.refresh_ms", "ms", "lower"),
    ("engine.sharded.join_ms", "ms", "lower"),
    ("engine.sharded.merge_ms", "ms", "lower"),
    ("engine.sharded.pool_spawn_ms", "ms", "lower"),
    ("engine.sharded.cpu_ratio", "ratio", "lower"),
    ("engine.sharded.speedup", "ratio", "higher"),
    ("engine.sharded.thread_mode_ms", "ms", "lower"),
    ("aggregate.evaluate_ms", "ms", "lower"),
    ("io.encode_ms", "ms", "lower"),
    ("io.encode_bytes", "bytes", "lower"),
    ("server.state.hit_ms", "ms", "lower"),
    ("server.cache.hit_ratio", "ratio", "higher"),
    ("server.cache.evictions", "count", "lower"),
    ("server.http.ttfb_ms", "ms", "lower"),
    ("server.http.body_gap_ms", "ms", "lower"),
    ("server.http.hit_small_ms", "ms", "lower"),
    ("server.http.hit_big_ms", "ms", "lower"),
    ("server.http.big_mb_per_s", "MB/s", "higher"),
    ("server.http.overhead_ms", "ms", "lower"),
    ("server.http.threaded.hit_small_ms", "ms", "lower"),
    ("server.http.threaded.hit_big_ms", "ms", "lower"),
    ("server.http.async_over_threaded", "ratio", "lower"),
    ("server.update.ack_ms", "ms", "lower"),
    ("changefeed.lag_ms", "ms", "lower"),
    ("changefeed.ack_minus_event_ms", "ms", "lower"),
    ("server.batch_miss_ms", "ms", "lower"),
    ("server.batch_hit_ms", "ms", "lower"),
    ("server.view_read_ms", "ms", "lower"),
    ("server.cpu_ms_per_request", "ms", "lower"),
    ("incremental.apply_ms", "ms", "lower"),
    ("incremental.apply_over_recompute", "ratio", "lower"),
    ("durability.log_update_ms", "ms", "lower"),
    ("durability.wal_bytes_per_update", "bytes", "lower"),
    ("durability.snapshot_ms", "ms", "lower"),
    ("durability.snapshot_bytes_per_fact", "bytes", "lower"),
    ("durability.recover_ms", "ms", "lower"),
    ("durability.recover_over_cold_boot", "ratio", "lower"),
    ("subscriptions.publish_1_ms", "ms", "lower"),
    ("subscriptions.publish_64_ms", "ms", "lower"),
    ("minimize.minprov_ms", "ms", "lower"),
    ("minimize.canonical_cases", "count", "lower"),
    ("minimize.adjuncts_out", "count", "lower"),
    ("minimize.standard_ms", "ms", "lower"),
    ("hom.equivalence_ms", "ms", "lower"),
    ("order.prove_le_p_ms", "ms", "lower"),
    ("direct.core_table_ms", "ms", "lower"),
    ("direct.over_rewrite", "ratio", "lower"),
    ("obs.tracing_on_ratio", "ratio", "lower"),
    ("ledger.check_ms", "ms", "lower"),
    ("ledger.span_overhead_ratio", "ratio", "lower"),
    ("ledger.unaccounted_ratio", "ratio", "lower"),
]

#: Layer metric ← the span names whose median duration it is.
_MEDIAN_OF = {
    "engine.hashjoin.dense_ms": "engine.hashjoin.dense",
    "engine.hashjoin.chain_ms": "engine.hashjoin.chain",
    "server.http.hit_small_ms": "server.http.hit_small",
    "server.http.hit_big_ms": "server.http.hit_big",
    "server.update.ack_ms": "server.update.ack",
    "changefeed.lag_ms": "changefeed.lag",
    "server.batch_miss_ms": "server.batch_miss",
    "server.batch_hit_ms": "server.batch_hit",
    "server.view_read_ms": "server.view_read",
}

#: Layer metric ← (prefix, suffix) patterns of the span names summed
#: into busy ms per op.  Program stages harvested from
#: ``repro.tracing()`` are named ``<calling span>/<stage>``.
_PER_OP = {
    "query.parse_ms": [("query.parse", "")],
    "engine.plan_ms": [("engine.", "/plan")],
    "engine.sharded.refresh_ms": [("engine.sharded.", "/shard.refresh")],
    "engine.sharded.join_ms": [("engine.sharded.", "/join")],
    "engine.sharded.merge_ms": [("engine.sharded.", "/shard.merge"), ("engine.sharded.", "/merge")],
    "minimize.minprov_ms": [("minimize.minprov", "")],
    "hom.equivalence_ms": [("hom.equivalence", "")],
    "direct.core_table_ms": [("direct.core_table", "")],
    "ledger.check_ms": [("ledger.check", "")],
}

#: Responses with a small body: where a header/body split write meets
#: the client's delayed ACK, the whole stall sits in ``body_gap``.
_SMALL_BODY = ("server.http.hit_small", "server.update.ack", "server.batch_hit")


def from_spans(table: Dict[str, Dict[str, float]], ops: int) -> Dict[str, float]:
    """Reduce a recorder's span table to the layer metrics it carries."""
    out: Dict[str, float] = {}
    for metric, span in _MEDIAN_OF.items():
        if span in table:
            out[metric] = table[span]["median_ms"]
    for metric, patterns in _PER_OP.items():
        busy = sum(
            row["busy_ms"]
            for name, row in table.items()
            if any(name.startswith(head) and name.endswith(tail) for head, tail in patterns)
        )
        if busy:
            out[metric] = busy / max(1, ops)
    for part in ("ttfb", "body_gap"):
        rows = [table[s + "/" + part] for s in _SMALL_BODY if s + "/" + part in table]
        calls = sum(row["count"] for row in rows)
        if calls:
            out["server.http.{}_ms".format(part)] = sum(row["busy_ms"] for row in rows) / calls
    if "op" in table and table["op"]["busy_ms"]:
        out["ledger.unaccounted_ratio"] = table["op"]["self_ms"] / table["op"]["busy_ms"]
    return out


def complete(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, in declaration order; 0 where the
    workload made no call into the layer."""
    unknown = set(values) - {name for name, _unit, _better in PER_LAYER}
    if unknown:
        raise KeyError("undeclared layer metrics: {}".format(sorted(unknown)))
    return {name: float(values.get(name, 0.0)) for name, _unit, _better in PER_LAYER}
