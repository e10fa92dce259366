"""The observability layer: metrics registry, tracing spans, overhead.

The load-bearing claims:

* **exposition correctness** — ``MetricsRegistry.render()`` emits valid
  Prometheus text exposition: HELP/TYPE headers, escaped labels,
  cumulative histogram buckets ending in ``+Inf``, count/sum series;
* **span trees** — a traced hashjoin evaluation records
  parse-less ``plan → join → join.step → merge`` stages with the
  attributes the trace viewer prints; sharded evaluation adds the
  fan-out stages;
* **disabled means free** — with no tracer installed every
  instrumentation point receives the same shared no-op objects, and a
  spy tracer proves the engine opens O(join steps) spans, never
  O(tuples).
"""

import json
import threading

import pytest

from repro.config import EngineConfig
from repro.db.instance import AnnotatedDatabase
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRIC,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    histogram_percentiles,
    set_default_registry,
)
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    current_tracer,
    format_trace,
    tracing,
    tree_stage_names,
)
from repro.query.parser import parse_query
from repro.session import QuerySession

JOIN = parse_query("ans(x, z) :- R(x, y), S(y, z)")
AGG = parse_query("agg(x, count(*)) :- R(x, y)")


def join_db(n=30):
    return AnnotatedDatabase.from_rows(
        {
            "R": [("a{}".format(i % 5), i) for i in range(n)],
            "S": [(i, "z{}".format(i % 3)) for i in range(n)],
        }
    )


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_series_are_independent(self):
        counter = Counter("c_total", "", ("endpoint",))
        counter.inc(endpoint="/query")
        counter.inc(3, endpoint="/batch")
        assert counter.value(endpoint="/query") == 1.0
        assert counter.value(endpoint="/batch") == 3.0
        assert counter.series() == {("/query",): 1.0, ("/batch",): 3.0}

    def test_negative_increment_rejected(self):
        counter = Counter("c_total", "")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_wrong_label_set_rejected(self):
        counter = Counter("c_total", "", ("endpoint",))
        with pytest.raises(ValueError):
            counter.inc(method="GET")
        with pytest.raises(ValueError):
            counter.inc()

    def test_thread_safety_no_lost_updates(self):
        counter = Counter("c_total", "")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 8000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g", "")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12.0

    def test_gauges_may_go_negative(self):
        gauge = Gauge("g", "")
        gauge.dec(2)
        assert gauge.value() == -2.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = Histogram("h_seconds", "", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        data = hist.snapshot()[()]
        assert data["counts"] == [1, 1, 1, 1]  # one per bucket + overflow
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(55.55)

    def test_bucket_boundary_is_inclusive(self):
        hist = Histogram("h", "", buckets=(1.0, 2.0))
        hist.observe(1.0)  # le="1.0" must include it
        assert hist.snapshot()[()]["counts"] == [1, 0, 0]

    def test_percentile_interpolates(self):
        hist = Histogram("h", "", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)
        p50 = hist.percentile(0.5)
        assert 1.0 <= p50 <= 2.0

    def test_percentile_caps_at_last_finite_bound(self):
        hist = Histogram("h", "", buckets=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.percentile(0.99) == 2.0

    def test_percentile_empty_series_is_none(self):
        hist = Histogram("h", "", buckets=(1.0,))
        assert hist.percentile(0.5) is None

    def test_percentile_ordering_is_monotone(self):
        hist = Histogram("h", "")
        for i in range(200):
            hist.observe(0.001 * (i % 50))
        p = histogram_percentiles(hist)
        assert p["p50"] <= p["p95"] <= p["p99"]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", "", buckets=(2.0, 1.0))

    def test_default_buckets_cover_micro_to_human(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 5.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "first", ("l",))
        b = registry.counter("x_total", "second", ("l",))
        assert a is b

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labelnames=("b",))

    def test_collect_is_name_ordered(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.counter("a_total")
        assert [m.name for m in registry.collect()] == ["a_total", "b_total"]

    def test_default_registry_swap(self):
        previous = set_default_registry(NULL_REGISTRY)
        try:
            assert default_registry() is NULL_REGISTRY
        finally:
            set_default_registry(previous)
        assert default_registry() is previous


class TestExposition:
    def test_counter_exposition_format(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", "Requests", ("endpoint",))
        counter.inc(endpoint="/query")
        text = registry.render()
        assert "# HELP req_total Requests\n" in text
        assert "# TYPE req_total counter\n" in text
        assert 'req_total{endpoint="/query"} 1\n' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", "", ("q",))
        counter.inc(q='say "hi"\nplease\\now')
        assert '\\"hi\\"' in registry.render()
        assert "\\n" in registry.render()

    def test_histogram_exposition_is_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "lat_seconds_sum 5.55" in text

    def test_every_sample_line_parses(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "x", ("l",)).inc(l="v")
        registry.gauge("b", "y").set(2)
        registry.histogram("c_seconds", "z").observe(0.3)
        for line in registry.render().splitlines():
            if line.startswith("#") or not line:
                continue
            name, _space, value = line.rpartition(" ")
            assert name
            float(value)  # must parse

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""


class TestNullRegistry:
    def test_all_instruments_are_the_shared_null_metric(self):
        assert NULL_REGISTRY.counter("a") is NULL_METRIC
        assert NULL_REGISTRY.gauge("b") is NULL_METRIC
        assert NULL_REGISTRY.histogram("c") is NULL_METRIC

    def test_null_metric_absorbs_everything(self):
        NULL_METRIC.inc(5, any_label="x")
        NULL_METRIC.observe(1.0)
        NULL_METRIC.set(3)
        assert NULL_METRIC.value() == 0.0
        assert NULL_METRIC.percentile(0.5) is None

    def test_enabled_flags(self):
        assert MetricsRegistry().enabled is True
        assert NULL_REGISTRY.enabled is False

    def test_render_is_empty(self):
        assert NULL_REGISTRY.render() == ""


class TestTracer:
    def test_nesting_and_attributes(self):
        tracer = Tracer("root")
        with tracer.span("outer", a=1) as outer:
            with tracer.span("inner"):
                pass
            outer.set(b=2)
        tree = tracer.tree()
        assert tree["name"] == "root"
        (outer_node,) = tree["children"]
        assert outer_node["attrs"] == {"a": 1, "b": 2}
        assert [c["name"] for c in outer_node["children"]] == ["inner"]

    def test_durations_are_positive_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tree = tracer.tree()
        outer = tree["children"][0]
        assert outer["duration_ms"] >= outer["children"][0]["duration_ms"] >= 0

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        cm = tracer.span("left-open")
        cm.__enter__()
        first = tracer.finish()
        end = first.end_ns
        assert tracer.finish().end_ns == end

    def test_exception_unwinds_cleanly(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.stage_names() == ["trace", "outer", "inner"]

    def test_registry_histogram_fed_per_stage(self):
        registry = MetricsRegistry()
        with tracing("query", registry=registry) as tracer:
            with tracer.span("plan"):
                pass
        hist = registry.get("repro_stage_seconds")
        assert hist is not None
        assert ("plan",) in hist.snapshot()
        assert ("query",) in hist.snapshot()

    def test_ambient_tracer_install_and_restore(self):
        assert current_tracer() is NULL_TRACER
        with tracing("outer") as outer:
            assert current_tracer() is outer
            with tracing("inner") as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER

    def test_tracers_are_context_isolated_across_threads(self):
        seen = []

        def probe():
            seen.append(current_tracer())

        with tracing("main"):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen == [NULL_TRACER]

    def test_format_trace_renders_attrs(self):
        with tracing("query") as tracer:
            with tracer.span("plan", cache="miss"):
                pass
        text = format_trace(tracer.tree())
        assert text.splitlines()[0].startswith("query (")
        assert "  plan (" in text
        assert "cache=miss" in text

    def test_format_trace_of_empty_tree(self):
        assert format_trace({}) == "(empty trace)"

    def test_tree_stage_names_matches_walk(self):
        with tracing("a") as tracer:
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert tree_stage_names(tracer.tree()) == ["a", "b", "c"]


class TestNullPath:
    """Disabled tracing must stay off the engine's hot path."""

    def test_null_tracer_span_is_one_shared_object(self):
        first = NULL_TRACER.span("anything", attr=1)
        second = NULL_TRACER.span("else")
        assert first is second

    def test_null_span_absorbs_set_and_end(self):
        with NULL_TRACER.span("x") as span:
            span.set(rows=1)
            span.end()
        assert NULL_TRACER.tree() == {}

    def test_engine_spans_are_per_step_not_per_tuple(self):
        """A spy tracer counts span openings: O(plan steps), not O(rows)."""

        class SpyTracer(Tracer):
            opened = 0

            def span(self, name, **attrs):
                SpyTracer.opened += 1
                return super().span(name, **attrs)

        db = join_db(n=200)  # 400 facts; a per-tuple bug would open 100s
        from repro.obs import trace as trace_module

        spy = SpyTracer("spy")
        token = trace_module._ACTIVE.set(spy)
        try:
            with QuerySession(db, "hashjoin") as session:
                session.evaluate_batch([JOIN])
        finally:
            trace_module._ACTIVE.reset(token)
        # plan + join + one join.step per relation + merge — and headroom
        # for a couple of future stages, but nowhere near the row count.
        assert SpyTracer.opened <= 10, SpyTracer.opened


class TestEngineSpanTrees:
    def test_hashjoin_stage_names(self):
        with tracing("query") as tracer:
            with QuerySession(join_db(), "hashjoin") as session:
                session.evaluate_batch([JOIN])
        names = tree_stage_names(tracer.tree())
        for want in ("plan", "join", "join.step", "merge"):
            assert want in names, (want, names)
        assert "shard.refresh" not in names

    def test_hashjoin_plan_cache_attrs(self):
        with tracing("query") as tracer:
            with QuerySession(join_db(), "hashjoin") as session:
                session.evaluate_batch([JOIN])
                session.refresh()  # drop the memo, keep the plan cache
                session.evaluate_batch([JOIN])
        plans = [
            span
            for span in tracer.root.walk()
            if span.name == "plan"
        ]
        assert [span.attrs["cache"] for span in plans] == ["miss", "hit"]

    def test_join_step_attrs_carry_rows_and_bindings(self):
        with tracing("query") as tracer:
            with QuerySession(join_db(), "hashjoin") as session:
                session.evaluate_batch([JOIN])
        steps = [
            span for span in tracer.root.walk() if span.name == "join.step"
        ]
        assert [span.attrs["relation"] for span in steps] == ["R", "S"]
        assert all(span.attrs["rows"] == 30 for span in steps)

    def test_sharded_stage_names(self):
        with tracing("query") as tracer:
            with QuerySession(
                join_db(),
                EngineConfig(
                    engine="sharded", shards=2, workers=2, mode="thread",
                    broadcast_threshold=0,
                ),
            ) as session:
                session.evaluate_batch([JOIN])
        names = tree_stage_names(tracer.tree())
        for want in ("shard.refresh", "plan", "join", "shard.merge", "merge"):
            assert want in names, (want, names)
        join_span = next(
            span for span in tracer.root.walk() if span.name == "join"
        )
        assert join_span.attrs["engine"] == "sharded"
        assert join_span.attrs["shards"] == 2
        assert join_span.attrs["mode"] == "thread"

    def test_aggregate_stage_names(self):
        with tracing("query") as tracer:
            with QuerySession(join_db(), "hashjoin") as session:
                session.evaluate_batch([AGG])
        names = tree_stage_names(tracer.tree())
        for want in ("join", "aggregate.fold"):
            assert want in names, (want, names)

    def test_tracing_leaves_results_identical(self):
        db = join_db()
        with QuerySession(db, "hashjoin") as session:
            plain = session.evaluate_batch([JOIN])[0]
        with tracing("query"):
            with QuerySession(db, "hashjoin") as session:
                traced = session.evaluate_batch([JOIN])[0]
        assert traced == plain


class TestCliTrace:
    def test_trace_subcommand_prints_tree(self, tmp_path, capsys):
        import io

        from repro.cli import main

        data = tmp_path / "data.json"
        data.write_text(
            json.dumps(
                {"R": [["a", "b"], ["b", "c"]], "S": [["b", 1], ["c", 2]]}
            )
        )
        out = io.StringIO()
        code = main(
            ["trace", "ans(x, z) :- R(x, y), S(y, z)", "-d", str(data)],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert text.startswith("query (")
        for stage in ("parse", "plan", "join", "merge"):
            assert "{} (".format(stage) in text, text
        assert "result tuples" in text

    def test_trace_subcommand_json_mode(self, tmp_path):
        import io

        from repro.cli import main

        data = tmp_path / "data.json"
        data.write_text(json.dumps({"R": [["a", "b"]]}))
        out = io.StringIO()
        code = main(
            ["trace", "ans(x) :- R(x, y)", "-d", str(data), "--json"], out=out
        )
        assert code == 0
        tree = json.loads(out.getvalue())
        assert tree["name"] == "query"
        assert "parse" in tree_stage_names(tree)
