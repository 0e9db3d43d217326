"""Telemetry unit tests: registry, traces, exporters, profiler, hub."""

import json

import pytest

from repro.telemetry import (
    MetricsRegistry,
    Profiler,
    Telemetry,
    TelemetryConfig,
    TraceCollector,
    metrics_to_csv,
    render_profile,
    render_summary,
    trace_to_jsonl,
    validate_trace_jsonl,
)


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        assert registry.value("hits") == 3

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("hits").inc(-1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        registry.gauge("alive").set(10)
        registry.gauge("alive").add(-3)
        assert registry.value("alive") == 7

    def test_histogram_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sizes")
        for value in (2, 4, 6):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(4.0)

    def test_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("req", kind="a").inc(5)
        registry.counter("req", kind="b").inc(7)
        assert registry.value("req", kind="a") == 5
        assert registry.value("req", kind="b") == 7
        assert registry.total("req") == 12
        assert registry.by_label("req", "kind") == {"a": 5, "b": 7}

    def test_value_does_not_create_series(self):
        registry = MetricsRegistry()
        assert registry.value("missing", default=-1) == -1
        assert registry.names() == []

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a", z=1).inc()
        registry.counter("a", y=2).inc()
        names = [(sample.name, sample.labels_text())
                 for sample in registry.snapshot()]
        assert names == sorted(names)


class TestTraceCollector:
    def test_emit_assigns_monotonic_seq(self):
        trace = TraceCollector()
        first = trace.emit("a", 1)
        second = trace.emit("b", 1, node=3, phase="gossip", extra=9)
        assert (first.seq, second.seq) == (0, 1)
        assert second.fields == {"extra": 9}
        assert len(trace) == 2

    def test_emit_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TraceCollector().emit("a", 1, kind="bogus")

    def test_span_links_end_to_begin(self):
        trace = TraceCollector()
        with trace.span("work", 2, node=1):
            trace.emit("inner", 2)
        begin, inner, end = trace.events
        assert (begin.kind, end.kind) == ("begin", "end")
        assert end.fields["span"] == begin.seq
        assert inner.seq == begin.seq + 1

    def test_named_and_in_round_filters(self):
        trace = TraceCollector()
        trace.emit("a", 1)
        trace.emit("a", 2)
        trace.emit("b", 2)
        assert len(trace.named("a")) == 2
        assert len(trace.in_round(2)) == 2


class TestExporters:
    def _trace(self):
        trace = TraceCollector()
        trace.emit("a", 1, node=0, text="x,\"y\"")
        with trace.span("s", 1):
            pass
        return trace

    def test_jsonl_round_trips_and_validates(self):
        text = trace_to_jsonl(self._trace().events)
        assert text.endswith("\n")
        assert validate_trace_jsonl(text) == 3
        first = json.loads(text.splitlines()[0])
        assert sorted(first) == ["fields", "kind", "name", "node", "phase",
                                 "round", "seq"]

    def test_validate_rejects_gapped_seq(self):
        lines = trace_to_jsonl(self._trace().events).splitlines()
        with pytest.raises(ValueError):
            validate_trace_jsonl("\n".join([lines[0], lines[2]]) + "\n")

    def test_validate_rejects_missing_key(self):
        record = json.loads(trace_to_jsonl(self._trace().events).splitlines()[0])
        del record["phase"]
        with pytest.raises(ValueError):
            validate_trace_jsonl(json.dumps(record) + "\n")

    def test_metrics_csv_quotes_labels(self):
        registry = MetricsRegistry()
        registry.counter("req", kind='Auth,"x"').inc()
        text = metrics_to_csv(registry)
        header, row = text.splitlines()
        assert header == "name,kind,labels,value,count,sum"
        assert row.startswith("req,counter,")
        assert '""x""' in row  # CSV-escaped quote

    def test_render_summary_mentions_rounds(self):
        telemetry = Telemetry()
        telemetry.begin_round(1)
        telemetry.end_round(alive_nodes=5)
        assert "rounds executed" in render_summary(telemetry)


class TestProfiler:
    def test_disabled_profiler_records_nothing(self):
        profiler = Profiler(enabled=False)
        with profiler.time("work"):
            pass
        assert profiler.rows() == []

    def test_enabled_profiler_counts_calls(self):
        profiler = Profiler(enabled=True)
        for _ in range(3):
            with profiler.time("work"):
                pass
        (row,) = profiler.rows()
        assert row[0] == "work"
        assert row[1] == 3  # calls
        assert "work" in render_profile(profiler)
        profiler.reset()
        assert profiler.rows() == []


class TestTelemetryHub:
    def test_round_clock_stamps_events(self):
        telemetry = Telemetry()
        telemetry.begin_round(4)
        with telemetry.phase("gossip"):
            telemetry.event("thing", node=2)
        (event,) = telemetry.trace.named("thing")
        assert (event.round, event.phase, event.node) == (4, "gossip", 2)
        assert telemetry.registry.value("sim.rounds") == 1

    def test_tracing_disabled_drops_events(self):
        telemetry = Telemetry(TelemetryConfig(tracing=False))
        telemetry.begin_round(1)
        telemetry.event("thing")
        telemetry.end_round(alive_nodes=3)
        assert telemetry.trace is None
        assert telemetry.registry.value("sim.rounds") == 1
