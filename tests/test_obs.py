"""Tests for the observability layer (`repro.obs`)."""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.obs import names
from repro.obs.registry import MetricRegistry
from repro.obs.spans import SpanTracker


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricRegistry()
        c = reg.counter("t.count")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_monotonic(self):
        c = MetricRegistry().counter("t.count")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0

    def test_labeled_counters_are_distinct(self):
        reg = MetricRegistry()
        a = reg.counter("t.count", {"site": "SE"})
        b = reg.counter("t.count", {"site": "US1"})
        a.inc(5)
        assert b.value == 0
        assert reg.counter("t.count", {"site": "SE"}) is a


class TestGauge:
    def test_set_and_add(self):
        g = MetricRegistry().gauge("t.level")
        g.set(10)
        g.add(-3.5)
        assert g.value == 6.5
        g.set(0)
        assert g.value == 0.0


class TestHistogram:
    def test_bucket_edges_validation(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError):
            reg.histogram("t.bad", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("t.bad2", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("t.bad3", buckets=(1.0, 1.0))

    def test_observe_and_bucket_counts(self):
        h = MetricRegistry().histogram("t.h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 4.0, 100.0):
            h.observe(v)
        counts = h.bucket_counts()
        # Cumulative, Prometheus-style: le=1 -> 2 (0.5 and the edge 1.0).
        assert counts[1.0] == 2
        assert counts[2.0] == 3
        assert counts[5.0] == 4
        assert counts[math.inf] == 5
        assert h.count == 5
        assert h.sum == pytest.approx(107.0)
        assert h.min == 0.5
        assert h.max == 100.0

    def test_percentiles(self):
        h = MetricRegistry().histogram("t.h", buckets=(1.0, 2.0, 5.0))
        assert math.isnan(h.percentile(50))
        for v in (0.5, 1.5, 1.5, 4.0):
            h.observe(v)
        p50 = h.percentile(50)
        assert 1.0 <= p50 <= 2.0
        # Estimates are clamped to the observed range.
        assert h.percentile(0) >= h.min
        assert h.percentile(100) <= h.max
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_overflow_bucket_percentile_falls_back_to_max(self):
        h = MetricRegistry().histogram("t.h", buckets=(1.0,))
        h.observe(50.0)
        h.observe(70.0)
        assert h.percentile(99) == 70.0

    def test_mean(self):
        h = MetricRegistry().histogram("t.h", buckets=(10.0,))
        assert math.isnan(h.mean)
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_type_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_get_does_not_create(self):
        reg = MetricRegistry()
        assert reg.get("missing") is None
        assert len(reg) == 0

    def test_reset_clears_metrics_and_spans(self):
        reg = MetricRegistry()
        reg.counter("a").inc()
        with reg.spans.span("phase"):
            pass
        reg.reset()
        assert len(reg) == 0
        assert reg.spans.stats() == {}

    def test_active_registry_context(self):
        reg = MetricRegistry()
        default = obs.get_registry()
        with obs.use_registry(reg):
            assert obs.get_registry() is reg
            inner = MetricRegistry()
            with obs.use_registry(inner):
                assert obs.get_registry() is inner
            assert obs.get_registry() is reg
        assert obs.get_registry() is default

    def test_disable_makes_helpers_no_ops(self):
        reg = MetricRegistry()
        try:
            obs.disable()
            assert not obs.is_enabled()
            with obs.use_registry(reg):
                obs.counter("t.c").inc(10)
                obs.gauge("t.g").set(1)
                obs.histogram("t.h").observe(1)
                with obs.span("t.span"):
                    pass
        finally:
            obs.enable()
        assert len(reg) == 0
        assert reg.spans.stats() == {}


class FakeClock:
    """Deterministic clock: advances by a scripted step per call."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        t = self.now
        self.now += self.step
        return t


class TestSpans:
    def test_nesting_records_parent(self):
        reg = MetricRegistry()
        with reg.spans.span("outer"):
            assert reg.spans.current() == "outer"
            with reg.spans.span("inner"):
                assert reg.spans.current() == "inner"
                assert reg.spans.depth() == 2
        assert reg.spans.current() is None
        stats = reg.spans.stats()
        assert stats["inner"].parents == {"outer": 1}
        assert stats["outer"].parents == {"": 1}

    def test_timing_monotonic_and_nested_totals(self):
        reg = MetricRegistry()
        tracker = SpanTracker(reg, clock=FakeClock(step=1.0))
        with tracker.span("outer"):
            with tracker.span("inner"):
                pass
        stats = tracker.stats()
        assert stats["inner"].total >= 0
        assert stats["outer"].total >= stats["inner"].total
        # With a 1s-per-tick clock: inner = 1 tick, outer = 3 ticks.
        assert stats["inner"].total == pytest.approx(1.0)
        assert stats["outer"].total == pytest.approx(3.0)
        assert stats["outer"].min <= stats["outer"].max

    def test_span_feeds_registry_histogram(self):
        reg = MetricRegistry()
        with reg.spans.span("phase"):
            pass
        hist = reg.get("phase")
        assert hist is not None
        assert hist.count == 1
        assert hist.sum >= 0

    def test_span_records_on_exception(self):
        reg = MetricRegistry()
        with pytest.raises(RuntimeError):
            with reg.spans.span("phase"):
                raise RuntimeError("boom")
        assert reg.spans.stats()["phase"].count == 1
        assert reg.spans.current() is None

    def test_stats_sorted_by_total_descending(self):
        reg = MetricRegistry()
        tracker = SpanTracker(reg, clock=FakeClock(step=1.0))
        with tracker.span("short"):
            pass
        with tracker.span("long"):
            with tracker.span("mid"):
                pass
        ordered = list(tracker.stats())
        assert ordered[0] == "long"
        assert set(ordered) == {"long", "mid", "short"}


class TestExporters:
    def _populated(self):
        reg = MetricRegistry()
        reg.counter("t.count").inc(7)
        reg.gauge("t.level").set(3.5)
        reg.histogram("t.h", buckets=(1.0, 2.0)).observe(1.5)
        with reg.spans.span("t.phase"):
            pass
        return reg

    def test_snapshot_is_json_serialisable(self):
        snap = obs.snapshot(self._populated())
        parsed = json.loads(json.dumps(snap))
        assert parsed["counters"][0] == {
            "name": "t.count",
            "type": "counter",
            "labels": {},
            "value": 7,
        }
        assert {h["name"] for h in parsed["histograms"]} == {"t.h", "t.phase"}
        assert parsed["spans"][0]["name"] == "t.phase"

    def test_jsonl_round_trip(self, tmp_path):
        reg = self._populated()
        exporter = obs.JsonLinesExporter(tmp_path / "stats.jsonl")
        exporter.export(reg, run="first")
        reg.counter("t.count").inc(3)
        exporter.export(reg, run="second")
        rows = obs.read_jsonl(tmp_path / "stats.jsonl")
        assert len(rows) == 2
        assert rows[0]["run"] == "first"
        by_name = {c["name"]: c["value"] for c in rows[1]["counters"]}
        assert by_name["t.count"] == 10

    def test_prometheus_text(self):
        text = obs.prometheus_text(self._populated())
        assert "# TYPE repro_t_count_total counter" in text
        assert "repro_t_count_total 7.0" in text
        assert "# TYPE repro_t_level gauge" in text
        assert 'repro_t_h_bucket{le="+Inf"} 1' in text
        assert "repro_t_h_count 1" in text
        # Every sample line parses as `name{labels} value`.
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert len(line.rsplit(" ", 1)) == 2

    def test_format_snapshot_contains_sections(self):
        out = obs.format_snapshot(self._populated())
        assert "== counters ==" in out
        assert "== gauges ==" in out
        assert "== histograms ==" in out
        assert "== spans (per phase) ==" in out
        assert "t.phase" in out


class TestStreamingStatsCompat:
    def test_zero_before_any_traffic(self):
        from repro.core.streaming import StreamingScrubber

        engine = StreamingScrubber()
        assert engine.stats.flows_ingested == 0
        assert engine.stats.bins_closed == 0
        assert engine.stats.retrainings == 0
        assert engine.stats.training_flows == 0

    def test_unknown_attribute_raises(self):
        from repro.core.streaming import StreamingScrubber

        with pytest.raises(AttributeError):
            StreamingScrubber().stats.not_a_counter

    def test_view_tracks_registry(self):
        from repro.core.streaming import StreamingScrubber

        engine = StreamingScrubber()
        engine.registry.counter(names.C_STREAMING_BINS_CLOSED).inc(4)
        engine.registry.gauge(names.G_STREAMING_TRAINING_FLOWS).set(123)
        assert engine.stats.bins_closed == 4
        assert engine.stats.training_flows == 123
        assert engine.stats.as_dict()["bins_closed"] == 4

    def test_engines_have_private_registries(self):
        from repro.core.streaming import StreamingScrubber

        a, b = StreamingScrubber(), StreamingScrubber()
        a.registry.counter(names.C_STREAMING_BINS_CLOSED).inc()
        assert a.stats.bins_closed == 1
        assert b.stats.bins_closed == 0

    def test_ingest_populates_view_and_spans(self):
        from repro.core.streaming import StreamingScrubber
        from repro.netflow.dataset import FlowDataset
        from repro.netflow.record import FlowRecord

        records = [
            FlowRecord(
                time=t, src_ip=10, dst_ip=20, src_port=53, dst_port=1234,
                protocol=17, packets=1, bytes_=100, src_mac=1,
                blackhole=False,
            )
            for t in (0, 30, 70, 130)
        ]
        engine = StreamingScrubber()
        engine.ingest(FlowDataset.from_records(records))
        assert engine.stats.flows_ingested == 4
        assert engine.stats.bins_closed == 2  # bins 0 and 1 closed by bin 2
        span_names = engine.registry.spans.names()
        assert names.SPAN_STREAMING_INGEST in span_names
        assert names.SPAN_STREAMING_CLOSE_BIN in span_names


class TestBinRecloseDedupe:
    """Regression: late flows re-opening a closed bin at a bin boundary
    used to double-count ``streaming.bins_closed`` and the verdict
    counters when the bin closed a second time. Each bin and each
    (bin, target) verdict must be counted exactly once."""

    @staticmethod
    def _chunk(times, dst_ip=20):
        from tests.conftest import make_flow
        from repro.netflow.dataset import FlowDataset

        return FlowDataset.from_records(
            [make_flow(time=t, dst_ip=dst_ip) for t in times]
        )

    def test_bins_closed_counted_once_per_bin(self):
        from repro.core.streaming import StreamingScrubber

        engine = StreamingScrubber()
        engine.ingest(self._chunk([5, 15]))     # bin 0 open
        engine.ingest(self._chunk([65]))        # bin 1 arrives -> closes bin 0
        assert engine.stats.bins_closed == 1
        engine.ingest(self._chunk([30]))        # late flow re-opens bin 0
        engine.ingest(self._chunk([130]))       # bin 2 -> re-closes 0, closes 1
        assert engine.stats.bins_closed == 2    # not 3: bin 0 counted once
        engine.flush()                          # closes bin 2
        assert engine.stats.bins_closed == 3

    def test_verdict_counters_deduped_by_bin_and_target(self):
        from tests import strategies
        from repro.core.labeling.balancer import balance
        from repro.core.scrubber import IXPScrubber, ScrubberConfig
        from repro.core.streaming import StreamingScrubber

        rng = strategies.rng_for(41)
        balanced = balance(
            strategies.labeled_flows(rng, n_flows=2000, n_bins=6),
            np.random.default_rng(3),
        ).flows
        scrubber = IXPScrubber(
            ScrubberConfig(model="XGB", model_params={"n_estimators": 5})
        ).fit(balanced)
        engine = StreamingScrubber(
            min_flows_per_verdict=1, label_grace_bins=10**6
        ).warm_start(scrubber)

        first = engine.ingest(self._chunk([5, 15, 25]))  # bin 0 open
        first += engine.ingest(self._chunk([65]))        # closes bin 0
        assert {(v.bin, v.target_ip) for v in first} == {(0, 20)}
        emitted_once = engine.stats.verdicts_emitted
        ddos_once = engine.stats.ddos_verdicts
        assert emitted_once == 1

        engine.ingest(self._chunk([40]))                 # re-opens bin 0
        again = engine.ingest(self._chunk([130]))        # re-closes 0, closes 1
        # The late re-classification is still *returned* to the caller...
        assert (0, 20) in {(v.bin, v.target_ip) for v in again}
        # ...but the metrics count each (bin, target) exactly once; only
        # the genuinely new (1, 20) verdict increments the counters.
        assert engine.stats.verdicts_emitted == emitted_once + 1
        assert engine.stats.ddos_verdicts <= ddos_once + 1


class TestMergeSnapshots:
    def _shard(self, n):
        reg = MetricRegistry()
        reg.counter("t.count").inc(n)
        reg.counter("t.shard_only", {"shard": str(n)}).inc()
        reg.gauge("t.level").set(float(n))
        h = reg.histogram("t.h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5 * n, 1.5, 3.0):
            h.observe(v)
        with reg.spans.span("t.phase"):
            pass
        return reg

    def test_counters_and_gauges_sum_by_name_and_labels(self):
        snap = obs.merge_snapshots([self._shard(1), self._shard(2)])
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in snap["counters"]
        }
        assert counters[("t.count", ())] == 3
        # Distinct label sets stay distinct series.
        assert counters[("t.shard_only", (("shard", "1"),))] == 1
        assert counters[("t.shard_only", (("shard", "2"),))] == 1
        assert snap["gauges"][0]["value"] == 3.0

    def test_histograms_merge_bucketwise_with_percentiles(self):
        snap = obs.merge_snapshots([self._shard(1), self._shard(2)])
        h = next(e for e in snap["histograms"] if e["name"] == "t.h")
        assert h["count"] == 6
        assert h["sum"] == pytest.approx(0.5 + 1.5 + 3.0 + 1.0 + 1.5 + 3.0)
        assert h["min"] == 0.5 and h["max"] == 3.0
        assert h["buckets"]["1.0"] == 2  # 0.5 and 1.0
        assert h["buckets"]["2.0"] == 4  # + the two 1.5s
        assert h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"]

    def test_spans_sum_and_single_source_is_identity(self):
        reg = self._shard(1)
        merged = obs.merge_snapshots([reg, self._shard(2)])
        (span,) = merged["spans"]
        assert span["count"] == 2
        assert span["mean_seconds"] == pytest.approx(
            span["total_seconds"] / 2
        )
        # Merging one source reproduces its own snapshot, and dict
        # sources (pre-taken snapshots) are accepted interchangeably.
        assert obs.merge_snapshots([reg]) == obs.merge_snapshots(
            [obs.snapshot(reg)]
        )
