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


class TestGauge:
    def test_set_and_add(self):
        g = MetricRegistry().gauge("t.level")
        g.set(10)
        g.add(-3.5)
        assert g.value == 6.5
        g.set(0)
        assert g.value == 0.0


class TestHistogram:
    def test_observe_and_bucket_counts(self):
        h = MetricRegistry().histogram("t.h")
        for v in (0.5, 1.0, 2.0, 4.0, 1000.0):
            h.observe(v)
        counts = h.bucket_counts()
        assert list(counts) == [*obs.registry.BUCKETS, math.inf]
        # Cumulative, Prometheus-style: le=1 -> 2 (0.5 and the edge 1.0).
        assert counts[0.25] == 0
        assert counts[1.0] == 2
        assert counts[2.5] == 3
        assert counts[5.0] == 4
        assert counts[300.0] == 4
        assert counts[math.inf] == 5
        assert h.count == 5
        assert h.sum == pytest.approx(1007.5)
        assert h.min == 0.5
        assert h.max == 1000.0

    def test_percentiles(self):
        h = MetricRegistry().histogram("t.h")
        assert math.isnan(h.percentile(50))
        for v in (0.5, 1.5, 1.5, 4.0):
            h.observe(v)
        p50 = h.percentile(50)
        assert 1.0 <= p50 <= 2.5
        # Estimates are clamped to the observed range.
        assert h.percentile(0) >= h.min
        assert h.percentile(100) <= h.max
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_overflow_bucket_percentile_falls_back_to_max(self):
        h = MetricRegistry().histogram("t.h")
        h.observe(500.0)
        h.observe(700.0)
        assert h.percentile(99) == 700.0

    def test_mean(self):
        h = MetricRegistry().histogram("t.h")
        assert math.isnan(h.mean)
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.metrics() == [reg.get("a")]

    def test_type_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_get_does_not_create(self):
        reg = MetricRegistry()
        assert reg.get("missing") is None
        assert reg.metrics() == []

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
                with obs.span("t.span"):
                    pass
        finally:
            obs.enable()
        assert reg.metrics() == []
        assert reg.spans.parents() == {}


class FakeClock:
    """Deterministic clock: advances by a scripted step per call."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        t = self.now
        self.now += self.step
        return t


def _span_table(reg) -> dict:
    return {s["name"]: s for s in obs.snapshot(reg)["spans"]}


def _fake_clocked(step=1.0) -> MetricRegistry:
    reg = MetricRegistry()
    reg.spans = SpanTracker(reg, clock=FakeClock(step=step))
    return reg


class TestSpans:
    def test_nesting_records_parent(self):
        reg = MetricRegistry()
        with reg.spans.span("outer"):
            with reg.spans.span("inner"):
                pass
            with reg.spans.span("inner"):
                pass
        with reg.spans.span("inner"):
            pass
        assert reg.spans.parents() == {
            "inner": {"outer": 2, "": 1},
            "outer": {"": 1},
        }
        assert _span_table(reg)["inner"]["parents"] == {"outer": 2, "": 1}

    def test_timing_monotonic_and_nested_totals(self):
        reg = _fake_clocked(step=1.0)
        with reg.spans.span("outer"):
            with reg.spans.span("inner"):
                pass
        stats = _span_table(reg)
        assert stats["inner"]["total_seconds"] >= 0
        assert stats["outer"]["total_seconds"] >= stats["inner"]["total_seconds"]
        # With a 1s-per-tick clock: inner = 1 tick, outer = 3 ticks.
        assert stats["inner"]["total_seconds"] == pytest.approx(1.0)
        assert stats["outer"]["total_seconds"] == pytest.approx(3.0)
        assert stats["outer"]["min_seconds"] <= stats["outer"]["max_seconds"]

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
        assert reg.get("phase").count == 1
        # The stack unwound: the next span is a root again.
        with reg.spans.span("after"):
            pass
        assert reg.spans.parents()["after"] == {"": 1}

    def test_stats_sorted_by_total_descending(self):
        reg = _fake_clocked(step=1.0)
        with reg.spans.span("short"):
            pass
        with reg.spans.span("long"):
            with reg.spans.span("mid"):
                pass
        ordered = list(_span_table(reg))
        assert ordered == ["long", "mid", "short"]

    def test_span_table_is_the_histogram(self):
        reg = _fake_clocked(step=0.5)
        for _ in range(3):
            with reg.spans.span("phase"):
                pass
        (row,) = obs.snapshot(reg)["spans"]
        hist = reg.get("phase")
        assert (row["count"], row["total_seconds"]) == (hist.count, hist.sum)
        assert (row["min_seconds"], row["max_seconds"]) == (hist.min, hist.max)
        assert row["mean_seconds"] == hist.mean == 0.5


class TestExporters:
    def _populated(self):
        reg = MetricRegistry()
        reg.counter("t.count").inc(7)
        reg.gauge("t.level").set(3.5)
        reg.histogram("t.h").observe(1.5)
        with reg.spans.span("t.phase"):
            pass
        return reg

    def test_snapshot_is_json_serialisable(self):
        snap = obs.snapshot(self._populated())
        parsed = json.loads(json.dumps(snap))
        assert parsed["counters"][0] == {
            "name": "t.count",
            "type": "counter",
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
        lines = (tmp_path / "stats.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
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
        span_names = engine.registry.spans.parents()
        assert names.SPAN_STREAMING_INGEST in span_names
        assert names.SPAN_STREAMING_CLOSE_BIN in span_names


class TestBinRecloseDedupe:
    """Regression: late flows re-opening a closed bin at a bin boundary
    used to double-count ``streaming.bins_closed`` and the verdict
    counters when the bin closed a second time. Now a bin closes once:
    a late flow of a closed bin joins its pending labels, so each bin
    and each (bin, target) verdict is emitted and counted exactly once."""

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
        engine.ingest(self._chunk([30]))        # a straggler for closed bin 0
        engine.ingest(self._chunk([130]))       # bin 2 -> closes bin 1
        assert engine.stats.bins_closed == 2    # not 3: bin 0 counted once
        engine.flush()                          # closes bin 2
        assert engine.stats.bins_closed == 3

    def test_a_straggler_gets_no_verdict_and_reaches_its_label_pass(self, monkeypatch):
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
            min_flows_per_verdict=1, label_grace_bins=2
        ).warm_start(scrubber)

        first = engine.ingest(self._chunk([5, 15, 25]))  # bin 0 open
        first += engine.ingest(self._chunk([65]))        # closes bin 0
        assert {(v.bin, v.target_ip) for v in first} == {(0, 20)}
        assert engine.stats.verdicts_emitted == 1
        ddos_once = engine.stats.ddos_verdicts

        assert engine.ingest(self._chunk([40])) == []    # straggler for bin 0
        assert engine._pending_label[0].time.tolist() == [5, 15, 25, 40]
        labelled = []
        label_flows = engine._blackholes.label_flows

        def spy(flows, **kwargs):
            labelled.append(flows.time.tolist())
            return label_flows(flows, **kwargs)

        monkeypatch.setattr(engine._blackholes, "label_flows", spy)
        again = engine.ingest(self._chunk([130]))        # closes 1, labels 0
        assert {(v.bin, v.target_ip) for v in again} == {(1, 20)}
        assert labelled == [[5, 15, 25, 40]]
        # Each (bin, target) was emitted once, so counted once.
        assert engine.stats.bins_closed == 2
        assert engine.stats.verdicts_emitted == 2
        assert engine.stats.ddos_verdicts == ddos_once + again[0].is_ddos


class TestMergeSnapshots:
    def _shard(self, n):
        reg = MetricRegistry()
        reg.counter("t.count").inc(n)
        reg.counter(f"t.shard{n}_only").inc()
        reg.gauge("t.level").set(float(n))
        h = reg.histogram("t.h")
        for v in (0.5 * n, 1.5, 3.0):
            h.observe(v)
        with reg.spans.span("t.phase"):
            pass
        return reg

    def test_counters_and_gauges_sum_by_name(self):
        snap = obs.merge_snapshots([self._shard(1), self._shard(2)])
        counters = {c["name"]: c["value"] for c in snap["counters"]}
        assert counters == {"t.count": 3, "t.shard1_only": 1, "t.shard2_only": 1}
        assert snap["gauges"] == [{"name": "t.level", "type": "gauge", "value": 3.0}]

    def test_histograms_merge_bucketwise_with_percentiles(self):
        snap = obs.merge_snapshots([self._shard(1), self._shard(2)])
        h = next(e for e in snap["histograms"] if e["name"] == "t.h")
        assert h["count"] == 6
        assert h["sum"] == pytest.approx(0.5 + 1.5 + 3.0 + 1.0 + 1.5 + 3.0)
        assert h["min"] == 0.5 and h["max"] == 3.0
        assert h["buckets"]["1.0"] == 2  # 0.5 and 1.0
        assert h["buckets"]["2.5"] == 4  # + the two 1.5s
        assert h["buckets"]["inf"] == 6
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

    def test_merged_histogram_is_the_histogram_of_all_observations(self):
        values = [(0.25, 3.0, 700.0), (0.0, 0.75, 1.5, 2.0)]
        shards, union = [], MetricRegistry().histogram("t.h")
        for shard_values in values:
            reg = MetricRegistry()
            for v in shard_values:
                reg.histogram("t.h").observe(v)
                union.observe(v)
            shards.append(reg)
        (merged,) = obs.merge_snapshots(shards)["histograms"]
        assert merged == union.as_dict()


def test_supervised_merged_snapshot_spans_equal_their_histograms():
    """Two supervised shards: each merged span row is its merged histogram."""
    from tests import strategies
    from repro.core.labeling.balancer import balance
    from repro.core.parallel import ShardedStreamingScrubber
    from repro.core.scrubber import IXPScrubber, ScrubberConfig

    rng = strategies.rng_for(41)
    balanced = balance(
        strategies.labeled_flows(rng, n_flows=2000, n_bins=6),
        np.random.default_rng(3),
    ).flows
    scrubber = IXPScrubber(
        ScrubberConfig(model="XGB", model_params={"n_estimators": 5})
    ).fit(balanced)
    workload = strategies.labeled_flows(
        strategies.rng_for(7), n_flows=400, n_targets=10, n_bins=4
    )
    with ShardedStreamingScrubber(
        n_shards=2, backend="supervised",
        min_flows_per_verdict=3, label_grace_bins=10**6,
    ) as engine:
        engine.warm_start(scrubber)
        engine.ingest(workload)
        engine.flush()
        snap = engine.merged_snapshot()

    hists = {h["name"]: h for h in snap["histograms"]}
    shard_span = [s for s in snap["spans"] if s["name"] == names.SPAN_PARALLEL_SHARD_CLASSIFY]
    assert shard_span and shard_span[0]["count"] >= 2  # both shards reported
    for row in snap["spans"]:
        hist = hists[row["name"]]
        assert row["count"] == hist["count"] == sum(row["parents"].values())
        assert row["total_seconds"] == hist["sum"]
        assert row["min_seconds"] == hist["min"]
        assert row["max_seconds"] == hist["max"]
