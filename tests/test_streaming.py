"""Tests for the streaming (online deployment) engine."""

import numpy as np
import pytest

from repro.core.scrubber import ScrubberConfig
from repro.core.streaming import StreamingScrubber
from repro.core.parallel.engine import ShardedStreamingScrubber
from repro.ixp.fabric import IXPFabric
from repro.ixp.profiles import IXPProfile
from repro.netflow.dataset import FlowDataset
from repro.traffic.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def stream_capture():
    profile = IXPProfile(
        name="IXP-STREAM", region=11, n_members=8, traffic_scale=0.01,
        attacks_per_day=14.0, attack_intensity=25.0,
        benign_flows_per_target=5.0, benign_targets_per_minute=24,
        bins_per_day=48, seed=55,
    )
    fabric = IXPFabric(profile)
    capture = WorkloadGenerator(fabric).generate(0, 3)
    return profile, capture


def drive(engine, capture, chunk_bins=8, prepare=lambda chunk: chunk):
    """Feed a capture through the engine in time-ordered chunks.

    ``prepare`` maps each chunk before it is fed.
    """
    flows = capture.flows
    updates = sorted(capture.updates, key=lambda u: u.time)
    verdicts = []
    bins = flows.time // 60
    u = 0
    for start in range(int(bins.min()), int(bins.max()) + 1, chunk_bins):
        end = start + chunk_bins
        mask = (bins >= start) & (bins < end)
        chunk = flows.select(mask)
        chunk_updates = []
        limit = end * 60
        while u < len(updates) and updates[u].time < limit:
            chunk_updates.append(updates[u])
            u += 1
        verdicts.extend(engine.ingest(prepare(chunk), chunk_updates))
    verdicts.extend(engine.flush())
    return verdicts


def read_only(flows: FlowDataset) -> FlowDataset:
    """A copy of ``flows`` whose columns all refuse writes."""
    columns = {name: array.copy() for name, array in flows.to_columns().items()}
    for array in columns.values():
        array.flags.writeable = False
    return FlowDataset(columns)


class TestStreamingScrubber:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingScrubber(window_days=0)
        with pytest.raises(ValueError):
            StreamingScrubber(bins_per_day=0)

    def test_not_ready_before_data(self):
        engine = StreamingScrubber()
        assert not engine.is_ready
        assert engine.model is None

    def test_end_to_end_detection(self, stream_capture):
        profile, capture = stream_capture
        engine = StreamingScrubber(
            config=ScrubberConfig(model="XGB", model_params={"n_estimators": 15}),
            window_days=2,
            bins_per_day=profile.bins_per_day,
            seed=1,
        )
        verdicts = drive(engine, capture)

        assert engine.is_ready
        assert engine.stats.retrainings >= 2  # daily retraining happened
        assert engine.stats.bins_closed > 100
        assert engine.stats.flows_ingested == len(capture.flows)

        # After warm-up, real victims are detected.
        victims = {e.victim for e in capture.events}
        warmup_end = profile.seconds_per_day  # first day is bootstrap
        detected = {
            v.target_ip for v in verdicts if v.is_ddos and v.bin * 60 >= warmup_end
        }
        late_victims = {e.victim for e in capture.events if e.start >= warmup_end}
        recall = len(detected & late_victims) / max(len(late_victims), 1)
        assert recall > 0.7

        # False-alarm targets stay bounded.
        false_alarms = detected - victims
        assert len(false_alarms) <= len(detected & victims)

    def test_retrains_over_flows_without_packets(self, stream_capture):
        """A flow without packets in the training window used to raise out
        of the retrain, and so out of the `ingest` call of that tick."""
        import warnings
        from dataclasses import replace

        from tests import strategies

        profile, capture = stream_capture
        day = profile.seconds_per_day
        flows = capture.flows.time_slice(0, day + 10 * 60)
        flows = strategies.without_packets(flows, np.arange(0, len(flows), 25))
        engine = StreamingScrubber(
            config=ScrubberConfig(model="XGB", model_params={"n_estimators": 5}),
            window_days=2,
            bins_per_day=profile.bins_per_day,
            seed=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = drive(engine, replace(capture, flows=flows))
        assert engine.stats.retrainings >= 1
        assert verdicts

    def test_no_verdicts_before_first_model(self, stream_capture):
        profile, capture = stream_capture
        engine = StreamingScrubber(bins_per_day=profile.bins_per_day)
        # Feed only the first few bins: not enough for a daily retrain.
        flows = capture.flows.time_slice(0, 5 * 60)
        verdicts = engine.ingest(flows)
        assert verdicts == []
        assert not engine.is_ready

    def test_small_aggregates_skipped(self, stream_capture):
        profile, capture = stream_capture
        engine = StreamingScrubber(
            config=ScrubberConfig(model="XGB", model_params={"n_estimators": 10}),
            window_days=2,
            bins_per_day=profile.bins_per_day,
            min_flows_per_verdict=10**6,  # nothing qualifies
        )
        verdicts = drive(engine, capture)
        assert verdicts == []
        assert engine.stats.verdicts_emitted == 0

    def test_stats_consistency(self, stream_capture):
        profile, capture = stream_capture
        engine = StreamingScrubber(
            config=ScrubberConfig(model="XGB", model_params={"n_estimators": 10}),
            window_days=2,
            bins_per_day=profile.bins_per_day,
        )
        verdicts = drive(engine, capture)
        assert engine.stats.verdicts_emitted == len(verdicts)
        assert engine.stats.ddos_verdicts == sum(1 for v in verdicts if v.is_ddos)
        assert engine.stats.training_flows > 0


@pytest.mark.parametrize(
    "sharding",
    [None, dict(n_shards=2), dict(n_shards=2, agg="sketch")],
    ids=["serial", "sharded-serial", "sketch"],
)
def test_read_only_chunks_give_the_same_verdicts(stream_capture, sharding):
    """The engines keep one-bin chunks by reference, so nothing on the
    ingest, label, balance, retrain or classify path may write to them."""
    profile, capture = stream_capture

    def run(prepare):
        kwargs = dict(
            config=ScrubberConfig(model="XGB", model_params={"n_estimators": 5}),
            window_days=2,
            bins_per_day=profile.bins_per_day,
            seed=1,
        )
        if sharding is None:
            return drive(StreamingScrubber(**kwargs), capture, 1, prepare)
        with ShardedStreamingScrubber(**kwargs, **sharding) as engine:
            return drive(engine, capture, 1, prepare)

    frozen = run(read_only)
    assert frozen, "the stream produced no verdicts"
    assert frozen == run(lambda chunk: chunk)


# ----------------------------------------------------------------------
# The watermark: the last labelled bin bounds what the engine keeps.
# ----------------------------------------------------------------------
def assert_nothing_behind_the_watermark(engine):
    """At most ``label_grace_bins + 1`` bins are open or waiting for
    labels, none of them labelled, and no closed blackhole event ends
    before the first bin still to be labelled."""
    watermark = (engine._horizon - 1) // 60 - max(engine.label_grace_bins, 1)
    held = {*engine._pending_label, *engine._open_bins}
    assert len(held) <= engine.label_grace_bins + 1
    assert all(bin_id > watermark for bin_id in held)
    assert all(e.end > (watermark + 1) * 60 for e in engine._blackholes._events)


@pytest.mark.parametrize("grace, held", [(0, {5: 3}), (2, {4: 2, 5: 2})])
def test_flows_behind_the_watermark_are_dropped(grace, held):
    from tests.conftest import make_flow

    def at(*bins):
        return FlowDataset.from_records([make_flow(time=60 * b + 1) for b in bins])

    engine = StreamingScrubber(label_grace_bins=grace)
    for bin_id in range(6):
        engine.ingest(at(bin_id))
    watermark = 5 - max(grace, 1)  # bin 5 is still open
    engine.ingest(at(watermark, watermark + 1, 5))
    assert engine.registry.counter("streaming.late_flows").value == 1
    assert engine.stats.flows_ingested == 9
    # The straggler ahead of the watermark joins its bin's pending
    # labels, and the open bin takes its flow.
    flows = {b: len(FlowDataset.concat(p)) for b, p in engine._open_bins.items()}
    assert {**flows, **{b: len(f) for b, f in engine._pending_label.items()}} == held


@pytest.mark.parametrize("seed", range(3))
def test_a_shuffled_multi_bin_chunk_splits_per_bin_in_stream_order(seed):
    """``ingest`` groups a multi-bin chunk by bin once; each bin's part,
    stragglers included, must be that bin's flows in chunk order."""
    from tests import strategies

    rng = strategies.rng_for(seed)
    first = strategies.flows(rng, n_flows=300, n_bins=6, start_bin=0)
    # Bins 2-4 are stragglers (closed, still waiting for labels), bin 5
    # is the open one, bins 6-8 are new.
    chunk = strategies.shuffled(rng, strategies.flows(rng, n_flows=500, n_bins=7, start_bin=2))
    engine = StreamingScrubber(label_grace_bins=10**6)
    engine.ingest(first)
    assert engine.ingest(chunk) == []
    held = {**engine._pending_label,
            **{b: FlowDataset.concat(parts) for b, parts in engine._open_bins.items()}}
    assert sorted(held) == list(range(9))
    for bin_id, flows in held.items():
        strategies.assert_same_flows(flows, FlowDataset.concat(
            [part.select(part.time // 60 == bin_id) for part in (first, chunk)]
        ))


def test_a_snapshot_with_history_behind_the_watermark_sheds_it(stream_capture):
    """A snapshot whose registry holds closed blackhole events behind
    the watermark restores, and the next tick forgets them."""
    from repro.bgp.blackhole import BlackholeEvent
    from repro.bgp.prefix import Prefix
    from repro.core.recovery.session import iter_chunks

    profile, capture = stream_capture

    def make():
        return StreamingScrubber(window_days=2, bins_per_day=profile.bins_per_day, seed=1)

    engine = make()
    ticks = iter_chunks(capture.flows, capture.updates)
    for tick, chunk, updates in ticks:
        engine.ingest(chunk, updates)
        if tick == 12:
            break
    engine._blackholes._events.insert(0, BlackholeEvent(Prefix.host(1), 64512, 0, 30))
    restored = make().restore_state(engine.capture_state())
    assert restored._blackholes._events[0].end == 30
    _, chunk, updates = next(ticks)
    restored.ingest(chunk, updates)
    assert_nothing_behind_the_watermark(restored)


@pytest.mark.slow
def test_state_is_bounded_by_the_watermark_not_the_uptime():
    """Sixty days of the ``repro stream`` profile: the bins held for
    labelling and the blackhole history stay within the grace at day 10
    and at day 60 alike; without the watermark the history grows by the
    day."""
    from repro.core.recovery.session import iter_chunks

    profile = IXPProfile(
        name="IXP-STATS", region=11, n_members=8, traffic_scale=0.01,
        attacks_per_day=14.0, attack_intensity=25.0,
        benign_flows_per_target=5.0, benign_targets_per_minute=24,
        bins_per_day=48, seed=1,
    )
    capture = WorkloadGenerator(IXPFabric(profile)).generate(0, 60)
    engine = StreamingScrubber(
        config=ScrubberConfig(model="XGB", model_params={"n_estimators": 10}),
        window_days=2,
        bins_per_day=profile.bins_per_day,
        seed=1,
    )
    checked = []
    for tick, chunk, updates in iter_chunks(capture.flows, capture.updates, start_bin=0):
        engine.ingest(chunk, updates)
        day, rest = divmod((tick + 1) * 8, profile.bins_per_day)
        if rest == 0 and day in (10, 60):
            assert_nothing_behind_the_watermark(engine)
            checked.append(day)
    assert checked == [10, 60]
    assert engine.stats.retrainings >= 59
