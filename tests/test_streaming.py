"""Tests for the streaming (online deployment) engine."""

import numpy as np
import pytest

from repro.core.scrubber import ScrubberConfig
from repro.core.streaming import StreamingScrubber
from repro.ixp.fabric import IXPFabric
from repro.ixp.profiles import IXPProfile
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


def drive(engine, capture, chunk_bins=8):
    """Feed a capture through the engine in time-ordered chunks."""
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
        verdicts.extend(engine.ingest(chunk, chunk_updates))
    verdicts.extend(engine.flush())
    return verdicts


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
