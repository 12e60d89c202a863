"""Training from per-day summaries equals training from the window's flows.

``IXPScrubber.fit`` reads a :class:`~repro.core.scrubber.TrainingWindow`:
each day's records, aggregated once without rule tags, and its header
table, summed for mining. The oracle is the fit as it was when the
engine concatenated the window's flows: mine the flows, aggregate them
with rule tags, fit WoE and the classifier on those records. Every
check is bit for bit: records, item encoder, accepted rule ids in
order, WoE tables in insertion order, and the persisted model's bytes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import streaming
from repro.core.features.aggregation import AggregatedDataset, aggregate
from repro.core.labeling.balancer import balance
from repro.core.persistence import scrubber_to_dict
from repro.core.rules.items import HeaderTable
from repro.core.rules.mining import mine_rules
from repro.core.scrubber import IXPScrubber, ScrubberConfig, TrainingWindow
from repro.core.streaming import StreamingScrubber
from repro.ixp.fabric import IXPFabric
from repro.ixp.profiles import IXPProfile
from repro.netflow.dataset import FlowDataset
from repro.traffic.workload import WorkloadGenerator
from tests import strategies
from tests.reference_aggregate import assert_bitwise_equal
from tests.reference_woe import woe_items

CONFIG = ScrubberConfig(model="XGB", model_params={"n_estimators": 6})
BINS_PER_DAY = 4


def flow_fit(config: ScrubberConfig, flows: FlowDataset) -> IXPScrubber:
    """The fit from the window's flows as one batch."""
    scrubber = IXPScrubber(config)
    scrubber.mine_tagging_rules(flows)
    return scrubber.fit_aggregated(scrubber.aggregate_flows(flows))


def window_flows(window: TrainingWindow) -> FlowDataset:
    return FlowDataset.concat([part for parts in window.days.values() for part in parts])


def assert_same_fit(got: IXPScrubber, want: IXPScrubber) -> None:
    assert got.item_encoder == want.item_encoder
    assert [r.rule_id for r in got.accepted_rules] == [r.rule_id for r in want.accepted_rules]
    assert woe_items(got.woe) == woe_items(want.woe)
    assert json.dumps(scrubber_to_dict(got)) == json.dumps(scrubber_to_dict(want))


def day_parts(seed: int, n_days: int) -> dict[int, list[FlowDataset]]:
    """Balanced flows of ``n_days`` days, each split into one to three
    parts; a part may hold flows of any bin of its day, as a late part
    of a re-opened bin does."""
    rng = strategies.rng_for(seed)
    flows = strategies.labeled_flows(
        rng, n_flows=700 * n_days, n_targets=10, n_bins=BINS_PER_DAY * n_days
    )
    flows = balance(flows, np.random.default_rng(seed)).flows
    days = flows.time_bin() // BINS_PER_DAY
    out = {}
    for day in np.unique(days).tolist():
        index = np.flatnonzero(days == day)
        part_of = rng.integers(0, int(rng.integers(1, 4)), size=index.shape[0])
        out[day] = [flows.select(index[part_of == p]) for p in np.unique(part_of)]
    return out


class TestTrainingWindow:
    @pytest.mark.parametrize("n_days", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_window_fit_equals_flow_fit(self, n_days, seed):
        window = TrainingWindow(day_parts(seed, n_days))
        assert len(window) == len(window_flows(window))
        flows = window_flows(window)
        got = IXPScrubber(CONFIG).fit(window)
        assert_same_fit(got, flow_fit(CONFIG, flows))
        records = AggregatedDataset.concat([day.records for day in window.summarize()])
        assert_bitwise_equal(records, aggregate(flows), "summary records")

    def test_flows_fit_as_a_window_of_one_day(self):
        flows = window_flows(TrainingWindow(day_parts(2, 3)))
        assert_same_fit(IXPScrubber(CONFIG).fit(flows), flow_fit(CONFIG, flows))

    def test_days_are_read_in_day_order(self):
        parts = day_parts(3, 3)
        shuffled = {day: parts[day] for day in (2, 0, 1)}
        window = TrainingWindow(shuffled)
        assert list(window.days) == [0, 1, 2]
        assert_same_fit(IXPScrubber(CONFIG).fit(window), flow_fit(CONFIG, window_flows(window)))

    def test_only_new_or_grown_days_are_summarized(self):
        parts = day_parts(4, 3)
        memo: dict = {}
        IXPScrubber(CONFIG).fit(TrainingWindow({0: parts[0], 1: parts[1][:1]}, memo))
        first = dict(memo)
        # Day 1 grows by a late part, day 2 is new, day 0 is unchanged.
        window = TrainingWindow({0: parts[0], 1: parts[1], 2: parts[2]}, memo)
        got = IXPScrubber(CONFIG).fit(window)
        assert memo[0] is first[0]
        assert (memo[1] is first[1]) == (len(parts[1]) == 1)
        assert set(memo) == {0, 1, 2}
        assert_same_fit(got, flow_fit(CONFIG, window_flows(window)))

    @pytest.mark.parametrize("seed", range(4))
    def test_mining_from_stacked_header_tables(self, seed):
        parts = day_parts(seed, 3)
        flows = FlowDataset.concat([part for day in parts.values() for part in day])
        headers = HeaderTable.concat(
            [HeaderTable.of(FlowDataset.concat(day)) for day in parts.values()]
        )
        assert headers.n_flows == len(flows)
        got, want = mine_rules(headers), mine_rules(flows)
        assert got.encoder == want.encoder
        assert got.blackhole_rules == want.blackhole_rules
        assert (got.n_rules, got.n_transactions, got.n_frequent_itemsets) == (
            want.n_rules,
            want.n_transactions,
            want.n_frequent_itemsets,
        )
        assert got.encoder.distinct(headers)[1].shape == want.encoder.distinct(flows)[1].shape


# ----------------------------------------------------------------------
# The engine: every retrain, across resume and late bins.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stream_capture():
    profile = IXPProfile(
        name="IXP-STREAM", region=11, n_members=8, traffic_scale=0.01,
        attacks_per_day=14.0, attack_intensity=25.0,
        benign_flows_per_target=5.0, benign_targets_per_minute=24,
        bins_per_day=48, seed=55,
    )
    return profile, WorkloadGenerator(IXPFabric(profile)).generate(0, 3)


@pytest.fixture
def checked_fits(monkeypatch):
    """Every engine retrain also fits the window's flows and compares."""
    fits = []

    class CheckedScrubber(IXPScrubber):
        def fit(self, training):
            super().fit(training)
            assert isinstance(training, TrainingWindow)
            assert_same_fit(self, flow_fit(self.config, window_flows(training)))
            fits.append((sorted(training.days), len(training)))
            return self

    monkeypatch.setattr(streaming, "IXPScrubber", CheckedScrubber)
    return fits


def chunks(capture, chunk_bins=8):
    """(flows, updates) in time order, ``chunk_bins`` bins at a time."""
    flows = capture.flows
    updates = sorted(capture.updates, key=lambda u: u.time)
    bins = flows.time // 60
    u = 0
    for start in range(int(bins.min()), int(bins.max()) + 1, chunk_bins):
        end = start + chunk_bins
        batch = []
        while u < len(updates) and updates[u].time < end * 60:
            batch.append(updates[u])
            u += 1
        yield flows.select((bins >= start) & (bins < end)), batch


def make_engine(profile, window_days=2):
    return StreamingScrubber(
        config=CONFIG, window_days=window_days, bins_per_day=profile.bins_per_day, seed=1
    )


class TestEngineRetrains:
    @pytest.mark.parametrize("window_days", [1, 2, 3])
    def test_every_retrain_equals_flow_fit(self, stream_capture, checked_fits, window_days):
        profile, capture = stream_capture
        engine = make_engine(profile, window_days)
        for flows, updates in chunks(capture):
            engine.ingest(flows, updates)
        engine.flush()
        assert len(checked_fits) >= 2
        assert engine.stats.training_flows == checked_fits[-1][1]
        assert set(engine._day_summaries) <= set(engine._day_buffers)

    def test_resume_mid_window_rebuilds_summaries(self, stream_capture, checked_fits):
        profile, capture = stream_capture
        steps = list(chunks(capture))
        whole = make_engine(profile)
        want = [whole.ingest(*step) for step in steps] + [whole.flush()]

        first = make_engine(profile)
        got = []
        for step in steps:
            got.append(first.ingest(*step))
            if first._last_trained_day == 1:
                break
        assert first._day_summaries
        resumed = make_engine(profile).restore_state(first.capture_state())
        assert resumed._day_summaries == {}
        got += [resumed.ingest(*step) for step in steps[len(got):]] + [resumed.flush()]
        assert resumed._day_summaries

        assert [[(v.bin, v.target_ip, v.score) for v in tick] for tick in got] == [
            [(v.bin, v.target_ip, v.score) for v in tick] for tick in want
        ]
        assert json.dumps(scrubber_to_dict(resumed.model)) == json.dumps(
            scrubber_to_dict(whole.model)
        )

    def test_late_part_on_a_summarized_day(self, stream_capture, checked_fits):
        """A bin of a day already summarised is behind the watermark: its
        late part is dropped and counted, and the day stays as it was."""
        profile, capture = stream_capture
        engine = make_engine(profile)
        labeled = capture.labeled_flows()
        day0 = labeled.time_bin() < profile.bins_per_day
        late_bin = int(labeled.time_bin()[day0 & labeled.blackhole].max())
        late = capture.flows.select(capture.flows.time_bin() == late_bin)
        summarized = None
        for flows, updates in chunks(capture):
            engine.ingest(flows, updates)
            if summarized is None and engine._last_trained_day == 1:
                summarized = engine._day_summaries[0]
                assert engine.ingest(late) == []
        engine.flush()
        assert summarized is not None
        assert engine.registry.counter("streaming.late_flows").value == len(late) > 0
        assert engine._day_summaries[0] is summarized
        assert summarized.covers(engine._day_buffers[0])
        assert any(days == [0, 1] for days, _ in checked_fits)


def test_reclosed_pending_bin_keeps_its_earlier_flows():
    """A bin that closes and then takes a late flow while it still waits
    for its labels is labeled on all of its flows."""
    from tests.conftest import make_flow

    def at(*times):
        return FlowDataset.from_records([make_flow(time=t) for t in times])

    engine = StreamingScrubber(label_grace_bins=10)
    engine.ingest(at(60, 61, 62))  # bin 1
    engine.ingest(at(120))  # bin 2 closes bin 1: three flows pending
    engine.ingest(at(63))  # a straggler joins bin 1's pending labels
    engine.ingest(at(121))  # bin 2 grows: nothing closes again
    assert len(engine._pending_label[1]) == 4
    assert engine._pending_label[1].time.tolist() == [60, 61, 62, 63]
