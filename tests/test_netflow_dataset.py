"""Unit tests for the columnar flow dataset."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow.dataset import BIN_SECONDS, SCHEMA, FlowDataset
from tests.conftest import make_flow


class TestConstruction:
    def test_empty(self):
        empty = FlowDataset.empty()
        assert len(empty) == 0
        assert empty.total_bytes == 0
        assert empty.blackhole_share == 0.0

    def test_from_records_roundtrip(self):
        flows = [make_flow(time=i, src_port=i) for i in range(5)]
        dataset = FlowDataset.from_records(flows)
        assert len(dataset) == 5
        assert dataset.record(3) == flows[3]

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            FlowDataset({"time": np.zeros(1)})

    def test_unknown_column_rejected(self):
        columns = {name: np.zeros(1, dtype=dtype) for name, dtype in SCHEMA.items()}
        columns["bytes"] = np.ones(1, dtype=np.int64)
        columns["extra"] = np.zeros(1)
        with pytest.raises(ValueError, match="unknown"):
            FlowDataset(columns)

    def test_length_mismatch_rejected(self):
        columns = {name: np.zeros(2, dtype=dtype) for name, dtype in SCHEMA.items()}
        columns["time"] = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="length"):
            FlowDataset(columns)

    def test_non_1d_rejected(self):
        columns = {name: np.zeros(2, dtype=dtype) for name, dtype in SCHEMA.items()}
        columns["time"] = np.zeros((2, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="one-dimensional"):
            FlowDataset(columns)


class TestTransformations:
    def test_select_mask(self, handmade_flows):
        subset = handmade_flows.select(handmade_flows.blackhole)
        assert len(subset) == 5
        assert subset.blackhole.all()

    def test_select_index(self, handmade_flows):
        subset = handmade_flows.select(np.array([0, 2, 4]))
        assert len(subset) == 3
        assert subset.time[1] == handmade_flows.time[2]

    def test_concat(self, handmade_flows):
        merged = FlowDataset.concat([handmade_flows, handmade_flows])
        assert len(merged) == 2 * len(handmade_flows)

    def test_concat_empty_list(self):
        assert len(FlowDataset.concat([])) == 0

    def test_concat_single_is_same(self, handmade_flows):
        assert FlowDataset.concat([handmade_flows]) is handmade_flows

    def test_sort_by_time(self, handmade_flows):
        shuffled = handmade_flows.select(np.random.default_rng(0).permutation(len(handmade_flows)))
        ordered = shuffled.sort_by_time()
        assert (np.diff(ordered.time) >= 0).all()

    def test_time_slice(self, handmade_flows):
        window = handmade_flows.time_slice(60, 120)
        assert (window.time >= 60).all() and (window.time < 120).all()
        assert len(window) == 7

    def test_with_blackhole(self, handmade_flows):
        flags = np.ones(len(handmade_flows), dtype=bool)
        relabeled = handmade_flows.with_blackhole(flags)
        assert relabeled.blackhole.all()
        # Original unchanged.
        assert not handmade_flows.blackhole.all()

    def test_with_blackhole_length_mismatch(self, handmade_flows):
        with pytest.raises(ValueError):
            handmade_flows.with_blackhole(np.ones(3, dtype=bool))


class TestDerived:
    def test_packet_size(self, handmade_flows):
        expected = handmade_flows.bytes / handmade_flows.packets
        assert np.allclose(handmade_flows.packet_size, expected)

    def test_time_bin_default(self, handmade_flows):
        bins = handmade_flows.time_bin()
        assert set(np.unique(bins)) == {0, 1}

    def test_blackhole_share(self, handmade_flows):
        assert handmade_flows.blackhole_share == pytest.approx(5 / 12)

    def test_columns_read_only(self, handmade_flows):
        with pytest.raises(ValueError):
            handmade_flows.time[0] = 99

    def test_iteration_matches_record(self, handmade_flows):
        records = list(handmade_flows)
        assert len(records) == len(handmade_flows)
        assert records[0] == handmade_flows.record(0)


@settings(max_examples=25, deadline=None)
@given(
    times=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50)
)
def test_sort_is_permutation(times):
    dataset = FlowDataset.from_records([make_flow(time=t) for t in times])
    ordered = dataset.sort_by_time()
    assert sorted(times) == list(ordered.time)
    assert len(ordered) == len(dataset)
