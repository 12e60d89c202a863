"""Unit tests for the columnar flow dataset."""

import pickle

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

    def test_columns_are_read_only_and_callers_arrays_stay_writable(self):
        columns = {name: np.zeros(3, dtype=dtype) for name, dtype in SCHEMA.items()}
        dataset = FlowDataset(columns)
        copied = pickle.loads(pickle.dumps(dataset))
        for flows in (dataset, dataset.select(np.ones(3, dtype=bool)), copied):
            for name, array in flows.to_columns().items():
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1
                assert np.shares_memory(array, columns[name]) == (flows is dataset)
        columns["time"][0] = 7
        assert dataset.time[0] == 7 and copied.time[0] == 0


class TestTransformations:
    def test_select_mask(self, handmade_flows):
        subset = handmade_flows.select(handmade_flows.blackhole)
        assert len(subset) == 5
        assert subset.blackhole.all()

    def test_select_index(self, handmade_flows):
        subset = handmade_flows.select(np.array([0, 2, 4]))
        assert len(subset) == 3
        assert subset.time[1] == handmade_flows.time[2]

    def test_select_mask_of_wrong_length_raises(self, handmade_flows):
        for length in (0, len(handmade_flows) - 1, len(handmade_flows) + 1):
            with pytest.raises(IndexError):
                handmade_flows.select(np.ones(length, dtype=bool))
        with pytest.raises(IndexError):
            handmade_flows.select(np.ones((len(handmade_flows), 1), dtype=bool))

    def test_select_out_of_range_index_raises(self, handmade_flows):
        n = len(handmade_flows)
        for index in (np.array([0, n]), np.array([-n - 1])):
            with pytest.raises(IndexError):
                handmade_flows.select(index)
        assert handmade_flows.select(np.array([-1])).record(0) == handmade_flows.record(n - 1)

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


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=60),
    fill=st.sampled_from(["random", "none", "all"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_select_mask_equals_select_index(n, fill, seed):
    """A mask selects the same flows, column for column, as its indices."""
    rng = np.random.default_rng(seed)
    dataset = FlowDataset(
        {
            name: rng.integers(0, 2 if dtype == np.bool_ else 1000, size=n).astype(dtype)
            for name, dtype in SCHEMA.items()
        }
    )
    mask = {
        "random": rng.random(n) < 0.5,
        "none": np.zeros(n, dtype=bool),
        "all": np.ones(n, dtype=bool),
    }[fill]
    by_mask = dataset.select(mask)
    by_index = dataset.select(np.flatnonzero(mask))
    assert len(by_mask) == int(mask.sum())
    for name, dtype in SCHEMA.items():
        column = by_mask.column(name)
        assert column.dtype == dtype
        np.testing.assert_array_equal(column, by_index.column(name))
        np.testing.assert_array_equal(column, dataset.column(name)[mask])


def _numbered(times) -> FlowDataset:
    """Flows at ``times`` whose ``src_ip`` numbers the rows."""
    n = len(times)
    columns = {name: np.zeros(n, dtype=dtype) for name, dtype in SCHEMA.items()}
    columns["time"] = np.asarray(times, dtype=np.int64)
    columns["src_ip"] = np.arange(n, dtype=np.uint32)
    return FlowDataset(columns)


class TestRadixSortByTime:
    """``sort_by_time`` sorts by 16-bit radix passes; it must give the
    rows of ``np.argsort(time, kind="stable")``, ties in stream order."""

    @pytest.mark.parametrize(
        "times",
        [
            [],
            [42],
            [7] * 40,
            [5, -3, 5, -3, 0, -70_000, 5, 0, -3] * 5,
            [2**32 + 5, 3, 2**32 + 5, 2**33, 2**32, 3, -(2**40), 2**62] * 5,
            list(range(100, 0, -1)) * 2,
        ],
        ids=["empty", "one-row", "all-equal", "negative-ties", "past-2^32", "reversed"],
    )
    def test_equals_a_stable_argsort(self, times):
        dataset = _numbered(times)
        expected = np.argsort(np.asarray(times, dtype=np.int64), kind="stable")
        ordered = dataset.sort_by_time()
        assert ordered.src_ip.tolist() == expected.tolist()
        assert ordered.time.dtype == np.int64

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.one_of(
                st.integers(-(2**62), 2**62),
                st.integers(-200, 200),
                st.sampled_from([0, 2**16, 2**32 - 1, 2**32, -1]),
            ),
            max_size=300,
        )
    )
    def test_equals_a_stable_argsort_on_any_times(self, times):
        expected = np.argsort(np.asarray(times, dtype=np.int64), kind="stable")
        assert _numbered(times).sort_by_time().src_ip.tolist() == expected.tolist()


class TestGroups:
    """``group_rows`` and ``FlowDataset.groups``: one stable grouping
    pass, then one copy per group, rows in stream order."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", ["shuffled", "sorted", "constant", "empty"])
    def test_each_group_equals_its_mask(self, seed, shape):
        from repro.netflow.grouping import group_rows

        rng = np.random.default_rng(seed)
        key = {
            "shuffled": rng.integers(-3, 9, size=500),
            "sorted": np.sort(rng.integers(0, 40, size=500)),
            "constant": np.full(200, 6),
            "empty": np.empty(0, dtype=np.int64),
        }[shape]
        dataset = _numbered(rng.integers(0, 10**6, size=key.shape[0]))
        order, groups = group_rows(key)
        assert (order is None) == (shape != "shuffled")
        values, counts = np.unique(key, return_counts=True)
        his = np.cumsum(counts).tolist()
        assert groups == list(zip(values.tolist(), [0, *his[:-1]], his))
        datasets = list(dataset.groups(key))
        assert [value for value, _ in datasets] == values.tolist()
        for value, group in datasets:
            assert group.src_ip.tolist() == np.flatnonzero(key == value).tolist()
            assert not np.shares_memory(group.time, dataset.time)
