"""Tests for Weight of Evidence encoding."""

import math

import numpy as np
import pytest

from repro.core.encoding.woe import UNKNOWN_WOE, WoEEncoder, WoETable
from repro.core.features import schema
from repro.core.features.aggregation import aggregate
from repro.netflow.dataset import FlowDataset
from tests.conftest import make_flow


def build_data(n_attack=30, n_benign=30, attack_port=123, benign_port=443):
    """Aggregated data where attack records see ``attack_port`` and
    benign records see ``benign_port``."""
    records = []
    for i in range(n_attack):
        records.append(
            make_flow(time=i * 60, src_ip=1000 + i, dst_ip=1, src_port=attack_port, blackhole=True)
        )
    for i in range(n_benign):
        records.append(
            make_flow(time=i * 60, src_ip=2000 + i, dst_ip=2, src_port=benign_port, protocol=6)
        )
    return aggregate(FlowDataset.from_records(records))


def table_of(domain, mapping):
    """A table from a ``value -> WoE`` dict."""
    items = sorted(mapping.items())
    return WoETable(
        domain,
        np.array([v for v, _ in items], dtype=np.int64),
        np.array([w for _, w in items], dtype=np.float64),
    )


class TestWoETable:
    def test_unknown_is_neutral(self):
        table = table_of("src_port", {123: 2.0})
        assert table.encode_value(9999) == UNKNOWN_WOE

    def test_encode_vectorised(self):
        table = table_of("src_port", {1: 1.5, 2: -0.5})
        values = table.encode(np.array([1, 2, 3, 1], dtype=np.int64))
        np.testing.assert_allclose(values, [1.5, -0.5, 0.0, 1.5])

    def test_high_evidence_values(self):
        table = table_of("src_ip", {1: 2.0, 2: 0.5, 3: 1.01})
        assert table.high_evidence_values(1.0) == {1, 3}

    def test_override(self):
        table = table_of("src_port", {80: 1.0, 443: -1.0})
        ports = np.array([80, 81, 443], dtype=np.int64)
        np.testing.assert_array_equal(table.encode(ports), [1.0, 0.0, -1.0])
        table.set_override(80, -5.0)
        table.set_override(81, 2.0)
        assert table.encode_value(80) == -5.0
        np.testing.assert_array_equal(table.encode(ports), [-5.0, 2.0, -1.0])
        # Still one sorted key per value: what check() asks of a loaded table.
        assert table.values.tolist() == [80, 81, 443]
        table.check()


class TestWoEEncoder:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            WoEEncoder().table("src_port")

    def test_attack_port_positive_benign_negative(self):
        data = build_data()
        encoder = WoEEncoder(min_count=1).fit(data)
        table = encoder.table("src_port")
        assert table.encode_value(123) > 1.0
        assert table.encode_value(443) < -1.0

    def test_min_count_suppresses_rare_values(self):
        data = build_data()
        encoder = WoEEncoder(min_count=5).fit(data)
        # Each src_ip appears once -> below min_count -> neutral.
        assert encoder.table("src_ip").encode_value(1000) == UNKNOWN_WOE

    def test_min_count_keeps_frequent_values(self):
        data = build_data()
        encoder = WoEEncoder(min_count=5).fit(data)
        assert encoder.table("src_port").encode_value(123) > 0.0

    def test_exact_value_on_known_counts(self):
        """Hand-check the smoothed WoE for a clean split."""
        n = 30
        data = build_data(n_attack=n, n_benign=n)
        encoder = WoEEncoder(min_count=1).fit(data)
        # Port 123 occupies the rank-0 slot of every attack record for
        # each of the 3 metrics; 15 slots per record total but only one
        # distinct port -> it fills rank 0 for all 3 metrics = 3 slots
        # per record (other ranks are MISSING).
        pos_count = 3 * n
        denom_pos = n * schema.RANKS * len(schema.METRICS)
        denom_neg = n * schema.RANKS * len(schema.METRICS)
        expected = math.log(
            ((pos_count + 1.0) / (denom_pos + 1.0)) / ((0 + 1.0) / (denom_neg + 1.0))
        )
        assert encoder.table("src_port").encode_value(123) == pytest.approx(expected)

    def test_transform_shapes(self):
        data = build_data()
        encoder = WoEEncoder(min_count=1).fit(data)
        for name, values in data.categorical.items():
            assert encoder.encode_column(name, values).shape == (len(data),)

    def test_encode_column_rejects_value_columns(self):
        data = build_data()
        encoder = WoEEncoder(min_count=1).fit(data)
        with pytest.raises(ValueError):
            encoder.encode_column("src_ip/bytes/0/value", np.array([1]))

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            WoEEncoder(min_count=0)

    def test_single_class_data_fits(self):
        records = [
            make_flow(time=i * 60, dst_ip=1, blackhole=True) for i in range(5)
        ]
        data = aggregate(FlowDataset.from_records(records))
        encoder = WoEEncoder(min_count=1).fit(data)
        assert encoder.is_fitted


class TestGroupByEqualsLoop:
    """The one-pass fit against the per-column dict loop of
    ``tests/reference_woe.py``: every table's sorted (value, WoE) pairs,
    bit for bit."""

    @staticmethod
    def _data(seed):
        from tests import strategies

        flows = strategies.labeled_flows(strategies.rng_for(seed), n_flows=600, n_bins=4)
        return aggregate(flows)

    @pytest.mark.parametrize("seed", range(6))
    def test_fit(self, seed):
        from tests.reference_woe import ReferenceWoE, assert_same_tables

        data = self._data(seed)
        for min_count in (1, 5):
            assert_same_tables(WoEEncoder(min_count).fit(data), ReferenceWoE(min_count).fit(data))

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(build_data(), id="all-missing-lower-ranks"),
            pytest.param(build_data(n_benign=0), id="no-benign-record"),
            pytest.param(build_data(n_attack=0), id="no-blackhole-record"),
            pytest.param(build_data().select(np.zeros(60, dtype=bool)), id="no-record"),
        ],
    )
    def test_edge_cases(self, data):
        from tests.reference_woe import ReferenceWoE, assert_same_tables

        encoder = WoEEncoder(min_count=1).fit(data)
        assert_same_tables(encoder, ReferenceWoE(1).fit(data))
        for table in encoder.tables.values():
            table.check()

    def test_refit_replaces_every_table(self):
        from tests.reference_woe import ReferenceWoE, assert_same_tables

        old = build_data(attack_port=123, benign_port=443)
        fresh = build_data(attack_port=53, benign_port=80)
        encoder = WoEEncoder(min_count=1).fit(old)
        encoder.table("src_port").set_override(9999, 3.0)
        assert_same_tables(encoder.fit(fresh), ReferenceWoE(1).fit(fresh))
