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


class TestWoETable:
    def test_unknown_is_neutral(self):
        table = WoETable(domain="src_port", mapping={123: 2.0})
        assert table.encode_value(9999) == UNKNOWN_WOE

    def test_encode_vectorised(self):
        table = WoETable(domain="src_port", mapping={1: 1.5, 2: -0.5})
        values = table.encode(np.array([1, 2, 3, 1], dtype=np.int64))
        np.testing.assert_allclose(values, [1.5, -0.5, 0.0, 1.5])

    def test_high_evidence_values(self):
        table = WoETable(domain="src_ip", mapping={1: 2.0, 2: 0.5, 3: 1.01})
        assert table.high_evidence_values(1.0) == {1, 3}

    def test_override(self):
        table = WoETable(domain="src_port", mapping={80: 1.0})
        ports = np.array([80, 81], dtype=np.int64)
        np.testing.assert_array_equal(table.encode(ports), [1.0, 0.0])
        table.set_override(80, -5.0)
        table.set_override(81, 2.0)
        assert table.encode_value(80) == -5.0
        np.testing.assert_array_equal(table.encode(ports), [-5.0, 2.0])


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
        encoded = encoder.transform(data)
        assert set(encoded) == set(data.categorical)
        for name, values in encoded.items():
            assert values.shape == (len(data),)

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


class TestIncrementalUpdate:
    def test_update_equals_fit_on_union(self):
        """fit(A) + update(B) must equal fit(A+B) with decay 1."""
        from repro.core.features.aggregation import AggregatedDataset

        a = build_data(n_attack=20, n_benign=20)
        b = build_data(n_attack=10, n_benign=10, attack_port=53, benign_port=80)
        both = AggregatedDataset.concat([a, b])

        incremental = WoEEncoder(min_count=1).fit(a).update(b)
        batch = WoEEncoder(min_count=1).fit(both)
        for domain in incremental.tables:
            assert incremental.tables[domain].mapping == pytest.approx(
                batch.tables[domain].mapping
            )

    def test_decay_forgets_old_evidence(self):
        """Heavy decay lets fresh counter-evidence flip a value's WoE."""
        old = build_data(n_attack=40, n_benign=40, attack_port=123, benign_port=443)
        # Port 123 is now benign (repurposed), 9999 attacks instead.
        fresh = build_data(n_attack=40, n_benign=40, attack_port=9999, benign_port=123)

        sticky = WoEEncoder(min_count=1).fit(old).update(fresh, decay=1.0)
        forgetful = WoEEncoder(min_count=1).fit(old).update(fresh, decay=0.05)
        woe_sticky = sticky.table("src_port").encode_value(123)
        woe_forgetful = forgetful.table("src_port").encode_value(123)
        assert woe_forgetful < woe_sticky
        assert woe_forgetful < 0.0  # fully flipped to benign evidence

    def test_decay_validation(self):
        data = build_data()
        encoder = WoEEncoder(min_count=1).fit(data)
        with pytest.raises(ValueError):
            encoder.update(data, decay=0.0)
        with pytest.raises(ValueError):
            encoder.update(data, decay=1.5)

    def test_update_marks_fitted(self):
        data = build_data()
        encoder = WoEEncoder(min_count=1)
        encoder.update(data)
        assert encoder.is_fitted


class TestGroupByEqualsLoop:
    """One group-by per domain against the per-column dict loop of
    ``tests/reference_woe.py``: counts, tables, and both in the order of
    first appearance, bit for bit."""

    @staticmethod
    def _data(seed):
        from tests import strategies

        flows = strategies.labeled_flows(strategies.rng_for(seed), n_flows=600, n_bins=4)
        return aggregate(flows)

    @pytest.mark.parametrize("seed", range(6))
    def test_fit(self, seed):
        from tests.reference_woe import ReferenceWoE, assert_same_evidence

        data = self._data(seed)
        for min_count in (1, 5):
            assert_same_evidence(
                WoEEncoder(min_count).fit(data), ReferenceWoE(min_count).fit(data)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_update_with_decay(self, seed):
        from tests.reference_woe import ReferenceWoE, assert_same_evidence

        old, fresh = self._data(seed), self._data(seed + 100)
        encoder, reference = WoEEncoder(min_count=2).fit(old), ReferenceWoE(2).fit(old)
        for batch, decay in ((fresh, 0.7), (old, 1 / 7), (fresh, 1.0), (old, 0.7)):
            encoder.update(batch, decay=decay)
            reference.update(batch, decay=decay)
            assert_same_evidence(encoder, reference)

    def test_decayed_counts_take_one_column_at_a_time(self):
        from tests.reference_woe import ReferenceWoE, assert_same_evidence

        # Port 123 holds rank 0 of all three metrics of the one blackholed
        # record: 3/7 after decay 1/7, and ((3/7 + 1) + 1) + 1 != 3/7 + 3.
        data = build_data(n_attack=1, n_benign=1)
        encoder = WoEEncoder(min_count=1).fit(data).update(data, decay=1 / 7)
        assert_same_evidence(encoder, ReferenceWoE(1).fit(data).update(data, decay=1 / 7))

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
        from tests.reference_woe import ReferenceWoE, assert_same_evidence

        assert_same_evidence(WoEEncoder(min_count=1).fit(data), ReferenceWoE(1).fit(data))
        encoder = WoEEncoder(min_count=1).fit(build_data()).update(data, decay=0.7)
        reference = ReferenceWoE(1).fit(build_data()).update(data, decay=0.7)
        assert_same_evidence(encoder, reference)
