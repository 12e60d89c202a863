"""Tests for flow -> per-target aggregation (Fig. 7)."""

import numpy as np
import pytest

from repro.core.features import aggregation, schema
from repro.core.features.aggregation import AggregatedDataset, aggregate
from repro.core.rules.model import PortMatch, TaggingRule
from repro.netflow.dataset import FlowDataset
from tests import strategies
from tests.conftest import make_flow
from repro.obs import names as metric_names
from tests.reference_aggregate import assert_bitwise_equal, reference_aggregate, restricted


class TestAggregate:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate(FlowDataset.empty())

    def test_group_count(self, handmade_flows):
        data = aggregate(handmade_flows)
        # (bin 0: targets 100, 200), (bin 1: targets 100, 300).
        assert len(data) == 4

    def test_labels_any_blackhole(self, handmade_flows):
        data = aggregate(handmade_flows)
        by_key = {
            (int(data.bins[i]), int(data.targets[i])): bool(data.labels[i])
            for i in range(len(data))
        }
        assert by_key[(0, 100)] is True
        assert by_key[(0, 200)] is False
        assert by_key[(1, 100)] is True
        assert by_key[(1, 300)] is False

    def test_n_flows(self, handmade_flows):
        data = aggregate(handmade_flows)
        by_key = {
            (int(data.bins[i]), int(data.targets[i])): int(data.n_flows[i])
            for i in range(len(data))
        }
        assert by_key[(0, 100)] == 3
        assert by_key[(1, 300)] == 4

    def test_ranking_by_bytes(self, handmade_flows):
        """Top source port by bytes in bin 0 / target 100 must be 123."""
        data = aggregate(handmade_flows)
        idx = next(
            i for i in range(len(data))
            if data.bins[i] == 0 and data.targets[i] == 100
        )
        top_port = data.categorical[schema.key_column("src_port", "bytes", 0)][idx]
        top_bytes = data.metrics[schema.value_column("src_port", "bytes", 0)][idx]
        assert top_port == 123
        assert top_bytes == 23400 + 18720  # both NTP flows summed per key

    def test_rank_aggregates_per_key(self):
        """Two flows from the same source IP aggregate into one rank."""
        flows = FlowDataset.from_records(
            [
                make_flow(time=0, src_ip=7, dst_ip=1, packets=10, bytes_=1000),
                make_flow(time=1, src_ip=7, dst_ip=1, packets=30, bytes_=3000),
                make_flow(time=2, src_ip=8, dst_ip=1, packets=5, bytes_=500),
            ]
        )
        data = aggregate(flows)
        assert len(data) == 1
        assert data.categorical[schema.key_column("src_ip", "bytes", 0)][0] == 7
        assert data.metrics[schema.value_column("src_ip", "bytes", 0)][0] == 4000
        assert data.categorical[schema.key_column("src_ip", "bytes", 1)][0] == 8

    def test_missing_ranks_marked(self):
        flows = FlowDataset.from_records([make_flow(time=0, dst_ip=1)])
        data = aggregate(flows)
        # Only one distinct source IP -> ranks 1..4 missing.
        assert data.categorical[schema.key_column("src_ip", "bytes", 1)][0] == schema.MISSING_KEY
        assert np.isnan(data.metrics[schema.value_column("src_ip", "bytes", 1)][0])

    def test_weighted_mean_packet_size(self):
        flows = FlowDataset.from_records(
            [
                make_flow(time=0, src_ip=7, dst_ip=1, packets=1, bytes_=100),
                make_flow(time=1, src_ip=7, dst_ip=1, packets=3, bytes_=900),
            ]
        )
        data = aggregate(flows)
        size = data.metrics[schema.value_column("src_ip", "packet_size", 0)][0]
        assert size == pytest.approx(1000 / 4)

    def test_feature_count(self, handmade_flows):
        data = aggregate(handmade_flows)
        assert len(data.feature_names) == 150

    def test_rule_annotations(self, handmade_flows):
        rule = TaggingRule(
            rule_id="ntp1", confidence=0.99, support=0.1,
            protocol=17, port_src=PortMatch(values=frozenset({123})),
        )
        data = aggregate(handmade_flows, rules=[rule])
        by_key = {
            (int(data.bins[i]), int(data.targets[i])): data.rule_tags[i]
            for i in range(len(data))
        }
        assert by_key[(0, 100)] == ("ntp1",)
        assert by_key[(0, 200)] == ()

    def test_no_rules_no_annotations(self, handmade_flows):
        assert aggregate(handmade_flows).rule_tags is None


class TestOnePassRanking:
    """All five categoricals rank in stacked passes, record ``r`` of the
    ``c``-th one as group ``c * n + r``; the blocks come back as rows
    (categorical, metric, rank). A row or column mix-up in that reshape
    would move ranks between categoricals, which only shows where their
    absent ranks differ."""

    @staticmethod
    def mixed_flows(seed: int, n_targets: int) -> FlowDataset:
        """Each (record, categorical) draws its keys from 1, 2, RANKS or
        RANKS + 3 values, so one record has all ranks in some
        categoricals and four absent in others."""
        rng = strategies.rng_for(seed)
        flows = strategies.flows(rng, n_flows=60 * n_targets, n_targets=n_targets, n_bins=1)
        targets, record = np.unique(flows.dst_ip, return_inverse=True)
        choices = np.array([1, 2, schema.RANKS, schema.RANKS + 3])
        distinct = rng.choice(choices, size=(targets.shape[0], len(schema.CATEGORICALS)))
        columns = flows.to_columns()
        for c, cat in enumerate(schema.CATEGORICALS):
            keys = rng.integers(0, 2**16, size=len(flows)) % distinct[record, c]
            columns[cat] = (keys + 3 * c + 1).astype(columns[cat].dtype)
        return FlowDataset(columns)

    @pytest.mark.parametrize(
        "pass_segments, n_passes",
        [(1, (5, 5)), (120, (2, 4)), (1 << 30, (1, 1))],
        ids=["per-categorical", "split", "one-pass"],
    )
    def test_matches_reference(self, monkeypatch, pass_segments, n_passes):
        """12 records (≈ 50 segments per categorical), and one record."""
        monkeypatch.setattr(aggregation, "_RANK_PASS_SEGMENTS", pass_segments)
        passes = []
        rank_pass = aggregation._rank_pass

        def recorded(segments, *args):
            passes.append(len(segments))
            rank_pass(segments, *args)

        monkeypatch.setattr(aggregation, "_rank_pass", recorded)
        for seed in range(4):
            for n_targets in (12, 1):
                flows = self.mixed_flows(seed, n_targets)
                passes.clear()
                data = aggregate(flows)
                assert len(data) == n_targets
                assert_bitwise_equal(data, reference_aggregate(flows), seed)
                if n_targets == 12:
                    assert n_passes[0] <= len(passes) <= n_passes[1], passes


class TestAggregatedDataset:
    def test_select_mask(self, handmade_flows):
        data = aggregate(handmade_flows)
        subset = data.select(data.labels)
        assert len(subset) == int(data.labels.sum())
        assert subset.labels.all()

    def test_concat(self, handmade_flows):
        data = aggregate(handmade_flows)
        merged = AggregatedDataset.concat([data, data])
        assert len(merged) == 2 * len(data)
        assert merged.feature_names == data.feature_names

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            AggregatedDataset.concat([])

    def test_time_split(self, handmade_flows):
        data = aggregate(handmade_flows)
        before, after = data.time_split(1)
        assert (before.bins < 1).all()
        assert (after.bins >= 1).all()
        assert len(before) + len(after) == len(data)

    def test_blackhole_share(self, handmade_flows):
        data = aggregate(handmade_flows)
        assert data.blackhole_share == pytest.approx(0.5)

    def test_select_keeps_rule_tags(self, handmade_flows):
        rule = TaggingRule(
            rule_id="ntp1", confidence=0.99, support=0.1,
            protocol=17, port_src=PortMatch(values=frozenset({123})),
        )
        data = aggregate(handmade_flows, rules=[rule])
        subset = data.select(data.labels)
        assert len(subset.rule_tags) == len(subset)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=300),  # time
            st.integers(min_value=1, max_value=5),  # dst ip
            st.integers(min_value=1, max_value=8),  # src ip
            st.sampled_from([53, 123, 443, 4444]),  # src port
            st.integers(min_value=1, max_value=50),  # packets
            st.booleans(),  # blackhole
        ),
        min_size=1,
        max_size=80,
    )
)
def test_aggregation_invariants(rows):
    """Property test: aggregation partitions flows, labels are ORs of
    flow labels, and rankings are sorted descending."""
    flows = FlowDataset.from_records(
        [
            make_flow(
                time=t, dst_ip=dst, src_ip=src, src_port=port,
                packets=packets, bytes_=packets * 500, blackhole=bh,
            )
            for t, dst, src, port, packets, bh in rows
        ]
    )
    data = aggregate(flows)

    # Partition: every flow lands in exactly one record.
    assert int(data.n_flows.sum()) == len(flows)

    # Labels: record is positive iff any of its flows is blackholed.
    bins = flows.time_bin()
    for i in range(len(data)):
        mask = (bins == data.bins[i]) & (flows.dst_ip == data.targets[i])
        assert bool(data.labels[i]) == bool(flows.blackhole[mask].any())

    # Rankings: metric values descending, missing ranks trail.
    for cat in schema.CATEGORICALS:
        for metric in schema.METRICS:
            previous = None
            for r in range(schema.RANKS):
                value = data.metrics[schema.value_column(cat, metric, r)]
                key = data.categorical[schema.key_column(cat, metric, r)]
                for i in range(len(data)):
                    v = value[i]
                    if key[i] == schema.MISSING_KEY:
                        assert np.isnan(v)
                    elif r > 0:
                        prev = data.metrics[schema.value_column(cat, metric, r - 1)][i]
                        if not np.isnan(prev):
                            assert v <= prev + 1e-9


@st.composite
def _column_sets(draw) -> list[str]:
    """A few columns over a few categoricals and metrics, the shape of
    what a fitted forest reads."""
    cats = draw(st.lists(st.sampled_from(schema.CATEGORICALS), unique=True, min_size=1))
    metrics = draw(st.lists(st.sampled_from(schema.METRICS), unique=True, min_size=1))
    cells = [
        column(c, m, r)
        for c in cats for m in metrics for r in range(schema.RANKS)
        for column in (schema.key_column, schema.value_column)
    ]
    return draw(st.lists(st.sampled_from(cells), unique=True, min_size=1, max_size=8))


class TestPushedDown:
    """``aggregate(flows, rules, min_flows=k, columns=C)`` — what the
    classify path asks for — is ``aggregate(flows, rules)`` selected to
    ``n_flows >= k`` and restricted to ``C``, bit for bit, and holds no
    other column. The kernel drops small records right after the group
    sort, before tagging and ranking, and ranks only the categoricals
    and metrics ``C`` names."""

    KEY_ONLY = [schema.key_column("dst_port", m, r) for m in schema.METRICS for r in range(2)]
    VALUE_ONLY = [schema.value_column("src_mac", "packets", r) for r in range(schema.RANKS)]
    #: Two categoricals, two of the three metrics: the blocks' rows are
    #: (categorical, metric, rank) over just these.
    MIXED = [
        schema.value_column("src_ip", "packets", 0),
        schema.key_column("protocol", "bytes", 1),
        schema.value_column("protocol", "packets", 4),
    ]

    @staticmethod
    def draw(seed: int, with_rules: bool) -> tuple[FlowDataset, list]:
        rng = strategies.rng_for(seed)
        flows = strategies.flows(
            rng, n_flows=int(rng.integers(1, 300)), n_targets=int(rng.integers(1, 20)),
            n_bins=int(rng.integers(1, 4)),
        )
        if rng.random() < 0.2:  # some flows without packets: sizes divide by zero
            flows = strategies.without_packets(flows, np.arange(0, len(flows), 7))
        return flows, strategies.header_rules(rng, 6) if with_rules else []

    @staticmethod
    def check(flows, rules, k, columns, label) -> AggregatedDataset:
        got = aggregate(flows, rules, min_flows=k, columns=columns)
        full = aggregate(flows, rules)
        expected = full.select(full.n_flows >= k)
        if columns is not None:
            expected = restricted(expected, columns)
        assert_bitwise_equal(got, expected, label, columns)
        return got

    @pytest.mark.parametrize("with_rules", [False, True], ids=["untagged", "tagged"])
    @pytest.mark.parametrize(
        "columns",
        [None, (), KEY_ONLY, VALUE_ONLY, MIXED, schema.all_columns()],
        ids=["default", "none", "key-only", "value-only", "mixed", "all-150"],
    )
    def test_named_cases(self, columns, with_rules):
        for seed in range(6):
            flows, rules = self.draw(seed, with_rules)
            for k in (1, 2, 4):
                self.check(flows, rules, k, columns, (seed, k))

    @pytest.mark.parametrize("columns", [None, (), VALUE_ONLY], ids=["all", "none", "value-only"])
    def test_min_flows_above_every_record(self, columns):
        """Every record dropped: an empty dataset that still has its
        bins, targets, labels, flow counts and (empty) tag list, typed
        as the full one's."""
        flows, rules = self.draw(3, True)
        data = self.check(flows, rules, len(flows) + 1, columns, "empty")
        assert len(data) == 0 and data.rule_tags == []
        assert data.bins.dtype == np.int64 and data.targets.dtype == np.uint32
        for column in data.metrics.values():
            assert column.shape == (0,)

    def test_holds_no_other_column(self):
        flows, _ = self.draw(1, False)
        data = aggregate(flows, columns=self.VALUE_ONLY)
        assert data.feature_names == self.VALUE_ONLY
        with pytest.raises(KeyError):
            data.categorical[schema.key_column("src_ip", "bytes", 0)]

    def test_rejects_unknown_columns(self):
        flows, _ = self.draw(1, False)
        with pytest.raises(ValueError, match="not schema columns"):
            aggregate(flows, columns=["src_ip/bytes/9"])

    def test_counts_only_the_records_it_builds(self):
        from repro import obs

        flows, _ = self.draw(2, False)
        full = aggregate(flows)
        registry = obs.MetricRegistry()
        with obs.use_registry(registry):
            aggregate(flows, min_flows=3, columns=())
        counted = registry.counter(metric_names.C_FEATURES_RECORDS_AGGREGATED).value
        assert counted == int((full.n_flows >= 3).sum())

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        with_rules=st.booleans(),
        k=st.sampled_from([1, 2, 3, 5, 8, 10**6]),
        columns=st.one_of(
            st.none(),
            st.lists(st.sampled_from(schema.all_columns()), unique=True, max_size=24),
            _column_sets(),
        ),
    )
    def test_equals_selected_full_aggregate(self, seed, with_rules, k, columns):
        flows, rules = self.draw(seed, with_rules)
        self.check(flows, rules, k, columns, (seed, k, columns))
