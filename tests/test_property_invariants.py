"""Property-based invariants over seeded random workloads.

Each test draws many random cases from ``tests/strategies.py`` (plain
seeded numpy generators — no third-party property-testing dependency)
and asserts an invariant the pipeline's correctness argument rests on:

* the aggregation kernel is bit-identical to the per-record loop it
  replaced (``tests/reference_aggregate.py``, the oracle);
* WoE encoding is order-consistent with the empirical class odds, and
  the table's array lookup matches the scalar dict probe bitwise;
* the §3 balancer keeps every blackholed flow and never lets benign
  traffic outnumber blackholed traffic in any bin;
* rule matching is deterministic, subset-consistent and idempotent;
* compiled flat-array tree kernels predict bit-identically to the
  recursive traversals of ``tests/reference_trees.py`` for DT and GBT,
  including empty and single-row inputs;
* sharded execution merges to exactly the serial verdict stream for
  shards ∈ {1, 2, 4} across 50 seeded workloads.

A failure always prints the offending seed; reproduce with
``strategies.rng_for(seed)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests import strategies
from tests.reference_aggregate import assert_bitwise_equal, reference_aggregate
from tests.reference_trees import reference_cart_values, reference_forest_margin
from repro.core.encoding.woe import UNKNOWN_WOE, WoEEncoder
from repro.core.features import schema
from repro.core.features.aggregation import aggregate, aggregate_batch
from repro.core.labeling.balancer import balance
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.models.tree import DecisionTree
from repro.core.parallel import ShardedStreamingScrubber
from repro.core.rules.matcher import match_matrix, matched_rule_ids, rule_mask
from repro.core.scrubber import IXPScrubber, ScrubberConfig
from repro.core.streaming import StreamingScrubber
from repro.netflow.dataset import FlowDataset


@pytest.fixture(scope="module")
def fitted_scrubber() -> IXPScrubber:
    """One XGB scrubber fitted on a balanced random workload."""
    rng = strategies.rng_for(999)
    labeled = strategies.labeled_flows(rng, n_flows=6000, n_targets=12, n_bins=20)
    balanced = balance(labeled, np.random.default_rng(7)).flows
    config = ScrubberConfig(model="XGB", model_params={"n_estimators": 10})
    return IXPScrubber(config).fit(balanced)


def _with_columns(flows: FlowDataset, **columns) -> FlowDataset:
    return FlowDataset({**flows.to_columns(), **columns})


class TestBatchAggregation:
    """The kernel against the per-record loop it replaced, bit for bit."""

    def test_batch_path_bit_identical(self):
        for seed in range(8):
            rng = strategies.rng_for(seed)
            flows = strategies.labeled_flows(rng, n_flows=500, n_bins=4)
            rules = (
                strategies.tagging_rules(rng) if seed % 2
                else strategies.header_rules(rng, 70) if seed % 4
                else ()
            )
            expected = reference_aggregate(flows, rules=rules)
            assert_bitwise_equal(aggregate(flows, rules=rules), expected, seed)
            assert_bitwise_equal(aggregate_batch(flows, rules=rules), expected, seed)

    def test_batch_rejects_empty_like_loop_path(self):
        with pytest.raises(ValueError):
            aggregate_batch(FlowDataset.empty())
        with pytest.raises(ValueError):
            reference_aggregate(FlowDataset.empty())

    def test_ties_go_to_the_larger_key(self):
        """Equal metric values everywhere: rank order is key order, descending."""
        rng = strategies.rng_for(100)
        flows = strategies.flows(rng, n_flows=300, n_targets=3, n_bins=2)
        ones = np.ones(len(flows), dtype=np.int64)
        flows = _with_columns(flows, packets=ones, bytes=100 * ones)
        data = aggregate(flows)
        assert_bitwise_equal(data, reference_aggregate(flows), 100)
        first, second = (
            data.categorical[schema.key_column("src_ip", "packet_size", rank)]
            for rank in (0, 1)
        )
        assert (first > second).all()

    @pytest.mark.parametrize("distinct", [1, schema.RANKS - 1, schema.RANKS, schema.RANKS + 1, 40])
    def test_fewer_and_more_keys_than_ranks(self, distinct):
        rng = strategies.rng_for(200 + distinct)
        flows = strategies.flows(rng, n_flows=240, n_targets=2, n_bins=1)
        keys = rng.integers(0, distinct, size=len(flows))
        flows = _with_columns(
            flows,
            src_ip=keys + 7, src_port=keys, dst_port=65535 - keys,
            src_mac=keys + 1, protocol=keys % 256,
        )
        data = aggregate(flows)
        assert_bitwise_equal(data, reference_aggregate(flows), distinct)
        last = data.categorical[schema.key_column("src_port", "bytes", schema.RANKS - 1)]
        assert (last == schema.MISSING_KEY).all() == (distinct < schema.RANKS)

    def test_edge_header_values(self):
        """Protocol 0/255, port 0/65535, MACs beyond 2^48 and beyond int64."""
        rng = strategies.rng_for(300)
        flows = strategies.flows(rng, n_flows=400, n_targets=4, n_bins=3)
        n = len(flows)
        flows = _with_columns(
            flows,
            protocol=rng.choice((0, 6, 17, 255), size=n),
            src_port=rng.choice((0, 123, 65535), size=n),
            dst_port=rng.choice((0, 80, 65535), size=n),
            src_mac=rng.choice(
                np.array([1, 2**48 - 1, 2**48, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64),
                size=n,
            ),
        )
        rules = strategies.header_rules(rng, 20)
        assert_bitwise_equal(
            aggregate(flows, rules=rules), reference_aggregate(flows, rules=rules), 300
        )

    def test_more_than_2_16_records_with_wide_macs(self):
        """Record ids past one 16-bit sort digit, keys past 48 bits, 3 bins.

        The loop would take ten seconds here; records are independent,
        so the batch must equal its bins aggregated one by one (sizes
        the oracle covers above), and a slice of targets the oracle.
        """
        rng = strategies.rng_for(400)
        flows = strategies.wide_flows(rng, n_targets=33000, flows_per_target=3)
        n = len(flows)
        flows = _with_columns(
            flows,
            time=rng.integers(0, 180, size=n),
            src_mac=rng.integers(2**48, 2**62, size=n, dtype=np.uint64),
        )
        rules = strategies.header_rules(rng, 65)
        data = aggregate(flows, rules=rules)
        assert len(data) > 2**16
        bins = flows.time_bin()
        per_bin = [aggregate(flows.select(bins == b), rules=rules) for b in range(3)]
        assert_bitwise_equal(data, type(data).concat(per_bin), 400)
        some = flows.select(flows.dst_ip < np.sort(flows.dst_ip)[3000])
        assert_bitwise_equal(
            aggregate(some, rules=rules), reference_aggregate(some, rules=rules), 400
        )


class TestWoEInvariants:
    def test_woe_order_matches_empirical_odds(self):
        """Pooled WoE must rank values exactly like their class odds.

        With shared per-domain denominators, WoE(u) > WoE(v) iff the
        smoothed odds (pos+1)/(neg+1) of u exceed v's — monotonicity of
        the encoding in the evidence.
        """
        for seed in range(5):
            rng = strategies.rng_for(seed)
            data = aggregate(strategies.labeled_flows(rng, n_flows=800))
            encoder = WoEEncoder(min_count=1).fit(data)
            for domain in schema.CATEGORICALS:
                counts: dict[int, list[float]] = {}
                for metric in schema.METRICS:
                    for rank in range(schema.RANKS):
                        column = data.categorical[
                            schema.key_column(domain, metric, rank)
                        ]
                        for value, label in zip(column, data.labels):
                            pair = counts.setdefault(int(value), [0.0, 0.0])
                            pair[0 if label else 1] += 1.0
                table = encoder.table(domain)
                mapping = dict(zip(table.values.tolist(), table.woes.tolist()))
                values = sorted(mapping)
                odds = {
                    v: (counts[v][0] + 1.0) / (counts[v][1] + 1.0) for v in values
                }
                for u, v in zip(values, values[1:]):
                    assert (mapping[u] > mapping[v]) == (
                        odds[u] > odds[v]
                    ), f"seed {seed}: WoE not monotone in odds for {domain}"

    def test_scalar_and_vector_encodes_agree(self):
        """The array lookup against a dict probe of the same table,
        before and after overrides insert and replace values."""
        for seed in range(5):
            rng = strategies.rng_for(seed)
            data = aggregate(strategies.labeled_flows(rng, n_flows=600))
            encoder = WoEEncoder().fit(data)
            for _ in range(2):
                for name, values in data.categorical.items():
                    table = encoder.table(schema.parse_column(name)[0])
                    probe = dict(zip(table.values.tolist(), table.woes.tolist()))
                    scalar = np.array([probe.get(v, UNKNOWN_WOE) for v in values.tolist()])
                    assert np.array_equal(encoder.encode_column(name, values), scalar), (
                        f"seed {seed}: array lookup differs on {name}"
                    )
                    assert table.encode_value(values[0]) == scalar[0]
                for domain in schema.CATEGORICALS:
                    table = encoder.table(domain)
                    for value in rng.choice(data.categorical[schema.key_column(domain, "bytes", 0)], 3):
                        table.set_override(value, float(rng.normal()))

    def test_lookup_unknowns(self):
        rng = strategies.rng_for(0)
        data = aggregate(strategies.labeled_flows(rng, n_flows=400))
        encoder = WoEEncoder().fit(data)
        unseen = np.array([-(10**9)], dtype=np.int64)
        for domain in schema.CATEGORICALS:
            assert encoder.table(domain).encode(unseen)[0] == UNKNOWN_WOE


class TestBalancerBounds:
    def test_ratio_bounds_hold_on_random_workloads(self):
        for seed in range(10):
            rng = strategies.rng_for(seed)
            labeled = strategies.labeled_flows(rng, n_flows=700, n_bins=5)
            result = balance(labeled, np.random.default_rng(seed))
            report = result.report
            # Every blackholed flow is kept, nothing is invented.
            assert (
                int(result.flows.blackhole.sum()) == int(labeled.blackhole.sum())
            ), f"seed {seed}: blackholed flows dropped"
            assert report.flows_after <= report.flows_before
            assert 0.0 <= report.reduction <= 1.0
            # Per bin, benign never outnumbers blackholed (IPs or flows),
            # hence the blackhole share is >= 0.5 overall.
            assert (report.benign_flows <= report.blackhole_flows).all(), (
                f"seed {seed}: benign flows exceed blackholed in a bin"
            )
            assert (report.benign_ips <= report.blackhole_ips).all(), (
                f"seed {seed}: benign IPs exceed blackholed in a bin"
            )
            assert result.blackhole_share >= 0.5, f"seed {seed}: share < 0.5"


class TestRuleMatcherIdempotence:
    def test_matching_is_deterministic_and_idempotent(self):
        for seed in range(10):
            rng = strategies.rng_for(seed)
            flows = strategies.labeled_flows(rng, n_flows=500)
            rules = strategies.tagging_rules(rng, n_rules=5)
            first = match_matrix(rules, flows)
            again = match_matrix(rules, flows)
            assert np.array_equal(first, again), f"seed {seed}: non-deterministic"
            for j, rule in enumerate(rules):
                mask = rule_mask(rule, flows)
                assert np.array_equal(mask, first[:, j])
                matched = flows.select(mask)
                # Idempotence: re-matching the already-matched subset
                # matches everything again.
                assert rule_mask(rule, matched).all(), (
                    f"seed {seed}: rule {rule.rule_id} not idempotent"
                )
                # Subset consistency: masks restrict like the data.
                subset = np.flatnonzero(flows.dst_ip % 2 == 0)
                assert np.array_equal(
                    rule_mask(rule, flows.select(subset)), mask[subset]
                )


class TestShardMergeDeterminism:
    def test_verdicts_identical_for_1_2_4_shards_on_50_workloads(
        self, fitted_scrubber
    ):
        """The tentpole determinism guarantee, on 50 seeded workloads."""
        engine_kwargs = dict(
            window_days=2,
            bins_per_day=48,
            min_flows_per_verdict=3,
            # Pure-classification runs: the grace period never elapses,
            # so no retrain perturbs the comparison across seeds.
            label_grace_bins=10**6,
            seed=1,
        )
        for seed in range(50):
            rng = strategies.rng_for(seed)
            workload = strategies.labeled_flows(
                rng,
                n_flows=300,
                n_targets=10,
                n_bins=int(rng.integers(2, 5)),
            )
            serial = StreamingScrubber(**engine_kwargs).warm_start(fitted_scrubber)
            expected = serial.ingest(workload) + serial.flush()
            assert expected, f"seed {seed}: workload produced no verdicts"
            for n_shards in (1, 2, 4):
                sharded = ShardedStreamingScrubber(
                    n_shards=n_shards, backend="serial", **engine_kwargs
                ).warm_start(fitted_scrubber)
                actual = sharded.ingest(workload) + sharded.flush()
                assert actual == expected, (
                    f"seed {seed}: shards={n_shards} diverged from serial"
                )


class TestKernelEquivalence:
    """Compiled flat-array kernels are bit-identical to recursion.

    The model-kernel layer replaces every recursive ``_apply`` walk with
    iterative node-index propagation; these properties pin the compiled
    path to the recursive oracle bit-for-bit across random datasets and
    hyperparameters, including empty and single-row prediction inputs.
    """

    @staticmethod
    def _dataset(rng, n, n_features):
        X = rng.normal(size=(n, n_features))
        # A low-cardinality column keeps the binner's short-bin paths hot.
        X[:, 0] = rng.integers(0, 3, size=n)
        y = (X[:, 0] + X[:, 1] > rng.normal(size=n)).astype(np.int64)
        if y.min() == y.max():
            y[: n // 2] = 1 - y[0]
        return X, y

    def test_gbt_margin_matches_recursive_reference(self):
        for seed in range(10):
            rng = strategies.rng_for(seed)
            n = int(rng.integers(50, 400))
            n_features = int(rng.integers(2, 8))
            X, y = self._dataset(rng, n, n_features)
            model = GradientBoostedTrees(
                n_estimators=int(rng.integers(1, 12)),
                max_depth=int(rng.integers(1, 6)),
                learning_rate=float(rng.uniform(0.05, 0.5)),
                reg_lambda=float(rng.choice([0.0, 1.0, 5.0])),
                min_child_weight=float(rng.choice([0.0, 1.0, 10.0])),
            ).fit(X, y)
            for n_test in (0, 1, int(rng.integers(2, 200))):
                Xt = rng.normal(size=(n_test, n_features))
                kernel = model.decision_function(Xt)
                recursive = reference_forest_margin(
                    model.forest_, model.base_score_, model.learning_rate, Xt
                )
                assert np.array_equal(kernel, recursive), (
                    f"seed {seed}: GBT kernel drifted on n_test={n_test}"
                )

    @pytest.mark.parametrize("n_trees", [1, 10, 60])
    def test_gbt_margin_accumulates_trees_in_ensemble_order(self, n_trees):
        """One ``cumsum`` over the tree axis sums each row exactly as the
        per-tree ``margin += lr * tree_output`` loop does, also across a
        propagation-block boundary (4096 rows)."""
        rng = strategies.rng_for(n_trees)
        X, y = self._dataset(rng, 300, 5)
        model = GradientBoostedTrees(
            n_estimators=n_trees, max_depth=4, learning_rate=0.3
        ).fit(X, y)
        assert model.forest_.n_trees == n_trees
        for n_test in (1, 22, 4096 + 37):
            Xt = rng.normal(size=(n_test, 5))
            recursive = reference_forest_margin(
                model.forest_, model.base_score_, model.learning_rate, Xt
            )
            assert np.array_equal(model.decision_function(Xt), recursive), (
                f"{n_trees} trees: margin drifted on n_test={n_test}"
            )

    def test_cart_kernel_matches_recursive_reference(self):
        for seed in range(10):
            rng = strategies.rng_for(seed)
            n = int(rng.integers(60, 400))
            n_features = int(rng.integers(2, 8))
            X, y = self._dataset(rng, n, n_features)
            model = DecisionTree(
                max_depth=int(rng.integers(1, 10)),
                min_samples_leaf=int(rng.integers(1, 10)),
                min_samples_split=int(rng.integers(2, 10)),
                ccp_alpha=float(rng.choice([0.0, 0.001, 0.01])),
            ).fit(X, y)
            assert model.kernel_ is not None
            for n_test in (0, 1, int(rng.integers(2, 200))):
                Xt = rng.normal(size=(n_test, n_features))
                kernel = model.predict_proba(Xt)
                recursive = reference_cart_values(model.kernel_, Xt)
                assert np.array_equal(kernel, recursive), (
                    f"seed {seed}: CART kernel drifted on n_test={n_test}"
                )

    def test_matched_rule_ids_matches_per_row_scan(self):
        for seed in range(10):
            rng = strategies.rng_for(seed)
            flows = strategies.labeled_flows(rng, n_flows=300)
            rules = strategies.tagging_rules(rng, n_rules=5)
            matrix = match_matrix(rules, flows)
            ids = [rule.rule_id for rule in rules]
            expected = [
                tuple(ids[k] for k in np.flatnonzero(row)) for row in matrix
            ]
            assert matched_rule_ids(rules, flows) == expected, (
                f"seed {seed}: vectorised matched_rule_ids diverged"
            )


class TestWideFlowsStrategy:
    """The wide_flows size hint actually bounds the dataset."""

    def test_max_flows_clamps_dataset_size(self):
        for seed in range(10):
            rng = strategies.rng_for(seed)
            hint = int(rng.integers(1, 200))
            per_target = int(rng.integers(1, 5))
            data = strategies.wide_flows(
                strategies.rng_for(seed),
                n_targets=5000,
                flows_per_target=per_target,
                max_flows=hint,
            )
            assert len(data) <= hint, (
                f"seed {seed}: size hint {hint} ignored ({len(data)} flows)"
            )
            assert len(data) >= 1

    def test_small_hint_beats_large_default_fanout(self):
        # The regression: small-scale property runs passed a hint but
        # still got the full n_targets * flows_per_target fan-out.
        small = strategies.wide_flows(strategies.rng_for(3), max_flows=50)
        full = strategies.wide_flows(strategies.rng_for(3))
        assert len(small) <= 50
        assert len(full) == 10000

    def test_targets_stay_one_per_slash24_inside_10_8(self):
        data = strategies.wide_flows(
            strategies.rng_for(1), n_targets=80000, flows_per_target=1
        )
        dst = np.unique(data.dst_ip)
        assert len(data) == 65536  # capped at one target per /24 of 10/8
        assert ((dst & 0xFF000000) == 0x0A000000).all()
        assert len(np.unique(dst >> 8)) == len(dst)

    def test_rejects_nonpositive_hint(self):
        with pytest.raises(ValueError):
            strategies.wide_flows(strategies.rng_for(0), max_flows=0)
