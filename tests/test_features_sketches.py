"""Property tests for ``repro.core.features.sketches``.

Three layers of guarantees, each asserted over seeded strategy draws:

* **Accuracy contract** — count-min estimates are one-sided
  (``est >= true`` always) and the overshoot exceeds
  ``epsilon * N`` with empirical frequency at most ``delta``. These
  are the formulas ``docs/SKETCHES.md`` documents.
* **Merge algebra** — merges are associative, commutative and *bitwise*
  partition-independent: any target-disjoint sharding of a stream folds
  back to the identical tables, candidate sets and built records.
* **Engine integration** — sketch-mode verdicts are identical across
  shard counts and backends, survive supervised worker crashes, and
  exact mode stays the bit-identical default.
* **Oracle** — tables, totals, candidate arrays and records equal the
  per-row, lexsort-admission implementation in
  ``tests/reference_sketch.py`` bit for bit, for one-shot and chunked
  absorbs, target-disjoint merges (appended here, run through the
  admission rule there) and ``hh_capacity`` overflow (Hypothesis draws
  over ``strategies.wide_flows``); merges of overlapping streams raise.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests import strategies
from tests.reference_aggregate import assert_bitwise_equal
from tests.reference_sketch import ReferenceSketchAggregator
from repro.core.features.aggregation import aggregate_batch
from repro import obs
from repro.core.features.sketches import (
    CountMinSketch,
    SketchAggregator,
    SketchParams,
    sketch_aggregate,
)
from repro.core.features import schema
from repro.core.labeling.balancer import balance
from repro.core.parallel import ShardPlan, ShardedStreamingScrubber
from repro.core.resilience import FaultPlan
from repro.core.scrubber import IXPScrubber, ScrubberConfig

ENGINE_KWARGS = dict(
    window_days=2,
    bins_per_day=48,
    min_flows_per_verdict=3,
    label_grace_bins=10**6,
    seed=1,
)


def assert_records_equal(a, b):
    """Bitwise equality of two AggregatedDatasets (NaN == NaN)."""
    assert np.array_equal(a.bins, b.bins)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.n_flows, b.n_flows)
    for name in schema.key_columns():
        assert np.array_equal(a.categorical[name], b.categorical[name]), name
    for name in schema.value_columns():
        assert np.array_equal(
            a.metrics[name], b.metrics[name], equal_nan=True
        ), name


def _key_stream(rng, n_keys=300, max_count=40):
    """(keys, counts, shuffled update stream) for count-min tests."""
    keys = rng.choice(2**32, size=n_keys, replace=False).astype(np.uint64)
    counts = rng.integers(1, max_count, size=n_keys)
    stream = np.repeat(keys, counts)
    rng.shuffle(stream)
    return keys, counts.astype(np.int64), stream


class TestSketchParams:
    def test_width_depth_follow_textbook_formulas(self):
        params = SketchParams(epsilon=0.01, delta=0.01)
        assert params.width == int(np.ceil(np.e / 0.01))
        assert params.depth == int(np.ceil(np.log(1.0 / 0.01)))
        assert params.error_bound(1000) == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"delta": 0.0},
            {"delta": 1.5},
            {"hh_capacity": 0},
            {"key_capacity": schema.RANKS - 1},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SketchParams(**kwargs)


class TestCountMinSketch:
    def test_one_sided_and_epsilon_delta_bound(self):
        """The documented contract: est >= true always, and
        P[est - true > epsilon * N] <= delta (empirically per seed)."""
        params = SketchParams(epsilon=0.01, delta=0.01)
        for seed in range(5):
            rng = strategies.rng_for(seed)
            keys, counts, stream = _key_stream(rng)
            cms = CountMinSketch(params.width, params.depth, seed=seed)
            cms.update(stream)
            assert cms.total == stream.shape[0]
            est = cms.query(keys)
            overshoot = est - counts
            assert (overshoot >= 0).all(), "count-min must never undercount"
            bound = params.error_bound(cms.total)
            assert np.mean(overshoot > bound) <= params.delta, seed

    def test_weighted_queries_are_one_sided_too(self):
        rng = strategies.rng_for(11)
        keys, _, stream = _key_stream(rng)
        weights = rng.integers(1, 1500, size=stream.shape[0])
        cms = CountMinSketch(512, 4, seed=3)
        cms.update(stream, weights)
        true = np.zeros(keys.shape[0], dtype=np.int64)
        for i, k in enumerate(keys.tolist()):
            true[i] = int(weights[stream == k].sum())
        assert (cms.query(keys) >= true).all()
        assert cms.total == int(weights.sum())

    def test_merge_is_bitwise_partition_independent(self):
        for seed in range(4):
            rng = strategies.rng_for(100 + seed)
            _, _, stream = _key_stream(rng)
            whole = CountMinSketch(256, 4, seed=seed)
            whole.update(stream)
            cut1, cut2 = len(stream) // 3, 2 * len(stream) // 3
            parts = []
            for chunk in (stream[:cut1], stream[cut1:cut2], stream[cut2:]):
                part = CountMinSketch(256, 4, seed=seed)
                part.update(chunk)
                parts.append(part)
            a, b, c = parts
            # (a + b) + c, folded left to right.
            left = CountMinSketch(256, 4, seed=seed)
            for p in (a, b, c):
                left.merge(p)
            assert np.array_equal(left.table, whole.table)
            assert left.total == whole.total
            # c + (b + a): a different order, the same bits.
            right = CountMinSketch(256, 4, seed=seed)
            for p in (c, b, a):
                right.merge(p)
            assert np.array_equal(right.table, whole.table)

    def test_merge_rejects_geometry_and_seed_mismatch(self):
        base = CountMinSketch(128, 4, seed=1)
        for other in (
            CountMinSketch(64, 4, seed=1),
            CountMinSketch(128, 3, seed=1),
            CountMinSketch(128, 4, seed=2),
        ):
            with pytest.raises(ValueError):
                base.merge(other)

    def test_state_round_trip_through_pickle(self):
        rng = strategies.rng_for(5)
        _, _, stream = _key_stream(rng)
        cms = CountMinSketch(128, 4, seed=9)
        cms.update(stream)
        clone = CountMinSketch.from_state(pickle.loads(pickle.dumps(cms.to_state())))
        assert np.array_equal(clone.table, cms.table)
        assert (clone.width, clone.depth, clone.seed, clone.total) == (
            cms.width, cms.depth, cms.seed, cms.total
        )


def _array_bytes(state) -> int:
    """Summed ``nbytes`` of every array in a (nested) sketch state."""
    if isinstance(state, np.ndarray):
        return state.nbytes
    if isinstance(state, dict):
        return sum(_array_bytes(v) for v in state.values())
    if isinstance(state, tuple):
        return sum(_array_bytes(v) for v in state)
    return 0


class TestSketchAggregator:
    PARAMS = SketchParams(epsilon=0.002)
    #: First-arrival admission where it binds: as many candidate keys as
    #: ranks (every strategy target sees more source IPs and ports).
    TIGHT_KEYS = SketchParams(epsilon=0.002, key_capacity=schema.RANKS)
    #: ... and fewer slots than targets per bin (not partition-
    #: invariant: each shard fills its own slots, see SKETCHES.md §3).
    TIGHT = SketchParams(epsilon=0.002, key_capacity=schema.RANKS, hh_capacity=8)

    def test_collision_free_sketch_equals_exact_aggregation(self):
        """Both kernels rank through ``rank_segments``: with tables wide
        enough that no key collides and no cap binding, every column of
        the sketch records is the exact kernel's, bit for bit."""
        params = SketchParams(epsilon=0.0003, key_capacity=400)
        for seed in range(3):
            flows = strategies.flows(
                strategies.rng_for(50 + seed), n_flows=400, n_targets=8, n_bins=2
            )
            assert_records_equal(
                sketch_aggregate(flows, params), aggregate_batch(flows)
            )

    def test_build_matches_exact_aggregation_schema(self):
        for seed in range(3):
            flows = strategies.flows(
                strategies.rng_for(seed), n_flows=1500, n_targets=16, n_bins=3
            )
            exact = aggregate_batch(flows)
            sketch = sketch_aggregate(flows, self.PARAMS)
            # Identical record identity: same (bin, target) rows in the
            # same order, the same blackhole labels.
            assert np.array_equal(sketch.bins, exact.bins)
            assert np.array_equal(sketch.targets, exact.targets)
            assert np.array_equal(sketch.labels, exact.labels)
            assert sketch.rule_tags is None

    def test_flow_estimates_bound_the_truth(self):
        for seed in range(3):
            flows = strategies.flows(
                strategies.rng_for(30 + seed), n_flows=2000, n_targets=12, n_bins=2
            )
            exact = aggregate_batch(flows)
            agg = SketchAggregator(self.PARAMS).absorb(flows)
            sketch = agg.build_records()
            overshoot = sketch.n_flows - exact.n_flows
            assert (overshoot >= 0).all()
            assert overshoot.max() <= max(1.0, agg.error_bound())

    def test_partition_invariance_bitwise(self):
        """The tentpole property: any target-disjoint sharding folds
        back to bit-identical records, in any merge order."""
        flows = strategies.flows(
            strategies.rng_for(40), n_flows=2500, n_targets=24, n_bins=3
        )
        for params in (self.PARAMS, self.TIGHT_KEYS):
            whole = SketchAggregator(params).absorb(flows).build_records()
            for n_shards in (2, 3, 5):
                parts = ShardPlan(n_shards).split(flows)
                shards = [
                    SketchAggregator(params).absorb(p) for p in parts if len(p)
                ]
                folded = SketchAggregator(params)
                for s in shards:
                    folded.merge(s)
                assert_records_equal(folded.build_records(), whole)
                reverse = SketchAggregator(params)
                for s in [
                    SketchAggregator(params).absorb(p)
                    for p in reversed(ShardPlan(n_shards).split(flows))
                    if len(p)
                ]:
                    reverse.merge(s)
                assert_records_equal(reverse.build_records(), whole)

    def test_chunked_ingest_equals_one_shot(self):
        flows = strategies.flows(
            strategies.rng_for(41), n_flows=1800, n_targets=20, n_bins=2
        )
        for params in (self.PARAMS, self.TIGHT):
            whole = SketchAggregator(params).absorb(flows).build_records()
            chunked = SketchAggregator(params)
            idx = np.arange(len(flows))
            for lo in range(0, len(flows), 257):
                chunked.absorb(flows.select((idx >= lo) & (idx < lo + 257)))
            assert_records_equal(chunked.build_records(), whole)

    def test_state_round_trip_preserves_records(self):
        flows = strategies.flows(
            strategies.rng_for(42), n_flows=1200, n_targets=10, n_bins=2
        )
        for params in (self.PARAMS, self.TIGHT):
            agg = SketchAggregator(params).absorb(flows)
            clone = SketchAggregator.from_state(
                pickle.loads(pickle.dumps(agg.to_state()))
            )
            assert_records_equal(clone.build_records(), agg.build_records())

    def test_min_flows_filters_records(self):
        flows = strategies.flows(
            strategies.rng_for(43), n_flows=800, n_targets=12, n_bins=2
        )
        agg = SketchAggregator(self.PARAMS).absorb(flows)
        assert (agg.build_records(min_flows=20).n_flows >= 20).all()
        assert len(agg.build_records(min_flows=10**9)) == 0

    def test_hh_capacity_keeps_heaviest_targets(self):
        flows = strategies.wide_flows(
            strategies.rng_for(44), n_targets=200, flows_per_target=3
        )
        capped = SketchParams(hh_capacity=50)
        registry = obs.MetricRegistry()
        with obs.use_registry(registry):
            data = SketchAggregator(capped).absorb(flows).build_records()
        assert len(data) <= 50
        # One bin, one batch: every target past the cap is counted once.
        assert registry.counter("sketch.targets_untracked").value == 150

    def test_merge_rejects_parameter_mismatch(self):
        with pytest.raises(ValueError):
            SketchAggregator(SketchParams(epsilon=0.01)).merge(
                SketchAggregator(SketchParams(epsilon=0.02))
            )

    def test_memory_is_sublinear_in_targets(self):
        """10x the distinct targets must not 10x the sketch state."""
        small = strategies.wide_flows(
            strategies.rng_for(45), n_targets=300, flows_per_target=2
        )
        large = strategies.wide_flows(
            strategies.rng_for(46), n_targets=3000, flows_per_target=2
        )
        params = SketchParams(hh_capacity=300)
        mem_small = SketchAggregator(params).absorb(small).memory_bytes()
        mem_large = SketchAggregator(params).absorb(large).memory_bytes()
        assert mem_large < 2 * mem_small

    def test_memory_bytes_is_the_arrays_held(self):
        """No estimate: the gauge is the ``nbytes`` of the arrays the
        aggregator holds, which are the ones its state ships."""
        flows = strategies.flows(
            strategies.rng_for(47), n_flows=900, n_targets=12, n_bins=2
        )
        agg = SketchAggregator(self.PARAMS).absorb(flows)
        assert agg.memory_bytes() == _array_bytes(agg.to_state())
        tables = 13 * self.PARAMS.depth * self.PARAMS.width * 8
        assert agg.memory_bytes() > 2 * tables  # two bins, plus candidates


def _wide(seed, n_targets, flows_per_target, n_bins):
    """``wide_flows`` in a seeded random order: targets interleave."""
    rng = strategies.rng_for(seed)
    flows = strategies.wide_flows(
        rng, n_targets=n_targets, flows_per_target=flows_per_target, n_bins=n_bins
    )
    return flows.select(rng.permutation(len(flows)))


#: Sparse targets with up to 12 flows (more distinct keys than a tight
#: ``key_capacity``), over one to three bins, in a random order.
WIDE = st.builds(
    _wide,
    seed=st.integers(0, 2**16),
    n_targets=st.integers(1, 150),
    flows_per_target=st.integers(1, 12),
    n_bins=st.integers(1, 3),
)
#: Narrow, shallow tables collide a lot, so estimates overshoot.
PARAMS = st.builds(
    SketchParams,
    epsilon=st.sampled_from([0.05, 0.005]),
    delta=st.sampled_from([0.3, 0.01]),
    key_capacity=st.sampled_from([schema.RANKS, 8, 32]),
)
ORACLE = settings(max_examples=25, deadline=None)


def _pieces(flows, parts: int, seed: int) -> list:
    """``flows`` dealt row by row into ``parts`` in their order: every
    target with several flows can land in several pieces."""
    deal = strategies.rng_for(seed).integers(0, parts, size=len(flows))
    return [flows.select(deal == p) for p in range(parts)]


def assert_matches_reference(agg: SketchAggregator, ref: ReferenceSketchAggregator):
    """Every array of every bin, then the built records, bit for bit."""
    assert sorted(agg._bins) == sorted(ref.bins)
    for b, want in ref.bins.items():
        got = agg._bins[b]
        for table, ref_table in zip(got._tables(), want.tables()):
            assert table.table.dtype == ref_table.table.dtype
            assert table.table.tobytes() == ref_table.table.tobytes(), b
            assert table.total == ref_table.total, b
        for name in ("targets", "blackhole"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (b, name)
        for cat in schema.CATEGORICALS:
            for x, y in zip(got.candidates[cat], want.candidates[cat]):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (b, cat)
    for min_flows in (1, 3):
        records, expected = agg.build_records(min_flows), ref.build_records(min_flows)
        if expected is None:
            assert len(records) == 0
        else:
            assert_bitwise_equal(records, expected, f"min_flows={min_flows}")


def _fold(aggregators: list):
    folded = type(aggregators[0])(aggregators[0].params)
    for agg in aggregators:
        folded.merge(agg)
    return folded


class TestAgainstReference:
    @ORACLE
    @given(flows=WIDE, params=PARAMS)
    def test_one_shot_absorb(self, flows, params):
        assert_matches_reference(
            SketchAggregator(params).absorb(flows),
            ReferenceSketchAggregator(params).absorb(flows),
        )

    @ORACLE
    @given(flows=WIDE, params=PARAMS, cuts=st.lists(st.floats(0, 1), min_size=1, max_size=4))
    def test_chunked_absorb_into_held_pairs(self, flows, params, cuts):
        bounds = [0, *sorted(int(c * len(flows)) for c in cuts), len(flows)]
        idx = np.arange(len(flows))
        agg, ref = SketchAggregator(params), ReferenceSketchAggregator(params)
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = flows.select((idx >= lo) & (idx < hi))
            if len(chunk):
                agg.absorb(chunk)
                ref.absorb(chunk)
        assert_matches_reference(agg, ref)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_overlapping_merges_raise_and_change_nothing(self, seed):
        """Streams that share a target in a bin have no single-stream
        candidate order, so the merge refuses them — before folding even
        the bin they do not share."""
        flows = _wide(seed, n_targets=60, flows_per_target=8, n_bins=2)
        later = flows.time_bin() > flows.time_bin().min()
        odd = flows.dst_ip % 2 == 1
        # First bin: odd targets here, even ones there; later bin: all
        # targets here, the odd ones there.
        mine = flows.select(later | odd)
        theirs = flows.select(~later & ~odd | later & odd)
        params = SketchParams(key_capacity=8)
        agg = SketchAggregator(params).absorb(mine)
        with pytest.raises(ValueError, match="overlapping"):
            agg.merge(SketchAggregator(params).absorb(theirs))
        assert_matches_reference(agg, ReferenceSketchAggregator(params).absorb(mine))

    @ORACLE
    @given(flows=WIDE, params=PARAMS, n_shards=st.integers(2, 4), reverse=st.booleans())
    def test_target_disjoint_merges_append(self, flows, params, n_shards, reverse):
        pieces = [p for p in ShardPlan(n_shards).split(flows) if len(p)]
        if reverse:
            pieces.reverse()
        assert_matches_reference(
            _fold([SketchAggregator(params).absorb(p) for p in pieces]),
            _fold([ReferenceSketchAggregator(params).absorb(p) for p in pieces]),
        )

    @ORACLE
    @given(
        flows=WIDE, params=PARAMS, hh_capacity=st.integers(1, 30),
        n_shards=st.integers(1, 3), seed=st.integers(0, 99),
    )
    def test_hh_capacity_overflow(self, flows, params, hh_capacity, n_shards, seed):
        """Shards that each fill their slots in two chunks, merged into
        a union past the cap that ``build_records`` trims."""
        assume(np.unique(flows.dst_ip).shape[0] > hh_capacity)
        params = SketchParams(
            epsilon=params.epsilon, delta=params.delta,
            key_capacity=params.key_capacity, hh_capacity=hh_capacity,
        )
        shards = [[], []]
        for shard in ShardPlan(n_shards).split(flows):
            agg, ref = SketchAggregator(params), ReferenceSketchAggregator(params)
            for chunk in _pieces(shard, 2, seed):
                if len(chunk):
                    agg.absorb(chunk)
                    ref.absorb(chunk)
            shards[0].append(agg)
            shards[1].append(ref)
        assert_matches_reference(_fold(shards[0]), _fold(shards[1]))


@pytest.fixture(scope="module")
def fitted_scrubber() -> IXPScrubber:
    rng = strategies.rng_for(999)
    labeled = strategies.labeled_flows(rng, n_flows=6000, n_targets=12, n_bins=20)
    balanced = balance(labeled, np.random.default_rng(7)).flows
    config = ScrubberConfig(model="XGB", model_params={"n_estimators": 10})
    return IXPScrubber(config).fit(balanced)


@pytest.fixture()
def workload():
    return strategies.labeled_flows(
        strategies.rng_for(7), n_flows=400, n_targets=10, n_bins=4
    )


def _run_engine(fitted, workload, **kwargs):
    engine = ShardedStreamingScrubber(**{**ENGINE_KWARGS, **kwargs}).warm_start(
        fitted
    )
    try:
        verdicts = engine.ingest(workload) + engine.flush()
        snap = engine.merged_snapshot()
    finally:
        engine.close()
    return verdicts, snap


class TestSketchEngine:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="agg mode"):
            ShardedStreamingScrubber(agg="hll", **ENGINE_KWARGS)
        with pytest.raises(ValueError, match="sketch_params"):
            ShardedStreamingScrubber(
                sketch_params=SketchParams(), **ENGINE_KWARGS
            )
        with pytest.raises(ValueError, match="equivalence_check"):
            ShardedStreamingScrubber(
                agg="sketch", equivalence_check=True, **ENGINE_KWARGS
            )

    def test_verdicts_identical_across_shard_counts(self, fitted_scrubber, workload):
        runs = {
            n: _run_engine(
                fitted_scrubber, workload, n_shards=n, agg="sketch"
            )[0]
            for n in (1, 2, 4)
        }
        assert runs[1], "sketch mode produced no verdicts"
        assert runs[2] == runs[1]
        assert runs[4] == runs[1]
        # Verdicts are about the same records the exact engine scores.
        exact, _ = _run_engine(fitted_scrubber, workload, n_shards=2)
        assert [(v.bin, v.target_ip) for v in runs[1]] == [
            (v.bin, v.target_ip) for v in exact
        ]

    def test_process_backend_matches_serial(self, fitted_scrubber, workload):
        serial, _ = _run_engine(fitted_scrubber, workload, n_shards=2, agg="sketch")
        process, _ = _run_engine(
            fitted_scrubber, workload, n_shards=2, agg="sketch", backend="supervised"
        )
        assert process == serial

    def test_sketch_state_survives_worker_crash(self, fitted_scrubber, workload):
        """Supervised restart + re-dispatch reproduces the identical
        sketch state: verdicts match the fault-free run, with restarts."""
        serial, _ = _run_engine(fitted_scrubber, workload, n_shards=2, agg="sketch")
        chaos, snap = _run_engine(
            fitted_scrubber,
            workload,
            n_shards=2,
            agg="sketch",
            backend="supervised",
            backend_options={
                "fault_plan": FaultPlan.parse("crash@0:batch=1:count=1"),
                "shard_timeout": 30.0,
            },
        )
        assert chaos == serial
        counters = {c["name"]: c["value"] for c in snap["counters"]}
        assert counters.get("resilience.worker_restarts", 0) >= 1

    def test_sketch_metrics_appear_in_snapshot(self, fitted_scrubber, workload):
        _, snap = _run_engine(fitted_scrubber, workload, n_shards=2, agg="sketch")
        counters = {c["name"]: c["value"] for c in snap["counters"]}
        gauges = {g["name"] for g in snap["gauges"]}
        assert counters.get("sketch.flows_absorbed", 0) > 0
        assert counters.get("sketch.merges", 0) >= 1
        assert counters.get("sketch.records_built", 0) > 0
        assert {"sketch.memory_bytes", "sketch.error_bound"} <= gauges

    def test_rule_tags_empty_in_sketch_mode(self, fitted_scrubber, workload):
        verdicts, _ = _run_engine(
            fitted_scrubber, workload, n_shards=2, agg="sketch"
        )
        assert all(v.matched_rules == () for v in verdicts)
