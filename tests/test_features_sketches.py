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
  shard counts and backends, follow warm-started models that read
  other categoricals, survive supervised worker crashes, hangs and a
  shard degraded to serial, and exact mode stays the bit-identical
  default.
* **Oracle** — tables, totals, candidate arrays and records equal the
  per-row, lexsort-admission implementation in
  ``tests/reference_sketch.py`` bit for bit, for one-shot and chunked
  absorbs, target-disjoint merges (appended here, run through the
  admission rule there) and ``hh_capacity`` overflow (Hypothesis draws
  over ``strategies.wide_flows``), for every column plan of
  ``COLUMN_SETS``: a plan keeps the oracle's tables of the categoricals
  it counts and its records restricted to its columns. Merges of
  overlapping streams or of different column sets raise.
"""

from __future__ import annotations

import copy
import pickle
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests import strategies
from tests.reference_aggregate import assert_bitwise_equal, restricted
from tests.reference_sketch import ReferenceSketchAggregator, counted
from repro.core.encoding.matrix import feature_columns
from repro.core.features.aggregation import aggregate_batch
from repro.core.models.kernels import LEAF, ForestKernel, TreeKernel
from repro.core.models.pipeline import ModelPipeline
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
        table = self.PARAMS.depth * self.PARAMS.width * 8
        for columns, k in zip(COLUMN_SETS, (5, 1, 2, 5, 5)):
            agg = SketchAggregator(self.PARAMS, columns).absorb(flows)
            assert agg.memory_bytes() == _array_bytes(agg.to_state())
            # A flow table, and a byte and a packet pair table per
            # categorical counted; two bins, plus candidates.
            tables = sum(len(s._tables()) for s in agg._bins.values())
            assert tables == 2 * (1 + 2 * k)
            assert agg.memory_bytes() > tables * table


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


#: Column sets an aggregator is built for: all 150 (``None``), one
#: categorical over three metrics, two categoricals over two metrics,
#: value columns only (five categoricals), and all 150 named.
COLUMN_SETS = (
    None,
    (
        schema.key_column("src_port", "bytes", 0),
        schema.value_column("src_port", "packet_size", 2),
        schema.key_column("src_port", "packets", 4),
    ),
    tuple(
        column(cat, metric, rank)
        for cat in ("dst_port", "protocol")
        for metric in ("packet_size", "packets")
        for rank in (0, 3)
        for column in (schema.key_column, schema.value_column)
    ),
    tuple(schema.value_columns()),
    tuple(schema.all_columns()),
)


def assert_matches_reference(agg: SketchAggregator, ref: ReferenceSketchAggregator, records=None):
    """Every array of every bin, then the built records, bit for bit:
    ``agg`` holds the oracle's tables and candidates of the categoricals
    it counts, and builds the oracle's records restricted to its columns.
    ``records`` maps ``min_flows`` to the oracle's records, if built."""
    cats = counted(agg.columns)
    assert sorted(agg._bins) == sorted(ref.bins)
    for b, want in ref.bins.items():
        got = agg._bins[b]
        assert tuple(got.candidates) == cats
        for table, ref_table in zip(got._tables(), want.tables(cats), strict=True):
            assert table.table.dtype == ref_table.table.dtype
            assert table.table.tobytes() == ref_table.table.tobytes(), b
            assert table.total == ref_table.total, b
        for name in ("targets", "blackhole"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (b, name)
        for cat in cats:
            for x, y in zip(got.candidates[cat], want.candidates[cat]):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (b, cat)
    names = [n for n in schema.all_columns() if agg.columns is None or n in agg.columns]
    for min_flows in (1, 3):
        built = agg.build_records(min_flows)
        expected = records[min_flows] if records else ref.build_records(min_flows)
        if expected is None:
            assert len(built) == 0 and built.feature_names == names
        elif agg.columns is None:
            assert_bitwise_equal(built, expected, f"min_flows={min_flows}")
        else:
            assert_bitwise_equal(
                built, restricted(expected, agg.columns), f"min_flows={min_flows}", agg.columns
            )


def assert_every_plan_matches_reference(params: SketchParams, run) -> None:
    """``run(make)`` builds an aggregator out of ``make()``s. Run with the
    oracle and with an aggregator of each of ``COLUMN_SETS``, each must
    match the oracle (:func:`assert_matches_reference`)."""
    ref = run(lambda: ReferenceSketchAggregator(params))
    records = {min_flows: ref.build_records(min_flows) for min_flows in (1, 3)}
    for columns in COLUMN_SETS:
        assert_matches_reference(run(lambda: SketchAggregator(params, columns)), ref, records)


def _fold(folded, aggregators: list):
    for agg in aggregators:
        folded.merge(agg)
    return folded


class TestAgainstReference:
    @ORACLE
    @given(flows=WIDE, params=PARAMS)
    def test_one_shot_absorb(self, flows, params):
        assert_every_plan_matches_reference(params, lambda make: make().absorb(flows))

    @ORACLE
    @given(flows=WIDE, params=PARAMS, cuts=st.lists(st.floats(0, 1), min_size=1, max_size=4))
    def test_chunked_absorb_into_held_pairs(self, flows, params, cuts):
        bounds = [0, *sorted(int(c * len(flows)) for c in cuts), len(flows)]
        idx = np.arange(len(flows))
        chunks = [flows.select((idx >= lo) & (idx < hi)) for lo, hi in zip(bounds, bounds[1:])]

        def run(make):
            agg = make()
            for chunk in chunks:
                if len(chunk):
                    agg.absorb(chunk)
            return agg

        assert_every_plan_matches_reference(params, run)

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

    def test_mismatched_column_sets_raise_and_change_nothing(self):
        """Aggregators of different column sets count different
        categoricals, so the merge refuses them; the same set spelled
        ``None`` or as all 150 names is one plan."""
        flows = _wide(9, n_targets=60, flows_per_target=8, n_bins=2)
        odd = flows.dst_ip % 2 == 1
        params = SketchParams(key_capacity=8)
        ref = ReferenceSketchAggregator(params).absorb(flows.select(odd))
        one, two, values = COLUMN_SETS[1:4]
        for mine, theirs in ((one, two), (one, None), (None, one), (values, None)):
            agg = SketchAggregator(params, mine).absorb(flows.select(odd))
            with pytest.raises(ValueError, match="column sets"):
                agg.merge(SketchAggregator(params, theirs).absorb(flows.select(~odd)))
            assert_matches_reference(agg, ref)
        whole = SketchAggregator(params).absorb(flows.select(odd))
        whole.merge(SketchAggregator(params, schema.all_columns()).absorb(flows.select(~odd)))
        assert_records_equal(whole.build_records(), sketch_aggregate(flows, params))

    @ORACLE
    @given(flows=WIDE, params=PARAMS, n_shards=st.integers(2, 4), reverse=st.booleans())
    def test_target_disjoint_merges_append(self, flows, params, n_shards, reverse):
        pieces = [p for p in ShardPlan(n_shards).split(flows) if len(p)]
        if reverse:
            pieces.reverse()
        assert_every_plan_matches_reference(
            params, lambda make: _fold(make(), [make().absorb(p) for p in pieces])
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
        shards = [_pieces(shard, 2, seed) for shard in ShardPlan(n_shards).split(flows)]

        def run(make):
            aggregators = []
            for chunks in shards:
                agg = make()
                for chunk in chunks:
                    if len(chunk):
                        agg.absorb(chunk)
                aggregators.append(agg)
            return _fold(make(), aggregators)

        assert_every_plan_matches_reference(params, run)


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


def _kept(fitted: IXPScrubber, column: str) -> bool:
    """Whether ``fitted``'s feature reducer keeps ``column``."""
    return bool(fitted.pipeline.transformers[0].keep_[feature_columns().index(column)])


def _with_forest(fitted: IXPScrubber, column: Optional[str] = None) -> IXPScrubber:
    """``fitted`` scoring with a one-split forest on the (kept) key
    ``column`` instead of its own: WoE below 0 scores low, above high;
    with ``column=None`` a single leaf that reads no column."""
    def ints(*values: int) -> np.ndarray:
        return np.array(values, dtype=np.int32)

    if column is None:
        tree = TreeKernel(
            feature=ints(LEAF), threshold=np.zeros(1), split_bin=ints(LEAF),
            left=ints(LEAF), right=ints(LEAF), value=np.array([0.3]),
        )
    else:
        kept = np.flatnonzero(fitted.pipeline.transformers[0].keep_)
        feature = int(np.flatnonzero(kept == feature_columns().index(column))[0])
        tree = TreeKernel(
            feature=ints(feature, LEAF, LEAF), threshold=np.zeros(3),
            split_bin=ints(LEAF, LEAF, LEAF), left=ints(1, LEAF, LEAF),
            right=ints(2, LEAF, LEAF), value=np.array([0.0, -2.0, 2.0]),
        )
    classifier = copy.copy(fitted.pipeline.classifier)
    classifier.forest_ = ForestKernel.from_trees([tree])
    scrubber = pickle.loads(pickle.dumps(fitted))
    scrubber.pipeline = ModelPipeline(scrubber.pipeline.transformers, classifier)
    return scrubber


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

    def _assert_survives(self, fitted, workload, faults, counter, **options):
        """A supervised run under ``faults`` reproduces the fault-free
        serial verdicts, and the ``counter`` (or gauge) shows the fault
        was handled."""
        serial, _ = _run_engine(fitted, workload, n_shards=2, agg="sketch")
        chaos, snap = _run_engine(
            fitted,
            workload,
            n_shards=2,
            agg="sketch",
            backend="supervised",
            backend_options={"fault_plan": FaultPlan.parse(faults), **options},
        )
        assert chaos == serial
        values = {m["name"]: m["value"] for m in snap["counters"] + snap["gauges"]}
        assert values.get(counter, 0) >= 1

    def test_sketch_state_survives_worker_crash(self, fitted_scrubber, workload):
        """Supervised restart + re-dispatch (the model re-sent to the
        new worker) reproduces the identical sketch state."""
        self._assert_survives(
            fitted_scrubber, workload, "crash@0:batch=1:count=1",
            "resilience.worker_restarts", shard_timeout=30.0,
        )

    def test_sketch_state_survives_worker_hang(self, fitted_scrubber, workload):
        self._assert_survives(
            fitted_scrubber, workload, "hang@1:batch=1",
            "resilience.deadline_misses", shard_timeout=0.5,
        )

    def test_sketch_state_survives_degrade_to_serial(self, fitted_scrubber, workload):
        """A shard that always crashes runs in the coordinator, on the
        model the supervisor holds."""
        self._assert_survives(
            fitted_scrubber, workload, "crash@0:count=99",
            "resilience.degraded_shards", shard_timeout=30.0, max_restarts=1,
        )

    @pytest.mark.parametrize("backend", ["serial", "supervised"])
    def test_verdicts_follow_a_model_change(self, fitted_scrubber, workload, backend):
        """Warm starts switch between models that read different
        categoricals, one of them none, bin after bin: each closed bin's
        verdicts are the current model's on the full-width sketch
        records of its flows."""
        reads = {schema.parse_column(c)[0] for c in fitted_scrubber.scored_columns}
        other = next(
            c for c in schema.key_columns()
            if schema.parse_column(c)[0] not in reads and _kept(fitted_scrubber, c)
        )
        models = [fitted_scrubber, _with_forest(fitted_scrubber, other), _with_forest(fitted_scrubber)]
        assert {len(m.scored_columns) for m in models[1:]} == {0, 1}
        params = SketchParams()
        engine = ShardedStreamingScrubber(
            **ENGINE_KWARGS, n_shards=2, agg="sketch", sketch_params=params, backend=backend
        )
        bins = workload.time_bin()
        ticks = np.unique(bins).tolist()
        try:
            for tick, b in enumerate([*ticks, None]):
                model = models[tick % len(models)]
                engine.warm_start(model)
                got = engine.flush() if b is None else engine.ingest(workload.select(bins == b))
                expected = []
                if tick:
                    records = SketchAggregator(params).absorb(
                        workload.select(bins == ticks[tick - 1])
                    ).build_records(min_flows=ENGINE_KWARGS["min_flows_per_verdict"])
                    expected = model.classify_aggregated(records)
                assert got == expected, tick
                assert expected or not tick
        finally:
            engine.close()

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
