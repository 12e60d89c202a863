"""Micro-benchmarks of the substrate and pipeline hot paths.

Not a paper artifact — these track the throughput of the operations
that dominate experiment wall-clock: workload generation, blackhole
matching, balancing, aggregation, WoE fitting/encoding, GBT training
and prediction, and frequent-itemset mining.
"""

import numpy as np
import pytest

from repro.core.encoding.matrix import assemble
from repro.core.encoding.woe import WoEEncoder
from repro.core.features.aggregation import aggregate
from repro.core.labeling.balancer import balance
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.rules.items import ItemEncoder
from repro.core.rules.itemsets import itemset_cube
from repro.ixp.fabric import IXPFabric
from repro.ixp.profiles import IXP_SE
from repro.traffic.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def corpus():
    fabric = IXPFabric(IXP_SE)
    capture = WorkloadGenerator(fabric).generate(0, 2)
    labeled = capture.labeled_flows()
    balanced = balance(labeled, np.random.default_rng(0)).flows
    data = aggregate(balanced)
    woe = WoEEncoder().fit(data)
    matrix = assemble(data, woe)
    return capture, labeled, balanced, data, woe, matrix


def test_bench_workload_generation(benchmark):
    fabric = IXPFabric(IXP_SE)

    def generate():
        return WorkloadGenerator(fabric).generate(0, 1)

    capture = benchmark.pedantic(generate, rounds=3, iterations=1)
    assert len(capture.flows) > 1000


def test_bench_blackhole_matching(benchmark, corpus):
    capture, *_ = corpus
    registry = capture.registry()
    mask = benchmark(registry.match_flows, capture.flows, capture.end)
    assert mask.any()


def test_bench_balancing(benchmark, corpus):
    _, labeled, *_ = corpus

    def run():
        return balance(labeled, np.random.default_rng(0))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert abs(result.blackhole_share - 0.5) < 0.1


def test_bench_aggregation(benchmark, corpus):
    _, _, balanced, *_ = corpus
    data = benchmark.pedantic(lambda: aggregate(balanced), rounds=3, iterations=1)
    assert len(data) > 50


def test_bench_woe_fit(benchmark, corpus):
    data = corpus[3]
    woe = benchmark.pedantic(lambda: WoEEncoder().fit(data), rounds=3, iterations=1)
    assert woe.is_fitted


def test_bench_feature_assembly(benchmark, corpus):
    data, woe = corpus[3], corpus[4]
    matrix = benchmark(assemble, data, woe)
    assert matrix.X.shape[1] == 150


def test_bench_gbt_fit(benchmark, corpus):
    matrix = corpus[5]
    X = np.nan_to_num(matrix.X, nan=-1.0)

    def fit():
        return GradientBoostedTrees(n_estimators=10, max_depth=4).fit(X, matrix.y)

    model = benchmark.pedantic(fit, rounds=2, iterations=1)
    assert model.forest_.n_trees == 10


def test_bench_gbt_predict(benchmark, corpus):
    matrix = corpus[5]
    X = np.nan_to_num(matrix.X, nan=-1.0)
    model = GradientBoostedTrees(n_estimators=10, max_depth=4).fit(X, matrix.y)
    predictions = benchmark(model.predict, X)
    assert predictions.shape == (X.shape[0],)


def test_bench_fp_growth(benchmark, corpus):
    _, _, balanced, *_ = corpus
    encoder = ItemEncoder.fit(balanced)
    columns, weights = encoder.distinct(balanced)
    cube = benchmark(itemset_cube, columns, weights)
    protocol_only = (cube.digits(cube.key)[:, 1:] == cube.absent[1:]).all(axis=1)
    assert cube.count[protocol_only].sum() == len(balanced)  # every flow carries a protocol item


# ---------------------------------------------------------------------------
# Streaming engine throughput: serial vs sharded (repro.core.parallel).


@pytest.fixture(scope="module")
def streaming_setup():
    """A warm-start scrubber + a classification-heavy workload."""
    from tests import strategies
    from repro.core.scrubber import IXPScrubber, ScrubberConfig

    rng = strategies.rng_for(999)
    labeled = strategies.labeled_flows(rng, n_flows=6000, n_targets=12, n_bins=20)
    balanced = balance(labeled, np.random.default_rng(7)).flows
    scrubber = IXPScrubber(
        ScrubberConfig(model="XGB", model_params={"n_estimators": 10})
    ).fit(balanced)
    workload = strategies.labeled_flows(
        strategies.rng_for(5), n_flows=90000, n_targets=128, n_bins=60
    )
    return scrubber, workload


#: Engine kwargs for pure-classification runs (grace never elapses, so
#: no retrain: the benchmark isolates the per-bin classify path).
_STREAM_KWARGS = dict(
    window_days=2,
    bins_per_day=48,
    min_flows_per_verdict=3,
    label_grace_bins=10**6,
    seed=1,
)


def _drive_stream(engine, workload, chunk_bins=8):
    bins = workload.time // 60
    n = 0
    for start in range(int(bins.min()), int(bins.max()) + 1, chunk_bins):
        mask = (bins >= start) & (bins < start + chunk_bins)
        n += len(engine.ingest(workload.select(mask)))
    n += len(engine.flush())
    return n


def test_bench_streaming_serial(benchmark, streaming_setup):
    from repro.core.streaming import StreamingScrubber

    scrubber, workload = streaming_setup

    def run():
        engine = StreamingScrubber(**_STREAM_KWARGS).warm_start(scrubber)
        return _drive_stream(engine, workload)

    n = benchmark.pedantic(run, rounds=2, iterations=1)
    assert n > 1000


def test_bench_streaming_sharded_process(benchmark, streaming_setup):
    from repro.core.parallel import ShardedStreamingScrubber

    scrubber, workload = streaming_setup

    def run():
        with ShardedStreamingScrubber(
            n_shards=4, backend="supervised", **_STREAM_KWARGS
        ) as engine:
            return _drive_stream(engine.warm_start(scrubber), workload)

    n = benchmark.pedantic(run, rounds=2, iterations=1)
    assert n > 1000
