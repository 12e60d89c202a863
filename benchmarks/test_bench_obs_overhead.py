"""Guardrail: `repro.obs` instrumentation overhead on the core-ops path.

The observability layer is always on by default, so its cost on the
operations that dominate pipeline wall-clock (the same ones timed by
``test_bench_core_ops.py``: balancing, aggregation, WoE fitting, feature
assembly) must stay in the noise. This benchmark times the chain with
instrumentation enabled vs. globally disabled (``obs.disable()``) and
asserts the enabled/disabled ratio stays under 1.05 (< 5 % overhead).

The estimator is paired: each round runs the chain ``CHAIN`` times per
mode, one enabled and one disabled pass at a time in alternating order,
so drift and neighbours' load hit both sides of the round alike. The
round's ratio is enabled time over disabled time, and the guard reads
the median of ``ROUNDS`` such ratios, which one lucky or unlucky pass
cannot move the way it moves a min over unpaired timings.
"""

import statistics
import time

import numpy as np
import pytest

from repro import obs
from repro.core.encoding.matrix import assemble
from repro.core.encoding.woe import WoEEncoder
from repro.core.features.aggregation import aggregate
from repro.core.labeling.balancer import balance
from repro.ixp.fabric import IXPFabric
from repro.ixp.profiles import IXP_SE
from repro.traffic.workload import WorkloadGenerator

#: Maximum tolerated enabled/disabled wall-clock ratio.
MAX_OVERHEAD_RATIO = 1.05
#: Paired rounds, and core-op chains per mode in each round (about
#: 80 ms a side on a 2-core x86 container).
ROUNDS = 25
CHAIN = 4


@pytest.fixture(scope="module")
def labeled_corpus():
    fabric = IXPFabric(IXP_SE)
    capture = WorkloadGenerator(fabric).generate(0, 1)
    return capture.labeled_flows()


def _core_ops(labeled):
    """One pass over the instrumented core-op chain."""
    balanced = balance(labeled, np.random.default_rng(0)).flows
    data = aggregate(balanced)
    woe = WoEEncoder().fit(data)
    matrix = assemble(data, woe)
    return matrix


def _timed_core_ops(labeled, enabled: bool, registry) -> float:
    """Seconds for one chain pass with instrumentation on or off."""
    if not enabled:
        obs.disable()
    try:
        with obs.use_registry(registry):
            t0 = time.perf_counter()
            _core_ops(labeled)
            return time.perf_counter() - t0
    finally:
        obs.enable()


def test_bench_obs_overhead_under_5_percent(labeled_corpus):
    assert obs.is_enabled(), "obs must start enabled (the default)"
    # Warm-up once per mode (allocator, caches, lazy imports).
    _timed_core_ops(labeled_corpus, True, obs.MetricRegistry())
    _timed_core_ops(labeled_corpus, False, obs.MetricRegistry())

    ratios = []
    for r in range(ROUNDS):
        # A fresh registry per round keeps instrument lookup honest
        # (no warm single-entry dict) without unbounded growth.
        registry = obs.MetricRegistry()
        enabled = disabled = 0.0
        for i in range(CHAIN):
            if (r + i) % 2:
                enabled += _timed_core_ops(labeled_corpus, True, registry)
                disabled += _timed_core_ops(labeled_corpus, False, registry)
            else:
                disabled += _timed_core_ops(labeled_corpus, False, registry)
                enabled += _timed_core_ops(labeled_corpus, True, registry)
        ratios.append(enabled / disabled)

    ratio = statistics.median(ratios)
    print(
        f"\ncore-ops: median enabled/disabled ratio {ratio:.4f} over "
        f"{ROUNDS} paired rounds (min {min(ratios):.4f}, max {max(ratios):.4f})"
    )
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"instrumentation overhead {100 * (ratio - 1):.1f}% exceeds "
        f"{100 * (MAX_OVERHEAD_RATIO - 1):.0f}% budget"
    )


def test_bench_obs_instrument_call_cost(benchmark):
    """Microbenchmark: one counter inc + one span enter/exit."""
    registry = obs.MetricRegistry()

    def one_round():
        with obs.use_registry(registry):
            with obs.span("bench.span"):
                obs.counter("bench.counter").inc()

    benchmark(one_round)
    assert registry.counter("bench.counter").value > 0
