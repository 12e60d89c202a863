"""Sketch-mode aggregation benchmarks (BENCH_sketch.json).

Not a paper artifact — these guard the bounded-memory sketch path
(``repro.core.features.sketches``) on the workload it exists for: the
sparse carpet-bombing regime of many distinct targets with few flows
each (``tests/strategies.py:wide_flows``). Two guards:

* **memory** — measured sketch state vs the exact per-bin flow buffer,
  extrapolated to 10^6 distinct targets (exact grows linearly in
  flows; sketch state saturates at its capacity caps — the worked math
  is in ``docs/SKETCHES.md``). The extrapolated ratio must stay at or
  below ``BENCH_SKETCH_MAX_MEMORY_RATIO`` (default 0.25).
* **ingest** — sketch absorb throughput must not regress below the
  exact aggregation kernel on the same flows
  (``BENCH_SKETCH_MIN_INGEST_RATIO``, default 1.0; the two read
  1.4–1.7x apart since the kernel lost its lexsorts, 5.5x before) and
  must clear an absolute flows/sec floor
  (``BENCH_SKETCH_MIN_FLOWS_PER_SEC``, default 100k — measured ~400k+
  locally; the floor only catches collapses, not runner noise).

Results land in ``BENCH_sketch.json`` at the repo root so future PRs
have a perf trajectory to compare against.

Run:  PYTHONPATH=src python -m pytest benchmarks/test_bench_sketches.py -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.features.aggregation import aggregate_batch
from repro.core.features.sketches import SketchAggregator, SketchParams

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT) not in sys.path:  # `pytest benchmarks/` without `-m`
    sys.path.insert(0, str(_REPO_ROOT))
from tests import strategies  # noqa: E402

BENCH_FILE = _REPO_ROOT / "BENCH_sketch.json"

#: Measured size: large enough that sketch state has saturated its
#: candidate caps, small enough for a CI smoke job.
N_TARGETS = 100_000
FLOWS_PER_TARGET = 2
#: The acceptance point the memory guard extrapolates to.
EXTRAPOLATED_TARGETS = 1_000_000


def _median_seconds(fn, repeats: int = 3):
    """Median wall-clock of ``repeats`` runs, plus the last result."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


def _record(op: str, payload: dict) -> None:
    """Merge one measurement into BENCH_sketch.json."""
    data = {}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    data[op] = payload
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def workload():
    return strategies.wide_flows(
        strategies.rng_for(1009),
        n_targets=N_TARGETS,
        flows_per_target=FLOWS_PER_TARGET,
    )


def test_bench_sketch_ingest_and_memory(workload):
    flows = workload
    n_flows = len(flows.time)
    params = SketchParams()

    absorb_s, agg = _median_seconds(
        lambda: SketchAggregator(params).absorb(flows)
    )
    exact_s, _ = _median_seconds(lambda: aggregate_batch(flows))

    # Sanity: the timed sketch really absorbed the whole stream (the
    # accuracy contract itself is asserted by the property suite).
    assert sum(agg.total_flows(b) for b in agg.bins()) == n_flows

    absorb_fps = n_flows / absorb_s
    exact_fps = n_flows / exact_s
    ingest_ratio = absorb_fps / exact_fps

    # Memory: exact mode buffers every flow of an open bin at the
    # FlowDataset column widths; sketch state is capacity-capped.
    exact_bytes = int(sum(a.nbytes for a in flows.to_columns().values()))
    bytes_per_flow = exact_bytes / n_flows
    sketch_bytes = int(agg.memory_bytes())
    exact_extrapolated = int(
        bytes_per_flow * FLOWS_PER_TARGET * EXTRAPOLATED_TARGETS
    )
    # Sketch state at 10^6 targets is the measured (saturated) state —
    # candidate tracking is capped at hh_capacity long before 10^5.
    memory_ratio = sketch_bytes / exact_extrapolated

    _record("absorb_ingest", {
        "n_flows": int(n_flows),
        "n_targets": int(N_TARGETS),
        "seconds": round(absorb_s, 4),
        "flows_per_sec": int(absorb_fps),
    })
    _record("exact_aggregate", {
        "n_flows": int(n_flows),
        "n_targets": int(N_TARGETS),
        "seconds": round(exact_s, 4),
        "flows_per_sec": int(exact_fps),
    })
    _record("memory_per_bin", {
        "targets_measured": int(N_TARGETS),
        "sketch_bytes": sketch_bytes,
        "exact_bytes_measured": exact_bytes,
        "exact_bytes_per_flow": round(bytes_per_flow, 1),
        "targets_extrapolated": int(EXTRAPOLATED_TARGETS),
        "exact_bytes_extrapolated": exact_extrapolated,
        "ratio_at_extrapolated": round(memory_ratio, 5),
        "ingest_ratio": round(ingest_ratio, 2),
    })

    max_ratio = float(os.environ.get("BENCH_SKETCH_MAX_MEMORY_RATIO", "0.25"))
    assert memory_ratio <= max_ratio, (
        f"sketch/exact memory ratio {memory_ratio:.4f} above guard "
        f"{max_ratio} at {EXTRAPOLATED_TARGETS:,} targets "
        f"(sketch {sketch_bytes:,} B vs exact {exact_extrapolated:,} B)"
    )
    min_fps = float(os.environ.get("BENCH_SKETCH_MIN_FLOWS_PER_SEC", "100000"))
    assert absorb_fps >= min_fps, (
        f"sketch absorb throughput {absorb_fps:,.0f} flows/s below "
        f"guard {min_fps:,.0f}"
    )
    min_ingest = float(os.environ.get("BENCH_SKETCH_MIN_INGEST_RATIO", "1.0"))
    assert ingest_ratio >= min_ingest, (
        f"sketch absorb {absorb_fps:,.0f} flows/s regressed below "
        f"{min_ingest}x the exact aggregation kernel ({exact_fps:,.0f} flows/s)"
    )
