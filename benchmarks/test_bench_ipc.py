"""Shard-IPC transport benchmarks (BENCH_ipc.json).

Not a paper artifact — these guard the zero-copy shared-memory
transport (``repro.core.parallel.shm``) against the pickled-pipe
baseline it replaces. Two measurements:

* **dispatch** — ``SupervisedProcessBackend.echo`` (inherited from
  ``WorkerPool``) round-trips batches through the transport with no
  classification compute, so the timing isolates serialization + copy
  + wakeup. The shm ring must move dispatch bytes
  at least ``BENCH_IPC_MIN_SPEEDUP`` times the pipe rate (default 2.0)
  and clear an absolute floor (``BENCH_IPC_MIN_BYTES_PER_SEC``,
  default 50 MB/s — collapses only, not runner noise).
* **end_to_end** — ``classify`` on the same batches with a fitted
  model. Compute dominates here, so the guard is only that shm does
  not *regress* the pipeline (``BENCH_IPC_MIN_E2E_RATIO``, default
  0.9); the headline number is recorded for the perf trajectory.

Results land in ``BENCH_ipc.json`` at the repo root.

Run:  PYTHONPATH=src python -m pytest benchmarks/test_bench_ipc.py -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.labeling.balancer import balance
from repro.core.parallel import ShardPlan
from repro.core.resilience import FaultPlan, SupervisedProcessBackend
from repro.core.scrubber import IXPScrubber, ScrubberConfig

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT) not in sys.path:  # `pytest benchmarks/` without `-m`
    sys.path.insert(0, str(_REPO_ROOT))
from tests import strategies  # noqa: E402

BENCH_FILE = _REPO_ROOT / "BENCH_ipc.json"

N_SHARDS = 2
#: Big enough that per-message overhead is amortised and the payload
#: (~46 B/flow) stresses the copy path; small enough for a CI smoke
#: job and well under the 16 MiB default ring.
N_FLOWS = 200_000
ECHO_REPEATS = 9
#: Steady-state warm-up: enough round trips for a frame to cycle every
#: ring position (16 MiB ring / ~5 MB frames = 3 positions), so the
#: timed repeats measure the transport, not first-touch page faults.
WARMUP_REPEATS = 4


def _median_seconds(fn, repeats: int = ECHO_REPEATS):
    """Median wall-clock of ``repeats`` runs, plus the last result."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


def _record(op: str, payload: dict) -> None:
    """Merge one measurement into BENCH_ipc.json."""
    data = {}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    data[op] = payload
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def shard_flows():
    flows = strategies.flows(
        strategies.rng_for(2027), n_flows=N_FLOWS, n_targets=64, n_bins=4
    )
    parts = ShardPlan(N_SHARDS).split(flows)
    assert all(p is not None and len(p) for p in parts)
    return parts


@pytest.fixture(scope="module")
def dispatch_bytes(shard_flows):
    return int(
        sum(
            sum(a.nbytes for a in part.to_columns().values())
            for part in shard_flows
        )
    )


@pytest.fixture(scope="module")
def fitted_scrubber():
    rng = strategies.rng_for(999)
    labeled = strategies.labeled_flows(rng, n_flows=6000, n_targets=12, n_bins=20)
    balanced = balance(labeled, np.random.default_rng(7)).flows
    config = ScrubberConfig(model="XGB", model_params={"n_estimators": 10})
    return IXPScrubber(config).fit(balanced)


def _timed_backend(ipc, fn, *, scrubber=None, repeats=ECHO_REPEATS):
    backend = SupervisedProcessBackend(N_SHARDS, ipc=ipc, fault_plan=FaultPlan())
    try:
        if scrubber is not None:
            backend.broadcast(scrubber)
        for _ in range(WARMUP_REPEATS):  # imports, mappings, ring cycle
            fn(backend)
        return _median_seconds(lambda: fn(backend), repeats=repeats)
    finally:
        backend.close()


def test_bench_ipc_dispatch_and_e2e(shard_flows, dispatch_bytes, fitted_scrubber):
    rows = [len(p) for p in shard_flows]

    pipe_s, pipe_counts = _timed_backend(
        "pipe", lambda b: b.echo(shard_flows)
    )
    shm_s, shm_counts = _timed_backend(
        "shm", lambda b: b.echo(shard_flows)
    )
    # Sanity: both transports actually carried every row.
    assert pipe_counts == rows and shm_counts == rows

    pipe_bps = dispatch_bytes / pipe_s
    shm_bps = dispatch_bytes / shm_s
    speedup = shm_bps / pipe_bps

    e2e_pipe_s, expected = _timed_backend(
        "pipe",
        lambda b: b.classify(shard_flows, min_flows=3),
        scrubber=fitted_scrubber,
        repeats=3,
    )
    e2e_shm_s, actual = _timed_backend(
        "shm",
        lambda b: b.classify(shard_flows, min_flows=3),
        scrubber=fitted_scrubber,
        repeats=3,
    )
    # The zero-copy path must not change a single verdict.
    assert actual == expected and any(len(v) for v in expected)
    e2e_ratio = e2e_pipe_s / e2e_shm_s

    _record("dispatch_pipe", {
        "n_flows": int(N_FLOWS),
        "n_shards": N_SHARDS,
        "payload_bytes": dispatch_bytes,
        "seconds": round(pipe_s, 5),
        "bytes_per_sec": int(pipe_bps),
    })
    _record("dispatch_shm", {
        "n_flows": int(N_FLOWS),
        "n_shards": N_SHARDS,
        "payload_bytes": dispatch_bytes,
        "seconds": round(shm_s, 5),
        "bytes_per_sec": int(shm_bps),
        "speedup_vs_pipe": round(speedup, 2),
    })
    _record("end_to_end", {
        "n_flows": int(N_FLOWS),
        "n_shards": N_SHARDS,
        "pipe_seconds": round(e2e_pipe_s, 4),
        "shm_seconds": round(e2e_shm_s, 4),
        "shm_over_pipe": round(e2e_ratio, 2),
    })

    min_speedup = float(os.environ.get("BENCH_IPC_MIN_SPEEDUP", "2.0"))
    assert speedup >= min_speedup, (
        f"shm dispatch {shm_bps / 1e6:,.0f} MB/s is only {speedup:.2f}x the "
        f"pipe baseline ({pipe_bps / 1e6:,.0f} MB/s); guard {min_speedup}x"
    )
    min_bps = float(os.environ.get("BENCH_IPC_MIN_BYTES_PER_SEC", "50000000"))
    assert shm_bps >= min_bps, (
        f"shm dispatch {shm_bps / 1e6:,.0f} MB/s below the absolute floor "
        f"{min_bps / 1e6:,.0f} MB/s"
    )
    min_e2e = float(os.environ.get("BENCH_IPC_MIN_E2E_RATIO", "0.9"))
    assert e2e_ratio >= min_e2e, (
        f"shm end-to-end classify is {e2e_ratio:.2f}x pipe "
        f"(guard {min_e2e}x): the transport regressed the pipeline"
    )
