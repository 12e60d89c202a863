"""Golden-trace regression tests.

Replays the frozen workloads under ``tests/golden/`` through the
serial engine and the sharded engine (shards ∈ {1, 2, 4}; the 4-shard
variant uses the multiprocessing backend, so the golden path also
covers IPC round-trips) and compares every verdict against the stored
trace. Discrete fields (bin, target, label, matched rules) must match
exactly; scores may drift at most ``TOLERANCE`` (1e-9) to allow for
benign float-formatting differences, nothing more. The sketch-mode
traces replay the same way at shards ∈ {1, 2} serial and 4 supervised.
The generated *inputs* are pinned too: ``streams.json`` holds one
SHA-256 per stream.

If these fail after a deliberate behaviour change, regenerate with::

    PYTHONPATH=src python tests/gen_golden.py

and commit the JSON diff with the change (see ``gen_golden.py``'s
docstring for the policy).
"""

from __future__ import annotations

import json

import pytest

from tests import gen_golden
from repro.core.parallel import ShardedStreamingScrubber
from repro.core.streaming import StreamingScrubber

TOLERANCE = 1e-9

ENGINES = {
    "serial": lambda: StreamingScrubber(**gen_golden.ENGINE_KWARGS),
    "shards1": lambda: ShardedStreamingScrubber(
        n_shards=1, backend="serial", **gen_golden.ENGINE_KWARGS
    ),
    "shards2": lambda: ShardedStreamingScrubber(
        n_shards=2, backend="serial", **gen_golden.ENGINE_KWARGS
    ),
    "shards4": lambda: ShardedStreamingScrubber(
        n_shards=4, backend="supervised", **gen_golden.ENGINE_KWARGS
    ),
}


SKETCH_ENGINES = {
    "shards1": lambda: gen_golden.sketch_engine(1, "serial"),
    "shards2": lambda: gen_golden.sketch_engine(2, "serial"),
    "shards4": lambda: gen_golden.sketch_engine(4, "supervised"),
}


@pytest.fixture(scope="module")
def scrubber():
    return gen_golden.build_scrubber()


def load_trace(path) -> dict:
    assert path.is_file(), (
        f"missing golden fixture {path}; run "
        "`PYTHONPATH=src python tests/gen_golden.py`"
    )
    return json.loads(path.read_text(encoding="utf-8"))


def assert_replays(golden: dict, engine, workload, label: str, **drive_kwargs):
    try:
        verdicts = gen_golden.drive(engine, workload, **drive_kwargs)
    finally:
        if hasattr(engine, "close"):
            engine.close()
    actual = gen_golden.verdicts_to_records(verdicts)
    expected = golden["verdicts"]
    assert len(actual) == golden["n_verdicts"] == len(expected), (
        f"{label}: {len(actual)} verdicts, golden has {golden['n_verdicts']}"
    )
    for i, (got, want) in enumerate(zip(actual, expected)):
        for field in ("bin", "target_ip", "is_ddos", "matched_rules"):
            assert got[field] == want[field], (
                f"{label} verdict {i}: {field} drifted "
                f"({got[field]!r} != {want[field]!r})"
            )
        drift = abs(got["score"] - want["score"])
        assert drift <= TOLERANCE, (
            f"{label} verdict {i}: score drifted by {drift:.3e} "
            f"({got['score']!r} != {want['score']!r})"
        )


@pytest.mark.parametrize("engine_id", list(ENGINES), ids=list(ENGINES))
@pytest.mark.parametrize("seed", gen_golden.WORKLOAD_SEEDS)
def test_verdicts_match_golden_trace(seed, engine_id, scrubber):
    assert_replays(
        load_trace(gen_golden.trace_path(seed)),
        ENGINES[engine_id]().warm_start(scrubber),
        gen_golden.build_workload(seed),
        f"{engine_id} w{seed}",
    )


@pytest.mark.parametrize("engine_id", list(SKETCH_ENGINES), ids=list(SKETCH_ENGINES))
@pytest.mark.parametrize("seed", gen_golden.SKETCH_SEEDS)
def test_sketch_verdicts_match_golden_trace(seed, engine_id, scrubber):
    assert_replays(
        load_trace(gen_golden.sketch_trace_path(seed)),
        SKETCH_ENGINES[engine_id]().warm_start(scrubber),
        gen_golden.build_sketch_workload(seed),
        f"sketch {engine_id} w{seed}",
        chunk_seconds=gen_golden.SKETCH_CHUNK_SECONDS,
    )


def test_fixtures_are_self_consistent():
    """Every stored trace is sorted by (bin, target) and non-trivial."""
    paths = [(seed, gen_golden.trace_path(seed)) for seed in gen_golden.WORKLOAD_SEEDS]
    paths += [(seed, gen_golden.sketch_trace_path(seed)) for seed in gen_golden.SKETCH_SEEDS]
    for seed, path in paths:
        golden = load_trace(path)
        assert golden["workload_seed"] == seed
        keys = [(v["bin"], v["target_ip"]) for v in golden["verdicts"]]
        assert keys == sorted(keys), f"w{seed}: trace not in emission order"
        assert len(keys) == len(set(keys)), f"w{seed}: duplicate verdict keys"
        assert any(v["is_ddos"] for v in golden["verdicts"]), (
            f"w{seed}: no positive verdicts — fixture too weak to catch drift"
        )
        assert any(not v["is_ddos"] for v in golden["verdicts"]), (
            f"w{seed}: no negative verdicts — fixture too weak to catch drift"
        )


def test_streams_match_golden_digests():
    """Every generated stream (flows and BGP updates) is byte-identical
    to the digest frozen in ``tests/golden/streams.json``."""
    golden = json.loads(gen_golden.STREAMS_PATH.read_text(encoding="utf-8"))
    assert gen_golden.stream_digests() == golden
