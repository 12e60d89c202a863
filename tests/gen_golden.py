"""Regenerate the golden verdict traces under ``tests/golden/``.

The golden fixtures freeze the end-to-end verdict stream (bin, target,
label, score, matched rules) of the streaming engine on three seeded
workloads from ``tests/strategies.py``. ``tests/test_golden_traces.py``
replays the same workloads through the serial and the sharded engines
and fails on any drift beyond 1e-9 in score or any change in the
discrete fields — the regression tripwire for refactors of the
aggregation, encoding, scoring or parallel layers.

``tests/golden/sketch_w*.json`` do the same for ``agg="sketch"``: a few
heavy targets under a fan-out of sparse ones, handed over in three
chunks per bin. Count-min overcount lifts some one- and two-flow
targets past ``min_flows_per_verdict``, so the traces pin the
estimates, the candidate admission and the merge, not only the
ranking; they replay at one and two serial shards and four supervised
ones, which a comparison of shard counts against each other cannot
replace (a change that moves every count moves both sides).

``tests/golden/scenarios/`` freezes full oracle scorecards of two
conducted scenarios (``repro.scenarios``); ``tests/test_scenarios.py``
re-runs them and applies the same 1e-9 gate to every float, pinning the
whole workload → engine → oracle path.

``tests/golden/streams.json`` freezes the *inputs*: one SHA-256 per
generated stream (every flow column plus the rendered BGP update list)
for all nine catalogue scenarios, the two warm-start corpora, two
``WorkloadGenerator`` captures and one booter campaign.
``tests/test_golden_traces.py::test_streams_match_golden_digests``
recomputes them, so a refactor of the traffic/scenario generators that
moves a single flow or update fails even where no scorecard notices.

Regenerate **only** after an intentional behaviour change, with::

    PYTHONPATH=src python tests/gen_golden.py

then review the JSON diff and commit it together with the change that
motivated it. A regeneration that diffs when you did not intend to
change behaviour is a bug, not a fixture update.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # script mode: make `tests.` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests import strategies
from tests.conftest import TINY_PROFILE
from repro.core.labeling.balancer import balance
from repro.core.parallel import ShardedStreamingScrubber
from repro.core.scrubber import IXPScrubber, ScrubberConfig
from repro.core.streaming import StreamingScrubber
from repro.netflow.dataset import SCHEMA, FlowDataset

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIO_GOLDEN_DIR = GOLDEN_DIR / "scenarios"
STREAMS_PATH = GOLDEN_DIR / "streams.json"

#: Seed and scale every catalogue stream is digested at (the
#: ``scenario-soak`` job's point; small enough to build in a second).
STREAM_SEED, STREAM_SCALE = 7, 0.25

#: One golden trace per workload seed.
WORKLOAD_SEEDS = (101, 202, 303)

#: One golden sketch-mode trace per workload seed.
SKETCH_SEEDS = (404, 505)

#: Sketch traces hand a bin to the engine in three chunks.
SKETCH_CHUNK_SECONDS = 20

#: Scenario scorecards frozen as goldens: (name, seed, scale). Small
#: scales keep regeneration and replay under a few seconds each.
SCENARIO_CASES = (
    ("carpet_bombing", 7, 0.25),
    ("volumetric_flood", 11, 0.25),
)

#: Engine parameters shared by generation and replay. The huge grace
#: period keeps the runs pure-classification (no retrain), so a trace
#: pins down exactly the aggregate → encode → score → verdict path.
ENGINE_KWARGS = dict(
    window_days=2,
    bins_per_day=48,
    min_flows_per_verdict=3,
    label_grace_bins=10**6,
    seed=1,
)


def training_flows() -> FlowDataset:
    """The balanced flows the frozen model is fitted on."""
    rng = strategies.rng_for(999)
    labeled = strategies.labeled_flows(rng, n_flows=6000, n_targets=12, n_bins=20)
    return balance(labeled, np.random.default_rng(7)).flows


def build_scrubber() -> IXPScrubber:
    """The frozen model all golden traces are scored with."""
    config = ScrubberConfig(model="XGB", model_params={"n_estimators": 10})
    return IXPScrubber(config).fit(training_flows())


def build_workload(seed: int):
    """The flow stream for one golden trace."""
    return strategies.labeled_flows(
        strategies.rng_for(seed), n_flows=400, n_targets=10, n_bins=4
    )


def build_sketch_workload(seed: int) -> FlowDataset:
    """The flow stream for one golden sketch trace: 10 heavy targets
    (300 flows a bin) among 1500 sparse ones (two flows each over four
    bins), in time order."""
    rng = strategies.rng_for(seed)
    heavy = strategies.labeled_flows(rng, n_flows=1200, n_targets=10, n_bins=4)
    sparse = strategies.wide_flows(rng, n_targets=1500, flows_per_target=2, n_bins=4)
    flows = FlowDataset.concat([heavy, sparse])
    return flows.select(np.argsort(flows.time, kind="stable"))


def sketch_engine(n_shards: int, backend: str):
    """A sketch-mode engine at the default ``SketchParams``."""
    return ShardedStreamingScrubber(
        n_shards=n_shards, backend=backend, agg="sketch", **ENGINE_KWARGS
    )


def drive(engine, workload, chunk_seconds: int = 120) -> list:
    """Stream a workload through an engine in fixed-size chunks."""
    verdicts = []
    start = int(workload.time.min()) // 60 * 60
    for lo in range(start, int(workload.time.max()) + 1, chunk_seconds):
        mask = (workload.time >= lo) & (workload.time < lo + chunk_seconds)
        verdicts.extend(engine.ingest(workload.select(mask)))
    verdicts.extend(engine.flush())
    return verdicts


def verdicts_to_records(verdicts) -> list[dict]:
    return [
        {
            "bin": v.bin,
            "target_ip": v.target_ip,
            "is_ddos": v.is_ddos,
            "score": v.score,
            "matched_rules": list(v.matched_rules),
        }
        for v in verdicts
    ]


def trace_path(seed: int) -> Path:
    return GOLDEN_DIR / f"trace_w{seed}.json"


def sketch_trace_path(seed: int) -> Path:
    return GOLDEN_DIR / f"sketch_w{seed}.json"


def write_trace(path: Path, seed: int, verdicts) -> None:
    record = {
        "workload_seed": seed,
        "n_verdicts": len(verdicts),
        "verdicts": verdicts_to_records(verdicts),
    }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}: "
          f"{len(verdicts)} verdicts")


def scenario_path(name: str, seed: int, scale: float) -> Path:
    return SCENARIO_GOLDEN_DIR / f"{name}_s{seed}_x{scale:g}.json"


def stream_digest(flows: FlowDataset, updates=()) -> str:
    """SHA-256 over every flow column and the rendered update list."""
    digest = hashlib.sha256()
    for name, dtype in SCHEMA.items():
        column = flows.column(name)
        assert column.dtype == dtype
        digest.update(f"{name}:{dtype.str}:{len(column)}\n".encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    for update in updates:
        # Dataclass reprs spell out every field (prefix, origin, time,
        # AS path, communities, next hop), so any rendering change shows.
        digest.update(f"{update!r}\n".encode())
    return digest.hexdigest()


def stream_digests() -> dict[str, str]:
    """Digest of every stream the golden file pins, by name."""
    from repro.ixp.fabric import IXPFabric
    from repro.scenarios import conductor, get_scenario, scenario_names
    from repro.traffic import BooterSimulator, WorkloadGenerator

    digests = {}
    for name in scenario_names():
        spec = get_scenario(name).build(STREAM_SEED, STREAM_SCALE)
        digests[f"scenario/{name}"] = stream_digest(spec.flows, spec.updates)
    for exclude in ((), ("memcached",)):
        corpus = conductor._bootstrap_corpus(STREAM_SEED, exclude)
        digests[f"bootstrap/{'-'.join(exclude) or 'all'}"] = stream_digest(corpus)
    fabric = IXPFabric(TINY_PROFILE)
    # 12 attacks a day: blackhole cycles, two /28s and withdrawals cut
    # off by the horizon. The profile's 1% spurious rate draws no cycle
    # in two days, so a second capture raises it to three a day.
    noisy = replace(TINY_PROFILE, spurious_blackhole_probability=0.25)
    for label, vantage in (("IXP-TEST", fabric), ("IXP-TEST-spurious", IXPFabric(noisy))):
        capture = WorkloadGenerator(vantage).generate(0, 2)
        digests[f"workload/{label}"] = stream_digest(capture.flows, capture.updates)
    digests["booter/IXP-TEST"] = stream_digest(BooterSimulator(fabric).run_campaign(10).flows)
    return digests


def main() -> int:
    scrubber = build_scrubber()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for seed in WORKLOAD_SEEDS:
        engine = StreamingScrubber(**ENGINE_KWARGS).warm_start(scrubber)
        write_trace(trace_path(seed), seed, drive(engine, build_workload(seed)))
    for seed in SKETCH_SEEDS:
        engine = sketch_engine(1, "serial").warm_start(scrubber)
        try:
            verdicts = drive(engine, build_sketch_workload(seed), SKETCH_CHUNK_SECONDS)
        finally:
            engine.close()
        write_trace(sketch_trace_path(seed), seed, verdicts)

    from repro.scenarios import run_scenario, scorecard_json

    SCENARIO_GOLDEN_DIR.mkdir(exist_ok=True)
    for name, seed, scale in SCENARIO_CASES:
        result = run_scenario(name, seed=seed, scale=scale)
        path = scenario_path(name, seed, scale)
        path.write_text(
            scorecard_json(result.scorecard) + "\n", encoding="utf-8"
        )
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}: "
              f"passed={result.scorecard['passed']}")

    digests = stream_digests()
    STREAMS_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {STREAMS_PATH.relative_to(GOLDEN_DIR.parent.parent)}: "
          f"{len(digests)} streams")
    return 0


if __name__ == "__main__":
    sys.exit(main())
