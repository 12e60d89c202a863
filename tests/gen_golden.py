"""Regenerate the golden verdict traces under ``tests/golden/``.

The golden fixtures freeze the end-to-end verdict stream (bin, target,
label, score, matched rules) of the streaming engine on three seeded
workloads from ``tests/strategies.py``. ``tests/test_golden_traces.py``
replays the same workloads through the serial and the sharded engines
and fails on any drift beyond 1e-9 in score or any change in the
discrete fields — the regression tripwire for refactors of the
aggregation, encoding, scoring or parallel layers.

``tests/golden/scenarios/`` freezes full oracle scorecards of two
conducted scenarios (``repro.scenarios``); ``tests/test_scenarios.py``
re-runs them and applies the same 1e-9 gate to every float, pinning the
whole workload → engine → oracle path.

Regenerate **only** after an intentional behaviour change, with::

    PYTHONPATH=src python tests/gen_golden.py

then review the JSON diff and commit it together with the change that
motivated it. A regeneration that diffs when you did not intend to
change behaviour is a bug, not a fixture update.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # script mode: make `tests.` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests import strategies
from repro.core.labeling.balancer import balance
from repro.core.scrubber import IXPScrubber, ScrubberConfig
from repro.core.streaming import StreamingScrubber
from repro.netflow.dataset import FlowDataset

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIO_GOLDEN_DIR = GOLDEN_DIR / "scenarios"

#: One golden trace per workload seed.
WORKLOAD_SEEDS = (101, 202, 303)

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


def drive(engine, workload, chunk_bins: int = 2) -> list:
    """Stream a workload through an engine in fixed-size chunks."""
    bins = workload.time // 60
    verdicts = []
    for start in range(int(bins.min()), int(bins.max()) + 1, chunk_bins):
        mask = (bins >= start) & (bins < start + chunk_bins)
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


def scenario_path(name: str, seed: int, scale: float) -> Path:
    return SCENARIO_GOLDEN_DIR / f"{name}_s{seed}_x{scale:g}.json"


def main() -> int:
    scrubber = build_scrubber()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for seed in WORKLOAD_SEEDS:
        engine = StreamingScrubber(**ENGINE_KWARGS).warm_start(scrubber)
        verdicts = drive(engine, build_workload(seed))
        record = {
            "workload_seed": seed,
            "n_verdicts": len(verdicts),
            "verdicts": verdicts_to_records(verdicts),
        }
        path = trace_path(seed)
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}: "
              f"{len(verdicts)} verdicts")

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
