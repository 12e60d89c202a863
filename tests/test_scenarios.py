"""Scenario conductor: workload, oracle, registry and scorecard tests.

Three layers, matching the package:

* :class:`TestPoissonWorkloadManager` — the open-loop ``poisson_load``
  contract (determinism, the ``scale`` knob, bins and target block);
* :class:`TestOracle` — scoring arithmetic on hand-built verdict
  streams where every metric value is computable by eye;
* the conductor tests — golden scorecards with a 1e-9 float gate, and
  the bit-identical-scorecard property across reruns, shard counts,
  backends and injected faults (the acceptance criterion of the
  scenario subsystem).

Process-backend and whole-catalogue runs carry ``@pytest.mark.slow``
and are excluded from tier-1 (``addopts = -m "not slow"``); the CI
``scenario-soak`` job runs them with ``-m slow``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests.gen_golden import SCENARIO_CASES, scenario_path
from repro import obs
from repro.core.resilience import FaultPlan
from repro.core.scrubber import TargetVerdict
from repro.obs import names
from repro.scenarios import (
    Check,
    GroundTruth,
    InjectedAttack,
    get_scenario,
    poisson_load,
    run_scenario,
    scenario_names,
    score_verdicts,
    scorecard_json,
)
from repro.scenarios.oracle import evaluate_checks

# ----------------------------------------------------------------------
# Workload manager.
# ----------------------------------------------------------------------


class TestPoissonWorkloadManager:
    """:func:`poisson_load` (the class name predates the function and is
    kept so the four surviving test ids stay put)."""

    def test_same_seed_same_flows(self):
        a, b = (poisson_load(5, active_users=80.0, rate_per_user=0.5,
                             n_bins=16) for _ in range(2))
        assert len(a.flows) == len(b.flows)
        for column in ("time", "src_ip", "dst_ip", "bytes"):
            assert np.array_equal(getattr(a.flows, column),
                                  getattr(b.flows, column))
        assert np.array_equal(a.targets, b.targets)
        assert a.mean_active_users == b.mean_active_users

    def test_scale_multiplies_offered_load(self):
        small, large = (
            poisson_load(5, active_users=120.0, rate_per_user=0.5,
                         n_bins=24, scale=scale)
            for scale in (0.5, 4.0)
        )
        # Poisson noise is far smaller than the 8x scale ratio.
        assert len(large.flows) > 4 * len(small.flows)
        assert large.mean_active_users > 4 * small.mean_active_users

    def test_flows_land_in_the_collected_bins_in_order(self):
        load = poisson_load(1, active_users=60.0, rate_per_user=0.4,
                            n_bins=8, start_bin=10)
        bins = load.flows.time // 60
        assert bins.min() >= 10 and bins.max() < 18
        assert (np.diff(bins) >= 0).all()  # emitted bin by bin

    def test_targets_stay_in_declared_block(self):
        load = poisson_load(2, active_users=40.0, rate_per_user=0.5,
                            n_bins=4, n_targets=32)
        assert load.targets.size == 32
        assert ((load.targets & 0xFFFF0000) == 0x0AC80000).all()
        assert np.isin(load.flows.dst_ip, load.targets).all()


# ----------------------------------------------------------------------
# Oracle scoring.
# ----------------------------------------------------------------------


def _verdict(bin_, target, is_ddos, score=None):
    if score is None:
        score = 0.9 if is_ddos else 0.1
    return TargetVerdict(bin=bin_, target_ip=target, is_ddos=is_ddos,
                         score=score, matched_rules=())


class TestOracle:
    VICTIM = 0x0A000001
    BENIGN = (0x0B000001, 0x0B000002, 0x0B000003)

    def _truth(self, **attack_kwargs):
        defaults = dict(attack_id="a", victims=(self.VICTIM,),
                        start_bin=10, end_bin=20, vectors=("DNS",))
        defaults.update(attack_kwargs)
        return GroundTruth(attacks=(InjectedAttack(**defaults),),
                           benign_targets=self.BENIGN, horizon_bin=30)

    def test_latency_counts_from_attack_start(self):
        verdicts = [_verdict(13, self.VICTIM, True),
                    _verdict(14, self.VICTIM, True)]
        metrics, details = score_verdicts(verdicts, self._truth())
        assert metrics["attacks_detected"] == 1
        assert metrics["detection_latency_mean_bins"] == 3
        assert metrics["detection_latency_max_bins"] == 3
        assert details[0]["first_detection_bin"] == 13

    def test_detectable_from_moves_the_clock(self):
        verdicts = [_verdict(16, self.VICTIM, True)]
        metrics, _ = score_verdicts(
            verdicts, self._truth(detectable_from=15)
        )
        assert metrics["detection_latency_max_bins"] == 1

    def test_missed_attack_has_no_latency(self):
        metrics, details = score_verdicts([], self._truth())
        assert metrics["detection_recall"] == 0.0
        assert metrics["detection_latency_mean_bins"] is None
        assert details[0]["first_detection_bin"] is None

    def test_localization_and_collateral_arithmetic(self):
        verdicts = [
            _verdict(12, self.VICTIM, True),
            _verdict(12, self.BENIGN[0], True),   # collateral
            _verdict(12, self.BENIGN[1], False),
            _verdict(25, self.VICTIM, False),
        ]
        metrics, _ = score_verdicts(verdicts, self._truth())
        assert metrics["localization_precision"] == 0.5   # 1 of 2 flagged
        assert metrics["localization_recall"] == 1.0
        assert metrics["benign_targets_scored"] == 2
        assert metrics["benign_targets_flagged"] == 1
        assert metrics["benign_collateral_rate"] == 0.5
        assert metrics["false_positive_verdicts"] == 1

    def test_flag_after_the_window_is_not_a_detection(self):
        # The victim flagged only after the attack ended: no detection,
        # but also no collateral — the target genuinely was attacked.
        verdicts = [_verdict(25, self.VICTIM, True)]
        metrics, details = score_verdicts(verdicts, self._truth())
        assert metrics["attacks_detected"] == 0
        assert details[0]["latency_bins"] is None
        assert metrics["localization_precision"] == 1.0
        assert metrics["false_positive_verdicts"] == 0

    def test_check_operators(self):
        values = {"x": 1.5, "missing_is_fail": None}
        results, ok = evaluate_checks(
            (Check("ge", "x", ">=", 1.0), Check("le", "x", "<=", 2.0),
             Check("eq", "x", "==", 1.5)),
            values,
        )
        assert ok and all(r["passed"] for r in results)
        results, ok = evaluate_checks(
            (Check("none", "missing_is_fail", ">=", 0.0),
             Check("absent", "no_such_metric", "<=", 1.0)),
            values,
        )
        assert not ok and not any(r["passed"] for r in results)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------


class TestRegistry:
    def test_catalogue_has_the_promised_scenarios(self):
        names = scenario_names()
        assert len(names) >= 6
        for required in ("flash_crowd", "volumetric_flood", "carpet_bombing",
                         "retrain_storm", "blackhole_churn", "slow_drift",
                         "novel_vector", "collateral_spike",
                         "coordinator_crash"):
            assert required in names

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="carpet_bombing"):
            get_scenario("no_such_scenario")

    @pytest.mark.parametrize("name", scenario_names())
    def test_attacks_injected_counts_the_truth(self, name):
        """One recorded attack, one count — however many segments or
        victims it was rendered from (``slow_drift`` read 13 for 1)."""
        registry = obs.MetricRegistry()
        with obs.use_registry(registry):
            spec = get_scenario(name).build(7, 0.25)
        injected = registry.counter(names.C_SCENARIO_ATTACKS_INJECTED).value
        assert injected == len(spec.truth.attacks)

    def test_specs_build_deterministically(self):
        for name in ("flash_crowd", "blackhole_churn"):
            build = get_scenario(name).build
            a, b = build(3, 0.25), build(3, 0.25)
            assert len(a.flows) == len(b.flows)
            assert np.array_equal(a.flows.dst_ip, b.flows.dst_ip)
            assert a.truth == b.truth
            assert [u.prefix for u in a.updates] == [u.prefix for u in b.updates]


# ----------------------------------------------------------------------
# Conductor: goldens and the invariance property.
# ----------------------------------------------------------------------


def _assert_scorecards_match(actual: dict, golden: dict, context: str,
                             path: str = "$") -> None:
    """Recursive compare: floats gated at 1e-9, all else exact."""
    if isinstance(golden, float) and isinstance(actual, (int, float)):
        assert actual == pytest.approx(golden, abs=1e-9), (
            f"{context}: {path} drifted: {actual!r} != {golden!r}"
        )
    elif isinstance(golden, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(golden), (
            f"{context}: {path} keys changed"
        )
        for key in golden:
            _assert_scorecards_match(actual[key], golden[key], context,
                                     f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(actual) == len(golden), (
            f"{context}: {path} length changed"
        )
        for i, (a, g) in enumerate(zip(actual, golden)):
            _assert_scorecards_match(a, g, context, f"{path}[{i}]")
    else:
        assert actual == golden, (
            f"{context}: {path} changed: {actual!r} != {golden!r}"
        )


@pytest.mark.parametrize("name,seed,scale", SCENARIO_CASES)
def test_golden_scorecards(name, seed, scale):
    golden = json.loads(scenario_path(name, seed, scale).read_text())
    result = run_scenario(name, seed=seed, scale=scale)
    _assert_scorecards_match(result.scorecard, golden,
                             f"{name} seed={seed} scale={scale}")
    assert result.scorecard["passed"], f"golden scenario {name} fails its oracle"


def test_scorecard_invariant_across_reruns_and_shards():
    runs = {
        "rerun": dict(),
        "4 shards": dict(shards=4),
    }
    base = scorecard_json(
        run_scenario("carpet_bombing", seed=7, scale=0.25).scorecard
    )
    for label, kwargs in runs.items():
        other = scorecard_json(
            run_scenario("carpet_bombing", seed=7, scale=0.25, **kwargs).scorecard
        )
        assert other == base, f"scorecard not bit-identical under {label}"


@pytest.mark.slow
def test_scorecard_invariant_across_backends():
    base = scorecard_json(
        run_scenario("carpet_bombing", seed=7, scale=0.25).scorecard
    )
    other = scorecard_json(
        run_scenario("carpet_bombing", seed=7, scale=0.25,
                     shards=2, backend="supervised").scorecard
    )
    assert other == base, "scorecard drifted on supervised x2"


@pytest.mark.slow
def test_fault_plan_is_score_invisible(monkeypatch):
    """A seeded worker-crash plan must not change a single scorecard bit."""
    from repro.core.resilience import FAULTS_ENV

    monkeypatch.setenv(FAULTS_ENV, "crash@0:batch=1")
    base = scorecard_json(
        run_scenario("volumetric_flood", seed=11, scale=0.25).scorecard
    )
    faulted = scorecard_json(
        run_scenario(
            "volumetric_flood", seed=11, scale=0.25, shards=2,
            backend="supervised",
            backend_options={"fault_plan": FaultPlan.from_env()},
        ).scorecard
    )
    assert faulted == base


@pytest.mark.slow
def test_whole_catalogue_passes_its_oracles():
    failed = []
    for name in scenario_names():
        result = run_scenario(name, seed=7, scale=0.25)
        if not result.scorecard["passed"]:
            bad = [c["name"] for c in result.scorecard["checks"]
                   if not c["passed"]]
            failed.append(f"{name}: {bad}")
    assert not failed, "scenarios failed their oracles: " + "; ".join(failed)


def test_scorecard_is_json_safe_and_versioned():
    result = run_scenario("volumetric_flood", seed=11, scale=0.25)
    rendered = scorecard_json(result.scorecard)
    parsed = json.loads(rendered)
    assert parsed["schema_version"] == 1
    assert parsed["metrics"]["detection_recall"] > 0
    assert set(parsed) >= {"scenario", "seed", "scale", "stream", "truth",
                           "metrics", "attacks", "checks", "passed"}
    # NaN/Infinity never reach the scorecard (allow_nan=False would
    # already have thrown while rendering).
    assert "NaN" not in rendered and "Infinity" not in rendered


def test_failed_warm_start_strands_no_workers(monkeypatch):
    """Regression: ``make_engine`` closes an engine it cannot hand over.

    ``warm_start`` rejects an unfitted scrubber *after* the supervised
    engine has spawned its workers and rings; the caller never receives
    that engine, so ``make_engine`` itself has to close it (RS602 found
    this once the lifecycle pass learned what a sharded engine is).
    """
    import glob
    import multiprocessing
    import os

    from repro.core.scrubber import IXPScrubber
    from repro.scenarios import conductor

    monkeypatch.setattr(
        conductor, "bootstrap_scrubber", lambda seed, **kwargs: IXPScrubber()
    )
    mine = f"/dev/shm/repro-*-{os.getpid()}-*"
    children = set(multiprocessing.active_children())
    segments = set(glob.glob(mine))
    # Holding the exception keeps the failed frame — and, unclosed, the
    # engine in it — alive, so the GC finalizer cannot mask a leak.
    with pytest.raises(RuntimeError, match="not fitted") as stranded:
        run_scenario(
            "volumetric_flood", seed=11, scale=0.25, shards=2,
            backend="supervised", backend_options={"ipc": "shm"},
        )
    assert set(multiprocessing.active_children()) == children
    assert set(glob.glob(mine)) == segments
    del stranded
