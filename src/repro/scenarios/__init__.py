"""Seeded operational scenarios with oracles (``repro.scenarios``).

The paper's claim is operational — catch volumetric attacks at scale
without dropping benign traffic — and this package turns it into
continuously checked behaviour: a registry of named, seeded scenarios
(:mod:`repro.scenarios.catalog`), each composing an open-loop Poisson
load (:func:`repro.scenarios.workload.poisson_load`) and injected
attacks into a stream rendered offline, then driven through a real
:class:`ShardedStreamingScrubber` and scored by an oracle that knows
the injected ground truth (:mod:`repro.scenarios.oracle`) into a JSON
scorecard (:mod:`repro.scenarios.conductor`).

Quick tour::

    from repro import scenarios

    result = scenarios.run_scenario("carpet_bombing", seed=7, scale=0.5)
    print(scenarios.scorecard_json(result.scorecard))

With exact aggregation the scorecard is bit-identical across reruns,
shard counts and backends; ``repro scenarios list/run`` is the CLI
front end, ``docs/TESTING.md`` the testing guide.
"""

from repro.scenarios import catalog  # noqa: F401  (registers the catalogue)
from repro.scenarios.conductor import (
    SCORECARD_SCHEMA_VERSION,
    Scenario,
    ScenarioResult,
    ScenarioSpec,
    all_scenarios,
    bootstrap_scrubber,
    get_scenario,
    register,
    run_scenario,
    scenario_names,
    scorecard_json,
)
from repro.scenarios.oracle import Check, GroundTruth, InjectedAttack, score_verdicts
from repro.scenarios.workload import poisson_load

__all__ = [
    "SCORECARD_SCHEMA_VERSION",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "Check",
    "GroundTruth",
    "InjectedAttack",
    "all_scenarios",
    "bootstrap_scrubber",
    "get_scenario",
    "poisson_load",
    "register",
    "run_scenario",
    "scenario_names",
    "score_verdicts",
    "scorecard_json",
]
