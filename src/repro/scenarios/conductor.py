"""Scenario registry + conductor: build a stream, drive a real engine.

A :class:`Scenario` is a named builder: ``build(seed, scale)`` renders
the full operational stream (benign load from
:func:`~repro.scenarios.workload.poisson_load`, injected attacks,
BGP blackhole updates) plus its oracle ground truth into a
:class:`ScenarioSpec`. The conductor then:

1. warm-starts a scrubber on a seeded bootstrap corpus (cached per
   seed — scenario streams never train the initial model, so detection
   scores measure the *online* pipeline, not the bootstrap);
2. streams the spec chunk-by-chunk through a real
   :class:`~repro.core.parallel.engine.ShardedStreamingScrubber` with
   whatever shard count / backend / aggregation mode the caller picked;
3. scores the verdict stream against the ground truth and evaluates
   the scenario's named checks into a JSON-safe scorecard.

The scorecard is deliberately free of execution details (shard count,
backend, wall time): with exact aggregation the verdict stream is
bit-identical for any sharding, so the scorecard is too — the
acceptance property the tests pin. Execution details travel separately
in :attr:`ScenarioResult.execution`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from repro import obs
from repro.core.labeling.balancer import balance
from repro.core.parallel import ShardedStreamingScrubber
from repro.core.recovery.session import drive_engine
from repro.core.scrubber import IXPScrubber, ScrubberConfig, TargetVerdict
from repro.netflow.dataset import FlowDataset
from repro.obs import names
from repro.scenarios.oracle import Check, GroundTruth, evaluate_checks, score_verdicts
from repro.scenarios.workload import BIN_SECONDS, poisson_load
from repro.traffic.attacks import AttackEvent, AttackGenerator
from repro.traffic.reflectors import ReflectorPool
from repro.traffic.vectors import vector_by_name

__all__ = [
    "ScenarioSpec",
    "Scenario",
    "ScenarioResult",
    "register",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "run_scenario",
    "scorecard_json",
    "SCORECARD_SCHEMA_VERSION",
]

#: Bumped whenever the scorecard layout changes incompatibly.
SCORECARD_SCHEMA_VERSION = 1

#: Model configuration every scenario engine runs. Same compact XGB as
#: the stream CLI and the golden traces, but with ``min_child_weight``
#: sized for scenario retrains: one scenario day balances down to
#: ~50-100 records, and at the logistic loss's p=0.5 starting point a
#: record contributes hessian <= 0.25 — the default threshold of 10
#: would forbid every split and freeze retrained models at a constant
#: 0.5 score.
ENGINE_CONFIG = ScrubberConfig(
    model="XGB", model_params={"n_estimators": 10, "min_child_weight": 2.0}
)

#: SeedSequence domain tag for conductor-owned randomness.
_SEED_TAG = 0x5CE7

#: Vectors the bootstrap corpus trains on (scenarios may exclude some
#: to stage a genuinely novel vector mid-stream).
BOOTSTRAP_VECTORS = ("DNS", "NTP", "LDAP", "SSDP", "chargen", "SNMP", "memcached")


def derive_seed(seed: int, tag: int) -> int:
    """A decorrelated 32-bit child seed for component ``tag``."""
    return int(np.random.SeedSequence([_SEED_TAG, seed, tag]).generate_state(1)[0])


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully rendered scenario stream plus its oracle inputs."""

    name: str
    bins_per_day: int
    #: Exclusive last bin of the stream.
    n_bins: int
    #: Time-sorted flow stream (benign + attacks).
    flows: FlowDataset
    #: Time-sorted BGP updates (blackhole announcements/withdrawals).
    updates: tuple
    truth: GroundTruth
    checks: tuple[Check, ...]
    #: StreamingScrubber keyword overrides (window_days, ...).
    engine: Mapping[str, object] = field(default_factory=dict)
    #: JSON-safe workload statistics echoed into the scorecard.
    workload: Mapping[str, object] = field(default_factory=dict)
    #: Bootstrap options (e.g. ``exclude_vectors``) for the warm-start
    #: model this scenario expects.
    bootstrap: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """A named, registered scenario builder.

    ``conduct`` overrides *how* the spec is driven: it receives the
    spec and a zero-argument engine factory (each call returns a fresh,
    warm-started engine wired to the run's registry) and returns
    ``(verdicts, extra_metrics)``. The default conduction drives one
    engine straight through; recovery scenarios use the hook to crash
    and resume mid-stream. ``extra_metrics`` must be JSON-safe floats —
    they join the checkable metrics and the scorecard's ``conduct``
    section.
    """

    name: str
    summary: str
    build: Callable[[int, float], ScenarioSpec]
    conduct: Optional[
        Callable[[ScenarioSpec, Callable[[], ShardedStreamingScrubber]],
                 tuple[list, dict]]
    ] = None


@dataclass(frozen=True)
class ScenarioResult:
    """One conductor run: the invariant scorecard + run details."""

    #: Deterministic, shard/backend-invariant scoring payload.
    scorecard: dict
    #: How this particular run executed (varies across runs by design).
    execution: dict


_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def all_scenarios() -> tuple[Scenario, ...]:
    return tuple(_REGISTRY[n] for n in scenario_names())


# ----------------------------------------------------------------------
# Bootstrap: the warm-start model.
# ----------------------------------------------------------------------

_BOOTSTRAP_CACHE: dict[tuple, IXPScrubber] = {}


def _bootstrap_corpus(seed: int, exclude_vectors: tuple[str, ...]) -> FlowDataset:
    """A labeled mixed corpus: generic benign load + known attacks."""
    parts = [
        poisson_load(
            derive_seed(seed, 10), active_users=160.0, rate_per_user=0.6,
            n_bins=48, n_targets=96,
        ).flows
    ]

    rng = np.random.default_rng(np.random.SeedSequence([_SEED_TAG, seed, 11]))
    generator = AttackGenerator(ReflectorPool(region=9, seed=derive_seed(seed, 12)))
    vectors = [v for v in BOOTSTRAP_VECTORS if v not in exclude_vectors]
    victim_base = 0x0A7B0000  # 10.123.0.0/16 — disjoint from benign pools
    for i, vector_name in enumerate(vectors * 2):
        start_bin = (i * 5) % 40
        event = AttackEvent(
            victim=victim_base + i + 1,
            vectors=(vector_by_name(vector_name),),
            start=start_bin * BIN_SECONDS,
            end=(start_bin + 8) * BIN_SECONDS,
            flows_per_minute=45.0,
        )
        flows = generator.generate(rng, event)
        parts.append(flows.with_blackhole(np.ones(len(flows), dtype=bool)))
    return FlowDataset.concat(parts).sort_by_time()


def bootstrap_scrubber(
    seed: int, exclude_vectors: tuple[str, ...] = ()
) -> IXPScrubber:
    """The warm-start model for ``seed`` (cached per process)."""
    key = (seed, tuple(exclude_vectors))
    cached = _BOOTSTRAP_CACHE.get(key)
    if cached is None:
        corpus = _bootstrap_corpus(seed, tuple(exclude_vectors))
        balanced = balance(
            corpus,
            np.random.default_rng(np.random.SeedSequence([_SEED_TAG, seed, 13])),
        )
        cached = IXPScrubber(ENGINE_CONFIG).fit(balanced.flows)
        _BOOTSTRAP_CACHE[key] = cached
    return cached


# ----------------------------------------------------------------------
# Conduction.
# ----------------------------------------------------------------------


def _conduct_plain(
    spec: ScenarioSpec, make_engine: Callable[[], ShardedStreamingScrubber]
) -> tuple[list[TargetVerdict], dict]:
    """Default conduction: one engine, straight through the stream."""
    engine = make_engine()
    try:
        verdicts = drive_engine(
            engine, spec.flows, spec.updates,
            chunk_bins=8, start_bin=0, end_bin=spec.n_bins,
        )
        return verdicts, {}
    finally:
        engine.close()


def run_scenario(
    name: str,
    seed: int = 7,
    scale: float = 1.0,
    shards: int = 1,
    backend: str = "serial",
    agg: str = "exact",
    sketch_params=None,
    backend_options: Optional[dict] = None,
) -> ScenarioResult:
    """Build, drive and score one scenario end to end.

    With ``agg='exact'`` (the default) the returned scorecard is
    bit-identical for any ``shards``/``backend`` combination — including
    supervised runs under a fault plan — because the engine's verdict
    stream is. ``agg='sketch'`` trades that for bounded memory: still
    deterministic for a fixed configuration, but scored on approximate
    counts.
    """
    scenario = get_scenario(name)
    registry = obs.MetricRegistry()
    with obs.use_registry(registry):
        obs.counter(names.C_SCENARIO_RUNS).inc()
        with obs.span(names.SPAN_SCENARIO_BUILD):
            spec = scenario.build(seed, scale)
    warm = bootstrap_scrubber(seed, **dict(spec.bootstrap))

    def make_engine() -> ShardedStreamingScrubber:
        engine = ShardedStreamingScrubber(
            config=ENGINE_CONFIG,
            n_shards=shards,
            backend=backend,
            backend_options=dict(backend_options or {}),
            agg=agg,
            sketch_params=sketch_params,
            registry=registry,
            bins_per_day=spec.bins_per_day,
            seed=derive_seed(seed, 20),
            **dict(spec.engine),
        )
        try:
            engine.warm_start(warm)
        except BaseException:
            # The engine already owns its workers and rings; the caller
            # never receives it, so nobody else can close it.
            engine.close()
            raise
        return engine

    conduct = scenario.conduct or _conduct_plain
    with obs.use_registry(registry):
        with obs.span(names.SPAN_SCENARIO_RUN):
            verdicts, conduct_metrics = conduct(spec, make_engine)
    snap = obs.snapshot(registry)

    with obs.use_registry(registry):
        with obs.span(names.SPAN_SCENARIO_SCORE):
            metrics, attack_details = score_verdicts(verdicts, spec.truth)
            # Coordinator-side engine counters are shard-invariant and
            # may be referenced by checks (e.g. retrain storms).
            counters = {c["name"]: int(c["value"]) for c in snap["counters"]}
            retrainings = counters.get(names.C_STREAMING_RETRAININGS, 0)
            drift_trips = counters.get(names.C_STREAMING_DRIFT_TRIPS, 0)
            checkable = dict(metrics)
            checkable["retrainings"] = retrainings
            checkable["drift_trips"] = drift_trips
            checkable.update(conduct_metrics)
            check_results, passed = evaluate_checks(spec.checks, checkable)
        n_failed = sum(1 for r in check_results if not r["passed"])
        if n_failed:
            obs.counter(names.C_SCENARIO_CHECKS_FAILED).inc(n_failed)

    scorecard = {
        "schema_version": SCORECARD_SCHEMA_VERSION,
        "scenario": name,
        "seed": seed,
        "scale": scale,
        "agg": agg,
        "stream": {
            "bins": spec.n_bins,
            "bins_per_day": spec.bins_per_day,
            "flows": len(spec.flows),
            "updates": len(spec.updates),
        },
        "workload": dict(spec.workload),
        "truth": {
            "attacks": len(spec.truth.attacks),
            "attacked_targets": len(spec.truth.attacked_targets()),
            "benign_targets": len(spec.truth.benign_targets),
        },
        "engine": {"retrainings": retrainings, "drift_trips": drift_trips},
        "conduct": dict(conduct_metrics),
        "metrics": metrics,
        "attacks": attack_details,
        "checks": check_results,
        "passed": passed,
    }
    execution = {
        "shards": shards,
        "backend": backend,
        "verdicts": len(verdicts),
    }
    return ScenarioResult(scorecard=scorecard, execution=execution)


def scorecard_json(scorecard: dict) -> str:
    """Canonical JSON rendering (sorted keys, 2-space indent)."""
    return json.dumps(scorecard, sort_keys=True, indent=2, allow_nan=False)
