"""The scenario catalogue: named operational situations with oracles.

Each scenario is a seeded builder producing a :class:`ScenarioSpec`
(see :mod:`repro.scenarios.conductor`). The catalogue covers the
operational claims the paper makes but static figures cannot check:

* ``volumetric_flood`` — the baseline: one loud amplification attack.
* ``flash_crowd`` — benign load spike that must *not* be flagged.
* ``carpet_bombing`` — one campaign spread thin across a /16.
* ``retrain_storm`` — attack waves across day boundaries driving
  repeated online retrains.
* ``blackhole_churn`` — mass spurious blackhole announcements (label
  noise) around real attacks.
* ``slow_drift`` — an attack ramping from noise-floor to flood.
* ``novel_vector`` — a vector absent from the warm-start corpus
  appears mid-stream (the fig. 13 situation, run through the online
  engine instead of an offline matrix).
* ``collateral_spike`` — an attack on an already-popular destination,
  where overreaction shows up as benign collateral.

Victim addresses live in dedicated /16 blocks disjoint from every
benign pool, except where a scenario deliberately overlaps them.
Attack intensities are *not* scaled by ``scale``: the knob sweeps the
benign population (users), so detectability thresholds stay comparable
across scales while the collateral denominator grows.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import obs
from repro.bgp.messages import blackhole_updates
from repro.bgp.prefix import Prefix
from repro.netflow.dataset import FlowDataset
from repro.obs import names
from repro.scenarios.conductor import (
    Scenario,
    ScenarioSpec,
    derive_seed,
    register,
)
from repro.scenarios.oracle import Check, GroundTruth, InjectedAttack
from repro.scenarios.workload import BIN_SECONDS, poisson_load
from repro.traffic.attacks import AttackEvent, AttackGenerator
from repro.traffic.reflectors import ReflectorPool
from repro.traffic.vectors import vector_by_name

__all__ = ["BINS_PER_DAY"]

#: Streaming-day resolution every scenario uses (30-minute bins keep
#: runs fast while spanning multiple retrain days).
BINS_PER_DAY = 48

_SEED_TAG = 0x5CEB

#: Benign flows each active user emits per bin, in every scenario.
_RATE_PER_USER = 0.6


class _SceneBuilder:
    """Accumulates one scenario's traffic, updates and ground truth."""

    def __init__(
        self,
        name: str,
        seed: int,
        scale: float,
        n_bins: int,
        active_users: float = 240.0,
    ):
        self.name = name
        self.seed = seed
        self.scale = float(scale)
        self.n_bins = int(n_bins)
        self.active_users = float(active_users)
        self._rng = np.random.default_rng(
            np.random.SeedSequence([_SEED_TAG, seed, 2])
        )
        self._generator = AttackGenerator(
            ReflectorPool(region=7, seed=derive_seed(seed, 3))
        )
        # The base load streams across the whole scenario window.
        base = poisson_load(
            derive_seed(seed, 1), self.active_users, _RATE_PER_USER,
            self.n_bins, scale=self.scale,
        )
        self.targets = base.targets
        self._mean_active_users = base.mean_active_users
        self._parts: list[FlowDataset] = [base.flows]
        self._updates: list = []
        self._attacks: list[InjectedAttack] = []
        self._extra_pools: list[np.ndarray] = []
        self.benign_flows = len(base.flows)
        self.attack_flows = 0
        self._asn = 64500

    def surge(
        self,
        start_bin: int,
        end_bin: int,
        active_users: float,
        targets: np.ndarray | None = None,
        n_targets: int = 4,
    ) -> None:
        """Add a second open-loop source over ``[start_bin, end_bin)``."""
        crowd = poisson_load(
            derive_seed(self.seed, 40 + len(self._extra_pools)),
            active_users, _RATE_PER_USER, end_bin - start_bin,
            scale=self.scale,
            start_bin=start_bin,
            targets=targets,
            n_targets=n_targets,
            target_block=0x0AC90000,  # 10.201.0.0/16: crowd pool
        )
        self._parts.append(crowd.flows)
        self.benign_flows += len(crowd.flows)
        self._extra_pools.append(crowd.targets)

    def attack(
        self,
        attack_id: str,
        victims,
        start_bin: int,
        end_bin: int,
        vectors: tuple[str, ...],
        flows_per_minute: float | Sequence[float],
        detectable_from: int | None = None,
    ) -> None:
        """Inject one campaign (possibly many victims) + its updates.

        A sequence of ``flows_per_minute`` is a ramp: the window splits
        into that many equal segments, one intensity each. Either way
        the oracle sees one attack, and each victim blackholes once —
        one bin into the last segment, withdrawn one bin after the end.
        """
        intensities = np.atleast_1d(flows_per_minute)
        segment_bins = (end_bin - start_bin) // len(intensities)
        victims = tuple(int(v) for v in victims)
        vector_objs = tuple(vector_by_name(v) for v in vectors)
        last = len(intensities) - 1
        for i, intensity in enumerate(intensities):
            segment_start = start_bin + i * segment_bins
            for victim in victims:
                event = AttackEvent(
                    victim=victim,
                    vectors=vector_objs,
                    start=segment_start * BIN_SECONDS,
                    end=(segment_start + segment_bins) * BIN_SECONDS,
                    flows_per_minute=float(intensity),
                    blackholed=i == last,
                    reaction_delay=BIN_SECONDS,
                )
                flows = self._generator.generate(self._rng, event)
                self._parts.append(flows)
                self.attack_flows += len(flows)
                obs.counter(names.C_SCENARIO_ATTACK_FLOWS).inc(len(flows))
                if event.blackholed:  # an unannounced segment uses no ASN
                    origin, path = self._next_member()
                    self._updates.extend(
                        event.blackhole_updates(
                            Prefix.host(victim), origin, BIN_SECONDS, as_path=path
                        )
                    )
        self._attacks.append(
            InjectedAttack(
                attack_id=attack_id,
                victims=victims,
                start_bin=start_bin,
                end_bin=end_bin,
                vectors=tuple(vectors),
                detectable_from=detectable_from,
            )
        )
        obs.counter(names.C_SCENARIO_ATTACKS_INJECTED).inc()

    def churn(self, n_events: int, start_bin: int, end_bin: int,
              hold_bins: int = 2) -> None:
        """Spurious blackhole announce/withdraw cycles on benign targets.

        No attack traffic accompanies them — pure label noise for the
        online labeling/retraining path.
        """
        # Churn the *unpopular* half of the pool: precautionary
        # blackholing covers quiet prefixes, so the registry sees mass
        # churn while label poisoning stays a minority of the labeled
        # records (the realistic regime; a pipeline fed majority-wrong
        # labels has no defense).
        quiet = self.targets[self.targets.size // 2:]
        span = max(1, end_bin - start_bin - hold_bins)
        for i in range(n_events):
            at = start_bin + (i * span) // max(1, n_events)
            origin, path = self._next_member()
            self._updates.extend(
                blackhole_updates(
                    Prefix.host(int(quiet[i % quiet.size])), origin,
                    at * BIN_SECONDS, (at + hold_bins) * BIN_SECONDS, as_path=path,
                )
            )

    def _next_member(self) -> tuple[int, tuple[int, int]]:
        """Origin ASN and AS path of a fresh member behind AS 65010."""
        self._asn += 1
        return self._asn, (65010, self._asn)

    def finish(
        self,
        checks: tuple[Check, ...],
        label_grace_bins: int = 10**6,
        bootstrap: dict | None = None,
    ) -> ScenarioSpec:
        flows = FlowDataset.concat(self._parts).sort_by_time()
        updates = tuple(sorted(self._updates, key=lambda u: (u.time, u.origin_asn)))
        attacked = sorted({v for a in self._attacks for v in a.victims})
        attacked_arr = np.array(attacked, dtype=np.uint32)
        pools = [self.targets, *self._extra_pools]
        benign_pool = np.unique(np.concatenate(pools))
        benign = benign_pool[~np.isin(benign_pool, attacked_arr)]
        truth = GroundTruth(
            attacks=tuple(self._attacks),
            benign_targets=tuple(int(t) for t in benign),
            horizon_bin=self.n_bins,
        )
        workload = {
            "active_users": self.active_users,
            "rate_per_user": _RATE_PER_USER,
            "scale": self.scale,
            "mean_active_users": self._mean_active_users,
            "benign_flows": int(self.benign_flows),
            "attack_flows": int(self.attack_flows),
        }
        return ScenarioSpec(
            name=self.name,
            bins_per_day=BINS_PER_DAY,
            n_bins=self.n_bins,
            flows=flows,
            updates=updates,
            truth=truth,
            checks=checks,
            engine={
                "window_days": 2,
                "label_grace_bins": label_grace_bins,
                "min_flows_per_verdict": 5,
            },
            workload=workload,
            bootstrap=dict(bootstrap or {}),
        )


# ----------------------------------------------------------------------
# Shared check shorthands.
# ----------------------------------------------------------------------


def _detects_all(latency_bins: float) -> tuple[Check, ...]:
    return (
        Check("every attack detected", "detection_recall", ">=", 1.0),
        Check("detection within budget", "detection_latency_max_bins", "<=",
              latency_bins),
    )


_LOW_COLLATERAL = Check(
    "benign collateral under 5%", "benign_collateral_rate", "<=", 0.05
)


# ----------------------------------------------------------------------
# The scenarios.
# ----------------------------------------------------------------------


def _build_volumetric_flood(seed: int, scale: float) -> ScenarioSpec:
    builder = _SceneBuilder("volumetric_flood", seed, scale, n_bins=64)
    builder.attack(
        "flood", [0x0A630107], start_bin=20, end_bin=40,
        vectors=("DNS", "NTP"), flows_per_minute=90.0,
    )
    return builder.finish(
        checks=(
            *_detects_all(latency_bins=3.0),
            Check("victim localized", "localization_recall", ">=", 1.0),
            _LOW_COLLATERAL,
        )
    )


def _build_flash_crowd(seed: int, scale: float) -> ScenarioSpec:
    builder = _SceneBuilder("flash_crowd", seed, scale, n_bins=64)
    # A 6x user surge onto 32 crowd destinations for 16 bins: loud,
    # concentrated, and entirely legitimate.
    builder.surge(start_bin=24, end_bin=40,
                  active_users=6 * builder.active_users, n_targets=32)
    return builder.finish(
        checks=(
            _LOW_COLLATERAL,
            # A flagged crowd target is one phantom attack however many
            # bins it stays flagged, so bound targets, not verdicts.
            Check("no phantom attacks", "benign_targets_flagged", "<=", 2.0),
        )
    )


def _build_carpet_bombing(seed: int, scale: float) -> ScenarioSpec:
    builder = _SceneBuilder("carpet_bombing", seed, scale, n_bins=72)
    # 24 victims, one per /24 of 10.138.0.0/16 — each individually
    # quiet (12 flows/min), together one campaign.
    rng = np.random.default_rng(np.random.SeedSequence([_SEED_TAG, seed, 4]))
    hosts = rng.integers(1, 255, size=24)
    victims = [0x0A8A0000 + (i << 8) + int(hosts[i]) for i in range(24)]
    builder.attack(
        "carpet", victims, start_bin=20, end_bin=48,
        vectors=("NTP", "LDAP"), flows_per_minute=12.0,
    )
    return builder.finish(
        checks=(
            Check("campaign detected", "detection_recall", ">=", 1.0),
            Check("detection within budget", "detection_latency_max_bins",
                  "<=", 4.0),
            Check("most /24 victims localized", "localization_recall", ">=", 0.8),
            Check("flagged set mostly victims", "localization_precision",
                  ">=", 0.6),
            _LOW_COLLATERAL,
        )
    )


def _build_retrain_storm(seed: int, scale: float) -> ScenarioSpec:
    builder = _SceneBuilder(
        "retrain_storm", seed, scale, n_bins=3 * BINS_PER_DAY,
        active_users=180.0,
    )
    vectors = (("DNS",), ("NTP",), ("LDAP",), ("SSDP",), ("chargen",))
    for day in range(3):
        for k in range(4 if day < 2 else 2):
            start = day * BINS_PER_DAY + 4 + k * 11
            builder.attack(
                f"wave_d{day}_{k}",
                [0x0A8C0000 + day * 256 + k + 1],
                start_bin=start,
                end_bin=start + 10,
                vectors=vectors[(day * 4 + k) % len(vectors)],
                flows_per_minute=50.0,
            )
    return builder.finish(
        checks=(
            Check("most waves detected", "detection_recall", ">=", 0.8),
            Check("online retraining kept up", "retrainings", ">=", 2.0),
            # Count-based: at small scales only a handful of benign
            # targets clear min_flows_per_verdict, so a rate bound
            # would let one unlucky target swing the score by 20%.
            Check("at most one benign target flagged",
                  "benign_targets_flagged", "<=", 1.0),
        ),
        label_grace_bins=6,
    )


def _build_blackhole_churn(seed: int, scale: float) -> ScenarioSpec:
    builder = _SceneBuilder("blackhole_churn", seed, scale, n_bins=2 * BINS_PER_DAY)
    # 48 spurious blackhole cycles on benign destinations: the mass
    # churn of operators blackholing preventively (paper §3 label
    # noise), with three real attacks buried in it.
    builder.churn(48, start_bin=2, end_bin=builder.n_bins - 4)
    for k, start in enumerate((10, 40, 70)):
        builder.attack(
            f"real_{k}", [0x0A8D0000 + k + 1], start_bin=start,
            end_bin=start + 12, vectors=("NTP",) if k % 2 else ("DNS", "SNMP"),
            flows_per_minute=60.0,
        )
    return builder.finish(
        checks=(
            Check("real attacks still detected", "detection_recall", ">=", 1.0),
            Check("retrained despite label noise", "retrainings", ">=", 1.0),
            # Label noise makes a little collateral unavoidable; bound
            # it by count so small-scale denominators stay robust.
            Check("at most two benign targets flagged",
                  "benign_targets_flagged", "<=", 2.0),
        ),
        label_grace_bins=6,
    )


def _build_slow_drift(seed: int, scale: float) -> ScenarioSpec:
    builder = _SceneBuilder("slow_drift", seed, scale, n_bins=80)
    victim = 0x0A8E0009
    # Intensity ramps 4 -> 80 flows/min in 13 four-bin segments; the
    # latency clock starts where the ramp crosses 30 flows/min.
    ramp_start, seg_bins = 12, 4
    intensities = [4.0 + (80.0 - 4.0) * i / 12 for i in range(13)]
    detectable = next(i for i, fpm in enumerate(intensities) if fpm >= 30.0)
    builder.attack(
        "drift", [victim], ramp_start, ramp_start + len(intensities) * seg_bins,
        vectors=("memcached",), flows_per_minute=intensities,
        detectable_from=ramp_start + detectable * seg_bins,
    )
    return builder.finish(
        checks=(
            Check("ramp detected", "detection_recall", ">=", 1.0),
            Check("detected within 8 bins of threshold",
                  "detection_latency_max_bins", "<=", 8.0),
            Check("drift detector tripped on the ramp",
                  "drift_trips", ">=", 1.0),
            _LOW_COLLATERAL,
        )
    )


def _build_novel_vector(seed: int, scale: float) -> ScenarioSpec:
    builder = _SceneBuilder("novel_vector", seed, scale, n_bins=2 * BINS_PER_DAY)
    # Day 0: the vectors the warm-start model knows.
    for k, vecs in enumerate((("DNS",), ("NTP",), ("LDAP",), ("SSDP",))):
        start = 4 + k * 11
        builder.attack(
            f"known_{k}", [0x0A8F0000 + k + 1], start_bin=start,
            end_bin=start + 10, vectors=vecs, flows_per_minute=60.0,
        )
    # Day 1: memcached, which the bootstrap corpus never contained —
    # the fig. 13 "new vector" situation hitting the online engine.
    for k, start in enumerate((BINS_PER_DAY + 8, BINS_PER_DAY + 28)):
        builder.attack(
            f"novel_{k}", [0x0A8F0100 + k + 1], start_bin=start,
            end_bin=start + 12, vectors=("memcached",), flows_per_minute=60.0,
        )
    return builder.finish(
        checks=(
            Check("most attacks detected", "detection_recall", ">=", 0.8),
            Check("retrained on day boundary", "retrainings", ">=", 1.0),
            Check("at most one benign target flagged",
                  "benign_targets_flagged", "<=", 1.0),
        ),
        label_grace_bins=6,
        bootstrap={"exclude_vectors": ("memcached",)},
    )


def _build_collateral_spike(seed: int, scale: float) -> ScenarioSpec:
    builder = _SceneBuilder("collateral_spike", seed, scale, n_bins=64)
    victim = 0x0A900005
    # The victim is *also* a popular destination: a 4x user crowd keeps
    # hitting it before, during and after the attack, so overreaction
    # (flagging its benign neighbours, or the crowd pool) is measurable.
    builder.surge(
        start_bin=8, end_bin=56,
        active_users=4 * builder.active_users,
        targets=np.array([victim], dtype=np.uint32),
    )
    builder.attack(
        "spike", [victim], start_bin=24, end_bin=44,
        vectors=("NTP", "DNS"), flows_per_minute=80.0,
    )
    return builder.finish(
        checks=(
            *_detects_all(latency_bins=4.0),
            Check("victim localized", "localization_recall", ">=", 1.0),
            _LOW_COLLATERAL,
        )
    )


def _build_coordinator_crash(seed: int, scale: float) -> ScenarioSpec:
    builder = _SceneBuilder("coordinator_crash", seed, scale, n_bins=64)
    # One attack fully classified before the crash tick, one spanning
    # it: the resumed engine must carry the open buffers, blackhole
    # registry and pending labels across the restart to score both.
    builder.attack(
        "pre_crash", [0x0A910001], start_bin=10, end_bin=22,
        vectors=("DNS", "NTP"), flows_per_minute=70.0,
    )
    builder.attack(
        "spans_crash", [0x0A910002], start_bin=30, end_bin=56,
        vectors=("SSDP",), flows_per_minute=70.0,
    )
    return builder.finish(
        checks=(
            *_detects_all(latency_bins=4.0),
            Check("no verdicts lost across the crash",
                  "verdicts_lost", "<=", 0.0),
            Check("no verdicts duplicated across the crash",
                  "verdicts_duplicated", "<=", 0.0),
            Check("resumed stream bit-identical to uninterrupted",
                  "resume_exact", ">=", 1.0),
            Check("resume replayed at most one checkpoint period",
                  "resume_lag_ticks", "<=", float(_CRASH_EVERY)),
        ),
        label_grace_bins=6,
    )


#: Conduction constants for ``coordinator_crash``: 8-bin ticks, a
#: snapshot every 3 ticks, SIGKILL-equivalent abandonment at ~60% of
#: the stream (between checkpoints, so resume must replay the journal).
_CRASH_CHUNK_BINS = 8
_CRASH_EVERY = 3


def _conduct_coordinator_crash(spec, make_engine):
    """Crash the coordinator mid-stream, resume, score the splice.

    Runs the uninterrupted reference first, then a checkpointed run
    abandoned at a deterministic tick (no flush, no close — the moral
    equivalent of ``kill -9``), then a fresh engine resuming from disk.
    The concatenated verdict stream is scored; the extra metrics let
    the scenario's checks pin zero loss, zero duplication and bounded
    replay.
    """
    from repro.core.recovery import RecoverySession, drive_engine

    engine = make_engine()
    try:
        reference = drive_engine(
            engine, spec.flows, spec.updates,
            chunk_bins=_CRASH_CHUNK_BINS, start_bin=0, end_bin=spec.n_bins,
        )
    finally:
        engine.close()

    n_ticks = -(-spec.n_bins // _CRASH_CHUNK_BINS)
    crash_tick = max(0, (n_ticks * 3) // 5)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        crashed = make_engine()
        try:
            session = RecoverySession(
                crashed, directory, every=_CRASH_EVERY,
            )
            first = drive_engine(
                crashed, spec.flows, spec.updates,
                chunk_bins=_CRASH_CHUNK_BINS, session=session,
                start_bin=0, end_bin=spec.n_bins,
                stop_after_tick=crash_tick,
            )
            # Abandoned, not closed: every journal append is already
            # fsynced, so stopping here is equivalent to SIGKILL.
        finally:
            crashed.close()

        resumed = make_engine()
        try:
            session = RecoverySession(
                resumed, directory, every=_CRASH_EVERY, resume=True,
            )
            lag = session.journaled_tick - session.restored_tick
            rest = drive_engine(
                resumed, spec.flows, spec.updates,
                chunk_bins=_CRASH_CHUNK_BINS, session=session,
                start_bin=0, end_bin=spec.n_bins,
            )
            session.close()
        finally:
            resumed.close()

    combined = first + rest
    ref_keys = Counter((v.bin, v.target_ip) for v in reference)
    got_keys = Counter((v.bin, v.target_ip) for v in combined)
    lost = sum((ref_keys - got_keys).values())
    duplicated = sum((got_keys - ref_keys).values())
    exact = len(combined) == len(reference) and all(
        a.bin == b.bin
        and a.target_ip == b.target_ip
        and a.is_ddos == b.is_ddos
        and a.score == b.score
        and tuple(a.matched_rules) == tuple(b.matched_rules)
        for a, b in zip(combined, reference)
    )
    metrics = {
        "verdicts_lost": float(lost),
        "verdicts_duplicated": float(duplicated),
        "resume_exact": float(exact),
        "resume_lag_ticks": float(lag),
    }
    return combined, metrics


register(Scenario(
    "volumetric_flood",
    "one loud DNS+NTP amplification flood against a single victim",
    _build_volumetric_flood,
))
register(Scenario(
    "flash_crowd",
    "6x benign user surge onto 32 crowd targets; benign, stays unflagged",
    _build_flash_crowd,
))
register(Scenario(
    "carpet_bombing",
    "one campaign spread over 24 /24s of a /16, each victim quiet",
    _build_carpet_bombing,
))
register(Scenario(
    "retrain_storm",
    "attack waves across three days driving repeated online retrains",
    _build_retrain_storm,
))
register(Scenario(
    "blackhole_churn",
    "mass spurious blackhole announcements around three real attacks",
    _build_blackhole_churn,
))
register(Scenario(
    "slow_drift",
    "attack ramping from noise floor to flood over 52 bins",
    _build_slow_drift,
))
register(Scenario(
    "novel_vector",
    "memcached appears mid-stream, absent from the warm-start corpus",
    _build_novel_vector,
))
register(Scenario(
    "collateral_spike",
    "attack on an already-popular destination under a benign crowd",
    _build_collateral_spike,
))
register(Scenario(
    "coordinator_crash",
    "coordinator killed mid-stream; checkpointed resume loses nothing",
    _build_coordinator_crash,
    conduct=_conduct_coordinator_crash,
))
