"""End-to-end IXP workload generation.

:class:`WorkloadGenerator` drives one vantage point over simulated days:
benign background traffic, DDoS attack events, the blackhole
announcements members issue in response, and benign collateral traffic
towards blackholed victims. The output mirrors what the paper's online
recording pipeline keeps (Table 2, footnote): *flow records* for
blackholed traffic plus a thinned benign sample — the unbalanced bulk of
benign traffic is never materialised, only counted — and per-bin volume
counters from which traffic shares (Fig. 3a) and raw dataset sizes
(Table 2) are derived.

Label noise is generated, not assumed: some attacks are never blackholed
(their flows stay in the benign class), blackholed victims keep receiving
benign collateral traffic (benign flows inside the blackhole class), and
a small rate of precautionary blackholes covers purely benign targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.bgp.blackhole import BlackholeRegistry
from repro.bgp.messages import Update, blackhole_updates
from repro.bgp.prefix import Prefix
from repro.netflow.dataset import FlowDataset
from repro.traffic.attacks import AttackEvent, AttackGenerator
from repro.traffic.benign import BenignTrafficGenerator
from repro.traffic.reflectors import ReflectorPool
from repro.traffic.vectors import ALL_VECTORS, DDoSVector

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids circular import
    from repro.ixp.fabric import IXPFabric

#: Mean size of a benign flow in bytes, used to convert the volume model
#: into estimated true flow counts.
_MEAN_BENIGN_FLOW_BYTES = 6000.0

#: Typical total traffic of the reference IXP per one-minute bin, in
#: bytes. Chosen so attack traffic lands well below 1 % of the total
#: (Fig. 3a). Scaled by ``IXPProfile.traffic_scale``.
_BASE_BYTES_PER_BIN = 4.0e9

#: Fraction of true benign traffic materialised as flow records (the
#: online recorder's benign sample rate).
_BENIGN_THINNING = 1.0 / 300.0

#: Fraction of each vector's reflector pool replaced per simulated day;
#: with the popularity walk this is what makes models age (paper §6.3:
#: "new attack vectors or new DDoS reflection hosts").
_REFLECTOR_CHURN = 0.15

#: Relative popularity of attack vectors in blackholing traffic. DNS and
#: NTP dominate; WS-Discovery is booter-available but hardly blackholed
#: (paper Fig. 4b).
DEFAULT_VECTOR_POPULARITY: dict[str, float] = {
    "DNS": 0.26, "NTP": 0.22, "SNMP": 0.09, "LDAP": 0.12, "SSDP": 0.08,
    "memcached": 0.05, "Apple RD": 0.04, "chargen": 0.025, "MSSQL": 0.02,
    "rpcbind": 0.015, "DNS (TCP)": 0.012, "NetBios": 0.012, "RIP": 0.012,
    "OpenVPN": 0.012, "TFTP": 0.012, "Ubiq. SD": 0.012, "WCCP": 0.01,
    "DHCPDisc.": 0.01, "GRE": 0.015, "Micr. TS": 0.012,
    "rpcbind (TCP)": 0.005, "WS-Discovery": 0.002, "UDP flood": 0.12,
}


#: Vectors every vantage point sees (the global workhorses); the rest
#: varies by site.
_UNIVERSAL_VECTORS = ("DNS", "NTP", "LDAP", "SSDP", "UDP flood")

#: Vectors pinned to their (tiny) base popularity: present on booter
#: menus but hardly ever blackholed (the paper's Fig. 4b example is
#: WS-Discovery). They are excluded from site jitter, the popularity
#: walk boost, and the new-vector schedule.
_PINNED_MINOR_VECTORS = ("WS-Discovery",)


def _site_popularity(seed: int) -> dict[str, float]:
    """Site-specific vector popularity.

    The paper observes that "not all DDoS vectors are visible at all
    IXPs" (§6.4): vantage points differ in which amplification vectors
    their members attract. Each site keeps the universal vectors, drops
    a seeded subset of the minor ones entirely, and jitters the weights
    of the rest. This is what makes naive cross-IXP model transfer
    degrade (Fig. 12, left) while WoE re-localisation recovers it.
    """
    rng = np.random.default_rng(seed * 31 + 17)
    popularity: dict[str, float] = {}
    minor = [n for n in DEFAULT_VECTOR_POPULARITY if n not in _UNIVERSAL_VECTORS]
    dropped = set(
        rng.choice(minor, size=max(1, len(minor) // 3), replace=False).tolist()
    )
    for name, weight in DEFAULT_VECTOR_POPULARITY.items():
        if name in dropped:
            continue
        if name in _PINNED_MINOR_VECTORS:
            popularity[name] = weight
            continue
        if name in _UNIVERSAL_VECTORS:
            jitter = float(rng.lognormal(0.0, 0.25))
        else:
            jitter = float(rng.lognormal(0.0, 0.7))
        popularity[name] = weight * jitter
    return popularity


def _default_vector_schedule(
    seed: int, seconds_per_day: int, popularity: dict[str, float]
) -> tuple[dict[str, int], dict[str, float]]:
    """Seeded mid-stream arrival days for a subset of minor vectors.

    Newly arriving vectors are *prominent*: attackers pile onto fresh
    amplification vectors (cf. the memcached wave of 2018), so scheduled
    vectors get a popularity boost. Returns (first-seen map, boosted
    popularity).
    """
    rng = np.random.default_rng(seed * 31 + 23)
    schedule: dict[str, int] = {}
    boosted = dict(popularity)
    for name in sorted(popularity):
        if name in _UNIVERSAL_VECTORS or name in _PINNED_MINOR_VECTORS:
            continue
        if rng.random() < 0.6:
            day = int(rng.integers(2, 31))
            schedule[name] = day * seconds_per_day
            boosted[name] = popularity[name] * 3.0
    return schedule, boosted


@dataclass
class BinStatistics:
    """Per-bin true volume counters kept by the online recorder."""

    bins: np.ndarray  # bin index (time // 60)
    total_bytes: np.ndarray
    blackhole_bytes: np.ndarray
    total_flows: np.ndarray  # estimated true flow count (unthinned)

    def blackhole_share(self) -> np.ndarray:
        """Blackholed share of total traffic per bin."""
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(
                self.total_bytes > 0, self.blackhole_bytes / self.total_bytes, 0.0
            )
        return share


@dataclass
class WorkloadCapture:
    """Everything recorded at one vantage point for one period."""

    start: int
    end: int
    flows: FlowDataset  # time-sorted; blackhole column not yet set
    updates: list[Update]
    events: list[AttackEvent]
    bin_stats: BinStatistics

    def registry(self) -> BlackholeRegistry:
        """Build the blackhole registry from the captured BGP feed."""
        registry = BlackholeRegistry()
        registry.apply_all(self.updates)
        return registry

    def labeled_flows(self) -> FlowDataset:
        """Flows with the blackhole label derived from the BGP feed."""
        return self.registry().label_flows(self.flows, horizon=self.end)


class WorkloadGenerator:
    """Generates the traffic and BGP activity of one vantage point."""

    def __init__(
        self,
        fabric: "IXPFabric",
        vector_first_seen: Optional[dict[str, int]] = None,
        vector_popularity: Optional[dict[str, float]] = None,
        popularity_walk_sigma: float = 0.15,
    ):
        """
        Parameters
        ----------
        fabric:
            The vantage point (members, customer space, sampler).
        vector_first_seen:
            Optional map vector name -> earliest time (seconds) the vector
            is used by attackers; drives the Fig. 13 "new vector"
            scenario. Unlisted vectors are available from t=0.
        vector_popularity:
            Relative weights for vector choice; defaults to
            :data:`DEFAULT_VECTOR_POPULARITY`.
        popularity_walk_sigma:
            Per-day log-normal step of the vector-popularity random
            walk.
        """
        self.fabric = fabric
        profile = fabric.profile
        if vector_popularity is None:
            popularity = _site_popularity(profile.seed)
        else:
            popularity = dict(vector_popularity)
        if vector_first_seen is None:
            # Default arrival schedule: a seeded subset of the minor
            # vectors only starts being abused partway through the
            # simulation — the paper's first driver of temporal drift
            # ("new attack vectors", §6.3) and the mechanism behind
            # Fig. 13. Explicit schedules override this entirely.
            self._first_seen, popularity = _default_vector_schedule(
                profile.seed, profile.seconds_per_day, popularity
            )
        else:
            self._first_seen = dict(vector_first_seen)
        self._vectors = [v for v in ALL_VECTORS if popularity.get(v.name, 0.0) > 0.0]
        self._weights = np.array([popularity[v.name] for v in self._vectors])
        self._weights = self._weights / self._weights.sum()
        self._walk_sigma = popularity_walk_sigma
        self._walk_cache: dict[int, np.ndarray] = {}

        self._pool = ReflectorPool(
            profile.region, seed=profile.seed * 7 + 1, churn_fraction=_REFLECTOR_CHURN
        )
        self._attack_gen = AttackGenerator(self._pool, member_macs=self.fabric.member_macs)
        self._benign_gen = BenignTrafficGenerator(
            seed=profile.seed * 7 + 2, member_macs=self.fabric.member_macs
        )
        static_rng = np.random.default_rng(profile.seed * 7 + 3)
        space = fabric.customer_space
        self._popular_targets = space.sample(static_rng, 512, replace=False)
        # Destination popularity is heavy-tailed (a few CDN/eyeball
        # prefixes receive most flows); this head weight is what lets the
        # balancer find benign IPs with per-IP flow counts comparable to
        # attack victims (Fig. 3c).
        ranks = np.arange(1, self._popular_targets.shape[0] + 1, dtype=np.float64)
        weights = ranks ** -1.6
        self._popular_weights = weights / weights.sum()
        self._victim_pool = space.sample(static_rng, 1024, replace=False)
        eyeballs = fabric.eyeball_members or fabric.members
        self._victim_asns = np.array([m.asn for m in eyeballs], dtype=np.int64)

    # ------------------------------------------------------------------
    def _walk_multipliers(self, day: int) -> np.ndarray:
        """Cumulative popularity-walk multipliers at ``day`` (cached)."""
        if self._walk_sigma <= 0.0 or day <= 0:
            return np.ones(len(self._vectors))
        cached = self._walk_cache.get(day)
        if cached is not None:
            return cached
        previous = self._walk_multipliers(day - 1)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.fabric.profile.seed, day, 0x3A1C])
        )
        steps = rng.normal(0.0, self._walk_sigma, size=len(self._vectors))
        multipliers = previous * np.exp(steps)
        self._walk_cache[day] = multipliers
        return multipliers

    def _available_vectors(
        self, time: int, day: int
    ) -> tuple[list[DDoSVector], np.ndarray]:
        multipliers = self._walk_multipliers(day)
        available = []
        weights = []
        for vector, weight, multiplier in zip(self._vectors, self._weights, multipliers):
            if self._first_seen.get(vector.name, 0) <= time:
                if vector.name in _PINNED_MINOR_VECTORS:
                    multiplier = 1.0
                available.append(vector)
                weights.append(weight * multiplier)
        w = np.asarray(weights, dtype=np.float64)
        return available, w / w.sum()

    def _day_rng(self, day: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.fabric.profile.seed, day])
        )

    def _draw_events(
        self, rng: np.random.Generator, day: int, day_start: int, day_end: int
    ) -> list[AttackEvent]:
        profile = self.fabric.profile
        n_attacks = int(rng.poisson(profile.attacks_per_day))
        events: list[AttackEvent] = []
        for _ in range(n_attacks):
            start = int(rng.integers(day_start, day_end))
            duration = int(np.clip(rng.lognormal(math.log(600.0), 0.8), 180, 14400))
            available, weights = self._available_vectors(start, day)
            n_vectors = min(len(available), 1 + int(rng.random() < 0.25) + int(rng.random() < 0.08))
            idx = rng.choice(len(available), size=n_vectors, replace=False, p=weights)
            chosen = tuple(available[i] for i in idx)
            # A minority of victims are popular destinations that also
            # receive plenty of benign traffic (collateral inside the
            # blackhole). Attacks against such well-provisioned targets
            # are sized up by the attacker to overwhelm them.
            popular_victim = rng.random() < 0.15
            if popular_victim:
                victim = int(rng.choice(self._popular_targets))
            else:
                victim = int(rng.choice(self._victim_pool))
            base_intensity = profile.attack_intensity * (4.0 if popular_victim else 1.0)
            intensity = float(
                np.clip(rng.lognormal(math.log(base_intensity), 0.5), 5.0, 1000.0)
            )
            events.append(
                AttackEvent(
                    victim=victim,
                    vectors=chosen,
                    start=start,
                    end=start + duration,
                    flows_per_minute=intensity,
                    blackholed=bool(rng.random() < profile.blackhole_probability),
                    reaction_delay=int(np.clip(rng.exponential(30.0), 5, 90)),
                )
            )
        return events

    def _blackhole_updates(
        self, rng: np.random.Generator, event: AttackEvent, horizon: int
    ) -> list[Update]:
        # An attack never announced inside the capture draws nothing.
        if not event.blackholed or event.start + event.reaction_delay >= horizon:
            return []
        # Almost always host routes (RFC 7999 practice at IXPs, [19]);
        # occasionally a covering /28 that also blackholes neighbours.
        if rng.random() < 0.97:
            prefix = Prefix.host(event.victim)
        else:
            prefix = Prefix(network=event.victim & 0xFFFFFFF0, length=28)
        origin = int(rng.choice(self._victim_asns))
        # Mitigation tooling withdraws the blackhole shortly after the
        # attack traffic subsides; long-held blackholes would fill the
        # positive class with benign-only records.
        hold = int(np.clip(rng.exponential(30.0), 10, 90))
        return event.blackhole_updates(prefix, origin, hold, horizon)

    def _spurious_blackholes(
        self, rng: np.random.Generator, day_start: int, day_end: int, horizon: int
    ) -> list[Update]:
        profile = self.fabric.profile
        rate = profile.attacks_per_day * profile.spurious_blackhole_probability
        updates: list[Update] = []
        for _ in range(int(rng.poisson(rate))):
            target = int(rng.choice(self._popular_targets))
            start = int(rng.integers(day_start, day_end))
            duration = int(np.clip(rng.exponential(240.0), 120, 600))
            origin = int(rng.choice(self._victim_asns))
            updates.extend(
                blackhole_updates(
                    Prefix.host(target), origin, start, start + duration, horizon
                )
            )
        return updates

    def _collateral(
        self, rng: np.random.Generator, events: Sequence[AttackEvent], horizon: int
    ) -> FlowDataset:
        """Benign collateral flows towards attacked victims."""
        parts = []
        for event in events:
            end = min(event.end, horizon)
            if end <= event.start:
                continue
            n_bins = max(1, (end - event.start) // 60)
            targets = np.full(n_bins * 2, event.victim, dtype=np.uint32)
            parts.append(
                self._benign_gen.generate(
                    rng, targets, event.start, end, flows_per_target_mean=1.5
                )
            )
        return FlowDataset.concat(parts)

    # ------------------------------------------------------------------
    def generate(self, start_day: int, n_days: int) -> WorkloadCapture:
        """Simulate ``n_days`` starting at day index ``start_day``."""
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        profile = self.fabric.profile
        spd = profile.seconds_per_day
        sim_start = start_day * spd
        sim_end = (start_day + n_days) * spd

        all_events: list[AttackEvent] = []
        all_updates: list[Update] = []
        flow_parts: list[FlowDataset] = []

        for day in range(start_day, start_day + n_days):
            rng = self._day_rng(day)
            day_start, day_end = day * spd, (day + 1) * spd

            events = self._draw_events(rng, day, day_start, day_end)
            all_events.extend(events)

            for event in events:
                flows = self._attack_gen.generate(
                    rng, event, window_start=sim_start, window_end=sim_end, epoch=day
                )
                if len(flows):
                    flow_parts.append(flows)
                all_updates.extend(self._blackhole_updates(rng, event, sim_end))

            all_updates.extend(self._spurious_blackholes(rng, day_start, day_end, sim_end))

            # Thinned benign sample: popular targets plus churn.
            n_bins = profile.bins_per_day
            n_targets = profile.benign_targets_per_minute * n_bins
            churn = self.fabric.customer_space.sample(rng, max(1, n_targets // 10))
            targets = np.concatenate(
                [
                    rng.choice(
                        self._popular_targets, size=n_targets, p=self._popular_weights
                    ),
                    churn,
                ]
            )
            flow_parts.append(
                self._benign_gen.generate(
                    rng,
                    targets,
                    day_start,
                    day_end,
                    flows_per_target_mean=profile.benign_flows_per_target,
                )
            )
            flow_parts.append(self._collateral(rng, events, sim_end))

        flows = FlowDataset.concat(flow_parts).sort_by_time()
        all_updates.sort(key=lambda u: u.time)
        bin_stats = self._volume_model(flows, all_updates, sim_start, sim_end)
        return WorkloadCapture(
            start=sim_start,
            end=sim_end,
            flows=flows,
            updates=all_updates,
            events=all_events,
            bin_stats=bin_stats,
        )

    def _volume_model(
        self,
        flows: FlowDataset,
        updates: list[Update],
        sim_start: int,
        sim_end: int,
    ) -> BinStatistics:
        """Derive per-bin true volume counters.

        Blackholed bytes come from the actual recorded flows (those are
        kept in full); the benign total is the thinned benign sample
        scaled back up by the thinning factor, modulated by a diurnal
        pattern via the sample itself.
        """
        profile = self.fabric.profile
        bins = np.arange(sim_start // 60, sim_end // 60)
        n_bins = bins.shape[0]

        registry = BlackholeRegistry()
        registry.apply_all(updates)
        blackholed = registry.match_flows(flows, horizon=sim_end)

        flow_bins = (flows.time // 60) - bins[0]
        valid = (flow_bins >= 0) & (flow_bins < n_bins)
        bh_bytes = np.bincount(
            flow_bins[valid & blackholed],
            weights=flows.bytes[valid & blackholed],
            minlength=n_bins,
        )
        benign_sample_bytes = np.bincount(
            flow_bins[valid & ~blackholed],
            weights=flows.bytes[valid & ~blackholed],
            minlength=n_bins,
        )
        # Scale the benign sample back to the true volume and add the
        # baseline bulk that is never materialised as flows.
        base = _BASE_BYTES_PER_BIN * profile.traffic_scale
        phase = 2.0 * np.pi * (bins % profile.bins_per_day) / profile.bins_per_day
        diurnal = 1.0 + 0.35 * np.sin(phase - np.pi / 2.0)
        benign_true_bytes = benign_sample_bytes / _BENIGN_THINNING + base * diurnal
        total_bytes = benign_true_bytes + bh_bytes
        total_flows = (benign_true_bytes / _MEAN_BENIGN_FLOW_BYTES).astype(np.int64)
        total_flows += np.bincount(flow_bins[valid & blackholed], minlength=n_bins)
        return BinStatistics(
            bins=bins,
            total_bytes=total_bytes,
            blackhole_bytes=bh_bytes,
            total_flows=total_flows,
        )
