"""Self-attack set (SAS) generation via a booter-service simulator.

The paper validates against flow data from self-initiated DDoS attacks
purchased from DDoS-for-hire services (small packages: < 7 Gbps,
< 5 minutes, §4.3). This module simulates such purchases: short attacks
against dedicated victim addresses, using the vector menu booters
actually offer — which notably *includes* WS-Discovery, a vector that is
nearly absent from blackholing traffic (Fig. 4b).

The resulting capture carries ground-truth labels (the ``blackhole``
column marks attack flows directly); no BGP machinery is involved, which
is exactly what makes the SAS an independent check against sampling bias
(§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.netflow.dataset import FlowDataset
from repro.traffic.address_space import AddressBlock
from repro.traffic.attacks import AttackEvent, AttackGenerator
from repro.traffic.benign import BenignTrafficGenerator
from repro.traffic.reflectors import ReflectorPool
from repro.traffic.vectors import (
    APPLE_RD,
    CHARGEN,
    DDoSVector,
    DNS,
    LDAP,
    MEMCACHED,
    NTP,
    SNMP,
    SSDP,
    WS_DISCOVERY,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids circular import
    from repro.ixp.fabric import IXPFabric

#: The booter menu and its popularity among packages.
BOOTER_MENU: tuple[tuple[DDoSVector, float], ...] = (
    (NTP, 0.22),
    (DNS, 0.20),
    (LDAP, 0.14),
    (SSDP, 0.12),
    (MEMCACHED, 0.08),
    (SNMP, 0.06),
    (CHARGEN, 0.06),
    (WS_DISCOVERY, 0.08),
    (APPLE_RD, 0.04),
)

#: Package limits of the smallest booter offering (paper §4.3).
MAX_ATTACK_SECONDS = 300
MIN_ATTACK_SECONDS = 60


@dataclass
class SelfAttackCapture:
    """Ground-truth labeled flows from controlled self-attacks."""

    flows: FlowDataset  # blackhole column = attack ground truth
    events: list[AttackEvent]
    start: int
    end: int


class BooterSimulator:
    """Simulates purchasing booter attacks against dedicated victims."""

    def __init__(self, fabric: "IXPFabric", seed: int = 0x5A5):
        self.fabric = fabric
        self._seed = seed
        # Booters draw on the same regional reflector infrastructure as
        # real attackers, plus their own lists: use a pool from the same
        # region with a different seed (partially overlapping via the
        # shared block).
        self._pool = ReflectorPool(
            fabric.profile.region, seed=seed * 13 + 5, shared_fraction=0.15
        )
        self._attack_gen = AttackGenerator(self._pool, member_macs=fabric.member_macs)
        self._benign_gen = BenignTrafficGenerator(
            seed=seed * 13 + 6, member_macs=fabric.member_macs
        )
        # Dedicated victim space: a small block inside the vantage
        # point's customer space reserved for the experiment.
        space = fabric.customer_space
        self.victims = AddressBlock(space.base + space.size - 256, 256)

    def run_campaign(
        self,
        n_attacks: int,
        start: int = 0,
        spacing: int = 900,
        intensity: float = 80.0,
    ) -> SelfAttackCapture:
        """Purchase ``n_attacks`` sequential attacks, ``spacing`` s apart.

        Returns attack flows labeled True plus benign background from the
        same window labeled False (the SAS balancing of §4.1 then
        equalises the two classes).
        """
        if n_attacks <= 0:
            raise ValueError("n_attacks must be positive")
        rng = np.random.default_rng(self._seed)
        menu = [v for v, _ in BOOTER_MENU]
        weights = np.array([w for _, w in BOOTER_MENU])
        weights = weights / weights.sum()

        events: list[AttackEvent] = []
        parts: list[FlowDataset] = []
        t = start
        for _ in range(n_attacks):
            duration = int(rng.integers(MIN_ATTACK_SECONDS, MAX_ATTACK_SECONDS + 1))
            vector = menu[int(rng.choice(len(menu), p=weights))]
            victim = int(self.victims.sample(rng, 1)[0])
            event = AttackEvent(
                victim=victim,
                vectors=(vector,),
                start=t,
                end=t + duration,
                flows_per_minute=float(
                    np.clip(rng.lognormal(np.log(intensity), 0.4), 10.0, 500.0)
                ),
                blackholed=False,  # no blackholing involved in the SAS
            )
            events.append(event)
            attack_flows = self._attack_gen.generate(rng, event)
            parts.append(attack_flows.with_blackhole(np.ones(len(attack_flows), dtype=bool)))
            t += spacing
        end = t

        # Benign background over the whole campaign window, so the SAS
        # can be balanced like the ML training set. Destination
        # popularity is heavy-tailed, as in the live workload, so the
        # balancer can find benign IPs with attack-comparable counts.
        n_bins = max(1, (end - start) // 60)
        pool = self.fabric.customer_space.sample(
            np.random.default_rng(self._seed + 1), 256, replace=False
        )
        ranks = np.arange(1, pool.shape[0] + 1, dtype=np.float64)
        weights = ranks ** -1.6
        weights /= weights.sum()
        targets = rng.choice(pool, size=n_bins * 48, p=weights)
        benign = self._benign_gen.generate(
            rng, targets, start, end, flows_per_target_mean=6.0
        )
        parts.append(benign)

        flows = FlowDataset.concat(parts).sort_by_time()
        return SelfAttackCapture(
            flows=flows,
            events=events,
            start=start,
            end=end,
        )
