"""Reflection/amplification attack generation.

An :class:`AttackEvent` describes one DDoS attack against one victim:
vector mix, time window and intensity. :class:`AttackGenerator` renders
the event into sampled flow records with the vector's L3/L4 signature:
reflector sources on the vector's service port, characteristic response
packet sizes, an accompanying stream of non-first UDP fragments (source
port 0), and destination ports either sprayed over the full range or
held quasi-stable — matching the paper's observations (Fig. 4, Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.messages import Update, blackhole_updates
from repro.bgp.prefix import Prefix
from repro.netflow.dataset import FlowDataset
from repro.netflow.fields import PORT_FRAGMENT, PROTO_UDP
from repro.traffic.reflectors import ReflectorPool
from repro.traffic.vectors import DDoSVector


@dataclass(frozen=True)
class AttackEvent:
    """One DDoS attack against one victim address."""

    victim: int
    vectors: tuple[DDoSVector, ...]
    start: int
    end: int
    #: Sampled attack flows per minute arriving at the vantage point.
    flows_per_minute: float
    #: Whether the victim's network blackholes the victim during the
    #: attack (drives label generation, not flow generation).
    blackholed: bool = True
    #: Seconds between attack start and the blackhole announcement.
    reaction_delay: int = 120
    #: Relative intensity per vector (defaults to uniform).
    vector_weights: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("attack must have positive duration")
        if not self.vectors:
            raise ValueError("attack needs at least one vector")
        if self.flows_per_minute <= 0:
            raise ValueError("attack intensity must be positive")
        if self.vector_weights and len(self.vector_weights) != len(self.vectors):
            raise ValueError("vector_weights length mismatch")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def weights(self) -> np.ndarray:
        """Normalised per-vector intensity weights."""
        if self.vector_weights:
            w = np.asarray(self.vector_weights, dtype=np.float64)
        else:
            w = np.ones(len(self.vectors), dtype=np.float64)
        return w / w.sum()

    def blackhole_updates(
        self,
        prefix: Prefix,
        origin_asn: int,
        hold: int,
        horizon: int | None = None,
        as_path: tuple[int, ...] | None = None,
    ) -> list[Update]:
        """The victim network's blackhole around this attack, if any.

        Announced ``reaction_delay`` seconds into the attack and
        withdrawn ``hold`` seconds after it ends; see
        :func:`repro.bgp.messages.blackhole_updates` for ``horizon``
        and ``as_path``.
        """
        if not self.blackholed:
            return []
        return blackhole_updates(
            prefix, origin_asn, self.start + self.reaction_delay,
            self.end + hold, horizon, as_path,
        )


class AttackGenerator:
    """Renders attack events into sampled flow records."""

    def __init__(self, pool: ReflectorPool, member_macs: np.ndarray | None = None):
        self._pool = pool
        if member_macs is None:
            member_macs = np.arange(1, 9, dtype=np.uint64)
        self._member_macs = np.asarray(member_macs, dtype=np.uint64)

    def generate(
        self,
        rng: np.random.Generator,
        event: AttackEvent,
        window_start: int | None = None,
        window_end: int | None = None,
        epoch: int = 0,
    ) -> FlowDataset:
        """Generate the event's flows, optionally clipped to a window.

        ``epoch`` selects the reflector-pool generation in use at the
        time of the attack (see
        :meth:`repro.traffic.reflectors.ReflectorPool.pool_at_epoch`).
        """
        start = event.start if window_start is None else max(event.start, window_start)
        end = event.end if window_end is None else min(event.end, window_end)
        if end <= start:
            return FlowDataset.empty()
        expected = event.flows_per_minute * (end - start) / 60.0
        n_total = int(rng.poisson(expected))
        if n_total == 0:
            return FlowDataset.empty()

        per_vector = rng.multinomial(n_total, event.weights())
        parts = []
        for vector, count in zip(event.vectors, per_vector):
            if count:
                parts.append(
                    self._vector_flows(rng, event, vector, int(count), start, end, epoch)
                )
        return FlowDataset.concat(parts)

    def _vector_flows(
        self,
        rng: np.random.Generator,
        event: AttackEvent,
        vector: DDoSVector,
        n: int,
        start: int,
        end: int,
        epoch: int = 0,
    ) -> FlowDataset:
        src_ip = self._pool.sample(vector, rng, n, epoch=epoch).astype(np.uint32)
        if vector.random_src_ports:
            # Direct floods: spoofed/botnet sources with arbitrary
            # ephemeral ports — no service-port signature to match on.
            src_port = rng.integers(1024, 65536, size=n).astype(np.uint16)
        else:
            src_port = np.full(n, vector.src_port, dtype=np.uint16)
        protocol = np.full(n, vector.protocol, dtype=np.uint8)
        pkt_size = vector.sample_packet_sizes(rng, n)

        # Non-first fragments: no L4 header, exporters report port 0 and
        # the carrier is plain UDP irrespective of the abused service.
        # For a share of fragmenting attacks the sampled view is
        # fragment-dominated (at 1:N packet sampling the service-port
        # first fragments are often missed entirely) — these populate
        # the paper's "UDP Fragm." class (Fig. 4a, Table 3).
        fragment_fraction = vector.fragment_fraction
        if fragment_fraction > 0.0 and rng.random() < 0.15:
            fragment_fraction = 0.95
        fragments = rng.random(n) < fragment_fraction
        src_port[fragments] = PORT_FRAGMENT
        if vector.protocol == PROTO_UDP:
            # Fragments of UDP amplification are near-MTU sized.
            pkt_size[fragments] = np.clip(
                rng.normal(1480.0, 20.0, size=int(fragments.sum())), 1200.0, 1500.0
            )

        if vector.sprays_dst_ports:
            dst_port = rng.integers(0, 65536, size=n).astype(np.uint16)
        else:
            # Responses return towards a small set of ephemeral ports.
            base_ports = rng.integers(1024, 65536, size=max(1, n // 64))
            dst_port = rng.choice(base_ports, size=n).astype(np.uint16)
        dst_port[fragments] = PORT_FRAGMENT

        # Attack flows aggregate many packets per sampled flow record.
        packets = rng.geometric(0.08, size=n).astype(np.int64)
        bytes_ = np.maximum((pkt_size * packets).astype(np.int64), packets * 64)
        time = rng.integers(start, end, size=n)
        # Attack traffic enters via the member ports facing transit /
        # reflector-rich networks; keep it on a subset of MACs.
        macs = self._member_macs[: max(1, len(self._member_macs) // 2)]
        src_mac = rng.choice(macs, size=n)

        return FlowDataset(
            {
                "time": time.astype(np.int64),
                "src_ip": src_ip,
                "dst_ip": np.full(n, event.victim, dtype=np.uint32),
                "src_port": src_port,
                "dst_port": dst_port,
                "protocol": protocol,
                "packets": packets,
                "bytes": bytes_,
                "src_mac": src_mac,
                "blackhole": np.zeros(n, dtype=bool),
            }
        )
