"""Benign background traffic model.

Generates the non-attack traffic an IXP member's customers receive:
web/QUIC responses from content networks, small legitimate DNS and NTP
responses, mail, SSH, streaming and ephemeral peer-to-peer flows.

Two properties of the paper's data are deliberately reproduced:

* Benign traffic contains a minority share (~7.5 %, Fig. 4a) of traffic
  from well-known DDoS source ports — legitimate DNS resolver replies and
  NTP time synchronisation. Its packet sizes differ from attack traffic
  (a benign NTP reply is ~76 bytes, a monlist amplification reply ~468).
* Traffic volume per target is heavy-tailed: a few popular destinations
  receive most flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netflow import fields
from repro.netflow.dataset import FlowDataset
from repro.netflow.fields import PROTO_TCP, PROTO_UDP
from repro.netflow.grouping import group_rows
from repro.traffic.address_space import CLIENTS, SERVERS


@dataclass(frozen=True)
class BenignService:
    """One benign service class contributing response traffic."""

    name: str
    protocol: int
    src_port: int  # server-side port as seen in flows *towards* the target
    packet_size_mean: float
    packet_size_std: float
    weight: float  # relative share of benign flows
    #: Number of distinct server addresses for this service.
    server_count: int = 64


#: Default benign mix. Weights approximate a typical eyeball traffic
#: profile; the DNS/NTP/SNMP entries supply the benign share of
#: well-known DDoS ports.
DEFAULT_SERVICES: tuple[BenignService, ...] = (
    BenignService("HTTPS", PROTO_TCP, fields.PORT_HTTPS, 1200.0, 300.0, 0.42, 256),
    BenignService("HTTP", PROTO_TCP, fields.PORT_HTTP, 900.0, 350.0, 0.10, 128),
    BenignService("QUIC", PROTO_UDP, fields.PORT_QUIC, 1250.0, 150.0, 0.22, 128),
    BenignService("DNS", PROTO_UDP, fields.PORT_DNS, 120.0, 40.0, 0.05, 64),
    BenignService("NTP", PROTO_UDP, fields.PORT_NTP, 76.0, 8.0, 0.02, 32),
    BenignService("SNMP", PROTO_UDP, fields.PORT_SNMP, 150.0, 50.0, 0.0015, 16),
    BenignService("SMTP", PROTO_TCP, fields.PORT_SMTP, 600.0, 200.0, 0.03, 32),
    BenignService("SSH", PROTO_TCP, fields.PORT_SSH, 300.0, 150.0, 0.02, 32),
    BenignService("RTMP", PROTO_TCP, fields.PORT_RTMP, 1300.0, 100.0, 0.045, 16),
    BenignService("IMAPS", PROTO_TCP, fields.PORT_IMAPS, 500.0, 180.0, 0.02, 16),
)

#: Share of benign flows that are client->target ephemeral traffic
#: (requests, peer-to-peer, games, uploads) rather than server
#: responses. Keeping this substantial matters: with only well-known
#: service ports in the benign class, "unknown top source port" becomes
#: a degenerate single-feature attack detector.
EPHEMERAL_SHARE = 0.25


class BenignTrafficGenerator:
    """Draws benign flows towards a set of target addresses."""

    def __init__(
        self,
        seed: int,
        services: tuple[BenignService, ...] = DEFAULT_SERVICES,
        member_macs: np.ndarray | None = None,
    ):
        self._services = services
        rng = np.random.default_rng(seed)
        # Stable per-service server pools: these are the "known good"
        # sources whose WoE the classifier learns to be negative.
        self._server_pools = {
            s.name: SERVERS.sample(rng, s.server_count, replace=False)
            for s in services
        }
        weights = np.array([s.weight for s in services], dtype=np.float64)
        self._service_p = weights / weights.sum()
        if member_macs is None:
            member_macs = np.arange(1, 9, dtype=np.uint64)
        self._member_macs = np.asarray(member_macs, dtype=np.uint64)

    def generate(
        self,
        rng: np.random.Generator,
        targets: np.ndarray,
        start: int,
        end: int,
        flows_per_target_mean: float = 3.0,
    ) -> FlowDataset:
        """Generate benign flows to ``targets`` within ``[start, end)``.

        Flow counts per target are geometric (heavy-ish tail); timestamps
        are uniform over the window.
        """
        targets = np.asarray(targets, dtype=np.uint32)
        if targets.size == 0 or end <= start:
            return FlowDataset.empty()
        per_target = rng.geometric(1.0 / max(flows_per_target_mean, 1.0), size=targets.size)
        n = int(per_target.sum())
        dst_ip = np.repeat(targets, per_target)

        service_idx = rng.choice(len(self._services), size=n, p=self._service_p)
        ephemeral = rng.random(n) < EPHEMERAL_SHARE

        # Group the flows by class once (ephemeral is the last class), fill
        # each class's contiguous slice, draws in class order, and put the
        # rows back in flow order at the end.
        n_services = len(self._services)
        order, classes = group_rows(np.where(ephemeral, n_services, service_idx))
        src_ip = np.empty(n, dtype=np.uint32)
        src_port = np.empty(n, dtype=np.uint16)
        dst_port = np.empty(n, dtype=np.uint16)
        protocol = np.empty(n, dtype=np.uint8)
        pkt_size = np.empty(n, dtype=np.float64)

        for i, lo, hi in classes:
            count, rows = hi - lo, slice(lo, hi)
            if i == n_services:
                src_ip[rows] = CLIENTS.sample(rng, count)
                src_port[rows] = rng.integers(1024, 65536, size=count)
                dst_port[rows] = rng.integers(1024, 65536, size=count)
                protocol[rows] = np.where(rng.random(count) < 0.6, PROTO_UDP, PROTO_TCP)
                pkt_size[rows] = np.clip(rng.normal(500.0, 300.0, size=count), 64.0, 1500.0)
                continue
            service = self._services[i]
            src_ip[rows] = rng.choice(self._server_pools[service.name], size=count)
            src_port[rows] = service.src_port
            dst_port[rows] = rng.integers(1024, 65536, size=count)
            protocol[rows] = service.protocol
            pkt_size[rows] = np.clip(
                rng.normal(service.packet_size_mean, service.packet_size_std, size=count),
                64.0,
                1500.0,
            )
        if order is not None:
            for column in (src_ip, src_port, dst_port, protocol, pkt_size):
                column[order] = column.copy()

        packets = rng.geometric(0.25, size=n).astype(np.int64)
        bytes_ = np.maximum((pkt_size * packets).astype(np.int64), packets * 64)
        time = rng.integers(start, end, size=n)
        src_mac = rng.choice(self._member_macs, size=n)

        return FlowDataset(
            {
                "time": time.astype(np.int64),
                "src_ip": src_ip,
                "dst_ip": dst_ip,
                "src_port": src_port,
                "dst_port": dst_port,
                "protocol": protocol,
                "packets": packets,
                "bytes": bytes_,
                "src_mac": src_mac,
                "blackhole": np.zeros(n, dtype=bool),
            }
        )
