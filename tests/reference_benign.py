"""The per-service mask loop the benign generator must equal draw for draw.

``BenignTrafficGenerator.generate`` once filled each service class by a
full-length boolean mask, one per class, and the ephemeral flows by a
last one. It now groups the flows by class once and fills one slice per
class; this module keeps the mask loop, so a test can check that both
return the same columns and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.netflow.dataset import FlowDataset
from repro.netflow.fields import PROTO_TCP, PROTO_UDP
from repro.traffic.address_space import CLIENTS
from repro.traffic.benign import EPHEMERAL_SHARE, BenignTrafficGenerator


def reference_generate(
    generator: BenignTrafficGenerator,
    rng: np.random.Generator,
    targets: np.ndarray,
    start: int,
    end: int,
    flows_per_target_mean: float = 3.0,
) -> FlowDataset:
    targets = np.asarray(targets, dtype=np.uint32)
    if targets.size == 0 or end <= start:
        return FlowDataset.empty()
    per_target = rng.geometric(1.0 / max(flows_per_target_mean, 1.0), size=targets.size)
    n = int(per_target.sum())
    dst_ip = np.repeat(targets, per_target)

    services = generator._services
    service_idx = rng.choice(len(services), size=n, p=generator._service_p)
    ephemeral = rng.random(n) < EPHEMERAL_SHARE

    src_ip = np.empty(n, dtype=np.uint32)
    src_port = np.empty(n, dtype=np.uint16)
    dst_port = np.empty(n, dtype=np.uint16)
    protocol = np.empty(n, dtype=np.uint8)
    pkt_size = np.empty(n, dtype=np.float64)

    for i, service in enumerate(services):
        mask = (service_idx == i) & ~ephemeral
        count = int(mask.sum())
        if count == 0:
            continue
        pool = generator._server_pools[service.name]
        src_ip[mask] = rng.choice(pool, size=count)
        src_port[mask] = service.src_port
        dst_port[mask] = rng.integers(1024, 65536, size=count)
        protocol[mask] = service.protocol
        pkt_size[mask] = np.clip(
            rng.normal(service.packet_size_mean, service.packet_size_std, size=count),
            64.0,
            1500.0,
        )

    n_eph = int(ephemeral.sum())
    if n_eph:
        src_ip[ephemeral] = CLIENTS.sample(rng, n_eph)
        src_port[ephemeral] = rng.integers(1024, 65536, size=n_eph)
        dst_port[ephemeral] = rng.integers(1024, 65536, size=n_eph)
        protocol[ephemeral] = np.where(rng.random(n_eph) < 0.6, PROTO_UDP, PROTO_TCP)
        pkt_size[ephemeral] = np.clip(rng.normal(500.0, 300.0, size=n_eph), 64.0, 1500.0)

    packets = rng.geometric(0.25, size=n).astype(np.int64)
    bytes_ = np.maximum((pkt_size * packets).astype(np.int64), packets * 64)
    time = rng.integers(start, end, size=n)
    src_mac = rng.choice(generator._member_macs, size=n)

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
