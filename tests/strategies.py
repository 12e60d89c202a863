"""Seeded random strategies for the property-based test suite.

A minimal, dependency-free stand-in for hypothesis-style generators:
every strategy is a plain function taking a ``numpy.random.Generator``
(derive one per case with :func:`rng_for`) and returning a realistic
random artifact — flow datasets, labeled attack workloads, tagging
rules. Tests loop over seed ranges and assert invariants on every
draw, so a failing seed is directly reproducible::

    flows = strategies.labeled_flows(strategies.rng_for(17))

Strategies bias towards the structures the pipeline cares about (a few
hot targets, reflector-style source ports on attack flows, multi-bin
time ranges) while still randomising everything; uniform noise would
exercise almost none of the aggregation/balancing logic.
"""

from __future__ import annotations

import numpy as np

from repro.core.rules.model import PortMatch, RuleStatus, TaggingRule
from repro.netflow.dataset import FlowDataset

#: Reflector-style UDP source ports (NTP, DNS, chargen, SSDP, SNMP).
ATTACK_PORTS = (123, 53, 19, 1900, 161)

_SEED_SALT = 0x5CBB


def rng_for(seed: int) -> np.random.Generator:
    """Deterministic per-case generator, decorrelated across seeds."""
    return np.random.default_rng((_SEED_SALT, seed))


def flows(
    rng: np.random.Generator,
    n_flows: int = 400,
    n_targets: int = 8,
    n_bins: int = 3,
    start_bin: int = 0,
    attack_share: float = 0.4,
) -> FlowDataset:
    """Random multi-bin flow dataset with a blackholed attack blend.

    Roughly ``attack_share`` of flows form reflection-style attacks
    (fixed source ports, UDP, large packets) against a subset of the
    target pool and are marked blackholed; the rest is benign traffic
    with ephemeral ports. All targets live in 10.0.0.0/8 and spread
    across distinct /24s so prefix sharding has something to split.
    """
    if n_flows < 1 or n_targets < 1 or n_bins < 1:
        raise ValueError("n_flows, n_targets and n_bins must be >= 1")
    targets = (
        0x0A000000
        + (rng.choice(2**16, size=n_targets, replace=False).astype(np.uint32) << 8)
        + rng.integers(1, 255, size=n_targets, dtype=np.uint32)
    )
    n_attacked = max(1, int(round(n_targets * 0.4)))
    attacked = rng.choice(n_targets, size=n_attacked, replace=False)

    is_attack = rng.random(n_flows) < attack_share
    target_index = np.where(
        is_attack,
        rng.choice(attacked, size=n_flows),
        rng.integers(0, n_targets, size=n_flows),
    )
    dst_ip = targets[target_index]
    src_ip = rng.integers(1, 2**32 - 1, size=n_flows, dtype=np.uint32)
    src_port = np.where(
        is_attack,
        rng.choice(ATTACK_PORTS, size=n_flows),
        rng.integers(1024, 65535, size=n_flows),
    ).astype(np.uint16)
    dst_port = rng.integers(1, 65535, size=n_flows).astype(np.uint16)
    protocol = np.where(
        is_attack, 17, rng.choice((6, 17), size=n_flows, p=(0.7, 0.3))
    ).astype(np.uint8)
    packets = np.where(
        is_attack,
        rng.integers(20, 80, size=n_flows),
        rng.integers(1, 12, size=n_flows),
    ).astype(np.int64)
    packet_size = np.where(
        is_attack,
        rng.integers(400, 1400, size=n_flows),
        rng.integers(60, 1500, size=n_flows),
    )
    time = start_bin * 60 + rng.integers(0, n_bins * 60, size=n_flows)
    return FlowDataset(
        {
            "time": np.sort(time),
            "src_ip": src_ip,
            "dst_ip": dst_ip,
            "src_port": src_port,
            "dst_port": dst_port,
            "protocol": protocol,
            "packets": packets,
            "bytes": packets * packet_size,
            "src_mac": rng.integers(1, 64, size=n_flows, dtype=np.uint64),
            "blackhole": is_attack,
        }
    )


def labeled_flows(
    rng: np.random.Generator, n_flows: int = 400, **kwargs
) -> FlowDataset:
    """Like :func:`flows` but guaranteed to contain both classes."""
    data = flows(rng, n_flows=n_flows, **kwargs)
    labels = data.blackhole
    if labels.all() or not labels.any():  # pragma: no cover - rare draw
        flip = np.array(labels, copy=True)
        flip[: max(1, n_flows // 4)] = ~flip[: max(1, n_flows // 4)]
        data = data.with_blackhole(flip)
    return data


def shuffled(rng: np.random.Generator, flows: FlowDataset) -> FlowDataset:
    """``flows`` in a random row order: a stream nobody time-sorted."""
    return flows.select(rng.permutation(len(flows)))


def assert_same_flows(got: FlowDataset, want: FlowDataset) -> None:
    """Equal column for column: the same dtypes and the same bytes."""
    assert len(got) == len(want)
    for name, array in want.to_columns().items():
        assert got.column(name).dtype == array.dtype, name
        assert got.column(name).tobytes() == array.tobytes(), name


def without_packets(flows: FlowDataset, rows) -> FlowDataset:
    """``flows`` with the packet and byte counters of ``rows`` zeroed: what
    an exporter sends for a flow it saw no sampled packet of."""
    columns = flows.to_columns()
    for name in ("packets", "bytes"):
        columns[name] = np.array(columns[name])
        columns[name][rows] = 0
    return FlowDataset(columns)


def wide_flows(
    rng: np.random.Generator,
    n_targets: int = 5000,
    flows_per_target: int = 2,
    n_bins: int = 1,
    start_bin: int = 0,
    max_flows: int | None = None,
) -> FlowDataset:
    """Carpet-bombing-shaped workload: a huge sparse target fan-out.

    Every target lives in its own /24 and receives about
    ``flows_per_target`` small flows — the distinct-target regime whose
    exact per-bin buffers grow linearly and whose sketch-mode state does
    not (the memory math in ``docs/SKETCHES.md``).

    ``max_flows`` is the size hint scaled-down property runs pass: the
    target fan-out is clamped so the dataset never exceeds it (it used
    to be ignored via ``n_targets`` alone, so "small" runs still built
    ``n_targets * flows_per_target`` flows). The fan-out is also capped
    at 65536 targets — one per /24 is all 10.0.0.0/8 holds, and beyond
    that the uint32 address arithmetic would silently leave the block.
    """
    if n_targets < 1 or flows_per_target < 1 or n_bins < 1:
        raise ValueError("n_targets, flows_per_target and n_bins must be >= 1")
    if max_flows is not None:
        if max_flows < 1:
            raise ValueError("max_flows must be >= 1")
        n_targets = max(1, min(n_targets, max_flows // max(1, flows_per_target)))
    n_targets = min(n_targets, 65536)
    hosts = rng.integers(1, 255, size=n_targets, dtype=np.uint32)
    targets = 0x0A000000 + (np.arange(n_targets, dtype=np.uint32) << 8) + hosts
    n_flows = n_targets * flows_per_target
    dst_ip = np.repeat(targets, flows_per_target)
    packets = rng.integers(1, 12, size=n_flows, dtype=np.int64)
    time = start_bin * 60 + rng.integers(0, n_bins * 60, size=n_flows)
    return FlowDataset(
        {
            "time": np.sort(time),
            "src_ip": rng.integers(1, 2**32 - 1, size=n_flows, dtype=np.uint32),
            "dst_ip": dst_ip,
            "src_port": rng.integers(1024, 65535, size=n_flows).astype(np.uint16),
            "dst_port": rng.integers(1, 65535, size=n_flows).astype(np.uint16),
            "protocol": rng.choice((6, 17), size=n_flows).astype(np.uint8),
            "packets": packets,
            "bytes": packets * rng.integers(60, 1500, size=n_flows),
            "src_mac": rng.integers(1, 64, size=n_flows, dtype=np.uint64),
            "blackhole": rng.random(n_flows) < 0.1,
        }
    )


def tagging_rules(
    rng: np.random.Generator, n_rules: int = 4
) -> list[TaggingRule]:
    """Random accepted tagging rules over the attack-port alphabet."""
    out = []
    for i in range(n_rules):
        n_ports = int(rng.integers(1, 3))
        ports = frozenset(
            int(p) for p in rng.choice(ATTACK_PORTS, size=n_ports, replace=False)
        )
        out.append(
            TaggingRule(
                rule_id=f"strat-{i}",
                confidence=float(rng.uniform(0.8, 1.0)),
                support=float(rng.uniform(0.001, 0.1)),
                protocol=17 if rng.random() < 0.7 else None,
                port_src=PortMatch(values=ports, negated=bool(rng.random() < 0.2)),
                status=RuleStatus.ACCEPT,
            )
        )
    return out


def header_rules(rng: np.random.Generator, n_rules: int) -> list[TaggingRule]:
    """Random rules over all four header fields.

    Every field is a wildcard about half the time (never all four), port
    sets are negated a third of the time, and size bins are the mined
    ``(100 k, 100 (k + 1)]`` shape — so what :func:`flows` generates hits
    bin edges exactly (its packet sizes are integers).
    """
    ports = (*ATTACK_PORTS, 0, 80, 443, 65535)
    out = []
    for i in range(n_rules):
        wild = rng.random(4) < 0.5
        if wild.all():
            wild[rng.integers(4)] = False

        def port_match() -> PortMatch:
            values = rng.choice(ports, size=int(rng.integers(1, 4)), replace=False)
            return PortMatch(frozenset(int(v) for v in values), bool(rng.random() < 0.33))

        low = 100 * int(rng.integers(0, 15))
        out.append(
            TaggingRule(
                rule_id=f"hdr-{i}",
                confidence=0.9,
                support=0.01,
                protocol=None if wild[0] else int(rng.choice((0, 6, 17, 255))),
                port_src=None if wild[1] else port_match(),
                port_dst=None if wild[2] else port_match(),
                packet_size=None if wild[3] else (low, low + 100 * int(rng.integers(1, 4))),
                status=RuleStatus.ACCEPT,
            )
        )
    return out
