"""Scalar flow record model.

A :class:`FlowRecord` is the row-level view of a sampled flow, as exported
by an sFlow/IPFIX-style collector at the IXP: L2-L4 headers plus byte and
packet counters, no payload (see paper §4.3 on data minimisation).

The columnar :class:`~repro.netflow.dataset.FlowDataset` is the container
used for any bulk processing; ``FlowRecord`` exists for ergonomic
construction in tests, examples and generators.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

from repro.netflow.fields import PROTOCOL_NAMES


def ip_to_int(address: str | int) -> int:
    """Convert a dotted-quad IPv4 address (or an int) to a uint32 value."""
    if isinstance(address, int):
        if not 0 <= address <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 integer out of range: {address}")
        return address
    return int(ipaddress.IPv4Address(address))


def int_to_ip(value: int) -> str:
    """Convert a uint32 value back to a dotted-quad IPv4 string."""
    return str(ipaddress.IPv4Address(int(value)))


@dataclass(frozen=True)
class FlowRecord:
    """One sampled flow observed at the IXP fabric.

    Attributes mirror the columns of
    :class:`~repro.netflow.dataset.FlowDataset`. ``bytes_`` is the total
    byte count of the flow sample (trailing underscore avoids shadowing
    the builtin), ``packets`` the packet count; the mean packet size is
    derived, never stored.
    """

    time: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int
    packets: int
    bytes_: int
    src_mac: int = 0
    blackhole: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.packets <= 0:
            raise ValueError("flow must contain at least one packet")
        if self.bytes_ <= 0:
            raise ValueError("flow must contain at least one byte")
        if not 0 <= self.src_port <= 0xFFFF or not 0 <= self.dst_port <= 0xFFFF:
            raise ValueError("transport port out of range")

    @property
    def packet_size(self) -> float:
        """Mean packet size of the flow in bytes."""
        return self.bytes_ / self.packets

    @property
    def protocol_name(self) -> str:
        """Human-readable protocol name (e.g. ``"UDP"``)."""
        return PROTOCOL_NAMES.get(self.protocol, str(self.protocol))

    def describe(self) -> str:
        """Render a one-line summary, mainly for logging and debugging."""
        return (
            f"{self.protocol_name} {int_to_ip(self.src_ip)}:{self.src_port} -> "
            f"{int_to_ip(self.dst_ip)}:{self.dst_port} "
            f"({self.packets} pkts, {self.bytes_} bytes"
            f"{', blackholed' if self.blackhole else ''})"
        )
