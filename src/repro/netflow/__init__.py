"""Flow-record substrate: data model, columnar datasets."""

from repro.netflow.dataset import BIN_SECONDS, SCHEMA, FlowDataset
from repro.netflow.fields import (
    PROTO_GRE,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    PROTOCOL_NAMES,
    WELL_KNOWN_DDOS_PORTS,
    ddos_port_label,
)
from repro.netflow.record import FlowRecord, int_to_ip, ip_to_int

__all__ = [
    "BIN_SECONDS",
    "SCHEMA",
    "FlowDataset",
    "FlowRecord",
    "PROTO_GRE",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTOCOL_NAMES",
    "WELL_KNOWN_DDOS_PORTS",
    "ddos_port_label",
    "int_to_ip",
    "ip_to_int",
]
