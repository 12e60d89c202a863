"""Traffic substrate: benign models, DDoS vectors, attacks, workloads."""

from repro.traffic.address_space import (
    CLIENTS,
    REFLECTORS,
    SERVERS,
    VICTIMS,
    AddressBlock,
    region_reflector_block,
)
from repro.traffic.attacks import AttackEvent, AttackGenerator
from repro.traffic.benign import (
    DEFAULT_SERVICES,
    BenignService,
    BenignTrafficGenerator,
)
from repro.traffic.booter import BOOTER_MENU, BooterSimulator, SelfAttackCapture
from repro.traffic.reflectors import ReflectorPool
from repro.traffic.vectors import (
    ALL_VECTORS,
    OTHER_VECTORS,
    TOP_VECTORS,
    DDoSVector,
    vector_by_name,
)
from repro.traffic.workload import (
    DEFAULT_VECTOR_POPULARITY,
    BinStatistics,
    WorkloadCapture,
    WorkloadGenerator,
)

__all__ = [
    "ALL_VECTORS",
    "AddressBlock",
    "AttackEvent",
    "AttackGenerator",
    "BOOTER_MENU",
    "BenignService",
    "BenignTrafficGenerator",
    "BinStatistics",
    "BooterSimulator",
    "CLIENTS",
    "DDoSVector",
    "DEFAULT_SERVICES",
    "DEFAULT_VECTOR_POPULARITY",
    "OTHER_VECTORS",
    "REFLECTORS",
    "ReflectorPool",
    "SERVERS",
    "SelfAttackCapture",
    "TOP_VECTORS",
    "VICTIMS",
    "WorkloadCapture",
    "WorkloadGenerator",
    "region_reflector_block",
    "vector_by_name",
]
