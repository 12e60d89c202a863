"""IXP substrate: members, vantage-point profiles, fabric."""

from repro.ixp.fabric import IXPFabric
from repro.ixp.member import MemberAS, MemberRole
from repro.ixp.profiles import (
    ALL_PROFILES,
    IXP_CE1,
    IXP_CE2,
    IXP_SE,
    IXP_US1,
    IXP_US2,
    IXPProfile,
    profile_by_name,
)

__all__ = [
    "ALL_PROFILES",
    "IXP_CE1",
    "IXP_CE2",
    "IXP_SE",
    "IXP_US1",
    "IXP_US2",
    "IXPFabric",
    "IXPProfile",
    "MemberAS",
    "MemberRole",
    "profile_by_name",
]
