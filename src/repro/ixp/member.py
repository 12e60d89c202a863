"""IXP member networks.

Members are the ASes connected to the exchange fabric. Their relevant
properties for this reproduction: the MAC address of their fabric port
(visible in sampled flows, used as a WoE-encoded feature), their role
(which shapes the traffic they inject), and whether they adhere to
blackholing announcements. Non-adhering members are the reason
blackholed traffic remains visible at the IXP at all (paper §3, Fig. 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MemberRole(enum.Enum):
    """Coarse role of a member network in the traffic ecosystem."""

    EYEBALL = "eyeball"  # access networks; mostly receive traffic
    CONTENT = "content"  # CDNs, hosters; mostly send benign traffic
    TRANSIT = "transit"  # carry mixed traffic, incl. reflection paths


@dataclass(frozen=True)
class MemberAS:
    """One AS connected to the IXP."""

    asn: int
    mac: int
    role: MemberRole
    #: Whether this member's routers install received blackhole routes.
    adheres_to_blackholing: bool = True

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError("ASN must be positive")
        if not 0 <= self.mac <= 0xFFFFFFFFFFFF:
            raise ValueError("MAC out of range")
