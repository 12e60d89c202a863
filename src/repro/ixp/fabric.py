"""The IXP switching fabric.

:class:`IXPFabric` assembles the static side of one vantage point from an
:class:`~repro.ixp.profiles.IXPProfile`: the member ASes with their port
MACs and roles, and the customer address space behind the members (the
destinations traffic flows to).
"""

from __future__ import annotations

import numpy as np

from repro.ixp.member import MemberAS, MemberRole
from repro.ixp.profiles import IXPProfile
from repro.traffic.address_space import VICTIMS, AddressBlock

#: Role mix of the member base (eyeballs dominate receiver counts).
_ROLE_MIX = (
    (MemberRole.EYEBALL, 0.5),
    (MemberRole.CONTENT, 0.3),
    (MemberRole.TRANSIT, 0.2),
)

#: Fraction of members that do not adhere to blackholing routes; their
#: forwarded traffic is what the capture pipeline sees (paper §3).
_NON_ADHERENCE = 0.3

_N_REGIONS = 16


class IXPFabric:
    """Static vantage-point state derived from a profile."""

    def __init__(self, profile: IXPProfile):
        self.profile = profile
        rng = np.random.default_rng(profile.seed)
        self.members = self._build_members(rng)

    def _build_members(self, rng: np.random.Generator) -> tuple[MemberAS, ...]:
        members = []
        roles = [role for role, _ in _ROLE_MIX]
        weights = np.array([w for _, w in _ROLE_MIX])
        weights = weights / weights.sum()
        base_asn = 64512 + self.profile.region * 1024
        for i in range(self.profile.n_members):
            role = roles[int(rng.choice(len(roles), p=weights))]
            members.append(
                MemberAS(
                    asn=base_asn + i,
                    mac=(self.profile.region << 32) | (0x02 << 40) | (i + 1),
                    role=role,
                    adheres_to_blackholing=bool(rng.random() >= _NON_ADHERENCE),
                    name=f"{self.profile.name}-member-{i}",
                )
            )
        return tuple(members)

    @property
    def member_macs(self) -> np.ndarray:
        """Port MACs of all members (the ``src_mac`` feature domain)."""
        return np.array([m.mac for m in self.members], dtype=np.uint64)

    @property
    def eyeball_members(self) -> tuple[MemberAS, ...]:
        return tuple(m for m in self.members if m.role == MemberRole.EYEBALL)

    @property
    def customer_space(self) -> AddressBlock:
        """The victim/benign-target address block of this vantage point."""
        size = VICTIMS.size // _N_REGIONS
        return AddressBlock(VICTIMS.base + self.profile.region * size, size)
