"""IPv4 prefixes.

Blackholing announcements carry IP prefixes (usually host routes, /32,
but covering prefixes occur in practice). Sampled flows are matched
against the blackholed prefixes one event at a time, as a masked
compare over the event's time window
(:meth:`~repro.bgp.blackhole.BlackholeRegistry.match_flows`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netflow.record import int_to_ip, ip_to_int


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix, stored as (network uint32, length)."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= 0xFFFFFFFF:
            raise ValueError(f"network out of range: {self.network}")
        if self.network & ~self.mask:
            raise ValueError(
                f"host bits set in {int_to_ip(self.network)}/{self.length}"
            )

    @property
    def mask(self) -> int:
        """The network mask as a uint32 value."""
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare address, implying /32)."""
        if "/" in text:
            address, _, length_text = text.partition("/")
            length = int(length_text)
        else:
            address, length = text, 32
        return cls(network=ip_to_int(address) & cls._mask_for(length), length=length)

    @staticmethod
    def _mask_for(length: int) -> int:
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        if length == 0:
            return 0
        return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF

    @classmethod
    def host(cls, address: int | str) -> "Prefix":
        """The /32 host route for ``address``."""
        return cls(network=ip_to_int(address), length=32)

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside this prefix."""
        return (address & self.mask) == self.network

    def covers(self, other: "Prefix") -> bool:
        """True if this prefix covers ``other`` (equal or less specific)."""
        return self.length <= other.length and other.network & self.mask == self.network

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"
