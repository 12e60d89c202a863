"""BGP UPDATE messages as exchanged via the IXP route server.

Only the attributes relevant to blackhole capture are modelled:
prefix (NLRI), origin ASN, AS path, communities, and the announcement
timestamp. Withdrawals reference the prefix and origin only.
:func:`blackhole_updates` is the one place the announce/withdraw pair
that *is* the paper's label (§3) gets rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.community import BLACKHOLE, Community, has_blackhole_signal
from repro.bgp.prefix import Prefix


@dataclass(frozen=True)
class Announcement:
    """A BGP route announcement received by the route server."""

    prefix: Prefix
    origin_asn: int
    time: int
    as_path: tuple[int, ...] = ()
    communities: frozenset[Community] = field(default_factory=frozenset)
    next_hop: int = 0

    def __post_init__(self) -> None:
        if self.origin_asn <= 0:
            raise ValueError("origin ASN must be positive")
        if self.as_path and self.as_path[-1] != self.origin_asn:
            raise ValueError("AS path must end at the origin ASN")

    @property
    def is_blackhole(self) -> bool:
        """True if this announcement carries a blackhole community."""
        return has_blackhole_signal(self.communities)


@dataclass(frozen=True)
class Withdrawal:
    """A BGP route withdrawal."""

    prefix: Prefix
    origin_asn: int
    time: int


Update = Announcement | Withdrawal


def blackhole_updates(
    prefix: Prefix,
    origin_asn: int,
    announce_time: int,
    withdraw_time: int,
    horizon: int | None = None,
    as_path: tuple[int, ...] | None = None,
) -> list[Update]:
    """The announce/withdraw pair of one blackhole cycle.

    An update at or past ``horizon`` (the end of the capture) was never
    seen by the route server and is dropped: a late announcement yields
    nothing, a late withdrawal leaves the blackhole open. ``as_path``
    defaults to the member announcing its own prefix, ``(origin_asn,)``.
    Draws no random numbers — callers pick prefix, origin and times.
    """
    if horizon is not None and announce_time >= horizon:
        return []
    updates: list[Update] = [
        Announcement(
            prefix=prefix,
            origin_asn=origin_asn,
            time=announce_time,
            as_path=(origin_asn,) if as_path is None else as_path,
            communities=frozenset({BLACKHOLE}),
        )
    ]
    if horizon is None or withdraw_time < horizon:
        updates.append(
            Withdrawal(prefix=prefix, origin_asn=origin_asn, time=withdraw_time)
        )
    return updates
