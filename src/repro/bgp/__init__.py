"""BGP substrate: prefixes, communities, updates, blackhole registry."""

from repro.bgp.blackhole import BlackholeEvent, BlackholeRegistry
from repro.bgp.community import (
    BLACKHOLE,
    BLACKHOLE_VALUE,
    Community,
    has_blackhole_signal,
    is_blackhole_community,
)
from repro.bgp.messages import Announcement, Update, Withdrawal
from repro.bgp.prefix import Prefix

__all__ = [
    "BLACKHOLE",
    "BLACKHOLE_VALUE",
    "Announcement",
    "BlackholeEvent",
    "BlackholeRegistry",
    "Community",
    "Prefix",
    "Update",
    "Withdrawal",
    "has_blackhole_signal",
    "is_blackhole_community",
]
