"""Time-aware registry of blackholed prefixes.

The registry consumes the BGP feed (announcements carrying a blackhole
community and their withdrawals) and records, per prefix, the intervals
during which the prefix was blackholed. The labeler
(:mod:`repro.core.labeling`) then asks, for every sampled flow, whether
its destination was covered by an active blackhole at the flow's
timestamp — the crowdsourced label of §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.bgp.messages import Announcement, Update, Withdrawal
from repro.bgp.prefix import Prefix
from repro.netflow.dataset import FlowDataset


@dataclass(frozen=True)
class BlackholeEvent:
    """One contiguous blackholing interval for a prefix.

    ``end`` is exclusive; ``None`` means the blackhole was still active at
    the end of the observed feed.
    """

    prefix: Prefix
    origin_asn: int
    start: int
    end: Optional[int]

    @property
    def duration(self) -> Optional[int]:
        """Interval length in seconds, or ``None`` while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def active_at(self, time: int) -> bool:
        """True if the blackhole was active at ``time``."""
        if time < self.start:
            return False
        return self.end is None or time < self.end


class BlackholeRegistry:
    """Tracks blackhole intervals derived from a BGP update feed."""

    def __init__(self) -> None:
        self._open: dict[tuple[Prefix, int], int] = {}
        self._events: list[BlackholeEvent] = []
        self._last_time: int | None = None

    def apply(self, update: Update) -> None:
        """Feed one BGP update (in non-decreasing timestamp order)."""
        if self._last_time is not None and update.time < self._last_time:
            raise ValueError(
                f"out-of-order BGP update at t={update.time} (last {self._last_time})"
            )
        self._last_time = update.time
        key = (update.prefix, update.origin_asn)
        if isinstance(update, Announcement):
            if update.is_blackhole:
                self._open.setdefault(key, update.time)
            else:
                # A re-announcement without the blackhole community ends
                # any open blackhole for this (prefix, origin).
                self._close(key, update.time)
        elif isinstance(update, Withdrawal):
            self._close(key, update.time)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown update type: {type(update)!r}")

    def apply_all(self, updates: Iterable[Update]) -> None:
        """Feed a sequence of updates in order."""
        for update in updates:
            self.apply(update)

    def _close(self, key: tuple[Prefix, int], time: int) -> None:
        start = self._open.pop(key, None)
        if start is not None:
            prefix, origin = key
            self._events.append(
                BlackholeEvent(prefix=prefix, origin_asn=origin, start=start, end=time)
            )

    def events(self, include_open: bool = True) -> list[BlackholeEvent]:
        """All recorded blackhole intervals, closed first, then open ones."""
        out = list(self._events)
        if include_open:
            for (prefix, origin), start in self._open.items():
                out.append(
                    BlackholeEvent(prefix=prefix, origin_asn=origin, start=start, end=None)
                )
        return out

    def active_at(self, time: int) -> list[BlackholeEvent]:
        """Blackhole intervals covering ``time``."""
        return [e for e in self.events() if e.active_at(time)]

    def match_flows(self, flows: FlowDataset, horizon: Optional[int] = None) -> np.ndarray:
        """Return a boolean mask of flows destined to blackholed space.

        A flow matches when its destination IP falls inside a blackholed
        prefix whose interval covers the flow timestamp. Open intervals
        are clipped at ``horizon`` if given, else treated as unbounded.

        Complexity is O(events x log flows + matched flows): the flow
        dataset is scanned per event on its time-sorted order, so short
        blackholes only touch the flows inside their window.
        """
        n = len(flows)
        mask = np.zeros(n, dtype=bool)
        if n == 0:
            return mask
        order = np.argsort(flows.time, kind="stable")
        times = flows.time[order]
        dsts = flows.dst_ip[order]
        for event in self.events():
            end = event.end
            if end is None:
                end = horizon if horizon is not None else int(times[-1]) + 1
            lo = int(np.searchsorted(times, event.start, side="left"))
            hi = int(np.searchsorted(times, end, side="left"))
            if lo >= hi:
                continue
            window = dsts[lo:hi]
            prefix = event.prefix
            hit = (window & np.uint32(prefix.mask)) == np.uint32(prefix.network)
            mask[order[lo:hi][hit]] = True
        return mask

    def label_flows(self, flows: FlowDataset, horizon: Optional[int] = None) -> FlowDataset:
        """Return ``flows`` with the ``blackhole`` column set from the feed."""
        return flows.with_blackhole(self.match_flows(flows, horizon=horizon))
