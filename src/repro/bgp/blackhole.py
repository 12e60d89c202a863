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

    def events(self) -> list[BlackholeEvent]:
        """All recorded blackhole intervals, closed first, then open ones."""
        return self._events + [
            BlackholeEvent(prefix=prefix, origin_asn=origin, start=start, end=None)
            for (prefix, origin), start in self._open.items()
        ]

    def match_flows(self, flows: FlowDataset, horizon: Optional[int] = None) -> np.ndarray:
        """Return a boolean mask of flows destined to blackholed space.

        A flow matches when its destination IP falls inside a blackholed
        prefix whose interval covers the flow timestamp. Open intervals
        are clipped at ``horizon`` if given, else treated as unbounded.

        Only events overlapping the batch's time span are visited; each
        reads its window off the batch's time order, sorted on first
        need. A batch costs O(flows log flows) once, plus O(window flows)
        per overlapping event.
        """
        n = len(flows)
        mask = np.zeros(n, dtype=bool)
        if n == 0:
            return mask
        times, dsts = flows.time, flows.dst_ip
        first, last = int(times.min()), int(times.max())
        order = None
        for event in self.events():
            end = event.end
            if end is None:
                end = horizon if horizon is not None else last + 1
            if max(event.start, first) >= min(end, last + 1):
                continue
            netmask, network = np.uint32(event.prefix.mask), np.uint32(event.prefix.network)
            if order is None:
                order = np.argsort(times, kind="stable")
                sorted_times = times.take(order)
            lo, hi = np.searchsorted(sorted_times, (event.start, end))
            rows = order[lo:hi]
            mask[rows[(dsts.take(rows) & netmask) == network]] = True
        return mask

    def label_flows(self, flows: FlowDataset, horizon: Optional[int] = None) -> FlowDataset:
        """Return ``flows`` with the ``blackhole`` column set from the feed."""
        return flows.with_blackhole(self.match_flows(flows, horizon=horizon))
