"""The mask-per-chunk chunker ``iter_chunks`` must equal chunk for chunk.

``repro.core.recovery.session.iter_chunks`` once built one full-length
boolean mask per tick; it now groups the stream by chunk index once and
copies one slice per chunk. This module keeps the mask loop as the
definition of the chunking rule.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.netflow.dataset import BIN_SECONDS, FlowDataset


def reference_iter_chunks(
    flows: FlowDataset,
    updates: Iterable,
    chunk_bins: int = 8,
    start_bin: Optional[int] = None,
    end_bin: Optional[int] = None,
) -> Iterator[tuple[int, FlowDataset, list]]:
    updates = sorted(updates, key=lambda u: u.time)
    bins = flows.time // BIN_SECONDS
    if start_bin is None:
        start_bin = int(bins.min()) if len(flows) else 0
    if end_bin is None:
        end_bin = int(bins.max()) + 1 if len(flows) else start_bin
    u = 0
    for tick, chunk_start in enumerate(range(start_bin, end_bin, chunk_bins)):
        mask = (bins >= chunk_start) & (bins < chunk_start + chunk_bins)
        chunk_updates = []
        limit = (chunk_start + chunk_bins) * BIN_SECONDS
        while u < len(updates) and updates[u].time < limit:
            chunk_updates.append(updates[u])
            u += 1
        yield tick, flows.select(mask), chunk_updates
