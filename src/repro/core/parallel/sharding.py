"""Partitioning flow records across worker shards by target prefix.

The unit of parallelism is the *target*: every per-minute aggregate,
verdict and ACL the scrubber produces is keyed by destination IP, so
routing all flows of one target prefix to the same shard makes shards
fully independent — the union of per-shard aggregations equals the
global aggregation, which is what makes sharded verdicts bit-identical
to serial ones (see ``docs/ARCHITECTURE.md``).

Assignment hashes the target's /24 prefix — the granularity at which
the paper's IXPs blackhole and mitigate — through a SplitMix64 finisher,
a platform-stable avalanche mix: ``hash()`` would vary per process
(PYTHONHASHSEED) and break cross-run determinism.
"""

from __future__ import annotations

import numpy as np

from repro.netflow.dataset import FlowDataset

__all__ = ["ShardPlan", "PREFIX_BITS"]

#: Sharding granularity: addresses sharing their top 24 bits always land
#: on the same shard. Checkpoints record it (``state_codec``).
PREFIX_BITS = 24


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finisher: stable 64-bit avalanche mix (vectorised)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class ShardPlan:
    """Deterministic mapping from target address to one of ``n_shards``."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards

    def assign(self, addresses: np.ndarray) -> np.ndarray:
        """Shard index (int64) for each target address."""
        prefixes = addresses.astype(np.uint64) >> np.uint64(32 - PREFIX_BITS)
        return (_splitmix64(prefixes) % np.uint64(self.n_shards)).astype(np.int64)

    def split(self, flows: FlowDataset) -> list[FlowDataset]:
        """Partition flows into per-shard datasets by target address.

        A plan of one shard returns the batch itself.
        """
        if self.n_shards == 1:
            return [flows]
        ids = self.assign(flows.dst_ip)
        return [flows.select(ids == s) for s in range(self.n_shards)]
