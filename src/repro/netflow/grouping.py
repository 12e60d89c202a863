"""Linear-time stable sorting and grouping of flow columns.

Two helpers every per-group loop over a flow stream shares: a radix
:func:`stable_argsort`, and :func:`group_rows`, which groups rows by an
integer key with one such sort and returns the bounds of each group, so
a caller takes one slice per group instead of building one full-length
mask per group.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["stable_argsort", "group_rows"]

_SIGN_BIT = np.int64(-1 << 63)


def _ordinals(values: np.ndarray) -> np.ndarray:
    """uint64 keys that sort like ``values``: integers as the int64 they
    cast to, float64 as numbers (NaN-free; -0.0 equals 0.0)."""
    if values.dtype.kind == "f":
        bits = (values + 0.0).view(np.int64)
        return (bits ^ ((bits >> 63) | _SIGN_BIT)).view(np.uint64)
    return (values.astype(np.int64) ^ _SIGN_BIT).view(np.uint64)


def stable_argsort(*columns: np.ndarray) -> np.ndarray:
    """Stable argsort by ``columns``, the last the most significant.

    It is ``np.lexsort`` without its merge sorts: numpy's stable sort of
    16-bit integers is a radix sort (25 µs for 5000 keys; a merge sort
    of float64 takes 300), so sort digit by digit, least significant
    first, skipping digits equal in every key (a port has one that
    varies, the bin of a one-bin batch none, a day's timestamps two).

    Callers: both aggregation kernels (``core.features.aggregation``,
    and ``core.features.sketches``, which admits candidates and orders
    their segments), :meth:`FlowDataset.sort_by_time
    <repro.netflow.dataset.FlowDataset.sort_by_time>` and
    :func:`group_rows`.
    """
    order = None
    for key in map(_ordinals, columns):
        varying = int(np.bitwise_or.reduce(key) ^ np.bitwise_and.reduce(key))
        digits = key.astype("<u8", copy=False).view("<u2").reshape(-1, 4)
        for d in range(4):
            if (varying >> 16 * d) & 0xFFFF:
                if order is None:
                    order = np.argsort(digits[:, d], kind="stable")
                else:
                    order = order.take(np.argsort(digits[:, d].take(order), kind="stable"))
    return np.arange(columns[0].shape[0]) if order is None else order


def group_rows(key: np.ndarray) -> tuple[Optional[np.ndarray], list[tuple[int, int, int]]]:
    """Group rows by the integer ``key``: one stable sort, then slices.

    Returns ``(order, groups)``, one ``(k, lo, hi)`` group per distinct
    key ``k``, ascending: its rows are ``order[lo:hi]``, in their
    original order. ``order`` is None when ``key`` is non-decreasing
    already (constant, or a time-sorted stream's): nothing is sorted,
    and the group's rows are the contiguous ``lo:hi``.

    Callers: the benign generator (per service class), the chunker
    ``iter_chunks`` (per chunk), the streaming engine's multi-bin ingest
    and the offline balancer (per bin).
    """
    order, ordered = None, key
    cuts = np.flatnonzero(key[1:] != key[:-1])
    if cuts.size and not np.all(key[1:] >= key[:-1]):
        order = stable_argsort(key)
        ordered = key.take(order)
        cuts = np.flatnonzero(ordered[1:] != ordered[:-1])
    starts = [0, *(cuts + 1).tolist()] if key.shape[0] else []
    return order, list(zip(ordered[starts].tolist(), starts, [*starts[1:], key.shape[0]]))
