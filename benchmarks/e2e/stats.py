"""Sample statistics and the comparison rule of the benchmark.

Kept apart from the harness so the rules can be unit-tested without
running an engine: which percentile a sample supports, how spread is
measured (quartile distance over median, as the driver does), and when
two sets of runs count as improved, regressed, unchanged or unresolved.
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def supports_percentile(q: float, n: int) -> bool:
    """True when ``n`` samples leave at least ten beyond percentile ``q``."""
    return n * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worsening(parent: float, change: float, better: str) -> float:
    """By what share of ``parent`` the value ``change`` is worse (< 0: better)."""
    if not parent:
        return 0.0
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def judge(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """Compare two sets of runs of one metric on one workload.

    ``improved``: the change wins at least nine tenths of the pairs
    (ties count for neither) and the medians differ by more than the
    distance between the parent's quartiles. ``regressed``: the change's
    median is worse than the parent's by more than ``bound``.
    ``unresolved``: neither, but a set spreads wider than ``bound`` and
    the change is not better on every run. Otherwise ``unchanged``.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    gap = sign * (p_med - c_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > (p_q3 - p_q1):
        return "improved"
    if worsening(p_med, c_med, better) > bound:
        return "regressed"
    all_better = min(sign * (p - c) for p in parent for c in change) > 0
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    return "unchanged"
