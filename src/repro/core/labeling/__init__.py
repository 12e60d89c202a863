"""Step 0: crowdsourced labeling and dataset balancing (paper §3)."""

from repro.core.labeling.balancer import BalanceReport, BalancedDataset, balance

__all__ = ["BalanceReport", "BalancedDataset", "balance"]
