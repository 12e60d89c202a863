"""Experiment E-R1: the rule-mining funnel (paper §5.1.1).

Reproduces the three-stage reduction the paper reports: FP-Growth with
min confidence 0.8 yields thousands of association rules; dropping
non-blackhole consequents leaves a fraction; Algorithm 1 minimisation
reduces that to a manageable curated set (paper: 7859 -> 1469 -> 367).
Absolute counts scale with corpus size; the *funnel shape* (large ->
medium -> small, each stage a significant reduction) is the target.
"""

from __future__ import annotations

from repro.core.rules.minimize import minimize_rules
from repro.core.rules.mining import mine_rules
from repro.experiments.common import ExperimentResult, check_scale
from repro.experiments.datasets import DAYS_BY_SCALE, balanced_corpus
from repro.ixp.profiles import ALL_PROFILES
from repro.netflow.dataset import FlowDataset


def run(scale: str = "small") -> ExperimentResult:
    check_scale(scale)
    n_days = DAYS_BY_SCALE[scale]
    flows = FlowDataset.concat(
        [balanced_corpus(p, n_days).flows for p in ALL_PROFILES]
    )
    mining = mine_rules(flows, min_confidence=0.8)
    minimized = minimize_rules(mining.blackhole_rules)

    result = ExperimentResult(experiment="rule-mining-funnel")
    result.rows = [
        {"stage": "fp-growth rules (c >= 0.8)", "rules": mining.n_rules},
        {"stage": "blackhole-consequent only", "rules": len(mining.blackhole_rules)},
        {"stage": "after Algorithm 1 (Lc=Ls=0.01)", "rules": len(minimized)},
    ]
    result.notes["n_transactions"] = mining.n_transactions
    result.notes["n_frequent_itemsets"] = mining.n_frequent_itemsets
    result.notes["stage1_reduction"] = (
        1.0 - len(mining.blackhole_rules) / max(mining.n_rules, 1)
    )
    result.notes["stage2_reduction"] = (
        1.0 - len(minimized) / max(len(mining.blackhole_rules), 1)
    )
    return result
