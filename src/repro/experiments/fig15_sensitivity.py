"""Experiment E-F15: rule-minimisation sensitivity (paper Appendix A).

Runs Algorithm 1 over a grid of confidence-loss / support-loss settings
and reports the surviving rule count per cell. Expected shape: counts
drop as the thresholds grow; beyond Lc = Ls = 0.01 further increases
barely reduce the set (the paper's justification for choosing 0.01).
"""

from __future__ import annotations

from repro.core.rules.minimize import minimal_rows
from repro.core.rules.mining import mine_rules
from repro.experiments.common import ExperimentResult, check_scale
from repro.experiments.datasets import DAYS_BY_SCALE, balanced_corpus
from repro.ixp.profiles import ALL_PROFILES
from repro.netflow.dataset import FlowDataset

#: The Lc/Ls grid of Fig. 15.
GRID = (0.0001, 0.001, 0.01, 0.1)


def run(scale: str = "small") -> ExperimentResult:
    check_scale(scale)
    n_days = DAYS_BY_SCALE[scale]
    flows = FlowDataset.concat(
        [balanced_corpus(p, n_days).flows for p in ALL_PROFILES]
    )
    mining = mine_rules(flows, min_confidence=0.8)

    result = ExperimentResult(experiment="fig15-sensitivity")
    counts: dict[tuple[float, float], int] = {}
    for lc in GRID:
        for ls in GRID:
            remaining = minimal_rows(mining.table, confidence_loss=lc, support_loss=ls)
            counts[(lc, ls)] = len(remaining)
            result.rows.append(
                {"Lc": lc, "Ls": ls, "remaining_rules": len(remaining)}
            )

    result.notes["input_rules"] = len(mining.table)
    result.notes["rules_at_0.01_0.01"] = counts[(0.01, 0.01)]
    result.notes["rules_at_0.1_0.1"] = counts[(0.1, 0.1)]
    # The paper's argument: going beyond 0.01 saves few rules.
    saved = counts[(0.01, 0.01)] - counts[(0.1, 0.1)]
    result.notes["extra_rules_removed_beyond_0.01"] = saved
    return result
