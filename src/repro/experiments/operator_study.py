"""Experiment E-OPS: operator curation study (paper §5.1.3).

Rules are mined from the self-attack set, presented to a cohort of
(simulated) operators for accept/decline curation, and each subject's
accepted set is scored against ground truth: share of attack traffic
dropped and benign traffic collaterally dropped, plus curation time.

Expected shape (paper averages): ~77 % of DDoS dropped, well under 1 %
of benign dropped, a handful of minutes for a few dozen rules.
"""

from __future__ import annotations

import numpy as np

from repro.core.rules.curation import DEFAULT_COHORT, run_study
from repro.core.rules.minimize import minimal_rows
from repro.core.rules.mining import mine_rules
from repro.core.rules.model import RuleSet, tagging_rules
from repro.experiments.common import ExperimentResult, check_scale
from repro.experiments.datasets import self_attack_corpus


def run(scale: str = "small", seed: int = 7) -> ExperimentResult:
    check_scale(scale)
    sas = self_attack_corpus(scale)
    flows = sas.flows

    # Mine on the first half of the campaign, score on the second half
    # (no leakage between rule mining and evaluation).
    midpoint = (sas.start + sas.end) // 2
    mine_flows = flows.time_slice(sas.start, midpoint)
    test_flows = flows.time_slice(midpoint, sas.end)

    mining = mine_rules(mine_flows, min_confidence=0.8)
    rule_set = RuleSet(tagging_rules(mining.table.take(minimal_rows(mining.table)), mining.encoder))

    results = run_study(rule_set, test_flows, cohort=DEFAULT_COHORT, seed=seed)
    result = ExperimentResult(experiment="operator-study")
    for r in results:
        result.rows.append(
            {
                "operator": r.operator,
                "attack_dropped_pct": 100.0 * r.attack_dropped,
                "benign_dropped_pct": 100.0 * r.benign_dropped,
                "minutes": r.minutes,
                "rules_accepted": r.n_accepted,
            }
        )
    result.notes["n_rules_presented"] = len(rule_set)
    result.notes["avg_attack_dropped_pct"] = float(
        np.mean([r.attack_dropped for r in results]) * 100.0
    )
    result.notes["avg_benign_dropped_pct"] = float(
        np.mean([r.benign_dropped for r in results]) * 100.0
    )
    result.notes["avg_minutes"] = float(np.mean([r.minutes for r in results]))
    return result
