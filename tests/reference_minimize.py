"""The pairwise scan ``minimize_rules`` must equal.

This is Algorithm 1 of the paper (§5.1.1) as first written down here:
every round compares every ordered pair of remaining rules, O(n²)
subset tests per round. It lives in the test tree as the oracle for
``repro.core.rules.minimize.minimize_rules``, which finds the same
pairs through an item index.
"""

from __future__ import annotations

from repro.core.rules.mining import AssociationRule


def reference_minimize(
    rules: list[AssociationRule],
    confidence_loss: float = 0.01,
    support_loss: float = 0.01,
) -> list[AssociationRule]:
    if confidence_loss < 0 or support_loss < 0:
        raise ValueError("loss thresholds must be non-negative")
    remaining = list(rules)
    while True:
        to_delete: set[int] = set()
        n = len(remaining)
        for i in range(n):
            if i in to_delete:
                continue
            rule_i = remaining[i]
            for j in range(n):
                if i == j or j in to_delete:
                    continue
                rule_j = remaining[j]
                if rule_i.antecedent < rule_j.antecedent:
                    if (
                        rule_i.confidence - rule_j.confidence < confidence_loss
                        and rule_i.support - rule_j.support < support_loss
                    ):
                        to_delete.add(i)
                        break
        if not to_delete:
            break
        remaining = [r for k, r in enumerate(remaining) if k not in to_delete]
    return remaining
