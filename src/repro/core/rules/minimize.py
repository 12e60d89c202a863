"""Rule-set minimisation — Algorithm 1 of the paper (§5.1.1).

Two rules whose antecedents are in a proper-subset relation (and share
the blackhole consequent) are largely redundant. Algorithm 1 compares
each such pair: the more general rule ``i`` (``A_i ⊂ A_j``) is removed
when its confidence and support advantage over the more specific rule
``j`` stays below the loss thresholds ``L_c`` / ``L_s`` — deleting it
loses almost nothing, and the surviving specific rule makes the more
precise ACL.

The paper sets ``L_c = L_s = 0.01`` after the sensitivity analysis of
Appendix A (reproduced in ``repro.experiments.fig15_sensitivity``).

One liberty is taken with the paper's pseudocode: line 9 reads
``D ← {i}`` (assignment), which would only ever delete one rule per
round; we accumulate ``D ← D ∪ {i}`` as the surrounding text clearly
intends ("remove rules from R" iterates over all of D). The pseudocode
as a pairwise scan, repeated until nothing changes, is the test oracle
``tests/reference_minimize.py``.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.rules.items import Item
from repro.core.rules.mining import AssociationRule


def minimize_rules(
    rules: list[AssociationRule],
    confidence_loss: float = 0.01,
    support_loss: float = 0.01,
) -> list[AssociationRule]:
    """Apply Algorithm 1 to a list of association rules.

    Going down the list, rule ``i`` is deleted when some rule ``j``
    exists with ``A_i ⊂ A_j`` and ``c_i - c_j < L_c`` and
    ``s_i - s_j < L_s``; a rule that has itself been deleted by then
    justifies no further deletion.

    The rules containing every item of ``A_i`` are the intersection of
    those items' posting lists in an item → rules index: a handful of
    candidates per rule, where the pairwise scan of the paper
    ("execution time never exceeded 60 seconds") tests all n. And one
    pass is the fixed point the paper's outer loop repeats for: a later
    round would see fewer rules and never a new superset, so a rule that
    survived its turn survives every later one.
    """
    if confidence_loss < 0 or support_loss < 0:
        raise ValueError("loss thresholds must be non-negative")
    postings: dict[Item, set[int]] = defaultdict(set)
    for index, rule in enumerate(rules):
        for item in rule.antecedent:
            postings[item].add(index)
    deleted: set[int] = set()
    for index, rule in enumerate(rules):
        containing = set.intersection(*(postings[item] for item in rule.antecedent))
        if any(
            len(rules[j].antecedent) > len(rule.antecedent)
            and rule.confidence - rules[j].confidence < confidence_loss
            and rule.support - rules[j].support < support_loss
            for j in containing - deleted
        ):
            deleted.add(index)
    return [rule for index, rule in enumerate(rules) if index not in deleted]
