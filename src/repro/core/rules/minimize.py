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
``tests/reference_minimize.py``; it runs here on a rule table.
"""

from __future__ import annotations

import numpy as np

from repro.core.rules.mining import AssociationRule, RuleTable


def _proper_subsets(table: RuleTable, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row pair ``(general, specific)`` with ``A_general ⊂ A_specific``.

    A choice of a row's slots (14 for the four header attributes) cuts
    a subset of its antecedent: the chosen ranks, still ascending, then
    padded. All cuts are keyed in one product, and each row finds the
    cuts of its own key in one sorted search: those of longer rows are
    its proper supersets.
    """
    n, width = table.antecedents.shape
    places = table.places()
    chosen = (np.arange(1, (1 << width) - 1)[:, None] >> np.arange(width)) & 1
    weight = np.where(chosen == 1, places[np.cumsum(chosen, axis=1) - 1], 0)
    padding = len(table.vocabulary) * (places.sum() - weight.sum(axis=1))
    cuts = (table.antecedents @ weight.T + padding).ravel()
    by, keys = np.argsort(cuts, kind="stable"), table.antecedents @ places
    low, high = (np.searchsorted(cuts[by], keys, side=side) for side in ("left", "right"))
    matches = high - low
    starts = np.repeat(low - np.cumsum(matches) + matches, matches)
    specific = by[np.arange(matches.sum()) + starts] // len(chosen)
    general = np.repeat(np.arange(n), matches)
    proper = length[general] < length[specific]
    return general[proper], specific[proper]


def minimal_rows(table: RuleTable, confidence_loss: float = 0.01, support_loss: float = 0.01) -> np.ndarray:
    """Apply Algorithm 1 to a rule table: the rows it keeps, ascending.

    Going down the table, rule ``i`` is deleted when some rule ``j``
    exists with ``A_i ⊂ A_j`` and ``c_i - c_j < L_c`` and
    ``s_i - s_j < L_s``; a rule that has itself been deleted by then
    justifies no further deletion.

    The pairs come from key joins (:func:`_proper_subsets`), where the
    pairwise scan of the paper ("execution time never exceeded 60
    seconds") tests all n x n, and the pass is made one antecedent
    length at a time. One pass is the fixed point the paper's outer loop
    repeats for: a later round would see fewer rules and never a new
    superset, so a rule that survived its turn survives every later one.
    """
    if confidence_loss < 0 or support_loss < 0:
        raise ValueError("loss thresholds must be non-negative")
    length = (table.antecedents < len(table.vocabulary)).sum(axis=1)
    general, specific = _proper_subsets(table, length)
    close = (table.confidence[general] - table.confidence[specific] < confidence_loss) & (
        table.support[general] - table.support[specific] < support_loss
    )
    general, specific = general[close], specific[close]
    deleted = np.zeros(len(table), dtype=bool)
    # Whether ``specific`` was deleted by ``general``'s turn depends on
    # longer rules only: settle the longest first.
    for size in np.unique(length[general])[::-1]:
        at = length[general] == size
        alive = (specific[at] > general[at]) | ~deleted[specific[at]]
        deleted[general[at][alive]] = True
    return np.flatnonzero(~deleted)


def minimize_rules(
    rules: list[AssociationRule],
    confidence_loss: float = 0.01,
    support_loss: float = 0.01,
) -> list[AssociationRule]:
    """:func:`minimal_rows` of a list of association rules."""
    kept = minimal_rows(RuleTable.of(rules), confidence_loss, support_loss)
    return [rules[row] for row in kept.tolist()]
