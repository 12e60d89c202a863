"""Association rules from the frequent itemsets (paper §5.1.1).

Rules have the form ``A -> C`` with a single-item consequent. The two
ARM quality metrics of the paper are attached to each rule:

* antecedent support ``s`` — share of the dataset matching ``A``;
* confidence ``c`` — share of ``A``-matching transactions that also
  contain ``C``.

Rule generation considers *all* single-item consequents (like an
off-the-shelf ARM toolchain would); the first minimisation step then
keeps only rules whose consequent is the blackhole class item,
reproducing the paper's 7859 -> 1469 -> 367 funnel shape. Both steps
run on the integer tables of :mod:`repro.core.rules.itemsets`: every
confident rule is counted, only the blackhole ones — all that anything
downstream reads — are built as :class:`AssociationRule` objects. The
dict-walking ``generate_rules`` + ``filter_blackhole_rules`` pipeline
over FP-Growth's output is the oracle, ``tests/reference_itemsets.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.obs import names as metric_names
from repro.core.rules.items import (
    HeaderTable,
    Item,
    ItemColumn,
    ItemEncoder,
    LABEL_BLACKHOLE,
    as_headers,
    canonical_antecedent,
)
from repro.core.rules.itemsets import itemset_cube
from repro.netflow.dataset import FlowDataset


@dataclass(frozen=True)
class AssociationRule:
    """One mined rule ``antecedent -> consequent``."""

    antecedent: frozenset[Item]
    consequent: Item
    confidence: float
    #: Antecedent support as a share of the dataset.
    support: float
    #: Joint support of antecedent + consequent (share of the dataset).
    joint_support: float

    def __post_init__(self) -> None:
        if not self.antecedent:
            raise ValueError("rule needs a non-empty antecedent")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence out of [0, 1]")

    @property
    def is_blackhole_rule(self) -> bool:
        """True if the consequent is the blackhole class item."""
        return self.consequent == LABEL_BLACKHOLE

    def describe(self) -> str:
        items = ", ".join(f"{a}={v}" for a, v in sorted(self.antecedent, key=repr))
        return (
            f"{{{items}}} -> {self.consequent[0]}={self.consequent[1]} "
            f"(c={self.confidence:.3f}, s={self.support:.5f})"
        )


def _confident_rules(
    columns: list[ItemColumn],
    weights: np.ndarray,
    min_support: float,
    min_confidence: float,
) -> tuple[int, int, list[AssociationRule]]:
    """(frequent itemsets, confident rules, the blackhole rules among
    them, best first) of weighted transactions.

    For every frequent itemset of size >= 2 and every item in it, the
    rule ``itemset - {item} -> item`` counts when its confidence reaches
    ``min_confidence``; its antecedent is frequent by downward closure,
    and found through the transaction that represents the itemset.
    """
    cube = itemset_cube(columns, weights)
    total = int(weights.sum())
    min_count = max(1, int(min_support * total + 0.5))
    label = len(columns) - 1  # the class item's column is the last
    blackhole = columns[label].items.index(LABEL_BLACKHOLE)
    n_itemsets = n_rules = 0
    rules: list[AssociationRule] = []
    for mask, table in cube.items():
        frequent = np.flatnonzero(table.count >= min_count)
        n_itemsets += frequent.shape[0]
        joint = table.count[frequent]
        first = table.first[frequent]
        for j in range(len(columns)):
            rest = mask ^ (1 << j)
            if not mask >> j & 1 or not rest:
                continue
            antecedent_count = cube[rest].count[cube[rest].group[first]]
            confidence = joint / antecedent_count
            confident = confidence >= min_confidence
            n_rules += int(confident.sum())
            if j != label:
                continue
            keep = np.flatnonzero(confident & (columns[label].codes[first] == blackhole))
            antecedents = zip(*(
                [column.items[code] for code in column.codes[first[keep]].tolist()]
                for i, column in enumerate(columns)
                if rest >> i & 1
            ))
            rules += [
                AssociationRule(
                    antecedent=frozenset(antecedent),
                    consequent=LABEL_BLACKHOLE,
                    confidence=c,
                    support=a / total,
                    joint_support=ac / total,
                )
                for antecedent, c, a, ac in zip(
                    antecedents,
                    confidence[keep].tolist(),
                    antecedent_count[keep].tolist(),
                    joint[keep].tolist(),
                )
            ]
    item_repr = functools.cache(repr)  # each item spelled once per run, not once per rule
    rules.sort(
        key=lambda r: (-r.confidence, -r.support, canonical_antecedent(r.antecedent, item_repr))
    )
    return n_itemsets, n_rules, rules


@dataclass(frozen=True)
class MiningResult:
    """Everything produced by one mining run."""

    encoder: ItemEncoder
    #: Minimisation step (i) applied: the rules whose consequent is the
    #: blackhole class item, by confidence, support, antecedent.
    blackhole_rules: list[AssociationRule]
    #: Rules of any consequent that reached ``min_confidence``.
    n_rules: int
    n_transactions: int
    n_frequent_itemsets: int


def mine_rules(
    flows: FlowDataset | HeaderTable,
    min_support: float = 0.0005,
    min_confidence: float = 0.8,
    encoder: ItemEncoder | None = None,
) -> MiningResult:
    """Run the full mining pipeline on a balanced, labeled flow dataset,
    or on its :class:`HeaderTable`: the result is the same."""
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must be in (0, 1]")
    with obs.span(metric_names.SPAN_RULES_MINE):
        headers = as_headers(flows)
        if encoder is None:
            encoder = ItemEncoder.fit(headers)
        columns, weights = encoder.distinct(headers)
        total = headers.n_flows
        n_itemsets, n_rules, rules = _confident_rules(columns, weights, min_support, min_confidence)
        result = MiningResult(
            encoder=encoder,
            blackhole_rules=rules,
            n_rules=n_rules,
            n_transactions=total,
            n_frequent_itemsets=n_itemsets,
        )
    obs.counter(metric_names.C_RULES_TRANSACTIONS).inc(total)
    obs.counter(metric_names.C_RULES_DISTINCT_TRANSACTIONS).inc(weights.shape[0])
    obs.counter(metric_names.C_RULES_FREQUENT_ITEMSETS).inc(n_itemsets)
    obs.counter(metric_names.C_RULES_GENERATED).inc(n_rules)
    obs.counter(metric_names.C_RULES_BLACKHOLE).inc(len(rules))
    return result
