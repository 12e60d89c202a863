"""Association rule generation on top of FP-Growth (paper §5.1.1).

Rules have the form ``A -> C`` with a single-item consequent. The two
ARM quality metrics of the paper are attached to each rule:

* antecedent support ``s`` — share of the dataset matching ``A``;
* confidence ``c`` — share of ``A``-matching transactions that also
  contain ``C``.

Rule generation considers *all* single-item consequents (like an
off-the-shelf ARM toolchain would); the first minimisation step then
keeps only rules whose consequent is the blackhole class item,
reproducing the paper's 7859 -> 1469 -> 367 funnel shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro import obs
from repro.obs import names as metric_names
from repro.core.rules.items import (
    Item,
    ItemEncoder,
    LABEL_BLACKHOLE,
    canonical_antecedent,
)
from repro.core.rules.itemsets import fp_growth, total_weight
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


def generate_rules(
    itemsets: dict[frozenset[Item], int],
    total: int,
    min_confidence: float,
) -> list[AssociationRule]:
    """Derive association rules from frequent itemsets.

    For every frequent itemset of size >= 2 and every item in it, a rule
    ``itemset - {item} -> item`` is emitted when its confidence reaches
    ``min_confidence`` and the antecedent itself is frequent (it always
    is, by downward closure, as long as it was mined).
    """
    if total <= 0:
        return []
    rules: list[AssociationRule] = []
    for itemset, joint_count in itemsets.items():
        if len(itemset) < 2:
            continue
        for consequent in itemset:
            antecedent = frozenset(itemset - {consequent})
            antecedent_count = itemsets.get(antecedent)
            if antecedent_count is None or antecedent_count == 0:
                continue
            confidence = joint_count / antecedent_count
            if confidence >= min_confidence:
                rules.append(
                    AssociationRule(
                        antecedent=antecedent,
                        consequent=consequent,
                        confidence=confidence,
                        support=antecedent_count / total,
                        joint_support=joint_count / total,
                    )
                )
    item_repr = functools.cache(repr)  # each item spelled once per run, not once per rule
    rules.sort(
        key=lambda r: (-r.confidence, -r.support, canonical_antecedent(r.antecedent, item_repr))
    )
    return rules


def filter_blackhole_rules(rules: list[AssociationRule]) -> list[AssociationRule]:
    """Minimisation step (i): drop rules whose consequent isn't blackhole."""
    return [r for r in rules if r.is_blackhole_rule]


@dataclass(frozen=True)
class MiningResult:
    """Everything produced by one mining run."""

    encoder: ItemEncoder
    all_rules: list[AssociationRule]
    blackhole_rules: list[AssociationRule]
    n_transactions: int
    n_frequent_itemsets: int


def mine_rules(
    flows: FlowDataset,
    min_support: float = 0.0005,
    min_confidence: float = 0.8,
    encoder: ItemEncoder | None = None,
) -> MiningResult:
    """Run the full mining pipeline on a balanced, labeled flow dataset."""
    with obs.span(metric_names.SPAN_RULES_MINE):
        if encoder is None:
            encoder = ItemEncoder.fit(flows)
        transactions = encoder.transactions(flows)
        total = total_weight(transactions)
        itemsets = fp_growth(transactions, min_support=min_support)
        rules = generate_rules(itemsets, total, min_confidence=min_confidence)
        result = MiningResult(
            encoder=encoder,
            all_rules=rules,
            blackhole_rules=filter_blackhole_rules(rules),
            n_transactions=total,
            n_frequent_itemsets=len(itemsets),
        )
    obs.counter(metric_names.C_RULES_TRANSACTIONS).inc(total)
    obs.counter(metric_names.C_RULES_DISTINCT_TRANSACTIONS).inc(len(transactions))
    obs.counter(metric_names.C_RULES_FREQUENT_ITEMSETS).inc(len(itemsets))
    obs.counter(metric_names.C_RULES_GENERATED).inc(len(rules))
    obs.counter(metric_names.C_RULES_BLACKHOLE).inc(len(result.blackhole_rules))
    return result
