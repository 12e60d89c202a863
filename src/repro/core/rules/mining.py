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
run on the integer cube of :mod:`repro.core.rules.itemsets`: every
confident rule is counted in one gather, and the blackhole ones — all
that anything downstream reads — stay integer columns, a
:class:`RuleTable`, through minimisation; rule objects are made on
request. The dict-walking ``generate_rules`` + ``filter_blackhole_rules``
over FP-Growth's output is the oracle, ``tests/reference_itemsets.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
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


@dataclass(frozen=True)
class RuleTable:
    """Blackhole rules as integer columns, one row per rule.

    An antecedent is a row of ranks into ``vocabulary``, the items sorted
    by ``repr``: ascending, padded with ``len(vocabulary)``. As digits, a
    row is the rule's key, and keys sort as the antecedents' spellings
    ``repr(sorted(antecedent, key=repr))`` do, for the pad sorts after
    every rank as ``]`` sorts after ``,``: an antecedent comes *after* a
    longer one that starts with it.
    """

    vocabulary: tuple[Item, ...]
    #: ``(rules, width)`` ranks; width is the longest antecedent.
    antecedents: np.ndarray
    confidence: np.ndarray
    support: np.ndarray
    joint_support: np.ndarray

    @classmethod
    def of(cls, rules: Sequence[AssociationRule]) -> "RuleTable":
        """The rules' table, in list order."""
        vocabulary = sorted({item for rule in rules for item in rule.antecedent}, key=repr)
        rank = {item: r for r, item in enumerate(vocabulary)}
        width = max((len(rule.antecedent) for rule in rules), default=0)
        antecedents = np.full((len(rules), width), len(vocabulary), dtype=np.int64)
        for row, rule in zip(antecedents, rules):
            row[: len(rule.antecedent)] = sorted(rank[item] for item in rule.antecedent)
        names = ("confidence", "support", "joint_support")
        metrics = (np.array([float(getattr(rule, name)) for rule in rules]) for name in names)
        return cls(tuple(vocabulary), antecedents, *metrics)

    def __len__(self) -> int:
        return self.antecedents.shape[0]

    def take(self, rows: np.ndarray) -> "RuleTable":
        """These rows, in this order."""
        columns = (self.antecedents, self.confidence, self.support, self.joint_support)
        return RuleTable(self.vocabulary, *(column[rows] for column in columns))

    def places(self) -> np.ndarray:
        """The place value of each antecedent slot in a key."""
        base, width = len(self.vocabulary) + 1, self.antecedents.shape[1]
        if base**width > np.iinfo(np.int64).max:
            raise ValueError(f"{base - 1} items in antecedents of {width}: keys overflow int64")
        return base ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _header_table(columns: list[ItemColumn], codes: np.ndarray, *metrics: np.ndarray) -> RuleTable:
    """The rules whose antecedents are ``codes`` over the header
    ``columns`` (code ``len(items)``: no item of that column)."""
    # Codes made one index into the columns' items, each followed by None.
    items = [item for column in columns for item in (*column.items, None)]
    index = codes + np.cumsum([0] + [len(column.items) + 1 for column in columns[:-1]])
    used = [(items[i], i) for i in np.unique(index).tolist() if items[i] is not None]
    used.sort(key=lambda entry: repr(entry[0]))
    rank = np.full(len(items), len(used), dtype=np.int64)
    rank[[i for _, i in used]] = np.arange(len(used))
    return RuleTable(tuple(item for item, _ in used), np.sort(rank[index], axis=1), *metrics)


def _confident_rules(
    columns: list[ItemColumn], weights: np.ndarray, min_support: float, min_confidence: float
) -> tuple[int, int, RuleTable]:
    """(frequent itemsets, confident rules, the blackhole rules among
    them, best first) of weighted transactions.

    For every frequent itemset of size >= 2 and every item in it, the
    rule ``itemset - {item} -> item`` counts when its confidence reaches
    ``min_confidence``; its antecedent is frequent by downward closure,
    and all of them are looked up in one gather.
    """
    cube = itemset_cube(columns, weights)
    total = int(weights.sum())
    min_count = max(1, int(min_support * total + 0.5))
    label = len(columns) - 1  # the class item's column is the last
    blackhole = columns[label].items.index(LABEL_BLACKHOLE)
    frequent = cube.count >= min_count
    key, joint = cube.key[frequent], cube.count[frequent]
    digits = cube.digits(key)
    has = digits < cube.absent
    # By consequent, then by key: near-sorted lookups, which search fastest.
    consequent, itemset = np.nonzero((has & (has.sum(axis=1) >= 2)[:, None]).T)
    dropped = (cube.absent[consequent] - digits[itemset, consequent]) * cube.stride[consequent]
    antecedent = cube.count[np.searchsorted(cube.key, key[itemset] + dropped)]
    confidence = joint[itemset] / antecedent
    confident = confidence >= min_confidence
    keep = np.flatnonzero(confident & (consequent == label) & (digits[itemset, label] == blackhole))
    rows = itemset[keep]
    metrics = (confidence[keep], antecedent[keep] / total, joint[rows] / total)
    table = _header_table(columns[:label], digits[rows, :label], *metrics)
    order = np.lexsort((table.antecedents @ table.places(), -table.support, -table.confidence))
    return int(frequent.sum()), int(np.count_nonzero(confident)), table.take(order)


@dataclass(frozen=True)
class MiningResult:
    """Everything produced by one mining run."""

    encoder: ItemEncoder
    #: Minimisation step (i) applied: the rules whose consequent is the
    #: blackhole class item, by confidence, support, antecedent.
    table: RuleTable
    #: Rules of any consequent that reached ``min_confidence``.
    n_rules: int
    n_transactions: int
    n_frequent_itemsets: int

    @property
    def blackhole_rules(self) -> list[AssociationRule]:
        """:attr:`table` as rule objects."""
        table, pad = self.table, len(self.table.vocabulary)
        columns = (table.antecedents, table.confidence, table.support, table.joint_support)
        return [
            AssociationRule(frozenset(table.vocabulary[r] for r in row if r < pad), LABEL_BLACKHOLE, *metrics)
            for row, *metrics in zip(*(column.tolist() for column in columns))
        ]


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
        n_itemsets, n_rules, table = _confident_rules(columns, weights, min_support, min_confidence)
        result = MiningResult(
            encoder=encoder,
            table=table,
            n_rules=n_rules,
            n_transactions=total,
            n_frequent_itemsets=n_itemsets,
        )
    obs.counter(metric_names.C_RULES_TRANSACTIONS).inc(total)
    obs.counter(metric_names.C_RULES_DISTINCT_TRANSACTIONS).inc(weights.shape[0])
    obs.counter(metric_names.C_RULES_FREQUENT_ITEMSETS).inc(n_itemsets)
    obs.counter(metric_names.C_RULES_GENERATED).inc(n_rules)
    obs.counter(metric_names.C_RULES_BLACKHOLE).inc(len(table))
    return result
