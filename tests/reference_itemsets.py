"""FP-Growth and the dict-walking rule generation ``mine_rules`` must equal.

The paper mines tagging-rule candidates with FP-Growth (Han, Pei, Yin,
SIGMOD 2000; [33], §5.1.1) and derives ``A -> C`` rules from the
frequent itemsets. This is that pipeline as first written down here: a
from-scratch FP-Growth over weighted transactions (recursive
``_FPNode`` trees), ``generate_rules`` walking the itemset dict with
one frozen dataclass per rule of any consequent, and
``filter_blackhole_rules`` as minimisation step (i). It lives in the
test tree as the oracle for ``repro.core.rules.itemsets.itemset_cube``
and ``repro.core.rules.mining.mine_rules``, which count the same
itemsets and rules as a group-by over integer item codes and build
only the blackhole rules.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Hashable, Iterable, Optional

from repro.core.rules.items import ItemEncoder, canonical_antecedent
from repro.core.rules.mining import AssociationRule
from repro.netflow.dataset import FlowDataset

Item = Hashable
Transaction = tuple[Item, ...]


class _FPNode:
    __slots__ = ("item", "count", "parent", "children", "link")

    def __init__(self, item: Optional[Item], parent: Optional["_FPNode"]):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[Item, _FPNode] = {}
        self.link: Optional[_FPNode] = None


class _FPTree:
    """Prefix tree over frequency-ordered transactions."""

    def __init__(self) -> None:
        self.root = _FPNode(None, None)
        self.header: dict[Item, _FPNode] = {}
        self.counts: dict[Item, int] = defaultdict(int)

    def insert(self, items: Iterable[Item], weight: int) -> None:
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _FPNode(item, node)
                node.children[item] = child
                # Prepend to the header link chain for this item.
                child.link = self.header.get(item)
                self.header[item] = child
            child.count += weight
            self.counts[item] += weight
            node = child

    def node_chain(self, item: Item) -> list[_FPNode]:
        nodes = []
        node = self.header.get(item)
        while node is not None:
            nodes.append(node)
            node = node.link
        return nodes

    def prefix_paths(self, item: Item) -> list[tuple[list[Item], int]]:
        """Conditional pattern base for ``item``: (path, count) pairs."""
        paths = []
        for node in self.node_chain(item):
            path: list[Item] = []
            parent = node.parent
            while parent is not None and parent.item is not None:
                path.append(parent.item)
                parent = parent.parent
            path.reverse()
            if path:
                paths.append((path, node.count))
        return paths

    @property
    def is_empty(self) -> bool:
        return not self.root.children


def _build_tree(
    weighted: list[tuple[Transaction, int]], min_count: int
) -> _FPTree:
    frequency: dict[Item, int] = defaultdict(int)
    for items, weight in weighted:
        for item in set(items):
            frequency[item] += weight
    frequent = {i for i, c in frequency.items() if c >= min_count}

    tree = _FPTree()
    for items, weight in weighted:
        filtered = [i for i in set(items) if i in frequent]
        # Order by global frequency desc, ties broken deterministically.
        filtered.sort(key=lambda i: (-frequency[i], repr(i)))
        if filtered:
            tree.insert(filtered, weight)
    return tree


def _mine(
    tree: _FPTree,
    suffix: frozenset[Item],
    min_count: int,
    out: dict[frozenset[Item], int],
    max_len: Optional[int],
) -> None:
    # Iterate items from least to most frequent (standard FP-Growth order).
    items = sorted(tree.counts, key=lambda i: (tree.counts[i], repr(i)))
    for item in items:
        support = tree.counts[item]
        if support < min_count:
            continue
        itemset = suffix | {item}
        out[frozenset(itemset)] = support
        if max_len is not None and len(itemset) >= max_len:
            continue
        conditional = _build_tree(
            [(tuple(path), count) for path, count in tree.prefix_paths(item)],
            min_count,
        )
        if not conditional.is_empty:
            _mine(conditional, frozenset(itemset), min_count, out, max_len)


def fp_growth(
    transactions: list[tuple[Transaction, int]],
    min_support: float,
    max_len: Optional[int] = None,
) -> dict[frozenset[Item], int]:
    """Mine frequent itemsets from weighted transactions.

    Parameters
    ----------
    transactions:
        (transaction, weight) pairs; see
        :meth:`repro.core.rules.items.ItemEncoder.transactions`.
    min_support:
        Minimum support as a fraction of the total transaction weight.
    max_len:
        Optional cap on itemset size.

    Returns
    -------
    dict mapping each frequent itemset (frozenset) to its absolute
    support count.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must be in (0, 1]")
    total = sum(weight for _, weight in transactions)
    if total == 0:
        return {}
    min_count = max(1, int(min_support * total + 0.5))
    tree = _build_tree(transactions, min_count)
    out: dict[frozenset[Item], int] = {}
    if not tree.is_empty:
        _mine(tree, frozenset(), min_count, out, max_len)
    return out


def total_weight(transactions: list[tuple[Transaction, int]]) -> int:
    """Sum of transaction weights (the dataset size for support ratios)."""
    return sum(weight for _, weight in transactions)


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


def reference_mine(
    flows: FlowDataset,
    min_support: float = 0.0005,
    min_confidence: float = 0.8,
    encoder: Optional[ItemEncoder] = None,
) -> tuple[list[AssociationRule], int, int]:
    """(blackhole rules, rules of any consequent, frequent itemsets): the
    oracle pipeline end to end, as ``mine_rules`` ran it."""
    if encoder is None:
        encoder = ItemEncoder.fit(flows)
    transactions = encoder.transactions(flows)
    itemsets = fp_growth(transactions, min_support=min_support)
    rules = generate_rules(itemsets, total_weight(transactions), min_confidence=min_confidence)
    return filter_blackhole_rules(rules), len(rules), len(itemsets)
