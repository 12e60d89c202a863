"""Frequent itemsets as a group-by over attribute subsets (paper §5.1.1).

The paper mines tagging-rule candidates with FP-Growth [33]. A flow's
transaction holds at most one item per attribute (protocol, the two
ports, the size bin, the class), so an itemset is an attribute subset
plus one value for each of its attributes, and its support is a
group-by count: the frequent itemsets are the cells of an iceberg cube
over the integer item codes of the *distinct* transactions. One
``np.unique`` per attribute subset counts them all; nothing is built
per itemset. FP-Growth itself is the test oracle
(``tests/reference_itemsets.py``): same itemsets, same supports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rules.items import ItemColumn


@dataclass(frozen=True)
class ItemsetTable:
    """Every itemset over one attribute subset that some transaction contains."""

    #: Per transaction: the index of its itemset in this table, -1 when
    #: it carries no item of one of the subset's attributes.
    group: np.ndarray
    #: Per itemset: its support count, the summed weight of the
    #: transactions containing it.
    count: np.ndarray
    #: Per itemset: one transaction containing it (the itemset's items
    #: are that transaction's, on the subset's attributes).
    first: np.ndarray


def itemset_cube(columns: list[ItemColumn], weights: np.ndarray) -> dict[int, ItemsetTable]:
    """Support counts of all itemsets of weighted transactions.

    ``columns`` are the transactions' attributes (see
    :meth:`repro.core.rules.items.ItemEncoder.distinct`), ``weights``
    how many flows each transaction stands for. The result maps every
    non-empty attribute subset, as a bitmask over ``columns``, to its
    :class:`ItemsetTable`; subset ``mask ^ (1 << j)`` is where the
    antecedent of a rule with consequent attribute ``j`` is looked up.
    """
    n = weights.shape[0]
    has_item = [
        np.array([item is not None for item in column.items], dtype=bool)[column.codes]
        for column in columns
    ]
    # Mixed-radix key per subset, extended one attribute at a time from
    # the subset without its lowest one (int64 has room for all five:
    # see ``ItemEncoder.distinct``).
    keys = {0: np.zeros(n, dtype=np.int64)}
    present = {0: np.ones(n, dtype=bool)}
    cube: dict[int, ItemsetTable] = {}
    for mask in range(1, 1 << len(columns)):
        lowest = mask & -mask
        j = lowest.bit_length() - 1
        keys[mask] = keys[mask ^ lowest] * len(columns[j].items) + columns[j].codes
        present[mask] = present[mask ^ lowest] & has_item[j]
        rows = np.flatnonzero(present[mask])
        _, first, inverse = np.unique(keys[mask][rows], return_index=True, return_inverse=True)
        group = np.full(n, -1, dtype=np.int64)
        group[rows] = inverse
        # Float accumulation of integer weights: exact below 2**53 flows.
        count = np.bincount(inverse, weights=weights[rows], minlength=first.shape[0])
        cube[mask] = ItemsetTable(group, count.astype(np.int64), rows[first])
    return cube
