"""Frequent itemsets as a group-by over attribute subsets (paper §5.1.1).

The paper mines tagging-rule candidates with FP-Growth [33]. A flow's
transaction holds at most one item per attribute (protocol, the two
ports, the size bin, the class), so an itemset is an attribute subset
plus one value for each of its attributes, and its support is a
group-by count: the frequent itemsets are the cells of an iceberg cube
over the integer item codes of the *distinct* transactions. Every
transaction is keyed once per attribute subset, all 31 subsets into one
stacked array, and one ``np.unique`` plus one ``bincount`` count them
all; nothing is built per itemset. FP-Growth itself is the test oracle
(``tests/reference_itemsets.py``): same itemsets, same supports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rules.items import ItemColumn


@dataclass(frozen=True)
class ItemsetCube:
    """Every itemset that some transaction contains, and its support.

    An itemset is one mixed-radix key: the digit of column ``j`` is the
    code of the itemset's item of that column, or ``absent[j]`` (the
    column's number of items) when it has none.
    """

    #: Per itemset, ascending: its key.
    key: np.ndarray
    #: Per itemset: its support count, the summed weight of the
    #: transactions containing it.
    count: np.ndarray
    #: Per column: the place value of its digit.
    stride: np.ndarray
    #: Per column: the digit of "no item of this column".
    absent: np.ndarray

    def digits(self, key: np.ndarray) -> np.ndarray:
        """The ``(len(key), columns)`` item codes of itemset keys."""
        return key[:, None] // self.stride % (self.absent + 1)


def itemset_cube(columns: list[ItemColumn], weights: np.ndarray) -> ItemsetCube:
    """Support counts of all itemsets of weighted transactions.

    ``columns`` are the transactions' attributes (see
    :meth:`repro.core.rules.items.ItemEncoder.distinct`), ``weights``
    how many flows each transaction stands for. The antecedent of a rule
    with consequent column ``j`` is its itemset's key with digit ``j``
    set to ``absent[j]`` (int64 has room for all five columns: see
    ``ItemEncoder.distinct``).
    """
    absent = np.array([len(column.items) for column in columns], dtype=np.int64)
    stride = np.cumprod(np.concatenate(([1], absent[:-1] + 1)))
    codes = np.stack([column.codes for column in columns], axis=1).astype(np.int64)
    lacks = [np.array([item is None for item in column.items], dtype=bool)[column.codes] for column in columns]
    # One row per non-empty attribute subset: its bitmask over columns.
    subsets = (np.arange(1, 1 << len(columns))[:, None] >> np.arange(len(columns))) & 1
    keys = absent @ stride + subsets @ ((codes - absent) * stride).T
    carried = subsets @ np.stack(lacks) == 0
    unique, inverse = np.unique(keys[carried], return_inverse=True)
    # Float accumulation of integer weights: exact below 2**53 flows.
    count = np.bincount(inverse, np.broadcast_to(weights, keys.shape)[carried], unique.shape[0])
    return ItemsetCube(unique, count.astype(np.int64), stride, absent)
