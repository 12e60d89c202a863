"""Tests for the FP-Growth oracle, cross-checked against brute-force
Apriori, and for the group-by miner, cross-checked against the oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules.items import ItemEncoder
from repro.core.rules.itemsets import itemset_cube
from tests import strategies
from tests.reference_itemsets import fp_growth, total_weight


def brute_force(transactions, min_support):
    """Enumerate all frequent itemsets naively."""
    total = sum(w for _, w in transactions)
    min_count = max(1, int(min_support * total + 0.5))
    items = sorted({i for t, _ in transactions for i in t})
    out = {}
    for size in range(1, len(items) + 1):
        for combo in itertools.combinations(items, size):
            combo_set = frozenset(combo)
            support = sum(w for t, w in transactions if combo_set <= set(t))
            if support >= min_count:
                out[combo_set] = support
    return out


class TestFpGrowth:
    def test_single_transaction(self):
        result = fp_growth([(("a", "b"), 1)], min_support=0.5)
        assert result == {
            frozenset({"a"}): 1,
            frozenset({"b"}): 1,
            frozenset({"a", "b"}): 1,
        }

    def test_support_threshold(self):
        transactions = [(("a",), 9), (("b",), 1)]
        result = fp_growth(transactions, min_support=0.5)
        assert frozenset({"a"}) in result
        assert frozenset({"b"}) not in result

    def test_weighted_counts(self):
        transactions = [(("a", "b"), 3), (("a",), 2)]
        result = fp_growth(transactions, min_support=0.1)
        assert result[frozenset({"a"})] == 5
        assert result[frozenset({"a", "b"})] == 3

    def test_max_len(self):
        result = fp_growth([(("a", "b", "c"), 5)], min_support=0.1, max_len=2)
        assert all(len(s) <= 2 for s in result)

    def test_empty_transactions(self):
        assert fp_growth([], min_support=0.5) == {}

    def test_invalid_support(self):
        with pytest.raises(ValueError):
            fp_growth([(("a",), 1)], min_support=0.0)

    def test_total_weight(self):
        assert total_weight([(("a",), 3), (("b",), 4)]) == 7

    def test_known_example(self):
        """Classic market-basket example."""
        baskets = [
            ("milk", "bread"),
            ("milk", "bread", "eggs"),
            ("bread", "eggs"),
            ("milk", "eggs"),
            ("milk", "bread", "eggs"),
        ]
        result = fp_growth([(b, 1) for b in baskets], min_support=0.6)
        assert result[frozenset({"milk"})] == 4
        assert result[frozenset({"bread"})] == 4
        assert result[frozenset({"milk", "bread"})] == 3


@settings(max_examples=40, deadline=None)
@given(
    transactions=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(["a", "b", "c", "d", "e"]),
                min_size=1,
                max_size=4,
                unique=True,
            ).map(tuple),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=12,
    ),
    min_support=st.sampled_from([0.1, 0.3, 0.5, 0.8]),
)
def test_fp_growth_matches_brute_force(transactions, min_support):
    expected = brute_force(transactions, min_support)
    actual = fp_growth(transactions, min_support=min_support)
    assert actual == expected


class TestItemsetCube:
    """Every cell of the cube is an itemset FP-Growth finds at
    ``min_support`` of one transaction, with the same support."""

    @staticmethod
    def _as_dict(columns, cube):
        out = {}
        for mask, table in cube.items():
            selected = [column for i, column in enumerate(columns) if mask >> i & 1]
            for count, row in zip(table.count.tolist(), table.first.tolist()):
                itemset = frozenset(column.items[column.codes[row]] for column in selected)
                assert len(itemset) == len(selected) and None not in itemset
                assert itemset not in out
                out[itemset] = count
        return out

    def test_equals_fp_growth_at_one_transaction(self):
        for seed in range(6):
            flows = strategies.flows(strategies.rng_for(seed), n_flows=300)
            flows = strategies.without_packets(flows, slice(seed * 10))  # some carry no size item
            encoder = ItemEncoder.fit(flows, top_k=5)
            columns, weights = encoder.distinct(flows)
            cube = itemset_cube(columns, weights)
            assert self._as_dict(columns, cube) == fp_growth(
                encoder.transactions(flows), min_support=1 / len(flows)
            )

    def test_group_points_at_the_transactions_itemset(self):
        flows = strategies.without_packets(
            strategies.flows(strategies.rng_for(9), n_flows=200), slice(40)
        )
        columns, weights = ItemEncoder.fit(flows).distinct(flows)
        for mask, table in itemset_cube(columns, weights).items():
            carried = table.group >= 0
            assert table.count.sum() == weights[carried].sum()
            assert (table.group[table.first] == range(len(table.first))).all()
            size = columns[3]
            lacks_size = np.array([size.items[code] is None for code in size.codes])
            assert (carried == ~(lacks_size & bool(mask >> 3 & 1))).all()

    def test_no_transactions(self):
        from repro.netflow.dataset import FlowDataset

        columns, weights = ItemEncoder(frozenset(), frozenset()).distinct(FlowDataset.empty())
        cube = itemset_cube(columns, weights)
        assert len(cube) == 31
        assert all(table.count.shape == (0,) for table in cube.values())
