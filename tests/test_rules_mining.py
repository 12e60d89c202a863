"""Tests for association-rule generation and the mining pipeline."""

import warnings

import numpy as np
import pytest

from repro.core.rules.items import LABEL_BLACKHOLE, ItemEncoder, canonical_antecedent
from repro.core.rules.mining import AssociationRule, mine_rules
from repro.netflow.dataset import FlowDataset
from tests import strategies
from tests.conftest import make_flow
from tests.reference_itemsets import filter_blackhole_rules, generate_rules, reference_mine


class TestGenerateRules:
    def test_confidence_and_support(self):
        # {a} appears 10x, {a, blackhole} 9x -> confidence 0.9.
        a = frozenset({("x", "a")})
        ab = frozenset({("x", "a"), LABEL_BLACKHOLE})
        itemsets = {a: 10, ab: 9, frozenset({LABEL_BLACKHOLE}): 9}
        rules = generate_rules(itemsets, total=20, min_confidence=0.8)
        rule = next(r for r in rules if r.consequent == LABEL_BLACKHOLE)
        assert rule.confidence == pytest.approx(0.9)
        assert rule.support == pytest.approx(0.5)
        assert rule.joint_support == pytest.approx(0.45)

    def test_min_confidence_filters(self):
        a = frozenset({("x", "a")})
        ab = frozenset({("x", "a"), LABEL_BLACKHOLE})
        itemsets = {a: 10, ab: 5, frozenset({LABEL_BLACKHOLE}): 5}
        rules = generate_rules(itemsets, total=20, min_confidence=0.8)
        assert not any(r.consequent == LABEL_BLACKHOLE for r in rules)

    def test_all_consequents_considered(self):
        """Every item of a frequent itemset can be the consequent."""
        ab = frozenset({("x", "a"), ("y", "b")})
        itemsets = {
            frozenset({("x", "a")}): 10,
            frozenset({("y", "b")}): 10,
            ab: 10,
        }
        rules = generate_rules(itemsets, total=10, min_confidence=0.8)
        consequents = {r.consequent for r in rules}
        assert consequents == {("x", "a"), ("y", "b")}

    def test_sorted_by_confidence(self):
        itemsets = {
            frozenset({("x", "a")}): 10,
            frozenset({("x", "a"), LABEL_BLACKHOLE}): 9,
            frozenset({("y", "b")}): 10,
            frozenset({("y", "b"), LABEL_BLACKHOLE}): 10,
            frozenset({LABEL_BLACKHOLE}): 12,
        }
        rules = generate_rules(itemsets, total=20, min_confidence=0.5)
        blackhole_rules = filter_blackhole_rules(rules)
        confidences = [r.confidence for r in blackhole_rules]
        assert confidences == sorted(confidences, reverse=True)

    def test_empty_total(self):
        assert generate_rules({}, total=0, min_confidence=0.5) == []


class TestAssociationRule:
    def test_rejects_empty_antecedent(self):
        with pytest.raises(ValueError):
            AssociationRule(
                antecedent=frozenset(),
                consequent=LABEL_BLACKHOLE,
                confidence=0.9,
                support=0.1,
                joint_support=0.09,
            )

    def test_is_blackhole_rule(self):
        rule = AssociationRule(
            antecedent=frozenset({("port_src", 123)}),
            consequent=LABEL_BLACKHOLE,
            confidence=0.9,
            support=0.1,
            joint_support=0.09,
        )
        assert rule.is_blackhole_rule
        assert "port_src=123" in rule.describe()


class TestMineRules:
    def test_finds_attack_signature(self):
        """A clean NTP-attack signature must be mined."""
        records = [
            make_flow(time=i, src_port=123, dst_port=10000 + i, blackhole=True)
            for i in range(200)
        ] + [
            make_flow(time=i, src_port=443, dst_port=20000 + i, bytes_=12000, blackhole=False)
            for i in range(200)
        ]
        result = mine_rules(FlowDataset.from_records(records), min_support=0.01)
        assert result.blackhole_rules
        best = result.blackhole_rules[0]
        assert ("port_src", 123) in best.antecedent or any(
            ("port_src", 123) in r.antecedent for r in result.blackhole_rules
        )
        assert best.confidence > 0.95

    def test_no_rules_on_pure_benign(self):
        records = [make_flow(time=i, src_port=443) for i in range(50)]
        result = mine_rules(FlowDataset.from_records(records), min_support=0.01)
        assert result.blackhole_rules == []

    def test_flow_without_packets_carries_no_size_item(self):
        """Its mean packet size is undefined (0.0 by convention): it used
        to take the whole mining run down with "packet size must be
        positive"; now it supports protocol and port rules and no size rule."""
        records = [
            make_flow(time=i, src_port=123, dst_port=10000 + i, blackhole=True)
            for i in range(200)
        ] + [
            make_flow(time=i, src_port=443, dst_port=20000 + i, bytes_=12000, blackhole=False)
            for i in range(200)
        ]
        flows = strategies.without_packets(FlowDataset.from_records(records), slice(50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = mine_rules(flows, min_support=0.01)
        assert result.n_transactions == 400
        support = {
            r.antecedent: r.support for r in result.blackhole_rules if len(r.antecedent) == 1
        }
        assert support[frozenset({("port_src", 123)})] == 200 / 400
        assert support[frozenset({("packet_size", "(400,500]")})] == 150 / 400


class TestMineRulesEqualsFpGrowthPipeline:
    """`mine_rules` against FP-Growth + `generate_rules` +
    `filter_blackhole_rules` (``tests/reference_itemsets.py``): the same
    blackhole rules, in the same order, field for field, and the same
    counts of itemsets and of rules of any consequent."""

    @staticmethod
    def _assert_equal_to_oracle(flows, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = mine_rules(flows, **kwargs)
        rules, n_rules, n_itemsets = reference_mine(flows, **kwargs)
        assert result.blackhole_rules == rules  # order included
        assert (result.n_rules, result.n_frequent_itemsets) == (n_rules, n_itemsets)
        assert result.n_transactions == len(flows)
        return result

    def test_random_flows(self):
        mined = 0
        for seed in range(10):
            flows = strategies.labeled_flows(strategies.rng_for(seed), n_flows=500)
            for kwargs in (
                {},
                dict(min_support=0.02, min_confidence=0.5),
                dict(min_support=1.0),
                dict(min_confidence=0.0),
                dict(min_confidence=1.0),
            ):
                mined += len(self._assert_equal_to_oracle(flows, **kwargs).blackhole_rules)
        assert mined > 1000

    def test_flows_without_packets(self):
        for seed in range(4):
            flows = strategies.labeled_flows(strategies.rng_for(100 + seed), n_flows=300)
            some = strategies.rng_for(seed).random(300) < 0.3
            self._assert_equal_to_oracle(strategies.without_packets(flows, some))
            self._assert_equal_to_oracle(strategies.without_packets(flows, slice(None)))

    def test_every_port_other(self):
        flows = strategies.labeled_flows(strategies.rng_for(7), n_flows=400)
        result = self._assert_equal_to_oracle(
            flows, encoder=ItemEncoder(frozenset(), frozenset())
        )
        ports = {item for r in result.blackhole_rules for item in r.antecedent if "port" in item[0]}
        assert ports == {("port_src", "OTHER"), ("port_dst", "OTHER")}

    def test_one_class_only(self):
        flows = strategies.flows(strategies.rng_for(8), n_flows=300)
        blackholed = flows.with_blackhole(np.ones(300, dtype=bool))
        assert self._assert_equal_to_oracle(blackholed).blackhole_rules
        benign = flows.with_blackhole(np.zeros(300, dtype=bool))
        assert self._assert_equal_to_oracle(benign).blackhole_rules == []

    def test_empty_input(self):
        result = self._assert_equal_to_oracle(FlowDataset.empty())
        assert (result.blackhole_rules, result.n_rules, result.n_frequent_itemsets) == ([], 0, 0)

    def test_min_support_of_one_transaction(self):
        """Every itemset any flow carries is frequent: 31 subsets of a
        flow with all five items."""
        flows = strategies.labeled_flows(strategies.rng_for(11), n_flows=120)
        result = self._assert_equal_to_oracle(flows, min_support=1 / 120)
        assert result.n_frequent_itemsets >= 31
        single = FlowDataset.from_records([make_flow(src_port=123, blackhole=True)])
        result = self._assert_equal_to_oracle(single, min_support=1.0)
        assert result.n_frequent_itemsets == 31
        assert len(result.blackhole_rules) == 15  # every non-empty subset of the four header items

    def test_rejects_min_support_out_of_range(self):
        flows = strategies.labeled_flows(strategies.rng_for(12), n_flows=50)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                mine_rules(flows, min_support=bad)


class TestCanonicalAntecedent:
    def test_is_the_spelled_out_repr(self):
        antecedent = frozenset({
            ("protocol", 17), ("port_src", "OTHER"), ("port_dst", 0), ("packet_size", "(400,500]"),
        })
        assert canonical_antecedent(antecedent) == repr(sorted(antecedent, key=repr))
        assert canonical_antecedent(antecedent, item_repr=repr) == (
            "[('packet_size', '(400,500]'), ('port_dst', 0), ('port_src', 'OTHER'), ('protocol', 17)]"
        )

    def test_golden_rule_order_and_ids(self):
        """Rule order and rule ids of the model behind the golden traces
        are what the spelled-out expression gives."""
        import hashlib
        import json

        from repro.core.rules.minimize import minimize_rules
        from repro.core.rules.model import RuleSet
        from tests import gen_golden

        result = mine_rules(gen_golden.training_flows())

        def spelled_out(rule):
            return repr(sorted(rule.antecedent, key=repr))

        assert len(result.blackhole_rules) > 100
        assert result.blackhole_rules == sorted(
            result.blackhole_rules, key=lambda r: (-r.confidence, -r.support, spelled_out(r))
        )
        minimized = minimize_rules(result.blackhole_rules)
        ids = [rule.rule_id for rule in RuleSet.from_mining(minimized, result.encoder)]
        assert ids == [
            hashlib.sha1(spelled_out(rule).encode()).hexdigest()[:8] for rule in minimized
        ]
        for seed in gen_golden.WORKLOAD_SEEDS:
            trace = json.loads(gen_golden.trace_path(seed).read_text(encoding="utf-8"))
            assert {i for v in trace["verdicts"] for i in v["matched_rules"]} <= set(ids)
