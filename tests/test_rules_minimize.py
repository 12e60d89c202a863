"""Tests for Algorithm 1 (rule-set minimisation)."""

import pytest

from repro.core.rules.items import LABEL_BLACKHOLE
from repro.core.rules.minimize import minimize_rules
from repro.core.rules.mining import AssociationRule
from tests import strategies
from tests.reference_minimize import reference_minimize


def rule(items: dict, confidence: float, support: float) -> AssociationRule:
    return AssociationRule(
        antecedent=frozenset(items.items()),
        consequent=LABEL_BLACKHOLE,
        confidence=confidence,
        support=support,
        joint_support=confidence * support,
    )


class TestMinimize:
    def test_removes_redundant_general_rule(self):
        general = rule({"a": 1}, confidence=0.90, support=0.10)
        specific = rule({"a": 1, "b": 2}, confidence=0.895, support=0.095)
        remaining = minimize_rules([general, specific], 0.01, 0.01)
        assert remaining == [specific]

    def test_keeps_general_rule_with_confidence_advantage(self):
        general = rule({"a": 1}, confidence=0.95, support=0.10)
        specific = rule({"a": 1, "b": 2}, confidence=0.85, support=0.09)
        remaining = minimize_rules([general, specific], 0.01, 0.01)
        assert set(remaining) == {general, specific}

    def test_keeps_general_rule_with_support_advantage(self):
        general = rule({"a": 1}, confidence=0.90, support=0.30)
        specific = rule({"a": 1, "b": 2}, confidence=0.90, support=0.05)
        remaining = minimize_rules([general, specific], 0.01, 0.01)
        assert set(remaining) == {general, specific}

    def test_unrelated_rules_untouched(self):
        r1 = rule({"a": 1}, confidence=0.9, support=0.1)
        r2 = rule({"b": 2}, confidence=0.9, support=0.1)
        assert set(minimize_rules([r1, r2], 0.01, 0.01)) == {r1, r2}

    def test_chain_collapses_to_most_specific(self):
        r1 = rule({"a": 1}, confidence=0.9, support=0.10)
        r2 = rule({"a": 1, "b": 2}, confidence=0.9, support=0.099)
        r3 = rule({"a": 1, "b": 2, "c": 3}, confidence=0.9, support=0.098)
        remaining = minimize_rules([r1, r2, r3], 0.01, 0.01)
        assert remaining == [r3]

    def test_empty_input(self):
        assert minimize_rules([], 0.01, 0.01) == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            minimize_rules([], -0.1, 0.01)

    def test_higher_thresholds_remove_no_fewer(self):
        rules = [
            rule({"a": 1}, confidence=0.93, support=0.12),
            rule({"a": 1, "b": 2}, confidence=0.90, support=0.08),
            rule({"a": 1, "c": 3}, confidence=0.92, support=0.05),
            rule({"d": 4}, confidence=0.99, support=0.30),
        ]
        loose = minimize_rules(rules, 0.1, 0.1)
        strict = minimize_rules(rules, 0.001, 0.001)
        assert len(loose) <= len(strict)

    def test_fixed_point(self):
        rules = [
            rule({"a": 1}, confidence=0.9, support=0.1),
            rule({"a": 1, "b": 2}, confidence=0.9, support=0.099),
        ]
        once = minimize_rules(rules, 0.01, 0.01)
        twice = minimize_rules(once, 0.01, 0.01)
        assert once == twice


def _rule_lattice(rng, n_items: int, n_roots: int, depth: int) -> list[AssociationRule]:
    """Random rules whose antecedents form chains and sibling fans.

    Every root antecedent is extended item by item (a chain) and each
    link also gets sibling extensions; confidence and support move by
    steps around the 0.01 thresholds, so that deletions depend on which
    superset is looked at and on what the round has deleted so far.
    Duplicated antecedents (equal, so not *proper* subsets) are kept.
    """
    steps = (0.0, 0.004, 0.009, 0.011, 0.03)
    rules = []
    for _ in range(n_roots):
        chain = rng.choice(n_items, size=min(depth, n_items), replace=False).tolist()
        confidence, support = 0.99, 0.5
        for length in range(1, len(chain) + 1):
            for sibling in range(int(rng.integers(1, 4))):
                items = chain[:length]
                if sibling:
                    items = items[:-1] + [int(rng.integers(0, n_items))]
                rules.append(rule(
                    {f"a{item}": item for item in items},
                    confidence=confidence - float(rng.choice(steps)) * sibling,
                    support=support - float(rng.choice(steps)) * sibling,
                ))
            confidence -= float(rng.choice(steps))
            support -= float(rng.choice(steps))
    order = rng.permutation(len(rules))
    return [rules[k] for k in order]


class TestAgainstPairwiseScan:
    """The indexed minimiser against the n x n loop of `tests/reference_minimize.py`."""

    def test_random_lattices(self):
        deleted = 0
        for seed in range(30):
            rng = strategies.rng_for(seed)
            rules = _rule_lattice(
                rng,
                n_items=(6, 20, 90)[seed % 3],  # shared items ... more than 64 distinct ones
                n_roots=int(rng.integers(2, 14)),
                depth=int(rng.integers(2, 6)),
            )
            for losses in ((0.01, 0.01), (0.005, 0.02), (0.0, 0.0), (1.0, 1.0)):
                expected = reference_minimize(rules, *losses)
                assert minimize_rules(rules, *losses) == expected, (seed, losses)
                deleted += len(rules) - len(expected)
        assert deleted > 500

    def test_a_rule_marked_this_round_justifies_no_deletion(self):
        """`a` falls to `ab` only if `ab` has not fallen to `abc` earlier in
        the same round: list order decides, as in the pairwise scan."""
        a = rule({"a": 1}, confidence=0.900, support=0.100)
        ab = rule({"a": 1, "b": 2}, confidence=0.894, support=0.094)
        abc = rule({"a": 1, "b": 2, "c": 3}, confidence=0.888, support=0.088)
        for rules in ([a, ab, abc], [ab, a, abc], [abc, ab, a], [abc, a, ab]):
            assert minimize_rules(rules) == reference_minimize(rules)
        assert minimize_rules([ab, a, abc]) == [a, abc]
        assert minimize_rules([a, ab, abc]) == [abc]

    def test_mined_rules(self):
        from repro.core.rules.mining import mine_rules

        flows = strategies.labeled_flows(strategies.rng_for(5), n_flows=3000, n_targets=12)
        mined = mine_rules(flows).blackhole_rules
        assert len(mined) > 50
        assert minimize_rules(mined) == reference_minimize(mined)
