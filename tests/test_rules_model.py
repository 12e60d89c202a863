"""Tests for tagging rules, port matches and the curated rule set."""

import pytest

from repro.core.rules.items import LABEL_BENIGN, LABEL_BLACKHOLE, OTHER, ItemEncoder
from repro.core.rules.mining import AssociationRule
from repro.core.rules.model import (
    PortMatch,
    RuleSet,
    RuleStatus,
    TaggingRule,
)


def tagging_rule_from_association(rule: AssociationRule, encoder: ItemEncoder) -> TaggingRule:
    (tagging,) = RuleSet.from_mining([rule], encoder)
    return tagging


class TestPortMatch:
    def test_plain_match(self):
        match = PortMatch(values=frozenset({123}))
        assert match.matches(123)
        assert not match.matches(124)

    def test_negated_match(self):
        match = PortMatch(values=frozenset({0, 53}), negated=True)
        assert match.matches(9999)
        assert not match.matches(53)

    def test_render_parse_roundtrip(self):
        match = PortMatch(values=frozenset({0, 17, 19}), negated=True)
        assert PortMatch.parse(match.render()) == match

    def test_render_sorted(self):
        assert PortMatch(values=frozenset({19, 0, 17})).render() == "{0,17,19}"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PortMatch(values=frozenset())

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            PortMatch(values=frozenset({70000}))

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            PortMatch.parse("0,17,19")


class TestTaggingRule:
    def make_rule(self, **overrides):
        defaults = dict(
            rule_id="abc123",
            confidence=0.97,
            support=0.02,
            protocol=17,
            port_src=PortMatch(values=frozenset({123})),
            packet_size=(400, 500),
        )
        defaults.update(overrides)
        return TaggingRule(**defaults)

    def test_matches_record(self):
        rule = self.make_rule()
        assert rule.matches_record(17, 123, 9999, 468.0)
        assert not rule.matches_record(6, 123, 9999, 468.0)  # wrong protocol
        assert not rule.matches_record(17, 53, 9999, 468.0)  # wrong port
        assert not rule.matches_record(17, 123, 9999, 600.0)  # wrong size

    def test_packet_size_half_open(self):
        rule = self.make_rule()
        assert rule.matches_record(17, 123, 1, 500.0)  # upper inclusive
        assert not rule.matches_record(17, 123, 1, 400.0)  # lower exclusive

    def test_wildcards(self):
        rule = self.make_rule(protocol=None, packet_size=None)
        assert rule.matches_record(6, 123, 9999, 1400.0)

    def test_rejects_all_wildcards(self):
        with pytest.raises(ValueError):
            TaggingRule(rule_id="x", confidence=0.9, support=0.1)

    def test_with_status(self):
        rule = self.make_rule()
        accepted = rule.with_status(RuleStatus.ACCEPT, notes="looks fine")
        assert accepted.status == RuleStatus.ACCEPT
        assert accepted.notes == "looks fine"
        assert rule.status == RuleStatus.STAGING  # original untouched

    def test_describe(self):
        assert "port_src={123}" in self.make_rule().describe()


class TestFromAssociation:
    def encoder(self):
        return ItemEncoder(src_ports=frozenset({123, 53}), dst_ports=frozenset({80, 443}))

    def test_specific_ports(self):
        rule = AssociationRule(
            antecedent=frozenset({("protocol", 17), ("port_src", 123), ("packet_size", "(400,500]")}),
            consequent=LABEL_BLACKHOLE,
            confidence=0.98,
            support=0.02,
            joint_support=0.019,
        )
        tagging = tagging_rule_from_association(rule, self.encoder())
        assert tagging.protocol == 17
        assert tagging.port_src == PortMatch(values=frozenset({123}))
        assert tagging.packet_size == (400, 500)

    def test_other_becomes_negated_set(self):
        rule = AssociationRule(
            antecedent=frozenset({("port_dst", OTHER)}),
            consequent=LABEL_BLACKHOLE,
            confidence=0.9,
            support=0.1,
            joint_support=0.09,
        )
        tagging = tagging_rule_from_association(rule, self.encoder())
        assert tagging.port_dst.negated
        assert tagging.port_dst.values == frozenset({80, 443})

    def test_rejects_non_blackhole_rule(self):
        rule = AssociationRule(
            antecedent=frozenset({("protocol", 17)}),
            consequent=LABEL_BENIGN,
            confidence=0.9,
            support=0.1,
            joint_support=0.09,
        )
        with pytest.raises(ValueError):
            tagging_rule_from_association(rule, self.encoder())

    def test_stable_rule_ids(self):
        rule = AssociationRule(
            antecedent=frozenset({("protocol", 17), ("port_src", 123)}),
            consequent=LABEL_BLACKHOLE,
            confidence=0.9,
            support=0.1,
            joint_support=0.09,
        )
        a = tagging_rule_from_association(rule, self.encoder())
        b = tagging_rule_from_association(rule, self.encoder())
        assert a.rule_id == b.rule_id


class TestRuleSet:
    def make_rule(self, rule_id: str, confidence: float = 0.95) -> TaggingRule:
        return TaggingRule(
            rule_id=rule_id, confidence=confidence, support=0.01, protocol=17
        )

    def test_lifecycle(self):
        rules = RuleSet([self.make_rule("r1"), self.make_rule("r2")])
        rules.set_status("r1", RuleStatus.ACCEPT)
        rules.set_status("r2", RuleStatus.DECLINE)
        assert [r.rule_id for r in rules.accepted()] == ["r1"]
        assert [r.rule_id for r in rules.declined()] == ["r2"]
        assert rules.staged() == []

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            RuleSet().set_status("nope", RuleStatus.ACCEPT)

    def test_merge_keeps_curation(self):
        """Declined rules never show up again (paper §5.1.2)."""
        curated = RuleSet([self.make_rule("r1")])
        curated.set_status("r1", RuleStatus.DECLINE)
        fresh = RuleSet([self.make_rule("r1"), self.make_rule("r2")])
        merged = curated.merge(fresh)
        assert merged.get("r1").status == RuleStatus.DECLINE
        assert merged.get("r2").status == RuleStatus.STAGING
        assert len(merged) == 2

    def test_contains(self):
        rules = RuleSet([self.make_rule("r1")])
        assert "r1" in rules and "r2" not in rules

    def test_add_replaces(self):
        rules = RuleSet([self.make_rule("r1", confidence=0.9)])
        rules.add(self.make_rule("r1", confidence=0.99))
        assert len(rules) == 1
        assert rules.get("r1").confidence == 0.99
