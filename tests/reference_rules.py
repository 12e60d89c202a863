"""The object pipeline ``IXPScrubber.mine_tagging_rules`` must equal.

Rules were once mined as one ``AssociationRule`` per candidate, ordered
by ``canonical_antecedent`` strings, minimised by the pairwise scan,
then translated one by one into a staged ``TaggingRule`` and accepted
by a second ``replace``. This is that pipeline end to end, over the
FP-Growth oracle (``tests/reference_itemsets.py``) and the pairwise
scan (``tests/reference_minimize.py``). It lives in the test tree as
the oracle for the rule table (``repro.core.rules.mining.RuleTable``),
which builds objects for the surviving rules only.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.core.rules.items import OTHER, HeaderTable, ItemEncoder, parse_packet_size_bin
from repro.core.rules.mining import AssociationRule
from repro.core.rules.model import PortMatch, RuleStatus, TaggingRule
from repro.core.scrubber import ScrubberConfig
from tests.reference_itemsets import canonical_antecedent, reference_mine
from tests.reference_minimize import reference_minimize


def reference_tagging_rule(rule: AssociationRule, encoder: ItemEncoder) -> TaggingRule:
    """A mined blackhole rule in its ACL form, staged."""
    if not rule.is_blackhole_rule:
        raise ValueError("only blackhole-consequent rules become tagging rules")
    protocol: Optional[int] = None
    port_src: Optional[PortMatch] = None
    port_dst: Optional[PortMatch] = None
    packet_size: Optional[tuple[int, int]] = None
    for attribute, value in rule.antecedent:
        if attribute == "protocol":
            protocol = int(value)  # type: ignore[call-overload]
        elif attribute == "port_src":
            if value == OTHER:
                port_src = PortMatch(values=frozenset(encoder.src_ports) or frozenset({0}), negated=True)
            else:
                port_src = PortMatch(values=frozenset({int(value)}))  # type: ignore[call-overload]
        elif attribute == "port_dst":
            if value == OTHER:
                port_dst = PortMatch(values=frozenset(encoder.dst_ports) or frozenset({0}), negated=True)
            else:
                port_dst = PortMatch(values=frozenset({int(value)}))  # type: ignore[call-overload]
        elif attribute == "packet_size":
            packet_size = parse_packet_size_bin(str(value))
        else:
            raise ValueError(f"unknown antecedent attribute: {attribute!r}")
    return TaggingRule(
        rule_id=hashlib.sha1(canonical_antecedent(rule.antecedent).encode()).hexdigest()[:8],
        confidence=rule.confidence,
        support=rule.support,
        protocol=protocol,
        port_src=port_src,
        port_dst=port_dst,
        packet_size=packet_size,
    )


def reference_rule_set(
    headers: HeaderTable, config: ScrubberConfig
) -> tuple[list[TaggingRule], list[AssociationRule], int, int]:
    """(tagging rules in order, blackhole rules, rules of any consequent,
    frequent itemsets) of one mining run, as the object pipeline made them."""
    rules, n_rules, n_itemsets = reference_mine(
        headers, min_support=config.min_support, min_confidence=config.min_confidence
    )
    kept = reference_minimize(rules, config.confidence_loss, config.support_loss)
    encoder = ItemEncoder.fit(headers)
    tagging = [reference_tagging_rule(rule, encoder) for rule in kept]
    if config.auto_accept_rules:
        tagging = [rule.with_status(RuleStatus.ACCEPT) for rule in tagging]
    return tagging, rules, n_rules, n_itemsets
