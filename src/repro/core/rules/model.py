"""Tagging rules and the curated rule set (paper §5.1.2, Fig. 6).

A :class:`TaggingRule` is the operator-facing form of a mined blackhole
rule: a firewall-style match on protocol / source port / destination
port / packet-size bin, carrying its ARM quality metrics and a curation
status. The :class:`RuleSet` models the UI lifecycle — ``accept``,
``staging``, ``decline`` — plus export/import-and-merge, which is how a
rule set grows over time.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from repro.core.rules.items import (
    Item,
    ItemEncoder,
    OTHER,
    parse_packet_size_bin,
)
from repro.core.rules.mining import AssociationRule, RuleTable


class RuleStatus(enum.Enum):
    """Curation status of a tagging rule (Fig. 6)."""

    ACCEPT = "accept"
    STAGING = "staging"
    DECLINE = "decline"


@dataclass(frozen=True)
class PortMatch:
    """Match on a transport port: a value set, possibly negated.

    ``PortMatch({123}, negated=False)`` matches port 123;
    ``PortMatch({0, 17, 19}, negated=True)`` matches any port *except*
    those — the ``~{0,17,19,...}`` notation of the paper's released
    rules.
    """

    values: frozenset[int]
    negated: bool = False

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("port match needs at least one value")
        for v in self.values:
            if not 0 <= v <= 0xFFFF:
                raise ValueError(f"port out of range: {v}")

    def matches(self, port: int) -> bool:
        inside = port in self.values
        return not inside if self.negated else inside

    def render(self) -> str:
        body = "{" + ",".join(str(v) for v in sorted(self.values)) + "}"
        return f"~{body}" if self.negated else body

    @classmethod
    def parse(cls, text: str) -> "PortMatch":
        negated = text.startswith("~")
        if negated:
            text = text[1:]
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"malformed port match: {text!r}")
        values = frozenset(int(p) for p in text[1:-1].split(",") if p.strip())
        return cls(values=values, negated=negated)


@dataclass(frozen=True)
class TaggingRule:
    """One curated flow-tagging rule. ``None`` fields are wildcards."""

    rule_id: str
    confidence: float
    support: float
    protocol: Optional[int] = None
    port_src: Optional[PortMatch] = None
    port_dst: Optional[PortMatch] = None
    #: Packet-size bin as (low, high], or None for wildcard.
    packet_size: Optional[tuple[int, int]] = None
    status: RuleStatus = RuleStatus.STAGING
    notes: str = ""

    def __post_init__(self) -> None:
        if self.protocol is None and self.port_src is None and self.port_dst is None and self.packet_size is None:
            raise ValueError("rule must constrain at least one header field")
        if self.protocol is not None and not 0 <= self.protocol <= 0xFF:
            raise ValueError(f"protocol out of range: {self.protocol}")

    def with_status(self, status: RuleStatus, notes: Optional[str] = None) -> "TaggingRule":
        """Return a copy with a new curation status (and optional notes)."""
        return replace(self, status=status, notes=self.notes if notes is None else notes)

    def matches_record(
        self, protocol: int, src_port: int, dst_port: int, packet_size: float
    ) -> bool:
        """Scalar match against one flow's header fields."""
        if self.protocol is not None and protocol != self.protocol:
            return False
        if self.port_src is not None and not self.port_src.matches(src_port):
            return False
        if self.port_dst is not None and not self.port_dst.matches(dst_port):
            return False
        if self.packet_size is not None:
            low, high = self.packet_size
            if not (low < packet_size <= high):
                return False
        return True

    def describe(self) -> str:
        parts = []
        if self.protocol is not None:
            parts.append(f"protocol={self.protocol}")
        if self.port_src is not None:
            parts.append(f"port_src={self.port_src.render()}")
        if self.port_dst is not None:
            parts.append(f"port_dst={self.port_dst.render()}")
        if self.packet_size is not None:
            parts.append(f"packet_size=({self.packet_size[0]},{self.packet_size[1]}]")
        return f"[{self.rule_id}] " + " ".join(parts) + f" c={self.confidence:.4f} s={self.support:.5f}"


def _match(item: Item, encoder: ItemEncoder) -> tuple[str, object]:
    """The :class:`TaggingRule` field an antecedent item sets, and its value."""
    attribute, value = item
    if attribute == "protocol":
        return attribute, int(value)  # type: ignore[call-overload]
    if attribute in ("port_src", "port_dst"):
        if value == OTHER:
            popular = encoder.src_ports if attribute == "port_src" else encoder.dst_ports
            return attribute, PortMatch(values=frozenset(popular) or frozenset({0}), negated=True)
        return attribute, PortMatch(values=frozenset({int(value)}))  # type: ignore[call-overload]
    if attribute == "packet_size":
        return attribute, parse_packet_size_bin(str(value))
    raise ValueError(f"unknown antecedent attribute: {attribute!r}")


def tagging_rules(
    table: RuleTable, encoder: ItemEncoder, status: RuleStatus = RuleStatus.STAGING
) -> list[TaggingRule]:
    """Translate mined blackhole rules into their ACL form, one per row.

    The encoder supplies the popular-port vocabularies so the ``OTHER``
    category becomes a negated port set. Each item's match and ``repr``
    is made once per table; a rule's id hashes its antecedent's
    spelling, ``repr(sorted(antecedent, key=repr))``: its row's reprs.
    """
    spellings = [repr(item) for item in table.vocabulary]
    matches = [_match(item, encoder) for item in table.vocabulary]
    pad = len(table.vocabulary)
    antecedents = [[r for r in row if r < pad] for row in table.antecedents.tolist()]
    return [
        TaggingRule(
            rule_id=hashlib.sha1(f"[{', '.join([spellings[r] for r in ranks])}]".encode()).hexdigest()[:8],
            confidence=confidence,
            support=support,
            status=status,
            **dict(matches[r] for r in ranks),  # type: ignore[arg-type]
        )
        for ranks, confidence, support in zip(antecedents, table.confidence.tolist(), table.support.tolist())
    ]


class RuleSet:
    """An ordered, curatable collection of tagging rules."""

    def __init__(self, rules: Iterable[TaggingRule] = ()):
        self._rules: dict[str, TaggingRule] = {}
        for rule in rules:
            self.add(rule)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[TaggingRule]:
        return iter(self._rules.values())

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def add(self, rule: TaggingRule) -> None:
        """Add or replace a rule (keyed by ``rule_id``)."""
        self._rules[rule.rule_id] = rule

    def get(self, rule_id: str) -> TaggingRule:
        return self._rules[rule_id]

    def set_status(self, rule_id: str, status: RuleStatus, notes: Optional[str] = None) -> None:
        """Curate one rule; unknown ids raise ``KeyError``."""
        self._rules[rule_id] = self._rules[rule_id].with_status(status, notes)

    def accepted(self) -> list[TaggingRule]:
        """Rules curated as ``accept`` — the active ACL set."""
        return [r for r in self if r.status == RuleStatus.ACCEPT]

    def staged(self) -> list[TaggingRule]:
        return [r for r in self if r.status == RuleStatus.STAGING]

    def declined(self) -> list[TaggingRule]:
        return [r for r in self if r.status == RuleStatus.DECLINE]

    def merge(self, other: "RuleSet") -> "RuleSet":
        """Merge freshly mined rules into this set (paper §5.1.2).

        Rules already curated here keep their status — in particular,
        declined rules "never show up again". New rules arrive in
        staging.
        """
        merged = RuleSet(self)
        for rule in other:
            if rule.rule_id in merged:
                continue  # keep the existing curation decision
            merged.add(rule)
        return merged

    @classmethod
    def from_mining(
        cls, rules: Iterable[AssociationRule], encoder: ItemEncoder
    ) -> "RuleSet":
        """Build a staged rule set from mined blackhole rules."""
        rules = list(rules)
        if not all(rule.is_blackhole_rule for rule in rules):
            raise ValueError("only blackhole-consequent rules become tagging rules")
        return cls(tagging_rules(RuleTable.of(rules), encoder))
