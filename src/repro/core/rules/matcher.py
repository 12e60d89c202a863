"""Vectorised matching of tagging rules against flow datasets.

Used in three places: annotating flows for feature aggregation (rule
tags survive into the per-target records, §5.2), the rule-based baseline
classifier (RBC, §5.2.2), and rendering ACL hit statistics for operators.

:func:`match_matrix` says what rules match, one dense mask per rule;
:class:`CompiledMatcher` tags flows for the aggregation kernel with the
same predicates asked once per *class* of header values, not per flow.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.rules.model import PortMatch, TaggingRule
from repro.netflow.dataset import FlowDataset


def _port_mask(match: PortMatch, ports: np.ndarray) -> np.ndarray:
    listed = np.zeros(1 << 16, dtype=bool)
    listed[list(match.values)] = True
    inside = listed.take(ports)
    return ~inside if match.negated else inside


def _match_columns(flows: FlowDataset) -> tuple[np.ndarray, ...]:
    """The header fields rules match on. A flow with no packets has no
    packet size; it reads ``inf``, which no ``(low, high]`` bin contains."""
    sizes = np.where(flows.packets > 0, flows.packet_size, np.inf)
    return flows.protocol, flows.src_port, flows.dst_port, sizes


def _field_masks(
    rule: TaggingRule, columns: tuple[np.ndarray, ...]
) -> tuple[Optional[np.ndarray], ...]:
    """What a rule matches, field by field; ``None`` for a wildcard.

    The one definition of rule semantics: evaluated on flows by
    :func:`rule_mask`, on one value per class of each field by
    :class:`CompiledMatcher` (the columns need not be equally long).
    """
    protocol, src_port, dst_port, sizes = columns
    low, high = rule.packet_size or (None, None)
    return (
        None if rule.protocol is None else protocol == rule.protocol,
        None if rule.port_src is None else _port_mask(rule.port_src, src_port),
        None if rule.port_dst is None else _port_mask(rule.port_dst, dst_port),
        None if rule.packet_size is None else (sizes > low) & (sizes <= high),
    )


def _rule_mask(rule: TaggingRule, columns: tuple[np.ndarray, ...]) -> np.ndarray:
    mask = np.ones(columns[0].shape[0], dtype=bool)
    for field_mask in _field_masks(rule, columns):
        if field_mask is not None:
            mask &= field_mask
    return mask


def rule_mask(rule: TaggingRule, flows: FlowDataset) -> np.ndarray:
    """Boolean mask of flows matching one rule."""
    return _rule_mask(rule, _match_columns(flows))


def match_matrix(rules: Sequence[TaggingRule], flows: FlowDataset) -> np.ndarray:
    """(n_flows, n_rules) boolean matrix of rule matches."""
    if not rules:
        return np.zeros((len(flows), 0), dtype=bool)
    columns = _match_columns(flows)
    return np.stack([_rule_mask(rule, columns) for rule in rules], axis=1)


def match_any(rules: Sequence[TaggingRule], flows: FlowDataset) -> np.ndarray:
    """Per-flow boolean: does any rule match?"""
    mask = np.zeros(len(flows), dtype=bool)
    columns = _match_columns(flows)
    for rule in rules:
        mask |= _rule_mask(rule, columns)
    return mask


def matched_rule_ids(
    rules: Sequence[TaggingRule], flows: FlowDataset
) -> list[tuple[str, ...]]:
    """Per-flow tuple of matching rule ids (for annotation/explanation)."""
    compiled = CompiledMatcher(rules)
    return compiled.tags(compiled.flow_words(flows))


def coverage(
    rules: Sequence[TaggingRule], flows: FlowDataset
) -> dict[str, float]:
    """Evaluate an ACL set against ground-truth labeled flows.

    Returns the share of attack flows dropped (recall on the positive
    class) and the share of benign flows dropped (collateral), the two
    quantities of the operator study (§5.1.3).
    """
    labels = flows.blackhole
    hits = match_any(rules, flows)
    n_attack = int(labels.sum())
    n_benign = int((~labels).sum())
    return {
        "attack_dropped": float((hits & labels).sum() / n_attack) if n_attack else 0.0,
        "benign_dropped": float((hits & ~labels).sum() / n_benign) if n_benign else 0.0,
    }


def _value_classes(size: int, named: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """``(lookup, representatives)`` of one integer header field:
    ``lookup[value]`` is 0 for a value no rule names, else 1 + its rank;
    ``representatives[c]`` is a value of class ``c``."""
    values = np.array(sorted(set(named)), dtype=np.intp)
    lookup = np.zeros(size, dtype=np.intp)
    lookup[values] = np.arange(1, values.size + 1)
    # argmin finds an unnamed value; were every value named, class 0 is
    # empty and whatever stands in for it is never looked up.
    return lookup, np.concatenate([[lookup.argmin()], values])


class CompiledMatcher:
    """Rule tagging at a per-flow cost that does not grow with the rules.

    No rule can tell apart two protocols (or ports) it does not name, nor
    two packet sizes between the same two of the rules' size edges: each
    field has a few *classes*. :func:`_field_masks` evaluates every rule
    once on one value per class, kept per field as bit-packed words (bit
    ``k`` = ``rules[k]``, little-endian over a class's bytes); a flow's
    matches are the AND of its four classes' words. Derived state, built
    once per rule set (:meth:`is_stale`): never pickled or persisted.
    """

    def __init__(self, rules: Sequence[TaggingRule]):
        self.rules = tuple(rules)
        named = (
            (r.protocol for r in self.rules if r.protocol is not None),
            (v for r in self.rules if r.port_src for v in r.port_src.values),
            (v for r in self.rules if r.port_dst for v in r.port_dst.values),
        )
        self._lookups, values = zip(*map(_value_classes, (1 << 8, 1 << 16, 1 << 16), named))
        # Size class i is (edge[i-1], edge[i]], the last one beyond every edge.
        self._size_edges = np.array(
            sorted({e for r in self.rules if r.packet_size for e in r.packet_size}),
            dtype=np.float64,
        )
        representatives = (*values, np.concatenate([self._size_edges, [np.inf]]))
        n_bits = 64 * max(1, -(-len(self.rules) // 64))
        matches = [np.zeros((len(values), n_bits), dtype=bool) for values in representatives]
        for k, rule in enumerate(self.rules):
            for field, mask in zip(matches, _field_masks(rule, representatives)):
                field[:, k] = True if mask is None else mask
        #: Per field, ``(n_words, n_classes)`` uint64.
        self._words = [
            np.packbits(field, axis=1, bitorder="little").view(np.uint64).T.copy()
            for field in matches
        ]
        self._tags: dict[bytes, tuple[str, ...]] = {}

    def is_stale(self, rules: Sequence[TaggingRule]) -> bool:
        """True when ``rules`` is no longer the rule set compiled here."""
        return self.rules != tuple(rules)

    def flow_words(
        self, flows: FlowDataset, order: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-flow rule matches, ``(n_words, n_flows)`` uint64: the
        transposed :func:`match_matrix` through ``packbits(bitorder="little")``.

        With ``order``, of flows ``order`` only, in that order."""
        columns = _match_columns(flows)
        if order is not None:
            columns = tuple(column.take(order) for column in columns)
        *integers, sizes = columns
        classes = [lookup.take(column) for lookup, column in zip(self._lookups, integers)]
        classes.append(self._size_edges.searchsorted(sizes, side="left"))
        words = self._words[0].take(classes[0], axis=1)
        for field, field_classes in zip(self._words[1:], classes[1:]):
            words &= field.take(field_classes, axis=1)
        return words

    def tags(self, words: np.ndarray) -> list[tuple[str, ...]]:
        """Rule-id tuples of bit-packed columns (as :meth:`flow_words` lays them)."""
        out: list[tuple[str, ...]] = [()] * words.shape[1]
        hit = np.flatnonzero(words.any(axis=0))
        packed = words.take(hit, axis=1).T.tobytes()
        width = 8 * words.shape[0]
        for i, column in enumerate(hit.tolist()):
            pattern = packed[i * width : (i + 1) * width]
            ids = self._tags.get(pattern)
            if ids is None:
                bits = int.from_bytes(pattern, "little")
                ids = self._tags[pattern] = tuple(
                    rule.rule_id for k, rule in enumerate(self.rules) if bits >> k & 1
                )
            out[column] = ids
        return out
