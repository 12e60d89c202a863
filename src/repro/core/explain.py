"""Local explainability (paper §5.2.3, §6.6, Fig. 9 / Fig. 14).

Classification decisions are explained through two model-independent
mechanisms: the WoE encodings of the record's features (signed evidence
per feature) and the tagging rules annotated during aggregation
(problematic header combinations that double as ACLs). This module
renders both into an :class:`Explanation` per record and provides the
aggregate overlap/distribution analyses behind Fig. 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.encoding.woe import WoEEncoder
from repro.core.features import schema
from repro.core.features.aggregation import AggregatedDataset
from repro.core.models.baselines import RuleBasedClassifier
from repro.core.rules.model import TaggingRule
from repro.netflow.record import int_to_ip


@dataclass(frozen=True)
class FeatureEvidence:
    """WoE evidence of one feature of one record."""

    column: str
    raw_value: int
    woe: float

    def describe(self) -> str:
        domain, _, _, _ = schema.parse_column(self.column)
        value = int_to_ip(self.raw_value) if domain == "src_ip" and self.raw_value >= 0 else str(self.raw_value)
        direction = "attack" if self.woe > 0 else ("benign" if self.woe < 0 else "neutral")
        return f"{self.column}={value}: WoE {self.woe:+.2f} ({direction} evidence)"


@dataclass(frozen=True)
class Explanation:
    """Local explanation of one record's classification."""

    bin: int
    target_ip: int
    predicted_ddos: bool
    score: float
    #: WoE evidence sorted by absolute strength, strongest first.
    evidence: tuple[FeatureEvidence, ...]
    #: Tagging rules matched by the record's flows.
    matched_rules: tuple[TaggingRule, ...]

    def summary(self, top: int = 5) -> str:
        lines = [
            f"target {int_to_ip(self.target_ip)} @ bin {self.bin}: "
            f"{'DDoS' if self.predicted_ddos else 'benign'} (score {self.score:.3f})"
        ]
        for item in self.evidence[:top]:
            lines.append("  " + item.describe())
        for rule in self.matched_rules:
            lines.append("  rule " + rule.describe())
        return "\n".join(lines)


def explain_record(
    data: AggregatedDataset,
    index: int,
    woe: WoEEncoder,
    score: float,
    rules: Sequence[TaggingRule] = (),
    top: int = 10,
) -> Explanation:
    """Build the explanation for record ``index``."""
    if not 0 <= index < len(data):
        raise IndexError("record index out of range")
    evidence: list[FeatureEvidence] = []
    for column, values in data.categorical.items():
        raw = int(values[index])
        if raw == schema.MISSING_KEY:
            continue
        evidence.append(
            FeatureEvidence(
                column=column,
                raw_value=raw,
                woe=float(woe.encode_column(column, np.array([raw]))[0]),
            )
        )
    evidence.sort(key=lambda e: abs(e.woe), reverse=True)
    matched: tuple[TaggingRule, ...] = ()
    if data.rule_tags is not None and rules:
        by_id = {r.rule_id: r for r in rules}
        matched = tuple(
            by_id[t] for t in data.rule_tags[index] if t in by_id
        )
    return Explanation(
        bin=int(data.bins[index]),
        target_ip=int(data.targets[index]),
        predicted_ddos=score >= 0.5,
        score=score,
        evidence=tuple(evidence[:top]),
        matched_rules=matched,
    )


@dataclass(frozen=True)
class OverlapReport:
    """Fig. 14a: agreement between the ML model and the rule tags."""

    #: Share of records where model and RBC decide coherently.
    coherent_share: float
    #: Among coherent *positive* decisions: share with >= 1 / <= 3 rules.
    explained_share: float
    explained_up_to_3_share: float
    #: Histogram of matched-rule counts on coherent positives.
    rule_count_histogram: dict[int, int]


def rule_overlap(
    data: AggregatedDataset, model_predictions: np.ndarray
) -> OverlapReport:
    """Quantify how often rule tags can explain model decisions."""
    if data.rule_tags is None:
        raise ValueError("aggregated data carries no rule annotations")
    preds = np.asarray(model_predictions).astype(bool)
    rbc = RuleBasedClassifier().predict_records(data).astype(bool)
    coherent = preds == rbc
    positives = coherent & preds
    histogram: dict[int, int] = {}
    explained = 0
    explained3 = 0
    n_pos = int(positives.sum())
    for i in np.flatnonzero(positives):
        count = len(data.rule_tags[i])
        histogram[count] = histogram.get(count, 0) + 1
        if count >= 1:
            explained += 1
        if 1 <= count <= 3:
            explained3 += 1
    return OverlapReport(
        coherent_share=float(coherent.mean()) if len(data) else 0.0,
        explained_share=explained / n_pos if n_pos else 0.0,
        explained_up_to_3_share=explained3 / n_pos if n_pos else 0.0,
        rule_count_histogram=histogram,
    )


def woe_distributions_by_outcome(
    data: AggregatedDataset,
    woe: WoEEncoder,
    predictions: np.ndarray,
    columns: Sequence[str],
) -> dict[str, dict[str, np.ndarray]]:
    """Fig. 14b: per-column WoE value distributions for TP vs FP records.

    Returns ``{column: {"tp": woe_values, "fp": woe_values}}``.
    """
    preds = np.asarray(predictions).astype(bool)
    labels = data.labels.astype(bool)
    tp = preds & labels
    fp = preds & ~labels
    out: dict[str, dict[str, np.ndarray]] = {}
    for column in columns:
        values = woe.encode_column(column, data.categorical[column])
        out[column] = {"tp": values[tp], "fp": values[fp]}
    return out
