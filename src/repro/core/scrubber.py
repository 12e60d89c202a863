"""The IXP Scrubber: two-step ML system (paper §5, Fig. 5).

Step 1 mines and curates flow-tagging rules (ACL candidates); Step 2
aggregates flows into per-target records, encodes categoricals as Weight
of Evidence, and classifies each (minute, target IP) as under attack or
benign. The fitted system produces predictions, ACLs for the positive
records, and local explanations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.core.encoding.matrix import (
    FeatureMatrix,
    MatrixAssembler,
    assemble,
    feature_columns,
)
from repro.core.encoding.woe import WoEEncoder
from repro.obs import names as metric_names
from repro.core.features.aggregation import AggregatedDataset, aggregate, aggregate_batch
from repro.core.models.pipeline import ModelPipeline, make_pipeline
from repro.core.rules.items import ItemEncoder
from repro.core.rules.matcher import CompiledMatcher
from repro.core.rules.minimize import minimize_rules
from repro.core.rules.mining import mine_rules
from repro.core.rules.model import RuleSet, RuleStatus, TaggingRule
from repro.netflow.dataset import FlowDataset


@dataclass(frozen=True)
class ScrubberConfig:
    """Configuration of one IXP Scrubber instance."""

    model: str = "XGB"
    model_params: dict[str, object] = field(default_factory=dict)
    #: ARM minimum support / confidence (§5.1.1).
    min_support: float = 0.0005
    min_confidence: float = 0.8
    #: Algorithm 1 loss thresholds (Appendix A: 0.01 / 0.01).
    confidence_loss: float = 0.01
    support_loss: float = 0.01
    #: Auto-accept mined rules (skip interactive curation). Operators
    #: would normally review in the UI; experiments auto-accept.
    auto_accept_rules: bool = True


@dataclass(frozen=True)
class TargetVerdict:
    """Classification outcome for one (minute bin, target IP) record."""

    bin: int
    target_ip: int
    is_ddos: bool
    score: float
    matched_rules: tuple[str, ...]


def build_verdicts(
    data: AggregatedDataset, scores: np.ndarray, threshold: float = 0.5
) -> list[TargetVerdict]:
    """Turn scored aggregated records into per-target verdicts.

    Shared by the one-shot, streaming and sharded classification paths
    so the verdict structure (ordering, rounding, rule tags) cannot
    drift between them.
    """
    labels = scores >= threshold
    tags = data.rule_tags or [()] * len(data)
    return [
        TargetVerdict(
            bin=int(data.bins[i]),
            target_ip=int(data.targets[i]),
            is_ddos=bool(labels[i]),
            score=float(scores[i]),
            matched_rules=tags[i],
        )
        for i in range(len(data))
    ]


@dataclass(frozen=True)
class CompiledScorer:
    """One model epoch's FR -> I -> WoE -> C chain (Fig. 8) as one step.

    :meth:`ModelPipeline.compile` folds the feature reducer and imputer
    into the assembler, which WoE-encodes just the ``columns`` the model
    reads; ``pipeline`` (the compact model and what is left of its
    chain) scores that matrix. Scores equal the fitted pipeline's on the
    150-column matrix bit for bit. Derived state: built on first use per
    (encoder, pipeline), never pickled.
    """

    woe: WoEEncoder
    source: ModelPipeline
    assembler: MatrixAssembler
    pipeline: ModelPipeline

    @classmethod
    def compile(cls, woe: WoEEncoder, source: ModelPipeline) -> "CompiledScorer":
        columns, fill, pipeline = source.compile(feature_columns())
        return cls(woe, source, MatrixAssembler(woe, columns, fill), pipeline)

    @property
    def columns(self) -> tuple[str, ...]:
        """The schema columns the model reads."""
        return self.assembler.columns

    def is_stale(self, woe: WoEEncoder, source: ModelPipeline) -> bool:
        return self.woe is not woe or self.source is not source

    def score(self, data: AggregatedDataset) -> np.ndarray:
        return self.pipeline.predict_proba(self.assembler.assemble(data).X)


class IXPScrubber:
    """End-to-end two-step DDoS detector for one vantage point."""

    def __init__(self, config: ScrubberConfig | None = None):
        self.config = config or ScrubberConfig()
        self.rule_set: RuleSet = RuleSet()
        self.item_encoder: Optional[ItemEncoder] = None
        self.woe = WoEEncoder()
        self.pipeline: Optional[ModelPipeline] = None
        self._matcher: Optional[CompiledMatcher] = None
        self._scorer: Optional[CompiledScorer] = None

    def __getstate__(self) -> dict[str, object]:
        # Derived state stays out of pickles (pipe broadcasts, the shm
        # model plane); the receiving process rebuilds it on first use.
        return {**self.__dict__, "_matcher": None, "_scorer": None}

    # ------------------------------------------------------------------
    # Step 1
    # ------------------------------------------------------------------
    def mine_tagging_rules(self, flows: FlowDataset) -> RuleSet:
        """Mine, minimise and stage tagging rules from balanced flows."""
        with obs.span(metric_names.SPAN_SCRUBBER_MINE_RULES):
            result = mine_rules(
                flows,
                min_support=self.config.min_support,
                min_confidence=self.config.min_confidence,
            )
            minimized = minimize_rules(
                result.blackhole_rules,
                confidence_loss=self.config.confidence_loss,
                support_loss=self.config.support_loss,
            )
            self.item_encoder = result.encoder
            fresh = RuleSet.from_mining(minimized, result.encoder)
            if self.config.auto_accept_rules:
                for rule in fresh:
                    fresh.set_status(rule.rule_id, RuleStatus.ACCEPT)
            # Merge into any existing curated set (grows over time, §5.1.2).
            self.rule_set = self.rule_set.merge(fresh)
        obs.counter(metric_names.C_SCRUBBER_RULES_ACCEPTED).inc(
            len(self.rule_set.accepted())
        )
        return self.rule_set

    @property
    def accepted_rules(self) -> list[TaggingRule]:
        return self.rule_set.accepted()

    def _compiled_rules(self) -> CompiledMatcher:
        """The accepted rules compiled for tagging: one build per model
        epoch or per curation change."""
        rules = self.accepted_rules
        if self._matcher is None or self._matcher.is_stale(rules):
            self._matcher = CompiledMatcher(rules)
        return self._matcher

    # ------------------------------------------------------------------
    # Step 2
    # ------------------------------------------------------------------
    def aggregate_flows(self, flows: FlowDataset) -> AggregatedDataset:
        """Aggregate flows to per-target records, annotating rule tags."""
        return aggregate(flows, rules=self._compiled_rules())

    def fit_aggregated(self, data: AggregatedDataset) -> "IXPScrubber":
        """Fit WoE and the classifier pipeline on aggregated records."""
        self.woe = WoEEncoder().fit(data)
        matrix = assemble(data, self.woe)
        self.pipeline = make_pipeline(self.config.model, **self.config.model_params)
        self.pipeline.fit(matrix.X, matrix.y)
        return self

    def fit(self, balanced_flows: FlowDataset) -> "IXPScrubber":
        """Full training: mine rules, aggregate, fit WoE + classifier."""
        with obs.span(metric_names.SPAN_SCRUBBER_FIT):
            self.mine_tagging_rules(balanced_flows)
            data = self.aggregate_flows(balanced_flows)
            return self.fit_aggregated(data)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _require_fitted(self) -> ModelPipeline:
        if self.pipeline is None:
            raise RuntimeError("IXPScrubber is not fitted")
        return self.pipeline

    def feature_matrix(self, data: AggregatedDataset) -> FeatureMatrix:
        """Assemble the WoE-encoded feature matrix for records."""
        return assemble(data, self.woe)

    def predict_aggregated(self, data: AggregatedDataset) -> np.ndarray:
        """Predict labels (0/1) for aggregated records."""
        pipeline = self._require_fitted()
        return pipeline.predict(self.feature_matrix(data).X)

    def _compiled_scorer(self) -> CompiledScorer:
        """The fitted model compiled for scoring: one build per model
        epoch (a refit brings a new encoder and pipeline)."""
        pipeline = self._require_fitted()
        if self._scorer is None or self._scorer.is_stale(self.woe, pipeline):
            self._scorer = CompiledScorer.compile(self.woe, pipeline)
        return self._scorer

    def score_aggregated(self, data: AggregatedDataset) -> np.ndarray:
        """P(DDoS) per aggregated record.

        The one encode/score step of every classification path, through
        the epoch's :class:`CompiledScorer`: ``data`` needs only the
        columns the model reads (:meth:`classify_flows_batch` aggregates
        no other), and scoring a bin allocates no matrix.
        """
        scorer = self._compiled_scorer()
        with obs.span(metric_names.SPAN_SCRUBBER_SCORE):
            scores = scorer.score(data)
        obs.counter(metric_names.C_SCRUBBER_RECORDS_SCORED).inc(len(data))
        return scores

    def predict_flows(self, flows: FlowDataset) -> list[TargetVerdict]:
        """Classify raw flows end-to-end into per-target verdicts."""
        return self.classify_flows_batch(flows)

    def classify_flows_batch(
        self,
        flows: FlowDataset,
        min_flows: int = 1,
        threshold: float = 0.5,
    ) -> list[TargetVerdict]:
        """Classify a batch of flows, of one bin or many, into verdicts.

        What both streaming engines run on closed bins (it looks the
        aggregation kernel up as ``aggregate_batch``, :meth:`fit` as
        ``aggregate``: one function, two names for the benchmark's span
        table). Records of distinct bins never merge, so the verdicts of
        a multi-bin batch are those of its bins one by one, ordered by
        (bin, target). The kernel builds only the records that get a
        verdict, those of at least ``min_flows`` flows, and only the
        columns the compiled model reads.
        """
        if len(flows) == 0:
            return []
        scorer = self._compiled_scorer()
        data = aggregate_batch(
            flows, rules=self._compiled_rules(), min_flows=min_flows, columns=scorer.columns
        )
        return self.classify_aggregated(data, threshold=threshold)

    def classify_aggregated(
        self, data: AggregatedDataset, threshold: float = 0.5
    ) -> list[TargetVerdict]:
        """Score already-aggregated records into per-target verdicts.

        The scoring tail of :meth:`classify_flows_batch`, shared with
        the sketch-mode coordinator of :mod:`repro.core.parallel`,
        which builds its (full) records from merged worker sketches
        instead of aggregating raw flows.
        """
        if len(data) == 0:
            return []
        return build_verdicts(data, self.score_aggregated(data), threshold)

    def generate_acls(self, verdicts: Sequence[TargetVerdict]) -> list[TaggingRule]:
        """ACLs to install for positive verdicts (matched accepted rules).

        Only rules that actually matched flows of DDoS-classified targets
        are returned; for positives without rule matches the operator can
        still rate-limit by target (paper §6.6).
        """
        needed = {
            rule_id for v in verdicts if v.is_ddos for rule_id in v.matched_rules
        }
        return [r for r in self.accepted_rules if r.rule_id in needed]

    # ------------------------------------------------------------------
    # Model transfer (§6.4)
    # ------------------------------------------------------------------
    def transfer_classifier_from(self, other: "IXPScrubber") -> "IXPScrubber":
        """Adopt another vantage point's classifier, keep local WoE.

        This is the paper's key transfer result: WoE encapsulates local
        knowledge (reflector IPs, member ports), so moving only the
        classifier retains performance across geographies.
        """
        other_pipeline = other._require_fitted()
        if not self.woe.is_fitted:
            raise RuntimeError("local WoE must be fitted before transfer")
        transferred = IXPScrubber(other.config)
        transferred.rule_set = self.rule_set
        transferred.item_encoder = self.item_encoder
        transferred.woe = self.woe
        # The numeric transformer chain travels with the classifier (its
        # fitted feature selection defines the classifier's input
        # width); only the WoE tables — the local knowledge — stay local.
        transferred.pipeline = other_pipeline
        return transferred
