"""IXP Scrubber reproduction.

A from-scratch Python implementation of *IXP Scrubber: Learning from
Blackholing Traffic for ML-Driven DDoS Detection at Scale* (SIGCOMM
2022), including every substrate the system depends on: flow records,
BGP blackholing, an IXP fabric simulator, benign/DDoS traffic
generation, and all ML components (WoE encoding, FP-Growth rule mining,
gradient-boosted trees, and more) on plain numpy.

Quickstart::

    import numpy as np
    from repro import (
        IXPFabric, IXP_SE, WorkloadGenerator, balance, IXPScrubber,
    )

    fabric = IXPFabric(IXP_SE)
    capture = WorkloadGenerator(fabric).generate(start_day=0, n_days=3)
    flows = capture.labeled_flows()
    balanced = balance(flows, np.random.default_rng(0))
    scrubber = IXPScrubber().fit(balanced.flows)
    verdicts = scrubber.predict_flows(balanced.flows)
"""

from repro import obs
from repro.core import (
    Explanation,
    IXPScrubber,
    ScrubberConfig,
    TargetVerdict,
    explain_record,
    geographic_transfer,
    one_shot_evaluation,
    reflector_overlap_matrix,
    rule_overlap,
    sliding_window_evaluation,
)
from repro.core.features import AggregatedDataset, aggregate
from repro.core.persistence import load_scrubber, save_scrubber
from repro.core.streaming import StreamingScrubber, StreamingStats
from repro.core.labeling import BalancedDataset, balance
from repro.core.models import (
    ConfusionMatrix,
    GradientBoostedTrees,
    ModelPipeline,
    fbeta_score,
    make_pipeline,
)
from repro.core.rules import (
    RuleSet,
    RuleStatus,
    TaggingRule,
    export_acl,
    export_flowspec,
    mine_rules,
    minimize_rules,
)
from repro.ixp import ALL_PROFILES, IXP_CE1, IXP_CE2, IXP_SE, IXP_US1, IXP_US2, IXPFabric
from repro.netflow import FlowDataset, FlowRecord
from repro.traffic import BooterSimulator, WorkloadCapture, WorkloadGenerator

__version__ = "1.0.0"

__all__ = [
    "ALL_PROFILES",
    "AggregatedDataset",
    "BalancedDataset",
    "BooterSimulator",
    "ConfusionMatrix",
    "Explanation",
    "FlowDataset",
    "FlowRecord",
    "GradientBoostedTrees",
    "IXPFabric",
    "IXPScrubber",
    "IXP_CE1",
    "IXP_CE2",
    "IXP_SE",
    "IXP_US1",
    "IXP_US2",
    "ModelPipeline",
    "RuleSet",
    "RuleStatus",
    "ScrubberConfig",
    "TaggingRule",
    "TargetVerdict",
    "WorkloadCapture",
    "WorkloadGenerator",
    "aggregate",
    "balance",
    "explain_record",
    "fbeta_score",
    "geographic_transfer",
    "load_scrubber",
    "make_pipeline",
    "mine_rules",
    "minimize_rules",
    "StreamingScrubber",
    "StreamingStats",
    "obs",
    "export_acl",
    "export_flowspec",
    "save_scrubber",
    "one_shot_evaluation",
    "reflector_overlap_matrix",
    "rule_overlap",
    "sliding_window_evaluation",
    "__version__",
]
