"""The full-width classify body the compiled scorer must equal bit for bit.

``IXPScrubber.classify_flows_batch`` once did exactly this: aggregate
every (bin, target) record on all 150 columns, drop the records below
``min_flows``, assemble the 150-column WoE matrix and score it through
the whole fitted pipeline (FR -> I -> ... -> C). The scrubber now
compiles one scorer per model epoch and pushes ``min_flows`` and the
model's column set into aggregation, so the engines' equivalence
shadow and the benchmark's reference replay run the compiled path too;
this module is what keeps an independent reading of it.
"""

from __future__ import annotations

from repro.core.encoding.matrix import assemble
from repro.core.features.aggregation import aggregate
from repro.core.scrubber import IXPScrubber, TargetVerdict, build_verdicts
from repro.netflow.dataset import FlowDataset


def reference_classify(
    scrubber: IXPScrubber,
    flows: FlowDataset,
    min_flows: int = 1,
    threshold: float = 0.5,
) -> list[TargetVerdict]:
    if scrubber.pipeline is None:
        raise RuntimeError("IXPScrubber is not fitted")
    if len(flows) == 0:
        return []
    data = aggregate(flows, rules=scrubber.accepted_rules)
    if min_flows > 1:
        data = data.select(data.n_flows >= min_flows)
    if len(data) == 0:
        return []
    scores = scrubber.pipeline.predict_proba(assemble(data, scrubber.woe).X)
    return build_verdicts(data, scores, threshold)
