"""Pass registry: every project-contract pass the runner executes."""

from __future__ import annotations

from repro.analysis.passes.determinism import DeterminismPass
from repro.analysis.passes.durability import DurabilityPass
from repro.analysis.passes.layering import LayeringPass
from repro.analysis.passes.obs_names import ObsNamesPass
from repro.analysis.passes.resource_lifecycle import ResourceLifecyclePass
from repro.analysis.passes.shard_safety import ShardSafetyPass

__all__ = ["ALL_PASSES", "DeterminismPass", "DurabilityPass",
           "LayeringPass", "ObsNamesPass", "ResourceLifecyclePass",
           "ShardSafetyPass"]

#: Instantiable passes in execution order. Each exposes ``name``,
#: ``rule_ids`` and ``run(project, config) -> list[Finding]``.
ALL_PASSES = (
    DeterminismPass,
    ShardSafetyPass,
    LayeringPass,
    ObsNamesPass,
    DurabilityPass,
    ResourceLifecyclePass,
)
