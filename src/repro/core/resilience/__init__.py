"""Fault-tolerant shard execution (``repro.core.resilience``).

The supervision layer that turns the sharded engine of
:mod:`repro.core.parallel` from a benchmark artifact into an operable
subsystem: an always-on detector at an IXP must survive worker crashes,
hangs and corrupted pipes without dropping (or changing!) a single
verdict. See ``docs/ARCHITECTURE.md`` §5.5 for the failure model and
``docs/TESTING.md`` for the fault-injection how-to.

* :class:`SupervisedProcessBackend` — per-request deadlines, automatic
  worker restart with model re-broadcast, bounded batch retry,
  poison-batch quarantine, and graceful degradation to serial
  execution after a restart budget is exhausted;
* :class:`FaultPlan` / :class:`FaultSpec` — deterministic, seeded fault
  injection (crash-on-nth-batch, hang, slow shard, pipe corruption),
  parseable from the ``REPRO_FAULTS`` environment variable.
"""

from repro.core.resilience.faults import (
    DISK_FAULT_KINDS,
    FAULT_KINDS,
    FAULTS_ENV,
    WORKER_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.core.resilience.supervisor import SupervisedProcessBackend

__all__ = [
    "DISK_FAULT_KINDS",
    "FAULT_KINDS",
    "FAULTS_ENV",
    "WORKER_FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "SupervisedProcessBackend",
]
