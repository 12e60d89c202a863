"""Sharded parallel streaming execution (``repro.core.parallel``).

Scales the online engine of :mod:`repro.core.streaming` across N worker
shards partitioned by target prefix, with a determinism guarantee:
verdicts are bit-identical to the serial engine for any shard count and
backend (see ``docs/ARCHITECTURE.md`` for why, and
``tests/test_property_invariants.py`` / ``tests/test_golden_traces.py``
for the harness that enforces it).

* :class:`ShardPlan` — target-prefix (/24) hash sharding;
* :class:`ShardedStreamingScrubber` — the coordinator engine;
* :class:`SerialBackend` — where shard work runs in-process (the other
  answer is the fault-tolerant ``supervised`` process backend from
  :mod:`repro.core.resilience`);
* :class:`EquivalenceError` — raised by the debug equivalence shadow.
"""

from repro.core.parallel.backends import SerialBackend, make_backend
from repro.core.parallel.engine import EquivalenceError, ShardedStreamingScrubber
from repro.core.parallel.sharding import ShardPlan

__all__ = [
    "EquivalenceError",
    "SerialBackend",
    "ShardPlan",
    "ShardedStreamingScrubber",
    "make_backend",
]
