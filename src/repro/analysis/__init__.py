"""Project-aware static analysis for the scrubber codebase.

``repro.analysis`` machine-checks the invariants the runtime's "same
seed, same journal bytes" claim rests on. Six passes run over the AST
of ``src/``:

* **determinism** (RS101–RS104) — no wall-clock reads outside
  ``repro.obs``, no process-global RNG, no salted ``hash()``, no
  unordered-set iteration in the serialization-adjacent layers. These
  protect the bit-identical-verdicts guarantee the parallel and
  resilience layers are built on.
* **shard safety** (RS201–RS203) — a call-graph race detector over the
  code reachable from the shard-worker entry points: writes to module
  globals, class-level attributes, or captured closures there diverge
  per worker process without ever crashing.
* **layering** (RS301–RS302) — the ARCHITECTURE.md import DAG and the
  stdlib+numpy dependency rule.
* **obs-names** (RS401–RS404) — the catalogue / emission / METRICS.md
  triangle stays closed in both directions.
* **durability** (RS501–RS502) — recovery-critical files go through the
  one sanctioned temp+fsync+rename writer.
* **resource lifecycle** (RS601–RS603) — CFG dataflow proof that every
  acquired OS resource (shm segments, rings, journals, file handles,
  worker pools) reaches a release on every path out of the function,
  including the exception edges; it runs on the intraprocedural CFG
  and worklist solver in :mod:`repro.analysis.cfg`.

The one escape hatch is the inline suppression with a reason
(``# repro: lint-ignore[RS101] why``); unexplained or unused ignores
are themselves findings. Entry points: ``repro lint`` (CLI) and
:func:`run_lint` (used by the test suite). An unchanged tree replays
its last report from the fingerprint-keyed cache
(:mod:`repro.analysis.cache`). Each contract lives as a module constant
beside the pass that reads it; ``docs/ANALYSIS.md`` lists, per family,
the invariant, the evidence and the runtime test behind it.

The package deliberately depends on nothing but the stdlib — it sits
at the bottom of the layer DAG it enforces.
"""

from repro.analysis.cache import (
    CACHE_VERSION,
    load_cache,
    report_fingerprint,
    save_cache,
)
from repro.analysis.cfg import CFG, DataflowAnalysis, solve
from repro.analysis.config import LintConfig, default_config
from repro.analysis.findings import RULES, Finding, rule_exists
from repro.analysis.passes import ALL_PASSES
from repro.analysis.project import Module, Project
from repro.analysis.runner import (
    LintResult,
    format_human,
    format_json,
    run_lint,
)
from repro.analysis.suppressions import Suppression, scan_suppressions

__all__ = [
    "ALL_PASSES",
    "CACHE_VERSION",
    "CFG",
    "DataflowAnalysis",
    "Finding",
    "LintConfig",
    "LintResult",
    "Module",
    "Project",
    "RULES",
    "Suppression",
    "default_config",
    "format_human",
    "format_json",
    "load_cache",
    "report_fingerprint",
    "rule_exists",
    "run_lint",
    "save_cache",
    "scan_suppressions",
    "solve",
]
