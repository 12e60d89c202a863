"""Catalogue of every metric and span name emitted by the pipeline.

All instrumented code imports its names from here instead of spelling
string literals inline. That buys two things:

* one place to read the full observability surface (mirrored, with
  units and emission sites, in ``docs/METRICS.md``), and
* a lintable contract — ``tests/test_docs_lint.py`` fails if a name in
  this catalogue (or a literal that bypasses it) is missing from the
  documentation.

Naming convention: ``<component>.<noun>`` with dots as separators
(sanitised to underscores in the Prometheus exposition). Counters count
events, gauges are levels, spans are histograms of seconds under the
span's own name.
"""

from __future__ import annotations

__all__ = ["ALL_COUNTERS", "ALL_GAUGES", "ALL_SPANS", "ALL_NAMES"]

# -- counters ----------------------------------------------------------
C_STREAMING_FLOWS_INGESTED = "streaming.flows_ingested"
C_STREAMING_LATE_FLOWS = "streaming.late_flows"
C_STREAMING_BINS_CLOSED = "streaming.bins_closed"
C_STREAMING_VERDICTS_EMITTED = "streaming.verdicts_emitted"
C_STREAMING_DDOS_VERDICTS = "streaming.ddos_verdicts"
C_STREAMING_RETRAININGS = "streaming.retrainings"
C_STREAMING_DRIFT_TRIPS = "streaming.drift_trips"
C_CHECKPOINT_SAVES = "checkpoint.saves"
C_CHECKPOINT_FAILURES = "checkpoint.failures"
C_CHECKPOINT_JOURNAL_APPENDS = "checkpoint.journal_appends"
C_CHECKPOINT_VERDICTS_SUPPRESSED = "checkpoint.verdicts_suppressed"
C_CHECKPOINT_SNAPSHOTS_REJECTED = "checkpoint.snapshots_rejected"
C_CHECKPOINT_RESUMES = "checkpoint.resumes"
C_LABELING_FLOWS_IN = "labeling.flows_in"
C_LABELING_FLOWS_KEPT = "labeling.flows_kept"
C_RULES_TRANSACTIONS = "rules.transactions"
C_RULES_DISTINCT_TRANSACTIONS = "rules.distinct_transactions"
C_RULES_FREQUENT_ITEMSETS = "rules.frequent_itemsets"
C_RULES_GENERATED = "rules.rules_generated"
C_RULES_BLACKHOLE = "rules.blackhole_rules"
C_SCRUBBER_RULES_ACCEPTED = "scrubber.rules_accepted"
C_SCRUBBER_RECORDS_SCORED = "scrubber.records_scored"
C_FEATURES_RECORDS_AGGREGATED = "features.records_aggregated"
C_ENCODING_ROWS_ASSEMBLED = "encoding.rows_assembled"
C_DRIFT_MODELS_TRAINED = "drift.models_trained"
C_DRIFT_DAYS_SCORED = "drift.days_scored"
C_MODELS_TREES_BUILT = "models.trees_built"
C_MODELS_KERNEL_COMPILES = "models.kernel_compiles"
C_MODELS_HISTOGRAM_ROWS = "models.histogram_rows"
C_PARALLEL_FLOWS_DISPATCHED = "parallel.flows_dispatched"
C_PARALLEL_SHARD_FLOWS = "parallel.shard_flows"
C_PARALLEL_MODEL_BROADCASTS = "parallel.model_broadcasts"
C_PARALLEL_BROADCAST_BYTES = "parallel.broadcast_bytes"
C_PARALLEL_EQUIVALENCE_CHECKS = "parallel.equivalence_checks"
C_PARALLEL_IPC_RING_BYTES = "parallel.ipc_ring_bytes"
C_PARALLEL_IPC_FALLBACKS = "parallel.ipc_fallbacks"
C_RESILIENCE_WORKER_RESTARTS = "resilience.worker_restarts"
C_RESILIENCE_BATCH_RETRIES = "resilience.batch_retries"
C_RESILIENCE_BATCHES_QUARANTINED = "resilience.batches_quarantined"
C_RESILIENCE_DEADLINE_MISSES = "resilience.deadline_misses"
C_RESILIENCE_FAULTS_INJECTED = "resilience.faults_injected"
C_SKETCH_FLOWS_ABSORBED = "sketch.flows_absorbed"
C_SKETCH_MERGES = "sketch.merges"
C_SKETCH_RECORDS_BUILT = "sketch.records_built"
C_SKETCH_TARGETS_UNTRACKED = "sketch.targets_untracked"
C_SCENARIO_RUNS = "scenario.runs"
C_SCENARIO_WORKLOAD_FLOWS = "scenario.workload_flows"
C_SCENARIO_ATTACK_FLOWS = "scenario.attack_flows"
C_SCENARIO_ATTACKS_INJECTED = "scenario.attacks_injected"
C_SCENARIO_CHECKS_FAILED = "scenario.checks_failed"

# -- gauges ------------------------------------------------------------
G_STREAMING_TRAINING_FLOWS = "streaming.training_flows"
G_STREAMING_OPEN_BINS = "streaming.open_bins"
G_STREAMING_PENDING_LABEL_BINS = "streaming.pending_label_bins"
G_STREAMING_DAY_BUFFERS = "streaming.day_buffers"
G_CHECKPOINT_STATE_BYTES = "checkpoint.state_bytes"
G_CHECKPOINT_RESUME_LAG_TICKS = "checkpoint.resume_lag_ticks"
G_LABELING_LAST_REDUCTION = "labeling.last_reduction"
G_MODELS_ENSEMBLE_NODES = "models.ensemble_nodes"
G_PARALLEL_SHARDS = "parallel.shards"
G_PARALLEL_IPC_RING_CAPACITY = "parallel.ipc_ring_capacity_bytes"
G_RESILIENCE_DEGRADED_SHARDS = "resilience.degraded_shards"
G_SKETCH_MEMORY_BYTES = "sketch.memory_bytes"
G_SKETCH_ERROR_BOUND = "sketch.error_bound"
G_SCENARIO_ACTIVE_USERS = "scenario.active_users"

# -- spans (histograms of seconds) -------------------------------------
SPAN_STREAMING_INGEST = "streaming.ingest"
SPAN_STREAMING_CLOSE_BIN = "streaming.close_bin"
SPAN_STREAMING_CLASSIFY_BIN = "streaming.classify_bin"
SPAN_STREAMING_LABEL_BIN = "streaming.label_bin"
SPAN_STREAMING_RETRAIN = "streaming.retrain"
SPAN_CHECKPOINT_SAVE = "checkpoint.save"
SPAN_CHECKPOINT_RESTORE = "checkpoint.restore"
SPAN_SCRUBBER_FIT = "scrubber.fit"
SPAN_SCRUBBER_MINE_RULES = "scrubber.mine_rules"
SPAN_SCRUBBER_SCORE = "scrubber.score"
SPAN_LABELING_BALANCE = "labeling.balance"
SPAN_MODELS_FIT = "models.fit"
SPAN_MODELS_PREDICT = "models.predict"
SPAN_RULES_MINE = "rules.mine"
SPAN_FEATURES_AGGREGATE = "features.aggregate"
SPAN_ENCODING_WOE_FIT = "encoding.woe_fit"
SPAN_ENCODING_ASSEMBLE = "encoding.assemble"
SPAN_PARALLEL_CLASSIFY = "parallel.classify"
SPAN_PARALLEL_SHARD_CLASSIFY = "parallel.shard_classify"
SPAN_PARALLEL_MERGE = "parallel.merge"
SPAN_RESILIENCE_RESTART = "resilience.restart_worker"
SPAN_DRIFT_ONE_SHOT = "drift.one_shot"
SPAN_DRIFT_SLIDING_WINDOW = "drift.sliding_window"
SPAN_DRIFT_TRANSFER = "drift.transfer"
SPAN_SKETCH_INGEST = "sketch.ingest"
SPAN_SKETCH_MERGE = "sketch.merge"
SPAN_SKETCH_BUILD = "sketch.build_records"
SPAN_SCENARIO_BUILD = "scenario.build"
SPAN_SCENARIO_RUN = "scenario.run"
SPAN_SCENARIO_SCORE = "scenario.score"

ALL_COUNTERS: tuple[str, ...] = tuple(
    v for k, v in sorted(globals().items()) if k.startswith("C_")
)
ALL_GAUGES: tuple[str, ...] = tuple(
    v for k, v in sorted(globals().items()) if k.startswith("G_")
)
ALL_SPANS: tuple[str, ...] = tuple(
    v for k, v in sorted(globals().items()) if k.startswith("SPAN_")
)
ALL_NAMES: tuple[str, ...] = ALL_COUNTERS + ALL_GAUGES + ALL_SPANS
