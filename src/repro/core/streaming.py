"""Online deployment engine: continuous learning, per-bin detection.

The paper's recommended operating mode (§6.3) is daily retraining on a
sliding one-month window of balanced blackholing data while classifying
live traffic per minute. :class:`StreamingScrubber` operationalises
exactly that loop:

* **ingest(flows, updates)** — feed captured flows and the BGP feed as
  they arrive (any chunking, in time order);
* per closed one-minute bin, the engine classifies all significant
  target aggregates with the current model and emits
  :class:`~repro.core.scrubber.TargetVerdict`s;
* labeled + balanced training data accumulates in a ring of daily
  buffers; once per (simulated) day the model retrains on the trailing
  window — entirely from the blackholing signal, no operator input.

The engine is deterministic given its seed and the input streams.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

import numpy as np

from repro import obs
from repro.bgp.blackhole import BlackholeRegistry
from repro.bgp.messages import Update
from repro.core.drift import DriftTracker
from repro.core.labeling.balancer import balance
from repro.core.scrubber import IXPScrubber, ScrubberConfig, TargetVerdict
from repro.netflow.dataset import BIN_SECONDS, FlowDataset
from repro.obs import names


class StreamingStats:
    """Compatibility view over the engine's metric registry.

    Historically a mutable dataclass of ad-hoc counters; the counts now
    live in a :class:`repro.obs.MetricRegistry` (see ``docs/METRICS.md``)
    and this view preserves the old read API — ``engine.stats.bins_closed``
    keeps working for dashboards and tests.
    """

    _COUNTERS = {
        "flows_ingested": names.C_STREAMING_FLOWS_INGESTED,
        "bins_closed": names.C_STREAMING_BINS_CLOSED,
        "verdicts_emitted": names.C_STREAMING_VERDICTS_EMITTED,
        "ddos_verdicts": names.C_STREAMING_DDOS_VERDICTS,
        "retrainings": names.C_STREAMING_RETRAININGS,
    }
    _GAUGES = {
        "training_flows": names.G_STREAMING_TRAINING_FLOWS,
    }

    def __init__(self, registry: obs.MetricRegistry):
        self._registry = registry

    def __getattr__(self, attr: str) -> int:
        name = self._COUNTERS.get(attr) or self._GAUGES.get(attr)
        if name is None:
            raise AttributeError(attr)
        metric = self._registry.get(name)
        return int(metric.value) if metric is not None else 0

    def as_dict(self) -> dict[str, int]:
        """All legacy counter names and their current values."""
        return {
            attr: getattr(self, attr)
            for attr in (*self._COUNTERS, *self._GAUGES)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"StreamingStats({body})"


class StreamingScrubber:
    """Continuously learning, per-bin detecting scrubber.

    The sharded coordinator in :mod:`repro.core.parallel` subclasses it
    and overrides only how closed bins are classified, so drivers (CLI,
    benchmarks, tests) hold either with the same calls and the same
    ``with`` block.
    """

    def __init__(
        self,
        config: Optional[ScrubberConfig] = None,
        window_days: int = 7,
        bins_per_day: int = 96,
        min_flows_per_verdict: int = 5,
        seed: int = 0,
        label_grace_bins: int = 10,
        registry: Optional[obs.MetricRegistry] = None,
    ):
        """
        Parameters
        ----------
        config:
            Scrubber configuration (model, mining thresholds).
        window_days:
            Length of the sliding training window in (simulated) days.
        bins_per_day:
            One-minute bins per simulated day (matches the workload's
            time compression).
        min_flows_per_verdict:
            Aggregates below this flow count are not classified —
            they are below any mitigation concern.
        label_grace_bins:
            A bin's flows only enter the training buffer after this many
            further bins have closed, so late blackhole announcements
            (reaction delay) can still label them.
        registry:
            Metric registry this engine records into. Defaults to a
            private registry per engine so independent engines never mix
            counters; pass a shared one to aggregate across engines.
            The registry is *activated* for the duration of every
            ``ingest``/``flush`` call, so nested pipeline stages
            (balancing, mining, encoding) record into it too.
        """
        if window_days < 1:
            raise ValueError("window_days must be >= 1")
        if bins_per_day < 1:
            raise ValueError("bins_per_day must be >= 1")
        self.config = config or ScrubberConfig()
        self.window_days = window_days
        self.bins_per_day = bins_per_day
        self.min_flows_per_verdict = min_flows_per_verdict
        self.label_grace_bins = label_grace_bins
        self.registry = registry if registry is not None else obs.MetricRegistry()
        self.stats = StreamingStats(self.registry)

        self._rng = np.random.default_rng(seed)
        self._blackholes = BlackholeRegistry()
        self._scrubber: Optional[IXPScrubber] = None
        #: Open per-bin flow buffers, keyed by bin index (time // 60).
        self._open_bins: "OrderedDict[int, list[FlowDataset]]" = OrderedDict()
        #: Closed-but-unlabeled bins awaiting the grace period.
        self._pending_label: "OrderedDict[int, FlowDataset]" = OrderedDict()
        #: Balanced training flows per day index.
        self._day_buffers: "OrderedDict[int, list[FlowDataset]]" = OrderedDict()
        self._last_trained_day: Optional[int] = None
        self._horizon = 0
        #: Observational drift detector over the per-bin verdict mix.
        self._drift = DriftTracker()
        # Metric dedupe state: a bin can close more than once when late
        # flows re-open it at a bin boundary; the counters below must
        # count each bin / (bin, target) verdict once. One int / small
        # tuple per unit over the engine lifetime — negligible here.
        self._counted_bins: set[int] = set()
        self._counted_verdicts: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    @property
    def is_ready(self) -> bool:
        """True once a model has been trained."""
        return self._scrubber is not None

    @property
    def model(self) -> Optional[IXPScrubber]:
        return self._scrubber

    def warm_start(self, scrubber: IXPScrubber) -> "StreamingScrubber":
        """Deploy a pre-fitted scrubber as the current model.

        The operator's deploy-with-model path (and the harness's way to
        skip the bootstrap day): classification starts immediately while
        the daily retrain loop continues unchanged.
        """
        scrubber._require_fitted()
        self._scrubber = scrubber
        return self

    @property
    def ipc_mode(self) -> str:
        """Transport moving shard batches: ``"inline"`` when in-process.

        The sharded coordinator reports its backend's transport
        (``"pipe"`` or ``"shm"`` — see ``docs/IPC.md``).
        """
        return "inline"

    def close(self) -> None:
        """Release execution resources (idempotent).

        No-op here; the sharded coordinator overrides it to stop its
        worker processes.
        """

    def __enter__(self) -> "StreamingScrubber":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """JSON-safe snapshot of all mutable state (see ``core.recovery``)."""
        from repro.core.recovery.state_codec import capture_engine_state

        return capture_engine_state(self)

    def restore_state(self, state: dict) -> "StreamingScrubber":
        """Restore a :meth:`capture_state` snapshot onto this engine.

        The engine must be freshly constructed with the same parameters
        the snapshot was taken under; raises
        :class:`~repro.core.recovery.errors.CheckpointConfigError`
        otherwise.
        """
        from repro.core.recovery.state_codec import restore_engine_state

        restore_engine_state(self, state)
        return self

    # ------------------------------------------------------------------
    def ingest(
        self,
        flows: FlowDataset,
        updates: Iterable[Update] = (),
    ) -> list[TargetVerdict]:
        """Feed a chunk of captured traffic and BGP updates.

        Flows and updates must arrive in (approximately) time order
        across calls: a bin closes when a strictly later bin receives
        traffic. Returns the verdicts for all bins closed by this chunk.
        """
        with obs.use_registry(self.registry), obs.span(names.SPAN_STREAMING_INGEST):
            for update in updates:
                self._blackholes.apply(update)
            verdicts: list[TargetVerdict] = []
            if len(flows):
                obs.counter(names.C_STREAMING_FLOWS_INGESTED).inc(len(flows))
                self._horizon = max(self._horizon, int(flows.time.max()) + 1)
                bins = flows.time // BIN_SECONDS
                for bin_id in np.unique(bins):
                    chunk = flows.select(bins == bin_id)
                    self._open_bins.setdefault(int(bin_id), []).append(chunk)
                verdicts.extend(self._close_bins(int(bins.max())))
            self._update_level_gauges()
        return verdicts

    def flush(self) -> list[TargetVerdict]:
        """Close all open bins (end of stream)."""
        with obs.use_registry(self.registry), obs.span(names.SPAN_STREAMING_INGEST):
            verdicts = self._close_bins(None)
            self._label_pending(force=True)
            self._update_level_gauges()
        return verdicts

    def _update_level_gauges(self) -> None:
        obs.gauge(names.G_STREAMING_OPEN_BINS).set(len(self._open_bins))
        obs.gauge(names.G_STREAMING_PENDING_LABEL_BINS).set(len(self._pending_label))
        obs.gauge(names.G_STREAMING_DAY_BUFFERS).set(len(self._day_buffers))

    # ------------------------------------------------------------------
    def _close_bins(self, current_bin: Optional[int]) -> list[TargetVerdict]:
        closed = self._pop_closeable(current_bin)
        verdicts = self._classify_closed(closed)
        self._observe_drift(verdicts)
        self._label_pending(force=False, current_bin=current_bin)
        return verdicts

    @property
    def drift_trips(self) -> int:
        """Times the verdict-mix drift detector has tripped so far."""
        return self._drift.trips

    def _observe_drift(self, verdicts: list[TargetVerdict]) -> None:
        """Feed the drift tracker one DDoS-share sample per scored bin."""
        if not verdicts:
            return
        by_bin: dict[int, list[TargetVerdict]] = {}
        for v in verdicts:
            by_bin.setdefault(v.bin, []).append(v)
        for bin_id in sorted(by_bin):
            group = by_bin[bin_id]
            share = sum(1 for v in group if v.is_ddos) / len(group)
            if self._drift.observe(share):
                obs.counter(names.C_STREAMING_DRIFT_TRIPS).inc()

    def _pop_closeable(
        self, current_bin: Optional[int]
    ) -> list[tuple[int, FlowDataset]]:
        """Pop every bin older than ``current_bin`` and enqueue for labeling."""
        closed: list[tuple[int, FlowDataset]] = []
        closeable = [
            b
            for b in self._open_bins
            if current_bin is None or b < current_bin
        ]
        for bin_id in sorted(closeable):
            with obs.span(names.SPAN_STREAMING_CLOSE_BIN):
                parts = self._open_bins.pop(bin_id)
                bin_flows = FlowDataset.concat(parts)
                if bin_id not in self._counted_bins:
                    self._counted_bins.add(bin_id)
                    obs.counter(names.C_STREAMING_BINS_CLOSED).inc()
                self._pending_label[bin_id] = bin_flows
                closed.append((bin_id, bin_flows))
        return closed

    def _classify_closed(
        self, closed: list[tuple[int, FlowDataset]]
    ) -> list[TargetVerdict]:
        """Classify the freshly closed bins (overridden by the sharded engine)."""
        verdicts: list[TargetVerdict] = []
        for _, bin_flows in closed:
            verdicts.extend(self._classify_bin(bin_flows))
        return verdicts

    def _classify_bin(self, bin_flows: FlowDataset) -> list[TargetVerdict]:
        if self._scrubber is None or len(bin_flows) == 0:
            return []
        with obs.span(names.SPAN_STREAMING_CLASSIFY_BIN):
            out = self._scrubber.classify_flows_batch(
                bin_flows, min_flows=self.min_flows_per_verdict
            )
            self._count_verdicts(out)
        return out

    def _count_verdicts(self, verdicts: list[TargetVerdict]) -> None:
        """Bump verdict counters, once per (bin, target) ever seen.

        A re-opened bin is re-classified on its late flows and the
        revised verdicts are still *returned*, but the counters must not
        count the same (bin, target) record twice.
        """
        if not verdicts:
            return
        fresh = [
            v for v in verdicts if (v.bin, v.target_ip) not in self._counted_verdicts
        ]
        self._counted_verdicts.update((v.bin, v.target_ip) for v in fresh)
        obs.counter(names.C_STREAMING_VERDICTS_EMITTED).inc(len(fresh))
        obs.counter(names.C_STREAMING_DDOS_VERDICTS).inc(
            sum(1 for v in fresh if v.is_ddos)
        )

    # ------------------------------------------------------------------
    def _label_pending(
        self, force: bool, current_bin: Optional[int] = None
    ) -> None:
        ready = [
            b
            for b in self._pending_label
            if force
            or (current_bin is not None and b + self.label_grace_bins <= current_bin)
        ]
        for bin_id in sorted(ready):
            with obs.span(names.SPAN_STREAMING_LABEL_BIN):
                bin_flows = self._pending_label.pop(bin_id)
                labeled = self._blackholes.label_flows(bin_flows, horizon=self._horizon)
                balanced = balance(labeled, self._rng)
            if len(balanced.flows) == 0:
                continue
            day = bin_id // self.bins_per_day
            self._day_buffers.setdefault(day, []).append(balanced.flows)
            self._maybe_retrain(day)

    def _maybe_retrain(self, day: int) -> None:
        """Retrain once per day on the trailing window."""
        if self._last_trained_day is not None and day <= self._last_trained_day:
            return
        window_days = [
            d for d in self._day_buffers if day - self.window_days <= d < day
        ]
        if not window_days and self._scrubber is not None:
            return
        parts = [f for d in window_days for f in self._day_buffers[d]]
        if self._scrubber is None:
            # Bootstrap: include the current day's data so the first
            # model appears as early as possible.
            parts = parts + self._day_buffers.get(day, [])
        if not parts:
            return
        training = FlowDataset.concat(parts)
        labels = training.blackhole
        if len(training) < 50 or labels.all() or not labels.any():
            return
        with obs.span(names.SPAN_STREAMING_RETRAIN):
            scrubber = IXPScrubber(self.config)
            scrubber.fit(training)
        self._scrubber = scrubber
        self._last_trained_day = day
        self._drift.rebaseline()
        obs.counter(names.C_STREAMING_RETRAININGS).inc()
        obs.gauge(names.G_STREAMING_TRAINING_FLOWS).set(len(training))
        # Evict buffers that can never be in a future window.
        for d in list(self._day_buffers):
            if d < day - self.window_days:
                del self._day_buffers[d]
