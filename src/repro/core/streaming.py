"""Online deployment engine: continuous learning, per-bin detection.

The paper's recommended operating mode (§6.3) is daily retraining on a
sliding one-month window of balanced blackholing data while classifying
live traffic per minute. :class:`StreamingScrubber` operationalises
exactly that loop:

* **ingest(flows, updates)** — feed captured flows and the BGP feed as
  they arrive (any chunking, in time order); a flow may arrive up to
  ``label_grace_bins`` bins late, and a later one is dropped;
* each one-minute bin closes once, when a later bin receives traffic:
  the engine classifies all its significant target aggregates with the
  current model and emits :class:`~repro.core.scrubber.TargetVerdict`s;
* labeled + balanced training data accumulates in a ring of daily
  buffers; once per (simulated) day the model retrains on the trailing
  window — entirely from the blackholing signal, no operator input.

The engine is deterministic given its seed and the input streams.

The *watermark* is the last labelled bin. A flow at or behind it is
dropped (``streaming.late_flows``). A *straggler*, a flow of a closed
bin ahead of it, joins that bin's pending labels: it is labelled and
trained on, never classified, so one (bin, target) gets one verdict.
The engine forgets the blackhole events that end before the next bin to
label, so its state is set by window and grace, not uptime.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro import obs
from repro.bgp.blackhole import BlackholeRegistry
from repro.bgp.messages import Update
from repro.core.drift import DriftTracker
from repro.core.labeling.balancer import balance
from repro.core.scrubber import (
    DaySummary,
    IXPScrubber,
    ScrubberConfig,
    TargetVerdict,
    TrainingWindow,
)
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
            (reaction delay) can still label them. It is the allowed
            lateness too: a flow of a closed bin within it joins that
            bin's labels unclassified, and a later one is dropped.
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
        self._open_bins: dict[int, list[FlowDataset]] = {}
        #: Closed-but-unlabeled bins awaiting the grace period.
        self._pending_label: dict[int, FlowDataset] = {}
        #: Balanced training flows per day index.
        self._day_buffers: dict[int, list[FlowDataset]] = {}
        #: What a retrain reads of each day's buffer, built by the first
        #: retrain that needs it (derived state: never captured).
        self._day_summaries: dict[int, DaySummary] = {}
        self._last_trained_day: Optional[int] = None
        self._horizon = 0
        #: Observational drift detector over the per-bin verdict mix.
        self._drift = DriftTracker()

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
    #: Fields fixed at construction: a snapshot restores only onto an
    #: engine built with equal ones.
    _PARAMS = ("config", "window_days", "bins_per_day", "min_flows_per_verdict", "label_grace_bins")

    def __getstate__(self) -> dict:
        """What a checkpoint carries: every field but the metric views and
        the day summaries a retrain derives; each buffered bin or day as
        one dataset (``concat`` is ``np.concatenate``, so collapsing the
        parts is bitwise-neutral), the RNG as its bit generator's state."""
        state = dict(vars(self))
        for derived in ("registry", "stats", "_day_summaries"):
            del state[derived]
        state["_rng"] = self._rng.bit_generator.state
        state["_open_bins"] = {b: [FlowDataset.concat(p)] for b, p in self._open_bins.items()}
        state["_day_buffers"] = {d: [FlowDataset.concat(p)] for d, p in self._day_buffers.items()}
        return state

    def __setstate__(self, state: dict) -> None:
        rng = np.random.default_rng()
        rng.bit_generator.state = state["_rng"]
        vars(self).update(state, _rng=rng, _day_summaries={})

    def capture_state(self) -> dict:
        """JSON-safe snapshot of all mutable state (see ``core.recovery``)."""
        from repro.core.recovery.state_codec import capture

        return capture(self)

    def restore_state(self, state: dict) -> "StreamingScrubber":
        """Restore a :meth:`capture_state` snapshot onto this engine.

        The engine must have been constructed with the same parameters
        the snapshot was taken under; raises
        :class:`~repro.core.recovery.errors.CheckpointConfigError`
        otherwise, and leaves the engine untouched on any refusal.
        """
        from repro.core.recovery.state_codec import restore

        restore(self, state)
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
        traffic; a flow of a closed bin joins its pending labels, and
        one at or behind the watermark is dropped as late.
        Returns the verdicts for all bins closed by this chunk.
        A one-bin chunk is kept by reference (its columns are read-only),
        so the caller must not write to the arrays it was built from.
        """
        with obs.use_registry(self.registry), obs.span(names.SPAN_STREAMING_INGEST):
            newest, watermark = self._newest_bin(), self._watermark()
            for update in updates:
                self._blackholes.apply(update)
            verdicts: list[TargetVerdict] = []
            if len(flows):
                obs.counter(names.C_STREAMING_FLOWS_INGESTED).inc(len(flows))
                bins = flows.time // BIN_SECONDS
                late = bins <= watermark
                if late.any():
                    obs.counter(names.C_STREAMING_LATE_FLOWS).inc(int(late.sum()))
                    flows, bins = flows.select(~late), bins[~late]
            if len(flows):
                self._horizon = max(self._horizon, int(flows.time.max()) + 1)
                first, last = int(bins.min()), int(bins.max())
                parts = [(first, flows)] if first == last else flows.groups(bins)
                for bin_id, part in parts:
                    if bin_id >= newest:
                        self._open_bins.setdefault(bin_id, []).append(part)
                    else:  # a straggler: labelled with its bin, never classified
                        pending = self._pending_label.get(bin_id, FlowDataset.empty())
                        self._pending_label[bin_id] = FlowDataset.concat([pending, part])
                verdicts.extend(self._close_bins())
            self._update_level_gauges()
        return verdicts

    def flush(self) -> list[TargetVerdict]:
        """Close all open bins and label all pending ones.

        This ends the stream: nothing is ingested after it.
        """
        with obs.use_registry(self.registry), obs.span(names.SPAN_STREAMING_INGEST):
            verdicts = self._close_bins(final=True)
            self._update_level_gauges()
        return verdicts

    def _newest_bin(self) -> int:
        """The newest bin seen, the only one still open."""
        return (self._horizon - 1) // BIN_SECONDS

    def _watermark(self) -> int:
        """The last labelled bin: ``label_grace_bins`` behind the newest."""
        return self._newest_bin() - max(self.label_grace_bins, 1)

    def _update_level_gauges(self) -> None:
        obs.gauge(names.G_STREAMING_OPEN_BINS).set(len(self._open_bins))
        obs.gauge(names.G_STREAMING_PENDING_LABEL_BINS).set(len(self._pending_label))
        obs.gauge(names.G_STREAMING_DAY_BUFFERS).set(len(self._day_buffers))

    # ------------------------------------------------------------------
    def _close_bins(self, final: bool = False) -> list[TargetVerdict]:
        """Close every open bin older than the newest (every one if
        ``final``), classify and count each once, then label the bins
        the watermark has passed (every pending one if ``final``)."""
        newest = self._newest_bin()
        closed: list[tuple[int, FlowDataset]] = []
        for bin_id in sorted(b for b in self._open_bins if final or b < newest):
            with obs.span(names.SPAN_STREAMING_CLOSE_BIN):
                bin_flows = FlowDataset.concat(self._open_bins.pop(bin_id))
                self._pending_label[bin_id] = bin_flows
                closed.append((bin_id, bin_flows))
                obs.counter(names.C_STREAMING_BINS_CLOSED).inc()
        verdicts = self._classify_closed(closed)
        if verdicts:
            obs.counter(names.C_STREAMING_VERDICTS_EMITTED).inc(len(verdicts))
            obs.counter(names.C_STREAMING_DDOS_VERDICTS).inc(
                sum(1 for v in verdicts if v.is_ddos)
            )
        self._observe_drift(verdicts)
        self._label_pending(force=final)
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
            return self._scrubber.classify_flows_batch(
                bin_flows, min_flows=self.min_flows_per_verdict
            )

    # ------------------------------------------------------------------
    def _label_pending(self, force: bool) -> None:
        watermark = self._watermark()
        ready = [b for b in self._pending_label if force or b <= watermark]
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
        # No flow before the next bin is labelled again.
        self._blackholes.prune((watermark + 1) * BIN_SECONDS)

    def _maybe_retrain(self, day: int) -> None:
        """Retrain once per day on the trailing window."""
        if self._last_trained_day is not None and day <= self._last_trained_day:
            return
        days = {
            d: parts
            for d, parts in self._day_buffers.items()
            if day - self.window_days <= d < day
        }
        if not days and self._scrubber is not None:
            return
        if self._scrubber is None and day in self._day_buffers:
            # Bootstrap: include the current day's data so the first
            # model appears as early as possible.
            days[day] = self._day_buffers[day]
        window = TrainingWindow(days, self._day_summaries)
        n_flows = len(window)
        n_blackhole = sum(int(part.blackhole.sum()) for parts in days.values() for part in parts)
        if n_flows < 50 or n_blackhole in (0, n_flows):
            return
        with obs.span(names.SPAN_STREAMING_RETRAIN):
            scrubber = IXPScrubber(self.config)
            scrubber.fit(window)
        self._scrubber = scrubber
        self._last_trained_day = day
        self._drift.rebaseline()
        obs.counter(names.C_STREAMING_RETRAININGS).inc()
        obs.gauge(names.G_STREAMING_TRAINING_FLOWS).set(n_flows)
        # Evict buffers that can never be in a future window.
        for d in list(self._day_buffers):
            if d < day - self.window_days:
                del self._day_buffers[d]
                self._day_summaries.pop(d, None)
