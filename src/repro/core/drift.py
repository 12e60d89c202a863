"""Temporal and geographic drift evaluation (paper §6.3, §6.4).

These are the reusable evaluation loops behind Fig. 11 (one-shot vs
sliding-window training over time) and Fig. 12 (cross-IXP transfer
matrices). They operate on pre-aggregated records so the expensive
aggregation happens once per corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro import obs
from repro.core.features.aggregation import AggregatedDataset
from repro.core.models.metrics import fbeta_score
from repro.core.scrubber import IXPScrubber, ScrubberConfig
from repro.obs import names as metric_names


def _day_of_bins(bins: np.ndarray, bins_per_day: int) -> np.ndarray:
    return bins // bins_per_day


@dataclass(frozen=True)
class TemporalSeries:
    """Per-day score series for one training regime."""

    label: str
    days: np.ndarray
    scores: np.ndarray

    def median(self) -> float:
        return float(np.median(self.scores)) if self.scores.size else float("nan")

    def minimum(self) -> float:
        return float(self.scores.min()) if self.scores.size else float("nan")


def _fit_on(data: AggregatedDataset, config: ScrubberConfig) -> Optional[IXPScrubber]:
    if len(data) < 10 or len(np.unique(data.labels)) < 2:
        return None
    scrubber = IXPScrubber(config)
    scrubber.fit_aggregated(data)
    obs.counter(metric_names.C_DRIFT_MODELS_TRAINED).inc()
    return scrubber


def _score_day(
    scrubber: Optional[IXPScrubber], day_data: AggregatedDataset
) -> float:
    if scrubber is None or len(day_data) == 0:
        return float("nan")
    predictions = scrubber.predict_aggregated(day_data)
    obs.counter(metric_names.C_DRIFT_DAYS_SCORED).inc()
    return fbeta_score(day_data.labels.astype(int), predictions)


def one_shot_evaluation(
    data: AggregatedDataset,
    bins_per_day: int,
    train_days: int,
    config: ScrubberConfig | None = None,
    eval_start_day: Optional[int] = None,
) -> TemporalSeries:
    """Train once on the first ``train_days``; score every later day.

    Reproduces Fig. 11a for one training-interval length.
    ``eval_start_day`` (relative to the corpus start) pins the first
    scored day so that different training windows are compared on the
    *same* evaluation period; it defaults to the end of the training
    window.
    """
    config = config or ScrubberConfig()
    with obs.span(metric_names.SPAN_DRIFT_ONE_SHOT):
        days = _day_of_bins(data.bins, bins_per_day)
        first_day = int(days.min())
        train_mask = days < first_day + train_days
        scrubber = _fit_on(data.select(train_mask), config)
        if eval_start_day is None:
            eval_start_day = train_days
        if eval_start_day < train_days:
            raise ValueError("evaluation period overlaps the training window")
        eval_days = np.unique(days[days >= first_day + eval_start_day])
        scores = np.array(
            [_score_day(scrubber, data.select(days == d)) for d in eval_days]
        )
    return TemporalSeries(label=f"one-shot-{train_days}d", days=eval_days, scores=scores)


def sliding_window_evaluation(
    data: AggregatedDataset,
    bins_per_day: int,
    window_days: int,
    config: ScrubberConfig | None = None,
    retrain_every: int = 1,
    eval_start_day: Optional[int] = None,
) -> TemporalSeries:
    """Retrain daily on the past ``window_days``; score the current day.

    Reproduces Fig. 11b for one window length. ``retrain_every`` allows
    thinning the retraining cadence for cheap experiment variants;
    ``eval_start_day`` pins the evaluation period (default: directly
    after the first full window).
    """
    config = config or ScrubberConfig()
    with obs.span(metric_names.SPAN_DRIFT_SLIDING_WINDOW):
        days = _day_of_bins(data.bins, bins_per_day)
        unique_days = np.unique(days)
        if unique_days.size < window_days + 1:
            raise ValueError("not enough days for the requested window")
        start = window_days if eval_start_day is None else max(eval_start_day, window_days)
        eval_days = []
        scores = []
        scrubber: Optional[IXPScrubber] = None
        for k, day in enumerate(unique_days[start:]):
            if scrubber is None or k % retrain_every == 0:
                train_mask = (days >= day - window_days) & (days < day)
                scrubber = _fit_on(data.select(train_mask), config)
            eval_days.append(int(day))
            scores.append(_score_day(scrubber, data.select(days == day)))
    return TemporalSeries(
        label=f"sliding-{window_days}d",
        days=np.asarray(eval_days),
        scores=np.asarray(scores),
    )


@dataclass(frozen=True)
class TransferMatrix:
    """Fig. 12 result: train-site x test-site score matrix."""

    train_sites: tuple[str, ...]
    test_sites: tuple[str, ...]
    scores: np.ndarray  # (train, test)

    def score(self, train: str, test: str) -> float:
        return float(
            self.scores[self.train_sites.index(train), self.test_sites.index(test)]
        )


def geographic_transfer(
    train_sets: Mapping[str, AggregatedDataset],
    test_sets: Mapping[str, AggregatedDataset],
    config: ScrubberConfig | None = None,
    keep_local_woe: bool = False,
) -> TransferMatrix:
    """Train at each site, evaluate at every site (Fig. 12 left/right).

    With ``keep_local_woe=False`` the entire fitted model (incl. WoE)
    moves between sites — the naive transfer that degrades. With
    ``keep_local_woe=True`` each test site re-fits its *own* WoE on its
    training data and only adopts the remote classifier, reproducing the
    paper's key result.
    """
    config = config or ScrubberConfig()
    with obs.span(metric_names.SPAN_DRIFT_TRANSFER):
        return _geographic_transfer(train_sets, test_sets, config, keep_local_woe)


def _geographic_transfer(
    train_sets: Mapping[str, AggregatedDataset],
    test_sets: Mapping[str, AggregatedDataset],
    config: ScrubberConfig,
    keep_local_woe: bool,
) -> TransferMatrix:
    train_sites = tuple(train_sets)
    test_sites = tuple(test_sets)
    # Fit one scrubber per training site.
    fitted: dict[str, Optional[IXPScrubber]] = {
        site: _fit_on(train_sets[site], config) for site in train_sites
    }
    local: dict[str, Optional[IXPScrubber]] = {}
    if keep_local_woe:
        local = {site: _fit_on(train_sets[site], config) for site in test_sites}

    scores = np.full((len(train_sites), len(test_sites)), np.nan)
    for i, train_site in enumerate(train_sites):
        source = fitted[train_site]
        if source is None:
            continue
        for j, test_site in enumerate(test_sites):
            test_data = test_sets[test_site]
            if len(test_data) == 0:
                continue
            if keep_local_woe and train_site != test_site:
                receiver = local[test_site]
                if receiver is None:
                    continue
                model = receiver.transfer_classifier_from(source)
            else:
                model = source
            predictions = model.predict_aggregated(test_data)
            scores[i, j] = fbeta_score(test_data.labels.astype(int), predictions)
    return TransferMatrix(train_sites=train_sites, test_sites=test_sites, scores=scores)


def reflector_overlap_matrix(
    scrubbers: Mapping[str, IXPScrubber], threshold: float = 1.0
) -> TransferMatrix:
    """Fig. 12 (middle): overlap of high-WoE source IPs between sites.

    For each pair of sites, the share of site A's likely reflectors
    (src_ip WoE > threshold) that also appear as likely reflectors at
    site B.
    """
    sites = tuple(scrubbers)
    reflector_sets = {
        site: scrubbers[site].woe.table("src_ip").high_evidence_values(threshold)
        for site in sites
    }
    scores = np.zeros((len(sites), len(sites)))
    for i, a in enumerate(sites):
        for j, b in enumerate(sites):
            if not reflector_sets[a]:
                scores[i, j] = np.nan
                continue
            scores[i, j] = len(reflector_sets[a] & reflector_sets[b]) / len(
                reflector_sets[a]
            )
    return TransferMatrix(train_sites=sites, test_sites=sites, scores=scores)


# ----------------------------------------------------------------------
# Online drift tracking (streaming engine)
# ----------------------------------------------------------------------
#: EWMA weight of the newest bin's DDoS-verdict share.
DRIFT_ALPHA = 0.25
#: Distance of the EWMA from its baseline that counts toward a trip.
DRIFT_THRESHOLD = 0.08
#: Observed bins before the EWMA is frozen as the first baseline.
DRIFT_WARMUP_BINS = 12
#: Bins in a row past :data:`DRIFT_THRESHOLD` that trip the tracker.
DRIFT_CONSECUTIVE = 3


class DriftTracker:
    """Streaming detector for drift in the per-bin verdict mix.

    The offline loops above measure drift between *models*; this tracker
    watches the live engine for drift in its *output*: the share of
    scored targets per closed bin that the model calls DDoS. A slow
    upward creep of that share (the ``slow_drift`` scenario) means the
    traffic mix is moving away from what the model was trained on.

    Mechanics: the share is smoothed with a deterministic EWMA; after a
    warmup period the smoothed value is frozen as the baseline, and the
    tracker *trips* once the EWMA stays more than :data:`DRIFT_THRESHOLD`
    away from the baseline for :data:`DRIFT_CONSECUTIVE` observed bins.
    On a trip (and on every retrain) the baseline re-anchors to the
    current EWMA so a persistent shift is reported once, not every bin
    thereafter.

    The tracker is purely observational — it never changes verdicts —
    and purely deterministic: float arithmetic only, no clocks, no RNG,
    so resumed runs reproduce trips bit-for-bit. A checkpoint carries
    its fields as they are (see :mod:`repro.core.recovery.state_codec`).
    """

    def __init__(self) -> None:
        self._ewma: Optional[float] = None
        self._baseline: Optional[float] = None
        self._bins_seen = 0
        self._streak = 0
        self.trips = 0

    def observe(self, ddos_share: float) -> bool:
        """Feed one closed bin's DDoS-verdict share; True when tripping."""
        self._bins_seen += 1
        if self._ewma is None:
            self._ewma = float(ddos_share)
        else:
            self._ewma = DRIFT_ALPHA * float(ddos_share) + (1.0 - DRIFT_ALPHA) * self._ewma
        if self._baseline is None:
            if self._bins_seen >= DRIFT_WARMUP_BINS:
                self._baseline = self._ewma
            return False
        if abs(self._ewma - self._baseline) > DRIFT_THRESHOLD:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= DRIFT_CONSECUTIVE:
            self.trips += 1
            self._streak = 0
            self._baseline = self._ewma
            return True
        return False

    def rebaseline(self) -> None:
        """Re-anchor to the current EWMA (called after a retrain)."""
        if self._ewma is not None and self._baseline is not None:
            self._baseline = self._ewma
        self._streak = 0
