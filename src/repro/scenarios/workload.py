"""Open-loop workload managers driving scenario traffic.

A :class:`WorkloadManager` owns the benign side of an operational
scenario: it is *started*, asked to *collect* flows bin by bin, and
*stopped* — the start/stop/collect contract SRE-style scenario
harnesses use, so a conductor can compose several managers (a steady
base load plus a flash crowd, say) into one stream.

:class:`PoissonWorkloadManager` is the open-loop model: a population of
``active_users`` (re-sampled every ``user_window_bins`` bins, so load
breathes instead of being a flat line) each emitting ``rate_per_user``
flows per bin, giving Poisson arrivals with mean
``active_users x rate_per_user x scale`` per bin. ``scale`` is the
explicit "how many million users" knob: everything else in a scenario
stays fixed while ``scale`` sweeps the offered load.

Flow counts are exact, not approximate: each drawn arrival becomes
exactly one rendered flow (``flows_per_target_mean=1.0`` makes the
benign generator's geometric per-target count degenerate to one), so
the arrival process *is* the flow process.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro import obs
from repro.netflow.dataset import BIN_SECONDS, FlowDataset
from repro.obs import names
from repro.traffic.benign import BenignTrafficGenerator

__all__ = ["WorkloadManager", "PoissonWorkloadManager", "BIN_SECONDS"]

#: SeedSequence domain tag decorrelating workload streams from every
#: other seeded component.
_SEED_TAG = 0x5CE4


class WorkloadManager(ABC):
    """Start/stop/collect lifecycle for one scenario traffic source."""

    @abstractmethod
    def start(self, start_bin: int = 0) -> None:
        """Begin generating; the next collected bin is ``start_bin``."""

    @abstractmethod
    def stop(self) -> None:
        """Stop generating; further :meth:`collect` calls are an error."""

    @abstractmethod
    def collect(self, n_bins: int) -> FlowDataset:
        """Generate and return the flows of the next ``n_bins`` bins."""

    @abstractmethod
    def recent_entries(self, duration_bins: int) -> FlowDataset:
        """Flows generated within the trailing ``duration_bins`` bins."""


class PoissonWorkloadManager(WorkloadManager):
    """Open-loop Poisson benign load: ``active_users x rate_per_user``.

    Parameters
    ----------
    seed:
        Master seed; two managers with equal parameters and seeds emit
        bit-identical flow streams.
    active_users:
        Mean size of the active-user population at ``scale=1.0``.
    rate_per_user:
        Benign flows each active user contributes per bin.
    scale:
        Load multiplier applied to ``active_users`` — the scenario
        conductor's ``--scale`` knob.
    targets:
        Explicit destination pool. When omitted, ``n_targets`` addresses
        are drawn from a dedicated /16 with a heavy-tailed popularity
        profile (a few destinations receive most flows, like real
        eyeball traffic).
    user_window_bins:
        How often the active-user population is re-sampled.
    """

    def __init__(
        self,
        seed: int,
        active_users: float,
        rate_per_user: float,
        scale: float = 1.0,
        targets: np.ndarray | None = None,
        n_targets: int = 192,
        user_window_bins: int = 8,
        target_block: int = 0x0AC80000,  # 10.200.0.0/16
    ):
        if active_users <= 0 or rate_per_user <= 0 or scale <= 0:
            raise ValueError("active_users, rate_per_user and scale must be > 0")
        if user_window_bins < 1:
            raise ValueError("user_window_bins must be >= 1")
        self.seed = seed
        self.active_users = float(active_users)
        self.rate_per_user = float(rate_per_user)
        self.scale = float(scale)
        self.user_window_bins = int(user_window_bins)
        self._rng = np.random.default_rng(
            np.random.SeedSequence([_SEED_TAG, seed, 1])
        )
        if targets is None:
            if n_targets < 1 or n_targets > 0xFFFF:
                raise ValueError("n_targets must be in [1, 65535]")
            offsets = self._rng.choice(0x10000, size=n_targets, replace=False)
            targets = (target_block + offsets).astype(np.uint32)
        self._targets = np.asarray(targets, dtype=np.uint32)
        # Zipf-ish popularity over the pool: rank r gets weight r^-1.1.
        ranks = np.arange(1, self._targets.size + 1, dtype=np.float64)
        weights = ranks ** -1.1
        self._target_p = weights / weights.sum()
        self._benign = BenignTrafficGenerator(
            seed=int(np.random.SeedSequence([_SEED_TAG, seed, 2]).generate_state(1)[0])
        )
        self._running = False
        self._cursor = 0
        self._window_users: int | None = None
        self._user_samples: list[int] = []
        self._history: list[FlowDataset] = []

    @property
    def targets(self) -> np.ndarray:
        """The benign destination pool (copy)."""
        return self._targets.copy()

    @property
    def cursor(self) -> int:
        """The next bin :meth:`collect` will generate."""
        return self._cursor

    def mean_active_users(self) -> float:
        """Mean of the population draws (0.0 before any collection)."""
        if not self._user_samples:
            return 0.0
        return float(sum(self._user_samples)) / len(self._user_samples)

    def start(self, start_bin: int = 0) -> None:
        if self._running:
            raise RuntimeError("workload manager already started")
        self._running = True
        self._cursor = int(start_bin)
        self._window_users = None

    def stop(self) -> None:
        self._running = False

    def collect(self, n_bins: int) -> FlowDataset:
        if not self._running:
            raise RuntimeError("collect() before start() (or after stop())")
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        parts: list[FlowDataset] = []
        for _ in range(n_bins):
            b = self._cursor
            if self._window_users is None or b % self.user_window_bins == 0:
                self._window_users = int(
                    self._rng.poisson(self.active_users * self.scale)
                )
                self._user_samples.append(self._window_users)
                obs.gauge(names.G_SCENARIO_ACTIVE_USERS).set(self._window_users)
            n_flows = int(self._rng.poisson(self._window_users * self.rate_per_user))
            if n_flows:
                flow_targets = self._rng.choice(
                    self._targets, size=n_flows, p=self._target_p
                )
                parts.append(
                    self._benign.generate(
                        self._rng,
                        flow_targets,
                        b * BIN_SECONDS,
                        (b + 1) * BIN_SECONDS,
                        flows_per_target_mean=1.0,
                    )
                )
            self._cursor += 1
        out = FlowDataset.concat(parts) if parts else FlowDataset.empty()
        self._history.append(out)
        obs.counter(names.C_SCENARIO_WORKLOAD_FLOWS).inc(len(out))
        return out

    def collected(self) -> FlowDataset:
        """Every flow generated since :meth:`start`."""
        if not self._history:
            return FlowDataset.empty()
        return FlowDataset.concat(self._history)

    def recent_entries(self, duration_bins: int) -> FlowDataset:
        """Flows of the trailing ``duration_bins`` bins before the cursor."""
        if duration_bins < 1:
            raise ValueError("duration_bins must be >= 1")
        everything = self.collected()
        if len(everything) == 0:
            return everything
        cutoff = (self._cursor - duration_bins) * BIN_SECONDS
        return everything.select(everything.time >= cutoff)
