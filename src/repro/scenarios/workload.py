"""The open-loop Poisson load behind every scenario's benign side.

:func:`poisson_load` renders a population of ``active_users``
(re-sampled every eight bins, so load breathes instead of being a flat
line) each emitting ``rate_per_user`` flows per bin, giving Poisson
arrivals with mean ``active_users x rate_per_user x scale`` per bin. ``scale`` is the
explicit "how many million users" knob: everything else in a scenario
stays fixed while ``scale`` sweeps the offered load.

Scenario streams are rendered offline, whole, before the engine sees a
flow, so the load is one function call per source (a steady base load
plus a flash crowd are two calls), not a started/stopped service.

Flow counts are exact, not approximate: each drawn arrival becomes
exactly one rendered flow (``flows_per_target_mean=1.0`` makes the
benign generator's geometric per-target count degenerate to one), so
the arrival process *is* the flow process.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro import obs
from repro.netflow.dataset import BIN_SECONDS, FlowDataset
from repro.obs import names
from repro.traffic.benign import BenignTrafficGenerator

__all__ = ["PoissonLoad", "poisson_load", "BIN_SECONDS"]

#: SeedSequence domain tag decorrelating workload streams from every
#: other seeded component.
_SEED_TAG = 0x5CE4

#: How often (in bins) the active-user population is re-sampled.
_USER_WINDOW_BINS = 8


class PoissonLoad(NamedTuple):
    """What one :func:`poisson_load` call rendered."""

    flows: FlowDataset
    #: The benign destination pool the flows were drawn over.
    targets: np.ndarray
    #: Mean of the active-user population draws.
    mean_active_users: float


def poisson_load(
    seed: int,
    active_users: float,
    rate_per_user: float,
    n_bins: int,
    scale: float = 1.0,
    start_bin: int = 0,
    targets: np.ndarray | None = None,
    n_targets: int = 192,
    target_block: int = 0x0AC80000,  # 10.200.0.0/16
) -> PoissonLoad:
    """Benign flows of bins ``[start_bin, start_bin + n_bins)``, bin by bin.

    Parameters
    ----------
    seed:
        Master seed; equal parameters and seeds give bit-identical flows.
    active_users:
        Mean size of the active-user population at ``scale=1.0``.
    rate_per_user:
        Benign flows each active user contributes per bin.
    scale:
        Load multiplier applied to ``active_users`` — the scenario
        conductor's ``--scale`` knob.
    targets:
        Explicit destination pool. When omitted, ``n_targets`` addresses
        are drawn from ``target_block`` (a dedicated /16) with a
        heavy-tailed popularity profile (a few destinations receive most
        flows, like real eyeball traffic).
    """
    if active_users <= 0 or rate_per_user <= 0 or scale <= 0:
        raise ValueError("active_users, rate_per_user and scale must be > 0")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([_SEED_TAG, seed, 1]))
    if targets is None:
        offsets = rng.choice(0x10000, size=n_targets, replace=False)
        targets = target_block + offsets
    targets = np.asarray(targets, dtype=np.uint32)
    # Zipf-ish popularity over the pool: rank r gets weight r^-1.1.
    weights = np.arange(1, targets.size + 1, dtype=np.float64) ** -1.1
    target_p = weights / weights.sum()
    benign = BenignTrafficGenerator(
        seed=int(np.random.SeedSequence([_SEED_TAG, seed, 2]).generate_state(1)[0])
    )
    user_draws: list[int] = []
    parts: list[FlowDataset] = []
    for b in range(start_bin, start_bin + n_bins):
        if not user_draws or b % _USER_WINDOW_BINS == 0:
            user_draws.append(int(rng.poisson(active_users * scale)))
            obs.gauge(names.G_SCENARIO_ACTIVE_USERS).set(user_draws[-1])
        n_flows = int(rng.poisson(user_draws[-1] * rate_per_user))
        if n_flows:
            parts.append(
                benign.generate(
                    rng,
                    rng.choice(targets, size=n_flows, p=target_p),
                    b * BIN_SECONDS,
                    (b + 1) * BIN_SECONDS,
                    flows_per_target_mean=1.0,
                )
            )
    flows = FlowDataset.concat(parts)
    obs.counter(names.C_SCENARIO_WORKLOAD_FLOWS).inc(len(flows))
    return PoissonLoad(flows, targets, sum(user_draws) / len(user_draws))
