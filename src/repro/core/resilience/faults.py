"""Deterministic fault injection for the sharded execution layer.

Chaos testing a multiprocess pipeline is only useful if a failing run
can be replayed exactly, so faults here are *planned*, not random: a
:class:`FaultPlan` is a list of :class:`FaultSpec` entries that name the
shard, the batch sequence number, and the attempt on which a fault
fires. The supervisor (:class:`~repro.core.resilience.supervisor.
SupervisedProcessBackend`) evaluates the plan — it is the only place
with the global view of epochs, per-shard batch counters, and retry
attempts — and ships the resulting *directive* to the worker inside the
classify message, where ``_worker_main`` executes it (crash, sleep,
corrupt the reply frame). Two runs with the same plan and workload fail
identically.

Plans come from code (tests build :class:`FaultSpec` objects directly)
or from the ``repro stream --faults`` flag / ``REPRO_FAULTS``
environment variable, which only the CLI reads (:meth:`FaultPlan.from_env`),
using a compact grammar::

    spec      := kind "@" position (":" key "=" value)*
    plan      := spec (";" spec)*
    kind      := "crash" | "hang" | "slow" | "corrupt"
               | "torn-write" | "enospc" | "crash-at-checkpoint"
    position  := integer | "*"
    key       := "batch" | "count" | "secs" | "scope"

Examples::

    crash@0:batch=3             # shard 0's 4th batch kills its worker once
    crash@0:batch=3:count=2     # ...twice: retry also dies -> quarantine
    crash@1:batch=0:scope=epoch # kill shard 1 on the first batch of every
                                # retrain epoch (restart + retry recovers)
    hang@2:batch=5              # worker sleeps past any deadline
    slow@*:secs=0.05            # every shard's first attempt is 50 ms late
    corrupt@3:batch=2           # shard 3 answers with an unpicklable frame
    torn-write@1                # 2nd checkpoint save leaves a torn payload
    enospc@*:count=2            # first two checkpoint saves hit a full disk
    crash-at-checkpoint@2       # process dies between payload and manifest
                                # of the 3rd checkpoint (exit code 70)

``batch`` is the 0-based sequence number of classify dispatches to that
shard (``scope=epoch`` restarts the count at every model broadcast);
omitted means *every* batch. ``count`` is how many attempts of a
matching batch receive the fault (default 1 — the first retry
succeeds). ``secs`` parameterises ``hang``/``slow`` sleeps.

*Worker* kinds target shards and are evaluated by the supervisor;
*disk* kinds (:data:`DISK_FAULT_KINDS`) target the checkpoint store of
:mod:`repro.core.recovery` instead — for them the ``@`` position is
the 0-based *checkpoint ordinal* (the N-th save attempt of the run,
``*`` = every attempt) and ``count`` caps total fires. Disk specs are
invisible to worker dispatch and vice versa, so one plan can mix both:
``crash@0:batch=3;torn-write@1``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "DISK_FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FAULTS_ENV",
]

#: Environment variable holding the default fault plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Faults executed by shard workers (dispatched by the supervisor).
WORKER_FAULT_KINDS = ("crash", "hang", "slow", "corrupt")

#: Faults executed by the checkpoint store (see ``core.recovery``).
DISK_FAULT_KINDS = ("torn-write", "enospc", "crash-at-checkpoint")

#: Every supported fault kind.
FAULT_KINDS = WORKER_FAULT_KINDS + DISK_FAULT_KINDS

#: Default sleep lengths: a hang must outlive any sane deadline, a slow
#: shard should only add jitter.
_DEFAULT_SECONDS = {"hang": 3600.0, "slow": 0.01}


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what fires, where, and when.

    Attributes
    ----------
    kind:
        ``crash`` (worker exits before replying), ``hang`` / ``slow``
        (worker sleeps ``seconds`` before classifying), ``corrupt``
        (worker answers with bytes that cannot be unpickled).
    shard:
        Shard index the fault targets, or ``None`` for every shard.
    batch:
        0-based classify-dispatch sequence number on that shard, or
        ``None`` for every batch.
    count:
        Number of *attempts* of a matching batch that get the fault;
        attempt indices ``0 .. count-1`` fire, later retries pass.
    seconds:
        Sleep length for ``hang``/``slow`` (ignored otherwise).
    scope:
        ``"run"`` (default): ``batch`` counts dispatches over the whole
        run. ``"epoch"``: the counter resets at every model broadcast,
        so ``batch=0:scope=epoch`` hits the first batch of each epoch.
    """

    kind: str
    shard: Optional[int] = None
    batch: Optional[int] = None
    count: int = 1
    seconds: Optional[float] = None
    scope: str = "run"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.shard is not None and self.shard < 0:
            raise ValueError("fault shard must be >= 0 (or None for any)")
        if self.batch is not None and self.batch < 0:
            raise ValueError("fault batch must be >= 0 (or None for every batch)")
        if self.count < 1:
            raise ValueError("fault count must be >= 1")
        if self.scope not in ("run", "epoch"):
            raise ValueError(f"fault scope must be 'run' or 'epoch', got {self.scope!r}")
        if self.seconds is not None and self.seconds < 0:
            raise ValueError("fault seconds must be >= 0")
        if self.is_disk:
            if self.batch is not None:
                raise ValueError(
                    f"disk fault {self.kind!r} takes no batch= option: the @ "
                    "position already selects the checkpoint ordinal"
                )
            if self.seconds is not None:
                raise ValueError(f"disk fault {self.kind!r} takes no secs= option")
            if self.scope != "run":
                raise ValueError(f"disk fault {self.kind!r} takes no scope= option")

    @property
    def is_disk(self) -> bool:
        """True for checkpoint-store faults (``@`` = checkpoint ordinal)."""
        return self.kind in DISK_FAULT_KINDS

    def matches(self, shard: int, run_seq: int, epoch_seq: int, attempt: int) -> bool:
        """True if this spec fires for the given dispatch coordinates."""
        if self.is_disk:
            return False
        if self.shard is not None and self.shard != shard:
            return False
        if attempt >= self.count:
            return False
        if self.batch is None:
            return True
        seq = epoch_seq if self.scope == "epoch" else run_seq
        return self.batch == seq

    def directive(self) -> tuple[str, float]:
        """The ``(kind, seconds)`` tuple shipped to the worker."""
        seconds = self.seconds
        if seconds is None:
            seconds = _DEFAULT_SECONDS.get(self.kind, 0.0)
        return (self.kind, float(seconds))


class FaultPlan:
    """An ordered collection of :class:`FaultSpec` entries.

    Truthiness reflects whether the plan contains any specs, so
    ``if plan:`` reads as "is fault injection active". The first
    matching spec wins when several could fire on the same dispatch.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()):
        self.specs: tuple[FaultSpec, ...] = tuple(specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.specs == other.specs

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.specs)!r})"

    def directive(
        self, shard: int, run_seq: int, epoch_seq: int, attempt: int
    ) -> Optional[tuple[str, float]]:
        """The fault directive for one dispatch attempt, if any fires.

        Disk specs never match a worker dispatch (``FaultSpec.matches``
        returns False for them); they are consumed by the checkpoint
        store via :meth:`disk_specs` instead.
        """
        for spec in self.specs:
            if spec.matches(shard, run_seq, epoch_seq, attempt):
                return spec.directive()
        return None

    def worker_specs(self) -> tuple[FaultSpec, ...]:
        """The specs the supervisor dispatches to shard workers."""
        return tuple(s for s in self.specs if not s.is_disk)

    def disk_specs(self) -> tuple[FaultSpec, ...]:
        """The specs the checkpoint store injects on save attempts."""
        return tuple(s for s in self.specs if s.is_disk)

    # -- construction ---------------------------------------------------
    @classmethod
    def parse(cls, text: Optional[str]) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring).

        ``None``, the empty string, and pure whitespace all yield an
        empty (falsy) plan. Raises :class:`ValueError` with the
        offending fragment on malformed input.
        """
        if text is None or not text.strip():
            return cls()
        specs = []
        for raw in text.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            specs.append(cls._parse_spec(raw))
        return cls(specs)

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """Plan from the ``REPRO_FAULTS`` environment variable."""
        return cls.parse(os.environ.get(FAULTS_ENV))

    @staticmethod
    def _parse_spec(raw: str) -> FaultSpec:
        head, *options = raw.split(":")
        if "@" not in head:
            raise ValueError(
                f"bad fault spec {raw!r}: expected kind@shard (e.g. crash@0)"
            )
        kind, shard_text = head.split("@", 1)
        kind = kind.strip().lower()
        shard_text = shard_text.strip()
        shard = None if shard_text == "*" else _parse_int(shard_text, raw, "shard")
        fields: dict = {"kind": kind, "shard": shard}
        for option in options:
            if "=" not in option:
                raise ValueError(
                    f"bad fault option {option!r} in {raw!r}: expected key=value"
                )
            key, value = (part.strip() for part in option.split("=", 1))
            if key == "batch":
                fields["batch"] = None if value == "*" else _parse_int(value, raw, key)
            elif key == "count":
                fields["count"] = _parse_int(value, raw, key)
            elif key == "secs":
                try:
                    fields["seconds"] = float(value)
                except ValueError:
                    raise ValueError(f"bad secs value {value!r} in {raw!r}") from None
            elif key == "scope":
                fields["scope"] = value
            else:
                raise ValueError(
                    f"unknown fault option {key!r} in {raw!r}; "
                    "expected batch/count/secs/scope"
                )
        return FaultSpec(**fields)


def _parse_int(value: str, raw: str, field: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"bad {field} value {value!r} in fault spec {raw!r}") from None
