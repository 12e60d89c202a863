"""One benchmark run: set-up, lapped replay, correctness checks, metrics.

The load is a **closed loop with one client**: one ordered input stream,
and the next one-bin chunk is handed over when ``ingest`` returns. The
engine is a synchronous call with no queue to observe, so closed-loop
flows/s is the rate it sustains.

A run sets up, then replays the same pre-chunked capture lap after lap,
each lap through a fresh engine (built outside the timed window) that is
warm-started with the model fitted in set-up. Every lap does the same
work tick for tick (the engine seed is fixed and the verdict digests are
checked to be equal), so tick ``i`` has one true cost and each lap is one
noisy reading of it.

The noise of a shared box is the speed of the core itself: with a busy
neighbour on the sibling thread the same code runs up to 2x slower,
for a minute and more at a time, with CPU time equal to wall time. No
statistic over the laps of one run removes that (eight runs of one seed
read 16.2k to 22.8k flows/s from the per-tick minimum over laps), so
the harness measures it: between any two ticks, outside every timed
window, it times a fixed piece of work of the program's own kind
(``calibrate``), and every duration is divided by the speed read
around it. Timing metrics are taken from the **reference replay**: for
every tick, the median over the laps of its duration at reference
speed. Over windows of six laps of one 90-lap series the median lap
spread by 28 %, the per-tick minimum by 18 %, the reference replay by
1.5 %. One pass is not a measurement, and neither is the median of a
few.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import layers
import stats
from spans import SpanRecorder
from workloads import (
    ENGINE_SEED,
    MIN_FLOWS_PER_VERDICT,
    WARM_SEED_OFFSET,
    Workload,
    build_capture,
    fit_warm_model,
    label_and_balance,
)

from repro.core.recovery.session import iter_chunks
from repro.core.streaming import StreamingScrubber

clock = time.perf_counter

#: A run never has fewer laps; a traced run has exactly this many
#: untraced ones (its end-to-end figures are not the ones reported).
MIN_LAPS = 5
#: Set-up runs this many times; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Ticks replayed through the independent reference engine.
REFERENCE_TICKS = 12
#: Chunks pushed through the set-up engine so that it has spawned its
#: workers, broadcast the model and delivered its first verdicts.
SETUP_TICKS = 2
#: Everything a run writes (spans, results, the recovery stage's journal)
#: goes here: inside the checkout, git-ignored.
OUT_DIR = Path(__file__).resolve().parent / "out"
#: The tail percentile of time to verdict (``verdict_p75_ms``). It is
#: taken over the ticks of one reference replay, which ``Workload.scaled``
#: keeps at 44 or more: the highest round percentile with ten samples
#: beyond it.
TAIL_PERCENTILE = 75

#: name -> (unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen before it counts as a regression.
E2E_METRICS: dict[str, tuple[str, str, float]] = {
    "flows_per_s": ("flows/s", "higher", 0.25),
    "verdict_p50_ms": ("ms", "lower", 0.25),
    "verdict_p75_ms": ("ms", "lower", 0.25),
    "retrain_stall_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}
#: Failed ticks over attempted ticks; any value above 0 is a failure.
FAIL_SHARE = "fail_share"


# -- calibration ---------------------------------------------------------

#: What ``calibrate`` takes on the reference box (2 vCPU Xeon 2.1 GHz)
#: with an idle sibling thread. Only a scale: it puts the metrics in the
#: reference box's seconds.
REFERENCE_CALIBRATION_S = 1.5e-3
_CALIBRATION_ROUNDS = 16
_CALIBRATION_ARRAYS = [np.random.default_rng(0).random(64) for _ in range(50)]


def calibrate() -> float:
    """Seconds a fixed piece of work takes right now.

    The work is what the program's own time goes to: short numpy
    expressions over small arrays, bound by the interpreter and numpy's
    call overhead. Of four candidates (a pure Python dict loop, sorts,
    gathers from a large array, this one) it tracked the laps' wall time
    best on both an aggregation-bound and a retrain-bound workload.
    """
    t0 = clock()
    for _ in range(_CALIBRATION_ROUNDS):
        for a in _CALIBRATION_ARRAYS:
            (a * 2.0 + 1.0).sum()
    return clock() - t0


def at_reference_speed(seconds: list[float], calibration: list[float]) -> list[float]:
    """Each duration over the speed read just before and just after it.

    ``calibration`` has one reading more than there are durations.
    """
    return [
        s * 2.0 * REFERENCE_CALIBRATION_S / (before + after)
        for s, before, after in zip(seconds, calibration, calibration[1:])
    ]


# -- set-up --------------------------------------------------------------


@dataclass
class Prepared:
    """Everything a lap needs, built once per run."""

    workload: Workload
    chunks: list  # [(flows, updates)] one per one-minute bin
    model: object
    n_flows: int
    #: Seconds per set-up stage as the clock read them (per-layer metrics).
    stages: dict[str, float]
    #: The whole set-up, first engine's first verdicts included, at
    #: reference speed.
    seconds: float


def prepare(workload: Workload, seed: int) -> Prepared:
    """Capture, warm model, chunks and a first engine ready to deliver."""
    stamps: list[tuple[float, float]] = []  # (a stage's end, the next one's start)
    readings: list[float] = []

    def boundary() -> None:
        end = clock()
        readings.append(statistics.median(calibrate() for _ in range(3)))
        stamps.append((end, clock()))

    boundary()
    capture = build_capture(workload, seed)
    warm_capture = build_capture(workload, seed + WARM_SEED_OFFSET, days=1)
    boundary()
    model = fit_warm_model(workload, label_and_balance(warm_capture))
    boundary()
    chunks = [
        (flows, updates)
        for _, flows, updates in iter_chunks(capture.flows, capture.updates, chunk_bins=1)
    ]
    boundary()
    engine = workload.make_engine()
    try:
        boundary()
        engine.warm_start(model)
        for flows, updates in chunks[:SETUP_TICKS]:
            engine.ingest(flows, updates)
        boundary()
    finally:
        engine.close()
    stage_seconds = [start[0] - end[1] for end, start in zip(stamps, stamps[1:])]
    return Prepared(
        workload=workload,
        chunks=chunks,
        model=model,
        n_flows=len(capture.flows),
        stages=dict(zip(
            ("traffic.generate_s", "scrubber.warm_fit_s", "netflow.chunk_s", "parallel.spawn_s"),
            stage_seconds,
        )),
        seconds=sum(at_reference_speed(stage_seconds, readings)),
    )


# -- one lap -------------------------------------------------------------


def verdict_digest(tick_verdicts: list[list]) -> str:
    """sha256 over every verdict of a lap, in emission order."""
    h = hashlib.sha256()
    for verdicts in tick_verdicts:
        for v in verdicts:
            h.update(
                f"{v.bin},{v.target_ip},{int(v.is_ddos)},{v.score!r},"
                f"{'|'.join(v.matched_rules)}\n".encode()
            )
    return h.hexdigest()


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of every live child."""
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    return sum(_vm_hwm_mb(pid) for pid in pids)


def _child_pids() -> list[int]:
    """Every process whose parent is this one, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid ...; comm may hold spaces and brackets
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # it ended while we looked
        if ppid == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    An engine stops and joins its own workers in ``close``. What is left
    is multiprocessing's resource tracker, which the first shared-memory
    segment starts and which otherwise outlives this process: it ends
    only once the parent's end of its pipe is closed. Anything else that
    is still a child after that (a worker a failed ``close`` left
    behind) is killed and waited for.
    """
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes the pipe and waits for the tracker
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # it ended and was reaped since the scan
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # multiprocessing reaped it meanwhile


def _cpu_seconds() -> tuple[float, float]:
    t = os.times()
    return t.user + t.system, t.children_user + t.children_system


@dataclass
class Lap:
    #: First ``ingest`` to the end of ``flush``, less the calibration.
    wall: float = 0.0
    #: Duration of each ingest call and of the final flush.
    tick_seconds: list[float] = field(default_factory=list)
    #: ``calibrate`` before the first call and after each: one more
    #: reading than ticks.
    calibration: list[float] = field(default_factory=list)
    #: Verdict lists per tick; dropped by ``seal`` except on the laps
    #: something still reads them from (15 laps of live verdict objects
    #: would be the benchmark's memory, not the program's).
    tick_verdicts: list[list] = field(default_factory=list)
    retrain_ticks: list[int] = field(default_factory=list)
    error: Optional[str] = None
    digest: str = ""
    verdicts: int = 0
    ddos_verdicts: int = 0
    snapshot: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    coordinator_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    #: Why the whole lap failed its checks (empty: it passed).
    problems: list[str] = field(default_factory=list)

    def seal(self, keep_verdicts: bool) -> None:
        """Reduce the verdicts to digest and counts."""
        self.digest = verdict_digest(self.tick_verdicts)
        self.verdicts = sum(len(tick) for tick in self.tick_verdicts)
        self.ddos_verdicts = sum(v.is_ddos for tick in self.tick_verdicts for v in tick)
        if not keep_verdicts:
            self.tick_verdicts = []


def replay(prepared: Prepared, engine, lap: Lap, recorder: Optional[SpanRecorder] = None) -> None:
    """The timed window: every chunk through ``ingest``, then ``flush``.

    Between the calls, outside their timed windows, the speed of the box
    is read.
    """
    engine_stats = engine.stats
    retrainings = engine_stats.retrainings
    tick = 0
    start = clock()
    lap.calibration.append(calibrate())
    try:
        for tick, (flows, updates) in enumerate(prepared.chunks):
            if recorder is not None:
                recorder.tick = tick
            t0 = clock()
            verdicts = engine.ingest(flows, updates)
            lap.tick_seconds.append(clock() - t0)
            lap.calibration.append(calibrate())
            lap.tick_verdicts.append(verdicts)
            now = engine_stats.retrainings
            if now != retrainings:
                retrainings = now
                lap.retrain_ticks.append(tick)
        tick += 1
        t0 = clock()
        verdicts = engine.flush()
        lap.tick_seconds.append(clock() - t0)
        lap.calibration.append(calibrate())
        lap.tick_verdicts.append(verdicts)
    except Exception as exc:  # a failing call fails the rest of its lap, not the run
        traceback.print_exc(file=sys.stderr)
        lap.error = f"tick {tick}: {type(exc).__name__}: {exc}"
    lap.wall = clock() - start - sum(lap.calibration)


def run_lap(
    prepared: Prepared,
    recorder: Optional[SpanRecorder] = None,
    after: Optional[Callable[[object, Lap], None]] = None,
) -> Lap:
    """Build an engine, replay the capture through it, read it out, close it."""
    lap = Lap()
    gc.collect()
    self_cpu, child_cpu = _cpu_seconds()
    engine = prepared.workload.make_engine()
    try:
        engine.warm_start(prepared.model)
        if recorder is None:
            replay(prepared, engine, lap)
        else:
            # Installed after the workers were forked: only this
            # process's calls are wrapped.
            with recorder.installed(layers.TARGETS):
                replay(prepared, engine, lap, recorder)
        lap.snapshot = engine.merged_snapshot()
        lap.peak_rss_mb = peak_rss_mb()
        if after is not None:
            after(engine, lap)
    finally:
        engine.close()
    self_after, child_after = _cpu_seconds()
    lap.coordinator_cpu_s = self_after - self_cpu
    lap.worker_cpu_s = child_after - child_cpu
    return lap


# -- correctness ---------------------------------------------------------

#: Engine counters that must stay 0 on a run without injected faults.
_MUST_BE_ZERO = (
    "parallel.ipc_fallbacks",
    "resilience.worker_restarts",
    "resilience.deadline_misses",
)


def check_lap(prepared: Prepared, lap: Lap, reference_digest: str) -> None:
    """Fill ``lap.problems`` with every whole-lap check that fails."""
    if lap.error:
        return  # its remaining ticks are already counted as failed
    expected_retrains = prepared.workload.days - 1
    if not lap.verdicts:
        lap.problems.append("no verdicts")
    if not lap.ddos_verdicts:
        lap.problems.append("no DDoS verdicts")
    if len(lap.retrain_ticks) != expected_retrains:
        lap.problems.append(
            f"{len(lap.retrain_ticks)} retrains, expected {expected_retrains}"
        )
    if lap.digest != reference_digest:
        lap.problems.append("verdict digest differs from lap 0")
    for name in _MUST_BE_ZERO:
        value = layers.snapshot_counter(lap.snapshot, name)
        if value:
            lap.problems.append(f"{name} = {value:g}")


def reference_mismatches(prepared: Prepared, lap: Lap) -> int:
    """Ticks of ``lap`` that an independent engine does not reproduce.

    Exact workloads are replayed through a plain ``StreamingScrubber``
    (per-bin ``aggregate``, no batch path, no shards); the sketch
    workload through a one-shard sketch engine, which checks that the
    merge is associative.
    """
    workload = prepared.workload
    if workload.exact:
        engine = StreamingScrubber(
            config=workload.config, window_days=workload.window_days,
            bins_per_day=workload.bins_per_day, seed=ENGINE_SEED,
            min_flows_per_verdict=MIN_FLOWS_PER_VERDICT,
        )
    else:
        engine = workload.make_engine(n_shards=1)
    bad = 0
    with engine:
        engine.warm_start(prepared.model)
        for tick, (flows, updates) in enumerate(prepared.chunks[:REFERENCE_TICKS]):
            expected = engine.ingest(flows, updates)
            if tick >= len(lap.tick_verdicts) or expected != lap.tick_verdicts[tick]:
                bad += 1
    return bad


# -- the run -------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    better: str
    bound: Optional[float] = None
    samples: int = 0
    note: str = ""


@dataclass
class RunResult:
    workload: str
    seed: int
    scale: float
    laps: list[Lap]
    traced: Optional[Lap]
    attempted: int
    failed: int
    digest: str
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric]
    findings: list[str]
    setup_seconds: list[float]
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def pooled_ticks(self) -> int:
        return sum(len(lap.tick_seconds) for lap in self.laps)


def reference_replay(laps: list[Lap]) -> list[float]:
    """Per tick, over the laps that finished, its median duration at reference speed."""
    whole = [
        at_reference_speed(lap.tick_seconds, lap.calibration) for lap in laps if not lap.error
    ]
    return [statistics.median(readings) for readings in zip(*whole)]


def _end_to_end(prepared: Prepared, laps: list[Lap], setup_seconds: list[float],
                fail_share: float) -> dict[str, Metric]:
    replayed = reference_replay(laps)
    first = laps[0]
    verdict_ms = [s * 1e3 for s, v in zip(replayed, first.tick_verdicts) if v]
    stall_ms = [replayed[t] * 1e3 for t in first.retrain_ticks if t < len(replayed)]
    out: dict[str, Metric] = {}

    def put(name: str, value: float, samples: int, note: str) -> None:
        unit, better, bound = E2E_METRICS[name]
        out[name] = Metric(value, unit, better, bound, samples, note)

    put("flows_per_s", prepared.n_flows / sum(replayed) if replayed else 0.0,
        len(laps), "laps; flows / reference replay")
    # The percentiles are taken over the ticks of one reference replay,
    # so that is the sample count they answer for, however many laps
    # stand behind each tick.
    put("verdict_p50_ms", stats.percentile(verdict_ms, 50) if verdict_ms else 0.0,
        len(verdict_ms), "verdict ticks of the reference replay")
    put("verdict_p75_ms",
        stats.percentile(verdict_ms, TAIL_PERCENTILE) if verdict_ms else 0.0, len(verdict_ms),
        "verdict ticks of the reference replay"
        if stats.supports_percentile(TAIL_PERCENTILE, len(verdict_ms))
        else f"verdict ticks: fewer than 10 samples beyond p{TAIL_PERCENTILE}")
    put("retrain_stall_ms", statistics.fmean(stall_ms) if stall_ms else 0.0,
        len(stall_ms), "retrains of the reference replay; mean stall")
    put("peak_rss_mb", laps[-1].peak_rss_mb, 1, "before the last lap's close")
    put("setup_s", statistics.median(setup_seconds), len(setup_seconds),
        "median of set-ups, at reference speed")
    out[FAIL_SHARE] = Metric(fail_share, "ratio", "lower", 0.0, 0, "failed / attempted ticks")
    return out


def traced_lap(prepared: Prepared) -> tuple[Lap, list, dict[str, Metric]]:
    """One more lap under the span recorder: (lap, spans, per-layer metrics)."""
    workload = prepared.workload
    recorder = SpanRecorder()
    recovery: dict[str, float] = {}

    def recovery_stage(engine, lap: Lap) -> None:
        if not lap.error:
            recovery.update(layers.recovery_metrics(
                engine, lap.tick_verdicts, OUT_DIR / f"recovery-{os.getpid()}"
            ))

    lap = run_lap(
        prepared, recorder, after=recovery_stage if workload.recovery_stage else None
    )
    lap.seal(keep_verdicts=False)
    spans = recorder.spans
    root_seconds = sum(s.duration for s in spans if s.parent < 0)
    values = {
        **prepared.stages,
        **layers.layer_metrics(
            spans, lap.snapshot, len(lap.tick_seconds), workload.engine["n_shards"]
        ),
        **recovery,
        "parallel.coordinator_cpu_s": lap.coordinator_cpu_s,
        "parallel.worker_cpu_s": lap.worker_cpu_s,
        "trace.overhead_share": recorder.overhead_seconds / lap.wall,
        "trace.unattributed_share": 1.0 - root_seconds / lap.wall,
        # The per-layer times are as the clock read them; divided by
        # this they are at reference speed, like the end-to-end ones.
        "trace.speed_factor": statistics.median(lap.calibration) / REFERENCE_CALIBRATION_S,
    }
    per_layer = {
        name: Metric(float(values.get(name, 0.0)), unit, better)
        for name, unit, better in layers.LAYER_METRICS
    }
    return lap, spans, per_layer


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: float = 1.0,
    tamper: Optional[Callable[[int, Lap], None]] = None,
) -> RunResult:
    """Set up, lap for ``seconds`` (at least ``MIN_LAPS`` laps), check, measure.

    ``tamper(lap_index, lap)`` runs before a lap is checked; the tests
    use it to corrupt a verdict and watch ``fail_share`` rise.
    """
    workload = workload.scaled(scale)
    setup_seconds: list[float] = []
    for _ in range(SETUP_REPEATS):
        # Released before the next is built: five captures held together
        # would be the benchmark's memory in ``peak_rss_mb``, not the
        # program's.
        prepared = None
        prepared = prepare(workload, seed)
        setup_seconds.append(prepared.seconds)

    laps: list[Lap] = []
    spent = 0.0
    while len(laps) < MIN_LAPS or (
        not trace and spent + spent / len(laps) <= seconds
    ):
        lap = run_lap(prepared)
        if tamper is not None:
            tamper(len(laps), lap)
        lap.seal(keep_verdicts=not laps)  # lap 0 is the reference
        laps.append(lap)
        spent += lap.wall + sum(lap.calibration)

    findings: list[str] = []
    per_layer: dict[str, Metric] = {}
    traced, spans = None, []
    if trace:
        traced, spans, per_layer = traced_lap(prepared)
        for name in ("trace.overhead_share", "trace.unattributed_share"):
            if per_layer[name].value > 0.05:
                findings.append(f"{name} = {per_layer[name].value:.3f} is above 0.05")

    # Correctness, outside every timed window.
    ticks_per_lap = len(prepared.chunks) + 1
    checked = laps + ([traced] if traced else [])
    reference = laps[0].digest
    failed = reference_mismatches(prepared, laps[0])
    if failed:
        findings.append(f"{failed} of {REFERENCE_TICKS} reference ticks differ")
    for index, lap in enumerate(checked):
        check_lap(prepared, lap, reference)
        if lap.error:
            failed += ticks_per_lap - len(lap.tick_seconds)
            findings.append(f"lap {index}: {lap.error}")
        elif lap.problems:
            failed += ticks_per_lap
            findings.append(f"lap {index}: " + "; ".join(lap.problems))
    attempted = ticks_per_lap * len(checked) + REFERENCE_TICKS

    return RunResult(
        workload=workload.name, seed=seed, scale=scale, laps=laps, traced=traced,
        attempted=attempted, failed=failed, digest=reference,
        end_to_end=_end_to_end(prepared, laps, setup_seconds, failed / attempted),
        per_layer=per_layer, findings=findings, setup_seconds=setup_seconds, spans=spans,
    )
