#!/usr/bin/env python
"""Online deployment: the streaming engine detecting attacks live.

Runs :class:`repro.core.streaming.StreamingScrubber` — the paper's
recommended operating mode (§6.3): retrain daily on a trailing window
of balanced blackholing data, classify every significant per-minute
target aggregate as traffic arrives. The engine sees flows and the BGP
feed in arrival order, in 8-minute chunks (``drive_engine``, the driver
loop the CLI and the scenarios share); detections are scored against the
simulation's ground-truth attack events, including latency.

Run:  python examples/live_detection.py
"""

import numpy as np

from repro import IXP_US1, IXPFabric, WorkloadGenerator
from repro.core.recovery import drive_engine
from repro.core.scrubber import ScrubberConfig
from repro.core.streaming import StreamingScrubber
from repro.netflow.record import int_to_ip

DAYS = 4


def main() -> None:
    profile = IXP_US1
    fabric = IXPFabric(profile)
    capture = WorkloadGenerator(fabric).generate(0, DAYS)
    print(f"=== Streaming {DAYS} days of {profile.name} "
          f"({len(capture.flows):,} flows, {len(capture.updates)} BGP updates) ===")

    engine = StreamingScrubber(
        config=ScrubberConfig(),
        window_days=2,
        bins_per_day=profile.bins_per_day,
        min_flows_per_verdict=10,
        seed=7,
    )

    verdicts = drive_engine(engine, capture.flows, capture.updates)

    stats = engine.stats
    print(f"bins closed:       {stats.bins_closed}")
    print(f"model retrainings: {stats.retrainings} "
          f"(last on {stats.training_flows:,} balanced flows)")
    print(f"verdicts emitted:  {stats.verdicts_emitted} "
          f"({stats.ddos_verdicts} DDoS)")

    # Score against ground truth, after the bootstrap day.
    warmup_end = profile.seconds_per_day
    truth: dict[int, int] = {}
    for event in capture.events:
        if event.start >= warmup_end:
            truth[event.victim] = min(truth.get(event.victim, event.start), event.start)
    detected: dict[int, int] = {}
    for v in verdicts:
        t = v.bin * 60
        if v.is_ddos and t >= warmup_end and v.target_ip not in detected:
            detected[v.target_ip] = t

    hits = set(truth) & set(detected)
    false_alarms = set(detected) - {e.victim for e in capture.events}
    print(f"\nattacks after warm-up:    {len(truth)}")
    print(f"victims detected:         {len(hits)} "
          f"({len(hits) / max(len(truth), 1):.0%} recall)")
    print(f"false-alarm targets:      {len(false_alarms)}")
    latencies = [detected[v] - truth[v] for v in hits]
    if latencies:
        print(f"median detection latency: {np.median(latencies):.0f} s "
              f"(negative = same first minute, bin rounding)")

    print("\nfirst five detections:")
    for victim in sorted(hits, key=lambda v: detected[v])[:5]:
        print(f"  {int_to_ip(victim):>15s}  attack t+{detected[victim] - truth[victim]:>4d}s")


if __name__ == "__main__":
    main()
