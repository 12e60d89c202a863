"""Tests of the end-to-end benchmark harness.

Not part of tier-1 (a full pass replays four workloads); run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import time
from pathlib import Path

import pytest

import bench  # first: puts src/ on the path when PYTHONPATH does not
import harness
import layers
import stats
from spans import SpanRecorder, Target, self_times
from workloads import WORKLOADS, build_capture

HERE = Path(__file__).resolve().parent
SMALL = 0.05
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(name: str, seed: int = 1, **kwargs) -> harness.RunResult:
    return harness.run_workload(WORKLOADS[name], seed, seconds=0.0, scale=SMALL, **kwargs)


@pytest.fixture(scope="module")
def small_runs() -> dict[str, harness.RunResult]:
    start = time.perf_counter()
    results = {name: run(name) for name in WORKLOADS}
    results["seconds"] = time.perf_counter() - start
    return results


class TestSmallRuns:
    def test_all_four_finish_in_about_a_minute(self, small_runs):
        # 55 s on the reference box when it is quiet; its slow phases
        # (up to 1.9x for a minute) are why this does not say 60.
        assert small_runs["seconds"] < 100.0

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_no_tick_fails_and_every_metric_is_printed(self, small_runs, name):
        result = small_runs[name]
        assert result.failed == 0 and result.findings == []
        assert result.end_to_end[harness.FAIL_SHARE].value == 0.0
        assert len(result.laps) >= harness.MIN_LAPS
        assert set(result.end_to_end) == {*harness.E2E_METRICS, harness.FAIL_SHARE}
        assert all(m.value > 0 for n, m in result.end_to_end.items() if n != harness.FAIL_SHARE)
        line = bench.result_line(result, trace=False)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(harness.E2E_METRICS)

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_the_tail_percentile_answers_for_one_replay(self, small_runs, name):
        result = small_runs[name]
        verdict_ticks = sum(1 for v in result.laps[0].tick_verdicts if v)
        tail = result.end_to_end["verdict_p75_ms"]
        # Not ticks x laps: the percentile is taken over one reference replay.
        assert tail.samples == verdict_ticks == result.end_to_end["verdict_p50_ms"].samples
        assert stats.supports_percentile(harness.TAIL_PERCENTILE, tail.samples)
        assert "fewer" not in tail.note
        assert result.pooled_ticks >= 200

    def test_process_path_changes_no_verdict(self, small_runs):
        assert small_runs["detect_inline"].digest == small_runs["detect_sharded"].digest

    def test_same_seed_same_digest(self, small_runs):
        assert run("wide_sketch").digest == small_runs["wide_sketch"].digest

    def test_other_seed_other_capture(self):
        workload = WORKLOADS["wide_sketch"].scaled(SMALL)
        one, again, other = (build_capture(workload, seed) for seed in (1, 1, 2))
        assert one.flows.to_columns()["dst_ip"].tobytes() == again.flows.to_columns()["dst_ip"].tobytes()
        assert one.flows.to_columns()["dst_ip"].tobytes() != other.flows.to_columns()["dst_ip"].tobytes()

    def test_corrupted_verdict_raises_fail_share(self):
        def flip_one(lap_index: int, lap: harness.Lap) -> None:
            if lap_index == 1:
                verdicts = next(v for v in lap.tick_verdicts if v)
                verdicts[0] = dataclasses.replace(
                    verdicts[0], is_ddos=not verdicts[0].is_ddos
                )

        result = run("wide_sketch", tamper=flip_one)
        ticks_per_lap = len(result.laps[0].tick_seconds)
        assert result.failed == ticks_per_lap
        assert result.end_to_end[harness.FAIL_SHARE].value > 0
        assert not result.correct

    def test_traced_lap_reports_every_layer_metric(self):
        result = run("detect_inline", trace=True)
        assert list(result.per_layer) == [name for name, _, _ in layers.LAYER_METRICS]
        assert result.failed == 0
        assert result.per_layer["features.aggregate_ms_per_kflow"].value > 0
        assert result.per_layer["recovery.journal_bytes"].value > 0
        assert result.per_layer["trace.unattributed_share"].value < 0.05
        assert result.per_layer["sketch.merge_ms"].value == 0.0
        # The wrappers are gone again.
        from repro.core.parallel.engine import ShardedStreamingScrubber

        assert not hasattr(ShardedStreamingScrubber.ingest, "__wrapped__")


class TestNamesAndContract:
    def test_names_are_well_formed_and_unique(self):
        names = [*WORKLOADS, *harness.E2E_METRICS, *(n for n, _, _ in layers.LAYER_METRICS)]
        assert all(NAME.match(n) for n in names)
        assert len(set(names)) == len(names)

    def test_benchmark_json_lists_what_the_code_measures(self):
        spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert {
            m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
        } == harness.E2E_METRICS
        assert [
            (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
        ] == layers.LAYER_METRICS
        assert spec["paths"] == ["benchmarks/e2e"]
        assert (HERE.parents[1] / spec["command"][1]).is_file()

    def test_a_run_leaves_no_process_behind(self):
        # The shm workload starts multiprocessing's resource tracker,
        # which by itself ends only after its parent has gone.
        spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
        run = subprocess.Popen(
            [*spec["command"], "--workload", "detect_sharded", "--seed", "1", "--seconds", "0",
             "--trace", "0", "--scale", str(SMALL)],
            cwd=HERE.parents[1], stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        out, _ = run.communicate()
        assert run.returncode == 0 and json.loads(out.splitlines()[-1])["correct"]
        left = []
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue  # it ended while we looked
            if int(fields[3]) == run.pid:  # state ppid pgrp session: its own session
                left.append(stat.parent.name)
        assert left == []


class TestStatistics:
    def test_a_percentile_needs_ten_samples_beyond_it(self):
        assert not stats.supports_percentile(95, 199)
        assert stats.supports_percentile(95, 200)
        assert stats.supports_percentile(50, 20)
        assert not stats.supports_percentile(50, 19)
        assert stats.supports_percentile(99, 1000)
        assert not stats.supports_percentile(99, 999)

    def test_a_duration_is_divided_by_the_speed_read_around_it(self):
        ref = harness.REFERENCE_CALIBRATION_S
        # A box at reference speed, then one twice as slow, then the change between.
        assert harness.at_reference_speed(
            [1.0, 2.0, 3.0], [ref, ref, 2 * ref, 2 * ref]
        ) == pytest.approx([1.0, 2.0 / 1.5, 1.5])
        quiet = harness.Lap(tick_seconds=[1.0, 4.0], calibration=[ref] * 3)
        busy = harness.Lap(tick_seconds=[2.0, 8.0], calibration=[2 * ref] * 3)
        slow = harness.Lap(tick_seconds=[1.2, 4.0], calibration=[ref] * 3)
        broken = harness.Lap(tick_seconds=[9.0], calibration=[ref] * 2, error="tick 1")
        # Per tick the median over the laps that finished, each at reference speed.
        assert harness.reference_replay([quiet, busy, slow, broken]) == pytest.approx([1.0, 4.0])

    def test_spread_is_quartile_distance_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]
        q1, med, q3 = stats.quartiles(values)
        assert (q1, med, q3) == (11.0, 13.0, 15.0)
        assert stats.spread(values) == pytest.approx(4.0 / 13.0)

    def test_worsening_follows_the_direction(self):
        assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
        assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)

    def test_judge(self):
        parent = [100.0 + i * 0.1 for i in range(10)]
        assert stats.judge(parent, [p * 0.8 for p in parent], "lower", 0.1) == "improved"
        assert stats.judge(parent, [p * 1.2 for p in parent], "lower", 0.1) == "regressed"
        assert stats.judge(parent, [p * 1.2 for p in parent], "higher", 0.1) == "improved"
        assert stats.judge(parent, [p * 1.01 for p in parent], "lower", 0.1) == "unchanged"
        noisy = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
        assert stats.judge(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
        # One loss in ten pairs is still nine tenths.
        change = [p * 0.8 for p in parent[:9]] + [parent[9] * 1.01]
        assert stats.judge(parent, change, "lower", 0.1) == "improved"


class TestSpans:
    def test_self_time_is_duration_minus_children(self):
        ticks = iter(range(100))
        recorder = SpanRecorder(clock=lambda: float(next(ticks)))
        leaf = recorder.wrap(lambda: None, "leaf")
        middle = recorder.wrap(lambda: (leaf(), leaf()), "middle")
        recorder.wrap(lambda: (middle(), leaf()), "root")()
        # Each wrapper reads the clock on entry, start, end and exit.
        assert [(s.name, s.start, s.end, s.parent) for s in recorder.spans] == [
            ("root", 1.0, 18.0, -1), ("middle", 3.0, 12.0, 0),
            ("leaf", 5.0, 6.0, 1), ("leaf", 9.0, 10.0, 1), ("leaf", 15.0, 16.0, 0),
        ]
        selfs = self_times(recorder.spans)
        assert selfs == [7.0, 7.0, 1.0, 1.0, 1.0]
        assert sum(selfs) == recorder.spans[0].duration
        assert recorder.overhead_seconds == 10.0  # two clock steps per span
        totals = layers.summarize(recorder.spans)
        assert (totals["leaf"].calls, totals["leaf"].seconds) == (3, 3.0)

    def test_counts_are_taken_at_the_same_boundary(self):
        recorder = SpanRecorder()
        double = recorder.wrap(lambda xs: xs + xs, "double", lambda a, k, r: (len(a[0]), len(r)))
        double([1, 2, 3])
        assert (recorder.spans[0].n_in, recorder.spans[0].n_out) == (3, 6)

    def test_installed_wraps_and_restores(self):
        from repro.core.features.sketches import SketchAggregator
        from repro.core.resilience.supervisor import SupervisedProcessBackend

        before = (vars(SketchAggregator)["from_state"], SupervisedProcessBackend.echo)
        recorder = SpanRecorder()
        with recorder.installed([
            Target("repro.core.features.sketches", "SketchAggregator.from_state", "a"),
            Target("repro.core.resilience.supervisor", "SupervisedProcessBackend.echo", "b"),
        ]):
            assert isinstance(vars(SketchAggregator)["from_state"], classmethod)
            assert "echo" in vars(SupervisedProcessBackend)  # inherited, now overridden
        assert vars(SketchAggregator)["from_state"] is before[0]
        assert "echo" not in vars(SupervisedProcessBackend)
        assert SupervisedProcessBackend.echo is before[1]

    def test_split_time_is_assign_plus_the_copies_before_dispatch(self):
        from spans import Span

        spans = [
            Span("streaming.ingest", 0.0, 10.0, -1, 0),
            Span("netflow.select", 0.0, 1.0, 0, 0),  # bin split: not shard split
            Span("parallel.assign", 1.0, 2.0, 0, 0),
            Span("netflow.select", 2.0, 2.5, 0, 0),
            Span("netflow.concat", 2.5, 3.0, 0, 0),
            Span("parallel.classify_wait", 3.0, 8.0, 0, 0),
            Span("netflow.select", 8.0, 9.0, 0, 0),
        ]
        assert layers._split_seconds(spans) == 2.0
