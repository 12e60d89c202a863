"""Subprocess-free CLI tests: drive ``repro.cli.main(argv)`` directly.

Calling ``main`` in-process (instead of shelling out to
``python -m repro``) keeps these fast, coverage-visible and
debuggable; stdout/stderr are captured with pytest's ``capsys``.
``--days 1`` keeps the synthetic workloads small.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main


def test_list_exits_zero_and_names_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert out.strip(), "repro list printed nothing"


def test_unknown_experiment_exits_2(capsys):
    assert main(["run", "no-such-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [["nope"], ["stats", "--days", "0"],
                                 ["stream", "--shards", "0"],
                                 ["stream", "--backend", "thread"],
                                 ["stats", "--format", "xml"],
                                 ["stream", "--faults", "explode@0"],
                                 ["stream", "--faults", "crash@x"],
                                 ["stream", "--shard-timeout", "0"],
                                 ["stream", "--max-restarts", "-1"],
                                 ["stream", "--agg", "hll"],
                                 ["stream", "--sketch-eps", "0"],
                                 ["stream", "--sketch-eps", "1.5"],
                                 ["stream", "--sketch-delta", "-0.1"]])
def test_invalid_arguments_exit_2(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()  # drain argparse usage text


class TestStats:
    def test_text_format(self, capsys):
        assert main(["stats", "--days", "1"]) == 0
        captured = capsys.readouterr()
        assert "== counters ==" in captured.out
        assert "streaming.flows_ingested" in captured.out
        assert "== spans (per phase) ==" in captured.out
        assert "[streamed" in captured.out  # footer with verdict count
        assert "generating 1 synthetic day(s)" in captured.err

    def test_json_format_parses_and_counts(self, capsys):
        assert main(["stats", "--days", "1", "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        counters = {c["name"]: c["value"] for c in snap["counters"]}
        assert counters["streaming.flows_ingested"] > 0
        assert counters["streaming.bins_closed"] > 0

    def test_jsonl_export(self, capsys, tmp_path):
        path = tmp_path / "stats.jsonl"
        assert main(["stats", "--days", "1", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 1 and rows[0]["days"] == 1


class TestStream:
    def test_sharded_text_format(self, capsys):
        assert main(["stream", "--days", "1", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "parallel.flows_dispatched" in out
        assert "parallel.shard_classify" in out
        assert "across 2 serial shard(s)" in out

    def test_sharded_json_merges_shard_metrics(self, capsys):
        assert main(
            ["stream", "--days", "1", "--shards", "2", "--format", "json"]
        ) == 0
        snap = json.loads(capsys.readouterr().out)
        counters = {c["name"]: c["value"] for c in snap["counters"]}
        # The merged snapshot carries coordinator and shard series once.
        assert counters["parallel.shard_flows"] == counters[
            "parallel.flows_dispatched"
        ]
        assert counters["streaming.flows_ingested"] > 0
        gauges = {g["name"]: g["value"] for g in snap["gauges"]}
        assert gauges["parallel.shards"] == 2

    def test_prometheus_format_with_equivalence_check(self, capsys):
        assert main(
            ["stream", "--days", "1", "--shards", "2", "--check",
             "--format", "prometheus"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_parallel_flows_dispatched_total counter" in out
        assert "repro_parallel_equivalence_checks_total" in out
        for line in out.strip().splitlines():
            if not line.startswith("#"):
                assert len(line.rsplit(" ", 1)) == 2

    def test_serial_backend_rejects_supervision_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--days", "1", "--faults", "crash@0"])
        assert exc.value.code == 2
        assert "require --backend supervised" in capsys.readouterr().err

    def test_serial_backend_rejects_shm_ipc(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--days", "1", "--ipc", "shm"])
        assert exc.value.code == 2
        assert "require --backend supervised" in capsys.readouterr().err

    def test_shm_ipc_streams_checked_and_reports(self, capsys):
        assert main(
            ["stream", "--days", "1", "--shards", "2", "--backend",
             "supervised", "--ipc", "shm", "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "ipc: shm" in out
        assert "pipe fallbacks" in out
        assert "parallel.ipc_ring_bytes" in out

    def test_sketch_flags_require_sketch_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--days", "1", "--sketch-eps", "0.01"])
        assert exc.value.code == 2
        assert "require --agg sketch" in capsys.readouterr().err

    def test_check_rejects_sketch_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--days", "1", "--agg", "sketch", "--check"])
        assert exc.value.code == 2
        assert "exact aggregation" in capsys.readouterr().err

    def test_sketch_mode_runs_and_reports(self, capsys):
        assert main(
            ["stream", "--days", "1", "--shards", "2", "--agg", "sketch",
             "--sketch-eps", "0.01", "--sketch-delta", "0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "sketch.flows_absorbed" in out
        assert "sketch.merges" in out
        assert "sketch: eps=0.01 delta=0.02" in out
        state = re.search(r"[\d.]+ MB state", out).group()
        # The footer reports the merged state, not one more copy of it
        # per shard registry: the same stream, the same figure.
        assert main(
            ["stream", "--days", "1", "--shards", "1", "--agg", "sketch",
             "--sketch-eps", "0.01", "--sketch-delta", "0.02"]
        ) == 0
        assert state in capsys.readouterr().out

    def test_faults_supervised_chaos_run(self, capsys):
        """The acceptance scenario: seeded crash per epoch, zero drift.

        ``--check`` runs the serial equivalence shadow on every chunk,
        so a clean exit *is* the bit-identical-verdicts assertion.
        """
        assert main(
            ["stream", "--days", "1", "--shards", "2", "--backend",
             "supervised", "--check", "--shard-timeout", "60",
             "--faults", "crash@0:batch=0:scope=epoch"]
        ) == 0
        captured = capsys.readouterr()
        assert "supervised shard(s)" in captured.out
        assert "equivalence checked" in captured.out
        assert "resilience:" in captured.out
        # The plan fired at least once (first batch of the first epoch).
        restarts = [
            line for line in captured.out.splitlines()
            if "resilience.worker_restarts" in line
        ]
        assert restarts, "supervised run printed no restart counter"


class TestStreamFailedStartLeavesNoWorkers:
    """Exits that happen around engine construction must not strand workers.

    The regression: ``_cmd_stream`` built the engine (worker processes,
    shm rings) and only then validated the recovery flags and opened
    the session, outside its ``try/finally`` — so both exits below left
    the workers running until the interpreter's exit hooks.
    """

    ARGV = ["stream", "--days", "1", "--shards", "2",
            "--backend", "supervised", "--ipc", "shm"]

    def _exit_code_and_stranded(self, argv):
        import multiprocessing

        before = set(multiprocessing.active_children())
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, set(multiprocessing.active_children()) - before

    def test_resume_without_checkpoint_dir_exits_2(self, capsys):
        code, stranded = self._exit_code_and_stranded(self.ARGV + ["--resume"])
        assert code == 2
        assert "require --checkpoint-dir" in capsys.readouterr().err
        assert not stranded

    def test_corrupt_journal_exits_3(self, capsys, tmp_path):
        from repro.core.recovery import VerdictJournal

        # A bad checksum *before* the final line is corruption, not a
        # torn tail, so the session refuses to open.
        (tmp_path / VerdictJournal.FILENAME).write_bytes(
            b"deadbeef not-a-journal-entry\n00000000 {}\n"
        )
        code, stranded = self._exit_code_and_stranded(
            self.ARGV + ["--checkpoint-dir", str(tmp_path), "--resume"]
        )
        assert code == 3
        assert "corrupt" in capsys.readouterr().err
        assert not stranded

    def test_refused_resume_generates_no_capture(self, capsys, tmp_path, monkeypatch):
        from repro.core.recovery import CheckpointStore
        from repro.core.streaming import StreamingScrubber
        from repro.traffic.workload import WorkloadGenerator

        # A snapshot of an older engine format: the session refuses it,
        # and it must do so before a single synthetic day is generated.
        state = StreamingScrubber(bins_per_day=48).capture_state()
        state["format"] = 2
        CheckpointStore(tmp_path).save(0, state)

        def generate(*_):
            raise AssertionError("generated a capture for a refused resume")

        monkeypatch.setattr(WorkloadGenerator, "generate", generate)
        code, stranded = self._exit_code_and_stranded(
            self.ARGV + ["--checkpoint-dir", str(tmp_path), "--resume"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "engine format" in err and "generating" not in err
        assert not stranded


class TestAbbreviationRejection:
    """Prefix abbreviation is off: flag typos are usage errors.

    The regression: with argparse's default ``allow_abbrev=True`` a
    typo like ``--ag sketch`` silently matched ``--agg``, so
    ``repro stream --ag ...`` ran in whatever mode the prefix resolved
    to — and the footer printed sketch eps/delta for what the operator
    thought was an exact run.
    """

    @pytest.mark.parametrize("argv", [
        ["stream", "--ag", "sketch"],
        ["stream", "--shard", "2"],
        ["scenarios", "run", "--scenario", "flash_crowd", "--sca", "0.5"],
    ])
    def test_abbreviated_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_exact_mode_footer_never_mentions_sketch(self, capsys):
        assert main(["stream", "--days", "1", "--shards", "2"]) == 0
        assert "sketch:" not in capsys.readouterr().out


class TestScenarios:
    def test_list_names_every_registered_scenario(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_prints_scorecard_summary_and_passes(self, capsys):
        assert main(
            ["scenarios", "run", "--scenario", "volumetric_flood",
             "--seed", "11", "--scale", "0.25"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario volumetric_flood" in out
        assert "[ok ]" in out and "PASSED" in out

    def test_run_json_is_canonical_and_shard_invariant(self, capsys):
        argv = ["scenarios", "run", "--scenario", "carpet_bombing",
                "--seed", "7", "--scale", "0.25", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--shards", "4"]) == 0
        second = capsys.readouterr().out
        assert first == second, "scorecard JSON drifted with shard count"
        card = json.loads(first)
        assert card["scenario"] == "carpet_bombing" and card["passed"]
        for metric in ("detection_latency_max_bins", "localization_precision",
                       "localization_recall", "benign_collateral_rate"):
            assert metric in card["metrics"]

    def test_run_out_writes_the_same_json(self, capsys, tmp_path):
        path = tmp_path / "card.json"
        assert main(
            ["scenarios", "run", "--scenario", "volumetric_flood",
             "--seed", "11", "--scale", "0.25", "--json", "--out", str(path)]
        ) == 0
        captured = capsys.readouterr()
        assert path.read_text() == captured.out
        assert "scorecard written" in captured.err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenarios", "run", "--scenario", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "volumetric_flood" in err

    def test_failing_oracle_exits_1(self, capsys, monkeypatch):
        import repro.scenarios.conductor as conductor
        from repro.scenarios import Scenario, get_scenario
        from repro.scenarios.oracle import Check

        base = get_scenario("volumetric_flood")

        def impossible(seed, scale):
            spec = base.build(seed, scale)
            return type(spec)(
                **{**spec.__dict__,
                   "checks": (Check("cannot hold", "detection_recall",
                                    ">=", 2.0),)}
            )

        monkeypatch.setitem(
            conductor._REGISTRY, "impossible",
            Scenario("impossible", "always fails", impossible),
        )
        assert main(
            ["scenarios", "run", "--scenario", "impossible",
             "--seed", "11", "--scale", "0.25"]
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "FAILED" in out

    def test_invalid_arguments_exit_2(self, capsys):
        for argv in (["scenarios", "run"],
                     ["scenarios", "run", "--scenario", "x", "--scale", "0"],
                     ["scenarios", "run", "--scenario", "x", "--shards", "0"],
                     ["scenarios", "run", "--scenario", "x", "--agg", "hll"],
                     ["scenarios"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            capsys.readouterr()


class TestLint:
    """``repro lint`` — the static-analysis front door."""

    @pytest.fixture(scope="class")
    def lint_cache(self, tmp_path_factory):
        return tmp_path_factory.mktemp("lint") / "lint-cache.json"

    @pytest.fixture(autouse=True)
    def cache_outside_the_checkout(self, monkeypatch, lint_cache):
        """A test run must leave no ``.repro-lint-cache.json`` behind in
        the working tree; one file for the class keeps reruns warm."""
        import dataclasses

        import repro.analysis

        real = repro.analysis.default_config
        monkeypatch.setattr(
            repro.analysis,
            "default_config",
            lambda root=None: dataclasses.replace(
                real(root), cache_path=lint_cache
            ),
        )

    def test_clean_tree_exits_zero_human(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "module(s) scanned" in out

    def test_json_schema(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["findings"] == []
        assert set(payload["counts"]) == {"findings", "suppressed"}
        assert payload["modules_scanned"] > 100
        assert "RS101" in payload["rules"]

    def test_rule_and_path_filters(self, capsys):
        assert main(
            ["lint", "--rules", "RS301,RS302", "src/repro/core"]
        ) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--rules", "RS999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_unknown_path_exits_2(self, capsys):
        """Regression: a typo'd PATH used to print a clean report."""
        assert main(["lint", "src/repro/coer"]) == 2
        captured = capsys.readouterr()
        assert "src/repro/coer" in captured.err
        assert "finding(s)" not in captured.out

    def test_suppressed_count_follows_the_path_filter(self, capsys):
        assert main(["lint"]) == 0
        whole = capsys.readouterr().out
        assert main(["lint", "src/repro/core/models/"]) == 0
        scoped = capsys.readouterr().out
        # The two RS101 suppressions in core/models/metrics.py, not the
        # whole tree's tally.
        assert " 2 suppressed" in scoped
        assert " 2 suppressed" not in whole

    def test_findings_exit_nonzero(self, capsys, monkeypatch):
        import repro.analysis
        from repro.analysis import Finding, LintResult

        fake = LintResult(
            findings=[
                Finding(rule="RS101", path="src/x.py", line=3, col=1,
                        message="wall-clock read", symbol="f")
            ],
            modules_scanned=1,
        )
        monkeypatch.setattr(
            repro.analysis, "run_lint", lambda *a, **k: fake
        )
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "src/x.py:3:1 RS101" in out
        assert "1 finding(s)" in out

    def test_warm_cache_json_matches_cold(self, capsys, lint_cache):
        """The CI gate: cached rerun output is byte-identical."""
        lint_cache.unlink(missing_ok=True)
        assert main(["lint", "--format", "json", "--no-cache"]) == 0
        cold = capsys.readouterr().out
        assert not lint_cache.exists()
        assert main(["lint", "--format", "json"]) == 0  # fills the cache
        filled = capsys.readouterr().out
        assert lint_cache.exists()
        assert main(["lint", "--format", "json"]) == 0  # replayed
        warm = capsys.readouterr().out
        assert cold == filled == warm


class TestStreamBackendResolution:
    """Unit tests for the flag/env -> backend mapping (no workers spawned)."""

    def _args(self, **overrides):
        import argparse

        defaults = dict(backend="serial", faults=None, ipc="pipe",
                        shard_timeout=None, max_restarts=None)
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def _resolve(self, monkeypatch, env=None, **overrides):
        """``_resolve_stream_backend`` under ``$REPRO_FAULTS=env``."""
        from repro.cli import _resolve_stream_backend, _stream_fault_plan
        from repro.core.resilience import FAULTS_ENV

        if env is None:
            monkeypatch.delenv(FAULTS_ENV, raising=False)
        else:
            monkeypatch.setenv(FAULTS_ENV, env)
        args = self._args(**overrides)
        return _resolve_stream_backend(args, _stream_fault_plan(args))

    def test_plain_backends_pass_through(self, monkeypatch):
        assert self._resolve(monkeypatch) == ("serial", {})
        # No faults planned, no fault_plan forwarded.
        assert self._resolve(monkeypatch, backend="supervised", ipc="shm") == (
            "supervised", {"ipc": "shm"}
        )

    def test_env_plan_is_ignored_on_serial(self, monkeypatch):
        # CI exports REPRO_FAULTS globally; a serial run has no workers
        # to supervise and must not fail because of it.
        assert self._resolve(monkeypatch, env="crash@0") == ("serial", {})

    def test_supervision_knobs_forwarded(self, monkeypatch):
        backend, options = self._resolve(
            monkeypatch, backend="supervised", shard_timeout=5.0, max_restarts=1
        )
        assert backend == "supervised"
        assert options["shard_timeout"] == 5.0 and options["max_restarts"] == 1
        assert "fault_plan" not in options

    def test_env_plan_reaches_the_workers(self, monkeypatch):
        from repro.core.resilience import FaultPlan

        _, options = self._resolve(
            monkeypatch, env="crash@0:batch=1;enospc@2", backend="supervised"
        )
        assert options["fault_plan"] == FaultPlan.parse("crash@0:batch=1")

    def test_explicit_faults_replace_env_plan(self, monkeypatch):
        from repro.core.resilience import FaultPlan

        # Disk-only, still explicit: the env's worker crash is gone.
        plan = FaultPlan.parse("enospc@1")
        _, options = self._resolve(
            monkeypatch, env="crash@0:batch=1", backend="supervised", faults=plan
        )
        assert "fault_plan" not in options
        plan = FaultPlan.parse("slow@1;enospc@1")
        _, options = self._resolve(
            monkeypatch, env="crash@0:batch=1", backend="supervised", faults=plan
        )
        assert options["fault_plan"] == FaultPlan.parse("slow@1")
