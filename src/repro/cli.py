"""Command-line interface (installed as both ``repro`` and ``ixp-scrubber``).

* ``repro list`` shows the available experiments;
* ``repro run <id> [--scale small|paper]`` executes one (or ``all``)
  and prints its tables and headline notes;
* ``repro stats`` drives a short synthetic workload through the
  streaming engine and prints the live metrics snapshot (counters,
  histogram percentiles, per-phase span timings) — the operator view
  documented in ``docs/METRICS.md``;
* ``repro stream --shards N`` does the same through the sharded
  parallel engine (``repro.core.parallel``), printing the merged
  coordinator + per-shard snapshot; ``--check`` runs the serial
  equivalence shadow alongside. ``--backend supervised`` runs worker
  processes under the fault-tolerant supervisor of
  ``repro.core.resilience``; ``--faults`` / the ``REPRO_FAULTS``
  environment variable inject a deterministic chaos plan.
  ``--agg sketch`` switches the counting path to mergeable sketches
  (``repro.core.features.sketches``; tune with ``--sketch-eps`` /
  ``--sketch-delta``, contract in ``docs/SKETCHES.md``) — mutually
  exclusive with ``--check``, whose shadow expects exact verdicts;
* ``repro scenarios list`` / ``repro scenarios run --scenario NAME``
  drive the seeded operational scenarios of ``repro.scenarios``
  end-to-end and print (or ``--json``-dump) the oracle scorecard;
  exit status 1 means the oracle checks failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments import SCALES


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must be in (0, 1)")
    return value


def _fault_plan(text: str):
    """argparse type for ``--faults`` (ValueError -> usage error)."""
    from repro.core.resilience import FaultPlan

    try:
        return FaultPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    for name, module in EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name:10s} {doc}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'ixp-scrubber list'", file=sys.stderr)
        return 2
    for target in targets:
        start = time.perf_counter()  # repro: lint-ignore[RS101] operator-facing wall time; never reaches results
        result = EXPERIMENTS[target].run(scale=args.scale)
        elapsed = time.perf_counter() - start  # repro: lint-ignore[RS101] operator-facing wall time; never reaches results
        print(result.summary())
        if args.plots and result.series:
            from repro.experiments.plots import render_series

            print(render_series(result.series))
        print(f"[{target} completed in {elapsed:.1f}s]\n")
    return 0


def _stream_profile(seed: int):
    """The IXP profile of the synthetic capture stats/stream drive."""
    from repro.ixp.profiles import IXPProfile

    return IXPProfile(
        name="IXP-STATS", region=11, n_members=8, traffic_scale=0.01,
        attacks_per_day=14.0, attack_intensity=25.0,
        benign_flows_per_target=5.0, benign_targets_per_minute=24,
        bins_per_day=48, seed=seed,
    )


def _stream_workload(profile, days: int):
    """Generate ``days`` of ``profile``'s synthetic capture."""
    from repro.ixp.fabric import IXPFabric
    from repro.traffic.workload import WorkloadGenerator

    print(
        f"generating {days} synthetic day(s) at {profile.name} "
        f"(seed {profile.seed})...",
        file=sys.stderr,
    )
    return WorkloadGenerator(IXPFabric(profile)).generate(0, days)


def _drive_engine(engine, capture, chunk_bins: int = 8, session=None) -> tuple[int, float]:
    """Stream a capture through an engine; return (verdicts, seconds).

    The chunking rule lives in :func:`repro.core.recovery.session.
    drive_engine` so the CLI, the scenario conductor, and crash/resume
    tests all tick through a capture identically — the precondition for
    byte-exact replay verification.
    """
    from repro.core.recovery.session import drive_engine

    start = time.perf_counter()  # repro: lint-ignore[RS101] throughput readout for the operator, not part of any verdict
    verdicts = drive_engine(
        engine,
        capture.flows,
        capture.updates,
        chunk_bins=chunk_bins,
        session=session,
    )
    return len(verdicts), time.perf_counter() - start  # repro: lint-ignore[RS101] throughput readout for the operator, not part of any verdict


def _print_snapshot(snap, fmt: str, footer: str) -> None:
    from repro import obs

    if fmt == "json":
        print(json.dumps(snap, sort_keys=True, indent=2))
    elif fmt == "prometheus":
        print(obs.prometheus_text(snap), end="")
    else:
        print(obs.format_snapshot(snap))
        print(footer)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a short synthetic streaming workload; print live metrics."""
    from repro import obs
    from repro.core.scrubber import ScrubberConfig
    from repro.core.streaming import StreamingScrubber

    profile = _stream_profile(args.seed)
    capture = _stream_workload(profile, args.days)
    engine = StreamingScrubber(
        config=ScrubberConfig(model="XGB", model_params={"n_estimators": 10}),
        window_days=2,
        bins_per_day=profile.bins_per_day,
        seed=1,
    )
    n_verdicts, elapsed = _drive_engine(engine, capture)
    _print_snapshot(
        obs.snapshot(engine.registry),
        args.format,
        f"\n[streamed {len(capture.flows):,} flows -> {n_verdicts} verdicts "
        f"in {elapsed:.1f}s; model ready: {engine.is_ready}]",
    )
    if args.jsonl:
        obs.JsonLinesExporter(args.jsonl).export(
            engine.registry, workload=profile.name, days=args.days
        )
        print(f"[snapshot appended to {args.jsonl}]", file=sys.stderr)
    return 0


def _stream_fault_plan(args: argparse.Namespace):
    """``--faults``, else the ``REPRO_FAULTS`` plan: a stream run reads
    the variable here, once; the library never reads it."""
    from repro.core.resilience import FaultPlan

    return args.faults if args.faults is not None else FaultPlan.from_env()


def _resolve_stream_backend(args: argparse.Namespace, plan) -> tuple[str, dict]:
    """Pick the backend + options for ``repro stream``; the worker specs
    of the fault ``plan`` go to a supervised backend.

    Worker ``--faults``, ``--shard-timeout``, ``--max-restarts`` and
    ``--ipc shm`` only make sense with worker processes to supervise
    and share memory with, so on the serial backend they are rejected
    as a usage error. A ``REPRO_FAULTS`` environment plan is not: CI
    exports it globally, and a serial run has no workers to fault.
    """
    from repro.core.resilience import FaultPlan

    if args.backend == "serial":
        # Disk faults are the checkpoint store's business, not the
        # workers': a plan with only disk specs is fine without workers.
        if (args.faults is not None and args.faults.worker_specs()) \
                or args.shard_timeout is not None \
                or args.max_restarts is not None \
                or args.ipc != "pipe":
            print(
                "error: worker --faults/--shard-timeout/--max-restarts and "
                "--ipc shm require --backend supervised",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return args.backend, {}
    options: dict = {"ipc": args.ipc}
    workers = FaultPlan(plan.worker_specs())
    if workers:
        options["fault_plan"] = workers
    if args.shard_timeout is not None:
        options["shard_timeout"] = args.shard_timeout
    if args.max_restarts is not None:
        options["max_restarts"] = args.max_restarts
    return args.backend, options


def _resolve_stream_agg(args: argparse.Namespace):
    """Pick the aggregation mode + sketch parameters for ``repro stream``.

    ``--sketch-eps`` / ``--sketch-delta`` only make sense with
    ``--agg sketch``, and the ``--check`` equivalence shadow only with
    exact aggregation (sketch verdicts are approximate by design), so
    either combination is a usage error.
    """
    from repro.core.features.sketches import SketchParams

    if args.agg != "sketch":
        if args.sketch_eps is not None or args.sketch_delta is not None:
            print(
                "error: --sketch-eps/--sketch-delta require --agg sketch",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return None
    if args.check:
        print(
            "error: --check requires exact aggregation; sketch-mode "
            "verdicts are approximate and cannot match the serial shadow",
            file=sys.stderr,
        )
        raise SystemExit(2)
    overrides: dict = {}
    if args.sketch_eps is not None:
        overrides["epsilon"] = args.sketch_eps
    if args.sketch_delta is not None:
        overrides["delta"] = args.sketch_delta
    return SketchParams(**overrides)


def _resolve_stream_recovery(args: argparse.Namespace, plan):
    """``RecoverySession`` keyword arguments for ``repro stream``, or None;
    the disk specs of the fault ``plan`` go to the session.

    ``--checkpoint-every``/``--resume`` without ``--checkpoint-dir`` are
    usage errors. Needs no engine, so it runs before one (and its
    worker processes) exists.
    """
    from pathlib import Path

    if args.checkpoint_dir is None:
        if args.resume or args.checkpoint_every is not None:
            print(
                "error: --resume/--checkpoint-every require --checkpoint-dir",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return None
    return dict(
        directory=Path(args.checkpoint_dir),
        every=8 if args.checkpoint_every is None else args.checkpoint_every,
        resume=args.resume,
        fault_specs=plan.disk_specs(),
    )


def _cmd_stream(args: argparse.Namespace) -> int:
    """Drive the sharded parallel engine; print the merged snapshot."""
    from repro.core.parallel import ShardedStreamingScrubber
    from repro.core.recovery import RecoveryError, RecoverySession
    from repro.core.scrubber import ScrubberConfig

    plan = _stream_fault_plan(args)
    backend, backend_options = _resolve_stream_backend(args, plan)
    sketch_params = _resolve_stream_agg(args)
    recovery = _resolve_stream_recovery(args, plan)
    profile = _stream_profile(args.seed)
    engine = ShardedStreamingScrubber(
        config=ScrubberConfig(model="XGB", model_params={"n_estimators": 10}),
        n_shards=args.shards,
        backend=backend,
        backend_options=backend_options,
        equivalence_check=args.check,
        agg=args.agg,
        sketch_params=sketch_params,
        window_days=2,
        bins_per_day=profile.bins_per_day,
        seed=1,
    )
    session = None
    try:
        # Recovery-layer failures (corrupt journal, refusing to overwrite
        # history, incompatible snapshot, divergent replay) exit 3 with
        # the typed error's message rather than a traceback.
        try:
            # The session reads the checkpoint before the capture is
            # generated, so a refused resume exits at once.
            if recovery is not None:
                session = RecoverySession(engine, **recovery)
            capture = _stream_workload(profile, args.days)
            n_verdicts, elapsed = _drive_engine(engine, capture, session=session)
        except RecoveryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(3) from exc
        snap = engine.merged_snapshot()
    finally:
        if session is not None:
            session.close()
        engine.close()
    rate = len(capture.flows) / elapsed if elapsed > 0 else float("inf")
    counters = {c["name"]: int(c["value"]) for c in snap["counters"]}
    resilience_note = ""
    if backend == "supervised":
        resilience_note = (
            f"; resilience: {counters.get('resilience.worker_restarts', 0)} "
            f"restarts, {counters.get('resilience.batches_quarantined', 0)} "
            f"quarantined, {counters.get('resilience.deadline_misses', 0)} "
            "deadline misses"
        )
    sketch_note = ""
    if sketch_params is not None:
        # The coordinator's own gauge is the merged state; the merged
        # snapshot adds every shard's share of it on top.
        gauge = engine.registry.gauge
        sketch_note = (
            f"; sketch: eps={sketch_params.epsilon:g} "
            f"delta={sketch_params.delta:g}, "
            f"{gauge('sketch.memory_bytes').value / 1e6:.1f} MB state, "
            f"flow overcount <= {gauge('sketch.error_bound').value:,.0f}"
        )
    ipc_note = ""
    if args.ipc == "shm":
        ipc_note = (
            f"; ipc: shm, {counters.get('parallel.ipc_ring_bytes', 0) / 1e6:.1f}"
            f" MB ring traffic, {counters.get('parallel.ipc_fallbacks', 0)} "
            "pipe fallbacks"
        )
    recovery_note = ""
    if session is not None:
        recovery_note = (
            f"; recovery: {counters.get('checkpoint.saves', 0)} snapshots, "
            f"{counters.get('checkpoint.failures', 0)} write failures, "
            f"{counters.get('checkpoint.journal_appends', 0)} journal appends"
            + (", resumed" if args.resume else "")
        )
    _print_snapshot(
        snap,
        args.format,
        f"\n[streamed {len(capture.flows):,} flows -> {n_verdicts} verdicts "
        f"in {elapsed:.1f}s ({rate:,.0f} flows/s) across {args.shards} "
        f"{backend} shard(s); model ready: {engine.is_ready}"
        f"{'; equivalence checked' if args.check else ''}"
        f"{resilience_note}{ipc_note}{sketch_note}{recovery_note}]",
    )
    return 0


def _cmd_scenarios_list(_: argparse.Namespace) -> int:
    from repro.scenarios import all_scenarios

    for scenario in all_scenarios():
        print(f"{scenario.name:18s} {scenario.summary}")
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    """Conduct one scenario; print its scorecard. Exit 1 on oracle fail."""
    from repro.core.resilience import FaultPlan
    from repro.scenarios import get_scenario, run_scenario, scorecard_json

    try:
        get_scenario(args.scenario)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    result = run_scenario(
        args.scenario,
        seed=args.seed,
        scale=args.scale,
        shards=args.shards,
        backend=args.backend,
        agg=args.agg,
        backend_options=(
            {"fault_plan": FaultPlan.from_env()} if args.backend == "supervised" else None
        ),
    )
    scorecard = result.scorecard
    rendered = scorecard_json(scorecard)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"[scorecard written to {args.out}]", file=sys.stderr)
    if args.json:
        print(rendered)
    else:
        metrics = scorecard["metrics"]
        print(
            f"scenario {scorecard['scenario']} (seed {scorecard['seed']}, "
            f"scale {scorecard['scale']:g}) — "
            f"{scorecard['stream']['flows']:,} flows, "
            f"{scorecard['stream']['bins']} bins, "
            f"{scorecard['truth']['attacks']} attack(s) injected"
        )
        for check in scorecard["checks"]:
            mark = "ok " if check["passed"] else "FAIL"
            print(
                f"  [{mark}] {check['name']}: {check['metric']}="
                f"{check['value']} (want {check['op']} {check['threshold']})"
            )
        latency = metrics["detection_latency_max_bins"]
        print(
            f"  recall {metrics['detection_recall']:.2f}, "
            f"precision {metrics['localization_precision']:.2f}, "
            f"max latency "
            f"{'-' if latency is None else f'{latency:g} bins'}, "
            f"collateral {metrics['benign_collateral_rate']:.3f} "
            f"({result.execution['shards']} {result.execution['backend']} "
            f"shard(s))"
        )
        print("PASSED" if scorecard["passed"] else "FAILED")
    return 0 if scorecard["passed"] else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the repro.analysis passes over src/ and report findings."""
    import dataclasses
    from pathlib import Path

    from repro.analysis import (
        default_config,
        format_human,
        format_json,
        rule_exists,
        run_lint,
    )

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if not rule_exists(r)]
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    root = Path(__file__).resolve().parents[2]
    config = default_config(root)
    if args.no_cache:
        config = dataclasses.replace(config, cache_path=None)
    try:
        result = run_lint(config, paths=tuple(args.paths), rules=rules)
    except ValueError as exc:  # a PATH that matches no scanned module
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_json(result) if args.format == "json" else format_human(result))
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    # No prefix abbreviation anywhere: a typo like `--ag sketch` must be
    # a usage error, not a silent match for `--agg`.
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IXP Scrubber reproduction (SIGCOMM 2022) experiment runner",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "list", help="list available experiments", allow_abbrev=False
    ).set_defaults(func=_cmd_list)
    run_parser = sub.add_parser(
        "run", help="run one experiment (or 'all')", allow_abbrev=False
    )
    run_parser.add_argument("experiment", help="experiment id or 'all'")
    run_parser.add_argument(
        "--scale", choices=SCALES, default="small", help="corpus scale"
    )
    run_parser.add_argument(
        "--plots", action="store_true", help="render series as ASCII sparklines"
    )
    run_parser.set_defaults(func=_cmd_run)
    stats_parser = sub.add_parser(
        "stats",
        help="run a short synthetic streaming workload and print live metrics",
        allow_abbrev=False,
    )
    stats_parser.add_argument(
        "--days",
        type=_positive_int,
        default=2,
        help="simulated days to stream (default 2)",
    )
    stats_parser.add_argument(
        "--seed", type=int, default=55, help="workload generator seed"
    )
    stats_parser.add_argument(
        "--format",
        choices=("text", "json", "prometheus"),
        default="text",
        help="snapshot output format",
    )
    stats_parser.add_argument(
        "--jsonl",
        metavar="PATH",
        help="also append the snapshot to this JSON-lines file",
    )
    stats_parser.set_defaults(func=_cmd_stats)
    stream_parser = sub.add_parser(
        "stream",
        help="run the synthetic workload through the sharded parallel engine",
        allow_abbrev=False,
    )
    stream_parser.add_argument(
        "--days",
        type=_positive_int,
        default=2,
        help="simulated days to stream (default 2)",
    )
    stream_parser.add_argument(
        "--seed", type=int, default=55, help="workload generator seed"
    )
    stream_parser.add_argument(
        "--shards",
        type=_positive_int,
        default=4,
        help="number of worker shards (default 4)",
    )
    stream_parser.add_argument(
        "--backend",
        choices=("serial", "supervised"),
        default="serial",
        help="shard execution backend: in-process, or worker processes "
        "under the fault-tolerant supervisor",
    )
    stream_parser.add_argument(
        "--ipc",
        choices=("pipe", "shm"),
        default="pipe",
        help="worker transport of the supervised backend: pickled pipe "
        "messages (default) or batch bytes through per-shard "
        "shared-memory rings (docs/IPC.md)",
    )
    stream_parser.add_argument(
        "--check",
        action="store_true",
        help="assert verdict equivalence against a shadow serial engine",
    )
    stream_parser.add_argument(
        "--shard-timeout",
        type=_positive_float,
        metavar="SECONDS",
        help="supervised backend: deadline for any single shard reply",
    )
    stream_parser.add_argument(
        "--max-restarts",
        type=_nonnegative_int,
        metavar="N",
        help="supervised backend: per-shard restart budget before the "
        "shard degrades to serial execution",
    )
    stream_parser.add_argument(
        "--faults",
        type=_fault_plan,
        metavar="PLAN",
        help="deterministic fault-injection plan, e.g. "
        "'crash@0:batch=3;slow@*:secs=0.05' (default: $REPRO_FAULTS)",
    )
    stream_parser.add_argument(
        "--agg",
        choices=("exact", "sketch"),
        default="exact",
        help="aggregation mode: exact per-bin buffering (default) or "
        "mergeable count-min sketches (docs/SKETCHES.md)",
    )
    stream_parser.add_argument(
        "--sketch-eps",
        type=_unit_interval,
        metavar="EPS",
        help="sketch mode: relative error bound epsilon (default 0.005)",
    )
    stream_parser.add_argument(
        "--sketch-delta",
        type=_unit_interval,
        metavar="DELTA",
        help="sketch mode: error-bound failure probability (default 0.01)",
    )
    stream_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="enable crash-safe checkpointing into this directory "
        "(snapshots + verdict journal; see docs/RECOVERY.md)",
    )
    stream_parser.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        metavar="TICKS",
        help="snapshot cadence in ingest ticks (default 8; journal "
        "appends happen every tick regardless)",
    )
    stream_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue the run recorded in --checkpoint-dir: restore the "
        "newest valid snapshot, replay-verify up to the journal head, "
        "then emit only verdicts the dead run never emitted",
    )
    stream_parser.add_argument(
        "--format",
        choices=("text", "json", "prometheus"),
        default="text",
        help="snapshot output format",
    )
    stream_parser.set_defaults(func=_cmd_stream)
    scen_parser = sub.add_parser(
        "scenarios",
        help="list or run the seeded operational scenarios (repro.scenarios)",
        allow_abbrev=False,
    )
    scen_sub = scen_parser.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser(
        "list",
        help="list the registered scenarios",
        allow_abbrev=False,
    ).set_defaults(func=_cmd_scenarios_list)
    scen_run = scen_sub.add_parser(
        "run",
        help="conduct one scenario end-to-end and score it",
        allow_abbrev=False,
    )
    scen_run.add_argument(
        "--scenario",
        required=True,
        metavar="NAME",
        help="scenario name (see 'repro scenarios list')",
    )
    scen_run.add_argument(
        "--seed", type=int, default=7, help="scenario seed (default 7)"
    )
    scen_run.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="workload scale multiplier (default 1.0)",
    )
    scen_run.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="number of worker shards (default 1; scorecard is invariant)",
    )
    scen_run.add_argument(
        "--backend",
        choices=("serial", "supervised"),
        default="serial",
        help="shard execution backend (supervised injects the $REPRO_FAULTS plan)",
    )
    scen_run.add_argument(
        "--agg",
        choices=("exact", "sketch"),
        default="exact",
        help="aggregation mode (exact keeps scorecards shard-invariant)",
    )
    scen_run.add_argument(
        "--json",
        action="store_true",
        help="print the scorecard as canonical JSON instead of a summary",
    )
    scen_run.add_argument(
        "--out",
        metavar="PATH",
        help="also write the scorecard JSON to this file",
    )
    scen_run.set_defaults(func=_cmd_scenarios_run)
    lint_parser = sub.add_parser(
        "lint",
        help="run the project-aware static analysis (repro.analysis)",
        allow_abbrev=False,
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="restrict the report to these repo-relative files or "
        "directories (analysis always sees the whole tree; a path "
        "matching no scanned module is a usage error)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format",
    )
    lint_parser.add_argument(
        "--rules",
        metavar="RSnnn[,RSnnn...]",
        help="restrict the report to these rule ids",
    )
    lint_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write .repro-lint-cache.json (CI runs "
        "cold; results are identical either way)",
    )
    lint_parser.set_defaults(func=_cmd_lint)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
