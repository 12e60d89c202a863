#!/usr/bin/env python3
"""End-to-end benchmark of the streaming scrubber.

    python3 benchmarks/e2e/bench.py run --workload NAME|--all --seed S [--trace]
    python3 benchmarks/e2e/bench.py aa --sets 2 --runs 5
    python3 benchmarks/e2e/bench.py compare A.json B.json

``run`` builds a seeded capture, replays it lap after lap through the
real ``ShardedStreamingScrubber`` and prints every metric by name with
its unit, direction, sample count and regression bound; the last line of
its output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``). See README.md beside this file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
try:
    import repro  # noqa: F401 - installed, or on PYTHONPATH
except ImportError:
    sys.path.insert(1, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

import stats  # noqa: E402
from harness import (  # noqa: E402
    E2E_METRICS, FAIL_SHARE, MIN_LAPS, OUT_DIR, RunResult, reference_replay, run_workload,
    stop_children,
)
from layers import span_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: One factor on bins per day; 1.0 is the catalogue's starting point
#: (about 30 s of laps per workload), the default fits the driver's
#: budget of 92 runs in 3420 s.
DEFAULT_SCALE = 0.25
DEFAULT_SECONDS = 24.0


# -- machine and results files ------------------------------------------


def machine() -> dict:
    """Where and when a result was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_record(result: RunResult, seconds: float) -> dict:
    """One run as it is stored in a results file, raw per-lap values included."""
    return {
        "workload": result.workload,
        "seed": result.seed,
        "scale": result.scale,
        "seconds": seconds,
        "attempted": result.attempted,
        "failed": result.failed,
        "digest": result.digest,
        "pooled_ticks": result.pooled_ticks,
        "metrics": {name: m.value for name, m in result.end_to_end.items()},
        "per_layer": {name: m.value for name, m in result.per_layer.items()},
        "findings": result.findings,
        "setup_seconds": result.setup_seconds,
        "retrain_ticks": result.laps[0].retrain_ticks,
        "reference_tick_ms": [round(s * 1e3, 3) for s in reference_replay(result.laps)],
        "laps": [
            {
                "wall_s": round(lap.wall, 4),
                "calibration_ms": round(statistics.median(lap.calibration) * 1e3, 4),
                "stall_ms": [round(lap.tick_seconds[t] * 1e3, 2) for t in lap.retrain_ticks],
                "peak_rss_mb": lap.peak_rss_mb,
                "coordinator_cpu_s": round(lap.coordinator_cpu_s, 3),
                "worker_cpu_s": round(lap.worker_cpu_s, 3),
            }
            for lap in result.laps
        ],
    }


def write_results(path: Path, runs: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # One run per line keeps the tick lists readable in a diff.
    lines = ",\n".join(json.dumps(run, separators=(",", ":")) for run in runs)
    path.write_text(
        '{"machine": %s,\n"runs": [\n%s\n]}\n' % (json.dumps(machine()), lines)
    )


def runs_by_workload(path: Path) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in json.loads(path.read_text())["runs"]:
        out.setdefault(run["workload"], []).append(run)
    return out


# -- run ------------------------------------------------------------------


def print_result(result: RunResult) -> None:
    print(
        f"== {result.workload}  seed={result.seed}  scale={result.scale:g}  "
        f"laps={len(result.laps)} (min {MIN_LAPS})  pooled_ticks={result.pooled_ticks}  "
        f"attempted={result.attempted}  failed={result.failed}  digest={result.digest[:16]}"
    )
    print(f"{'metric':<42}{'value':>14} {'unit':<11}{'better':<8}{'bound':>6}{'n':>6}  note")
    for name, m in {**result.end_to_end, **result.per_layer}.items():
        bound = "" if m.bound is None else f"{m.bound:g}"
        samples = m.samples or ""
        print(f"{name:<42}{m.value:>14.4f} {m.unit:<11}{m.better:<8}{bound:>6}{samples:>6}  {m.note}")
    if result.traced is not None:
        print(f"-- traced lap: {result.traced.wall:.3f} s wall, {len(result.spans)} spans")
        print(f"{'span':<34}{'calls':>7}{'seconds':>10}{'self':>10}{'of wall':>9}")
        for name, calls, seconds, self_seconds, share in span_table(
            result.spans, result.traced.wall
        ):
            print(f"{name:<34}{calls:>7}{seconds:>10.4f}{self_seconds:>10.4f}{share:>9.1%}")
    for finding in result.findings:
        print(f"finding: {finding}")


def result_line(result: RunResult, trace: bool) -> dict:
    """The driver's contract: end-to-end metrics, or per-layer ones when traced."""
    chosen = result.per_layer if trace else {
        name: result.end_to_end[name] for name in E2E_METRICS
    }
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in chosen.items()},
    }


def cmd_run(args: argparse.Namespace) -> int:
    names = list(WORKLOADS) if args.all else [args.workload]
    trace = bool(args.trace)
    results = []
    for name in names:
        result = run_workload(
            WORKLOADS[name], args.seed, args.seconds, trace=trace, scale=args.scale,
        )
        print_result(result)
        if trace:
            path = OUT_DIR / ("trace.json" if not args.all else f"trace-{name}.json")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({
                "workload": name, "seed": args.seed, "scale": args.scale,
                "wall_s": result.traced.wall,
                "spans": [span.as_dict() for span in result.spans],
            }) + "\n")
            print(f"spans written to {path}")
        results.append(result)
    if args.out:
        write_results(Path(args.out), [run_record(r, args.seconds) for r in results])
    lines = [result_line(r, trace) for r in results]
    if not args.all:
        # Exit 0 whenever a result line was printed: `correct` carries
        # the verdict, a non-zero exit means there is no result.
        print(json.dumps(lines[0]))
        return 0
    # The repo's byte-identity claim: the process path changes no verdict.
    digests = {r.workload: r.digest for r in results}
    identical = digests["detect_inline"] == digests["detect_sharded"]
    if not identical:
        print("finding: detect_inline and detect_sharded verdict digests differ")
    print(json.dumps({
        "correct": identical and all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            f"{r.workload}.{name}": value
            for r, line in zip(results, lines) for name, value in line["metrics"].items()
        },
    }))
    return 0


# -- aa and compare ---------------------------------------------------------


def _judge_sets(parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> int:
    """Print every workload x metric of two sets; the number of breaches."""
    breaches = 0
    print(
        f"{'workload':<16}{'metric':<18}{'median A':>12}{'IQR A':>10}{'median B':>12}"
        f"{'IQR B':>10}{'B worse by':>12}{'spread':>8}{'bound':>7}  verdict"
    )
    for workload in parent:
        if workload not in change:
            continue
        a_runs, b_runs = parent[workload], change[workload]
        failed = sum(r["failed"] for r in a_runs + b_runs)
        for name, (_unit, better, bound) in E2E_METRICS.items():
            a = [r["metrics"][name] for r in a_runs]
            b = [r["metrics"][name] for r in b_runs]
            (a1, am, a3), (b1, bm, b3) = stats.quartiles(a), stats.quartiles(b)
            verdict = stats.judge(a, b, better, bound)
            worse = stats.worsening(am, bm, better)
            widest = max(stats.spread(a), stats.spread(b))
            # setup_s answers for its median only: its spread is the
            # page cache's and the scheduler's, not the program's.
            if verdict == "regressed" or (verdict == "unresolved" and name != "setup_s"):
                breaches += 1
            print(
                f"{workload:<16}{name:<18}{am:>12.4g}{a3 - a1:>10.3g}{bm:>12.4g}"
                f"{b3 - b1:>10.3g}{worse:>+12.1%}{widest:>8.1%}{bound:>7.0%}  {verdict}"
            )
        if failed:
            breaches += 1
            print(f"{workload:<16}{FAIL_SHARE:<18} {failed} failed ticks: breach")
    return breaches


def cmd_aa(args: argparse.Namespace) -> int:
    paths = []
    for index in range(args.sets):
        runs = []
        for name in WORKLOADS:
            for seed in range(1, args.runs + 1):
                tmp = OUT_DIR / f"aa-run-{os.getpid()}.json"
                subprocess.run(
                    [sys.executable, str(HERE / "bench.py"), "run", "--workload", name,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--scale", str(args.scale), "--out", str(tmp)],
                    check=True, stdout=subprocess.DEVNULL,
                )
                runs += json.loads(tmp.read_text())["runs"]
                tmp.unlink()
                print(f"set {index} {name} seed {seed}: "
                      f"{runs[-1]['metrics']['flows_per_s']:.0f} flows/s", file=sys.stderr)
        paths.append(OUT_DIR / f"aa-set{index}.json")
        write_results(paths[-1], runs)
    breaches = 0
    for later in paths[1:]:
        print(f"-- {paths[0].name} (A) against {later.name} (B), same code")
        breaches += _judge_sets(runs_by_workload(paths[0]), runs_by_workload(later))
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def cmd_compare(args: argparse.Namespace) -> int:
    print(f"-- {args.parent} (A, parent) against {args.change} (B, change)")
    breaches = _judge_sets(
        runs_by_workload(Path(args.parent)), runs_by_workload(Path(args.change))
    )
    print(f"{breaches} regressed or unresolved")
    return 1 if breaches else 0


# -- command line -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                       help="length of the timed laps of one run (at least %d laps)" % MIN_LAPS)
        p.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                       help="factor on every workload's bins per day")

    run = sub.add_parser("run", allow_abbrev=False, help="run one workload, or all of them")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(WORKLOADS))
    which.add_argument("--all", action="store_true")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="add one traced lap and report the per-layer metrics")
    run.add_argument("--out", help="also write a results JSON here")
    common(run)
    run.set_defaults(func=cmd_run)

    aa = sub.add_parser("aa", allow_abbrev=False, help="two sets of runs of the same code")
    aa.add_argument("--sets", type=int, default=2)
    aa.add_argument("--runs", type=int, default=5)
    common(aa)
    aa.set_defaults(func=cmd_aa)

    compare = sub.add_parser("compare", allow_abbrev=False, help="judge change against parent")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        # On every path out: no process this one started outlives it.
        stop_children()
