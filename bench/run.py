#!/usr/bin/env python3
"""dynblotto benchmark: closed-loop CLI ops with checked outputs.

    python3 bench/run.py --workload exact|simulate|solve --seed N --seconds S --trace 0|1

Run from a source checkout: dynblotto is imported from the `src` directory
next to this one, never from an installed copy.  Every op goes in-process
through `dynblotto.cli.main([...,"--output", "json"])`, the path users run;
the report it prints is captured and checked after the timed phase.  One
process, one thread, one client: each op starts when the previous one
returns (a closed loop).

With `--trace 0` the run times a fixed set of ops, about S seconds' worth
on a 2-CPU machine (`workloads.passes`), and reports the end-to-end
metrics.  With `--trace 1` it runs a fixed number of ops with the layer
tracer installed, times the same ops untraced in a fresh child process, and
reports the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is the JSON result.
Files go to `.bench_build/dynblotto-bench/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "dynblotto-bench"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402  (stdlib only; dynblotto is imported later)

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# Ops per traced run: a fixed count, so the per-layer counts repeat exactly.
TRACE_OPS = {"exact": 26, "simulate": 6, "solve": 8}
# Simulate ops re-run after the timed phase to confirm identical reports.
RERUN_OPS = 2


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Outcome:
    status: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str]
    seconds: float


def import_dynblotto():
    """Import dynblotto from the checkout's src directory, or fail."""
    if not (SRC / "dynblotto" / "__init__.py").is_file():
        raise BenchmarkError(f"no dynblotto sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dynblotto
    import dynblotto.cli

    if not Path(dynblotto.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"imported dynblotto from {dynblotto.__file__}, not {SRC}")
    return dynblotto.cli


def execute(main, op, path, tracer=None, op_id=None) -> Outcome:
    """Run one op through the CLI entry point, capturing its output."""
    argv = op.argv(path)
    out, err = io.StringIO(), io.StringIO()
    status = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                status = main(argv)
            else:
                status = tracer.run_op(op_id, op.name, lambda: main(argv))
    except SystemExit as exit_:  # argparse rejects its arguments this way
        status = exit_.code if isinstance(exit_.code, int) else 1
    except Exception as exc:  # the op failed; record it and keep going
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    seconds = time.perf_counter() - start
    return Outcome(status, out.getvalue(), err.getvalue(), error, seconds)


def prepare(workload: str, seed: int, directory: Path):
    """Generate the workload, write its configs and run the warm-up ops."""
    main = import_dynblotto().main
    ops, warmups = workloads.generate(workload, seed)
    paths = workloads.write_configs(ops + warmups, directory)
    for op in warmups:
        outcome = execute(main, op, paths.get(op.name))
        if outcome.status != 0:
            raise BenchmarkError(f"warm-up op {op.name} failed: {outcome.error or outcome.stderr}")
    return main, ops, paths


def run_dir(workload: str, seed: int, tag: str) -> Path:
    return OUT / f"{tag}-{workload}-{seed}-{os.getpid()}"


def child(args, *extra) -> str:
    """Run this script in a fresh process; returns the last line it printed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchmarkError(f"child {extra} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# child modes


def setup_probe(args) -> None:
    """Time one set-up: import dynblotto, generate, write configs, warm up."""
    start = time.perf_counter()
    directory = run_dir(args.workload, args.seed, "setup")
    try:
        prepare(args.workload, args.seed, directory)
        print(repr(time.perf_counter() - start))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def untraced_baseline(args) -> None:
    """Wall time of the first `--baseline-ops` ops, untraced and unchecked."""
    directory = run_dir(args.workload, args.seed, "baseline")
    try:
        main, ops, paths = prepare(args.workload, args.seed, directory)
        start = time.perf_counter()
        for op in ops[:args.baseline_ops]:
            execute(main, op, paths.get(op.name))
        print(repr(time.perf_counter() - start))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics


def tail_latency(latencies):
    """(value, percentile) at the highest whole percentile with >= 10 ops beyond it.

    Nearest-rank percentiles.  With 10 or fewer ops no percentile qualifies
    and the maximum (percentile 100) is reported instead.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    for percentile in range(99, 0, -1):
        rank = -(-percentile * count // 100)  # ceil
        if count - rank >= 10:
            return ordered[rank - 1], percentile
    return ordered[-1], 100


def environment(load_before: str) -> dict:
    def git_sha():
        if not (ROOT / ".git").exists():
            return None
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() or None

    import numpy

    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": read_loadavg(),
    }


def read_loadavg() -> Optional[str]:
    try:
        with open("/proc/loadavg") as handle:
            return handle.read().strip()
    except OSError:
        return None


def check_outcomes(checker, runs) -> list:
    """Failure reason (or None) per (op, outcome) pair, in order."""
    return [checker.check(op, o.status, o.stdout, o.stderr, o.error) for op, o in runs]


def summary_lines(metrics: dict) -> list:
    return [f"metric {name} = {value['value']!r} {value['unit']}" for name, value in metrics.items()]


# ---------------------------------------------------------------------------
# runs


def timed_run(args, checker_cls):
    directory = run_dir(args.workload, args.seed, "run")
    setups = [float(child(args, "--setup-probe")) for _ in range(SETUP_REPEATS)]
    try:
        main, ops, paths = prepare(args.workload, args.seed, directory)
        runs = []
        start = time.perf_counter()
        for op in ops * workloads.passes(args.workload, args.seconds):
            runs.append((op, execute(main, op, paths.get(op.name))))
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # outside the timed region: re-run simulate ops to compare reports
        seen = [op.name for op, _ in runs]
        reruns = []
        for op in ops[:RERUN_OPS]:
            if op.command == "simulate" and seen.count(op.name) == 1:
                reruns.append((op, execute(main, op, paths.get(op.name))))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    checker = checker_cls()
    reasons = check_outcomes(checker, runs)
    for (op, _), reason in zip(reruns, check_outcomes(checker, reruns)):
        if reason is not None:
            index = seen.index(op.name)
            reasons[index] = reasons[index] or f"rerun: {reason}"

    latencies = [o.seconds for _, o in runs]
    tail, percentile = tail_latency(latencies)
    by_objective = {}
    for op, outcome in runs:
        objective = op.record.get("objective", "demo")
        by_objective[objective] = by_objective.get(objective, 0.0) + outcome.seconds
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(runs) / wall, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    details = {
        "timed_seconds": wall,
        "setup_samples_s": setups,
        "op_tail_percentile": percentile,
        "op_count": len(runs),
        "time_share_by_objective": {k: v / sum(latencies) for k, v in by_objective.items()},
        "checks": checker.counts,
        "reruns": len(reruns),
        "stream_input": workloads.input_record(ops),
    }
    return runs, reasons, metrics, details


def traced_run(args, checker_cls):
    from tracer import Tracer

    count = TRACE_OPS[args.workload]
    untraced = float(child(args, "--baseline-ops", str(count)))
    directory = run_dir(args.workload, args.seed, "trace")
    tracer = Tracer()
    try:
        main, ops, paths = prepare(args.workload, args.seed, directory)
        runs = []
        tracer.install()
        try:
            start = time.perf_counter()
            for index, op in enumerate(ops[:count]):
                runs.append((op, execute(main, op, paths.get(op.name), tracer, index)))
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    checker = checker_cls()
    reasons = check_outcomes(checker, runs)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in tracer.metrics().items()}
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "frac"}
    details = {"traced_seconds": traced, "untraced_seconds": untraced, "op_count": len(runs),
               "checks": checker.counts, "stream_input": workloads.input_record(ops)}
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                              "op_names": [op.name for op, _ in runs]})
    details["trace_file"] = str(trace_path.relative_to(ROOT))
    return runs, reasons, metrics, details


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--baseline-ops", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        if args.baseline_ops is not None:
            untraced_baseline(args)
            return 0
        load_before = read_loadavg()
        import_dynblotto()
        OUT.mkdir(parents=True, exist_ok=True)
        from checks import Checker

        run = traced_run if args.trace else timed_run
        runs, reasons, metrics, details = run(args, Checker)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1

    failures = [
        {"op": op.name, "reason": reason}
        for (op, _), reason in zip(runs, reasons) if reason is not None
    ]
    wrong = [f for f in failures
             if not f["reason"].startswith(("raised ", "exit status "))]
    ops_run = {op.name: op for op, _ in runs}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(load_before),
        "input": workloads.input_record([op for op, _ in runs]),
        "input_ops": {name: op.record for name, op in ops_run.items()},
        "failed_ops_frac": len(failures) / len(runs),
        "failures": failures,
        "details": details,
        "latencies_ms": [[op.name, o.seconds * 1e3] for op, o in runs],
        "metrics": metrics,
    }
    result_path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n")

    for line in summary_lines(metrics):
        print(line)
    print(f"failed_ops_frac = {report['failed_ops_frac']!r} ({len(failures)} of {len(runs)} ops)")
    for failure in failures[:5]:
        print(f"failed op {failure['op']}: {failure['reason']}")
    print(f"input: {json.dumps(report['input'], sort_keys=True)}")
    print(f"details: {json.dumps(details, sort_keys=True)}")
    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    print(f"full report: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
