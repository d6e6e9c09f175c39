#!/usr/bin/env python3
"""demixeval benchmark: time the challenge's three jobs end to end and per module.

    python3 perfbench/run.py --workload round-score --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src``. Inputs are generated from --seed under ``.bench_work`` and deleted
when the run ends.

--trace 0 runs the workload's CLI sequence as fresh ``python -m demixeval``
processes (``--jobs`` = cores) until whole sequences fill --seconds, and
reports the end-to-end metrics from per-step medians over the sequences,
set-up as the median over repeated set-ups.

--trace 1 reports per-module metrics instead. It runs each ``--jobs`` step at
cores and at 1 (stdout and written files must match byte for byte), times a
cold process, and replays the sequence in-process through ``cli.run`` with
``--jobs 1``, once plain and once with spans around every public function.

Every step's output is checked against independently computed values; a
nonzero exit, a traceback or a failed check counts as a failed operation.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. ``--workload all`` runs every workload and prefixes metric names.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import procs
from tracing import Tracer

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
NPROC = os.cpu_count() or 1
WORKLOAD_NAMES = ("round-score", "oracle-build", "metric-study")
SETUP_REPEATS = 3


class Ledger:
    """Counts operations and keeps the problems of failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems[:5]))


def label(step) -> str:
    return " ".join(Path(arg).name if "/" in arg else arg for arg in step.args)


def check_outcome(ledger: Ledger, step, outcome) -> None:
    problems = outcome.problems()
    if not problems:
        problems = step.check(outcome.stdout)
    ledger.record(label(step), problems)


def digest(paths) -> dict:
    """sha256 of every file under the given files or directories."""
    out = {}
    for path in map(Path, paths):
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            out[str(file)] = hashlib.sha256(file.read_bytes()).hexdigest()
    return out


def without_jobs_line(stdout: str) -> str:
    return "".join(line for line in stdout.splitlines(True) if not line.startswith("# jobs = "))


def set_up(cls, seed: int, work: Path, repeats: int):
    """Build the inputs `repeats` times; keep the last, return the median time."""
    times = []
    for index in range(repeats):
        workload = cls(seed, work / f"inputs{index}")
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
        if index + 1 < repeats:
            shutil.rmtree(workload.root)
    workload.prepare_checks()
    return workload, statistics.median(times)


def footprint_mb(root: Path) -> float:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / 1e6


def measure(workload, setup_s: float, seconds: float, ledger: Ledger, env: dict, logs: Path) -> dict:
    """Timed sequences at --jobs NPROC, filling `seconds` with whole sequences.

    Another sequence starts while more than half a sequence of the window is
    left. Each step's wall time, CPU time and peak RSS is the median over the
    sequences; a sequence's figures are the sums (RSS: the maximum) of those
    medians, so a burst of load on another tenant moves one sample, not the
    result.
    """
    samples = []  # per sequence, per step: (wall, cpu, rss)
    measured = 0.0
    while not samples or measured + measured / len(samples) / 2 < seconds:
        steps = workload.steps(NPROC)
        outcomes = [procs.demixeval(step.args, env, logs) for step in steps]
        for step, outcome in zip(steps, outcomes):
            check_outcome(ledger, step, outcome)
        samples.append([(o.wall_s, o.cpu_s, o.maxrss_mb) for o in outcomes])
        measured += sum(o.wall_s for o in outcomes)
    print(f"# sequences = {len(samples)}, wall_s each = {[round(sum(s[0] for s in seq), 3) for seq in samples]}")
    per_step = [[statistics.median(values) for values in zip(*step)] for step in zip(*samples)]
    wall = sum(step[0] for step in per_step)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "audio_s_per_s": (workload.audio_s / wall, "s/s"),
        "cpu_s": (sum(step[1] for step in per_step), "s"),
        "peak_rss_mb": (max(step[2] for step in per_step), "MB"),
    }


def replay(workload, ledger: Ledger, tracer=None) -> float:
    """Run the sequence in-process through cli.run at --jobs 1; return its wall time."""
    from demixeval import cli

    wall = 0.0
    with tracer.installed() if tracer else nullcontext():
        for step in workload.steps(1):
            stdout = io.StringIO()
            started = time.perf_counter()
            try:
                with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                    code = cli.run(step.args)
            except Exception as exc:  # a traceback in a CLI process; record it, go on
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                problems = [f"exit code {code}"] if code else None
            wall += time.perf_counter() - started
            ledger.record("in-process " + label(step), problems or step.check(stdout.getvalue()))
    return wall


def jobs_pairs(workload, ledger: Ledger, env: dict, logs: Path) -> dict:
    """Each paired step at --jobs NPROC, then at 1: byte identity and jobs efficiency.

    Returns {command: (seconds at jobs 1, seconds at jobs NPROC)}.
    """
    totals = {}
    for step in workload.steps(NPROC):
        if not step.paired:
            continue
        runs = []
        for jobs in (NPROC, 1):
            outcome = procs.demixeval(step.with_jobs(jobs).args, env, logs)
            check_outcome(ledger, step, outcome)
            runs.append((outcome, digest(step.outputs)))
        (wide, wide_files), (narrow, narrow_files) = runs
        problems = []
        if without_jobs_line(wide.stdout) != without_jobs_line(narrow.stdout):
            problems.append(f"stdout differs between --jobs {NPROC} and --jobs 1")
        if wide_files != narrow_files:
            changed = sorted(set(wide_files.items()) ^ set(narrow_files.items()))
            problems.append(f"output files differ across --jobs: {[name for name, _ in changed[:3]]}")
        ledger.record("byte identity " + label(step), problems)
        one, many = totals.get(step.args[0], (0.0, 0.0))
        totals[step.args[0]] = (one + narrow.wall_s, many + wide.wall_s)
    return totals


def cold_probe(workload, ledger: Ledger, env: dict, logs: Path) -> dict:
    """First and warm costs in a fresh process, and the CLI's start-up time."""
    argv = [sys.executable, str(HERE / "probe.py"), *map(str, workload.probe_pair())]
    if any(step.args[0] == "suite" for step in workload.steps(1)):
        argv.append("--suite")
    outcome = procs.run(argv, env, logs)
    ledger.record("cold probe", outcome.problems())
    probe = json.loads(outcome.stdout) if outcome.returncode == 0 else {}
    starts = []
    for _ in range(3):
        plan = procs.demixeval(["plan", "--manifest", str(workload.manifest), "--seed", "0"], env, logs)
        ledger.record("plan", plan.problems())
        starts.append(plan.wall_s)
    probe["cli.startup_s"] = statistics.median(starts)
    return probe


def layers(workload, ledger: Ledger, env: dict, logs: Path) -> dict:
    pairs = jobs_pairs(workload, ledger, env, logs)
    probe = cold_probe(workload, ledger, env, logs)
    untraced = replay(workload, ledger)
    tracer = Tracer(workload.reference_paths())
    traced = replay(workload, ledger, tracer)
    spans = tracer.summary()

    def span(name, key="busy_s"):
        return spans[name][key] if name in spans else 0

    def rate(name):
        busy = span(name)
        return tracer.bytes[name] / busy / 1e6 if busy else 0.0

    def efficiency(command):
        if command not in pairs:
            return 0.0
        one, many = pairs[command]
        return one / (NPROC * many)

    metrics = {"cli.startup_s": (probe["cli.startup_s"], "s")}
    for name in ("audio_io.read_wav", "audio_io.write_wav", "metrics.global_sdr"):
        metrics[f"{name}.calls"] = (span(name, "calls"), "count")
        metrics[f"{name}.busy_s"] = (span(name), "s")
        metrics[f"{name}.mb_per_s"] = (rate(name), "MB/s")
    for name in ("audio_io.read_wav", "metrics.metric_suite"):
        metrics[f"{name}.first_call_s"] = (probe.get(f"{name}.first_call_s", 0.0), "s")
        metrics[f"{name}.warm_s"] = (probe.get(f"{name}.warm_s", 0.0), "s")
    metrics["audio_io.validate_song_audio.busy_s"] = (span("audio_io.validate_song_audio"), "s")
    metrics["metrics.metric_suite.calls"] = (span("metrics.metric_suite", "calls"), "count")
    metrics["metrics.framewise.calls"] = (span("metrics.framewise", "calls"), "count")
    for name in ("oracle.stft", "oracle.istft"):
        metrics[f"{name}.calls"] = (span(name, "calls"), "count")
        metrics[f"{name}.busy_s"] = (span(name), "s")
    for name in ("oracle.ideal_swf", "oracle.ideal_mwf"):
        metrics[f"{name}.busy_s"] = (span(name), "s")
        metrics[f"{name}.self_s"] = (span(name, "self_s"), "s")
    for name in ("oracle.ideal_swf", "oracle.ideal_mwf", "metrics.metric_suite"):
        metrics[f"{name}.peak_alloc_mb"] = (tracer.peak_alloc[name] / 1e6, "MB")
    metrics["harness.score_song.calls"] = (span("harness.score_song", "calls"), "count")
    metrics["harness.score_song.busy_s"] = (span("harness.score_song"), "s")
    metrics["harness.score_song.self_s"] = (span("harness.score_song", "self_s"), "s")
    metrics["harness.reference_decodes"] = (tracer.reference_decodes, "count")
    for name in ("harness.evaluate_submission", "harness.rank", "harness.load_score_document",
                 "analysis.read_metric_table_csv"):
        metrics[f"{name}.busy_s"] = (span(name), "s")
    for kind in ("pearson", "spearman"):
        metrics[f"analysis.correlation_matrix.{kind}_s"] = (span(f"analysis.correlation_matrix.{kind}"), "s")
    metrics["cli.score.jobs_efficiency"] = (efficiency("score"), "ratio")
    metrics["cli.oracle.jobs_efficiency"] = (efficiency("oracle"), "ratio")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    print(f"# in-process replay: untraced {untraced:.3f} s, traced {traced:.3f} s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    from workloads import WORKLOADS  # imports demixeval, so only once src is on the path

    ledger = Ledger()
    env = procs.cli_env(CHECKOUT)
    logs = work / "proc"
    logs.mkdir(parents=True)
    # set-up time is an end-to-end metric only; a traced run builds its inputs once
    workload, setup_s = set_up(WORKLOADS[name], seed, work, 1 if trace else SETUP_REPEATS)
    print(f"# {name}: inputs = {footprint_mb(workload.root):.1f} MB on disk, setup_s = {setup_s:.3f}")
    if trace:
        metrics = layers(workload, ledger, env, logs)
    else:
        metrics = measure(workload, setup_s, seconds, ledger, env, logs)
    shutil.rmtree(workload.root)
    for line in ledger.failures:
        print(f"FAILED {line}")
    print(f"# {name}: fail_ratio = {len(ledger.failures)}/{ledger.attempted}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    return ledger, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its CLI processes and deletes its inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (CHECKOUT / "src" / "demixeval" / "__init__.py").is_file():
        print(f"error: no demixeval sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    work = CHECKOUT / ".bench_work" / f"run-{os.getpid()}"
    attempted, failed, metrics = 0, 0, {}
    try:
        for name in names:
            ledger, values = run_workload(name, args.seed, args.seconds, bool(args.trace), work / name)
            attempted += ledger.attempted
            failed += len(ledger.failures)
            prefix = f"{name}." if args.workload == "all" else ""
            for key, (value, unit) in values.items():
                metrics[prefix + key] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
