"""Command-line subcommands; `__main__.main` is the process entry point.

Subcommands: validate, score, rank, oracle, suite, analyze, plan. Every run
prints its effective configuration as '# key = value' lines before any
results, so a run is reproducible from its own output. Exit codes: 0 on
success, 1 for validation or metric errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import analysis, harness, oracle
from .audio_io import StemKind, load_manifest, read_wav_header, validate_song_audio, write_wav_blocks
from .errors import DemixEvalError, InvalidInputError
from .metrics import MetricConfig, MetricId, metric_suite
from .harness import Leaderboard


def _print_config(command: str, pairs) -> None:
    print(f"# command = {command}")
    for key, value in pairs:
        print(f"# {key} = {value}")


def _parse_rounds(text: str) -> set:
    try:
        rounds = {int(part) for part in text.split(",") if part.strip()}
    except ValueError:
        raise InvalidInputError(f"cannot parse rounds {text!r}, expected e.g. 1,2,3") from None
    return rounds


def cmd_validate(args) -> int:
    if not 0 <= args.tolerance < math.inf:
        raise InvalidInputError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    manifest = load_manifest(args.manifest)
    _print_config(
        "validate",
        [("manifest", args.manifest), ("tolerance", format(args.tolerance, "g"))],
    )
    print("song_id,status,max_deviation,issues,warnings")
    all_passed = True
    for entry in manifest.songs:
        report = validate_song_audio(entry, args.tolerance)
        status = "PASS" if report.passed else "FAIL"
        all_passed = all_passed and report.passed
        deviation = format(report.max_deviation, ".6g")
        issues = ";".join(report.issues())
        warnings = ";".join(report.warnings)
        print(f'{entry.song_id},{status},{deviation},"{issues}","{warnings}"')
    return 0 if all_passed else 1


def cmd_score(args) -> int:
    manifest = load_manifest(args.manifest)
    rounds = _parse_rounds(args.rounds)
    cfg = MetricConfig(epsilon=args.epsilon)
    submission = harness.SubmissionDescriptor(
        system_id=args.system,
        leaderboard=Leaderboard(args.leaderboard),
        training_data_declaration=args.training_data,
        estimates_root=Path(args.estimates),
    )
    plan = harness.plan_rounds(manifest, args.seed)
    _print_config(
        "score",
        [
            ("manifest", args.manifest),
            ("estimates", args.estimates),
            ("system", args.system),
            ("leaderboard", args.leaderboard),
            ("training_data", args.training_data),
            ("rounds", ",".join(str(r) for r in sorted(rounds))),
            ("seed", args.seed),
            ("epsilon", format(args.epsilon, "g")),
            ("jobs", args.jobs),
            ("out", args.out if args.out else ""),
        ],
    )
    scores = harness.evaluate_submission(submission, manifest, plan, rounds, cfg, jobs=args.jobs)
    table = harness.scores_to_csv(args.system, scores)
    print(table, end="")
    if args.out:
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        Path(f"{prefix}.csv").write_text(table)
        document = harness.scores_to_document(submission, scores, rounds, args.seed, cfg)
        Path(f"{prefix}.json").write_text(json.dumps(document, indent=2) + "\n")
    return 0


def cmd_rank(args) -> int:
    documents = [harness.load_score_document(path) for path in args.scores]
    boards = {doc["leaderboard"] for doc in documents}
    if args.leaderboard is not None:
        board = Leaderboard(args.leaderboard)
        if boards != {board}:
            raise InvalidInputError(
                f"score files declare leaderboard(s) {sorted(b.value for b in boards)}, "
                f"but {board.value} was requested"
            )
    elif len(boards) != 1:
        raise InvalidInputError(
            f"score files mix leaderboards {sorted(b.value for b in boards)}; "
            "pass --leaderboard to disambiguate or rank them separately"
        )
    else:
        board = next(iter(boards))
    for field in ("epsilon", "seed"):
        values = sorted({doc[field] for doc in documents})
        if len(values) > 1:
            # a different stabilizer or round plan makes the scores incomparable
            raise InvalidInputError(f"score files disagree on {field}: {values}")
    results = {}
    rounds = set()
    for doc in documents:
        if doc["system_id"] in results:
            raise InvalidInputError(f"duplicate system_id {doc['system_id']!r}")
        results[doc["system_id"]] = doc["scores"]
        rounds |= set(doc["rounds"])
    entries = harness.rank(results, board, rounds=frozenset(rounds))
    _print_config(
        "rank",
        [
            ("scores", ",".join(str(p) for p in args.scores)),
            ("leaderboard", board.value),
            ("rounds", ",".join(str(r) for r in sorted(rounds))),
            ("out", args.out if args.out else ""),
        ],
    )
    table = harness.leaderboard_to_csv(entries)
    print(table, end="")
    if args.out:
        Path(args.out).write_text(table)
    return 0


def _oracle_task(task):
    entry, kind, cfg, out_root = task
    mixture = read_wav_header(entry.mixture_path)
    stem_paths = {} if kind == "baseline" else entry.stem_paths
    references = {stem: read_wav_header(path) for stem, path in stem_paths.items()}
    blocks = oracle.separate(kind, mixture, references, cfg)  # checks every header first
    song_dir = Path(out_root) / entry.song_id
    song_dir.mkdir(parents=True, exist_ok=True)
    paths = [song_dir / f"{stem.value}.wav" for stem in StemKind]
    write_wav_blocks(paths, mixture.num_channels, mixture.num_frames, mixture.sample_rate, blocks)
    return entry.song_id


def cmd_oracle(args) -> int:
    manifest = load_manifest(args.manifest)
    cfg = oracle.OracleConfig(fft_size=args.fft, hop=args.hop)
    _print_config(
        "oracle",
        [
            ("manifest", args.manifest),
            ("kind", args.kind),
            ("out", args.out),
            ("fft", args.fft),
            ("hop", args.hop),
            ("jobs", args.jobs),
        ],
    )
    tasks = [(entry, args.kind, cfg, args.out) for entry in manifest.songs]
    try:
        song_ids = harness.fan_out(_oracle_task, tasks, args.jobs)
    finally:
        # a worker the pool stopped mid-song had no chance to remove its
        # files; by now no writer is alive
        for entry in manifest.songs:
            for partial in Path(args.out, entry.song_id).glob("*.wav.partial"):
                partial.unlink()
    for song_id in song_ids:
        print(f"wrote {song_id}")
    return 0


def cmd_suite(args) -> int:
    reference = read_wav_header(args.reference)
    estimate = read_wav_header(args.estimate)
    cfg = MetricConfig(epsilon=args.epsilon)
    results = metric_suite(reference, estimate, cfg)
    _print_config(
        "suite",
        [
            ("reference", args.reference),
            ("estimate", args.estimate),
            ("epsilon", format(args.epsilon, "g")),
            ("framewise_frames", "1s/1s (30s/15s for bsseval_v3_framewise)"),
        ],
    )
    print("metric,value")
    for metric_id in MetricId:
        if metric_id in results:
            print(f"{metric_id.value},{harness.format_value(results[metric_id])}")
        else:
            print(f"{metric_id.value},")
    return 0


def cmd_analyze(args) -> int:
    if not math.isfinite(args.threshold):
        raise InvalidInputError(f"--threshold must be finite, got {args.threshold}")
    table = analysis.read_metric_table_csv(args.table)
    kind = analysis.CorrelationKind(args.kind)
    matrix = analysis.correlation_matrix(table, kind)
    _print_config(
        "analyze",
        [
            ("table", args.table),
            ("kind", args.kind),
            ("threshold", format(args.threshold, "g")),
            ("rows", len(table)),
        ],
    )
    print(matrix.to_csv(), end="")
    print()
    print(matrix.report(args.threshold), end="")
    return 0


def cmd_plan(args) -> int:
    manifest = load_manifest(args.manifest)
    plan = harness.plan_rounds(manifest, args.seed)
    demo_ids = [entry.song_id for entry in manifest.songs if entry.is_demo]
    _print_config(
        "plan",
        [
            ("manifest", args.manifest),
            ("seed", args.seed),
            ("demo_songs_excluded", ",".join(demo_ids)),
        ],
    )
    print("song_id,round")
    for entry in manifest.songs:
        if not entry.is_demo:
            print(f"{entry.song_id},{plan.round_assignment[entry.song_id]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demixeval",
        description="Evaluation harness for four-stem music source separation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("validate", help="check stem/mixture consistency per song")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tolerance", type=float, default=1e-3,
                   help="max allowed |mixture - sum(stems)| (default 1e-3)")
    p.set_defaults(func=cmd_validate)

    p = subparsers.add_parser("score", help="score a submission tree against the manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--estimates", required=True, help="root of <song_id>/<stem>.wav estimates")
    p.add_argument("--system", required=True)
    p.add_argument("--leaderboard", required=True, choices=["A", "B"])
    p.add_argument("--training-data", default="MUSDB18-HQ",
                   help="training data declaration (leaderboard A allows only MUSDB18/MUSDB18-HQ)")
    p.add_argument("--rounds", default="1,2,3", help="comma-separated rounds to score")
    p.add_argument("--seed", type=int, default=0, help="round-plan seed")
    p.add_argument("--epsilon", type=float, default=1e-7)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", default=None,
                   help="path prefix; writes <out>.csv and <out>.json score files")
    p.set_defaults(func=cmd_score)

    p = subparsers.add_parser("rank", help="rank systems from score JSON files")
    p.add_argument("--scores", required=True, nargs="+", help="score .json files from `score --out`")
    p.add_argument("--leaderboard", choices=["A", "B"], default=None)
    p.add_argument("--out", default=None, help="also write the leaderboard CSV here")
    p.set_defaults(func=cmd_rank)

    p = subparsers.add_parser("oracle", help="write oracle or baseline estimates for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kind", required=True, choices=["swf", "mwf", "baseline"])
    p.add_argument("--out", required=True, help="output root, one directory per song")
    p.add_argument("--fft", type=int, default=4096)
    p.add_argument("--hop", type=int, default=1024)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_oracle)

    p = subparsers.add_parser("suite", help="run the full metric family on one file pair")
    p.add_argument("--reference", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--epsilon", type=float, default=1e-7)
    p.set_defaults(func=cmd_suite)

    p = subparsers.add_parser("analyze", help="correlation matrix over a metric table CSV")
    p.add_argument("--table", required=True)
    p.add_argument("--kind", required=True, choices=["pearson", "spearman"])
    p.add_argument("--threshold", type=float, default=0.9)
    p.set_defaults(func=cmd_analyze)

    p = subparsers.add_parser("plan", help="print the round assignment for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_plan)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DemixEvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
