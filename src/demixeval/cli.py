"""Command-line subcommands; `__main__.main` is the process entry point.

Subcommands: validate, score, rank, oracle, suite, analyze, plan. Every run
prints its effective configuration as '# key = value' lines before any
results, so a run is reproducible from its own output: the command, every
option build_parser gives it in the order its usage shows, then the values
its work derives (_print_config). Exit codes: 0 on success, 1 for
validation or metric errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

from .audio_io import (DEFAULT_MIX_TOLERANCE, StemKind, csv_text, format_value, line_text, load_manifest,
                       read_wav_header, remove_unfinished_writes, validate_song_audio, write_wav_blocks)
from .errors import DemixEvalError, InvalidInputError
from .metrics import DEFAULT_EPSILON, FRAMEWISE_FRAMES, MetricConfig, MetricId, metric_suite

# harness, oracle and analysis are imported by the commands and options that
# use them, so a process that runs suite, say, loads none of them


def _print_config(args, **derived) -> None:
    """Print the run's configuration as '# key = value' lines: the command, each
    of its options in declaration order, then the values its work derived.

    A derived value named like an option takes that option's place; any other
    follows the derived value named before it, or ends the block. A float prints
    as format(value, "g"), a list joined by commas, None as an empty value.
    """
    config = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
    keys, previous = list(config), None
    for key, value in derived.items():
        if key not in config:
            keys.insert(keys.index(previous) + 1 if previous else len(keys), key)
        config[key], previous = value, key
    print(f"# command = {args.command}")
    for key in keys:
        value = config[key]
        if isinstance(value, float):
            value = format(value, "g")
        elif isinstance(value, list):
            value = ",".join(map(str, value))
        print(f"# {key} = {'' if value is None else value}")


def _write_texts(texts) -> None:
    """Write each {path: text}; on any error remove every one of the files, then re-raise."""
    try:
        for path, text in texts.items():
            Path(path).write_text(text)
    except BaseException:
        for path in texts:
            with contextlib.suppress(OSError):  # never written, or a directory
                Path(path).unlink()
        raise


def cmd_validate(args) -> int:
    if not 0 <= args.tolerance < math.inf:
        raise InvalidInputError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    manifest = load_manifest(args.manifest)
    _print_config(args)
    print("song_id,status,max_deviation,issues,warnings")
    all_passed = True
    for entry in manifest.songs:
        report = validate_song_audio(entry, args.tolerance)
        status = "PASS" if report.passed else "FAIL"
        all_passed = all_passed and report.passed
        deviation = format(report.max_deviation, ".6g")
        issues = ";".join(report.issues)
        warnings = ";".join(report.warnings)
        # not csv_text: the recorded rows quote both text cells even when empty
        print(f'{entry.song_id},{status},{deviation},"{issues}","{warnings}"')
    return 0 if all_passed else 1


def cmd_score(args) -> int:
    from . import harness
    manifest = load_manifest(args.manifest)
    try:
        rounds = {int(part) for part in args.rounds.split(",") if part.strip()}
    except ValueError:
        expected = ",".join(map(str, harness.ROUNDS))
        raise InvalidInputError(f"cannot parse rounds {args.rounds!r}, expected e.g. {expected}") from None
    # every rule is checked before any audio is read
    document = harness.ScoreDocument(args.system, args.leaderboard, args.training_data, rounds, args.seed, args.epsilon)
    document = harness.evaluate_submission(document, manifest, args.estimates, jobs=args.jobs)
    table = harness.scores_to_csv(document)
    if args.out:  # written before anything is printed, so on any error stdout stays empty
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        _write_texts({f"{prefix}.csv": table,
                      f"{prefix}.json": json.dumps(harness.scores_to_document(document), indent=2) + "\n"})
    _print_config(args, rounds=sorted(document.rounds))
    print(table, end="")
    return 0


def cmd_rank(args) -> int:
    from . import harness
    documents = [harness.load_score_document(path) for path in args.scores]
    entries = harness.rank(documents, args.leaderboard)
    table = harness.leaderboard_to_csv(entries)
    if args.out:  # written before anything is printed; unlike score, rank creates no directory
        _write_texts({args.out: table})
    # rank checked that the documents agree on both
    _print_config(args, leaderboard=documents[0].leaderboard, rounds=sorted(documents[0].rounds))
    print(table, end="")
    return 0


def _oracle_paths(out_root, song_id) -> list:
    return [Path(out_root) / song_id / f"{stem.value}.wav" for stem in StemKind]


def _oracle_task(task):
    from . import oracle
    entry, kind, cfg, out_root = task
    mixture = read_wav_header(entry.mixture_path)
    stem_paths = {} if kind == "baseline" else entry.stem_paths
    references = {stem: read_wav_header(path) for stem, path in stem_paths.items()}
    blocks = oracle.separate(kind, mixture, references, cfg)  # checks every header first
    paths = _oracle_paths(out_root, entry.song_id)
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    write_wav_blocks(paths, mixture.num_channels, mixture.num_frames, mixture.sample_rate, blocks)
    return entry.song_id


def cmd_oracle(args) -> int:
    from . import harness, oracle
    manifest = load_manifest(args.manifest)
    cfg = oracle.OracleConfig(fft_size=args.fft, hop=args.hop)
    tasks = [(entry, args.kind, cfg, args.out) for entry in manifest.songs]
    try:
        song_ids = harness.fan_out(_oracle_task, tasks, args.jobs)
    finally:
        # a worker the pool stopped mid-song had no chance to remove its
        # files; by now no writer is alive
        for entry in manifest.songs:
            remove_unfinished_writes(_oracle_paths(args.out, entry.song_id))
    _print_config(args)  # once every song is written, so on any error stdout stays empty
    for song_id in song_ids:
        print(f"wrote {song_id}")
    return 0


def cmd_suite(args) -> int:
    reference = read_wav_header(args.reference)
    estimate = read_wav_header(args.estimate)
    cfg = MetricConfig(epsilon=args.epsilon)
    results = metric_suite(reference, estimate, cfg)
    _print_config(args, framewise_frames=FRAMEWISE_FRAMES)
    rows = [(m.value, format_value(results[m]) if m in results else "") for m in MetricId]
    print(csv_text([("metric", "value"), *rows]), end="")
    return 0


def cmd_analyze(args) -> int:
    from . import analysis
    if not math.isfinite(args.threshold):
        raise InvalidInputError(f"--threshold must be finite, got {args.threshold}")
    table = analysis.read_metric_table_csv(args.table)
    kind = analysis.CorrelationKind(args.kind)
    matrix = analysis.correlation_matrix(table, kind)
    _print_config(args, rows=len(table))
    print(matrix.to_csv(), end="")
    print()
    print(matrix.report(args.threshold), end="")
    return 0


def cmd_plan(args) -> int:
    from . import harness
    manifest = load_manifest(args.manifest)
    plan = harness.plan_rounds(manifest, args.seed)
    demo_ids = [entry.song_id for entry in manifest.songs if entry.song_id not in plan]
    _print_config(args, demo_songs_excluded=demo_ids)
    print(csv_text([("song_id", "round"), *plan.items()]), end="")  # manifest order
    return 0


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command line; given a command's name, only that
    command's options are declared, and only the layers they come from are
    imported. Every command keeps its name and help line, so --help reads the
    same either way."""
    parser = argparse.ArgumentParser(
        prog="demixeval",
        description="Evaluation harness for four-stem music source separation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help_line):
        p = subparsers.add_parser(name, help=help_line)
        return p if command in (None, name) else None

    if p := subcommand("validate", "check stem/mixture consistency per song"):
        p.add_argument("--manifest", required=True)
        p.add_argument("--tolerance", type=float, default=DEFAULT_MIX_TOLERANCE,
                       help="max allowed |mixture - sum(stems)| (default 1e-3)")
        p.set_defaults(func=cmd_validate)

    if p := subcommand("score", "score a submission tree against the manifest"):
        from . import harness
        p.add_argument("--manifest", required=True)
        p.add_argument("--estimates", required=True, help="root of <song_id>/<stem>.wav estimates")
        p.add_argument("--system", required=True)
        p.add_argument("--leaderboard", required=True, choices=[board.value for board in harness.Leaderboard])
        p.add_argument("--training-data", default="MUSDB18-HQ",
                       help="training data declaration (leaderboard A allows only MUSDB18/MUSDB18-HQ)")
        p.add_argument("--rounds", default=",".join(map(str, harness.ROUNDS)), help="comma-separated rounds to score")
        p.add_argument("--seed", type=int, default=0, help="round-plan seed")
        p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        p.add_argument("--out", default=None,
                       help="path prefix; writes <out>.csv and <out>.json score files")
        p.set_defaults(func=cmd_score)

    if p := subcommand("rank", "rank systems from score JSON files"):
        from . import harness
        p.add_argument("--scores", required=True, nargs="+", help="score .json files from `score --out`")
        p.add_argument("--leaderboard", choices=[board.value for board in harness.Leaderboard], default=None)
        p.add_argument("--out", default=None, help="also write the leaderboard CSV here")
        p.set_defaults(func=cmd_rank)

    if p := subcommand("oracle", "write oracle or baseline estimates for a manifest"):
        from . import oracle
        p.add_argument("--manifest", required=True)
        p.add_argument("--kind", required=True, choices=oracle.KINDS)
        p.add_argument("--out", required=True, help="output root, one directory per song")
        p.add_argument("--fft", type=int, default=oracle.OracleConfig.fft_size)
        p.add_argument("--hop", type=int, default=oracle.OracleConfig.hop)
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        p.set_defaults(func=cmd_oracle)

    if p := subcommand("suite", "run the full metric family on one file pair"):
        p.add_argument("--reference", required=True)
        p.add_argument("--estimate", required=True)
        p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
        p.set_defaults(func=cmd_suite)

    if p := subcommand("analyze", "correlation matrix over a metric table CSV"):
        from . import analysis
        p.add_argument("--table", required=True)
        p.add_argument("--kind", required=True, choices=[kind.value for kind in analysis.CorrelationKind])
        p.add_argument("--threshold", type=float, default=analysis.DEFAULT_CORRELATION_THRESHOLD)
        p.set_defaults(func=cmd_analyze)

    if p := subcommand("plan", "print the round assignment for a manifest"):
        p.add_argument("--manifest", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.set_defaults(func=cmd_plan)

    return parser


def run(argv=None, all_commands: bool = True) -> int:
    """Run one command line (default: sys.argv[1:]); return its exit code.

    all_commands=False declares the invoked command's options only, so only
    its layers load; the process entry point passes it. The default loads
    every layer, as perfbench's tracer, which wraps them in-process, expects.
    """
    argv = sys.argv[1:] if argv is None else argv
    # the top level has no option but --help, so the first other word names the command
    parser = build_parser(None if all_commands else next((arg for arg in argv if not arg.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():  # each is printed in a '# key = value' line
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, str):
                    line_text(item, f"--{name.replace('_', '-')}")
        return args.func(args)
    except (DemixEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
