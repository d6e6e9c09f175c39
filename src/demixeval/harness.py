"""Challenge orchestration: round planning, song scoring, ranking, score files.

A submission is a directory tree mirroring the manifest,
estimates_root/<song_id>/{bass,drums,other,vocals}.wav. Songs flagged
is_demo never enter rounds or leaderboards. A stem listed in a song's
silent_stems is still scored but excluded from the per-song mean, so a
silent bass yields the mean over the other three stems.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .audio_io import DatasetManifest, SongEntry, StemKind, Waveform, _typed, read_wav_header
from .errors import (
    EvaluationError,
    InvalidInputError,
    ManifestError,
    MissingEstimateError,
    MissingSubmissionError,
)
from .metrics import MetricConfig, StemScores, sdr_song, streamed_sdr


class Leaderboard(Enum):
    A = "A"  # restricted to MUSDB18(-HQ) training data
    B = "B"  # unrestricted training data

    def __str__(self) -> str:
        return self.value


_BOARD_A_DATASETS = {"musdb18", "musdb18-hq"}


@dataclass(frozen=True)
class SubmissionDescriptor:
    """One system's declared track and estimate location."""

    system_id: str
    leaderboard: Leaderboard
    training_data_declaration: str
    estimates_root: Path

    def __post_init__(self) -> None:
        if not self.system_id:
            raise InvalidInputError("system_id must be non-empty")
        if self.leaderboard is Leaderboard.A:
            parts = [p.strip() for p in re.split(r"[+,]", self.training_data_declaration)]
            parts = [p for p in parts if p]
            if not parts or any(p.lower() not in _BOARD_A_DATASETS for p in parts):
                raise InvalidInputError(
                    f"system {self.system_id}: leaderboard A requires a training data "
                    f"declaration naming only MUSDB18 or MUSDB18-HQ, got "
                    f"{self.training_data_declaration!r}"
                )
        object.__setattr__(self, "estimates_root", Path(self.estimates_root))


@dataclass(frozen=True)
class SongScore:
    """Scores for one song: raw per-stem SDR plus the exclusion-aware mean."""

    song_id: str
    per_stem: StemScores
    sdr_song: float
    excluded_stems: Mapping[StemKind, str]
    excluded_song: bool = False
    exclusion_reason: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "excluded_stems", dict(self.excluded_stems))


@dataclass(frozen=True)
class RoundPlan:
    """Partition of the non-demo songs into rounds 1..3."""

    round_assignment: Mapping[str, int]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "round_assignment", dict(self.round_assignment))


@dataclass(frozen=True)
class LeaderboardEntry:
    rank: int
    system_id: str
    sdr_song_mean: float
    per_stem_means: Mapping[StemKind, float]
    rounds_included: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_stem_means", dict(self.per_stem_means))
        object.__setattr__(self, "rounds_included", frozenset(self.rounds_included))


def plan_rounds(manifest: DatasetManifest, seed: int) -> RoundPlan:
    """Split the non-demo songs into three near-equal rounds.

    Deterministic for a given seed; demo songs are assigned to no round.
    """
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    eligible = [song.song_id for song in manifest.eligible_songs()]
    if len(eligible) < 3:
        raise InvalidInputError(
            f"need at least 3 non-demo songs to plan rounds, got {len(eligible)}"
        )
    order = np.random.default_rng(seed).permutation(len(eligible))
    by_position = {eligible[int(idx)]: position % 3 + 1 for position, idx in enumerate(order)}
    assignment = {song_id: by_position[song_id] for song_id in eligible}
    return RoundPlan(assignment, int(seed))


def score_song(
    entry: SongEntry,
    estimates: Mapping[StemKind, Union[Waveform, str, Path]],
    cfg: MetricConfig = MetricConfig(),
) -> SongScore:
    """Score one song: global SDR per stem, then the exclusion-aware mean.

    Each estimate is a Waveform or the path of a WAVE file. The references
    are read from entry.stem_paths. Files are decoded one block at a time,
    so the working set does not grow with the song's length. Stems in
    entry.silent_stems are scored but left out of the mean and recorded in
    excluded_stems. Raises MissingEstimateError when a stem has no estimate,
    InvalidInputError on shape or rate mismatches, and the read_wav errors
    for files it cannot decode.
    """
    missing = [kind.value for kind in StemKind if kind not in estimates]
    if missing:
        raise MissingEstimateError(
            f"song {entry.song_id}: no estimate for {', '.join(missing)}"
        )
    # all estimate headers first, so a broken estimate file is reported ahead
    # of another stem's shape or rate mismatch
    sources = {}
    for kind in StemKind:
        estimate = estimates[kind]
        sources[kind] = estimate if isinstance(estimate, Waveform) else read_wav_header(estimate)
    values = {}
    for kind in StemKind:
        reference = read_wav_header(entry.stem_paths[kind])
        try:
            values[kind] = streamed_sdr(reference, sources[kind], cfg)
        except InvalidInputError as exc:
            raise InvalidInputError(f"song {entry.song_id}, stem {kind}: {exc}") from None
    excluded = {kind: "silent reference" for kind in StemKind if kind in entry.silent_stems}
    kept = {kind: values[kind] for kind in StemKind if kind not in excluded}
    mean = sdr_song(StemScores(kept))
    return SongScore(
        song_id=entry.song_id,
        per_stem=StemScores(values),
        sdr_song=mean,
        excluded_stems=excluded,
        excluded_song=entry.is_demo,
        exclusion_reason="demo song" if entry.is_demo else "",
    )


def fan_out(func, tasks, jobs: int) -> list:
    """[func(task) for task in tasks], over min(jobs, len(tasks)) worker processes.

    Results keep the task order. With one worker the tasks run in this process.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [func(task) for task in tasks]
    with multiprocessing.Pool(processes=workers) as pool:
        return list(pool.imap(func, tasks, chunksize=1))


def _score_task(task):
    entry, root, cfg = task
    try:
        estimates = {kind: root / entry.song_id / f"{kind.value}.wav" for kind in StemKind}
        return entry.song_id, score_song(entry, estimates, cfg), None
    except Exception as exc:  # collected and re-raised with full context
        return entry.song_id, None, f"{type(exc).__name__}: {exc}"


def evaluate_submission(
    submission: SubmissionDescriptor,
    manifest: DatasetManifest,
    plan: RoundPlan,
    rounds,
    cfg: MetricConfig = MetricConfig(),
    jobs: int = 1,
) -> list:
    """Score every non-demo song of the selected rounds, in manifest order.

    All missing estimate files are listed up front in one
    MissingSubmissionError. Per-song scoring failures are collected and
    raised together as an EvaluationError, never silently skipped.
    """
    rounds = set(rounds)
    if not rounds or not rounds <= {1, 2, 3}:
        raise InvalidInputError(f"rounds must be a non-empty subset of {{1, 2, 3}}, got {sorted(rounds)}")
    selected = []
    for song in manifest.songs:
        if song.is_demo:
            continue
        assigned = plan.round_assignment.get(song.song_id)
        if assigned is None:
            raise InvalidInputError(f"song {song.song_id} is not covered by the round plan")
        if assigned in rounds:
            selected.append(song)

    gaps = []
    for song in selected:
        for kind in StemKind:
            path = submission.estimates_root / song.song_id / f"{kind.value}.wav"
            if not path.is_file():
                gaps.append(str(path))
    if gaps:
        raise MissingSubmissionError(
            f"submission {submission.system_id} is missing {len(gaps)} estimate file(s):\n"
            + "\n".join(gaps)
        )

    tasks = [(song, submission.estimates_root, cfg) for song in selected]
    outcomes = fan_out(_score_task, tasks, jobs)
    failures = [(song_id, error) for song_id, _, error in outcomes if error is not None]
    if failures:
        raise EvaluationError(
            f"submission {submission.system_id}: {len(failures)} song(s) failed:\n"
            + "\n".join(f"{song_id}: {error}" for song_id, error in failures)
        )
    return [score for _, score, _ in outcomes]


def rank(
    results: Mapping[str, Sequence[SongScore]],
    leaderboard: Leaderboard,
    rounds=frozenset({1, 2, 3}),
) -> list:
    """Rank systems by mean per-song SDR over a common song set.

    Ties break on the Vocals, Drums, Bass, then Other stem means, then on
    system_id. Ranks are consecutive from 1. Demo-song records are ignored.
    """
    if not results:
        raise InvalidInputError("no systems to rank")
    usable = {
        system_id: [score for score in scores if not score.excluded_song]
        for system_id, scores in results.items()
    }
    song_sets = {system_id: frozenset(s.song_id for s in scores) for system_id, scores in usable.items()}
    reference_set = next(iter(song_sets.values()))
    mismatched = sorted(sid for sid, songs in song_sets.items() if songs != reference_set)
    if mismatched:
        raise InvalidInputError(
            f"systems were not scored on the same songs; differing: {', '.join(mismatched)}"
        )
    if not reference_set:
        raise InvalidInputError("no scorable songs (every record is excluded)")

    rows = []
    for system_id in results:
        scores = usable[system_id]
        mean = sum(score.sdr_song for score in scores) / len(scores)
        per_stem = {}
        for kind in StemKind:
            values = [
                score.per_stem.values[kind]
                for score in scores
                if kind in score.per_stem.values and kind not in score.excluded_stems
            ]
            if values:
                per_stem[kind] = sum(values) / len(values)
        rows.append((system_id, mean, per_stem))

    def sort_key(row):
        system_id, mean, per_stem = row
        return (
            -mean,
            -per_stem.get(StemKind.VOCALS, float("-inf")),
            -per_stem.get(StemKind.DRUMS, float("-inf")),
            -per_stem.get(StemKind.BASS, float("-inf")),
            -per_stem.get(StemKind.OTHER, float("-inf")),
            system_id,
        )

    rows.sort(key=sort_key)
    return [
        LeaderboardEntry(
            rank=index + 1,
            system_id=system_id,
            sdr_song_mean=mean,
            per_stem_means=per_stem,
            rounds_included=frozenset(rounds),
        )
        for index, (system_id, mean, per_stem) in enumerate(rows)
    ]


# ---------------------------------------------------------------------------
# score tables and documents

SCORE_CSV_COLUMNS = (
    "system_id",
    "song_id",
    "sdr_bass",
    "sdr_drums",
    "sdr_other",
    "sdr_vocals",
    "sdr_song",
    "excluded_stems",
    "excluded_song",
)

LEADERBOARD_CSV_COLUMNS = (
    "rank",
    "system_id",
    "sdr_song",
    "sdr_bass",
    "sdr_drums",
    "sdr_other",
    "sdr_vocals",
)


def format_value(value: float) -> str:
    """Fixed 6-significant-digit rendering used in score tables."""
    return format(value, ".6g")


def scores_to_csv(system_id: str, scores: Sequence[SongScore]) -> str:
    """Render per-song scores as a CSV table (column order documented in README)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SCORE_CSV_COLUMNS)
    for score in scores:
        excluded = ";".join(
            f"{kind.value}:{reason}"
            for kind, reason in sorted(score.excluded_stems.items(), key=lambda kv: kv[0].value)
        )
        writer.writerow(
            [
                system_id,
                score.song_id,
                *(format_value(score.per_stem.values[kind]) for kind in StemKind),
                format_value(score.sdr_song),
                excluded,
                score.exclusion_reason if score.excluded_song else "",
            ]
        )
    return buffer.getvalue()


def scores_to_document(
    submission: SubmissionDescriptor,
    scores: Sequence[SongScore],
    rounds,
    seed: int,
    cfg: MetricConfig,
) -> dict:
    """Structured (JSON-ready) score document, the input format of rank."""
    return {
        "system_id": submission.system_id,
        "leaderboard": submission.leaderboard.value,
        "training_data_declaration": submission.training_data_declaration,
        "rounds": sorted(rounds),
        "seed": seed,
        "epsilon": cfg.epsilon,
        "scores": [
            {
                "song_id": score.song_id,
                "per_stem": {
                    kind.value: score.per_stem.values[kind] for kind in StemKind
                    if kind in score.per_stem.values
                },
                "sdr_song": score.sdr_song,
                "excluded_stems": {
                    kind.value: reason for kind, reason in score.excluded_stems.items()
                },
                "excluded_song": score.excluded_song,
                "exclusion_reason": score.exclusion_reason,
            }
            for score in scores
        ],
    }


def _finite(value, what: str) -> float:
    """value as a float, if it is a finite JSON number."""
    value = float(_typed(value, float, what))
    if not math.isfinite(value):
        raise InvalidInputError(f"{what} must be finite, got {value}")
    return value


def load_score_document(path) -> dict:
    """Read back a score document; returns the parsed dict with SongScores.

    The result has keys system_id, leaderboard, rounds, seed, epsilon,
    scores. A file that is not a score document raises InvalidInputError:
    so do rounds that are not a non-empty list drawn from 1, 2 and 3, a seed
    that is not a JSON integer >= 0, a repeated song_id, a score or epsilon
    that is not a finite JSON number, an excluded_song that is not a JSON
    boolean, and an id or reason that is not a JSON string.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
    try:
        rounds = _typed(doc.get("rounds", [1, 2, 3]), list, "rounds")
        if not rounds or any(_typed(r, int, "a round") not in (1, 2, 3) for r in rounds):
            raise InvalidInputError(f"rounds must be a non-empty list drawn from 1, 2, 3, got {rounds}")
        seed = _typed(doc["seed"], int, "seed")
        if seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {seed}")
        scores = []
        seen = set()
        for index, record in enumerate(_typed(doc["scores"], list, "scores")):
            song_id = _typed(record["song_id"], str, f"song record {index}: song_id")
            if song_id in seen:
                raise InvalidInputError(f"repeated song_id {song_id!r}")
            seen.add(song_id)
            song = f"song {song_id}"
            values = {
                StemKind(name): _finite(value, f"{song}: {name}")
                for name, value in record["per_stem"].items()
            }
            excluded = {
                StemKind(name): _typed(reason, str, f"{song}: exclusion reason of {name}")
                for name, reason in record.get("excluded_stems", {}).items()
            }
            scores.append(
                SongScore(
                    song_id=song_id,
                    per_stem=StemScores(values),
                    sdr_song=_finite(record["sdr_song"], f"{song}: sdr_song"),
                    excluded_stems=excluded,
                    excluded_song=_typed(record.get("excluded_song", False), bool, f"{song}: excluded_song"),
                    exclusion_reason=_typed(record.get("exclusion_reason", ""), str, f"{song}: exclusion_reason"),
                )
            )
        return {
            "system_id": _typed(doc["system_id"], str, "system_id"),
            "leaderboard": Leaderboard(doc["leaderboard"]),
            "rounds": frozenset(rounds),
            "seed": seed,
            "epsilon": _finite(doc["epsilon"], "epsilon"),
            "scores": scores,
        }
    except KeyError as exc:
        raise InvalidInputError(f"{path}: score document has no {exc} field") from None
    except (ManifestError, AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: malformed score document ({exc})") from None


def leaderboard_to_csv(entries: Sequence[LeaderboardEntry]) -> str:
    """Render a leaderboard at 3-decimal precision."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(LEADERBOARD_CSV_COLUMNS)
    for entry in entries:
        stems = [
            f"{entry.per_stem_means[kind]:.3f}" if kind in entry.per_stem_means else ""
            for kind in StemKind
        ]
        writer.writerow(
            [entry.rank, entry.system_id, f"{entry.sdr_song_mean:.3f}", *stems]
        )
    return buffer.getvalue()
