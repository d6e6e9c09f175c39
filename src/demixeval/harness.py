"""Challenge orchestration: round planning, song scoring, ranking, score files.

A submission is a directory tree mirroring the manifest,
estimates_root/<song_id>/{bass,drums,other,vocals}.wav. The manifest alone
decides what is excluded: songs flagged is_demo never enter rounds, and a
stem listed in a song's silent_stems is still scored but excluded from the
per-song mean, so a silent bass yields the mean over the other three stems.
That mean is always derived from the per-stem scores, never stored on its
own. rank ranks every record it is given, and decides which score documents
may be ranked together.
"""

from __future__ import annotations

import math
import multiprocessing
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .audio_io import (DatasetManifest, SongEntry, StemKind, Waveform, _read_json, _typed, check_song_id, csv_text,
                       read_wav_header)
from .errors import (
    EvaluationError,
    InvalidInputError,
    ManifestError,
    MissingEstimateError,
    MissingSubmissionError,
    context,
)
from .metrics import MetricConfig, streamed_sdr


class Leaderboard(Enum):
    A = "A"  # restricted to MUSDB18(-HQ) training data
    B = "B"  # unrestricted training data

    def __str__(self) -> str:
        return self.value


_BOARD_A_DATASETS = {"musdb18", "musdb18-hq"}
ROUNDS = (1, 2, 3)  # the challenge's rounds, in order


def _check_seed(seed: int) -> None:
    """InvalidInputError unless seed is a valid round-plan seed (>= 0)."""
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class SongScore:
    """Scores for one song: raw per-stem SDR plus the exclusion-aware mean.

    per_stem is a {StemKind: float} with a finite value for each stem, kept in StemKind order;
    excluded_stems is a frozenset of the song's silent stems, which leaves some stem kept.
    """

    song_id: str
    per_stem: Mapping[StemKind, float]
    excluded_stems: frozenset

    def __post_init__(self) -> None:
        per_stem = {k: float(v) for k, v in self.per_stem.items()}
        excluded = frozenset(self.excluded_stems)
        if any(not isinstance(k, StemKind) for k in [*per_stem, *excluded]):
            raise InvalidInputError("per_stem and excluded_stems keys must be StemKind members")
        missing = [kind.value for kind in StemKind if kind not in per_stem]
        if missing:
            raise InvalidInputError(f"no value for {', '.join(missing)}")
        for kind in StemKind:
            if not math.isfinite(per_stem[kind]):  # a NaN would make rank's order depend on its input's order
                raise InvalidInputError(f"{kind.value} must be finite, got {per_stem[kind]}")
        object.__setattr__(self, "per_stem", {k: per_stem[k] for k in StemKind})
        object.__setattr__(self, "excluded_stems", excluded)
        if excluded == set(StemKind):  # sdr_song would divide by zero
            raise InvalidInputError("every stem is excluded")

    @property
    def sdr_song(self) -> float:
        """The mean of per_stem over the stems not in excluded_stems, summed in
        StemKind order: normally the four-stem mean, the three-stem one with a
        silent stem excluded."""
        kept = [v for k, v in self.per_stem.items() if k not in self.excluded_stems]
        return sum(kept) / len(kept)


@dataclass(frozen=True)
class ScoreDocument:
    """One system's SongScores (a tuple) over a round plan, with its declared track.

    Its rules, checked in this order, raise InvalidInputError: rounds is a
    non-empty selection of ROUNDS (kept as a frozenset), seed is >= 0, no
    song_id repeats, MetricConfig accepts epsilon, system_id is non-empty,
    then holds no CR or LF (as --system), on leaderboard A the
    declaration names only MUSDB18 or MUSDB18-HQ, and every score's song_id
    meets check_song_id (the score named by its index, "song record <i>: ").
    """

    system_id: str
    leaderboard: Leaderboard
    training_data_declaration: str
    rounds: frozenset
    seed: int
    epsilon: float
    scores: Sequence[SongScore] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "leaderboard", Leaderboard(self.leaderboard))
        rounds = frozenset(self.rounds)
        if not rounds or not rounds <= set(ROUNDS):
            raise InvalidInputError(
                f"rounds must be a non-empty list drawn from {', '.join(map(str, ROUNDS))}, got {sorted(rounds)}"
            )
        object.__setattr__(self, "rounds", rounds)
        _check_seed(self.seed)
        object.__setattr__(self, "scores", tuple(self.scores))
        seen = set()
        for score in self.scores:
            if score.song_id in seen:
                raise InvalidInputError(f"repeated song_id {score.song_id!r}")
            seen.add(score.song_id)
        MetricConfig(self.epsilon)
        if not self.system_id:
            raise InvalidInputError("system_id must be non-empty")
        if "\r" in self.system_id or "\n" in self.system_id:
            raise InvalidInputError(f"system_id must not contain CR or LF, got {self.system_id!r}")
        if self.leaderboard is Leaderboard.A:
            named = {part.strip().lower() for part in re.split(r"[+,]", self.training_data_declaration)} - {""}
            if not named or not named <= _BOARD_A_DATASETS:
                raise InvalidInputError(
                    f"system {self.system_id}: leaderboard A requires a training data "
                    f"declaration naming only MUSDB18 or MUSDB18-HQ, got {self.training_data_declaration!r}"
                )
        for index, score in enumerate(self.scores):
            with context(f"song record {index}: "):
                check_song_id(score.song_id, InvalidInputError)


@dataclass(frozen=True)
class LeaderboardEntry:
    rank: int
    system_id: str
    sdr_song_mean: float
    per_stem_means: Mapping[StemKind, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_stem_means", dict(self.per_stem_means))


def plan_rounds(manifest: DatasetManifest, seed: int) -> dict:
    """{song_id: round} splitting the non-demo songs into near-equal ROUNDS.

    Deterministic for a given seed; demo songs are assigned to no round.
    """
    _check_seed(seed)
    eligible = [song.song_id for song in manifest.eligible_songs()]
    if len(eligible) < len(ROUNDS):
        raise InvalidInputError(f"need at least {len(ROUNDS)} non-demo songs to plan rounds, got {len(eligible)}")
    order = np.random.default_rng(seed).permutation(len(eligible))
    by_position = {eligible[int(idx)]: ROUNDS[position % len(ROUNDS)] for position, idx in enumerate(order)}
    return {song_id: by_position[song_id] for song_id in eligible}


def score_song(
    entry: SongEntry,
    estimates: Mapping[StemKind, Union[Waveform, str, Path]],
    cfg: MetricConfig = MetricConfig(),
) -> SongScore:
    """Score one song: global SDR per stem; the SongScore derives the mean.

    Each estimate is a Waveform or the path of a WAVE file. The references
    are read from entry.stem_paths. Files are decoded one block at a time,
    so the working set does not grow with the song's length. Stems in
    entry.silent_stems are scored but left out of the mean, as its
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
    return SongScore(entry.song_id, values, entry.silent_stems)


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
    entry, estimates, cfg = task
    try:
        return entry.song_id, score_song(entry, estimates, cfg), None
    except Exception as exc:  # collected and re-raised with full context
        return entry.song_id, None, f"{type(exc).__name__}: {exc}"


def evaluate_submission(
    document: ScoreDocument,
    manifest: DatasetManifest,
    estimates_root,
    jobs: int = 1,
) -> ScoreDocument:
    """document with its scores replaced: every non-demo song that
    plan_rounds(manifest, document.seed) puts in document.rounds, in manifest
    order, scored with document.epsilon against the estimates at
    estimates_root/<song_id>/<stem>.wav.

    All missing estimate files are listed up front in one
    MissingSubmissionError. Per-song scoring failures are collected and
    raised together as an EvaluationError, never silently skipped.
    """
    plan = plan_rounds(manifest, document.seed)
    root = Path(estimates_root)
    cfg = MetricConfig(document.epsilon)
    tasks = [
        (song, {kind: root / song.song_id / f"{kind.value}.wav" for kind in StemKind}, cfg)
        for song in manifest.eligible_songs()
        if plan[song.song_id] in document.rounds
    ]
    gaps = [str(path) for _, estimates, _ in tasks for path in estimates.values() if not path.is_file()]
    if gaps:
        raise MissingSubmissionError(
            f"submission {document.system_id} is missing {len(gaps)} estimate file(s):\n"
            + "\n".join(gaps)
        )
    outcomes = fan_out(_score_task, tasks, jobs)
    failures = [(song_id, error) for song_id, _, error in outcomes if error is not None]
    if failures:
        raise EvaluationError(
            f"submission {document.system_id}: {len(failures)} song(s) failed:\n"
            + "\n".join(f"{song_id}: {error}" for song_id, error in failures)
        )
    return replace(document, scores=[score for _, score, _ in outcomes])


def rank(documents: Sequence[ScoreDocument], leaderboard=None) -> list:
    """Rank the systems of ScoreDocuments by mean per-song SDR over every record.

    Each document has passed its own rules, so no song counts twice for a
    system; which songs a document holds is the manifest's rule, applied by
    evaluate_submission. They may be ranked together only if they declare one
    leaderboard (leaderboard, when given), agree on epsilon and seed, name
    distinct systems, cover the same non-empty set of songs, and agree on
    rounds; otherwise InvalidInputError, checked in that order. Ties break on the Vocals, Drums, Bass, then Other
    stem means, then on system_id. Ranks are consecutive from 1.
    """
    if not documents:
        raise InvalidInputError("no systems to rank")
    boards = sorted({doc.leaderboard.value for doc in documents})
    if leaderboard is not None:
        wanted = Leaderboard(leaderboard).value
        if boards != [wanted]:
            raise InvalidInputError(
                f"score files declare leaderboard(s) {boards}, but {wanted} was requested"
            )
    elif len(boards) != 1:
        raise InvalidInputError(
            f"score files mix leaderboards {boards}; "
            "pass --leaderboard to disambiguate or rank them separately"
        )
    for field in ("epsilon", "seed"):
        values = sorted({getattr(doc, field) for doc in documents})
        if len(values) > 1:
            # a different stabilizer or round plan makes the scores incomparable
            raise InvalidInputError(f"score files disagree on {field}: {values}")
    by_system = {}
    for doc in documents:
        if doc.system_id in by_system:
            raise InvalidInputError(f"duplicate system_id {doc.system_id!r}")
        by_system[doc.system_id] = doc.scores
    song_sets = {system_id: frozenset(s.song_id for s in scores) for system_id, scores in by_system.items()}
    reference_set = next(iter(song_sets.values()))
    mismatched = sorted(sid for sid, songs in song_sets.items() if songs != reference_set)
    if mismatched:
        raise InvalidInputError(
            f"systems were not scored on the same songs; differing: {', '.join(mismatched)}"
        )
    if not reference_set:
        raise InvalidInputError("no scorable songs")
    rounds = sorted(sorted(r) for r in {doc.rounds for doc in documents})
    if len(rounds) > 1:
        raise InvalidInputError(f"score files disagree on rounds: {rounds}")

    rows = []
    for system_id, scores in by_system.items():
        mean = sum(score.sdr_song for score in scores) / len(scores)
        per_stem = {}
        for kind in StemKind:
            values = [score.per_stem[kind] for score in scores if kind not in score.excluded_stems]
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
        )
        for index, (system_id, mean, per_stem) in enumerate(rows)
    ]


# ---------------------------------------------------------------------------
# score tables and documents

# the one exclusion reason a score file holds: it, excluded_song false and
# exclusion_reason "" are constants kept so score files keep their bytes
SILENT_REFERENCE = "silent reference"

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


def scores_to_csv(document: ScoreDocument) -> str:
    """Render a ScoreDocument's per-song scores as a CSV table (column order documented in README)."""
    rows = [SCORE_CSV_COLUMNS]
    for score in document.scores:
        excluded = ";".join(f"{kind.value}:{SILENT_REFERENCE}" for kind in StemKind if kind in score.excluded_stems)
        rows.append(
            [
                document.system_id,
                score.song_id,
                *(format_value(score.per_stem[kind]) for kind in StemKind),
                format_value(score.sdr_song),
                excluded,
                "",  # excluded_song
            ]
        )
    return csv_text(rows)


def scores_to_document(document: ScoreDocument) -> dict:
    """A ScoreDocument in its JSON form, rounds sorted, which load_score_document reads back."""
    return {
        "system_id": document.system_id,
        "leaderboard": document.leaderboard.value,
        "training_data_declaration": document.training_data_declaration,
        "rounds": sorted(document.rounds),
        "seed": document.seed,
        "epsilon": document.epsilon,
        "scores": [
            {
                "song_id": score.song_id,
                "per_stem": {kind.value: value for kind, value in score.per_stem.items()},
                "sdr_song": score.sdr_song,
                "excluded_stems": {kind.value: SILENT_REFERENCE for kind in StemKind if kind in score.excluded_stems},
                "excluded_song": False,
                "exclusion_reason": "",
            }
            for score in document.scores
        ],
    }


def _finite(value, what: str) -> float:
    """value as a float, if it is a finite JSON number."""
    value = float(_typed(value, float, what))
    if not math.isfinite(value):
        raise InvalidInputError(f"{what} must be finite, got {value}")
    return value


def load_score_document(path) -> ScoreDocument:
    """Read back a score document that scores_to_document wrote.

    A leaderboard B file without a training_data_declaration gives "". A file
    that is not a score document raises InvalidInputError led by the path.
    Every type check comes first: a missing field ("score document has no ...
    field"), a field of the wrong JSON type, text that is not valid Unicode, an
    unknown leaderboard or stem ("malformed score document (...)"), a score
    that is not a finite number. The rules follow, each message the rule alone:
    the ScoreDocument's in its order, which ends with every record's song id
    (a record whose id check_song_id refuses is named by its index), so a
    refused id is reported before any record's own rules; then each song
    record's in file order: its SongScore's, then a stored sdr_song that must
    equal the mean of its kept stems, bit for bit, then exclusions as score
    writes them (excluded_song false, exclusion_reason "", each stem's reason
    SILENT_REFERENCE).
    """
    with context(f"{path}: "):
        try:
            doc = _read_json(path, InvalidInputError)
            rounds = [_typed(r, int, "a round") for r in _typed(doc.get("rounds", list(ROUNDS)), list, "rounds")]
            seed = _typed(doc["seed"], int, "seed")
            records = []  # (label, song_id, per_stem, stem reasons, sdr_song, excluded_song, exclusion_reason)
            for index, record in enumerate(_typed(doc["scores"], list, "scores")):
                song_id = _typed(record["song_id"], str, f"song record {index}: song_id")
                song = f"song {song_id}"
                try:  # an id the record's rules refuse, "a\nb" say, is not printed raw
                    check_song_id(song_id)
                except ManifestError:
                    song = f"song record {index}"
                values = {StemKind(name): _finite(value, f"{song}: {name}") for name, value in record["per_stem"].items()}
                excluded = {
                    StemKind(name): _typed(reason, str, f"{song}: exclusion reason of {name}")
                    for name, reason in record.get("excluded_stems", {}).items()
                }
                records.append((
                    song, song_id, values, excluded, _finite(record["sdr_song"], f"{song}: sdr_song"),
                    _typed(record.get("excluded_song", False), bool, f"{song}: excluded_song"),
                    _typed(record.get("exclusion_reason", ""), str, f"{song}: exclusion_reason"),
                ))
            header = dict(
                system_id=_typed(doc["system_id"], str, "system_id"),
                leaderboard=(board := Leaderboard(doc["leaderboard"])),
                training_data_declaration=_typed(  # required on board A only
                    doc.get("training_data_declaration", "") if board is Leaderboard.B else doc["training_data_declaration"],
                    str, "training_data_declaration"),
                rounds=rounds,
                seed=seed,
                epsilon=float(_typed(doc["epsilon"], float, "epsilon")),
            )
        except KeyError as exc:
            raise InvalidInputError(f"score document has no {exc} field") from None
        except InvalidInputError:  # not valid JSON, or a score that is not finite: no "malformed"
            raise
        except (ManifestError, AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed score document ({exc})") from None
        # the document's rules come before any record's own, so check them first
        # on records that keep only their song_id
        document = ScoreDocument(**header, scores=[
            SongScore(song_id, dict.fromkeys(StemKind, 0.0), ()) for _, song_id, *_ in records])
    scores = []
    for song, song_id, values, reasons, mean, excluded_song, reason in records:
        with context(f"{path}: {song}: "):
            score = SongScore(song_id, values, reasons)  # refuses a record with a stem missing or none kept
            if mean != score.sdr_song:
                raise InvalidInputError(f"sdr_song {mean!r} is not the mean of its kept stems, {score.sdr_song!r}")
            if excluded_song or reason or set(reasons.values()) - {SILENT_REFERENCE}:  # the manifest alone excludes
                raise InvalidInputError('exclusions differ from what score writes: excluded_song false, '
                                        f'exclusion_reason "" and stem reasons {SILENT_REFERENCE!r}')
        scores.append(score)
    return replace(document, scores=scores)


def leaderboard_to_csv(entries: Sequence[LeaderboardEntry]) -> str:
    """Render a leaderboard at 3-decimal precision."""
    rows = [LEADERBOARD_CSV_COLUMNS]
    for entry in entries:
        stems = [
            f"{entry.per_stem_means[kind]:.3f}" if kind in entry.per_stem_means else ""
            for kind in StemKind
        ]
        rows.append([entry.rank, entry.system_id, f"{entry.sdr_song_mean:.3f}", *stems])
    return csv_text(rows)
