"""The three benchmark workloads: inputs, the timed CLI sequence, output checks.

A workload builds its inputs under a root directory, lists the CLI steps of
one timed sequence, and checks each step's output against values computed
independently in ``expect``. A check returns a list of problems; an empty
list means the step's output is correct.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import expect
import inputs
from inputs import STEMS

from demixeval import synth
from demixeval.metrics import MetricId


@dataclass
class Step:
    args: list
    check: Callable[[str], list]  # stdout -> problems
    outputs: tuple = ()  # files or directories written, compared across --jobs
    paired: bool = False  # traced runs also run it at --jobs 1 and compare

    def with_jobs(self, jobs: int) -> "Step":
        args = list(self.args)
        args[args.index("--jobs") + 1] = str(jobs)
        return Step(args, self.check, self.outputs)


@dataclass
class Workload:
    """setup() writes the inputs and keeps the decoded segments the checks
    need; prepare_checks() runs once, after the last set-up, outside its
    timing."""

    seed: int
    root: Path
    kept: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)

    name = ""
    audio_s = 0.0  # seconds of stem audio processed by one sequence

    @property
    def manifest(self) -> Path:
        return self.root / "dataset" / "manifest.json"

    def reference_paths(self) -> list:
        """Every reference stem path, joined the way load_manifest joins them."""
        songs = json.loads(self.manifest.read_text())["songs"]
        return [self.manifest.parent / path for song in songs for path in song["stems"].values()]

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        raise NotImplementedError

    def steps(self, jobs: int) -> list:
        raise NotImplementedError

    def probe_pair(self) -> tuple:
        raise NotImplementedError


def _silent(song_index: int, silent_indices: tuple) -> set:
    return {"bass"} if song_index in silent_indices else set()


class RoundScore(Workload):
    """K submissions scored against one real-scale reference set, then ranked."""

    name = "round-score"
    RATE, SECONDS = 44100, 180.0
    REPEATS = inputs.repeats_for(SECONDS)
    SONGS, DEMO, SILENT_BASS = 5, (4,), (3,)
    # system id, encoding, leakage, noise rms
    SYSTEMS = (
        ("sys_float32", "float32", 0.05, 0.002),
        ("sys_pcm16", "pcm16", 0.12, 0.004),
        ("sys_pcm24", "pcm24", 0.25, 0.008),
    )
    audio_s = len(SYSTEMS) * (SONGS - len(DEMO)) * len(STEMS) * SECONDS

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        songs = inputs.write_real_dataset(self.root / "dataset", self.seed, self.SONGS, self.SECONDS,
                                          self.RATE, self.DEMO, self.SILENT_BASS)
        for song_id, stems, mixture, is_demo in songs:
            if is_demo:
                continue
            for kind in STEMS:
                for system, encoding, leak, noise in self.SYSTEMS:
                    estimate = inputs.perturb(stems[kind], mixture, leak, noise, rng)
                    path = self.root / system / song_id / f"{kind.value}.wav"
                    decoded = inputs.write_repeated(path, estimate, self.REPEATS, encoding, self.RATE)
                    self.kept[system, song_id, kind.value] = (stems[kind], decoded.astype(np.float32))

    def prepare_checks(self) -> None:
        self.expected = {system: {} for system, *_ in self.SYSTEMS}
        for (system, song_id, stem), (reference, estimate) in self.kept.items():
            scores = self.expected[system].setdefault(song_id, {})
            scores[stem] = expect.sdr(reference, estimate.astype(np.float64), self.REPEATS)

    def _silent_of(self, song_id: str) -> set:
        return _silent(int(song_id.split("_")[1]), self.SILENT_BASS)

    def steps(self, jobs: int) -> list:
        out = []
        for system, *_ in self.SYSTEMS:
            prefix = self.root / "scores" / system
            args = ["score", "--manifest", self.manifest, "--estimates", self.root / system,
                    "--system", system, "--leaderboard", "A", "--jobs", jobs, "--out", prefix]
            # one pair is enough: every system takes the same path through score
            out.append(Step([str(a) for a in args], self._check_score(system),
                            (prefix.with_suffix(".csv"), prefix.with_suffix(".json")), paired=not out))
        documents = [str(self.root / "scores" / f"{system}.json") for system, *_ in self.SYSTEMS]
        out.append(Step(["rank", "--scores", *documents], self._check_rank))
        return out

    def _check_score(self, system: str):
        def check(stdout: str) -> list:
            rows = expect.csv_rows(stdout)[1:]
            expected = self.expected[system]
            problems = []
            if sorted(row[1] for row in rows) != sorted(expected):
                return [f"{system}: scored songs {[row[1] for row in rows]}, expected {sorted(expected)}"]
            for row in rows:
                values = expected[row[1]]
                want = [values[kind.value] for kind in STEMS]
                want.append(expect.song_mean(values, self._silent_of(row[1])))
                for want_value, cell in zip(want, row[2:7]):
                    if not expect.close(want_value, cell):
                        problems.append(f"{system} {row[1]}: printed {cell}, expected {want_value:.9g}")
            return problems
        return check

    def _check_rank(self, stdout: str) -> list:
        means = {}
        for system, songs in self.expected.items():
            per_song = [expect.song_mean(v, self._silent_of(s)) for s, v in songs.items()]
            means[system] = sum(per_song) / len(per_song)
        order = sorted(means, key=lambda system: -means[system])
        rows = expect.csv_rows(stdout)[1:]
        problems = []
        if [row[1] for row in rows] != order:
            problems.append(f"leaderboard order {[row[1] for row in rows]}, expected {order}")
        for row in rows:
            if row[1] in means and abs(float(row[2]) - means[row[1]]) > 1.5e-3:
                problems.append(f"{row[1]}: leaderboard mean {row[2]}, expected {means[row[1]]:.6f}")
        return problems

    def probe_pair(self) -> tuple:
        system = self.SYSTEMS[0][0]
        return self.root / "dataset/syn_000/vocals.wav", self.root / system / "syn_000/vocals.wav"


class OracleBuild(Workload):
    """Validate a test-scale dataset and build the three oracle baselines."""

    name = "oracle-build"
    RATE, SECONDS = 16000, 30.0
    SONGS, DEMO, SILENT_BASS = 4, (2,), (3,)
    KINDS = ("baseline", "swf", "mwf")  # mwf is checked against the swf run before it
    SUM_TOLERANCE = 1e-4  # |sum of SWF stems - mixture|; float32 storage of five files
    audio_s = len(KINDS) * SONGS * len(STEMS) * SECONDS

    def setup(self) -> None:
        synth.make_dataset(self.root / "dataset", n_songs=self.SONGS, duration=self.SECONDS,
                           sample_rate=self.RATE, seed=self.seed,
                           demo_song_indices=self.DEMO, silent_bass_indices=self.SILENT_BASS)

    def prepare_checks(self) -> None:
        self.swf_means = {}
        for index in range(self.SONGS):
            song_dir = self.root / "dataset" / f"syn_{index:03d}"
            mixture = expect.read_float_wav(song_dir / "mixture.wav")
            stems = {k.value: expect.read_float_wav(song_dir / f"{k.value}.wav") for k in STEMS}
            baseline = {stem: expect.sdr(ref, mixture) for stem, ref in stems.items()}
            self.expected[song_dir.name] = (mixture, stems, baseline, _silent(index, self.SILENT_BASS))

    def steps(self, jobs: int) -> list:
        out = [Step(["validate", "--manifest", str(self.manifest)], self._check_validate)]
        for kind in self.KINDS:
            root = self.root / "oracle" / kind
            args = ["oracle", "--manifest", self.manifest, "--kind", kind, "--out", root, "--jobs", jobs]
            out.append(Step([str(a) for a in args], self._check_oracle(kind, root), (root,), paired=True))
        return out

    def _check_validate(self, stdout: str) -> list:
        rows = expect.csv_rows(stdout)[1:]
        status = {row[0]: row[1] for row in rows}
        if status != {song: "PASS" for song in self.expected}:
            return [f"validate statuses {status}"]
        return []

    def _check_oracle(self, kind: str, root: Path):
        def check(stdout: str) -> list:
            wrote = [line for line in stdout.splitlines() if not line.startswith("#")]
            if wrote != [f"wrote {song}" for song in self.expected]:
                return [f"oracle {kind}: unexpected report {wrote}"]
            problems = []
            for song, (mixture, stems, baseline, silent) in self.expected.items():
                estimates = {stem: expect.read_float_wav(root / song / f"{stem}.wav") for stem in stems}
                if kind == "baseline":
                    if any(not np.array_equal(est, mixture) for est in estimates.values()):
                        problems.append(f"baseline {song}: an estimate differs from the mixture")
                    continue
                scores = {stem: expect.sdr(stems[stem], estimates[stem]) for stem in stems}
                for stem, value in scores.items():
                    if value < baseline[stem]:
                        problems.append(f"{kind} {song} {stem}: {value:.4f} dB below baseline {baseline[stem]:.4f}")
                mean = expect.song_mean(scores, silent)
                if kind == "swf":
                    self.swf_means[song] = mean
                    deviation = float(np.max(np.abs(sum(estimates.values()) - mixture)))
                    if deviation > self.SUM_TOLERANCE:
                        problems.append(f"swf {song}: stems sum to the mixture within {deviation:.3g}")
                elif mean < self.swf_means.get(song, -np.inf):
                    problems.append(f"mwf {song}: song mean {mean:.4f} dB below swf {self.swf_means[song]:.4f}")
            return problems

        return check

    def probe_pair(self) -> tuple:
        song = self.root / "dataset/syn_000"
        return song / "vocals.wav", song / "mixture.wav"


class MetricStudy(Workload):
    """One suite process per (system, song, stem) pair, then both correlations."""

    name = "metric-study"
    RATE, SECONDS = 44100, 180.0
    REPEATS = inputs.repeats_for(SECONDS)
    SONGS, SILENT_BASS = 3, (1,)
    ROWS = 3000
    # system, song index, stem, encoding, leakage, noise rms; None leaves the reference as is
    PAIRS = (
        ("sys_a", 0, "vocals", "float32", 0.10, 0.003),
        ("sys_b", 1, "bass", "pcm16", 0.30, 0.010),  # silent reference
        ("identity", 2, "other", None, 0.0, 0.0),  # estimate equals the reference
    )
    audio_s = len(PAIRS) * SECONDS

    def pair_paths(self, system: str, song: int, stem: str) -> tuple:
        name = f"syn_{song:03d}"
        return self.root / "dataset" / name / f"{stem}.wav", self.root / system / name / f"{stem}.wav"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        songs = inputs.write_real_dataset(self.root / "dataset", self.seed, self.SONGS, self.SECONDS,
                                          self.RATE, (), self.SILENT_BASS)
        for song_index, (_, stems, mixture, _) in enumerate(songs):
            for system, index, stem, encoding, leak, noise in self.PAIRS:
                if index != song_index:
                    continue
                ref_path, est_path = self.pair_paths(system, index, stem)
                reference = stems[inputs.StemKind(stem)]
                if encoding is None:
                    est_path.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(ref_path, est_path)
                    decoded = reference
                else:
                    estimate = inputs.perturb(reference, mixture, leak, noise, rng)
                    decoded = inputs.write_repeated(est_path, estimate, self.REPEATS, encoding, self.RATE)
                self.kept[system, index, stem] = (reference, decoded)
        columns = [metric.value for metric in MetricId]
        self.corpus = inputs.corpus_table(self.root / "corpus.csv", self.seed, self.ROWS, columns)

    def prepare_checks(self) -> None:
        for key, (reference, estimate) in self.kept.items():
            full = [np.tile(segment, self.REPEATS) for segment in (reference, estimate)]
            self.expected[key] = expect.suite(*full, self.RATE)
        self.expected["columns"] = [metric.value for metric in MetricId]
        for kind in ("pearson", "spearman"):
            self.expected[kind] = expect.correlations(self.corpus, kind)

    def steps(self, jobs: int) -> list:
        out = []
        for system, index, stem, *_ in self.PAIRS:
            ref_path, est_path = self.pair_paths(system, index, stem)
            out.append(Step(["suite", "--reference", str(ref_path), "--estimate", str(est_path)],
                            self._check_suite((system, index, stem))))
        for kind in ("pearson", "spearman"):
            out.append(Step(["analyze", "--table", str(self.root / "corpus.csv"), "--kind", kind],
                            self._check_analyze(kind)))
        return out

    def _check_suite(self, key: tuple):
        def check(stdout: str) -> list:
            printed = {row[0]: row[1] for row in expect.csv_rows(stdout)[1:]}
            expected = self.expected[key]
            if set(printed) != set(expected):
                return [f"suite {key}: metrics {sorted(printed)}"]
            return [f"suite {key} {name}: printed {printed[name]!r}, expected {value!r}"
                    for name, value in expected.items() if not expect.close(value, printed[name])]
        return check

    def _check_analyze(self, kind: str):
        def check(stdout: str) -> list:
            expected = self.expected[kind]
            rows = expect.csv_rows(stdout)
            columns = self.expected["columns"]
            if rows[0] != ["metric", *columns] or [row[0] for row in rows[1:]] != columns:
                return [f"analyze {kind}: unexpected matrix header"]
            return [f"analyze {kind} {columns[i]}/{columns[j]}: printed {cell!r}, expected {expected[(i, j)]!r}"
                    for i, row in enumerate(rows[1:]) for j, cell in enumerate(row[1:])
                    if not expect.close(expected[(i, j)], cell, abs_tol=1e-9)]
        return check

    def probe_pair(self) -> tuple:
        return self.pair_paths(*self.PAIRS[0][:3])


WORKLOADS = {cls.name: cls for cls in (RoundScore, OracleBuild, MetricStudy)}
