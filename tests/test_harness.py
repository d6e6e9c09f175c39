import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from demixeval.audio_io import StemKind, Waveform, load_manifest, read_wav, write_wav
from demixeval.errors import (
    EvaluationError,
    InvalidInputError,
    MissingEstimateError,
    MissingSubmissionError,
)
from demixeval import harness
from demixeval.harness import (
    Leaderboard,
    LeaderboardEntry,
    RoundPlan,
    SongScore,
    SubmissionDescriptor,
    evaluate_submission,
    fan_out,
    leaderboard_to_csv,
    load_score_document,
    plan_rounds,
    rank,
    score_song,
    scores_to_csv,
    scores_to_document,
)
from demixeval.metrics import MetricConfig, StemScores, global_sdr, sdr_song
from demixeval.synth import make_dataset, make_song


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    manifest_path = make_dataset(
        root, n_songs=5, duration=0.5, sample_rate=4000, seed=11, demo_song_indices=(1,)
    )
    return load_manifest(manifest_path)


def _fake_manifest_record(song_id, is_demo=False):
    return {
        "song_id": song_id,
        "mixture": f"{song_id}/mixture.wav",
        "stems": {k.value: f"{song_id}/{k.value}.wav" for k in StemKind},
        "is_demo": is_demo,
    }


def _metadata_only_manifest(tmp_path, count, demo_indices=()):
    songs = [
        _fake_manifest_record(f"song_{i:03d}", is_demo=(i in demo_indices))
        for i in range(count)
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": "m", "sample_rate": 4000, "songs": songs}))
    return load_manifest(path)


class TestPlanRounds:
    def test_27_eligible_gives_three_nines(self, tmp_path):
        manifest = _metadata_only_manifest(tmp_path, 30, demo_indices=(7, 14, 17))
        plan = plan_rounds(manifest, seed=5)
        counts = Counter(plan.round_assignment.values())
        assert counts == {1: 9, 2: 9, 3: 9}
        demo_ids = {s.song_id for s in manifest.songs if s.is_demo}
        assert demo_ids.isdisjoint(plan.round_assignment)

    def test_four_eligible_near_equal(self, tmp_path):
        manifest = _metadata_only_manifest(tmp_path, 4)
        plan = plan_rounds(manifest, seed=0)
        sizes = sorted(Counter(plan.round_assignment.values()).values())
        assert sizes == [1, 1, 2]

    def test_deterministic_under_seed(self, tmp_path):
        manifest = _metadata_only_manifest(tmp_path, 12)
        assert plan_rounds(manifest, 42) == plan_rounds(manifest, 42)

    def test_different_seeds_differ(self, tmp_path):
        manifest = _metadata_only_manifest(tmp_path, 12)
        plans = {tuple(sorted(plan_rounds(manifest, s).round_assignment.items())) for s in range(8)}
        assert len(plans) > 1

    def test_too_few_songs(self, tmp_path):
        manifest = _metadata_only_manifest(tmp_path, 4, demo_indices=(0, 1))
        with pytest.raises(InvalidInputError):
            plan_rounds(manifest, 0)


class TestScoreSong:
    def test_silent_bass_rule(self, tmp_path):
        song = make_song(21, duration=0.5, sample_rate=4000, silent_stems=frozenset({StemKind.BASS}))
        song_dir = tmp_path / "ss"
        song_dir.mkdir()
        for kind in StemKind:
            write_wav(song["stems"][kind], song_dir / f"{kind.value}.wav")
        write_wav(song["mixture"], song_dir / "mixture.wav")
        from demixeval.audio_io import SongEntry

        entry = SongEntry(
            song_id="ss",
            stem_paths={k: song_dir / f"{k.value}.wav" for k in StemKind},
            mixture_path=song_dir / "mixture.wav",
            silent_stems=frozenset({StemKind.BASS}),
        )
        estimates = {kind: song["stems"][kind] for kind in StemKind}
        score = score_song(entry, estimates)
        assert score.excluded_stems == {StemKind.BASS: "silent reference"}
        kept = [score.per_stem.values[k] for k in (StemKind.DRUMS, StemKind.OTHER, StemKind.VOCALS)]
        assert score.sdr_song == pytest.approx(sum(kept) / 3, abs=1e-12)

    def test_hand_arithmetic_three_stem_mean(self):
        # silent bass: mean over drums/other/vocals only
        scores = StemScores(
            {StemKind.DRUMS: 6.0, StemKind.OTHER: 3.0, StemKind.VOCALS: 9.0}
        )
        assert sdr_song(scores) == 6.0

    def test_perfect_estimates(self, small_dataset):
        entry = small_dataset.songs[0]
        estimates = {kind: read_wav(entry.stem_paths[kind]) for kind in StemKind}
        score = score_song(entry, estimates)
        cfg = MetricConfig()
        for kind in StemKind:
            energy = float(np.sum(estimates[kind].samples ** 2))
            expected = 10 * np.log10((energy + cfg.epsilon) / cfg.epsilon)
            assert score.per_stem.values[kind] == pytest.approx(expected, abs=1e-9)
        assert score.sdr_song == pytest.approx(
            np.mean([score.per_stem.values[k] for k in StemKind]), abs=1e-12
        )

    def test_baseline_composition(self, small_dataset):
        entry = small_dataset.songs[0]
        mixture = read_wav(entry.mixture_path)
        estimates = {kind: mixture for kind in StemKind}
        score = score_song(entry, estimates)
        independent = [
            global_sdr(read_wav(entry.stem_paths[kind]), mixture) for kind in StemKind
        ]
        assert score.sdr_song == pytest.approx(np.mean(independent), abs=1e-12)

    def test_missing_estimate_names_stem(self, small_dataset):
        entry = small_dataset.songs[0]
        estimates = {
            kind: read_wav(entry.stem_paths[kind])
            for kind in StemKind
            if kind is not StemKind.OTHER
        }
        with pytest.raises(MissingEstimateError, match="other"):
            score_song(entry, estimates)

    def test_shape_mismatch_names_song(self, small_dataset):
        entry = small_dataset.songs[0]
        wrong = Waveform(np.zeros((2, 7)), small_dataset.sample_rate)
        estimates = {kind: wrong for kind in StemKind}
        with pytest.raises(InvalidInputError, match=entry.song_id):
            score_song(entry, estimates)


def _write_baseline_submission(manifest, root):
    for entry in manifest.songs:
        song_dir = root / entry.song_id
        song_dir.mkdir(parents=True, exist_ok=True)
        mixture = read_wav(entry.mixture_path)
        for kind in StemKind:
            write_wav(mixture, song_dir / f"{kind.value}.wav")


class TestEvaluateSubmission:
    def test_round_selection_and_additivity(self, small_dataset, tmp_path):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        submission = SubmissionDescriptor("base", Leaderboard.B, "none", root)
        plan = plan_rounds(small_dataset, seed=3)
        full = evaluate_submission(submission, small_dataset, plan, {1, 2, 3})
        assert len(full) == 4  # 5 songs, 1 demo
        by_round = []
        for round_number in (1, 2, 3):
            by_round.extend(
                evaluate_submission(submission, small_dataset, plan, {round_number})
            )
        order = {s.song_id: i for i, s in enumerate(small_dataset.songs)}
        by_round.sort(key=lambda s: order[s.song_id])
        assert by_round == full

    def test_demo_songs_never_scored(self, small_dataset, tmp_path):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        submission = SubmissionDescriptor("base", Leaderboard.B, "none", root)
        plan = plan_rounds(small_dataset, seed=3)
        scored_ids = {s.song_id for s in evaluate_submission(submission, small_dataset, plan, {1, 2, 3})}
        demo_ids = {s.song_id for s in small_dataset.songs if s.is_demo}
        assert scored_ids.isdisjoint(demo_ids)

    def test_missing_songs_listed_before_abort(self, small_dataset, tmp_path):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        eligible = small_dataset.eligible_songs()
        (root / eligible[0].song_id / "vocals.wav").unlink()
        (root / eligible[1].song_id / "bass.wav").unlink()
        submission = SubmissionDescriptor("base", Leaderboard.B, "none", root)
        plan = plan_rounds(small_dataset, seed=3)
        with pytest.raises(MissingSubmissionError) as excinfo:
            evaluate_submission(submission, small_dataset, plan, {1, 2, 3})
        message = str(excinfo.value)
        assert eligible[0].song_id in message and eligible[1].song_id in message

    def test_corrupt_estimate_recorded(self, small_dataset, tmp_path):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        bad_song = small_dataset.eligible_songs()[0]
        (root / bad_song.song_id / "drums.wav").write_bytes(b"RIFFxxxxWAVE")
        submission = SubmissionDescriptor("base", Leaderboard.B, "none", root)
        plan = plan_rounds(small_dataset, seed=3)
        with pytest.raises(EvaluationError, match=bad_song.song_id):
            evaluate_submission(submission, small_dataset, plan, {1, 2, 3})

    def test_parallel_matches_serial(self, small_dataset, tmp_path):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        submission = SubmissionDescriptor("base", Leaderboard.B, "none", root)
        plan = plan_rounds(small_dataset, seed=3)
        serial = evaluate_submission(submission, small_dataset, plan, {1, 2, 3}, jobs=1)
        parallel = evaluate_submission(submission, small_dataset, plan, {1, 2, 3}, jobs=2)
        assert serial == parallel

    def test_bad_rounds_rejected(self, small_dataset, tmp_path):
        submission = SubmissionDescriptor("base", Leaderboard.B, "none", tmp_path)
        plan = plan_rounds(small_dataset, seed=3)
        with pytest.raises(InvalidInputError):
            evaluate_submission(submission, small_dataset, plan, {4})
        with pytest.raises(InvalidInputError):
            evaluate_submission(submission, small_dataset, plan, set())


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records worker counts, maps in-process."""

    created = []

    def __init__(self, processes):
        self.created.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def imap(self, func, tasks, chunksize):
        assert chunksize == 1
        return map(func, tasks)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(harness.multiprocessing, "Pool", _RecordingPool)
    _RecordingPool.created = []
    return _RecordingPool.created


class TestFanOut:
    def test_workers_capped_at_task_count(self, recording_pool):
        assert fan_out(str, [1, 2], jobs=8) == ["1", "2"]
        assert recording_pool == [2]

    def test_single_task_starts_no_pool(self, recording_pool):
        assert fan_out(str, [1], jobs=8) == ["1"]
        assert fan_out(str, [1, 2, 3], jobs=1) == ["1", "2", "3"]
        assert fan_out(str, [], jobs=4) == []
        assert recording_pool == []

    def test_keeps_task_order(self, recording_pool):
        assert fan_out(str, list(range(5)), jobs=3) == ["0", "1", "2", "3", "4"]
        assert recording_pool == [3]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, recording_pool, jobs):
        with pytest.raises(InvalidInputError, match="jobs"):
            fan_out(str, [1, 2], jobs=jobs)
        assert recording_pool == []

    def test_evaluate_submission_workers_capped_at_song_count(
        self, small_dataset, tmp_path, recording_pool
    ):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        submission = SubmissionDescriptor("base", Leaderboard.B, "none", root)
        plan = plan_rounds(small_dataset, seed=3)
        scores = evaluate_submission(submission, small_dataset, plan, {1, 2, 3}, jobs=64)
        assert recording_pool == [len(scores)] == [4]


def _song_score(song_id, bass, drums, other, vocals, excluded=(), demo=False):
    values = {
        StemKind.BASS: bass,
        StemKind.DRUMS: drums,
        StemKind.OTHER: other,
        StemKind.VOCALS: vocals,
    }
    excluded_map = {k: "silent reference" for k in excluded}
    kept = {k: v for k, v in values.items() if k not in excluded_map}
    return SongScore(
        song_id=song_id,
        per_stem=StemScores(values),
        sdr_song=sum(kept.values()) / len(kept),
        excluded_stems=excluded_map,
        excluded_song=demo,
        exclusion_reason="demo song" if demo else "",
    )


FINAL_STANDINGS = [
    ("defossez", 8.115, 8.037, 5.193, 7.968),
    ("kuielab", 7.232, 7.173, 5.636, 8.901),
    ("Music_AI", 7.273, 7.371, 5.091, 7.792),
    ("Kazane_Ryo_no_Danna", 6.993, 7.018, 4.901, 7.686),
    ("ByteMSS", 6.602, 6.545, 4.830, 8.079),
]


class TestRank:
    def test_final_standings_order(self):
        results = {
            name: [_song_score("s", bass, drums, other, vocals)]
            for name, bass, drums, other, vocals in FINAL_STANDINGS
        }
        entries = rank(results, Leaderboard.A)
        assert [e.system_id for e in entries] == [
            "defossez", "kuielab", "Music_AI", "Kazane_Ryo_no_Danna", "ByteMSS",
        ]
        assert [e.rank for e in entries] == [1, 2, 3, 4, 5]
        means = [e.sdr_song_mean for e in entries]
        assert means == sorted(means, reverse=True)
        assert means[0] == pytest.approx(7.328, abs=0.0005)

    def test_single_system(self):
        entries = rank({"only": [_song_score("s", 1, 2, 3, 4)]}, Leaderboard.B)
        assert len(entries) == 1
        assert entries[0].rank == 1

    def test_tie_broken_by_system_id(self):
        score = _song_score("s", 5, 5, 5, 5)
        entries = rank({"zeta": [score], "alpha": [score]}, Leaderboard.B)
        assert [e.system_id for e in entries] == ["alpha", "zeta"]
        assert [e.rank for e in entries] == [1, 2]

    def test_tie_broken_by_vocals_before_id(self):
        strong_vocals = _song_score("s", 4.0, 5.0, 6.0, 9.0)   # mean 6
        strong_bass = _song_score("s", 9.0, 5.0, 6.0, 4.0)     # mean 6
        entries = rank({"a_weak": [strong_bass], "z_strong": [strong_vocals]}, Leaderboard.B)
        assert [e.system_id for e in entries] == ["z_strong", "a_weak"]

    def test_inconsistent_song_sets_rejected(self):
        results = {
            "one": [_song_score("s1", 1, 1, 1, 1)],
            "two": [_song_score("s2", 1, 1, 1, 1)],
        }
        with pytest.raises(InvalidInputError):
            rank(results, Leaderboard.A)

    def test_mean_matches_oracle(self, rng):
        scores = [
            _song_score(f"s{i}", *rng.uniform(-5, 15, size=4)) for i in range(9)
        ]
        entries = rank({"sys": scores}, Leaderboard.B)
        assert entries[0].sdr_song_mean == pytest.approx(
            np.mean([s.sdr_song for s in scores]), abs=1e-12
        )

    def test_demo_songs_do_not_influence(self, rng):
        scores = [_song_score(f"s{i}", *rng.uniform(0, 10, size=4)) for i in range(4)]
        with_demo = scores + [_song_score("demo", 99, 99, 99, 99, demo=True)]
        plain = rank({"sys": scores}, Leaderboard.B)
        spiked = rank({"sys": with_demo}, Leaderboard.B)
        assert plain[0].sdr_song_mean == spiked[0].sdr_song_mean
        assert plain[0].per_stem_means == spiked[0].per_stem_means

    def test_improving_one_stem_never_lowers_mean(self, rng):
        scores = [_song_score(f"s{i}", *rng.uniform(0, 10, size=4)) for i in range(5)]
        base_mean = rank({"sys": scores}, Leaderboard.B)[0].sdr_song_mean
        bumped = list(scores)
        target = scores[2]
        values = dict(target.per_stem.values)
        values[StemKind.DRUMS] += 3.0
        bumped[2] = _song_score(
            target.song_id,
            values[StemKind.BASS],
            values[StemKind.DRUMS],
            values[StemKind.OTHER],
            values[StemKind.VOCALS],
        )
        assert rank({"sys": bumped}, Leaderboard.B)[0].sdr_song_mean >= base_mean

    def test_empty_results_rejected(self):
        with pytest.raises(InvalidInputError):
            rank({}, Leaderboard.A)

    def test_input_order_does_not_matter(self, rng):
        scores = {
            name: [_song_score("s", *rng.uniform(0, 10, size=4))]
            for name in ("alpha", "beta", "gamma")
        }
        forward = rank(dict(scores), Leaderboard.B)
        reversed_input = rank(dict(reversed(list(scores.items()))), Leaderboard.B)
        assert forward == reversed_input


class TestSubmissionDescriptor:
    def test_board_a_accepts_musdb_variants(self, tmp_path):
        for declaration in ("MUSDB18-HQ", "musdb18", "MUSDB18, MUSDB18-HQ"):
            SubmissionDescriptor("sys", Leaderboard.A, declaration, tmp_path)

    def test_board_a_rejects_extra_data(self, tmp_path):
        for declaration in ("MUSDB18-HQ + 150 songs", "", "private corpus"):
            with pytest.raises(InvalidInputError):
                SubmissionDescriptor("sys", Leaderboard.A, declaration, tmp_path)

    def test_board_b_unconstrained(self, tmp_path):
        SubmissionDescriptor("sys", Leaderboard.B, "anything at all", tmp_path)


class TestSerialization:
    def test_csv_columns_and_values(self):
        score = _song_score("song_a", 1.25, 2.5, 3.75, 5.0, excluded=(StemKind.BASS,))
        text = scores_to_csv("sys", [score])
        lines = text.strip().split("\n")
        assert lines[0] == (
            "system_id,song_id,sdr_bass,sdr_drums,sdr_other,sdr_vocals,"
            "sdr_song,excluded_stems,excluded_song"
        )
        assert lines[1].startswith("sys,song_a,1.25,2.5,3.75,5,")
        assert "bass:silent reference" in lines[1]

    def test_document_round_trip(self, tmp_path):
        submission = SubmissionDescriptor("sys", Leaderboard.B, "extra", tmp_path)
        scores = [
            _song_score("a", 1, 2, 3, 4),
            _song_score("b", 4, 3, 2, 1, excluded=(StemKind.BASS,)),
        ]
        document = scores_to_document(submission, scores, {1, 2}, 7, MetricConfig())
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(document))
        loaded = load_score_document(path)
        assert loaded["system_id"] == "sys"
        assert loaded["leaderboard"] is Leaderboard.B
        assert loaded["rounds"] == frozenset({1, 2})
        assert loaded["scores"] == scores

    def _document(self, tmp_path, **fields):
        """A score document file with `fields` overridden; a None field is left out."""
        submission = SubmissionDescriptor("sys", Leaderboard.B, "extra", tmp_path)
        document = scores_to_document(
            submission, [_song_score("a", 1, 2, 3, 4)], {1}, 7, MetricConfig(epsilon=1e-5)
        )
        document.update(fields)
        path = tmp_path / "scores.json"
        path.write_text(json.dumps({k: v for k, v in document.items() if v is not None}))
        return path

    def test_document_keeps_epsilon(self, tmp_path):
        assert load_score_document(self._document(tmp_path))["epsilon"] == 1e-5
        with pytest.raises(InvalidInputError):
            load_score_document(self._document(tmp_path, epsilon=None))

    def test_document_keeps_seed(self, tmp_path):
        assert load_score_document(self._document(tmp_path))["seed"] == 7
        with pytest.raises(InvalidInputError):
            load_score_document(self._document(tmp_path, seed="seven"))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(rounds="12"), "rounds must be a JSON list, got '12'"),
            (lambda doc: doc.update(rounds=[]), "rounds must be a non-empty list drawn from 1, 2, 3, got []"),
            (lambda doc: doc.update(rounds=[1, 2, 3, 7]), "drawn from 1, 2, 3, got [1, 2, 3, 7]"),
            (lambda doc: doc.update(rounds=[1, "2"]), "a round must be a JSON integer, got '2'"),
            (lambda doc: doc.update(rounds=[True]), "a round must be a JSON integer, got True"),
            (lambda doc: doc.update(seed=0.7), "seed must be a JSON integer, got 0.7"),
            (lambda doc: doc.update(seed=-1), "seed must be >= 0, got -1"),
            (lambda doc: doc.update(seed=False), "seed must be a JSON integer, got False"),
            (lambda doc: doc.update(epsilon="1e-5"), "epsilon must be a JSON number, got '1e-5'"),
            (lambda doc: doc["scores"].append(dict(doc["scores"][0])), "repeated song_id 'a'"),
            (lambda doc: doc["scores"][0].update(sdr_song="1e9"), "song a: sdr_song must be a JSON number, got '1e9'"),
            (lambda doc: doc["scores"][0].update(sdr_song=True), "song a: sdr_song must be a JSON number, got True"),
            (lambda doc: doc["scores"][0].update(sdr_song=math.nan), "song a: sdr_song must be finite, got nan"),
            (lambda doc: doc["scores"][0].update(sdr_song=-math.inf), "song a: sdr_song must be finite, got -inf"),
            (lambda doc: doc["scores"][0].update(sdr_song=10**400), "int too large to convert to float"),
            (lambda doc: doc["scores"][0]["per_stem"].update(bass="inf"), "song a: bass must be a JSON number, got 'inf'"),
            (lambda doc: doc["scores"][0]["per_stem"].update(vocals=math.inf), "song a: vocals must be finite, got inf"),
            (lambda doc: doc["scores"][0].update(excluded_song="false"),
             "song a: excluded_song must be a JSON boolean, got 'false'"),
            (lambda doc: doc["scores"][0].update(excluded_song=0), "excluded_song must be a JSON boolean, got 0"),
            (lambda doc: doc.update(system_id=["sys"]), "system_id must be a JSON string, got ['sys']"),
            (lambda doc: doc["scores"][0].update(song_id=7), "song record 0: song_id must be a JSON string, got 7"),
            (lambda doc: doc["scores"][0].update(exclusion_reason=[]), "exclusion_reason must be a JSON string, got []"),
            (lambda doc: doc["scores"][0].update(excluded_stems={"bass": 5}),
             "song a: exclusion reason of bass must be a JSON string, got 5"),
        ],
        ids=["rounds-str", "rounds-empty", "rounds-7", "round-str", "round-bool", "seed-fraction",
             "seed-negative", "seed-bool", "epsilon-str", "repeated-song", "sdr-str", "sdr-bool",
             "sdr-nan", "sdr-minus-inf", "sdr-huge-int", "stem-str", "stem-inf", "excluded-str", "excluded-int",
             "system-id-list", "song-id-int", "reason-list", "stem-reason-int"],
    )
    def test_document_field_types_checked(self, tmp_path, edit, message):
        doc = json.loads(self._document(tmp_path).read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            load_score_document(path)

    def test_document_accepts_integer_scores(self, tmp_path):
        path = self._document(tmp_path, rounds=[3, 1, 3])
        loaded = load_score_document(path)
        assert loaded["rounds"] == frozenset({1, 3})
        assert loaded["scores"] == [_song_score("a", 1, 2, 3, 4)]

    def test_leaderboard_csv_three_decimals(self):
        entry = LeaderboardEntry(
            rank=1,
            system_id="sys",
            sdr_song_mean=7.32825,
            per_stem_means={
                StemKind.BASS: 8.115,
                StemKind.DRUMS: 8.037,
                StemKind.OTHER: 5.193,
                StemKind.VOCALS: 7.968,
            },
            rounds_included=frozenset({1, 2, 3}),
        )
        text = leaderboard_to_csv([entry])
        assert text.strip().split("\n")[1] == "1,sys,7.328,8.115,8.037,5.193,7.968"
