import json
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from demixeval.audio_io import StemKind, Waveform, load_manifest, read_wav, read_wav_header, write_wav
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
    ScoreDocument,
    SongScore,
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
from demixeval.metrics import MetricConfig, global_sdr
from demixeval.synth import make_dataset, make_song

from helpers import score_documents


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
        counts = Counter(plan.values())
        assert counts == {1: 9, 2: 9, 3: 9}
        demo_ids = {s.song_id for s in manifest.songs if s.is_demo}
        assert demo_ids.isdisjoint(plan)

    def test_four_eligible_near_equal(self, tmp_path):
        manifest = _metadata_only_manifest(tmp_path, 4)
        plan = plan_rounds(manifest, seed=0)
        sizes = sorted(Counter(plan.values()).values())
        assert sizes == [1, 1, 2]

    def test_deterministic_under_seed(self, tmp_path):
        manifest = _metadata_only_manifest(tmp_path, 12)
        assert plan_rounds(manifest, 42) == plan_rounds(manifest, 42)

    def test_different_seeds_differ(self, tmp_path):
        manifest = _metadata_only_manifest(tmp_path, 12)
        plans = {tuple(sorted(plan_rounds(manifest, s).items())) for s in range(8)}
        assert len(plans) > 1

    def test_too_few_songs(self, tmp_path):
        manifest = _metadata_only_manifest(tmp_path, 4, demo_indices=(0, 1))
        with pytest.raises(InvalidInputError):
            plan_rounds(manifest, 0)

    @pytest.mark.parametrize("seed", [1.5, 0.0, True], ids=["fraction", "float-zero", "bool"])
    def test_seed_must_be_an_int(self, tmp_path, seed):
        manifest = _metadata_only_manifest(tmp_path, 4)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'seed must be an integer, got {seed!r}')}$"):
            plan_rounds(manifest, seed)


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
        assert score.excluded_stems == {StemKind.BASS}
        kept = [score.per_stem[k] for k in (StemKind.DRUMS, StemKind.OTHER, StemKind.VOCALS)]
        assert score.sdr_song == pytest.approx(sum(kept) / 3, abs=1e-12)

    def test_hand_arithmetic_three_stem_mean(self):
        # silent bass: mean over drums/other/vocals only
        score = SongScore(
            "s",
            {StemKind.BASS: -40.0, StemKind.DRUMS: 6.0, StemKind.OTHER: 3.0, StemKind.VOCALS: 9.0},
            {StemKind.BASS: "silent reference"},
        )
        assert score.sdr_song == 6.0

    @pytest.mark.parametrize(
        "per_stem, excluded",
        [({k: 1.0 for k in StemKind}, {k: "silent reference" for k in StemKind})],
        ids=["four-stems"],
    )
    def test_record_without_a_kept_stem_refused(self, per_stem, excluded):
        # its mean would divide by zero
        with pytest.raises(InvalidInputError, match="^every stem is excluded$"):
            SongScore("s", per_stem, excluded)

    def test_non_stem_excluded_key_refused(self):
        # the string key would exclude nothing, so the mean would keep the bass
        with pytest.raises(InvalidInputError, match="keys must be StemKind members"):
            SongScore("x", {k: 1.0 for k in StemKind}, {"bass": "r"})

    def test_record_without_every_stem_refused(self):
        with pytest.raises(InvalidInputError, match="^no value for drums, other, vocals$"):
            SongScore("s", {StemKind.BASS: 1.0}, {})

    def test_perfect_estimates(self, small_dataset):
        entry = small_dataset.songs[0]
        estimates = {kind: read_wav(entry.stem_paths[kind]) for kind in StemKind}
        score = score_song(entry, estimates)
        cfg = MetricConfig()
        for kind in StemKind:
            energy = float(np.sum(estimates[kind].samples ** 2))
            expected = 10 * np.log10((energy + cfg.epsilon) / cfg.epsilon)
            assert score.per_stem[kind] == pytest.approx(expected, abs=1e-9)
        assert score.sdr_song == pytest.approx(
            np.mean([score.per_stem[k] for k in StemKind]), abs=1e-12
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
        wrong = Waveform(np.zeros((2, 7)), read_wav_header(entry.mixture_path).sample_rate)
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


def _entry(rounds=(1, 2, 3), seed=3):
    """The ScoreDocument, still without scores, that evaluate_submission fills."""
    return ScoreDocument("base", Leaderboard.B, "none", rounds, seed, MetricConfig().epsilon)


class TestEvaluateSubmission:
    def test_round_selection_and_additivity(self, small_dataset, tmp_path):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        full = list(evaluate_submission(_entry({1, 2, 3}), small_dataset, root).scores)
        assert len(full) == 4  # 5 songs, 1 demo
        by_round = []
        for round_number in (1, 2, 3):
            by_round.extend(
                evaluate_submission(_entry({round_number}), small_dataset, root).scores
            )
        order = {s.song_id: i for i, s in enumerate(small_dataset.songs)}
        by_round.sort(key=lambda s: order[s.song_id])
        assert by_round == full

    def test_demo_songs_never_scored(self, small_dataset, tmp_path):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        scored_ids = {s.song_id for s in evaluate_submission(_entry(), small_dataset, root).scores}
        demo_ids = {s.song_id for s in small_dataset.songs if s.is_demo}
        assert scored_ids.isdisjoint(demo_ids)

    def test_missing_songs_listed_before_abort(self, small_dataset, tmp_path):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        eligible = small_dataset.eligible_songs()
        (root / eligible[0].song_id / "vocals.wav").unlink()
        (root / eligible[1].song_id / "bass.wav").unlink()
        with pytest.raises(MissingSubmissionError) as excinfo:
            evaluate_submission(_entry(), small_dataset, root)
        message = str(excinfo.value)
        assert eligible[0].song_id in message and eligible[1].song_id in message

    def test_corrupt_estimate_recorded(self, small_dataset, tmp_path):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        bad_song = small_dataset.eligible_songs()[0]
        (root / bad_song.song_id / "drums.wav").write_bytes(b"RIFFxxxxWAVE")
        with pytest.raises(EvaluationError, match=bad_song.song_id):
            evaluate_submission(_entry(), small_dataset, root)

    def test_parallel_matches_serial(self, small_dataset, tmp_path):
        root = tmp_path / "est"
        _write_baseline_submission(small_dataset, root)
        serial = evaluate_submission(_entry(), small_dataset, root, jobs=1)
        parallel = evaluate_submission(_entry(), small_dataset, root, jobs=2)
        assert serial == parallel

    def test_bad_rounds_rejected(self, small_dataset, tmp_path):
        # the ScoreDocument refuses them before evaluate_submission reads anything
        with pytest.raises(InvalidInputError, match=r"non-empty list drawn from 1, 2, 3, got \[4\]"):
            _entry({4})
        with pytest.raises(InvalidInputError):
            _entry(set())


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
        scores = evaluate_submission(_entry(), small_dataset, root, jobs=64).scores
        assert recording_pool == [len(scores)] == [4]


def _song_score(song_id, bass, drums, other, vocals, excluded=()):
    values = {
        StemKind.BASS: bass,
        StemKind.DRUMS: drums,
        StemKind.OTHER: other,
        StemKind.VOCALS: vocals,
    }
    return SongScore(song_id=song_id, per_stem=values, excluded_stems=frozenset(excluded))


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
        entries = rank(score_documents(results, Leaderboard.A))
        assert [e.system_id for e in entries] == [
            "defossez", "kuielab", "Music_AI", "Kazane_Ryo_no_Danna", "ByteMSS",
        ]
        assert [e.rank for e in entries] == [1, 2, 3, 4, 5]
        means = [e.sdr_song_mean for e in entries]
        assert means == sorted(means, reverse=True)
        assert means[0] == pytest.approx(7.328, abs=0.0005)

    def test_single_system(self):
        entries = rank(score_documents({"only": [_song_score("s", 1, 2, 3, 4)]}))
        assert len(entries) == 1
        assert entries[0].rank == 1

    def test_tie_broken_by_system_id(self):
        score = _song_score("s", 5, 5, 5, 5)
        entries = rank(score_documents({"zeta": [score], "alpha": [score]}))
        assert [e.system_id for e in entries] == ["alpha", "zeta"]
        assert [e.rank for e in entries] == [1, 2]

    def test_tie_broken_by_vocals_before_id(self):
        strong_vocals = _song_score("s", 4.0, 5.0, 6.0, 9.0)   # mean 6
        strong_bass = _song_score("s", 9.0, 5.0, 6.0, 4.0)     # mean 6
        entries = rank(score_documents({"a_weak": [strong_bass], "z_strong": [strong_vocals]}))
        assert [e.system_id for e in entries] == ["z_strong", "a_weak"]

    def test_inconsistent_song_sets_rejected(self):
        results = {
            "one": [_song_score("s1", 1, 1, 1, 1)],
            "two": [_song_score("s2", 1, 1, 1, 1)],
        }
        with pytest.raises(InvalidInputError, match="differing: two"):
            rank(score_documents(results, Leaderboard.A))

    def test_mean_matches_oracle(self, rng):
        scores = [
            _song_score(f"s{i}", *rng.uniform(-5, 15, size=4)) for i in range(9)
        ]
        entries = rank(score_documents({"sys": scores}))
        assert entries[0].sdr_song_mean == pytest.approx(
            np.mean([s.sdr_song for s in scores]), abs=1e-12
        )

    def test_improving_one_stem_never_lowers_mean(self, rng):
        scores = [_song_score(f"s{i}", *rng.uniform(0, 10, size=4)) for i in range(5)]
        base_mean = rank(score_documents({"sys": scores}))[0].sdr_song_mean
        bumped = list(scores)
        target = scores[2]
        values = dict(target.per_stem)
        values[StemKind.DRUMS] += 3.0
        bumped[2] = _song_score(
            target.song_id,
            values[StemKind.BASS],
            values[StemKind.DRUMS],
            values[StemKind.OTHER],
            values[StemKind.VOCALS],
        )
        assert rank(score_documents({"sys": bumped}))[0].sdr_song_mean >= base_mean

    def test_empty_results_rejected(self):
        with pytest.raises(InvalidInputError, match="no systems to rank"):
            rank([])

    def test_input_order_does_not_matter(self, rng):
        scores = {
            name: [_song_score("s", *rng.uniform(0, 10, size=4))]
            for name in ("alpha", "beta", "gamma")
        }
        forward = rank(score_documents(dict(scores)))
        reversed_input = rank(score_documents(dict(reversed(list(scores.items())))))
        assert forward == reversed_input

    def test_mixed_leaderboards_rejected(self):
        documents = score_documents({"a": [_song_score("s", 1, 2, 3, 4)], "b": [_song_score("s", 4, 3, 2, 1)]})
        documents[0] = replace(documents[0], leaderboard=Leaderboard.A)
        message = "score files mix leaderboards ['A', 'B']; pass --leaderboard to disambiguate"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            rank(documents)
        with pytest.raises(InvalidInputError, match=re.escape("declare leaderboard(s) ['A', 'B'], but A was requested")):
            rank(documents, Leaderboard.A)

    def test_requested_leaderboard_must_match(self):
        documents = score_documents({"a": [_song_score("s", 1, 2, 3, 4)]})
        with pytest.raises(InvalidInputError, match=re.escape("declare leaderboard(s) ['B'], but A was requested")):
            rank(documents, "A")
        assert rank(documents, "B") == rank(documents, Leaderboard.B) == rank(documents)

    @pytest.mark.parametrize("field, values", [("epsilon", (1e-7, 1e-5)), ("seed", (4, 3))])
    def test_epsilon_or_seed_disagreement_rejected(self, field, values):
        documents = score_documents({"a": [_song_score("s", 1, 2, 3, 4)], "b": [_song_score("s", 4, 3, 2, 1)]})
        documents = [replace(document, **{field: value}) for document, value in zip(documents, values)]
        with pytest.raises(InvalidInputError, match=re.escape(f"score files disagree on {field}: {sorted(values)}")):
            rank(documents)

    def test_duplicate_system_id_rejected(self):
        documents = score_documents({"a": [_song_score("s", 1, 2, 3, 4)]}) * 2
        with pytest.raises(InvalidInputError, match="duplicate system_id 'a'"):
            rank(documents)

    def test_documents_without_songs_rejected(self):
        with pytest.raises(InvalidInputError, match="^no scorable songs$"):
            rank(score_documents({"a": [], "b": []}))

    def test_nan_system_refused_before_it_can_reach_rank(self):
        # rank sorts on the means, and a NaN compares false with every value, so
        # a NaN system's place (and everyone else's) would follow the input order
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError, match=f"^drums must be finite, got {value}$"):
                _song_score("s", 1.0, value, 3.0, 4.0)

    def test_contract_checked_in_order(self):
        # each document set breaks every later rule too; the first rule broken names the error
        documents = score_documents(
            {"a": [_song_score("s1", 1, 2, 3, 4)], "b": [_song_score("s2", 4, 3, 2, 1)]}
        ) + score_documents({"b": [_song_score("s3", 1, 1, 1, 1)]}, epsilon=1e-5, seed=9)
        documents[0] = replace(documents[0], leaderboard=Leaderboard.A)

        def replaced(index, **fields):
            return lambda: documents.__setitem__(index, replace(documents[index], **fields))

        steps = [
            ("score files mix leaderboards", replaced(0, leaderboard=Leaderboard.B)),
            ("score files disagree on epsilon", replaced(2, epsilon=1e-7)),
            ("score files disagree on seed", replaced(2, seed=0)),
            ("duplicate system_id 'b'", replaced(2, system_id="c")),
            ("systems were not scored on the same songs; differing: b, c", None),
        ]
        for message, mend in steps:
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                rank(documents)
            if mend is not None:
                mend()

    def test_rounds_disagreement_rejected_after_song_sets(self):
        documents = score_documents({"a": [_song_score("s1", 1, 2, 3, 4)], "b": [_song_score("s2", 4, 3, 2, 1)]})
        documents[1] = replace(documents[1], rounds=frozenset({1}))
        with pytest.raises(InvalidInputError, match="systems were not scored on the same songs"):
            rank(documents)
        documents[1] = replace(documents[1], scores=[_song_score("s1", 4, 3, 2, 1)])
        with pytest.raises(InvalidInputError, match=re.escape("score files disagree on rounds: [[1], [1, 2, 3]]")):
            rank(documents)
        documents[0] = replace(documents[0], rounds=frozenset({1}))
        assert [entry.system_id for entry in rank(documents)] == ["a", "b"]


class TestSubmissionDescriptor:
    """The fields a submission declares (system_id, leaderboard, training data),
    which its ScoreDocument checks."""

    def test_board_a_accepts_musdb_variants(self, tmp_path):
        for declaration in ("MUSDB18-HQ", "musdb18", "MUSDB18, MUSDB18-HQ"):
            ScoreDocument("sys", Leaderboard.A, declaration, harness.ROUNDS, 0, 1e-7)

    def test_board_a_rejects_extra_data(self, tmp_path):
        for declaration in ("MUSDB18-HQ + 150 songs", "", "private corpus"):
            with pytest.raises(InvalidInputError):
                ScoreDocument("sys", Leaderboard.A, declaration, harness.ROUNDS, 0, 1e-7)

    def test_board_b_unconstrained(self, tmp_path):
        ScoreDocument("sys", Leaderboard.B, "anything at all", harness.ROUNDS, 0, 1e-7)

    def test_loaded_document_keeps_the_board_a_rule(self, tmp_path):
        document = scores_to_document(score_documents(
            {"sys": [_song_score("a", 1, 2, 3, 4)]}, Leaderboard.A, MetricConfig().epsilon, seed=7, rounds={1},
            declaration="MUSDB18-HQ")[0])
        path = tmp_path / "scores.json"
        cases = [
            ("MUSDB18, musdb18-hq", None),
            ("private corpus of 10000 songs", "system sys: leaderboard A requires a training data declaration "
             "naming only MUSDB18 or MUSDB18-HQ, got 'private corpus of 10000 songs'"),
            ("", "naming only MUSDB18 or MUSDB18-HQ, got ''"),
            (["MUSDB18"], "training_data_declaration must be a JSON string, got ['MUSDB18']"),
            (None, "score document has no 'training_data_declaration' field"),
        ]
        for declaration, message in cases:
            document["training_data_declaration"] = declaration
            path.write_text(json.dumps({k: v for k, v in document.items() if v is not None}))
            if message is None:
                assert load_score_document(path).leaderboard is Leaderboard.A
                continue
            with pytest.raises(InvalidInputError, match=re.escape(message)) as excinfo:
                load_score_document(path)
            assert str(excinfo.value).startswith(f"{path}: ")

    def test_loaded_board_b_document_needs_no_declaration(self, tmp_path):
        document = scores_to_document(score_documents(
            {"sys": [_song_score("a", 1, 2, 3, 4)]}, Leaderboard.B, MetricConfig().epsilon, seed=7, rounds={1},
            declaration="private corpus")[0])
        del document["training_data_declaration"]
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(document))
        assert load_score_document(path).leaderboard is Leaderboard.B


# all of Unicode, lone surrogates included, with CR, LF, NUL and the characters CSV quotes
_ANY_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('\r\n\0,"'), max_size=4)


def _now_and_then(valid, faults):
    """valid, or now and then one of faults, so a fault mostly comes with valid fields around it."""
    return st.integers(0, 7).flatmap(lambda n: st.sampled_from(faults) if n == 7 else valid)


# a document ScoreDocument accepts, as test_every_accepted_document_reads_back draws it
_ACCEPTED = dict(system_id="sys", leaderboard="A", declaration="MUSDB18", rounds={1, 3}, seed=0, epsilon=1e-7,
                 records=[("a", [1.0, 2.0, 3.0, 4.0], {StemKind.BASS})])


class TestScoreDocument:
    """A ScoreDocument built in the library obeys the rules load_score_document applies to a file."""

    @pytest.mark.parametrize(
        "fields, edit, message",
        [
            (dict(scores=[_song_score("a", 1, 2, 3, 4)] * 2), lambda doc: doc["scores"].append(doc["scores"][0]),
             "repeated song_id 'a'"),
            (dict(rounds={7}), lambda doc: doc.update(rounds=[7]),
             "rounds must be a non-empty list drawn from 1, 2, 3, got [7]"),
            (dict(seed=-1), lambda doc: doc.update(seed=-1), "seed must be >= 0, got -1"),
            (dict(epsilon=0.0), lambda doc: doc.update(epsilon=0.0), "epsilon must be finite and > 0"),
            (dict(system_id=""), lambda doc: doc.update(system_id=""), "system_id must be non-empty"),
            # printed by rank, the line break would forge the row "1,forged,9,9,9,9,9"
            (dict(system_id="sys\n1,forged,9,9,9,9,9"), lambda doc: doc.update(system_id="sys\n1,forged,9,9,9,9,9"),
             "system_id must not contain CR or LF, got 'sys\\n1,forged,9,9,9,9,9'"),
            (dict(system_id="sys\r"), lambda doc: doc.update(system_id="sys\r"),
             "system_id must not contain CR or LF, got 'sys\\r'"),
            (dict(leaderboard=Leaderboard.A, training_data_declaration="private corpus"),
             lambda doc: doc.update(leaderboard="A", training_data_declaration="private corpus"),
             "system sys: leaderboard A requires a training data declaration naming only MUSDB18 or "
             "MUSDB18-HQ, got 'private corpus'"),
            # written by scores_to_csv, the line break would make a cell that spans two lines
            (dict(scores=[_song_score("a\n1,forged", 1, 2, 3, 4)]),
             lambda doc: doc["scores"][0].update(song_id="a\n1,forged"),
             "song record 0: song_id 'a\\n1,forged' must be a non-empty name, "
             "not '.' or '..', without '/', '\\', NUL, ',', '\"', CR or LF"),
        ],
        ids=["repeated-song", "rounds-7", "seed-negative", "epsilon-zero", "system-id-empty", "system-id-lf",
             "system-id-cr", "board-a-private-corpus", "song-id-forged"],
    )
    def test_broken_rule_raises_the_loaders_message(self, tmp_path, fields, edit, message):
        document = score_documents({"sys": [_song_score("a", 1, 2, 3, 4)]}, Leaderboard.B, 1e-5, seed=7,
                                   rounds={1}, declaration="extra")[0]
        with pytest.raises(InvalidInputError) as built:
            replace(document, **fields)
        assert str(built.value) == message
        doc = scores_to_document(document)
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError) as loaded:
            load_score_document(path)
        assert str(loaded.value) == f"{path}: {message}"

    def test_rank_cannot_be_handed_a_song_twice(self):
        # counted twice, x would give system a a mean of (1 + 1 + 4) / 3 = 2 instead of 2.5
        x, y = _song_score("x", 1, 1, 1, 1), _song_score("y", 4, 4, 4, 4)
        with pytest.raises(InvalidInputError, match="^repeated song_id 'x'$"):
            score_documents({"a": [x, x, y], "b": [_song_score("x", 2, 2, 2, 2), _song_score("y", 2, 2, 2, 2)]})
        entries = rank(score_documents({"a": [x, y], "b": [_song_score("x", 2, 2, 2, 2), _song_score("y", 2, 2, 2, 2)]}))
        assert [(e.system_id, e.sdr_song_mean) for e in entries] == [("a", 2.5), ("b", 2.0)]

    def test_fields_kept_in_canonical_form(self):
        document = ScoreDocument("sys", "A", "MUSDB18", [3, 1, 3], 0, 1e-7, [_song_score("a", 1, 2, 3, 4)])
        assert document.leaderboard is Leaderboard.A
        assert document.rounds == frozenset({1, 3})
        assert document.scores == (_song_score("a", 1, 2, 3, 4),)

    @pytest.mark.parametrize(
        "fields, edit, built, loaded",
        [
            (dict(seed=0.0), lambda doc: doc.update(seed=0.0), "seed must be an integer, got 0.0",
             "malformed score document (seed must be a JSON integer, got 0.0)"),
            (dict(seed=True), lambda doc: doc.update(seed=True), "seed must be an integer, got True",
             "malformed score document (seed must be a JSON integer, got True)"),
            (dict(epsilon=True), lambda doc: doc.update(epsilon=True), "epsilon must be a float, got True",
             "malformed score document (epsilon must be a JSON number, got True)"),
            (dict(rounds={True}), lambda doc: doc.update(rounds=[True]),
             "rounds must be a non-empty list drawn from 1, 2, 3, got [True]",
             "malformed score document (a round must be a JSON integer, got True)"),
            # json.dumps writes a lone surrogate as the escape \ud800, which json.loads keeps
            (dict(system_id="s\ud800"), lambda doc: doc.update(system_id="s\ud800"),
             "system_id must be valid Unicode text", "malformed score document (system_id must be valid Unicode text)"),
            (dict(training_data_declaration="extra\ud800"),
             lambda doc: doc.update(training_data_declaration="extra\ud800"),
             "training_data_declaration must be valid Unicode text",
             "malformed score document (training_data_declaration must be valid Unicode text)"),
            (dict(scores=[_song_score("a\ud800", 1, 2, 3, 4)]), lambda doc: doc["scores"][0].update(song_id="a\ud800"),
             "song record 0: song_id must be valid Unicode text",
             "malformed score document (song record 0: song_id must be valid Unicode text)"),
            # printed by rank, the NUL would reach the leaderboard row raw
            (dict(system_id="a\0b"), lambda doc: doc.update(system_id="a\0b"),
             "system_id must not contain NUL, got 'a\\x00b'", "system_id must not contain NUL, got 'a\\x00b'"),
        ],
        ids=["seed-float", "seed-bool", "epsilon-bool", "rounds-bool", "system-id-surrogate",
             "declaration-surrogate", "song-id-surrogate", "system-id-nul"],
    )
    def test_what_the_loader_refuses_is_refused_when_built(self, tmp_path, fields, edit, built, loaded):
        document = score_documents({"sys": [_song_score("a", 1, 2, 3, 4)]}, Leaderboard.B, 1e-5, seed=7,
                                   rounds={1}, declaration="extra")[0]
        with pytest.raises(InvalidInputError) as refused:
            replace(document, **fields)
        assert str(refused.value) == built
        doc = scores_to_document(document)
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError) as refused:
            load_score_document(path)
        assert str(refused.value) == f"{path}: {loaded}"

    def test_a_mean_that_overflows_is_refused(self, tmp_path):
        # four finite values of 1.7e308 sum to inf, which JSON writes as Infinity, not a number
        with pytest.raises(InvalidInputError, match="^sdr_song must be finite, got inf$"):
            _song_score("a", *[1.7e308] * 4)
        doc = scores_to_document(score_documents({"sys": [_song_score("a", 1, 2, 3, 4)]})[0])
        doc["scores"][0].update(per_stem=dict.fromkeys(["bass", "drums", "other", "vocals"], 1.7e308), sdr_song=1.7e308)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError) as refused:
            load_score_document(path)
        assert str(refused.value) == f"{path}: song a: sdr_song must be finite, got inf"

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        system_id=st.just("sys") | _ANY_TEXT,
        leaderboard=st.sampled_from(["A", "B", Leaderboard.A, Leaderboard.B]),
        declaration=st.sampled_from(["MUSDB18", "musdb18-hq + MUSDB18", None]) | _ANY_TEXT,
        rounds=_now_and_then(st.sets(st.sampled_from([1, 2, 3]), min_size=1), [set(), {True}, {1.0}, {2, 4}]),
        seed=_now_and_then(st.integers(min_value=0), [-1, 0.0, 1.5, True, False]),
        epsilon=_now_and_then(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                              [True, False, 1, 2**53 + 1, 0.0, math.inf, math.nan]),
        records=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]) | _ANY_TEXT,
                _now_and_then(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
                              [[1.7e308] * 4, [1.7e308, 1.7e308, -0.0, 0.0], [math.inf, 0.0, 0.0, 0.0]]),
                _now_and_then(st.sets(st.sampled_from(StemKind), max_size=2), [set(StemKind)]),
            ),
            max_size=3,
            unique_by=lambda record: record[0],
        ),
    )
    @example(**{**_ACCEPTED, "seed": 0.0})
    @example(**{**_ACCEPTED, "seed": True})
    @example(**{**_ACCEPTED, "epsilon": True})
    @example(**{**_ACCEPTED, "rounds": {True}})
    @example(**{**_ACCEPTED, "system_id": "a\0b"})
    @example(**{**_ACCEPTED, "system_id": "s\ud800"})
    @example(**{**_ACCEPTED, "declaration": "MUSDB18\ud800"})
    @example(**{**_ACCEPTED, "records": [("a\ud800", [1.0] * 4, set())]})
    @example(**{**_ACCEPTED, "records": [("a", [1.7e308] * 4, set())]})
    def test_every_accepted_document_reads_back(self, tmp_path, system_id, leaderboard, declaration, rounds, seed,
                                                 epsilon, records):
        try:
            document = ScoreDocument(system_id, leaderboard, declaration, rounds, seed, epsilon, [
                SongScore(song_id, dict(zip(StemKind, values)), excluded) for song_id, values, excluded in records])
        except InvalidInputError:
            return  # a refused document has no file form
        text = json.dumps(scores_to_document(document), indent=2) + "\n"  # as score --out writes it
        path = tmp_path / "scores.json"
        path.write_text(text)
        loaded = load_score_document(path)
        assert loaded == document
        assert json.dumps(scores_to_document(loaded), indent=2) + "\n" == text


class TestSerialization:
    def test_csv_columns_and_values(self):
        score = _song_score("song_a", 1.25, 2.5, 3.75, 5.0, excluded=(StemKind.BASS,))
        text = scores_to_csv(score_documents({"sys": [score]})[0])
        lines = text.strip().split("\n")
        assert lines[0] == (
            "system_id,song_id,sdr_bass,sdr_drums,sdr_other,sdr_vocals,"
            "sdr_song,excluded_stems,excluded_song"
        )
        assert lines[1].startswith("sys,song_a,1.25,2.5,3.75,5,")
        assert "bass:silent reference" in lines[1]

    def test_document_round_trip(self, tmp_path):
        scores = [
            _song_score("a", 1, 2, 3, 4),
            _song_score("b", 4, 3, 2, 1, excluded=(StemKind.BASS,)),
        ]
        document = scores_to_document(score_documents(
            {"sys": scores}, Leaderboard.B, MetricConfig().epsilon, seed=7, rounds={1, 2},
            declaration="extra")[0])
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(document))
        loaded = load_score_document(path)
        assert loaded.system_id == "sys"
        assert loaded.leaderboard is Leaderboard.B
        assert loaded.rounds == frozenset({1, 2})
        assert list(loaded.scores) == scores

    def _document(self, tmp_path, **fields):
        """A score document file with `fields` overridden; a None field is left out."""
        document = scores_to_document(score_documents(
            {"sys": [_song_score("a", 1, 2, 3, 4)]}, Leaderboard.B, 1e-5, seed=7, rounds={1},
            declaration="extra")[0])
        document.update(fields)
        path = tmp_path / "scores.json"
        path.write_text(json.dumps({k: v for k, v in document.items() if v is not None}))
        return path

    def test_document_keeps_epsilon(self, tmp_path):
        assert load_score_document(self._document(tmp_path)).epsilon == 1e-5
        with pytest.raises(InvalidInputError):
            load_score_document(self._document(tmp_path, epsilon=None))

    def test_document_keeps_seed(self, tmp_path):
        assert load_score_document(self._document(tmp_path)).seed == 7
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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(rounds=[1, 2, 3, 7]), "rounds must be a non-empty list drawn from 1, 2, 3, got [1, 2, 3, 7]"),
            (lambda doc: doc.update(seed=-1), "seed must be >= 0, got -1"),
            (lambda doc: doc["scores"].append(dict(doc["scores"][0])), "repeated song_id 'a'"),
            (lambda doc: doc.update(leaderboard="A", training_data_declaration="private corpus"),
             "system sys: leaderboard A requires a training data declaration naming only MUSDB18 or "
             "MUSDB18-HQ, got 'private corpus'"),
            (lambda doc: doc.update(epsilon=0.0), "epsilon must be finite and > 0"),
            (lambda doc: doc.update(epsilon=-1.0), "epsilon must be finite and > 0"),
            (lambda doc: doc.update(system_id=""), "system_id must be non-empty"),
        ],
        ids=["rounds-7", "seed-negative", "repeated-song", "board-a-other-corpus", "epsilon-zero", "epsilon-negative",
             "system-id-empty"],
    )
    def test_document_rule_violation_keeps_its_message(self, tmp_path, edit, message):
        doc = json.loads(self._document(tmp_path).read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError) as caught:
            load_score_document(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_document_type_error_called_malformed(self, tmp_path):
        doc = json.loads(self._document(tmp_path).read_text())
        doc["seed"] = 0.7
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError) as caught:
            load_score_document(path)
        assert str(caught.value) == f"{path}: malformed score document (seed must be a JSON integer, got 0.7)"

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"song_id": "a", "per_stem": {"bass": 1.0}, "sdr_song": 1.0}, "song a: no value for drums, other, vocals"),
            ({"per_stem": {"bass": 1, "drums": 2, "other": 3}, "excluded_stems": {"vocals": "silent reference"}},
             "song a: no value for vocals"),
            ({"excluded_stems": {"piano": "silent reference"}}, "'piano' is not a valid StemKind"),
            ({"excluded_stems": {k.value: "silent reference" for k in StemKind}}, "song a: every stem is excluded"),
            ({"sdr_song": 2.5000000000000004}, "song a: sdr_song 2.5000000000000004 is not the mean of its kept stems, 2.5"),
            ({"excluded_stems": {"bass": "silent reference"}}, "song a: sdr_song 2.5 is not the mean of its kept stems, 3.0"),
            # the manifest alone decides which songs and stems are excluded, so an
            # edited record can neither drop a song from the mean nor give a stem a reason
            ({"excluded_song": True}, "song a: exclusions differ from what score writes: excluded_song false, "
                                      "exclusion_reason \"\" and stem reasons 'silent reference'"),
            ({"exclusion_reason": "demo song"}, "song a: exclusions differ from what score writes"),
            ({"excluded_stems": {"bass": "other"}, "sdr_song": 3.0}, "song a: exclusions differ from what score writes"),
        ],
        ids=["only-bass", "excluded-without-value", "excluded-unknown", "all-excluded", "sdr-last-bit", "sdr-four-stem-mean",
             "excluded-song", "song-reason", "stem-reason"],
    )
    def test_document_song_record_checked(self, tmp_path, record, message):
        doc = json.loads(self._document(tmp_path).read_text())
        doc["scores"][0].update(record)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=re.escape(message)) as excinfo:
            load_score_document(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("song_id", ["", "../escape", "line\nbreak", ".", "a,b"])
    def test_record_song_id_held_to_the_manifest_rule(self, tmp_path, song_id):
        doc = json.loads(self._document(tmp_path).read_text())
        doc["scores"].insert(0, {**doc["scores"][0], "song_id": "b"})
        doc["scores"][1]["song_id"] = song_id
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError) as caught:
            load_score_document(path)
        assert str(caught.value) == (
            f"{path}: song record 1: song_id {song_id!r} must be a non-empty name, "
            "not '.' or '..', without '/', '\\', NUL, ',', '\"', CR or LF")

    def test_record_song_id_checked_after_types_and_document_rules(self, tmp_path):
        # a record whose id is refused is named by its index in every message,
        # so a type error in it still ends in one line
        doc = json.loads(self._document(tmp_path).read_text())
        doc["scores"][0].update(song_id="line\nbreak", sdr_song="1")
        doc.update(epsilon=0.0)
        path = tmp_path / "edited.json"
        steps = [
            ("malformed score document (song record 0: sdr_song must be a JSON number, got '1')",
             lambda: doc["scores"][0].update(sdr_song=2.5)),
            ("epsilon must be finite and > 0", lambda: doc.update(epsilon=1e-5)),
            ("song record 0: song_id 'line\\nbreak' must be a non-empty name", None),
        ]
        for message, mend in steps:
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidInputError) as caught:
                load_score_document(path)
            assert str(caught.value).startswith(f"{path}: {message}")
            assert "\n" not in str(caught.value)
            if mend:
                mend()

    def test_every_record_song_id_checked_before_any_records_rules(self, tmp_path):
        # the ids are the document's rule, so record 1's id is named before record 0's sdr_song
        doc = json.loads(self._document(tmp_path).read_text())
        doc["scores"][0]["sdr_song"] = 9.0
        doc["scores"].append({**doc["scores"][0], "song_id": "../escape"})
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{path}: song record 1: ')}song_id '../escape'"):
            load_score_document(path)
        doc["scores"][1]["song_id"] = "b"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{path}: song a: sdr_song 9.0 is not the mean')}"):
            load_score_document(path)

    def test_exclusions_checked_after_the_records_rules_before_the_next_record(self, tmp_path):
        doc = json.loads(self._document(tmp_path).read_text())
        doc["scores"][0].update(excluded_song=True)
        doc["scores"].append({**doc["scores"][0], "song_id": "b", "per_stem": {"bass": 1.0}})
        path = tmp_path / "edited.json"
        for sdr_song, message in ((9.0, "song a: sdr_song 9.0 is not the mean"), (2.5, "song a: exclusions differ")):
            doc["scores"][0]["sdr_song"] = sdr_song
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{path}: {message}')}"):
                load_score_document(path)

    def test_document_type_checked_before_song_mean(self, tmp_path):
        doc = json.loads(self._document(tmp_path).read_text())
        doc["scores"][0].update(sdr_song=9.0)
        doc["seed"] = "seven"
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match="seed must be a JSON integer"):
            load_score_document(path)

    def test_type_checks_then_rules_in_order(self, tmp_path):
        # every type check comes first, then the rules in the order the docstring
        # gives: each step's document still breaks every later rule
        doc = json.loads(self._document(tmp_path).read_text())
        good = doc["scores"][0]
        missing_vocals = {**good, "per_stem": {k: v for k, v in good["per_stem"].items() if k != "vocals"}}
        doc.update(rounds=[7], seed=-1, epsilon=0.0, system_id="", leaderboard="A",
                   training_data_declaration="private corpus",
                   scores=[missing_vocals, {**good, "song_id": "b", "sdr_song": 9.0, "exclusion_reason": []}, good])
        path = tmp_path / "edited.json"
        steps = [
            ("malformed score document (song b: exclusion_reason must be a JSON string, got [])",
             lambda: doc["scores"][1].update(exclusion_reason="")),
            ("rounds must be a non-empty list drawn from 1, 2, 3, got [7]", lambda: doc.update(rounds=[1])),
            ("seed must be >= 0, got -1", lambda: doc.update(seed=7)),
            ("repeated song_id 'a'", lambda: doc["scores"].pop()),
            ("epsilon must be finite and > 0", lambda: doc.update(epsilon=1e-5)),
            ("system_id must be non-empty", lambda: doc.update(system_id="sys")),
            ("system sys: leaderboard A requires a training data declaration naming only MUSDB18 or MUSDB18-HQ, "
             "got 'private corpus'", lambda: doc.update(training_data_declaration="MUSDB18")),
            ("song a: no value for vocals", lambda: doc["scores"].__setitem__(0, good)),
            ("song b: sdr_song 9.0 is not the mean of its kept stems, 2.5", lambda: doc["scores"][1].update(sdr_song=2.5)),
        ]
        for message, mend in steps:
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidInputError) as caught:
                load_score_document(path)
            assert str(caught.value) == f"{path}: {message}"
            mend()
        path.write_text(json.dumps(doc))
        assert [score.song_id for score in load_score_document(path).scores] == ["a", "b"]

    def test_document_silent_stem_mean_accepted(self, tmp_path):
        doc = json.loads(self._document(tmp_path).read_text())
        doc["scores"][0].update(excluded_stems={"bass": "silent reference"}, sdr_song=3.0)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        (score,) = load_score_document(path).scores
        assert score == _song_score("a", 1, 2, 3, 4, excluded=(StemKind.BASS,))
        assert score.sdr_song == 3.0

    def test_document_mean_summed_in_stem_kind_order(self, tmp_path):
        # summed bass, drums, other, vocals the mean is 0.25; in the file's
        # reversed key order it would be 0.0
        doc = json.loads(self._document(tmp_path).read_text())
        doc["scores"][0].update(per_stem={"vocals": 1.0, "other": -1e16, "drums": 1.0, "bass": 1e16}, sdr_song=0.25)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        (score,) = load_score_document(path).scores
        assert list(score.per_stem) == list(StemKind)
        assert score.sdr_song == 0.25

    def test_board_b_declaration_kept_as_read(self, tmp_path):
        for declaration, loaded in (("extra", "extra"), (None, "")):
            path = self._document(tmp_path, training_data_declaration=declaration)
            assert load_score_document(path).training_data_declaration == loaded
        message = "malformed score document (training_data_declaration must be a JSON string, got 5)"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            load_score_document(self._document(tmp_path, training_data_declaration=5))

    def test_document_accepts_integer_scores(self, tmp_path):
        path = self._document(tmp_path, rounds=[3, 1, 3])
        loaded = load_score_document(path)
        assert loaded.rounds == frozenset({1, 3})
        assert list(loaded.scores) == [_song_score("a", 1, 2, 3, 4)]

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
        )
        text = leaderboard_to_csv([entry])
        assert text.strip().split("\n")[1] == "1,sys,7.328,8.115,8.037,5.193,7.968"
