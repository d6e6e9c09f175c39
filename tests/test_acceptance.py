"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from demixeval.analysis import pearson, spearman
from demixeval.audio_io import SongEntry, StemKind, Waveform, load_manifest, read_wav, write_wav
from demixeval.cli import run
from demixeval.harness import (
    Leaderboard,
    ScoreDocument,
    SongScore,
    evaluate_submission,
    plan_rounds,
    rank,
    score_song,
)
from demixeval.metrics import (
    MetricConfig,
    MetricId,
    framewise,
    global_sdr,
    metric_suite,
)
from demixeval.oracle import OracleConfig, ideal_mwf, ideal_swf, istft, mixture_baseline, stft
from demixeval.synth import make_dataset, make_song

from helpers import score_documents

EPS = 1e-7


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_aggregation_reproduction():
    top_row = SongScore(
        "all",
        {
            StemKind.BASS: 8.115,
            StemKind.DRUMS: 8.037,
            StemKind.OTHER: 5.193,
            StemKind.VOCALS: 7.968,
        },
        {},
    )
    assert abs(top_row.sdr_song - 7.328) <= 0.0005

    standings = [
        ("defossez", 8.115, 8.037, 5.193, 7.968),
        ("kuielab", 7.232, 7.173, 5.636, 8.901),
        ("Music_AI", 7.273, 7.371, 5.091, 7.792),
        ("Kazane_Ryo_no_Danna", 6.993, 7.018, 4.901, 7.686),
        ("ByteMSS", 6.602, 6.545, 4.830, 8.079),
    ]
    results = {}
    for name, bass, drums, other, vocals in standings:
        scores = {
            StemKind.BASS: bass,
            StemKind.DRUMS: drums,
            StemKind.OTHER: other,
            StemKind.VOCALS: vocals,
        }
        results[name] = [SongScore("all", scores, frozenset())]
    entries = rank(score_documents(results, Leaderboard.A))
    assert [e.system_id for e in entries] == [
        "defossez",
        "kuielab",
        "Music_AI",
        "Kazane_Ryo_no_Danna",
        "ByteMSS",
    ]
    published = [7.328, 7.236, 6.882, 6.649, 6.514]
    for entry, expected in zip(entries, published):
        assert abs(entry.sdr_song_mean - expected) <= 0.0005

    second_row = SongScore(
        "all",
        {
            StemKind.BASS: 5.62,
            StemKind.DRUMS: 5.81,
            StemKind.OTHER: 3.72,
            StemKind.VOCALS: 6.34,
        },
        {},
    )
    value = second_row.sdr_song
    assert value == pytest.approx(5.3725, abs=1e-12)
    assert f"{value:.2f}" == "5.37"
    report(1, "per-song aggregation reproduces the published means and ranking order")


def test_criterion_02_global_sdr_contract():
    started = time.time()
    rng = np.random.default_rng(2)

    silent = Waveform(np.zeros((2, 2000)), 8000)
    assert global_sdr(silent, silent) == 0.0

    for _ in range(20):
        base = rng.standard_normal((2, 2000))
        base /= np.sqrt(np.sum(base**2))  # unit energy
        scale = float(rng.uniform(1.0, 30.0))
        ref = Waveform(scale * base, 8000)
        energy = float(np.sum(ref.samples**2))
        assert energy >= 1.0
        bound = 10 * np.log10(1 + EPS / energy)
        zero_est = Waveform(np.zeros((2, 2000)), 8000)
        assert abs(global_sdr(ref, zero_est)) <= bound
        doubled = Waveform(2.0 * ref.samples, 8000)
        assert abs(global_sdr(ref, doubled)) <= bound

    for _ in range(1000):
        ref_data = 0.3 * rng.standard_normal((2, 800))
        est_data = ref_data + rng.uniform(0.01, 0.5) * rng.standard_normal((2, 800))
        expected = 10 * np.log10(
            (np.sum(ref_data**2) + EPS) / (np.sum((ref_data - est_data) ** 2) + EPS)
        )
        got = global_sdr(Waveform(ref_data, 8000), Waveform(est_data, 8000))
        assert abs(got - expected) <= 1e-9
    elapsed = time.time() - started
    assert elapsed < 10.0
    report(2, f"global SDR contract holds on 1000 random pairs ({elapsed:.1f}s)")


def test_criterion_03_framewise_global_equivalence():
    started = time.time()
    rng = np.random.default_rng(3)
    rate = 1000
    for index in range(100):
        frames = int(rng.integers(2 * rate, 6 * rate))
        ref = Waveform(0.4 * rng.standard_normal((2, frames)), rate)
        est = Waveform(
            ref.samples + 0.2 * rng.standard_normal((2, frames)), rate
        )
        full = frames / rate
        assert framewise(MetricId.GLOBAL_SDR, ref, est, full, full) == global_sdr(ref, est)

        oracle_values = []
        for start in range(0, frames - rate + 1, rate):
            r = ref.samples[:, start : start + rate]
            e = est.samples[:, start : start + rate]
            oracle_values.append(
                10 * np.log10((np.sum(r**2) + EPS) / (np.sum((r - e) ** 2) + EPS))
            )
        expected = float(np.mean(oracle_values))
        got = framewise(MetricId.GLOBAL_SDR, ref, est, 1.0, 1.0)
        assert abs(got - expected) <= 1e-9
    elapsed = time.time() - started
    assert elapsed < 30.0
    report(3, f"framewise matches global exactly and the framing oracle to 1e-9 ({elapsed:.1f}s)")


def test_criterion_04_si_sdr_scale_invariance():
    rng = np.random.default_rng(4)
    for _ in range(100):
        ref = Waveform(0.5 * rng.standard_normal((2, 1200)), 8000)
        est_data = 0.7 * ref.samples + 0.15 * rng.standard_normal((2, 1200))
        reference_value = metric_suite(ref, Waveform(est_data, 8000))[MetricId.GLOBAL_SI_SDR]
        assert abs(reference_value) < 120.0  # clamp never engaged
        for scale in (0.1, 10.0, 1000.0):
            scaled = metric_suite(ref, Waveform(scale * est_data, 8000))[MetricId.GLOBAL_SI_SDR]
            assert abs(scaled - reference_value) <= 1e-9
    report(4, "SI-SDR identical under estimate scaling across four decades")


def test_criterion_05_epsilon_equivalence():
    rng = np.random.default_rng(5)
    plain, stabilized = [], []
    for _ in range(300):
        base = rng.standard_normal((2, 1500))
        ref = Waveform(base / np.sqrt(np.mean(base**2)) * 0.5, 8000)
        assert float(np.sum(ref.samples**2)) >= 1.0
        est = Waveform(
            ref.samples + rng.uniform(0.05, 0.7) * rng.standard_normal((2, 1500)), 8000
        )
        v3 = metric_suite(ref, est)[MetricId.BSSEVAL_V3_SDR]
        sdr = global_sdr(ref, est)
        assert abs(v3 - sdr) <= 1e-5
        plain.append(v3)
        stabilized.append(sdr)
    assert pearson(stabilized, plain) > 0.999
    assert spearman(stabilized, plain) > 0.999
    report(5, "stabilizer-free SDR equals the stabilized one to 1e-5 dB, correlations > 0.999")


def test_criterion_06_oracle_dominance():
    started = time.time()
    cfg = OracleConfig(fft_size=2048, hop=512)
    metric_cfg = MetricConfig()
    swf_margins, mwf_margins = [], []
    for seed in range(20):
        song = make_song(seed=900 + seed, duration=30.0, sample_rate=16000)
        mixture, stems = song["mixture"], song["stems"]
        baseline = mixture_baseline(mixture)
        swf = ideal_swf(mixture, stems, cfg)
        mwf = ideal_mwf(mixture, stems, cfg)

        swf_scores, mwf_scores = {}, {}
        for kind in StemKind:
            baseline_sdr = global_sdr(stems[kind], baseline[kind], metric_cfg)
            swf_sdr = global_sdr(stems[kind], swf[kind], metric_cfg)
            mwf_sdr = global_sdr(stems[kind], mwf[kind], metric_cfg)
            assert swf_sdr >= baseline_sdr
            assert mwf_sdr >= baseline_sdr
            swf_margins.append(swf_sdr - baseline_sdr)
            mwf_margins.append(mwf_sdr - baseline_sdr)
            swf_scores[kind] = swf_sdr
            mwf_scores[kind] = mwf_sdr
        # stems are panned apart: the spatial filter must not lose to the mask
        assert SongScore("s", mwf_scores, {}).sdr_song >= SongScore("s", swf_scores, {}).sdr_song
    assert np.mean(swf_margins) >= 3.0
    assert np.mean(mwf_margins) >= 3.0
    elapsed = time.time() - started
    assert elapsed < 300.0
    report(
        6,
        f"oracles dominate the mixture baseline (mean margins "
        f"{np.mean(swf_margins):.1f}/{np.mean(mwf_margins):.1f} dB) and MWF >= SWF ({elapsed:.0f}s)",
    )


def test_criterion_07_stft_perfect_reconstruction():
    rng = np.random.default_rng(7)
    cfg = OracleConfig(fft_size=1024, hop=256)
    worst = 0.0
    for _ in range(100):
        channels = int(rng.integers(1, 3))
        frames = int(rng.integers(2 * cfg.fft_size, 8 * cfg.fft_size))
        w = Waveform(0.5 * rng.standard_normal((channels, frames)), 16000)
        back = istft(stft(w, cfg))
        worst = max(worst, float(np.max(np.abs(back.samples - w.samples))))
    assert worst < 1e-6
    report(7, f"istft(stft(w)) within 1e-6 on 100 waveforms (worst {worst:.2e})")


def test_criterion_08_silent_stem_rule(tmp_path):
    song = make_song(
        seed=88, duration=1.0, sample_rate=8000, silent_stems=frozenset({StemKind.BASS})
    )
    song_dir = tmp_path / "silent_bass"
    song_dir.mkdir()
    for kind in StemKind:
        write_wav(song["stems"][kind], song_dir / f"{kind.value}.wav")
    write_wav(song["mixture"], song_dir / "mixture.wav")
    entry = SongEntry(
        song_id="silent_bass",
        stem_paths={k: song_dir / f"{k.value}.wav" for k in StemKind},
        mixture_path=song_dir / "mixture.wav",
        silent_stems=frozenset({StemKind.BASS}),
    )
    estimates = {kind: read_wav(song_dir / "mixture.wav") for kind in StemKind}
    score = score_song(entry, estimates)
    assert set(score.excluded_stems) == {StemKind.BASS}
    drums = score.per_stem[StemKind.DRUMS]
    other = score.per_stem[StemKind.OTHER]
    vocals = score.per_stem[StemKind.VOCALS]
    assert score.sdr_song == pytest.approx((drums + other + vocals) / 3, abs=1e-12)
    assert StemKind.BASS in score.per_stem  # scored, only excluded from the mean
    report(8, "a declared-silent bass is scored but excluded: the mean runs over 3 stems")


def test_criterion_09_round_mechanics(tmp_path):
    manifest_path = make_dataset(
        tmp_path / "thirty",
        n_songs=30,
        duration=0.4,
        sample_rate=4000,
        seed=99,
        demo_song_indices=(7, 14, 17),
    )
    manifest = load_manifest(manifest_path)
    plan = plan_rounds(manifest, seed=13)

    rounds = {1: set(), 2: set(), 3: set()}
    for song_id, round_number in plan.items():
        rounds[round_number].add(song_id)
    assert [len(rounds[r]) for r in (1, 2, 3)] == [9, 9, 9]
    assert rounds[1] & rounds[2] == set()
    assert rounds[1] & rounds[3] == set()
    assert rounds[2] & rounds[3] == set()
    demo_ids = {s.song_id for s in manifest.songs if s.is_demo}
    assert demo_ids.isdisjoint(set(plan))

    estimates_root = tmp_path / "estimates"
    for entry in manifest.songs:
        song_dir = estimates_root / entry.song_id
        song_dir.mkdir(parents=True)
        mixture = read_wav(entry.mixture_path)
        for kind in StemKind:
            write_wav(mixture, song_dir / f"{kind.value}.wav")
    def submission(rounds):
        return ScoreDocument("base", Leaderboard.B, "none", rounds, 13, MetricConfig().epsilon)

    full = list(evaluate_submission(submission({1, 2, 3}), manifest, estimates_root).scores)
    assert len(full) == 27
    union = []
    for round_number in (1, 2, 3):
        union.extend(evaluate_submission(submission({round_number}), manifest, estimates_root).scores)
    order = {song.song_id: i for i, song in enumerate(manifest.songs)}
    union.sort(key=lambda score: order[score.song_id])
    assert union == full
    report(9, "3 demos out of 30 leave three disjoint rounds of 9; union equals full run")


def test_criterion_10_end_to_end(tmp_path, capsys):
    started = time.time()
    dataset_root = tmp_path / "dataset"
    manifest_path = make_dataset(
        dataset_root, n_songs=4, duration=2.0, sample_rate=8000, seed=42
    )

    def flow() -> str:
        chunks = []
        for kind in ("swf", "mwf", "baseline"):
            assert (
                run(
                    [
                        "oracle",
                        "--manifest", str(manifest_path),
                        "--kind", kind,
                        "--out", str(tmp_path / f"est_{kind}"),
                        "--fft", "512",
                        "--hop", "128",
                        "--jobs", "1",
                    ]
                )
                == 0
            )
            chunks.append(capsys.readouterr().out)
        for kind in ("swf", "mwf", "baseline"):
            assert (
                run(
                    [
                        "score",
                        "--manifest", str(manifest_path),
                        "--estimates", str(tmp_path / f"est_{kind}"),
                        "--system", f"oracle_{kind}",
                        "--leaderboard", "B",
                        "--training-data", "oracle",
                        "--seed", "7",
                        "--jobs", "1",
                        "--out", str(tmp_path / f"scores_{kind}"),
                    ]
                )
                == 0
            )
            chunks.append(capsys.readouterr().out)
        assert (
            run(
                [
                    "rank",
                    "--scores",
                    str(tmp_path / "scores_swf.json"),
                    str(tmp_path / "scores_mwf.json"),
                    str(tmp_path / "scores_baseline.json"),
                    "--out", str(tmp_path / "leaderboard.csv"),
                ]
            )
            == 0
        )
        chunks.append(capsys.readouterr().out)
        return "".join(chunks)

    first_output = flow()
    first_leaderboard = (tmp_path / "leaderboard.csv").read_bytes()
    second_output = flow()
    second_leaderboard = (tmp_path / "leaderboard.csv").read_bytes()
    assert first_output == second_output
    assert first_leaderboard == second_leaderboard

    rows = first_leaderboard.decode().strip().split("\n")[1:]
    means = {}
    for row in rows:
        fields = row.split(",")
        means[fields[1]] = float(fields[2])
    assert means["oracle_mwf"] >= means["oracle_swf"] > means["oracle_baseline"]
    assert [row.split(",")[1] for row in rows] == [
        "oracle_mwf",
        "oracle_swf",
        "oracle_baseline",
    ]
    elapsed = time.time() - started
    assert elapsed < 600.0
    report(
        10,
        f"end-to-end oracle/score/rank is byte-identical across runs and orders "
        f"MWF >= SWF > baseline ({elapsed:.0f}s)",
    )
