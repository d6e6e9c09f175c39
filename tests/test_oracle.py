import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from demixeval import oracle
from demixeval.audio_io import StemKind, Waveform
from demixeval.errors import InvalidInputError
from demixeval.metrics import global_sdr
from demixeval.oracle import (
    OracleConfig,
    Spectrogram,
    ideal_mwf,
    ideal_swf,
    istft,
    mixture_baseline,
    stft,
    swf_masks,
)
from demixeval.synth import make_song

from helpers import istft_reference, mwf_reference, stft_reference

CFG = OracleConfig(fft_size=1024, hop=256)


class TestStft:
    def test_bin_centered_sinusoid_concentrates(self):
        rate = 8000
        bin_index = 40
        freq = bin_index * rate / CFG.fft_size
        t = np.arange(4 * rate) / rate
        w = Waveform(np.sin(2 * np.pi * freq * t)[None, :], rate)
        spec = stft(w, CFG)
        magnitude_sq = np.abs(spec.bins[0]) ** 2
        # skip padding-dominated edge frames
        interior = magnitude_sq[:, 8:-8]
        frame_energy = interior.sum(axis=0)
        # the Hann window spreads a bin-centered tone over exactly 3 bins
        neighborhood = interior[bin_index - 1 : bin_index + 2].sum(axis=0)
        assert np.all(neighborhood >= 0.99 * frame_energy)
        assert np.all(interior.argmax(axis=0) == bin_index)

    def test_zero_signal_all_zero_spectrogram(self):
        w = Waveform(np.zeros((2, 4000)), 8000)
        spec = stft(w, CFG)
        assert np.all(spec.bins == 0.0)

    def test_round_trip_random(self, rng):
        for _ in range(10):
            frames = int(rng.integers(2 * CFG.fft_size, 6 * CFG.fft_size))
            w = Waveform(0.3 * rng.standard_normal((2, frames)), 8000)
            back = istft(stft(w, CFG))
            assert back.sample_rate == w.sample_rate
            assert back.samples.shape == w.samples.shape
            assert np.max(np.abs(back.samples - w.samples)) < 1e-6

    def test_round_trip_nondividing_hop(self, rng):
        cfg = OracleConfig(fft_size=1024, hop=300)
        w = Waveform(0.3 * rng.standard_normal((1, 5000)), 8000)
        back = istft(stft(w, cfg))
        assert np.max(np.abs(back.samples - w.samples)) < 1e-6

    def test_too_short_rejected(self):
        w = Waveform(np.zeros((1, CFG.fft_size)), 8000)
        with pytest.raises(InvalidInputError):
            stft(w, CFG)

    def test_spectrogram_validation(self):
        with pytest.raises(InvalidInputError):
            Spectrogram(np.zeros((2, 10), dtype=complex), 1024, 256, 8000, 4000)
        with pytest.raises(InvalidInputError):
            Spectrogram(np.zeros((2, 10, 4), dtype=complex), 1024, 256, 8000, 4000)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            OracleConfig(fft_size=1023)
        with pytest.raises(InvalidInputError):
            OracleConfig(hop=0)
        with pytest.raises(InvalidInputError):
            OracleConfig(hop=8192)

    def test_config_holds_only_the_stft_geometry(self):
        assert [f.name for f in dataclasses.fields(OracleConfig)] == ["fft_size", "hop"]

    def test_hop_beyond_half_window_rejected(self):
        # at hop == fft_size the inverse silently loses samples
        for hop in (513, 1000, 1024):
            with pytest.raises(InvalidInputError):
                OracleConfig(fft_size=1024, hop=hop)
        assert OracleConfig(fft_size=1024, hop=512).hop == 512


def _band_tone_stem(rng, frames, rate, low, high, pan):
    t = np.arange(frames) / rate
    mono = np.zeros(frames)
    for _ in range(4):
        mono += np.sin(2 * np.pi * rng.uniform(low, high) * t + rng.uniform(0, 6.28))
    noise = rng.standard_normal(frames)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(frames, 1 / rate)
    spectrum[(freqs < low) | (freqs > high)] = 0
    mono = 0.1 * mono + 0.05 * np.fft.irfft(spectrum, n=frames) / 3
    return Waveform(np.vstack([np.cos(pan) * mono, np.sin(pan) * mono]), rate)


class TestIdealSwf:
    def test_single_source_mixture(self, rng):
        rate, frames = 8000, 24000
        stem = _band_tone_stem(rng, frames, rate, 200, 1200, 0.7)
        zeros = Waveform(np.zeros((2, frames)), rate)
        references = {
            StemKind.BASS: stem,
            StemKind.DRUMS: zeros,
            StemKind.OTHER: zeros,
            StemKind.VOCALS: zeros,
        }
        estimates = ideal_swf(stem, references, CFG)
        assert global_sdr(stem, estimates[StemKind.BASS]) >= 50.0
        for kind in (StemKind.DRUMS, StemKind.OTHER, StemKind.VOCALS):
            assert np.max(np.abs(estimates[kind].samples)) < 1e-6

    def test_disjoint_bands_recovered(self, rng):
        rate, frames = 8000, 24000
        low_stem = _band_tone_stem(rng, frames, rate, 100, 400, 0.8)
        high_stem = _band_tone_stem(rng, frames, rate, 1500, 3000, 0.8)
        mixture = Waveform(low_stem.samples + high_stem.samples, rate)
        references = {StemKind.BASS: low_stem, StemKind.VOCALS: high_stem}
        estimates = ideal_swf(mixture, references, CFG)
        assert global_sdr(low_stem, estimates[StemKind.BASS]) >= 20.0
        assert global_sdr(high_stem, estimates[StemKind.VOCALS]) >= 20.0

    def test_all_silent_stems_give_silent_estimates(self):
        rate, frames = 8000, 8000
        zeros = Waveform(np.zeros((2, frames)), rate)
        references = {kind: zeros for kind in StemKind}
        estimates = ideal_swf(zeros, references, CFG)
        for kind in StemKind:
            assert np.all(estimates[kind].samples == 0.0)

    def test_masks_bounded_and_sum_at_most_one(self, rng):
        song = make_song(3, duration=2.0, sample_rate=8000)
        masks = swf_masks(song["stems"], CFG)
        total = sum(masks.values())
        for mask in masks.values():
            assert np.all(mask >= 0.0)
            assert np.all(mask <= 1.0)
        assert np.all(total <= 1.0)

    def test_sum_consistency_with_mixture(self, rng):
        song = make_song(4, duration=2.0, sample_rate=8000)
        estimates = ideal_swf(song["mixture"], song["stems"], CFG)
        total = sum(estimates[kind].samples for kind in StemKind)
        assert np.max(np.abs(total - song["mixture"].samples)) < 1e-3

    def test_dominates_mixture_baseline(self, rng):
        song = make_song(5, duration=2.0, sample_rate=8000)
        swf = ideal_swf(song["mixture"], song["stems"], CFG)
        baseline = mixture_baseline(song["mixture"])
        for kind in StemKind:
            oracle_sdr = global_sdr(song["stems"][kind], swf[kind])
            baseline_sdr = global_sdr(song["stems"][kind], baseline[kind])
            assert oracle_sdr >= baseline_sdr

    def test_shape_mismatch_rejected(self, rng):
        rate = 8000
        mixture = Waveform(rng.standard_normal((2, 4000)), rate)
        references = {StemKind.BASS: Waveform(rng.standard_normal((2, 4001)), rate)}
        with pytest.raises(InvalidInputError):
            ideal_swf(mixture, references, CFG)


class TestIdealMwf:
    def test_single_source_mixture(self, rng):
        rate, frames = 8000, 24000
        stem = _band_tone_stem(rng, frames, rate, 200, 1200, 0.7)
        zeros = Waveform(np.zeros((2, frames)), rate)
        references = {
            StemKind.BASS: stem,
            StemKind.DRUMS: zeros,
            StemKind.OTHER: zeros,
            StemKind.VOCALS: zeros,
        }
        estimates = ideal_mwf(stem, references, CFG)
        assert global_sdr(stem, estimates[StemKind.BASS]) >= 40.0

    def test_panned_overlapping_sources_beat_swf(self, rng):
        # same band, different pans: the ratio mask must leak, the spatial
        # filter can still discriminate
        rate, frames = 8000, 24000
        left = _band_tone_stem(rng, frames, rate, 300, 1500, 0.12)
        right = _band_tone_stem(rng, frames, rate, 300, 1500, 1.45)
        mixture = Waveform(left.samples + right.samples, rate)
        references = {StemKind.OTHER: left, StemKind.VOCALS: right}
        swf = ideal_swf(mixture, references, CFG)
        mwf = ideal_mwf(mixture, references, CFG)
        for kind, stem in references.items():
            assert global_sdr(stem, mwf[kind]) > global_sdr(stem, swf[kind])

    def test_mono_rejected(self, rng):
        rate = 8000
        mono = Waveform(rng.standard_normal((1, 4000)), rate)
        with pytest.raises(InvalidInputError):
            ideal_mwf(mono, {StemKind.BASS: mono}, CFG)

    def test_large_regularization_stays_finite(self, rng, monkeypatch):
        song = make_song(6, duration=1.5, sample_rate=8000)
        for reg in (1e-10, 1e-3, 1.0, 1e6):
            monkeypatch.setattr(oracle, "_MWF_REGULARIZATION", reg)
            estimates = ideal_mwf(song["mixture"], song["stems"], CFG)
            for kind in StemKind:
                assert np.all(np.isfinite(estimates[kind].samples))


class TestReferences:
    """The vectorized kernels against direct per-frame and per-bin references."""

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("hop", [256, 300, 512])
    def test_stft_and_istft_exact(self, rng, channels, hop):
        cfg = OracleConfig(fft_size=1024, hop=hop)
        w = Waveform(0.3 * rng.standard_normal((channels, 5001)), 8000)
        spec = stft(w, cfg)
        expected = stft_reference(w.samples, 1024, hop)
        assert spec.bins.shape == expected.shape
        assert spec.bins.tobytes() == expected.tobytes()
        modified = spec.bins * (0.5 - 0.25j)
        back = istft(replace(spec, bins=modified)).samples
        assert back.tobytes() == istft_reference(modified, 1024, hop, 5001).tobytes()

    @pytest.mark.parametrize("geometry", [{}, {"fft_size": 1024, "hop": 300}], ids=["geometry0", "geometry2"])
    @pytest.mark.parametrize("regularization, tolerance", [(1e-10, 1e-7), (1e-3, 1e-12)])
    @pytest.mark.parametrize("delayed", [False, True])
    def test_mwf_within_stated_tolerance(self, monkeypatch, geometry, regularization, tolerance, delayed):
        stems = make_song(3, duration=1.5, sample_rate=8000)["stems"]
        if delayed:
            # inter-channel delays make L conj(R) complex; pure panning keeps it real
            stems = {
                kind: Waveform(np.vstack([w.samples[0], np.roll(w.samples[1], 1 + 2 * i)]), 8000)
                for i, (kind, w) in enumerate(stems.items())
            }
        mixture = Waveform(sum(w.samples for w in stems.values()), 8000)
        cfg = OracleConfig(**geometry)
        monkeypatch.setattr(oracle, "_MWF_REGULARIZATION", regularization)
        estimates = ideal_mwf(mixture, stems, cfg)
        expected = mwf_reference(mixture, stems, cfg, regularization)
        bound = tolerance * np.max(np.abs(mixture.samples))
        for kind in StemKind:
            assert np.max(np.abs(estimates[kind].samples - expected[kind])) <= bound

    def test_replaced_bins_checked_for_shape_and_finiteness(self, rng):
        spec = stft(Waveform(rng.standard_normal((2, 3000)), 8000), CFG)
        with pytest.raises(InvalidInputError, match="inconsistent with fft_size"):
            replace(spec, bins=spec.bins[:, :-1])
        with pytest.raises(InvalidInputError, match="spectrogram values must be finite"):
            replace(spec, bins=np.full_like(spec.bins, np.nan))


class TestMixtureBaseline:
    def test_four_identical_copies(self, rng):
        mixture = Waveform(rng.standard_normal((2, 100)), 8000)
        estimates = mixture_baseline(mixture)
        assert set(estimates) == set(StemKind)
        for kind in StemKind:
            assert estimates[kind] is mixture

    def test_sdr_equals_direct_computation(self, rng):
        song = make_song(8, duration=1.0, sample_rate=8000)
        estimates = mixture_baseline(song["mixture"])
        for kind in StemKind:
            assert global_sdr(song["stems"][kind], estimates[kind]) == global_sdr(
                song["stems"][kind], song["mixture"]
            )
