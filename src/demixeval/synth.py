"""Deterministic synthetic four-stem songs for tests and demos.

Each stem mixes band-limited noise with a few tones in a stem-specific
register, then gets panned to its own stereo position. The stems share
spectral overlap on purpose, so ratio-mask separation leaks a little while
spatial filtering can still exploit the distinct pans. The mixture is the
exact float64 sum of the stems.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .audio_io import StemKind, Waveform, write_wav

# distinct pan angles (radians from the left axis); stems stay hard-panned
# apart so spatial filtering has something to work with
PAN_ANGLES = {
    StemKind.BASS: 0.15,
    StemKind.DRUMS: 0.55,
    StemKind.OTHER: 1.00,
    StemKind.VOCALS: 1.40,
}

# tone registers per stem, Hz
TONE_BANDS = {
    StemKind.BASS: (55.0, 220.0),
    StemKind.DRUMS: (160.0, 900.0),
    StemKind.OTHER: (300.0, 1600.0),
    StemKind.VOCALS: (500.0, 2400.0),
}

NOISE_BANDS = {
    StemKind.BASS: (30.0, 300.0),
    StemKind.DRUMS: (80.0, 3500.0),
    StemKind.OTHER: (200.0, 2500.0),
    StemKind.VOCALS: (300.0, 3800.0),
}


def _band_noise(rng: np.random.Generator, frames: int, rate: int, low: float, high: float) -> np.ndarray:
    """White noise band-limited by zeroing rfft bins outside [low, high]."""
    noise = rng.standard_normal(frames)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(frames, d=1.0 / rate)
    spectrum[(freqs < low) | (freqs > high)] = 0.0
    shaped = np.fft.irfft(spectrum, n=frames)
    peak = np.max(np.abs(shaped))
    return shaped / peak if peak > 0 else shaped


def _tones(rng: np.random.Generator, frames: int, rate: int, low: float, high: float, count: int = 3) -> np.ndarray:
    t = np.arange(frames) / rate
    out = np.zeros(frames)
    for _ in range(count):
        freq = rng.uniform(low, min(high, rate / 2 * 0.9))
        phase = rng.uniform(0, 2 * np.pi)
        vibrato = 1.0 + 0.002 * np.sin(2 * np.pi * rng.uniform(0.5, 3.0) * t)
        out += rng.uniform(0.4, 1.0) * np.sin(2 * np.pi * freq * vibrato * t + phase)
    return out / count


def _envelope(rng: np.random.Generator, frames: int, rate: int, pulsed: bool) -> np.ndarray:
    t = np.arange(frames) / rate
    slow = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(0.05, 0.3) * t + rng.uniform(0, 2 * np.pi))
    if not pulsed:
        return slow
    period = rng.uniform(0.35, 0.7)
    pulses = np.exp(-8.0 * ((t % period) / period))
    return slow * (0.2 + 0.8 * pulses)


def make_song(
    seed: int,
    duration: float = 4.0,
    sample_rate: int = 16000,
    silent_stems: frozenset = frozenset(),
) -> dict:
    """Build one synthetic song.

    Returns {"stems": {StemKind: Waveform}, "mixture": Waveform}. The
    mixture is the exact sample-wise sum of the stems. Deterministic for a
    given seed. Stems listed in silent_stems are all zeros.
    """
    frames = int(round(duration * sample_rate))
    stems = {}
    for index, kind in enumerate(StemKind):
        rng = np.random.default_rng([seed, index])
        if kind in silent_stems:
            stems[kind] = Waveform(np.zeros((2, frames)), sample_rate)
            continue
        noise_low, noise_high = NOISE_BANDS[kind]
        tone_low, tone_high = TONE_BANDS[kind]
        mono = 0.5 * _band_noise(rng, frames, sample_rate, noise_low, noise_high)
        mono += 0.5 * _tones(rng, frames, sample_rate, tone_low, tone_high)
        mono *= _envelope(rng, frames, sample_rate, pulsed=(kind is StemKind.DRUMS))
        rms = np.sqrt(np.mean(mono**2))
        mono *= 0.08 / max(rms, 1e-9)
        angle = PAN_ANGLES[kind]
        stereo = np.vstack([np.cos(angle) * mono, np.sin(angle) * mono])
        stems[kind] = Waveform(stereo, sample_rate)

    mixture = np.zeros((2, frames))
    for kind in StemKind:
        mixture = mixture + stems[kind].samples
    peak = np.max(np.abs(mixture))
    if peak > 0.98:
        scale = 0.98 / peak
        stems = {
            kind: Waveform(stems[kind].samples * scale, sample_rate) for kind in StemKind
        }
        mixture = np.zeros((2, frames))
        for kind in StemKind:
            mixture = mixture + stems[kind].samples
    return {"stems": stems, "mixture": Waveform(mixture, sample_rate)}


def make_dataset(
    root,
    n_songs: int = 6,
    duration: float = 3.0,
    sample_rate: int = 16000,
    seed: int = 0,
    demo_song_indices: tuple = (),
    silent_bass_indices: tuple = (),
) -> Path:
    """Write a synthetic dataset with stems, mixtures and a JSON manifest.

    Returns the manifest path. Songs are named syn_000, syn_001, ...
    Indices in demo_song_indices are flagged is_demo; indices in
    silent_bass_indices get an all-zero bass stem and the matching
    silent_stems annotation. The manifest is named "synthetic".
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    records = []
    for index in range(n_songs):
        song_id = f"syn_{index:03d}"
        silent = frozenset({StemKind.BASS}) if index in silent_bass_indices else frozenset()
        song = make_song(
            seed=seed * 100003 + index,
            duration=duration,
            sample_rate=sample_rate,
            silent_stems=silent,
        )
        song_dir = root / song_id
        song_dir.mkdir(exist_ok=True)
        for kind in StemKind:
            write_wav(song["stems"][kind], song_dir / f"{kind.value}.wav")
        write_wav(song["mixture"], song_dir / "mixture.wav")
        records.append(
            {
                "song_id": song_id,
                "genre": "synthetic",
                "language": "none",
                "title": f"Synthetic {index}",
                "other_instruments": [],
                "mixture": f"{song_id}/mixture.wav",
                "stems": {kind.value: f"{song_id}/{kind.value}.wav" for kind in StemKind},
                "is_demo": index in demo_song_indices,
                "silent_stems": sorted(kind.value for kind in silent),
            }
        )
    manifest_path = root / "manifest.json"
    manifest_path.write_text(
        json.dumps(
            {"name": "synthetic", "sample_rate": sample_rate, "songs": records}, indent=2
        )
        + "\n"
    )
    return manifest_path
