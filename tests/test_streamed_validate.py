"""validate reading each song through the block decoder.

validate_song_audio checks all five WAVE headers of a song, then decodes
the mixture and its four stems together through sample_blocks. These
tests pin that path to the whole-file computation it replaced:
max_deviation bit-identical, each stem's mean power within 1e-12 relative
of math.fsum, every fault ending in an `error:` line, a working set that
does not grow with the song, and `validate` stdout byte-identical to output
recorded before validate decoded in blocks.
"""

import dataclasses
import json
import math
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from demixeval import audio_io
from demixeval.audio_io import (
    _BLOCK_FRAMES,
    SongEntry,
    StemKind,
    Waveform,
    load_manifest,
    read_wav,
    validate_song_audio,
    write_wav,
)
from demixeval.cli import run
from demixeval.errors import AudioFormatError, CorruptFileError
from demixeval.synth import make_dataset

from helpers import write_encoded_wav

RATE = 8000
FRAME_COUNTS = (0, 1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 3 * _BLOCK_FRAMES + 1234)
# stem: (encoding, extensible)
ENCODINGS = {
    StemKind.BASS: ("pcm16", False),
    StemKind.DRUMS: ("pcm24", False),
    StemKind.OTHER: ("float32", False),
    StemKind.VOCALS: ("float32", True),
}


def _song(tmp_path, channels, frames, mixture_frames=None, seed=0):
    """A song with random stems in ENCODINGS and a float32 mixture near their sum.

    Vocals sit 200 dB under the other stems: adding them rounds, so the
    order of the stem sum shows in max_deviation's bits. mixture_frames
    shortens the mixture.
    """
    rng = np.random.default_rng([seed, channels, frames])
    song_dir = tmp_path / "song"
    song_dir.mkdir(exist_ok=True)
    total = np.zeros((frames, channels))
    levels = (0.2, 0.05, 0.2, 1e-10)
    for level, (kind, (codec, extensible)) in zip(levels, ENCODINGS.items()):
        values = np.clip(level * rng.standard_normal((frames, channels)), -1, 0.99)
        write_encoded_wav(song_dir / f"{kind.value}.wav", codec, values, extensible=extensible)
        total += values
    mixture = total + 1e-4 * rng.standard_normal((frames, channels))
    write_encoded_wav(song_dir / "mixture.wav", "float32", mixture[:mixture_frames])
    return SongEntry(
        song_id="s",
        stem_paths={kind: song_dir / f"{kind.value}.wav" for kind in StemKind},
        mixture_path=song_dir / "mixture.wav",
    )


def _whole_file(entry):
    """max_deviation (None for a short mixture) and each stem's math.fsum mean
    power, from whole decoded files."""
    mixture = read_wav(entry.mixture_path).samples
    stems = {kind: read_wav(entry.stem_paths[kind]).samples for kind in StemKind}
    deviation = None
    if all(samples.shape == mixture.shape for samples in stems.values()):
        total = np.zeros_like(mixture)
        for kind in StemKind:
            total = total + stems[kind]
        deviation = float(np.max(np.abs(mixture - total))) if mixture.size else 0.0
    powers = {
        kind: math.fsum((samples * samples).ravel().tolist()) / samples.size
        for kind, samples in stems.items()
        if samples.size
    }
    return deviation, powers


class TestExactness:
    @pytest.mark.parametrize("frames", FRAME_COUNTS)
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_max_deviation_bit_identical(self, tmp_path, channels, frames):
        entry = _song(tmp_path, channels, frames)
        deviation, _ = _whole_file(entry)
        report = validate_song_audio(entry)
        assert report.issues == ()
        assert report.max_deviation.hex() == deviation.hex()
        if frames:
            assert report.max_deviation > 0

    @pytest.mark.parametrize("frames", FRAME_COUNTS[1:])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_mean_power_within_tolerance_of_fsum(self, tmp_path, monkeypatch, channels, frames):
        # A stem declared silent warns exactly when its mean power exceeds the
        # floor, so floors 1e-12 relative either side of the fsum value bracket
        # the power validate computes. The short mixture takes the path that
        # decodes each file alone.
        for mixture_frames in (frames, frames - 1):
            entry = _song(tmp_path, channels, frames, mixture_frames)
            _, powers = _whole_file(entry)
            for kind, power in powers.items():
                declared = dataclasses.replace(entry, silent_stems=frozenset({kind}))
                prefix = f"stem {kind} declared silent"
                monkeypatch.setattr(audio_io, "SILENCE_WARNING_FLOOR", power * (1 - 1e-12))
                assert [w for w in validate_song_audio(declared).warnings if w.startswith(prefix)]
                monkeypatch.setattr(audio_io, "SILENCE_WARNING_FLOOR", power * (1 + 1e-12))
                assert not [w for w in validate_song_audio(declared).warnings if w.startswith(prefix)]


def _poison_first_sample(path):
    """Overwrite the first float32 sample of a WAVE file with NaN."""
    raw = bytearray(path.read_bytes())
    start = raw.index(b"data") + 8
    raw[start : start + 4] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))


class TestErrorOrder:
    """Every header is checked before any sample is decoded."""

    def test_broken_header_wins_over_nan_in_mixture(self, tmp_path):
        entry = _song(tmp_path, 2, _BLOCK_FRAMES + 1)
        _poison_first_sample(entry.mixture_path)
        entry.stem_paths[StemKind.VOCALS].write_bytes(b"OggS" + bytes(40))
        with pytest.raises(AudioFormatError) as excinfo:
            validate_song_audio(entry)
        assert str(excinfo.value) == f"{entry.stem_paths[StemKind.VOCALS]}: not a RIFF/WAVE file"

    def test_nan_in_mixture_raises_when_layouts_disagree(self, tmp_path):
        entry = _song(tmp_path, 2, _BLOCK_FRAMES + 1, mixture_frames=_BLOCK_FRAMES)
        _poison_first_sample(entry.mixture_path)
        with pytest.raises(CorruptFileError) as excinfo:
            validate_song_audio(entry)
        assert str(excinfo.value) == f"{entry.mixture_path}: float data contains NaN or Inf"

    def test_nan_raised_at_the_block_that_holds_it(self, tmp_path):
        # other's NaN sits in block 0, the mixture's in the last block
        entry = _song(tmp_path, 2, 3 * _BLOCK_FRAMES + 1234)
        raw = bytearray(entry.mixture_path.read_bytes())
        raw[-4:] = struct.pack("<f", float("inf"))
        entry.mixture_path.write_bytes(bytes(raw))
        _poison_first_sample(entry.stem_paths[StemKind.OTHER])
        with pytest.raises(CorruptFileError) as excinfo:
            validate_song_audio(entry)
        assert str(excinfo.value) == f"{entry.stem_paths[StemKind.OTHER]}: float data contains NaN or Inf"


class TestWorkingSet:
    # read and decode buffers for one block of each of the five files, plus
    # the block sum and its temporaries: 11 MB measured for stereo
    PEAK_BOUND = 16_000_000

    def _peak(self, tmp_path, seconds):
        frames = seconds * 44100
        rng = np.random.default_rng(seconds)
        stem = Waveform(0.1 * rng.standard_normal((2, frames)), 44100)
        stem_path, mixture_path = tmp_path / f"stem{seconds}.wav", tmp_path / f"mix{seconds}.wav"
        write_wav(stem, stem_path)
        # four float32 copies of the stem sum to exactly four times it
        write_wav(Waveform(4 * stem.samples, 44100), mixture_path)
        del stem
        entry = SongEntry(
            song_id="s",
            stem_paths={kind: stem_path for kind in StemKind},
            mixture_path=mixture_path,
        )
        tracemalloc.start()
        try:
            report = validate_song_audio(entry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stem_path.unlink()
        mixture_path.unlink()
        assert report.passed and report.max_deviation == 0.0
        return peak

    def test_peak_bounded_and_flat_in_song_length(self, tmp_path):
        short = self._peak(tmp_path, 20)
        long = self._peak(tmp_path, 60)
        # one decoded 60-s stereo file alone is 42 MB
        assert long < self.PEAK_BOUND
        assert long - short < 64 * 1024


# ---------------------------------------------------------------------------
# `validate` on a synth dataset, against output recorded before block decoding

def _synth_dataset(root):
    """A 5-song 17-s 8 kHz synth dataset holding the faults validate reports.

    Stems are re-encoded per ENCODINGS; every file spans three blocks.
    syn_000 is clean. syn_001's silent bass is not declared silent, and
    syn_002 declares its loud vocals silent. syn_003 has drums 1000 frames
    short, vocals at 16 kHz and a loud other declared silent, so its FAIL row
    still carries a warning. syn_004's mixture is 2e-3 off in its last block.
    """
    manifest_path = make_dataset(
        root, n_songs=5, duration=17, sample_rate=RATE, seed=3, silent_bass_indices=(1,)
    )
    for entry in load_manifest(manifest_path).songs:
        for kind, (codec, extensible) in ENCODINGS.items():
            values = read_wav(entry.stem_paths[kind]).samples.T
            rate = RATE
            if entry.song_id == "syn_003" and kind is StemKind.DRUMS:
                values = values[:-1000]
            if entry.song_id == "syn_003" and kind is StemKind.VOCALS:
                rate = 16000
            write_encoded_wav(entry.stem_paths[kind], codec, values, rate, extensible)
        if entry.song_id == "syn_004":
            mixture = read_wav(entry.mixture_path)
            samples = mixture.samples.copy()
            samples[1, -77] += 2e-3
            write_wav(Waveform(samples, RATE), entry.mixture_path)
    doc = json.loads(manifest_path.read_text())
    silent = {"syn_001": [], "syn_002": ["vocals"], "syn_003": ["other"]}
    for record in doc["songs"]:
        record["silent_stems"] = silent.get(record["song_id"], record["silent_stems"])
    manifest_path.write_text(json.dumps(doc, indent=2) + "\n")
    return manifest_path


# `validate` stdout without the line naming the manifest path, recorded
# before validate decoded in blocks
RECORDED_STDOUT = """\
# command = validate
# tolerance = 0.001
song_id,status,max_deviation,issues,warnings
syn_000,PASS,1.53254e-05,"",""
syn_001,PASS,9.72068e-08,"","stem bass appears silent but is not declared silent"
syn_002,PASS,1.53203e-05,"","stem vocals declared silent but has mean power 0.0032"
syn_003,FAIL,nan,"stem drums has 135000 frames, mixture has 136000;stem vocals is at 16000 Hz, mixture at 8000 Hz","stem other declared silent but has mean power 0.0032"
syn_004,FAIL,0.00199991,"mixture deviates from stem sum by 0.00199991 (tolerance 0.001)",""
"""


@pytest.fixture(scope="module")
def synth_dataset(tmp_path_factory):
    return _synth_dataset(tmp_path_factory.mktemp("streamed_validate"))


def _validate(manifest_path, capsys):
    code = run(["validate", "--manifest", str(manifest_path)])
    captured = capsys.readouterr()
    kept = "".join(
        line for line in captured.out.splitlines(True) if not line.startswith("# manifest = ")
    )
    return code, kept, captured.err


def test_validate_output_matches_recorded(synth_dataset, capsys):
    code, stdout, err = _validate(synth_dataset, capsys)
    assert (code, err) == (1, "")
    assert stdout == RECORDED_STDOUT


# ---------------------------------------------------------------------------
# faults through the CLI: an `error:` line, exit 1, no traceback

@pytest.fixture
def broken_copy(synth_dataset, tmp_path):
    dataset = tmp_path / "dataset"
    shutil.copytree(synth_dataset.parent, dataset)
    return dataset / "manifest.json"


def _cli_error(manifest_path, capsys):
    code, _, err = _validate(manifest_path, capsys)
    assert code == 1
    assert "Traceback" not in err
    return err


def test_cli_nan_in_last_block(broken_copy, capsys):
    victim = broken_copy.parent / "syn_002" / "vocals.wav"
    raw = bytearray(victim.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    victim.write_bytes(bytes(raw))
    assert _cli_error(broken_copy, capsys) == f"error: {victim}: float data contains NaN or Inf\n"


def test_cli_broken_stem_header(broken_copy, capsys):
    victim = broken_copy.parent / "syn_000" / "drums.wav"
    victim.write_bytes(b"OggS" + bytes(40))
    assert _cli_error(broken_copy, capsys) == f"error: {victim}: not a RIFF/WAVE file\n"


def test_cli_truncated_data_chunk(broken_copy, capsys):
    victim = broken_copy.parent / "syn_001" / "other.wav"
    raw = victim.read_bytes()
    victim.write_bytes(raw[: len(raw) // 2])
    size = len(raw) - raw.index(b"data") - 8
    assert _cli_error(broken_copy, capsys) == (
        f"error: {victim}: data chunk declares {size} bytes but the file ends early\n"
    )
