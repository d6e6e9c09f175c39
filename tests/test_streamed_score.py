"""Scoring straight from WAVE files, one block at a time.

score_song reads the reference and estimate files block by block, checks
each block, and decodes it one channel at a time into the two rows the SDR
energy reduction builds its sums in. These tests
pin that path to the in-memory one: every score bit-identical to
global_sdr(read_wav(r), read_wav(e)), the same errors, a working set that
does not grow with the song, and `score` output byte-identical to values
recorded before the streaming path existed.
"""

import hashlib
import json
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from demixeval.audio_io import SongEntry, StemKind, Waveform, load_manifest, read_wav, read_wav_header, write_wav
from demixeval.cli import run
from demixeval.errors import AudioFormatError, CorruptFileError, InvalidInputError
from demixeval.harness import score_song
from demixeval.metrics import _ENERGY_BLOCK, _energies, global_sdr, metric_suite, streamed_sdr
from demixeval.synth import make_dataset

from helpers import add_partial_frame, sdr_energies_reference, write_encoded_wav, write_float32_wav

RATE = 8000
CODECS = ("pcm16", "pcm24", "float32")
FRAME_COUNTS = (0, 1, _ENERGY_BLOCK - 1, _ENERGY_BLOCK, _ENERGY_BLOCK + 1, 3 * _ENERGY_BLOCK + 1234)
LIST_CHUNK = b"LIST" + struct.pack("<I", 4) + b"INFO"


def _pair(tmp_path, codec, channels, frames, extensible=False, trailer=b"", seed=0):
    """A float32 reference file and an estimate file of it in `codec`."""
    rng = np.random.default_rng([seed, channels, frames])
    reference = 0.3 * rng.standard_normal((frames, channels))
    estimate = np.clip(0.8 * reference + 0.05 * rng.standard_normal((frames, channels)), -1, 0.99)
    ref_path, est_path = tmp_path / "ref.wav", tmp_path / f"est_{codec}.wav"
    write_encoded_wav(ref_path, "float32", reference)
    write_encoded_wav(est_path, codec, estimate, extensible=extensible, trailer=trailer)
    return ref_path, est_path


def _entry(reference_path, song_id="s"):
    """A song whose four reference stems are all the same file."""
    return SongEntry(
        song_id=song_id,
        stem_paths={kind: reference_path for kind in StemKind},
        mixture_path=reference_path,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("frames", FRAME_COUNTS)
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("extensible", [False, True])
    @pytest.mark.parametrize("codec", CODECS)
    def test_streamed_equals_in_memory(self, tmp_path, codec, extensible, channels, frames):
        ref_path, est_path = _pair(tmp_path, codec, channels, frames, extensible)
        reference, estimate = read_wav(ref_path), read_wav(est_path)
        entry = _entry(ref_path)
        from_paths = {kind: est_path for kind in StemKind}
        from_waveforms = {kind: estimate for kind in StemKind}
        if frames == 0:
            with pytest.raises(InvalidInputError, match="^empty waveforms cannot be scored$"):
                global_sdr(reference, estimate)
            for estimates in (from_paths, from_waveforms):
                with pytest.raises(
                    InvalidInputError, match="^song s, stem bass: empty waveforms cannot be scored$"
                ):
                    score_song(entry, estimates)
            return
        expected = global_sdr(reference, estimate).hex()
        for estimates in (from_paths, from_waveforms):
            score = score_song(entry, estimates)
            assert [score.per_stem[kind].hex() for kind in StemKind] == [expected] * 4

    @pytest.mark.parametrize("codec", CODECS)
    def test_trailing_chunk_after_data(self, tmp_path, codec):
        # an odd PCM24 mono payload also carries a pad byte before the chunk
        ref_path, est_path = _pair(tmp_path, codec, 1, _ENERGY_BLOCK + 1, trailer=LIST_CHUNK)
        expected = global_sdr(read_wav(ref_path), read_wav(est_path)).hex()
        score = score_song(_entry(ref_path), {kind: est_path for kind in StemKind})
        assert score.per_stem[StemKind.VOCALS].hex() == expected

    def test_mixed_sources_and_silent_stem(self, tmp_path):
        ref_path, est_path = _pair(tmp_path, "pcm16", 2, 2 * _ENERGY_BLOCK + 7)
        silent = tmp_path / "silent.wav"
        write_encoded_wav(silent, "float32", np.zeros((2 * _ENERGY_BLOCK + 7, 2)))
        entry = SongEntry(
            song_id="s",
            stem_paths={**{kind: ref_path for kind in StemKind}, StemKind.BASS: silent},
            mixture_path=ref_path,
            silent_stems=frozenset({StemKind.BASS}),
        )
        estimate = read_wav(est_path)
        estimates = {StemKind.BASS: est_path, StemKind.DRUMS: str(est_path),
                     StemKind.OTHER: estimate, StemKind.VOCALS: est_path}
        score = score_song(entry, estimates)
        expected = global_sdr(read_wav(ref_path), estimate)
        assert score.per_stem[StemKind.BASS] == global_sdr(read_wav(silent), estimate)
        for kind in (StemKind.DRUMS, StemKind.OTHER, StemKind.VOCALS):
            assert score.per_stem[kind].hex() == expected.hex()
        assert score.excluded_stems == {StemKind.BASS}
        assert score.sdr_song == (expected + expected + expected) / 3


class TestKernelBits:
    """The SDR energies from _walk equal the per-block loop the kernel was, bit for bit."""

    @pytest.mark.parametrize("frames", FRAME_COUNTS)
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("codec", CODECS)
    def test_energies_equal_block_loop(self, tmp_path, codec, channels, frames):
        ref_path, est_path = _pair(tmp_path, codec, channels, frames)
        reference, estimate = read_wav(ref_path), read_wav(est_path)
        expected = sdr_energies_reference(reference.samples, estimate.samples)
        assert _energies(reference, estimate) == expected
        assert _energies(read_wav_header(ref_path), read_wav_header(est_path)) == expected


class TestErrors:
    """Each error keeps the class and message read_wav and global_sdr give."""

    def _read_error(self, path):
        with pytest.raises(CorruptFileError) as excinfo:
            read_wav(path)
        return str(excinfo.value)

    def test_nan_in_last_block(self, tmp_path):
        frames = 3 * _ENERGY_BLOCK + 1234
        ref_path, est_path = _pair(tmp_path, "float32", 2, frames)
        raw = bytearray(est_path.read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))  # last sample of the last frame
        est_path.write_bytes(bytes(raw))
        message = self._read_error(est_path)
        assert message == f"{est_path}: float data contains NaN or Inf"
        with pytest.raises(CorruptFileError) as excinfo:
            score_song(_entry(ref_path), {kind: est_path for kind in StemKind})
        assert str(excinfo.value) == message

    def _poke_nan(self, path, frame, channel, channels):
        """Overwrite one float32 sample of a file with NaN."""
        raw = bytearray(path.read_bytes())
        at = read_wav_header(path).data_offset + 4 * (frame * channels + channel)
        raw[at : at + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))

    def test_reference_block_checked_before_estimate_block(self, tmp_path):
        # NaN in the reference's channel 1 and the estimate's channel 0 of the
        # same block: each whole block is checked, the reference's first,
        # before any channel is decoded, so the reference's message wins
        ref_path, est_path = _pair(tmp_path, "float32", 2, 3 * _ENERGY_BLOCK + 1234)
        self._poke_nan(ref_path, _ENERGY_BLOCK + 5, 1, 2)
        self._poke_nan(est_path, _ENERGY_BLOCK + 5, 0, 2)
        expected = f"{ref_path}: float data contains NaN or Inf"
        headers = read_wav_header(ref_path), read_wav_header(est_path)
        for call in (streamed_sdr, metric_suite):
            with pytest.raises(CorruptFileError) as excinfo:
                call(*headers)
            assert str(excinfo.value) == expected
        with pytest.raises(CorruptFileError) as excinfo:
            score_song(_entry(ref_path), {kind: est_path for kind in StemKind})
        assert str(excinfo.value) == expected

    @pytest.mark.parametrize("nan_block, culprit", [(0, "estimate"), (3, "reference")])
    def test_truncated_reference_with_nan_estimate(self, tmp_path, nan_block, culprit):
        # the reference shrinks after its header was read, so its last block
        # comes up short; a NaN the estimate holds in an earlier block wins
        frames = 3 * _ENERGY_BLOCK + 1234
        ref_path, est_path = _pair(tmp_path, "float32", 2, frames)
        self._poke_nan(est_path, nan_block * _ENERGY_BLOCK, 0, 2)
        headers = read_wav_header(ref_path), read_wav_header(est_path)
        ref_path.write_bytes(ref_path.read_bytes()[:-37])
        expected = {
            "estimate": f"{est_path}: float data contains NaN or Inf",
            "reference": f"{ref_path}: data chunk declares {frames * 2 * 4} bytes but the file ends early",
        }[culprit]
        for call in (streamed_sdr, metric_suite):
            with pytest.raises(CorruptFileError) as excinfo:
                call(*headers)
            assert str(excinfo.value) == expected

    def test_truncated_data_chunk(self, tmp_path):
        ref_path, est_path = _pair(tmp_path, "pcm24", 2, _ENERGY_BLOCK + 1)
        est_path.write_bytes(est_path.read_bytes()[:-37])
        message = self._read_error(est_path)
        assert message.endswith("but the file ends early")
        with pytest.raises(CorruptFileError) as excinfo:
            score_song(_entry(ref_path), {kind: est_path for kind in StemKind})
        assert str(excinfo.value) == message

    def test_partial_frame(self, tmp_path):
        ref_path, est_path = _pair(tmp_path, "float32", 2, 100)
        add_partial_frame(est_path)
        message = self._read_error(est_path)
        assert message == f"{est_path}: data chunk holds a partial frame"
        with pytest.raises(CorruptFileError) as excinfo:
            score_song(_entry(ref_path), {kind: est_path for kind in StemKind})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "channels, frames, rate, detail",
        [
            (2, 99, RATE, "shape mismatch: reference (2, 100) vs estimate (2, 99)"),
            (1, 100, RATE, "shape mismatch: reference (2, 100) vs estimate (1, 100)"),
            (2, 100, 16000, "sample rate mismatch: 8000 vs 16000"),
        ],
    )
    def test_mismatch_names_song_and_stem(self, tmp_path, channels, frames, rate, detail):
        ref_path, _ = _pair(tmp_path, "float32", 2, 100)
        wrong = tmp_path / "wrong.wav"
        write_encoded_wav(wrong, "pcm16", np.zeros((frames, channels)), rate=rate)
        with pytest.raises(InvalidInputError) as in_memory:
            global_sdr(read_wav(ref_path), read_wav(wrong))
        assert str(in_memory.value) == detail
        estimates = {kind: ref_path for kind in StemKind}
        estimates[StemKind.OTHER] = wrong
        with pytest.raises(InvalidInputError) as excinfo:
            score_song(_entry(ref_path, "song_7"), estimates)
        assert str(excinfo.value) == f"song song_7, stem other: {detail}"


    def test_estimate_headers_checked_before_any_stem(self, tmp_path):
        # a broken vocals file wins over a short bass estimate, as it did
        # when every estimate was decoded before scoring began
        ref_path, est_path = _pair(tmp_path, "float32", 2, 100)
        short, broken = tmp_path / "short.wav", tmp_path / "broken.wav"
        write_encoded_wav(short, "float32", np.zeros((99, 2)))
        broken.write_bytes(b"OggS" + bytes(40))
        estimates = {kind: est_path for kind in StemKind}
        estimates[StemKind.BASS] = short
        estimates[StemKind.VOCALS] = broken
        with pytest.raises(AudioFormatError, match="not a RIFF/WAVE file"):
            score_song(_entry(ref_path), estimates)


class TestWaveformInputs:
    """In-memory Waveforms, whose samples are read-only, are copied into the rows the walk overwrites."""

    @pytest.mark.parametrize("codec", CODECS)
    def test_read_only_samples_untouched_and_bits_match_files(self, tmp_path, codec):
        ref_path, est_path = _pair(tmp_path, codec, 2, 2 * _ENERGY_BLOCK + 7)
        reference, estimate = read_wav(ref_path), read_wav(est_path)
        assert not reference.samples.flags.writeable and not estimate.samples.flags.writeable
        before = [hashlib.sha256(w.samples.tobytes()).hexdigest() for w in (reference, estimate)]
        headers = read_wav_header(ref_path), read_wav_header(est_path)
        for sources in ((reference, estimate), (reference, headers[1]), (headers[0], estimate)):
            assert global_sdr(*sources).hex() == global_sdr(*headers).hex()
            suite = {key: value.hex() for key, value in metric_suite(*sources).items()}
            assert suite == {key: value.hex() for key, value in metric_suite(*headers).items()}
        assert [hashlib.sha256(w.samples.tobytes()).hexdigest() for w in (reference, estimate)] == before


class TestWorkingSet:
    # a raw read buffer for one block of each file, the two decoded rows and
    # the float32 check: 2.25 MB measured for stereo. A (channels, block)
    # float64 buffer per file, 3.8 MB in all, fails it.
    PEAK_BOUND = 3_000_000

    def _peak(self, tmp_path, seconds):
        frames = seconds * 44100
        rng = np.random.default_rng(seconds)
        reference = Waveform(0.1 * rng.standard_normal((2, frames)), 44100)
        ref_path, est_path = tmp_path / f"ref{seconds}.wav", tmp_path / f"est{seconds}.wav"
        write_wav(reference, ref_path)
        write_wav(Waveform(0.9 * reference.samples, 44100), est_path)
        del reference
        entry = _entry(ref_path)
        estimates = {kind: est_path for kind in StemKind}
        tracemalloc.start()
        try:
            score_song(entry, estimates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref_path.unlink()
        est_path.unlink()
        return peak

    def test_peak_bounded_and_flat_in_song_length(self, tmp_path):
        short = self._peak(tmp_path, 20)
        long = self._peak(tmp_path, 60)
        # one decoded 60-s stereo stem alone is 42 MB
        assert long < self.PEAK_BOUND
        assert long - short < 64 * 1024


# ---------------------------------------------------------------------------
# `score` on a synth submission, against output recorded before streaming

def _synth_submission(root):
    """A 3-song 17-s 8 kHz synth dataset (plus a demo song) and a submission for it.

    Each estimate leaks a different share of the mixture into its stem; bass
    and vocals are float32 (vocals as WAVE_FORMAT_EXTENSIBLE), drums PCM16 and
    other PCM24. Every stem spans three blocks of the energy reduction.
    """
    manifest_path = make_dataset(
        root / "dataset", n_songs=4, duration=17, sample_rate=RATE, seed=5, demo_song_indices=(3,)
    )
    # stem: (encoding, extensible, share of the mixture)
    encodings = {StemKind.BASS: ("float32", False, 0.05), StemKind.DRUMS: ("pcm16", False, 0.1),
                 StemKind.OTHER: ("pcm24", False, 0.2), StemKind.VOCALS: ("float32", True, 0.4)}
    for entry in load_manifest(manifest_path).eligible_songs():
        mixture = read_wav(entry.mixture_path).samples
        song_dir = root / "submission" / entry.song_id
        song_dir.mkdir(parents=True)
        for kind, (codec, extensible, leak) in encodings.items():
            stem = read_wav(entry.stem_paths[kind]).samples
            estimate = (1 - leak) * stem + leak * mixture
            write_encoded_wav(song_dir / f"{kind.value}.wav", codec, estimate.T, extensible=extensible)
    return manifest_path, root / "submission"


# `score --seed 4` stdout without the lines naming paths and jobs, and the
# sha256 of its --out JSON, both recorded before scoring streamed from files
RECORDED_STDOUT = """\
# command = score
# system = synth
# leaderboard = B
# training_data = none
# rounds = 1,2,3
# seed = 4
# epsilon = 1e-07
system_id,song_id,sdr_bass,sdr_drums,sdr_other,sdr_vocals,sdr_song,excluded_stems,excluded_song
synth,syn_000,21.249,15.2096,9.20977,3.2143,12.2207,,
synth,syn_001,21.2548,15.2312,9.19565,3.19545,12.2193,,
synth,syn_002,21.2467,15.2283,9.18273,3.16306,12.2052,,
"""
RECORDED_JSON_SHA256 = "cd0cfd02d777c23cd8c6fad2500f8177a89257418f8fca82f45d3ee5f03de346"


@pytest.fixture(scope="module")
def synth_submission(tmp_path_factory):
    return _synth_submission(tmp_path_factory.mktemp("streamed"))


def _score(manifest_path, submission, out, jobs, capsys):
    args = ["score", "--manifest", str(manifest_path), "--estimates", str(submission),
            "--system", "synth", "--leaderboard", "B", "--training-data", "none",
            "--seed", "4", "--jobs", str(jobs), "--out", str(out)]
    assert run(args) == 0
    stdout = capsys.readouterr().out
    varying = ("# manifest = ", "# estimates = ", "# out = ", "# jobs = ")
    kept = "".join(line for line in stdout.splitlines(True) if not line.startswith(varying))
    return kept, out.with_suffix(".json").read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_score_output_matches_recorded(synth_submission, tmp_path, capsys, jobs):
    stdout, document = _score(*synth_submission, tmp_path / "scores", jobs, capsys)
    assert stdout == RECORDED_STDOUT
    assert hashlib.sha256(document).hexdigest() == RECORDED_JSON_SHA256
    assert json.loads(document)["system_id"] == "synth"


# ---------------------------------------------------------------------------
# the same faults through the CLI: an `error:` line, exit 1, no traceback

@pytest.fixture
def broken_copy(synth_submission, tmp_path):
    manifest_path, submission = synth_submission
    dataset = tmp_path / "dataset"
    shutil.copytree(manifest_path.parent, dataset)
    estimates = tmp_path / "submission"
    shutil.copytree(submission, estimates)
    return dataset / "manifest.json", estimates


def _cli_error(manifest_path, estimates, capsys):
    args = ["score", "--manifest", str(manifest_path), "--estimates", str(estimates),
            "--system", "synth", "--leaderboard", "B", "--jobs", "1"]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: submission synth: 1 song(s) failed:\n")
    assert "Traceback" not in err
    return err


def test_cli_nan_in_last_block(broken_copy, capsys):
    manifest_path, estimates = broken_copy
    victim = estimates / "syn_001" / "vocals.wav"
    raw = bytearray(victim.read_bytes())
    raw[-4:] = struct.pack("<f", float("inf"))
    victim.write_bytes(bytes(raw))
    err = _cli_error(manifest_path, estimates, capsys)
    assert f"syn_001: CorruptFileError: {victim}: float data contains NaN or Inf\n" in err


def test_cli_truncated_data_chunk(broken_copy, capsys):
    manifest_path, estimates = broken_copy
    victim = estimates / "syn_000" / "other.wav"
    raw = victim.read_bytes()
    victim.write_bytes(raw[: len(raw) // 2])
    err = _cli_error(manifest_path, estimates, capsys)
    size = len(raw) - raw.index(b"data") - 8
    assert (
        f"syn_000: CorruptFileError: {victim}: data chunk declares {size} bytes "
        "but the file ends early\n"
    ) in err


def test_cli_partial_frame(broken_copy, capsys):
    manifest_path, estimates = broken_copy
    victim = estimates / "syn_002" / "drums.wav"
    add_partial_frame(victim)
    err = _cli_error(manifest_path, estimates, capsys)
    assert f"syn_002: CorruptFileError: {victim}: data chunk holds a partial frame\n" in err


def test_cli_length_mismatch(broken_copy, capsys):
    manifest_path, estimates = broken_copy
    victim = estimates / "syn_001" / "bass.wav"
    short = read_wav(victim)
    write_wav(Waveform(short.samples[:, :-5], short.sample_rate), victim)
    err = _cli_error(manifest_path, estimates, capsys)
    frames = short.num_frames
    assert (
        f"syn_001: InvalidInputError: song syn_001, stem bass: shape mismatch: "
        f"reference (2, {frames}) vs estimate (2, {frames - 5})\n"
    ) in err


def test_cli_zero_frames(broken_copy, capsys):
    manifest_path, estimates = broken_copy
    empty = np.zeros((0, 2), dtype=np.float32)
    write_float32_wav(manifest_path.parent / "syn_000" / "drums.wav", empty, RATE)
    write_float32_wav(estimates / "syn_000" / "drums.wav", empty, RATE)
    err = _cli_error(manifest_path, estimates, capsys)
    assert (
        "syn_000: InvalidInputError: song syn_000, stem drums: "
        "empty waveforms cannot be scored\n"
    ) in err
