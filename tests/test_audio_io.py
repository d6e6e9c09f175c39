import dataclasses
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demixeval.audio_io import (
    DatasetManifest,
    SongEntry,
    StemKind,
    ValidationReport,
    Waveform,
    load_manifest,
    read_wav,
    read_wav_header,
    sample_blocks,
    validate_song_audio,
    write_wav,
)
from demixeval.errors import (
    AudioFormatError,
    CorruptFileError,
    DemixEvalError,
    InvalidInputError,
    ManifestError,
    UnsupportedCodecError,
    context,
)

from helpers import decode_wav_reference, pcm24_bytes_loop, write_float32_wav, write_pcm_wav


class TestWaveform:
    def test_basic_properties(self):
        w = Waveform(np.zeros((2, 100)), 44100)
        assert w.num_channels == 2
        assert w.num_frames == 100

    def test_rejects_nan(self):
        samples = np.zeros((1, 10))
        samples[0, 3] = np.nan
        with pytest.raises(InvalidInputError):
            Waveform(samples, 8000)

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidInputError):
            Waveform(np.zeros(10), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidInputError):
            Waveform(np.zeros((1, 10)), 0)
        with pytest.raises(InvalidInputError):
            Waveform(np.zeros((1, 10)), 44100.0)

    def test_samples_are_read_only(self):
        w = Waveform(np.zeros((1, 10)), 8000)
        with pytest.raises(ValueError):
            w.samples[0, 0] = 1.0


class TestReadWav:
    def test_zero_float32_file(self, tmp_path):
        path = tmp_path / "zeros.wav"
        write_float32_wav(path, np.zeros((44100, 2), dtype=np.float32), 44100)
        w = read_wav(path)
        assert w.num_channels == 2
        assert w.num_frames == 44100
        assert w.sample_rate == 44100
        assert np.all(w.samples == 0.0)

    def test_pcm16_full_scale_convention(self, tmp_path):
        path = tmp_path / "one.wav"
        write_pcm_wav(path, np.array([[32767]], dtype=np.int64), 16, 44100)
        w = read_wav(path)
        assert w.samples[0, 0] == 32767 / 32768
        write_pcm_wav(path, np.array([[-32768]], dtype=np.int64), 16, 44100)
        assert read_wav(path).samples[0, 0] == -1.0

    def test_pcm24_scaling(self, tmp_path):
        path = tmp_path / "p24.wav"
        values = np.array([[8388607], [-8388608], [0], [-1]], dtype=np.int64)
        write_pcm_wav(path, values, 24, 48000)
        w = read_wav(path)
        expected = values[:, 0] / 8388608.0
        assert np.array_equal(w.samples[0], expected)

    def test_pcm16_stereo_interleaving(self, tmp_path, rng):
        path = tmp_path / "st.wav"
        ints = rng.integers(-32768, 32768, size=(50, 2))
        write_pcm_wav(path, ints, 16, 22050)
        w = read_wav(path)
        assert w.num_channels == 2
        assert np.array_equal(w.samples, ints.T / 32768.0)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(AudioFormatError):
            read_wav(path)

    def test_missing_fmt(self, tmp_path):
        path = tmp_path / "nofmt.wav"
        payload = b"data" + struct.pack("<I", 4) + b"\x00" * 4
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(payload)) + b"WAVE" + payload)
        with pytest.raises(AudioFormatError):
            read_wav(path)

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "ulaw.wav"
        fmt = struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8)
        payload = (
            b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 2) + b"\x00\x00"
        )
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(payload)) + b"WAVE" + payload)
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "trunc.wav"
        write_float32_wav(path, np.ones((100, 1), dtype=np.float32), 8000)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 37])
        with pytest.raises(CorruptFileError):
            read_wav(path)

    def test_partial_frame(self, tmp_path):
        path = tmp_path / "partial.wav"
        fmt = struct.pack("<HHIIHH", 3, 2, 8000, 8000 * 8, 8, 32)
        body = b"\x00" * 12  # 1.5 stereo float frames
        payload = (
            b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(body)) + body
        )
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(payload)) + b"WAVE" + payload)
        with pytest.raises(CorruptFileError):
            read_wav(path)

    def test_float_nan_payload(self, tmp_path):
        path = tmp_path / "nan.wav"
        data = np.full((4, 1), np.nan, dtype=np.float32)
        write_float32_wav(path, data, 8000)
        with pytest.raises(CorruptFileError):
            read_wav(path)


class TestDecoderOracle:
    """read_wav against the sample-by-sample reference decoder in helpers."""

    LIST_CHUNK = b"LIST" + struct.pack("<I", 4) + b"INFO"

    @settings(max_examples=80, deadline=None)
    @given(
        codec=st.sampled_from(["pcm16", "pcm24", "float32"]),
        channels=st.integers(1, 3),
        frames=st.integers(1, 40),
        trailing_chunk=st.booleans(),
        extensible=st.booleans(),
        data=st.data(),
    )
    def test_bit_identical_to_reference(
        self, wav_dir, codec, channels, frames, trailing_chunk, extensible, data
    ):
        # odd PCM24 sizes get a pad byte; without a trailing chunk the data
        # chunk (or its pad byte) ends the file
        path = wav_dir / "oracle.wav"
        trailer = self.LIST_CHUNK if trailing_chunk else b""
        shape = (frames, channels)
        if codec == "float32":
            finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
            values = data.draw(hnp.arrays(np.float32, shape, elements=finite))
            write_float32_wav(path, values, 8000, trailer, extensible)
        else:
            bits = 16 if codec == "pcm16" else 24
            low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
            values = data.draw(
                hnp.arrays(
                    np.int64,
                    shape,
                    elements=st.sampled_from([low, high, -1, 0]) | st.integers(low, high),
                )
            )
            values[0, 0] = low  # full-scale extremes, the last sample ending the chunk
            values[-1, -1] = high
            write_pcm_wav(path, values, bits, 8000, trailer, extensible)
        decoded = read_wav(path).samples
        expected = decode_wav_reference(path)
        assert decoded.shape == (channels, frames)
        assert decoded.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "frames, channels, trailing_chunk",
        [(2, 1, False), (3, 1, False), (3, 1, True), (5, 3, False), (4, 2, True)],
    )
    def test_pcm24_chunk_edges(self, tmp_path, frames, channels, trailing_chunk):
        # odd sizes carry a pad byte; the first and last samples sit at the
        # edges of the data chunk, the last one at the end of the file when
        # nothing follows
        values = np.arange(frames * channels, dtype=np.int64).reshape(frames, channels) - 3
        values[0, 0] = -(1 << 23)
        values[-1, -1] = (1 << 23) - 1
        path = tmp_path / "edges.wav"
        write_pcm_wav(path, values, 24, 8000, self.LIST_CHUNK if trailing_chunk else b"")
        decoded = read_wav(path).samples
        assert decoded.tobytes() == decode_wav_reference(path).tobytes()
        assert np.array_equal(decoded, values.T / 2.0**23)

    @settings(max_examples=30, deadline=None)
    @given(
        channels=st.integers(1, 3),
        frames=st.integers(1, 40),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        data=st.data(),
    )
    def test_non_finite_float_payload_rejected(self, wav_dir, channels, frames, bad, data):
        values = np.zeros((frames, channels), dtype=np.float32)
        row = data.draw(st.integers(0, frames - 1))
        column = data.draw(st.integers(0, channels - 1))
        values[row, column] = bad
        path = wav_dir / "nonfinite.wav"
        write_float32_wav(path, values, 8000, self.LIST_CHUNK)
        with pytest.raises(CorruptFileError):
            read_wav(path)


class TestWavBlocks:
    """read_wav_header plus sample_blocks against read_wav."""

    LIST_CHUNK = b"LIST" + struct.pack("<I", 4) + b"INFO"

    @settings(max_examples=60, deadline=None)
    @given(
        codec=st.sampled_from(["pcm16", "pcm24", "float32"]),
        channels=st.integers(1, 3),
        frames=st.integers(0, 40),
        block_frames=st.integers(1, 16),
        trailing_chunk=st.booleans(),
        extensible=st.booleans(),
        data=st.data(),
    )
    def test_blocks_join_to_read_wav(
        self, wav_dir, codec, channels, frames, block_frames, trailing_chunk, extensible, data
    ):
        path = wav_dir / "blocks.wav"
        trailer = self.LIST_CHUNK if trailing_chunk else b""
        if codec == "float32":
            finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
            values = data.draw(hnp.arrays(np.float32, (frames, channels), elements=finite))
            write_float32_wav(path, values, 8000, trailer, extensible)
        else:
            bits = 16 if codec == "pcm16" else 24
            limit = 1 << (bits - 1)
            values = data.draw(
                hnp.arrays(np.int64, (frames, channels), elements=st.integers(-limit, limit - 1))
            )
            write_pcm_wav(path, values, bits, 8000, trailer, extensible)
        assert _block_outcome(path, block_frames) == read_wav(path).samples.tobytes()

    def test_header_fields(self, tmp_path):
        path = tmp_path / "ext.wav"
        write_pcm_wav(path, np.zeros((5, 3), dtype=np.int64), 24, 22050, extensible=True)
        header = read_wav_header(path)
        assert (header.num_channels, header.num_frames, header.sample_rate) == (3, 5, 22050)
        assert header.sample_width == 3
        raw = path.read_bytes()
        assert header.data_offset == raw.index(b"data") + 8

    def test_non_finite_raised_at_its_block(self, tmp_path):
        values = np.zeros((10, 2), dtype=np.float32)
        values[9, 1] = np.inf
        path = tmp_path / "late.wav"
        write_float32_wav(path, values, 8000)
        blocks = sample_blocks(read_wav_header(path), 4)
        assert next(blocks).shape == (2, 4)
        assert next(blocks).shape == (2, 4)
        with pytest.raises(CorruptFileError, match="NaN or Inf"):
            next(blocks)

    def test_file_shortened_after_header(self, tmp_path):
        path = tmp_path / "shrinks.wav"
        write_float32_wav(path, np.ones((10, 1), dtype=np.float32), 8000)
        header = read_wav_header(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorruptFileError, match="ends early"):
            list(sample_blocks(header, 4))


class TestExtensibleRejects:
    """WAVE_FORMAT_EXTENSIBLE is read only with a known SubFormat and all bits valid."""

    FMT = 20  # offset of the fmt chunk body in the hand-built files

    def _patched(self, tmp_path, offset, value):
        path = tmp_path / "ext.wav"
        write_pcm_wav(path, np.array([[1, -1]], dtype=np.int64), 24, 8000, extensible=True)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(value)] = value
        path.write_bytes(bytes(raw))
        return path

    def test_fewer_valid_bits_rejected(self, tmp_path):
        path = self._patched(tmp_path, self.FMT + 18, struct.pack("<H", 20))
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)

    def test_unknown_subformat_rejected(self, tmp_path):
        # ADPCM (2) under the standard GUID tail, then a foreign GUID tail
        path = self._patched(tmp_path, self.FMT + 24, struct.pack("<H", 2))
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)
        path = self._patched(tmp_path, self.FMT + 39, b"\x00")
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)

    def test_short_extensible_fmt_rejected(self, tmp_path):
        path = tmp_path / "short.wav"
        fmt = struct.pack("<HHIIHHH", 0xFFFE, 1, 8000, 16000, 2, 16, 0)
        payload = (
            b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 2) + b"\x00\x00"
        )
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(payload)) + b"WAVE" + payload)
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)


def _read_wav_outcome(path):
    """read_wav's samples as bytes, or the class and message of its package error."""
    try:
        return read_wav(path).samples.tobytes()
    except DemixEvalError as exc:
        return type(exc), str(exc)


def _block_outcome(path, block_frames):
    """The same through read_wav_header and sample_blocks, blocks joined in order."""
    try:
        header = read_wav_header(path)
        blocks = [block.copy() for block in sample_blocks(header, block_frames)]
    except DemixEvalError as exc:
        return type(exc), str(exc)
    assert all(block.shape[1] == block_frames for block in blocks[:-1])
    return np.concatenate(blocks or [np.empty((header.num_channels, 0))], axis=1).tobytes()


class TestRiffFuzz:
    """Truncated and duplicated chunks end in a package error, never another exception."""

    LIST_CHUNK = b"LIST" + struct.pack("<I", 4) + b"INFO"

    def _write(self, path, codec, extensible):
        values = np.array([[-3, 5], [7, -11], [13, 0]], dtype=np.int64)
        if codec == "float32":
            write_float32_wav(path, values / 16.0, 8000, self.LIST_CHUNK, extensible=extensible)
        else:
            bits = 16 if codec == "pcm16" else 24
            write_pcm_wav(path, values, bits, 8000, self.LIST_CHUNK, extensible=extensible)

    @pytest.mark.parametrize("extensible", [False, True])
    @pytest.mark.parametrize("codec", ["pcm16", "pcm24", "float32"])
    def test_every_prefix_decodes_or_raises_package_error(self, tmp_path, codec, extensible):
        path = tmp_path / "full.wav"
        self._write(path, codec, extensible)
        raw = path.read_bytes()
        assert read_wav(path).samples.tobytes() == decode_wav_reference(path).tobytes()
        assert _block_outcome(path, 2) == _read_wav_outcome(path)
        prefix = tmp_path / "prefix.wav"
        for end in range(len(raw)):
            prefix.write_bytes(raw[:end])
            # the block iterator decodes or fails exactly as read_wav does
            expected = _read_wav_outcome(prefix)
            for block_frames in (1, 2):
                assert _block_outcome(prefix, block_frames) == expected

    @pytest.mark.parametrize("chunk", [b"fmt ", b"data"])
    def test_second_chunk_rejected(self, tmp_path, chunk):
        path = tmp_path / "twice.wav"
        self._write(path, "pcm16", False)
        raw = path.read_bytes()
        start = raw.index(chunk)
        (size,) = struct.unpack_from("<I", raw, start + 4)
        copy = raw[start : start + 8 + size + (size & 1)]
        path.write_bytes(raw + copy)
        with pytest.raises(AudioFormatError, match="duplicate"):
            read_wav(path)


class TestWriteWav:
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_bytes_match_hand_built_file(self, tmp_path, rng, channels):
        samples = rng.uniform(-1.0, 1.0, size=(channels, 37))
        path = tmp_path / "out.wav"
        write_wav(Waveform(samples, 22050), path)
        body = samples.T.astype("<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, channels, 22050, 22050 * channels * 4, channels * 4, 32)
        payload = (
            b"fmt " + struct.pack("<I", 16) + fmt
            + b"fact" + struct.pack("<II", 4, 37)
            + b"data" + struct.pack("<I", len(body)) + body
        )
        expected = b"RIFF" + struct.pack("<I", 4 + len(payload)) + b"WAVE" + payload
        assert path.read_bytes() == expected

    def test_single_value(self, tmp_path):
        path = tmp_path / "half.wav"
        write_wav(Waveform(np.full((2, 1), 0.5), 44100), path)
        raw = path.read_bytes()
        data_at = raw.index(b"data") + 8
        values = np.frombuffer(raw[data_at : data_at + 8], dtype="<f4")
        assert np.array_equal(values, np.array([0.5, 0.5], dtype=np.float32))

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_wav(Waveform(np.zeros((2, 0)), 8000), tmp_path / "empty.wav")

    def test_unwritable_path(self, tmp_path):
        w = Waveform(np.zeros((1, 4)), 8000)
        with pytest.raises(OSError):
            write_wav(w, tmp_path / "no" / "such" / "dir.wav")

    @settings(max_examples=40, deadline=None)
    @given(
        data=hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 3), st.integers(1, 400)),
            elements=st.floats(-1.0, 1.0, width=32),
        ),
        rate=st.sampled_from([8000, 22050, 44100]),
    )
    def test_round_trip_exact(self, wav_dir, data, rate):
        path = wav_dir / "rt.wav"
        original = Waveform(data.astype(np.float64), rate)
        write_wav(original, path)
        loaded = read_wav(path)
        assert loaded.sample_rate == rate
        assert np.array_equal(loaded.samples, original.samples)

    def test_file_level_round_trip(self, tmp_path, rng):
        first = tmp_path / "a.wav"
        second = tmp_path / "b.wav"
        data = rng.standard_normal((880, 2)).astype(np.float32) * 0.5
        write_float32_wav(first, data, 44100)
        write_wav(read_wav(first), second)
        first_data = first.read_bytes()
        second_data = second.read_bytes()
        chunk = data.tobytes()
        assert chunk in first_data and chunk in second_data


def _write_manifest(tmp_path, songs, name="testset", rate=44100):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": name, "sample_rate": rate, "songs": songs}))
    return path


def _song_record(song_id, **overrides):
    record = {
        "song_id": song_id,
        "genre": "Pop",
        "language": "English",
        "title": song_id,
        "other_instruments": ["pf", "syn"],
        "mixture": f"{song_id}/mixture.wav",
        "stems": {k.value: f"{song_id}/{k.value}.wav" for k in StemKind},
        "is_demo": False,
        "silent_stems": [],
    }
    record.update(overrides)
    return record


class TestManifest:
    def test_thirty_songs_three_demos(self, tmp_path):
        songs = [
            _song_record(f"SS_{i:03d}", is_demo=(i in (8, 15, 18))) for i in range(1, 31)
        ]
        manifest = load_manifest(_write_manifest(tmp_path, songs))
        assert len(manifest.songs) == 30
        assert len(manifest.eligible_songs()) == 27
        assert [s.song_id for s in manifest.songs] == [f"SS_{i:03d}" for i in range(1, 31)]

    def test_silent_stem_annotation(self, tmp_path):
        songs = [_song_record("SS_015", silent_stems=["bass"])]
        manifest = load_manifest(_write_manifest(tmp_path, songs))
        assert manifest.songs[0].silent_stems == frozenset({StemKind.BASS})

    def test_duplicate_song_id(self, tmp_path):
        songs = [_song_record("dup"), _song_record("dup")]
        with pytest.raises(ManifestError, match="dup"):
            load_manifest(_write_manifest(tmp_path, songs))

    def test_missing_stem_names_song(self, tmp_path):
        record = _song_record("incomplete")
        del record["stems"]["drums"]
        with pytest.raises(ManifestError, match="incomplete"):
            load_manifest(_write_manifest(tmp_path, [record]))

    def test_unknown_stem_kind(self, tmp_path):
        record = _song_record("weird")
        record["stems"]["guitar"] = "weird/guitar.wav"
        with pytest.raises(ManifestError, match="guitar"):
            load_manifest(_write_manifest(tmp_path, [record]))

    @pytest.mark.parametrize(
        "song_id",
        ["", ".", "..", "a/b", "/escaped", "../outside", "a\\b", "a\0b", "a,b", 'a"b',
         'a,"b"', "a\rb", "a\nb"],
        ids=["empty", "dot", "dot-dot", "slash", "absolute", "parent", "backslash", "nul", "comma",
             "quote", "csv-cell", "cr", "lf"],
    )
    def test_unsafe_song_id_rejected(self, tmp_path, song_id):
        # a song id names a directory under --out or --estimates and a CSV cell
        songs = [_song_record("SS_001"), _song_record(song_id)]
        with pytest.raises(ManifestError, match=r"manifest.json: song record 1: song_id .* must be a non-empty name"):
            load_manifest(_write_manifest(tmp_path, songs))

    @pytest.mark.parametrize("song_id", ["", "..", "a/b", "a,b", 7], ids=["empty", "dot-dot", "slash", "comma", "int"])
    def test_hand_built_entry_refuses_unsafe_song_id(self, song_id):
        # the manifest's rule: a hand-built entry must not lead a reader outside --estimates
        with pytest.raises(ManifestError, match=r"^song_id .* must be a non-empty name"):
            SongEntry(song_id, {k: f"{k.value}.wav" for k in StemKind}, "mix.wav")

    @pytest.mark.parametrize("song_id", ["a.b", "...", ".hidden", "song 1", "caf\u00e9"])
    def test_plain_song_id_accepted(self, tmp_path, song_id):
        manifest = load_manifest(_write_manifest(tmp_path, [_song_record(song_id)]))
        assert manifest.songs[0].song_id == song_id

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path, [_song_record("SS_001")]))
        entry = manifest.songs[0]
        assert entry.mixture_path == tmp_path / "SS_001/mixture.wav"
        assert entry.stem_paths[StemKind.VOCALS] == tmp_path / "SS_001/vocals.wav"

    def test_all_silent_rejected(self):
        with pytest.raises(ManifestError):
            SongEntry(
                song_id="bad",
                stem_paths={k: f"{k.value}.wav" for k in StemKind},
                mixture_path="mix.wav",
                silent_stems=frozenset(StemKind),
            )

    def test_empty_manifest_rejected(self):
        with pytest.raises(ManifestError):
            DatasetManifest(())

    def test_records_hold_only_what_a_command_reads(self):
        assert [f.name for f in dataclasses.fields(SongEntry)] == [
            "song_id", "stem_paths", "mixture_path", "is_demo", "silent_stems"]
        assert [f.name for f in dataclasses.fields(DatasetManifest)] == ["songs"]

    def test_empty_song_list_reported_before_rate(self, tmp_path):
        path = _write_manifest(tmp_path, [], rate=0)
        with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}: manifest must list at least one song$"):
            load_manifest(path)

    def test_nul_in_mixture_path_refused(self, tmp_path):
        path = _write_manifest(tmp_path, [_song_record("a", mixture="a/mi\0x.wav")])
        with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}: song a: mixture path must not contain NUL$"):
            load_manifest(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("name: not json")
        with pytest.raises(ManifestError):
            load_manifest(path)


def _write_song_files(tmp_path, song_id, stems, mixture, rate=8000):
    song_dir = tmp_path / song_id
    song_dir.mkdir()
    for kind in StemKind:
        write_wav(Waveform(stems[kind], rate), song_dir / f"{kind.value}.wav")
    write_wav(Waveform(mixture, rate), song_dir / "mixture.wav")
    return SongEntry(
        song_id=song_id,
        stem_paths={k: song_dir / f"{k.value}.wav" for k in StemKind},
        mixture_path=song_dir / "mixture.wav",
    )


def _grid_stems(rng, frames=400):
    # amplitudes on a 2**-10 grid so four-way sums are exact in float32
    return {
        kind: rng.integers(-256, 257, size=(2, frames)) / 1024.0 for kind in StemKind
    }


class TestValidateSongAudio:
    def test_exact_sum_passes_with_zero_deviation(self, tmp_path, rng):
        stems = _grid_stems(rng)
        mixture = sum(stems.values())
        entry = _write_song_files(tmp_path, "exact", stems, mixture)
        report = validate_song_audio(entry)
        assert report.passed
        assert report.max_deviation == 0.0

    def test_length_mismatch_names_stem(self, tmp_path, rng):
        stems = _grid_stems(rng)
        mixture = sum(stems.values())
        stems[StemKind.DRUMS] = stems[StemKind.DRUMS][:, :-1]
        entry = _write_song_files(tmp_path, "short", stems, mixture)
        report = validate_song_audio(entry)
        assert not report.passed
        assert any("drums" in message for message in report.issues)

    def test_deviation_alone_is_the_one_issue(self, tmp_path, rng):
        stems = _grid_stems(rng)
        mixture = sum(stems.values())
        assert validate_song_audio(_write_song_files(tmp_path, "exact", stems, mixture)).issues == ()
        off = mixture.copy()
        off[1, 7] += 0.5
        report = validate_song_audio(_write_song_files(tmp_path, "off", stems, off))
        assert report.issues == ("mixture deviates from stem sum by 0.5 (tolerance 0.001)",)
        assert report.passed is False

    def test_report_holds_issues_deviation_and_warnings(self):
        assert [f.name for f in dataclasses.fields(ValidationReport)] == ["issues", "max_deviation", "warnings"]

    def test_rate_mismatch_fails(self, tmp_path, rng):
        stems = _grid_stems(rng)
        mixture = sum(stems.values())
        entry = _write_song_files(tmp_path, "rates", stems, mixture)
        write_wav(
            Waveform(stems[StemKind.BASS], 16000),
            entry.stem_paths[StemKind.BASS],
        )
        report = validate_song_audio(entry)
        assert not report.passed
        assert any("bass" in message for message in report.issues)

    def test_pcm16_quantization_bound(self, tmp_path, rng):
        frames = 500
        stems_float = {
            kind: rng.uniform(-0.2, 0.2, size=(frames, 2)) for kind in StemKind
        }
        song_dir = tmp_path / "pcm"
        song_dir.mkdir()
        for kind in StemKind:
            ints = np.round(stems_float[kind] * 32768.0).clip(-32768, 32767)
            write_pcm_wav(song_dir / f"{kind.value}.wav", ints.astype(np.int64), 16, 8000)
        mixture = sum(stems_float.values()).T
        write_wav(Waveform(mixture, 8000), song_dir / "mixture.wav")
        entry = SongEntry(
            song_id="pcm",
            stem_paths={k: song_dir / f"{k.value}.wav" for k in StemKind},
            mixture_path=song_dir / "mixture.wav",
        )
        report = validate_song_audio(entry, tolerance=1e-3)
        assert report.max_deviation <= 2 * 2**-15
        assert report.passed

    def test_monotone_in_tolerance(self, tmp_path, rng):
        stems = _grid_stems(rng)
        mixture = sum(stems.values()) + rng.uniform(-1e-4, 1e-4, size=(2, 400))
        entry = _write_song_files(tmp_path, "noisy", stems, mixture)
        tolerances = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
        outcomes = [validate_song_audio(entry, t).passed for t in tolerances]
        # once passing, stays passing at looser tolerances
        assert outcomes == sorted(outcomes)

    def test_silence_warnings(self, tmp_path, rng):
        stems = _grid_stems(rng)
        stems[StemKind.BASS] = np.zeros((2, 400))
        mixture = sum(stems.values())
        entry = _write_song_files(tmp_path, "quiet", stems, mixture)
        report = validate_song_audio(entry)
        assert any("appears silent" in message for message in report.warnings)

    def test_missing_file_raises_io_error(self, tmp_path, rng):
        stems = _grid_stems(rng)
        entry = _write_song_files(tmp_path, "gone", stems, sum(stems.values()))
        entry.stem_paths[StemKind.OTHER].unlink()
        with pytest.raises(OSError):
            validate_song_audio(entry)


def test_pcm24_writer_matches_sample_loop(tmp_path):
    extremes = [-(1 << 23), -1, 0, (1 << 23) - 1]
    rng = np.random.default_rng(24)
    values = np.concatenate([extremes, rng.integers(-(1 << 23), 1 << 23, 995)]).reshape(-1, 3)
    path = tmp_path / "pcm24.wav"
    write_pcm_wav(path, values, 24, 8000)
    raw = path.read_bytes()
    start = raw.index(b"data") + 8
    assert raw[start : start + values.size * 3] == pcm24_bytes_loop(values)


class TestErrorContext:
    def test_prefix_keeps_type_and_nests(self):
        with pytest.raises(CorruptFileError, match=r"^f\.wav: line 3: data chunk holds a partial frame$") as excinfo:
            with context("f.wav: "), context("line 3: "):
                raise CorruptFileError("data chunk holds a partial frame")
        assert type(excinfo.value) is CorruptFileError

    def test_other_errors_pass_unchanged(self):
        error = OSError(2, "No such file or directory", "f.wav")
        with pytest.raises(OSError) as excinfo:
            with context("f.wav: "):
                raise error
        assert excinfo.value is error
