"""Stem audio I/O: WAVE files, waveform containers, dataset manifests, and
csv_text, the one writer of every CSV table the package prints or writes.

Waveforms are float64 arrays shaped (channels, frames) at full scale +-1.0.
PCM samples are normalized by 2**(bits - 1), so PCM 16-bit +32767 maps to
32767/32768. Files are always written as IEEE float 32-bit, which makes the
write/read round trip bit-exact for float32-valued data.

read_wav decodes a whole file as one block of sample_blocks. Each block
is read and checked by _read_block, then decoded by _decode: whole by
sample_blocks (read_wav, validate, oracle), one channel at a time into the
rows of the metrics' walk (score, suite). Either way the buffers are reused
and the samples bit-identical.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    AudioFormatError,
    CorruptFileError,
    InvalidInputError,
    ManifestError,
    UnsupportedCodecError,
    context,
)

_WAVE_PCM = 1
_WAVE_IEEE_FLOAT = 3
_WAVE_EXTENSIBLE = 0xFFFE
# KSDATAFORMAT_SUBTYPE_* GUIDs share these 14 bytes after their 2-byte format tag
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


class StemKind(Enum):
    """The four stems of the demixing task. Definition order is the output order."""

    BASS = "bass"
    DRUMS = "drums"
    OTHER = "other"
    VOCALS = "vocals"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "StemKind":
        try:
            return cls(name.strip().lower())
        except (AttributeError, ValueError):  # AttributeError: not a string
            raise ManifestError(f"unknown stem kind {name!r}") from None


@dataclass(frozen=True)
class Waveform:
    """Multichannel time-domain audio.

    samples: 2-D float array, shape (channels, frames), full scale +-1.0.
    sample_rate: Hz, positive integer.

    The sample array is adopted and marked read-only; waveforms are safe to
    share across workers.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise InvalidInputError(
                "samples must be 2-D (channels, frames) with at least one channel"
            )
        if not np.all(np.isfinite(samples)):
            raise InvalidInputError("samples must be finite (no NaN or Inf)")
        rate = self.sample_rate
        if not isinstance(rate, (int, np.integer)) or int(rate) <= 0:
            raise InvalidInputError("sample_rate must be a positive integer")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(rate))

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_frames(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class WavHeader:
    """Where and how a checked WAVE file stores its samples.

    num_channels, num_frames and sample_rate mean what they mean on a
    Waveform. sample_width is the bytes per sample: 2 (PCM16), 3 (PCM24) or
    4 (IEEE float32). data_offset is the file offset of the first sample.
    """

    path: Path
    num_channels: int
    num_frames: int
    sample_rate: int
    sample_width: int
    data_offset: int


def read_wav_header(path) -> WavHeader:
    """Parse and check the header of a WAVE file without reading its samples.

    Raises what read_wav raises, except the NaN/Inf check on float data,
    which needs the samples.
    """
    path = Path(path)
    with context(f"{path}: "), open(path, "rb") as handle:
        return _parse_header(handle, path)


def _parse_header(handle, path: Path) -> WavHeader:
    """Walk the RIFF chunks by seeking; only chunk headers and fmt are read."""
    size = os.fstat(handle.fileno()).st_size
    head = handle.read(12)
    if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise AudioFormatError("not a RIFF/WAVE file")

    fmt = None
    data_span = None
    pos = 12
    while pos + 8 <= size:
        handle.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", handle.read(8))
        body = pos + 8
        if (chunk_id == b"fmt " and fmt) or (chunk_id == b"data" and data_span):
            raise AudioFormatError(f"duplicate {chunk_id.decode()!r} chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16 or body + 16 > size:
                raise AudioFormatError("fmt chunk truncated")
            fields = handle.read(40)
            fmt = struct.unpack_from("<HHIIHH", fields)
            if fmt[0] == _WAVE_EXTENSIBLE and chunk_size >= 40 and body + 40 <= size:
                (valid_bits,) = struct.unpack_from("<H", fields, 18)
                guid = fields[24:40]
                if valid_bits == fmt[5] and guid[2:] == _SUBFORMAT_GUID_TAIL:
                    # the GUID's first two bytes are the plain format tag
                    fmt = struct.unpack_from("<H", guid) + fmt[1:]
        elif chunk_id == b"data":
            data_span = (body, chunk_size)
        # chunks are word aligned
        pos = body + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise AudioFormatError("missing fmt chunk")
    if data_span is None:
        raise AudioFormatError("missing data chunk")

    format_tag, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels < 1:
        raise AudioFormatError(f"channel count {channels} is invalid")
    if sample_rate < 1:
        raise AudioFormatError(f"sample rate {sample_rate} is invalid")

    start, data_size = data_span
    if start + data_size > size:
        raise CorruptFileError(_ends_early(data_size))

    if format_tag == _WAVE_PCM and bits == 16:
        width = 2
    elif format_tag == _WAVE_PCM and bits == 24:
        width = 3
    elif format_tag == _WAVE_IEEE_FLOAT and bits == 32:
        width = 4
    else:
        raise UnsupportedCodecError(f"format tag {format_tag} at {bits} bits is not supported "
                                    "(expected PCM16, PCM24, or IEEE float32)")
    if data_size % (width * channels) != 0:
        raise CorruptFileError("data chunk holds a partial frame")
    return WavHeader(path, channels, data_size // (width * channels), sample_rate, width, start)


def _ends_early(data_size: int) -> str:
    return f"data chunk declares {data_size} bytes but the file ends early"


# Spare bytes ahead of the payload in every read buffer: a PCM24 word starts
# one byte before its sample, and int16/float32 samples stay aligned.
_PAD = 4


def _read_block(handle, header: WavHeader, raw: np.ndarray, frames: int) -> np.ndarray:
    """Read and check frames frames at the file position in raw[_PAD:]; the stored (frames, channels) view."""
    count, width = header.num_channels * frames, header.sample_width
    if handle.readinto(memoryview(raw)[_PAD : _PAD + count * width]) != count * width:
        raise CorruptFileError(_ends_early(header.num_frames * header.num_channels * width))
    # a PCM24 sample as the little-endian int32 that starts one byte early; the last word ends the payload
    dtype = {2: "<i2", 3: "<i4", 4: "<f4"}[width]
    stored = np.ndarray((count,), dtype=dtype, buffer=raw, offset=_PAD - (width == 3), strides=(width,))
    if width == 4 and not np.isfinite(stored).all():
        raise CorruptFileError("float data contains NaN or Inf")
    return stored.reshape(frames, header.num_channels)


def _decode(stored: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Decode stored samples into float64 out, of their shape: a copy, or a
    shift that drops a PCM24 word's spare byte and sign-extends, then an
    in-place scale by a power of two, which is exact."""
    if stored.dtype == "<i4":
        np.right_shift(stored, 8, out=out)
        out *= 2.0**-23
    else:
        np.copyto(out, stored)
        if stored.dtype == "<i2":
            out *= 2.0**-15
    return out


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file into a Waveform: sample_blocks' one-block case.

    Supports PCM 16-bit, PCM 24-bit, and IEEE float 32-bit, any channel
    count >= 1, under the plain format tag or WAVE_FORMAT_EXTENSIBLE with
    the standard PCM or float SubFormat and all bits valid. PCM data is
    scaled by 2**(bits - 1).

    Raises AudioFormatError for malformed headers, UnsupportedCodecError for
    other encodings, CorruptFileError for truncated data or NaN/Inf floats.
    """
    header = read_wav_header(path)
    # a zero-frame file yields no block
    blocks = list(sample_blocks(header, max(header.num_frames, 1)))
    samples = blocks[0] if blocks else np.empty((header.num_channels, 0))
    return Waveform(samples, header.sample_rate)


def stored_blocks(source, block_frames: int) -> Iterator[np.ndarray]:
    """(<= block_frames, channels) blocks of a Waveform or WavHeader as stored, in frame order, for _decode.

    A Waveform's are views of its samples. A WavHeader's are _read_block's, in one reused buffer that the next
    block overwrites, so a truncated file or NaN or Inf in float data raises at the block that holds it.
    """
    if isinstance(source, Waveform):
        frames = source.samples.T
        yield from (frames[start : start + block_frames] for start in range(0, len(frames), block_frames))
        return
    raw = np.empty(_PAD + block_frames * source.num_channels * source.sample_width, dtype=np.uint8)
    with context(f"{source.path}: "), open(source.path, "rb") as handle:
        handle.seek(source.data_offset)
        for start in range(0, source.num_frames, block_frames):
            yield _read_block(handle, source, raw, min(block_frames, source.num_frames - start))


def sample_blocks(source, block_frames: int) -> Iterator[np.ndarray]:
    """(channels, <= block_frames) float64 blocks of a Waveform or WavHeader, in frame order.

    Each is decoded into one reused buffer, overwritten when the next is drawn,
    and is bit-identical to the matching columns of the Waveform or of read_wav.
    Errors are stored_blocks'.
    """
    out = np.empty((source.num_channels, block_frames))
    for stored in stored_blocks(source, block_frames):
        yield _decode(stored.T, out[:, : len(stored)])


def remove_unfinished_writes(paths) -> None:
    """Remove the <path>.partial file write_wav_blocks writes for each final path, if there is one."""
    for path in paths:
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):  # or a file has its directory's name
            Path(f"{path}.partial").unlink()


def write_wav_blocks(paths, num_channels: int, num_frames: int, sample_rate: int, blocks) -> None:
    """Write one IEEE float 32-bit WAVE file per path from (files, channels, n) sample blocks.

    The frame count is known, so each header goes first; row i of every
    block is appended to file i. The blocks must hold num_frames finite
    frames in all. Files are written as <path>.partial and renamed once all
    are complete; on any error all of them, and any file at paths, are
    removed. Zero-frame files are refused before any file is opened.
    """
    if num_frames == 0:
        raise InvalidInputError("refusing to write a waveform with zero frames")
    frame_bytes = num_channels * 4
    data_size = num_frames * frame_bytes
    # RIFF size counts WAVE, the 16-byte fmt and 4-byte fact chunks, and the data chunk
    header = struct.pack(
        "<4sI4s" "4sIHHIIHH" "4sII" "4sI", b"RIFF", 4 + 24 + 12 + 8 + data_size, b"WAVE",
        b"fmt ", 16, _WAVE_IEEE_FLOAT, num_channels, sample_rate, sample_rate * frame_bytes, frame_bytes, 32,
        b"fact", 4, num_frames, b"data", data_size,
    )
    partial = [Path(f"{path}.partial") for path in paths]
    written = 0
    try:
        with contextlib.ExitStack() as files:
            handles = [files.enter_context(open(path, "wb")) for path in partial]
            for handle in handles:
                handle.write(header)
            for block in blocks:
                if block.shape[:2] != (len(handles), num_channels) or not np.isfinite(block).all():
                    raise InvalidInputError(f"blocks must be {len(handles)} files x {num_channels} channels, finite")
                for handle, samples in zip(handles, block):
                    handle.write(np.ascontiguousarray(samples.T, dtype="<f4").data)
                written += block.shape[2]
        if written != num_frames:
            raise InvalidInputError(f"blocks hold {written} frames, the header declares {num_frames}")
        for path, final in zip(partial, paths):
            path.replace(final)
    except BaseException:
        remove_unfinished_writes(paths)
        for path in paths:
            Path(path).unlink(missing_ok=True)
        raise


def write_wav(waveform: Waveform, path) -> None:
    """Write a Waveform as an IEEE float 32-bit WAVE file: write_wav_blocks' one-block case.

    read_wav(write_wav(w)) reproduces w exactly when its samples are
    float32-representable. Zero-frame waveforms are rejected.
    """
    write_wav_blocks([path], waveform.num_channels, waveform.num_frames, waveform.sample_rate, [waveform.samples[None]])


def check_song_id(song_id: str, error: type = ManifestError) -> None:
    """error (a ManifestError by default) unless song_id can name a directory and a CSV cell."""
    if not isinstance(song_id, str) or song_id in ("", ".", "..") or any(c in song_id for c in '/\\\0,"\r\n'):
        raise error(f"song_id {song_id!r} must be a non-empty name, "
                    "not '.' or '..', without '/', '\\', NUL, ',', '\"', CR or LF")


@dataclass(frozen=True)
class SongEntry:
    """Per-song manifest record: stem locations plus scoring annotations."""

    song_id: str
    stem_paths: Mapping[StemKind, Path]
    mixture_path: Path
    is_demo: bool = False
    silent_stems: frozenset = frozenset()

    def __post_init__(self) -> None:
        check_song_id(self.song_id)
        paths = {k: Path(v) for k, v in dict(self.stem_paths).items()}
        missing = [k.value for k in StemKind if k not in paths]
        if missing:
            raise ManifestError(
                f"song {self.song_id}: missing stem paths for {', '.join(missing)}"
            )
        unknown = [k for k in paths if not isinstance(k, StemKind)]
        if unknown:
            raise ManifestError(f"song {self.song_id}: unknown stem keys {unknown}")
        silent = frozenset(self.silent_stems)
        if not silent <= set(StemKind):
            raise ManifestError(f"song {self.song_id}: silent_stems has unknown members")
        if silent == set(StemKind):
            raise ManifestError(f"song {self.song_id}: all four stems declared silent")
        object.__setattr__(self, "stem_paths", paths)
        object.__setattr__(self, "mixture_path", Path(self.mixture_path))
        object.__setattr__(self, "silent_stems", silent)


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered song list, non-empty and without a repeated song_id."""

    songs: tuple

    def __post_init__(self) -> None:
        songs = tuple(self.songs)
        if not songs:
            raise ManifestError("manifest must list at least one song")
        seen = set()
        for song in songs:
            if song.song_id in seen:
                raise ManifestError(f"duplicate song_id {song.song_id!r}")
            seen.add(song.song_id)
        object.__setattr__(self, "songs", songs)

    def eligible_songs(self) -> list:
        """Songs that count for scoring (demo songs removed)."""
        return [s for s in self.songs if not s.is_demo]


def _text(value: str, what: str, error: type = ManifestError) -> str:
    """value, if it encodes as UTF-8; else error. A lone surrogate, which a JSON
    \\ud800 escape or an undecodable byte in an argument leaves in a str, does not,
    so no file or stream could take it."""
    try:
        value.encode()
    except UnicodeEncodeError:
        raise error(f"{what} must be valid Unicode text") from None
    return value


def _typed(value, kind: type, what: str):
    """value, if it has the JSON type kind (list, str, bool, int, or float for
    any number) and, as a str, is valid Unicode text; else a ManifestError."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        name = {list: "list", str: "string", bool: "boolean", int: "integer", float: "number"}[kind]
        raise ManifestError(f"{what} must be a JSON {name}, got {value!r}")
    return _text(value, what) if kind is str else value


def _read_json(path, error: type):
    """The JSON value in the file at path; error("not valid JSON (...)") if Python cannot decode it."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # ValueError covers UnicodeDecodeError and JSONDecodeError
        raise error(f"not valid JSON ({exc})") from None


def csv_text(rows) -> str:
    """rows as the one CSV format of every table: csv's minimal quoting, a bare \\n after each row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _file_path(base: Path, value, what: str) -> Path:
    """base / value, if value is a JSON string without NUL; else a ManifestError."""
    if "\0" in _typed(value, str, what):
        raise ManifestError(f"{what} must not contain NUL")
    return base / value


def load_manifest(path) -> DatasetManifest:
    """Load and validate a JSON dataset manifest.

    File paths inside the manifest are resolved relative to the manifest's
    directory. Songs keep file order. See the README for the full format;
    the metadata no command reads is type-checked, then dropped. A refusal
    names the file, then the song or song record it is about, if any.
    """
    path = Path(path)
    with context(f"{path}: "):
        doc = _read_json(path, ManifestError)
        if not isinstance(doc, dict):
            raise ManifestError("top level must be an object")
        for key in ("name", "sample_rate", "songs"):
            if key not in doc:
                raise ManifestError(f"missing top-level key {key!r}")
        base = path.parent
        songs = []
        for index, record in enumerate(_typed(doc["songs"], list, "songs")):
            if not isinstance(record, dict):
                raise ManifestError(f"song record {index} must be an object")
            if "song_id" not in record:
                raise ManifestError(f"song record {index} has no song_id")
            with context(f"song record {index}: "):
                song_id = _typed(record["song_id"], str, "song_id")
                check_song_id(song_id)
            with context(f"song {song_id}: "):
                if not isinstance(stems_doc := record.get("stems"), dict):
                    raise ManifestError("missing stems object")
                stem_paths = {}
                for key, value in stems_doc.items():
                    stem_paths[StemKind.from_name(key)] = _file_path(base, value, f"stem {key!r} path")
                if "mixture" not in record:
                    raise ManifestError("missing mixture path")
                silent = frozenset(map(StemKind.from_name, _typed(record.get("silent_stems", []), list, "silent_stems")))
                mixture_path = _file_path(base, record["mixture"], "mixture path")
                for key in ("genre", "language", "title"):
                    _typed(record.get(key, ""), str, key)
                for item in _typed(record.get("other_instruments", []), list, "other_instruments"):
                    _typed(item, str, "other_instruments item")
                is_demo = _typed(record.get("is_demo", False), bool, "is_demo")
            songs.append(SongEntry(song_id, stem_paths, mixture_path, is_demo, silent))  # names its song
        sample_rate = _typed(doc["sample_rate"], int, "sample_rate")
        _typed(doc["name"], str, "name")
        manifest = DatasetManifest(tuple(songs))  # an empty song list is reported before the rate
        if sample_rate <= 0:
            raise ManifestError("manifest sample_rate must be positive")
    return manifest


# mean-power threshold below which a stem counts as silent for warnings
SILENCE_WARNING_FLOOR = 1e-12

DEFAULT_MIX_TOLERANCE = 1e-3  # absorbs PCM quantization of independently quantized stems
_BLOCK_FRAMES = 1 << 16  # frames per block that validate, score and suite decode from each file


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking one song's audio against the mixture convention; it passes with no issue."""

    issues: tuple
    max_deviation: float
    warnings: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.issues


def validate_song_audio(entry: SongEntry, tolerance: float = DEFAULT_MIX_TOLERANCE) -> ValidationReport:
    """Check stem/mixture consistency for one song.

    Verifies that every stem matches the mixture's length, channel count and
    sample rate, and that the mixture equals the sample-wise sum of the four
    stems within `tolerance`. Silence mismatches against the manifest's
    silent_stems annotations are reported as warnings only.

    Every header is checked before any sample is decoded, block by block;
    max_deviation is exact, mean power within 1e-12 relative of math.fsum.
    """
    mixture = read_wav_header(entry.mixture_path)
    stems = {kind: read_wav_header(entry.stem_paths[kind]) for kind in StemKind}

    length_errors, rate_errors = [], []
    for kind, stem in stems.items():
        if stem.num_frames != mixture.num_frames:
            length_errors.append(
                f"stem {kind} has {stem.num_frames} frames, mixture has {mixture.num_frames}"
            )
        if stem.num_channels != mixture.num_channels:
            length_errors.append(
                f"stem {kind} has {stem.num_channels} channels, mixture has {mixture.num_channels}"
            )
        if stem.sample_rate != mixture.sample_rate:
            rate_errors.append(
                f"stem {kind} is at {stem.sample_rate} Hz, mixture at {mixture.sample_rate} Hz"
            )

    energies = dict.fromkeys(StemKind, 0.0)
    max_deviation = 0.0
    if length_errors or rate_errors:
        max_deviation = float("nan")
        for _ in sample_blocks(mixture, _BLOCK_FRAMES):  # NaN or Inf in it still raises
            pass
        for kind, stem in stems.items():
            for block in sample_blocks(stem, _BLOCK_FRAMES):
                energies[kind] += float(np.sum(block * block))
    else:
        walk = zip(*(sample_blocks(wav, _BLOCK_FRAMES) for wav in (mixture, *stems.values())))
        for mix, *blocks in walk:
            total = np.zeros_like(mix)
            for kind, block in zip(StemKind, blocks):
                energies[kind] += float(np.sum(block * block))
                total += block
            max_deviation = max(max_deviation, float(np.max(np.abs(mix - total))))

    warnings = []
    for kind, stem in stems.items():
        if stem.num_frames:
            mean_power = energies[kind] / (stem.num_channels * stem.num_frames)
            declared = kind in entry.silent_stems
            if declared and mean_power > SILENCE_WARNING_FLOOR:
                warnings.append(
                    f"stem {kind} declared silent but has mean power {mean_power:.3g}"
                )
            elif not declared and mean_power <= SILENCE_WARNING_FLOOR:
                warnings.append(f"stem {kind} appears silent but is not declared silent")

    issues = length_errors + rate_errors
    if not issues and not max_deviation <= tolerance:  # NaN compares False
        issues.append(f"mixture deviates from stem sum by {max_deviation:.6g} (tolerance {tolerance:.6g})")
    return ValidationReport(tuple(issues), max_deviation, tuple(warnings))
