"""Stem audio I/O: WAVE files, waveform containers, dataset manifests.

Waveforms are float64 arrays shaped (channels, frames) at full scale +-1.0.
PCM samples are normalized by 2**(bits - 1), so PCM 16-bit +32767 maps to
32767/32768. Files are always written as IEEE float 32-bit, which makes the
write/read round trip bit-exact for float32-valued data.

read_wav decodes a whole file. score and validate read songs through
read_wav_header and read_wav_blocks instead: one block at a time into reused
buffers, same parser, decoder and checks, bit-identical samples.
"""

from __future__ import annotations

import contextlib
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

    @property
    def duration_seconds(self) -> float:
        return self.num_frames / self.sample_rate


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
    with open(path, "rb") as handle:
        return _parse_header(handle, path)


def _parse_header(handle, path: Path) -> WavHeader:
    """Walk the RIFF chunks by seeking; only chunk headers and fmt are read."""
    size = os.fstat(handle.fileno()).st_size
    head = handle.read(12)
    if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data_span = None
    pos = 12
    while pos + 8 <= size:
        handle.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", handle.read(8))
        body = pos + 8
        if (chunk_id == b"fmt " and fmt) or (chunk_id == b"data" and data_span):
            raise AudioFormatError(f"{path}: duplicate {chunk_id.decode()!r} chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16 or body + 16 > size:
                raise AudioFormatError(f"{path}: fmt chunk truncated")
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
        raise AudioFormatError(f"{path}: missing fmt chunk")
    if data_span is None:
        raise AudioFormatError(f"{path}: missing data chunk")

    format_tag, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels < 1:
        raise AudioFormatError(f"{path}: channel count {channels} is invalid")
    if sample_rate < 1:
        raise AudioFormatError(f"{path}: sample rate {sample_rate} is invalid")

    start, data_size = data_span
    if start + data_size > size:
        raise CorruptFileError(_ends_early(path, data_size))

    if format_tag == _WAVE_PCM and bits == 16:
        width = 2
    elif format_tag == _WAVE_PCM and bits == 24:
        width = 3
    elif format_tag == _WAVE_IEEE_FLOAT and bits == 32:
        width = 4
    else:
        raise UnsupportedCodecError(
            f"{path}: format tag {format_tag} at {bits} bits is not supported "
            "(expected PCM16, PCM24, or IEEE float32)"
        )
    if data_size % (width * channels) != 0:
        raise CorruptFileError(f"{path}: data chunk holds a partial frame")
    return WavHeader(path, channels, data_size // (width * channels), sample_rate, width, start)


def _ends_early(path: Path, data_size: int) -> str:
    return f"{path}: data chunk declares {data_size} bytes but the file ends early"


# Spare bytes ahead of the payload in every read buffer: a PCM24 word starts
# one byte before its sample, and int16/float32 samples stay aligned.
_PAD = 4


def _read_frames(handle, header: WavHeader, raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Read out.shape[1] frames at the file position into raw[_PAD:], decode into out.

    One pass from the file bytes into the de-interleaved float64 output, then
    an in-place scale by a power of two, which is exact.
    """
    channels, frames = out.shape
    count = channels * frames
    nbytes = count * header.sample_width
    if handle.readinto(memoryview(raw)[_PAD : _PAD + nbytes]) != nbytes:
        raise CorruptFileError(
            _ends_early(header.path, header.num_frames * channels * header.sample_width)
        )
    if header.sample_width == 2:
        ints = np.frombuffer(raw, dtype="<i2", count=count, offset=_PAD)
        np.copyto(out, ints.reshape(frames, channels).T)
        out *= 2.0**-15
    elif header.sample_width == 3:
        # Each sample as a little-endian int32 that starts one byte early;
        # the shift drops that byte and sign-extends. The last word ends
        # exactly at the end of the payload.
        words = np.ndarray((count,), dtype="<i4", buffer=raw, offset=_PAD - 1, strides=(3,))
        np.right_shift(words.reshape(frames, channels).T, 8, out=out)
        out *= 2.0**-23
    else:
        floats = np.frombuffer(raw, dtype="<f4", count=count, offset=_PAD)
        if not np.isfinite(floats).all():
            raise CorruptFileError(f"{header.path}: float data contains NaN or Inf")
        np.copyto(out, floats.reshape(frames, channels).T)
    return out


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file into a Waveform.

    Supports PCM 16-bit, PCM 24-bit, and IEEE float 32-bit, any channel
    count >= 1, under the plain format tag or WAVE_FORMAT_EXTENSIBLE with
    the standard PCM or float SubFormat and all bits valid. PCM data is
    scaled by 2**(bits - 1).

    Raises AudioFormatError for malformed headers, UnsupportedCodecError for
    other encodings, CorruptFileError for truncated data or NaN/Inf floats.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        header = _parse_header(handle, path)
        samples = np.empty((header.num_channels, header.num_frames))
        raw = np.empty(_PAD + samples.size * header.sample_width, dtype=np.uint8)
        handle.seek(header.data_offset)
        _read_frames(handle, header, raw, samples)
    return Waveform(samples, header.sample_rate)


def read_wav_blocks(header: WavHeader, block_frames: int) -> Iterator[np.ndarray]:
    """Decode a file's samples in order, block_frames frames at a time.

    Yields (channels, n) float64 arrays, n = block_frames except for a
    shorter last block, bit-identical to the matching columns of read_wav.
    They are views of one reused buffer: each is overwritten when the next
    block is drawn. NaN or Inf in float data raises CorruptFileError at the
    block that holds it.
    """
    frame_bytes = header.num_channels * header.sample_width
    raw = np.empty(_PAD + block_frames * frame_bytes, dtype=np.uint8)
    out = np.empty((header.num_channels, block_frames))
    with open(header.path, "rb") as handle:
        handle.seek(header.data_offset)
        for start in range(0, header.num_frames, block_frames):
            count = min(block_frames, header.num_frames - start)
            yield _read_frames(handle, header, raw, out[:, :count])


def sample_blocks(source, block_frames: int) -> Iterator[np.ndarray]:
    """(channels, <= block_frames) blocks of a Waveform or WavHeader, in frame order.

    A WavHeader's come from read_wav_blocks, each overwritten when the next is drawn.
    """
    if isinstance(source, WavHeader):
        return read_wav_blocks(source, block_frames)
    samples = source.samples
    return (samples[:, start : start + block_frames] for start in range(0, samples.shape[1], block_frames))


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
        for path in [*partial, *map(Path, paths)]:
            path.unlink(missing_ok=True)
        raise


def write_wav(waveform: Waveform, path) -> None:
    """Write a Waveform as an IEEE float 32-bit WAVE file: write_wav_blocks' one-block case.

    read_wav(write_wav(w)) reproduces w exactly when its samples are
    float32-representable. Zero-frame waveforms are rejected.
    """
    write_wav_blocks([path], waveform.num_channels, waveform.num_frames, waveform.sample_rate, [waveform.samples[None]])


@dataclass(frozen=True)
class SongEntry:
    """Per-song manifest record: stem locations plus scoring annotations."""

    song_id: str
    stem_paths: Mapping[StemKind, Path]
    mixture_path: Path
    genre: str = ""
    language: str = ""
    title: str = ""
    other_instruments: tuple = ()
    is_demo: bool = False
    silent_stems: frozenset = frozenset()

    def __post_init__(self) -> None:
        if not self.song_id:
            raise ManifestError("song_id must be non-empty")
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
        object.__setattr__(self, "other_instruments", tuple(self.other_instruments))
        object.__setattr__(self, "silent_stems", silent)


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered song list plus dataset-level metadata."""

    songs: tuple
    name: str
    sample_rate: int

    def __post_init__(self) -> None:
        songs = tuple(self.songs)
        if not songs:
            raise ManifestError("manifest must list at least one song")
        seen = set()
        for song in songs:
            if song.song_id in seen:
                raise ManifestError(f"duplicate song_id {song.song_id!r}")
            seen.add(song.song_id)
        if int(self.sample_rate) <= 0:
            raise ManifestError("manifest sample_rate must be positive")
        object.__setattr__(self, "songs", songs)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def eligible_songs(self) -> list:
        """Songs that count for scoring (demo songs removed)."""
        return [s for s in self.songs if not s.is_demo]


def _typed(value, kind: type, what: str):
    """value, if it has the JSON type kind (list, str, bool, int, or float for
    any number); else a ManifestError."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        name = {list: "list", str: "string", bool: "boolean", int: "integer", float: "number"}[kind]
        raise ManifestError(f"{what} must be a JSON {name}, got {value!r}")
    return value


def load_manifest(path) -> DatasetManifest:
    """Load and validate a JSON dataset manifest.

    File paths inside the manifest are resolved relative to the manifest's
    directory. Songs keep file order. See the README for the full format.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: top level must be an object")
    for key in ("name", "sample_rate", "songs"):
        if key not in doc:
            raise ManifestError(f"{path}: missing top-level key {key!r}")
    base = path.parent

    songs = []
    for index, record in enumerate(_typed(doc["songs"], list, f"{path}: songs")):
        if not isinstance(record, dict):
            raise ManifestError(f"{path}: song record {index} must be an object")
        song_id = record.get("song_id")
        if not song_id:
            raise ManifestError(f"{path}: song record {index} has no song_id")
        _typed(song_id, str, f"{path}: song record {index}: song_id")
        stems_doc = record.get("stems")
        if not isinstance(stems_doc, dict):
            raise ManifestError(f"song {song_id}: missing stems object")
        stem_paths = {}
        for key, value in stems_doc.items():
            stem_paths[StemKind.from_name(key)] = base / _typed(value, str, f"song {song_id}: stem {key!r} path")
        if "mixture" not in record:
            raise ManifestError(f"song {song_id}: missing mixture path")
        silent_names = _typed(record.get("silent_stems", []), list, f"song {song_id}: silent_stems")
        silent = frozenset(StemKind.from_name(name) for name in silent_names)
        try:
            entry = SongEntry(
                song_id=song_id,
                stem_paths=stem_paths,
                mixture_path=base / _typed(record["mixture"], str, f"song {song_id}: mixture path"),
                genre=str(record.get("genre", "")),
                language=str(record.get("language", "")),
                title=str(record.get("title", "")),
                other_instruments=tuple(
                    _typed(record.get("other_instruments", []), list, f"song {song_id}: other_instruments")
                ),
                is_demo=_typed(record.get("is_demo", False), bool, f"song {song_id}: is_demo"),
                silent_stems=silent,
            )
        except ManifestError as exc:
            raise ManifestError(f"{path}: {exc}") from None
        songs.append(entry)

    sample_rate = _typed(doc["sample_rate"], int, f"{path}: sample_rate")
    return DatasetManifest(tuple(songs), str(doc["name"]), sample_rate)


# mean-power threshold below which a stem counts as silent for warnings
SILENCE_WARNING_FLOOR = 1e-12

DEFAULT_MIX_TOLERANCE = 1e-3  # absorbs PCM quantization of independently quantized stems
_BLOCK_FRAMES = 1 << 16  # frames per block that validate decodes from each file


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking one song's audio against the mixture convention."""

    song_id: str
    length_errors: tuple
    rate_errors: tuple
    max_deviation: float
    tolerance: float
    warnings: tuple = ()

    @property
    def passed(self) -> bool:
        if self.length_errors or self.rate_errors:
            return False
        return self.max_deviation <= self.tolerance  # NaN compares False

    def issues(self) -> list:
        found = list(self.length_errors) + list(self.rate_errors)
        if not found and not self.max_deviation <= self.tolerance:
            found.append(
                f"mixture deviates from stem sum by {self.max_deviation:.6g} "
                f"(tolerance {self.tolerance:.6g})"
            )
        return found


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
        for _ in read_wav_blocks(mixture, _BLOCK_FRAMES):  # NaN or Inf in it still raises
            pass
        for kind, stem in stems.items():
            for block in read_wav_blocks(stem, _BLOCK_FRAMES):
                energies[kind] += float(np.sum(block * block))
    else:
        walk = zip(*(read_wav_blocks(wav, _BLOCK_FRAMES) for wav in (mixture, *stems.values())))
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

    return ValidationReport(
        song_id=entry.song_id,
        length_errors=tuple(length_errors),
        rate_errors=tuple(rate_errors),
        max_deviation=max_deviation,
        tolerance=float(tolerance),
        warnings=tuple(warnings),
    )
