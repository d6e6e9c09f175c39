"""Seeded input generators for the benchmark workloads.

Test-scale datasets come straight from ``synth.make_dataset``. Real-scale
songs (44.1 kHz stereo, 3 minutes) repeat one ``synth.make_song`` segment of
SEGMENT_SECONDS end to end. Building every stem and estimate at full length
took about 60 s per round-score set-up, longer than the timed sequence,
while decoding and scoring cost the same for any content.
Submissions and suite estimates are references perturbed by cross-stem
leakage and noise, written as float32, PCM16 or PCM24 so every decode path of
``read_wav`` runs.

Every writer returns the segment exactly as a reader should decode it, so
expected scores are computed from what is on disk, not from the float64
arrays before quantisation.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from demixeval import synth
from demixeval.audio_io import StemKind

STEMS = tuple(StemKind)
SEGMENT_SECONDS = 10.0
FULL_SCALE = 0.99

# (format tag, bits) for the three encodings read_wav decodes
FORMATS = {"float32": (3, 32), "pcm16": (1, 16), "pcm24": (1, 24)}


def encode(samples: np.ndarray, encoding: str) -> tuple:
    """Interleaved sample bytes of a (channels, frames) array, and the float64
    array a correct decoder yields for them."""
    _, bits = FORMATS[encoding]
    frames = samples.T
    if encoding == "float32":
        stored = np.ascontiguousarray(frames, dtype="<f4")
        return stored.tobytes(), stored.T.astype(np.float64)
    scale = float(1 << (bits - 1))
    ints = np.clip(np.rint(frames * scale), -scale, scale - 1).astype("<i4", order="C")
    if bits == 16:
        data = ints.astype("<i2").tobytes()
    else:
        data = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return data, ints.T / scale


def write_repeated(path: Path, segment: np.ndarray, repeats: int, encoding: str, rate: int) -> np.ndarray:
    """Write `segment` `repeats` times back to back as one RIFF/WAVE file.

    Returns the decoded segment.
    """
    tag, bits = FORMATS[encoding]
    data, decoded = encode(segment, encoding)
    channels = segment.shape[0]
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    size = len(data) * repeats
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + size) + b"WAVE")
        handle.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", size))
        for _ in range(repeats):
            handle.write(data)
    return decoded


def repeats_for(seconds: float) -> int:
    repeats = round(seconds / SEGMENT_SECONDS)
    if repeats * SEGMENT_SECONDS != seconds:
        raise ValueError(f"{seconds} s is not a whole number of {SEGMENT_SECONDS} s segments")
    return repeats


def write_real_dataset(root: Path, seed: int, n_songs: int, seconds: float, rate: int,
                       demo: tuple = (), silent_bass: tuple = ()):
    """Write real-scale songs in make_dataset's layout, float32 like write_wav.

    Yields (song_id, decoded stem segments {StemKind: array}, mixture
    segment, is_demo) per song after its files are on disk. The manifest is
    written once the last song has been yielded.
    """
    repeats = repeats_for(seconds)
    records = []
    for index in range(n_songs):
        song_id = f"syn_{index:03d}"
        silent = frozenset({StemKind.BASS}) if index in silent_bass else frozenset()
        song = synth.make_song(seed * 100003 + index, SEGMENT_SECONDS, rate, silent)
        song_dir = root / song_id
        stems = {
            kind: write_repeated(song_dir / f"{kind.value}.wav", song["stems"][kind].samples, repeats, "float32", rate)
            for kind in STEMS
        }
        mixture = write_repeated(song_dir / "mixture.wav", song["mixture"].samples, repeats, "float32", rate)
        records.append({
            "song_id": song_id,
            "genre": "synthetic",
            "language": "none",
            "title": f"Synthetic {index}",
            "other_instruments": [],
            "mixture": f"{song_id}/mixture.wav",
            "stems": {kind.value: f"{song_id}/{kind.value}.wav" for kind in STEMS},
            "is_demo": index in demo,
            "silent_stems": sorted(kind.value for kind in silent),
        })
        yield song_id, stems, mixture, index in demo
    manifest = {"name": "bench", "sample_rate": rate, "songs": records}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def perturb(reference: np.ndarray, mixture: np.ndarray, leak: float, noise_rms: float, rng) -> np.ndarray:
    """Reference with leakage from the mean of the other stems and noise,
    clipped to stay within full scale."""
    others = (mixture - reference) / 3.0
    noise = rng.standard_normal(reference.shape)
    estimate = (1.0 - leak) * reference + leak * others + noise_rms * noise
    return np.clip(estimate, -FULL_SCALE, FULL_SCALE)


def corpus_table(path: Path, seed: int, rows: int, columns: list) -> list:
    """Write a metric table CSV with tied values and absent cells.

    Values derive from one latent quality per row through metric-specific
    monotone maps plus noise, rounded so that ties occur. About one cell in
    twelve is absent, and the last column is present on a single row only,
    so its pairs are undefined. Returns the rows as lists of float or None.
    """
    rng = np.random.default_rng([seed, 2])
    quality = rng.normal(5.0, 4.0, rows)
    table = []
    for column_index in range(len(columns)):
        slope = rng.uniform(0.3, 2.0) * (1 if column_index % 5 else -1)
        noise = rng.normal(0.0, rng.uniform(0.2, 3.0), rows)
        values = np.round(slope * quality + noise, 1 + column_index % 3)
        table.append(values)
    absent = rng.random((len(columns), rows)) < 1.0 / 12.0
    absent[-1, :] = True
    absent[-1, 0] = False
    header = ["system_id", "song_id", "stem", *columns]
    lines = [",".join(header)]
    out = []
    for row in range(rows):
        cells = [None if absent[c, row] else float(table[c][row]) for c in range(len(columns))]
        out.append(cells)
        text = ["" if cell is None else repr(cell) for cell in cells]
        key = [f"sys{row % 7}", f"song{row // 28:03d}", STEMS[row % 4].value]
        lines.append(",".join(key + text))
    path.write_text("\n".join(lines) + "\n")
    return out
