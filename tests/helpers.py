"""Shared test helpers, including independent WAV writers used as oracles."""

import struct
from pathlib import Path

import numpy as np

from demixeval.audio_io import Waveform


def noise_waveform(rng, channels=2, frames=4000, rate=8000, scale=0.1):
    return Waveform(scale * rng.standard_normal((channels, frames)), rate)


def write_pcm_wav(path, samples, bits, rate, trailer=b""):
    """Write integer PCM WAV bytes by hand, independent of the package writer.

    samples: int array shaped (frames, channels), already in PCM range.
    trailer: raw chunk bytes placed after the data chunk and its pad byte.
    """
    frames, channels = samples.shape
    if bits == 16:
        body = samples.astype("<i2").tobytes()
    elif bits == 24:
        flat = samples.astype(np.int64).ravel()
        unsigned = np.where(flat < 0, flat + (1 << 24), flat)
        raw = bytearray()
        for value in unsigned:
            raw += struct.pack("<I", int(value))[:3]
        body = bytes(raw)
    else:
        raise ValueError(bits)
    bytes_per = bits // 8
    fmt = struct.pack(
        "<HHIIHH", 1, channels, rate, rate * channels * bytes_per, channels * bytes_per, bits
    )
    payload = b"".join(
        [
            b"fmt ", struct.pack("<I", len(fmt)), fmt,
            b"data", struct.pack("<I", len(body)), body,
        ]
    )
    if len(body) % 2:
        payload += b"\x00"
    payload += trailer
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(payload)) + b"WAVE" + payload)


def write_float32_wav(path, samples, rate, trailer=b""):
    """Hand-built IEEE float32 WAV; samples shaped (frames, channels).

    trailer: raw chunk bytes placed after the data chunk.
    """
    frames, channels = samples.shape
    body = samples.astype("<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, channels, rate, rate * channels * 4, channels * 4, 32)
    payload = b"".join(
        [
            b"fmt ", struct.pack("<I", len(fmt)), fmt,
            b"data", struct.pack("<I", len(body)), body, trailer,
        ]
    )
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(payload)) + b"WAVE" + payload)


def decode_wav_reference(path):
    """Decode a WAV one sample at a time with struct and int.from_bytes.

    An independent oracle for read_wav: integer PCM is divided by
    2**(bits - 1) in exact integer/float arithmetic, float32 is unpacked
    as-is. Returns float64 samples shaped (channels, frames).
    """
    raw = Path(path).read_bytes()
    fmt = data = None
    pos = 12
    while pos + 8 <= len(raw):
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        if raw[pos : pos + 4] == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", raw, pos + 8)
        elif raw[pos : pos + 4] == b"data":
            data = raw[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)
    format_tag, channels, _rate, _byte_rate, _align, bits = fmt
    width = bits // 8
    values = []
    for offset in range(0, len(data), width):
        word = data[offset : offset + width]
        if format_tag == 3:
            values.append(struct.unpack("<f", word)[0])
        else:
            values.append(int.from_bytes(word, "little", signed=True) / 2 ** (bits - 1))
    return np.array(values, dtype=np.float64).reshape(-1, channels).T


def energy(waveform):
    return float(np.sum(waveform.samples * waveform.samples))
