"""Shared test helpers, including independent WAV writers used as oracles."""

import struct
import uuid
from pathlib import Path

import numpy as np

from demixeval.audio_io import Waveform
from demixeval.harness import Leaderboard, ScoreDocument


def noise_waveform(rng, channels=2, frames=4000, rate=8000, scale=0.1):
    return Waveform(scale * rng.standard_normal((channels, frames)), rate)


def _fmt_body(tag, channels, rate, bits, extensible):
    """fmt chunk body; extensible moves the tag into a WAVE_FORMAT_EXTENSIBLE GUID."""
    align = channels * bits // 8
    if not extensible:
        return struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)
    # KSDATAFORMAT_SUBTYPE_PCM / _IEEE_FLOAT: 0000000t-0000-0010-8000-00aa00389b71
    guid = uuid.UUID(f"{tag:08x}-0000-0010-8000-00aa00389b71").bytes_le
    return struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, rate * align, align, bits, 22, bits, 0) + guid


def write_pcm_wav(path, samples, bits, rate, trailer=b"", extensible=False):
    """Write integer PCM WAV bytes by hand, independent of the package writer.

    samples: int array shaped (frames, channels), already in PCM range.
    trailer: raw chunk bytes placed after the data chunk and its pad byte.
    extensible: write a 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk.
    """
    frames, channels = samples.shape
    if bits == 16:
        body = samples.astype("<i2").tobytes()
    elif bits == 24:
        # the low three bytes of each little-endian two's-complement word
        words = samples.astype("<i4").ravel().view(np.uint8).reshape(-1, 4)
        body = words[:, :3].tobytes()
    else:
        raise ValueError(bits)
    fmt = _fmt_body(1, channels, rate, bits, extensible)
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


def pcm24_bytes_loop(samples):
    """PCM24 payload packed one sample at a time: the reference for write_pcm_wav."""
    flat = np.asarray(samples).astype(np.int64).ravel()
    unsigned = np.where(flat < 0, flat + (1 << 24), flat)
    raw = bytearray()
    for value in unsigned:
        raw += struct.pack("<I", int(value))[:3]
    return bytes(raw)


def write_float32_wav(path, samples, rate, trailer=b"", extensible=False):
    """Hand-built IEEE float32 WAV; samples shaped (frames, channels).

    trailer: raw chunk bytes placed after the data chunk.
    extensible: write a 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk.
    """
    frames, channels = samples.shape
    body = samples.astype("<f4").tobytes()
    fmt = _fmt_body(3, channels, rate, 32, extensible)
    payload = b"".join(
        [
            b"fmt ", struct.pack("<I", len(fmt)), fmt,
            b"data", struct.pack("<I", len(body)), body, trailer,
        ]
    )
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(payload)) + b"WAVE" + payload)


def write_encoded_wav(path, codec, values, rate=8000, extensible=False, trailer=b""):
    """Write float values shaped (frames, channels), within [-1, 1), in the given encoding."""
    if codec == "float32":
        write_float32_wav(path, values.astype(np.float32), rate, trailer, extensible)
        return
    bits = 16 if codec == "pcm16" else 24
    scale = 1 << (bits - 1)
    ints = np.clip(np.round(values * scale), -scale, scale - 1).astype(np.int64)
    write_pcm_wav(path, ints, bits, rate, trailer, extensible)


def add_partial_frame(path):
    """Grow the final data chunk by 2 bytes, less than a frame of any encoding used here."""
    raw = bytearray(path.read_bytes())
    start = raw.index(b"data")
    (size,) = struct.unpack_from("<I", raw, start + 4)
    assert start + 8 + size == len(raw)
    struct.pack_into("<I", raw, start + 4, size + 2)
    raw += b"\x00\x00"
    struct.pack_into("<I", raw, 4, len(raw) - 8)
    path.write_bytes(bytes(raw))


def decode_wav_reference(path):
    """Decode a WAV one sample at a time with struct and int.from_bytes.

    An independent oracle for read_wav: integer PCM is divided by
    2**(bits - 1) in exact integer/float arithmetic, float32 is unpacked
    as-is. WAVE_FORMAT_EXTENSIBLE files take their format tag from the
    first two bytes of the SubFormat GUID. Returns float64 samples shaped
    (channels, frames).
    """
    raw = Path(path).read_bytes()
    fmt = data = None
    pos = 12
    while pos + 8 <= len(raw):
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        if raw[pos : pos + 4] == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", raw, pos + 8)
            if fmt[0] == 0xFFFE:
                fmt = struct.unpack_from("<H", raw, pos + 8 + 24) + fmt[1:]
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


def sdr_energies_reference(ref, est):
    """(sum ref**2, sum (ref - est)**2) of (channels, frames) arrays, added as the SDR kernel adds them.

    Per channel row of each block of 2**16 frames, numpy sums a contiguous
    product; the sums are added channel-major, block sums left to right.
    """
    block = 1 << 16
    signal = noise = 0.0
    for ref_row, est_row in zip(ref, est):
        for start in range(0, len(ref_row), block):
            ref_block = ref_row[start : start + block]
            diff = ref_block - est_row[start : start + block]
            signal += float(np.sum(ref_block * ref_block))
            noise += float(np.sum(diff * diff))
    return signal, noise


def average_ranks_loop(values):
    """Fractional ranks from 1, ties averaged, walking the sorted values one tie
    group at a time: the reference for analysis._average_ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    start = 0
    while start < len(values):
        stop = start
        while stop + 1 < len(values) and sorted_values[stop + 1] == sorted_values[start]:
            stop += 1
        ranks[order[start : stop + 1]] = 0.5 * (start + stop) + 1.0
        start = stop + 1
    return ranks


def score_documents(results, leaderboard=Leaderboard.B, epsilon=1e-7, seed=0, rounds=(1, 2, 3),
                    declaration="MUSDB18-HQ"):
    """{system_id: [SongScore, ...]} as ScoreDocuments, one per system: the
    input of harness.rank, scores_to_csv and scores_to_document."""
    return [
        ScoreDocument(system_id, leaderboard, declaration, rounds, seed, epsilon, scores)
        for system_id, scores in results.items()
    ]


def energy(waveform):
    return float(np.sum(waveform.samples * waveform.samples))


def _hann(length):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def stft_reference(samples, fft_size, hop):
    """stft one frame at a time, rfft along the last axis; (channels, bins, frames)."""
    channels, frames = samples.shape
    n_frames = 1 + int(np.ceil((frames + fft_size) / hop))
    padded = np.zeros((channels, (n_frames - 1) * hop + fft_size))
    padded[:, fft_size : fft_size + frames] = samples
    window = _hann(fft_size)
    spectra = [
        np.fft.rfft(padded[:, i * hop : i * hop + fft_size] * window, axis=-1)
        for i in range(n_frames)
    ]
    return np.stack(spectra, axis=-1)


def istft_reference(bins, fft_size, hop, signal_length):
    """Weighted overlap-add inverse as a loop over frames; (channels, signal_length)."""
    channels, _, n_frames = bins.shape
    window = _hann(fft_size)
    accumulated = np.zeros((channels, (n_frames - 1) * hop + fft_size))
    weight = np.zeros(accumulated.shape[1])
    for i in range(n_frames):
        frame = np.fft.irfft(bins[:, :, i], n=fft_size, axis=-1) * window
        accumulated[:, i * hop : i * hop + fft_size] += frame
        weight[i * hop : i * hop + fft_size] += window * window
    np.maximum(weight, np.finfo(np.float64).tiny, out=weight)
    return (accumulated / weight)[:, fft_size : fft_size + signal_length]


def mwf_reference(mixture, references, cfg, regularization):
    """Multichannel Wiener oracle with full complex 2x2 matrices and np.linalg.inv.

    Per bin and frame: R_k = S_k S_k^H, W_k = R_k (sum_j R_j + lambda I)^-1
    with lambda = regularization * trace / 2 + eps, estimate_k = W_k X. Returns
    {kind: samples}.
    """
    fft_size, hop = cfg.fft_size, cfg.hop
    mix = stft_reference(mixture.samples, fft_size, hop)
    covariances = {}
    for kind, stem in references.items():
        spec = stft_reference(stem.samples, fft_size, hop)
        covariances[kind] = np.einsum("aft,bft->ftab", spec, spec.conj())
    total = sum(covariances.values())
    trace = np.real(total[..., 0, 0] + total[..., 1, 1])
    lam = regularization * trace / 2.0 + np.finfo(np.float64).eps
    inverse = np.linalg.inv(total + lam[..., None, None] * np.eye(2))
    return {
        kind: istft_reference(
            np.einsum("ftab,bft->aft", covariance @ inverse, mix),
            fft_size,
            hop,
            mixture.num_frames,
        )
        for kind, covariance in covariances.items()
    }
