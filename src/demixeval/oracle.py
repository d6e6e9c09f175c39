"""Oracle separators that peek at the ground-truth stems.

Two upper-bound systems built on an in-house STFT:

* ideal_swf: single-channel soft Wiener filter, a ratio mask of the stem
  powers |S_k|^2 applied per channel.
* ideal_mwf: multichannel (spatial) Wiener filter using the 2x2 source
  covariances of each bin and frame, which exploits panning differences
  that a per-channel mask cannot.

Plus mixture_baseline, the lower bound that returns the mixture for every
stem. separate() streams any of the three over Waveforms or WAVE files: it
reads the mixture and stems together, _CHUNK_FRAMES STFT frames at a time,
carries the samples and open overlap-add sums later frames share, and
yields finished estimates, so its working set does not grow with the song.

No output depends on the chunk size: every sample sums its frames in
increasing order. stft, istft and ideal_swf are exact and must stay bit for
bit. ideal_mwf regularizes with the constant 1e-10 and is within
1e-7 * max|mixture| of a per-bin np.linalg.inv filter (its 2x2 system is
badly conditioned where one panned source dominates); raised to 1e-3, the
well-conditioned system agrees within 1e-12 * max|mixture|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .audio_io import StemKind, Waveform, sample_blocks
from .errors import InvalidInputError


@dataclass(frozen=True)
class OracleConfig:
    """STFT geometry; the SWF mask exponent is 2 and each MWF covariance one frame's."""

    fft_size: int = 4096
    hop: int = 1024

    def __post_init__(self) -> None:
        if self.fft_size < 4 or self.fft_size % 2 != 0:
            raise InvalidInputError("fft_size must be an even integer >= 4")
        if not 1 <= self.hop <= self.fft_size // 2:
            # past half a window the summed squared windows dip towards zero
            # between frames (zero at hop == fft_size), where the overlap-add
            # inverse amplifies errors or loses samples outright
            raise InvalidInputError("hop must be in [1, fft_size // 2]")


@dataclass(frozen=True)
class Spectrogram:
    """Complex STFT bins, shape (channels, freq_bins, time_frames).

    signal_length remembers the pre-padding waveform length so the inverse
    can trim back to the original support.
    """

    bins: np.ndarray
    fft_size: int
    hop: int
    sample_rate: int
    signal_length: int

    def __post_init__(self) -> None:
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 3:
            raise InvalidInputError("bins must be 3-D (channels, freq_bins, frames)")
        if bins.shape[1] != self.fft_size // 2 + 1:
            raise InvalidInputError(
                f"freq_bins {bins.shape[1]} inconsistent with fft_size {self.fft_size}"
            )
        if not np.all(np.isfinite(bins)):
            raise InvalidInputError("spectrogram values must be finite")
        object.__setattr__(self, "bins", bins)


def _hann_periodic(length: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def _check_length(num_frames: int, cfg: OracleConfig) -> None:
    if num_frames <= cfg.fft_size:
        raise InvalidInputError(f"waveform of {num_frames} frames is too short for fft_size {cfg.fft_size}")


def _frame_count(num_frames: int, cfg: OracleConfig) -> int:
    """STFT frames of a signal padded by fft_size zeros on both ends."""
    return 1 + -(-(num_frames + cfg.fft_size) // cfg.hop)


def _analysis(padded: np.ndarray, window: np.ndarray, hop: int) -> np.ndarray:
    """rfft of each windowed frame, one every hop samples of the last axis: (..., frames, bins)."""
    frames = np.lib.stride_tricks.sliding_window_view(padded, len(window), axis=-1)[..., ::hop, :]
    return np.fft.rfft(frames * window, axis=-1)


def _overlap_add(frames: np.ndarray, head: np.ndarray, hop: int) -> np.ndarray:
    """Sums of (..., n, fft_size) frames laid every hop samples onto head, the sums earlier frames left open.

    No later frame reaches the first n * hop sums. One whole-array add per hop-sized piece r of the
    frames, last piece first, so each sample sums its frames in increasing order, across calls too.
    """
    *lead, n, length = frames.shape
    pieces = -(-length // hop)
    sums = np.zeros((*lead, (n + pieces - 1) * hop))
    sums[..., : head.shape[-1]] = head
    for r in reversed(range(pieces)):
        span, width = slice(r * hop, (r + 1) * hop), min(hop, length - r * hop)
        sums[..., r * hop : (r + n) * hop].reshape(*lead, n, hop)[..., :width] += frames[..., span]
    return sums


def stft(waveform: Waveform, cfg: OracleConfig = OracleConfig()) -> Spectrogram:
    """Windowed overlapping rfft frames, periodic Hann analysis window.

    The signal is zero-padded by fft_size on both ends so every original
    sample sits in the fully-overlapped region; istft(stft(w)) then
    reproduces w on its full support (hop <= fft_size/2 required for full
    coverage, the default is 4x overlap).
    """
    _check_length(waveform.num_frames, cfg)
    length, hop = cfg.fft_size, cfg.hop
    padded = np.zeros((waveform.num_channels, (_frame_count(waveform.num_frames, cfg) - 1) * hop + length))
    padded[:, length : length + waveform.num_frames] = waveform.samples
    # (channels, frames, bins) viewed as (channels, bins, frames), frame-major in memory
    bins = _analysis(padded, _hann_periodic(length), hop).transpose(0, 2, 1)
    return Spectrogram(bins, length, hop, waveform.sample_rate, waveform.num_frames)


def istft(spectrogram: Spectrogram) -> Waveform:
    """Weighted overlap-add inverse of stft.

    Applies the Hann window again on synthesis and normalizes by the window
    square sum, which makes istft(stft(w)) == w wherever frames cover the
    signal and is the least-squares resynthesis for modified spectrograms.
    """
    length, hop = spectrogram.fft_size, spectrogram.hop
    window = _hann_periodic(length)
    frames = np.fft.irfft(spectrogram.bins.transpose(0, 2, 1), n=length, axis=2)
    frames *= window
    sums = _overlap_add(frames, np.zeros(0), hop)
    weight = _overlap_add(np.broadcast_to(window * window, frames.shape[1:]), np.zeros(0), hop)
    signal = slice(length, length + spectrogram.signal_length)
    # zero-weight positions exist only inside the synthetic padding
    samples = sums[:, signal] / np.maximum(weight[signal], np.finfo(np.float64).tiny)
    return Waveform(samples, spectrogram.sample_rate)


def _check_oracle_inputs(mixture, references: Mapping, cfg: OracleConfig, multichannel: bool) -> None:
    """Every check of an oracle's inputs, on Waveforms or WavHeaders alike."""
    if not references:
        raise InvalidInputError("at least one reference stem is required")
    shape = (mixture.num_channels, mixture.num_frames)
    for kind, stem in references.items():
        if not isinstance(kind, StemKind):
            raise InvalidInputError(f"unknown stem key {kind!r}")
        if (stem.num_channels, stem.num_frames) != shape:
            stem_shape = (stem.num_channels, stem.num_frames)
            raise InvalidInputError(f"stem {kind} shape {stem_shape} does not match mixture shape {shape}")
        if stem.sample_rate != mixture.sample_rate:
            raise InvalidInputError(f"stem {kind} sample rate differs from the mixture")
    if multichannel and mixture.num_channels != 2:
        raise InvalidInputError(f"the multichannel Wiener oracle needs 2 channels, got {mixture.num_channels}")
    _check_length(mixture.num_frames, cfg)


def _ratio_masks(stem_bins: np.ndarray) -> np.ndarray:
    """|S_k|^2 / (sum_j |S_j|^2 + delta) for stem bins stacked on axis 0."""
    powers = np.abs(stem_bins) ** 2.0
    # relative + absolute stabilizer: keeps the float-rounded mask sum <= 1
    # per bin and maps all-silent bins to mask 0
    return powers / (sum(powers) * (1.0 + 16.0 * np.finfo(np.float64).eps) + np.finfo(np.float64).tiny)


def swf_masks(references: Mapping[StemKind, Waveform], cfg: OracleConfig = OracleConfig()) -> dict:
    """Ratio masks from the true stem spectrograms.

    mask_k = |S_k|^2 / (sum_j |S_j|^2 + delta) per channel and TF bin, with
    delta a machine epsilon. Masks lie in [0, 1] and sum to at most 1 per bin.
    """
    kinds = [k for k in StemKind if k in references]
    stem_bins = np.stack([stft(references[kind], cfg).bins for kind in kinds])
    return dict(zip(kinds, _ratio_masks(stem_bins)))


_MWF_REGULARIZATION = 1e-10  # lambda over the local trace's mean


def _mwf_bins(spec: np.ndarray) -> np.ndarray:
    """Multichannel Wiener estimate bins (stems, 2, frames, bins) from spec, the mixture's and the stems' STFT frames."""
    # per stem, the Hermitian (|L|^2, |R|^2, L conj(R)) of each bin; conj(R) L in this operand
    # order: a complex product's rounding depends on the order (fused multiply-adds), and numpy
    # swaps L * R.conj() when it reuses a large temporary
    covariances = [
        (left.real**2 + left.imag**2, right.real**2 + right.imag**2, right.conj() * left) for left, right in spec[1:]
    ]
    # sum() starts from 0, so these are new arrays and safe to update in place
    left, right, cross = (sum(cov[i] for cov in covariances) for i in range(3))

    # absolute epsilon keeps the matrix invertible at all-silent bins
    lam = _MWF_REGULARIZATION * ((left + right) / 2.0) + np.finfo(np.float64).eps
    left += lam
    right += lam
    det = left * right - (cross.real**2 + cross.imag**2)
    x_left, x_right = spec[0]
    y_left = (right * x_left - cross * x_right) / det
    y_right = (left * x_right - cross.conj() * x_left) / det
    return np.array(
        [[r_l * y_left + r_x * y_right, r_x.conj() * y_left + r_r * y_right] for r_l, r_r, r_x in covariances]
    )


# STFT frames per streamed chunk. On 30-s 16 kHz songs at 4096/1024, 8 to 16
# frames were fastest, 64 about 20 % and 256 about 70 % slower; 16 keeps the
# blocks longer at small FFT sizes. A chunk's spectra then stay a few MB.
_CHUNK_FRAMES = 16
KINDS = ("swf", "mwf", "baseline")  # what separate() streams


def separate(kind: str, mixture, references: Mapping, cfg: OracleConfig = OracleConfig()) -> Iterator[np.ndarray]:
    """An oracle's estimates, streamed as (stems, channels, n) float64 blocks in frame order.

    kind is "swf" (ideal_swf), "mwf" (ideal_mwf) or "baseline" (the mixture for all four stems,
    references unused). Inputs are Waveforms or WavHeaders; stems come in StemKind order. Every input
    check runs before this returns. A block is valid until the next is drawn; NaN or Inf in float
    data raises CorruptFileError at the block that holds it.
    """
    if kind not in KINDS:
        raise InvalidInputError(f"unknown oracle kind {kind!r}")
    if kind == "baseline":
        blocks = sample_blocks(mixture, _CHUNK_FRAMES * cfg.hop)
        return (np.broadcast_to(block, (len(StemKind),) + block.shape) for block in blocks)
    _check_oracle_inputs(mixture, references, cfg, multichannel=kind == "mwf")
    return _stream(kind == "mwf", mixture, references, cfg)


def _stream(multichannel: bool, mixture, references: Mapping, cfg: OracleConfig) -> Iterator[np.ndarray]:
    """separate()'s chunk loop for SWF and MWF.

    Chunk j's buffer holds the padded samples [j * step, (j + 1) * step + fft_size) of every signal,
    step = _CHUNK_FRAMES * hop. It filters the frames the buffer holds whole that no earlier chunk
    filtered, and yields the samples no later frame reaches.
    """
    length, hop = cfg.fft_size, cfg.hop
    window = _hann_periodic(length)
    signals = [mixture] + [references[kind] for kind in StemKind if kind in references]
    total = _frame_count(mixture.num_frames, cfg)
    step = _CHUNK_FRAMES * hop
    buffer = np.zeros((len(signals), mixture.num_channels, length + step))
    blocks = zip(*(sample_blocks(signal, step) for signal in signals))
    sums = weights = np.zeros(0)  # overlap-add sums left open by earlier chunks
    chunk = done = 0  # done: frames filtered so far
    while done < total:
        buffer[..., :length] = buffer[..., step:]
        buffer[..., length:] = 0.0
        for row, block in zip(buffer, next(blocks, ())):
            row[:, length : length + block.shape[1]] = block
        origin = chunk * step  # padded position of the buffer's first sample
        chunk += 1
        stop = min(chunk * _CHUNK_FRAMES + 1, total)
        spec = _analysis(buffer[..., done * hop - origin : (stop - 1) * hop + length - origin], window, hop)
        bins = _mwf_bins(spec) if multichannel else _ratio_masks(spec[1:]) * spec[0]
        frames = np.fft.irfft(bins, n=length, axis=-1)
        frames *= window
        sums = _overlap_add(frames, sums, hop)
        weights = _overlap_add(np.broadcast_to(window * window, frames.shape[-2:]), weights, hop)
        # final samples start at padded position done * hop, the signal at fft_size
        final, offset = (stop - done) * hop, done * hop - length
        lo, hi = max(-offset, 0), min(final, mixture.num_frames - offset)
        if lo < hi:
            yield sums[..., lo:hi] / np.maximum(weights[lo:hi], np.finfo(np.float64).tiny)
        sums, weights = sums[..., final:], weights[final:]
        done = stop


def _collect(kind: str, mixture, references: Mapping, cfg: OracleConfig) -> dict:
    """separate()'s stream as whole Waveforms, {stem: estimate}."""
    out = np.empty((len(references), mixture.num_channels, mixture.num_frames))
    start = 0
    for block in separate(kind, mixture, references, cfg):
        out[..., start : start + block.shape[-1]] = block
        start += block.shape[-1]
    kinds = [kind for kind in StemKind if kind in references]  # the stream's stem order
    return {kind: Waveform(samples, mixture.sample_rate) for kind, samples in zip(kinds, out)}


def ideal_swf(mixture: Waveform, references: Mapping[StemKind, Waveform], cfg: OracleConfig = OracleConfig()) -> dict:
    """Soft Wiener filter oracle: estimate_k = istft(mask_k * STFT(mixture))."""
    return _collect("swf", mixture, references, cfg)


def ideal_mwf(mixture: Waveform, references: Mapping[StemKind, Waveform], cfg: OracleConfig = OracleConfig()) -> dict:
    """Multichannel Wiener filter oracle for stereo signals.

    Per TF bin, each source contributes the empirical 2x2 spatial covariance
    of that one frame, R_k = S_k S_k^H. The filter
    is W_k = R_k (sum_j R_j + lambda I)^-1 with lambda proportional to the
    local trace, and the estimate is istft(W_k X). Requires 2 channels.
    Each stem's STFT only yields its Hermitian covariance. The closed-form
    inverse (real determinant) is applied to the mixture once,
    Y = (sum_j R_j + lambda I)^-1 X, and each estimate is istft(R_k Y).
    """
    return _collect("mwf", mixture, references, cfg)


def mixture_baseline(mixture: Waveform) -> dict:
    """Return the unmodified mixture as the estimate for all four stems."""
    return {kind: mixture for kind in StemKind}
