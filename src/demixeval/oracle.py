"""Oracle separators that peek at the ground-truth stems.

Two upper-bound systems built on an in-house STFT:

* ideal_swf: single-channel soft Wiener filter, a power-spectrogram ratio
  mask applied per channel.
* ideal_mwf: multichannel (spatial) Wiener filter using per-bin 2x2 source
  covariances, which exploits panning differences that a per-channel mask
  cannot.

Plus mixture_baseline, the lower bound that returns the mixture for every
stem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .audio_io import StemKind, Waveform
from .errors import InvalidInputError


@dataclass(frozen=True)
class OracleConfig:
    """STFT geometry and filter parameters for the oracle separators."""

    fft_size: int = 4096
    hop: int = 1024
    mwf_regularization: float = 1e-10
    mask_exponent: float = 2.0
    covariance_frames: int = 1  # odd; width of the temporal covariance average

    def __post_init__(self) -> None:
        if self.fft_size < 4 or self.fft_size % 2 != 0:
            raise InvalidInputError("fft_size must be an even integer >= 4")
        if not 1 <= self.hop <= self.fft_size // 2:
            # past half a window the summed squared windows dip towards zero
            # between frames (zero at hop == fft_size), where the overlap-add
            # inverse amplifies errors or loses samples outright
            raise InvalidInputError("hop must be in [1, fft_size // 2]")
        if self.mwf_regularization <= 0:
            raise InvalidInputError("mwf_regularization must be > 0")
        if self.mask_exponent <= 0:
            raise InvalidInputError("mask_exponent must be > 0")
        if self.covariance_frames < 1 or self.covariance_frames % 2 == 0:
            raise InvalidInputError("covariance_frames must be an odd integer >= 1")


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
    window: str = "hann"

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

    @property
    def num_channels(self) -> int:
        return self.bins.shape[0]

    @property
    def num_frames(self) -> int:
        return self.bins.shape[2]

    def with_bins(self, bins: np.ndarray) -> "Spectrogram":
        """Same geometry, new bin values."""
        return Spectrogram(
            bins, self.fft_size, self.hop, self.sample_rate, self.signal_length, self.window
        )


def _hann_periodic(length: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def stft(waveform: Waveform, cfg: OracleConfig = OracleConfig()) -> Spectrogram:
    """Windowed overlapping rfft frames, periodic Hann analysis window.

    The signal is zero-padded by fft_size on both ends so every original
    sample sits in the fully-overlapped region; istft(stft(w)) then
    reproduces w on its full support (hop <= fft_size/2 required for full
    coverage, the default is 4x overlap).
    """
    if waveform.num_frames <= cfg.fft_size:
        raise InvalidInputError(
            f"waveform of {waveform.num_frames} frames is too short for fft_size {cfg.fft_size}"
        )
    length, hop = cfg.fft_size, cfg.hop
    pad = length
    total = waveform.num_frames + 2 * pad
    n_frames = 1 + int(np.ceil((total - length) / hop))
    padded_length = (n_frames - 1) * hop + length

    padded = np.zeros((waveform.num_channels, padded_length))
    padded[:, pad : pad + waveform.num_frames] = waveform.samples

    window = _hann_periodic(length)
    frames = np.lib.stride_tricks.sliding_window_view(padded, length, axis=1)[:, ::hop, :]
    spectrum = np.fft.rfft(frames * window, axis=2)  # (channels, frames, bins)
    return Spectrogram(
        bins=np.ascontiguousarray(spectrum.transpose(0, 2, 1)),
        fft_size=length,
        hop=hop,
        sample_rate=waveform.sample_rate,
        signal_length=waveform.num_frames,
    )


def istft(spectrogram: Spectrogram) -> Waveform:
    """Weighted overlap-add inverse of stft.

    Applies the Hann window again on synthesis and normalizes by the window
    square sum, which makes istft(stft(w)) == w wherever frames cover the
    signal and is the least-squares resynthesis for modified spectrograms.
    """
    length, hop = spectrogram.fft_size, spectrogram.hop
    channels, _, n_frames = spectrogram.bins.shape
    frames = np.fft.irfft(spectrogram.bins.transpose(0, 2, 1), n=length, axis=2)
    window = _hann_periodic(length)
    frames *= window

    padded_length = (n_frames - 1) * hop + length
    accumulated = np.zeros((channels, padded_length))
    weight = np.zeros(padded_length)
    window_sq = window * window
    for index in range(n_frames):
        start = index * hop
        accumulated[:, start : start + length] += frames[:, index, :]
        weight[start : start + length] += window_sq
    # zero-weight positions exist only inside the synthetic padding
    np.maximum(weight, np.finfo(np.float64).tiny, out=weight)
    accumulated /= weight

    pad = length
    samples = accumulated[:, pad : pad + spectrogram.signal_length]
    return Waveform(np.ascontiguousarray(samples), spectrogram.sample_rate)


def _check_oracle_inputs(mixture: Waveform, references: Mapping[StemKind, Waveform]) -> None:
    if not references:
        raise InvalidInputError("at least one reference stem is required")
    for kind, stem in references.items():
        if not isinstance(kind, StemKind):
            raise InvalidInputError(f"unknown stem key {kind!r}")
        if stem.samples.shape != mixture.samples.shape:
            raise InvalidInputError(
                f"stem {kind} shape {stem.samples.shape} does not match "
                f"mixture shape {mixture.samples.shape}"
            )
        if stem.sample_rate != mixture.sample_rate:
            raise InvalidInputError(f"stem {kind} sample rate differs from the mixture")


def swf_masks(
    references: Mapping[StemKind, Waveform], cfg: OracleConfig = OracleConfig()
) -> dict:
    """Ratio masks from the true stem spectrograms.

    mask_k = |S_k|^p / (sum_j |S_j|^p + delta) per channel and TF bin, with
    p = cfg.mask_exponent and delta a machine epsilon. Masks lie in [0, 1]
    and sum to at most 1 per bin.
    """
    kinds = [k for k in StemKind if k in references]
    powers = {
        kind: np.abs(stft(references[kind], cfg).bins) ** cfg.mask_exponent for kind in kinds
    }
    total = sum(powers[kind] for kind in kinds)
    # relative + absolute stabilizer: keeps the float-rounded mask sum <= 1
    # per bin and maps all-silent bins to mask 0
    denominator = total * (1.0 + 16.0 * np.finfo(np.float64).eps) + np.finfo(np.float64).tiny
    return {kind: powers[kind] / denominator for kind in kinds}


def ideal_swf(
    mixture: Waveform,
    references: Mapping[StemKind, Waveform],
    cfg: OracleConfig = OracleConfig(),
) -> dict:
    """Soft Wiener filter oracle: estimate_k = istft(mask_k * STFT(mixture))."""
    _check_oracle_inputs(mixture, references)
    mix_spec = stft(mixture, cfg)
    masks = swf_masks(references, cfg)
    return {
        kind: istft(mix_spec.with_bins(mask * mix_spec.bins))
        for kind, mask in masks.items()
    }


def _covariance(spec_bins: np.ndarray) -> np.ndarray:
    """Instantaneous per-bin spatial covariance, shape (F, T, 2, 2)."""
    return np.einsum("aft,bft->ftab", spec_bins, np.conj(spec_bins))


def _smooth_time(values: np.ndarray, width: int) -> np.ndarray:
    """Truncated moving average along the frame axis of an (F, T, ...) array."""
    if width <= 1:
        return values
    half = width // 2
    frames = values.shape[1]
    zero = np.zeros_like(values[:, :1])
    cumulative = np.concatenate([zero, np.cumsum(values, axis=1)], axis=1)
    high = np.minimum(np.arange(frames) + half + 1, frames)
    low = np.maximum(np.arange(frames) - half, 0)
    counts = (high - low).reshape((1, frames) + (1,) * (values.ndim - 2))
    return (cumulative[:, high] - cumulative[:, low]) / counts


def ideal_mwf(
    mixture: Waveform,
    references: Mapping[StemKind, Waveform],
    cfg: OracleConfig = OracleConfig(),
) -> dict:
    """Multichannel Wiener filter oracle for stereo signals.

    Per TF bin, each source contributes an empirical 2x2 spatial covariance
    R_k = S_k S_k^H (averaged over cfg.covariance_frames frames). The filter
    is W_k = R_k (sum_j R_j + lambda I)^-1 with lambda proportional to the
    local trace, and the estimate is istft(W_k X). Requires 2 channels.
    """
    _check_oracle_inputs(mixture, references)
    if mixture.num_channels != 2:
        raise InvalidInputError(
            f"the multichannel Wiener oracle needs 2 channels, got {mixture.num_channels}"
        )
    mix_spec = stft(mixture, cfg)
    kinds = [k for k in StemKind if k in references]
    stem_bins = {kind: stft(references[kind], cfg).bins for kind in kinds}

    total = None
    for kind in kinds:
        covariance = _smooth_time(_covariance(stem_bins[kind]), cfg.covariance_frames)
        total = covariance if total is None else total + covariance

    trace = np.real(total[..., 0, 0] + total[..., 1, 1])
    # absolute epsilon keeps the matrix invertible at all-silent bins
    lam = cfg.mwf_regularization * (trace / 2.0) + np.finfo(np.float64).eps
    a = total[..., 0, 0] + lam
    b = total[..., 0, 1]
    c = total[..., 1, 0]
    d = total[..., 1, 1] + lam
    det = a * d - b * c
    inv00 = d / det
    inv01 = -b / det
    inv10 = -c / det
    inv11 = a / det

    mix_bins = mix_spec.bins  # (2, F, T)
    estimates = {}
    for kind in kinds:
        r = _smooth_time(_covariance(stem_bins[kind]), cfg.covariance_frames)
        w00 = r[..., 0, 0] * inv00 + r[..., 0, 1] * inv10
        w01 = r[..., 0, 0] * inv01 + r[..., 0, 1] * inv11
        w10 = r[..., 1, 0] * inv00 + r[..., 1, 1] * inv10
        w11 = r[..., 1, 0] * inv01 + r[..., 1, 1] * inv11
        out = np.empty_like(mix_bins)
        out[0] = w00 * mix_bins[0] + w01 * mix_bins[1]
        out[1] = w10 * mix_bins[0] + w11 * mix_bins[1]
        estimates[kind] = istft(mix_spec.with_bins(out))
    return estimates


def mixture_baseline(mixture: Waveform) -> dict:
    """Return the unmodified mixture as the estimate for all four stems."""
    return {kind: mixture for kind in StemKind}
