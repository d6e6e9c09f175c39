"""Oracle separators that peek at the ground-truth stems.

Two upper-bound systems built on an in-house STFT:

* ideal_swf: single-channel soft Wiener filter, a power-spectrogram ratio
  mask applied per channel.
* ideal_mwf: multichannel (spatial) Wiener filter using per-bin 2x2 source
  covariances, which exploits panning differences that a per-channel mask
  cannot.

Plus mixture_baseline, the lower bound that returns the mixture for every
stem.

stft, istft and ideal_swf outputs are exact and must stay bit for bit.
ideal_mwf is within 1e-7 * max|mixture| of a per-bin np.linalg.inv filter
at the default config (its 2x2 system is badly conditioned where one panned
source dominates) and within 1e-12 * max|mixture| at regularization 1e-3.
"""

from __future__ import annotations

import copy
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
        if not 0 < self.mwf_regularization < np.inf:  # NaN fails the comparison too
            raise InvalidInputError("mwf_regularization must be finite and > 0")
        if not 0 < self.mask_exponent < np.inf:
            raise InvalidInputError("mask_exponent must be finite and > 0")
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

    def __post_init__(self) -> None:
        bins = self._shaped(self.bins)
        if not np.all(np.isfinite(bins)):
            raise InvalidInputError("spectrogram values must be finite")
        object.__setattr__(self, "bins", bins)

    def _shaped(self, bins: np.ndarray) -> np.ndarray:
        bins = np.asarray(bins, dtype=np.complex128)
        if bins.ndim != 3:
            raise InvalidInputError("bins must be 3-D (channels, freq_bins, frames)")
        if bins.shape[1] != self.fft_size // 2 + 1:
            raise InvalidInputError(
                f"freq_bins {bins.shape[1]} inconsistent with fft_size {self.fft_size}"
            )
        return bins

    @property
    def num_channels(self) -> int:
        return self.bins.shape[0]

    @property
    def num_frames(self) -> int:
        return self.bins.shape[2]

    def with_bins(self, bins: np.ndarray) -> "Spectrogram":
        """Same geometry, new bin values; finiteness is left to istft's Waveform."""
        spectrogram = copy.copy(self)
        object.__setattr__(spectrogram, "bins", self._shaped(bins))
        return spectrogram


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
    # rfft along axis 1 of a (channels, length, frames) view: bins come out
    # in (channels, bins, frames) order, laid out frame-major in memory
    return Spectrogram(
        bins=np.fft.rfft(frames.transpose(0, 2, 1) * window[:, None], axis=1),
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
    Overlap-add is one whole-array add per hop-sized piece r of the window,
    last piece first, so each sample sums its frames in increasing order.
    """
    length, hop = spectrogram.fft_size, spectrogram.hop
    channels, _, n_frames = spectrogram.bins.shape
    frames = np.fft.irfft(spectrogram.bins.transpose(0, 2, 1), n=length, axis=2)
    window = _hann_periodic(length)
    frames *= window

    pieces = -(-length // hop)
    accumulated = np.zeros((channels, (n_frames + pieces - 1) * hop))
    weight = np.zeros(accumulated.shape[1])
    window_sq = window * window
    for r in reversed(range(pieces)):
        span, width = slice(r * hop, (r + 1) * hop), min(hop, length - r * hop)
        target = slice(r * hop, (r + n_frames) * hop)
        accumulated[:, target].reshape(channels, n_frames, hop)[..., :width] += frames[..., span]
        weight[target].reshape(n_frames, hop)[:, :width] += window_sq[span]

    pad = length
    signal = slice(pad, pad + spectrogram.signal_length)
    # zero-weight positions exist only inside the synthetic padding
    samples = accumulated[:, signal] / np.maximum(weight[signal], np.finfo(np.float64).tiny)
    return Waveform(samples, spectrogram.sample_rate)


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


def _covariance(spec_bins: np.ndarray, width: int) -> tuple:
    """Hermitian per-bin stereo covariance (|L|^2, |R|^2, L conj(R)), each (F, T)."""
    left, right = spec_bins
    power_left = left.real**2 + left.imag**2
    power_right = right.real**2 + right.imag**2
    return tuple(_smooth_time(v, width) for v in (power_left, power_right, left * right.conj()))


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
    Each stem's STFT only yields its Hermitian covariance. The closed-form
    inverse (real determinant) is applied to the mixture once,
    Y = (sum_j R_j + lambda I)^-1 X, and each estimate is istft(R_k Y).
    """
    _check_oracle_inputs(mixture, references)
    if mixture.num_channels != 2:
        raise InvalidInputError(
            f"the multichannel Wiener oracle needs 2 channels, got {mixture.num_channels}"
        )
    mix_spec = stft(mixture, cfg)
    covariances = {
        kind: _covariance(stft(references[kind], cfg).bins, cfg.covariance_frames)
        for kind in StemKind
        if kind in references
    }
    # sum() starts from 0, so these are new arrays and safe to update in place
    left, right, cross = (sum(cov[i] for cov in covariances.values()) for i in range(3))

    # absolute epsilon keeps the matrix invertible at all-silent bins
    lam = cfg.mwf_regularization * ((left + right) / 2.0) + np.finfo(np.float64).eps
    left += lam
    right += lam
    det = left * right - (cross.real**2 + cross.imag**2)
    x_left, x_right = mix_spec.bins
    y_left = (right * x_left - cross * x_right) / det
    y_right = (left * x_right - cross.conj() * x_left) / det
    del left, right, cross, lam, det  # lowers the peak held through the istft loop

    estimates = {}
    for kind, (r_left, r_right, r_cross) in covariances.items():
        out = np.empty_like(mix_spec.bins)
        np.add(r_left * y_left, r_cross * y_right, out=out[0])
        np.add(r_cross.conj() * y_left, r_right * y_right, out=out[1])
        estimates[kind] = istft(mix_spec.with_bins(out))
    return estimates


def mixture_baseline(mixture: Waveform) -> dict:
    """Return the unmodified mixture as the estimate for all four stems."""
    return {kind: mixture for kind in StemKind}
