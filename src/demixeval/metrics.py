"""Distortion metrics on waveform pairs.

The headline metric is the stabilized global SDR,

    10 * log10((sum_n ||s(n)||^2 + eps) / (sum_n ||s(n) - s_hat(n)||^2 + eps)),

where the per-frame norm runs across channels and eps keeps the ratio defined
for silent inputs. The rest of the family (MAE, MSE, SI-SDR, the classic
BSS Eval style SDR without the stabilizer, and framewise variants with mean or
median aggregation) exists for cross-metric comparisons. All accumulation is
in float64.

The SDR energies (sum ||s||^2 and sum ||s - s_hat||^2) are reduced channel by
channel in fixed blocks of 2**16 samples: numpy's sum within a block, block
sums added left to right. They agree with an exactly rounded math.fsum to
1e-12 relative, and depend only on the sample values, never on the memory
layout or the thread count, so scores are bit-identical across runs and
--jobs. streamed_sdr feeds the same reduction from WAVE files, one decoded
block at a time, and so gives the in-memory score bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Optional

import numpy as np

from .audio_io import StemKind, Waveform, WavHeader, read_wav_blocks
from .errors import InvalidInputError, UndefinedMetricError

DB_CLAMP = 120.0  # stand-in for +-infinity; far outside any realistic score

DEFAULT_EPSILON = 1e-7
DEFAULT_ENERGY_FLOOR = 1e-12

_ENERGY_BLOCK = 1 << 16  # samples per block of the SDR energy reduction


class Aggregation(Enum):
    MEAN = "mean"
    MEDIAN = "median"


@dataclass(frozen=True)
class MetricConfig:
    """Parameters shared by the metric family.

    frame_length and hop_length are in seconds and only consulted by
    framewise evaluation. silent_frame_energy_floor is the reference energy
    below which a frame (or a whole signal, for SI-SDR) counts as silent.
    """

    epsilon: float = DEFAULT_EPSILON
    frame_length: Optional[float] = None
    hop_length: Optional[float] = None
    aggregation: Aggregation = Aggregation.MEAN
    silent_frame_energy_floor: float = DEFAULT_ENERGY_FLOOR

    def __post_init__(self) -> None:
        # NaN fails every comparison, so each check states what must hold
        if not 0 < self.epsilon < math.inf:
            raise InvalidInputError("epsilon must be finite and > 0")
        if self.frame_length is not None and not 0 < self.frame_length < math.inf:
            raise InvalidInputError("frame_length must be finite and > 0 when given")
        if self.hop_length is not None and not 0 < self.hop_length < math.inf:
            raise InvalidInputError("hop_length must be finite and > 0 when given")
        if (
            self.frame_length is not None
            and self.hop_length is not None
            and self.hop_length > self.frame_length
        ):
            raise InvalidInputError("hop_length must not exceed frame_length")
        if not 0 <= self.silent_frame_energy_floor < math.inf:
            raise InvalidInputError("silent_frame_energy_floor must be finite and >= 0")


class MetricId(Enum):
    """Every metric in the comparison family.

    Framewise variants aggregate per-frame values with mean or median. The
    BSS Eval style entries drop the stabilizing constant; v3 framewise uses
    30 s frames with a 15 s hop, v4 framewise uses 1 s frames with a 1 s hop.
    """

    GLOBAL_SDR = "global_sdr"
    FRAMEWISE_SDR_MEAN = "framewise_sdr_mean"
    FRAMEWISE_SDR_MEDIAN = "framewise_sdr_median"
    GLOBAL_MAE = "global_mae"
    FRAMEWISE_MAE_MEAN = "framewise_mae_mean"
    FRAMEWISE_MAE_MEDIAN = "framewise_mae_median"
    GLOBAL_MSE = "global_mse"
    FRAMEWISE_MSE_MEAN = "framewise_mse_mean"
    FRAMEWISE_MSE_MEDIAN = "framewise_mse_median"
    GLOBAL_SI_SDR = "global_si_sdr"
    FRAMEWISE_SI_SDR_MEAN = "framewise_si_sdr_mean"
    FRAMEWISE_SI_SDR_MEDIAN = "framewise_si_sdr_median"
    BSSEVAL_V3_SDR = "bsseval_v3_sdr"
    BSSEVAL_V3_FRAMEWISE_SDR_MEAN = "bsseval_v3_framewise_sdr_mean"
    BSSEVAL_V3_FRAMEWISE_SDR_MEDIAN = "bsseval_v3_framewise_sdr_median"
    BSSEVAL_V4_FRAMEWISE_SDR_MEAN = "bsseval_v4_framewise_sdr_mean"
    BSSEVAL_V4_FRAMEWISE_SDR_MEDIAN = "bsseval_v4_framewise_sdr_median"

    def __str__(self) -> str:
        return self.value


def _check_pair(reference, estimate) -> None:
    """Shape, rate and emptiness checks on two Waveforms or WavHeaders."""
    reference_shape = (reference.num_channels, reference.num_frames)
    estimate_shape = (estimate.num_channels, estimate.num_frames)
    if reference_shape != estimate_shape:
        raise InvalidInputError(
            f"shape mismatch: reference {reference_shape} vs estimate {estimate_shape}"
        )
    if reference.sample_rate != estimate.sample_rate:
        raise InvalidInputError(
            f"sample rate mismatch: {reference.sample_rate} vs {estimate.sample_rate}"
        )
    if reference.num_frames == 0:
        raise InvalidInputError("empty waveforms cannot be scored")


def _clamp_db(value: float) -> float:
    return max(-DB_CLAMP, min(DB_CLAMP, value))


# array-level evaluators, shared by the global operations and framewise slicing


def _array_blocks(samples: np.ndarray) -> Iterator[np.ndarray]:
    """(channels, <= _ENERGY_BLOCK) views of a (channels, frames) array, in frame order."""
    for start in range(0, samples.shape[1], _ENERGY_BLOCK):
        yield samples[:, start : start + _ENERGY_BLOCK]


def _reduce_energies(block_pairs) -> tuple:
    """(sum ref**2, sum (ref - est)**2) over (ref, est) block pairs in frame order.

    Each pair holds the same (channels, <= _ENERGY_BLOCK) columns of both
    signals. Per channel row of a block, numpy sums a contiguous product
    built in one reused buffer; the sums are kept and added channel-major,
    block sums left to right. No BLAS call, whose threaded reduction order
    could vary between runs, and the result does not depend on where the
    blocks come from.
    """
    scratch = np.empty(_ENERGY_BLOCK)
    parts = []  # per block, per channel: (sum ref**2, sum (ref - est)**2)
    for ref, est in block_pairs:
        row_parts = []
        for ref_row, est_row in zip(ref, est):
            product = scratch[: ref_row.shape[0]]
            np.multiply(ref_row, ref_row, out=product)
            ref_energy = float(np.sum(product))
            np.subtract(ref_row, est_row, out=product)
            np.multiply(product, product, out=product)
            row_parts.append((ref_energy, float(np.sum(product))))
        parts.append(row_parts)
    signal = 0.0
    noise = 0.0
    for channel_parts in zip(*parts):
        for block_signal, block_noise in channel_parts:
            signal += block_signal
            noise += block_noise
    return signal, noise


def _energies(ref: np.ndarray, est: np.ndarray) -> tuple:
    """(sum ref**2, sum (ref - est)**2) over (channels, frames) arrays."""
    return _reduce_energies(zip(_array_blocks(ref), _array_blocks(est)))


def _sdr_db(signal: float, noise: float, cfg: MetricConfig) -> float:
    return 10.0 * math.log10((signal + cfg.epsilon) / (noise + cfg.epsilon))


def _sdr_arrays(ref: np.ndarray, est: np.ndarray, cfg: MetricConfig) -> float:
    return _sdr_db(*_energies(ref, est), cfg)


def _mae_arrays(ref: np.ndarray, est: np.ndarray, cfg: MetricConfig) -> float:
    return float(np.mean(np.abs(ref - est)))


def _mse_arrays(ref: np.ndarray, est: np.ndarray, cfg: MetricConfig) -> float:
    diff = ref - est
    return float(np.mean(diff * diff))


def _si_sdr_arrays(ref: np.ndarray, est: np.ndarray, cfg: MetricConfig) -> float:
    s = ref.ravel()
    y = est.ravel()
    reference_energy = float(np.dot(s, s))
    if reference_energy <= cfg.silent_frame_energy_floor:
        raise UndefinedMetricError("SI-SDR is undefined for a silent reference")
    scale = float(np.dot(y, s)) / reference_energy
    target = scale * s
    residual = y - target
    target_energy = float(np.dot(target, target))
    residual_energy = float(np.dot(residual, residual))
    if residual_energy == 0.0:
        return DB_CLAMP
    if target_energy == 0.0:
        return -DB_CLAMP
    return _clamp_db(10.0 * math.log10(target_energy / residual_energy))


def _bsseval_v3_arrays(ref: np.ndarray, est: np.ndarray, cfg: MetricConfig) -> float:
    signal, noise = _energies(ref, est)
    if signal == 0.0:
        raise UndefinedMetricError("BSS Eval style SDR is undefined for a silent reference")
    if noise == 0.0:
        return DB_CLAMP
    return _clamp_db(10.0 * math.log10(signal / noise))


_ARRAY_EVALUATORS = {
    MetricId.GLOBAL_SDR: _sdr_arrays,
    MetricId.GLOBAL_MAE: _mae_arrays,
    MetricId.GLOBAL_MSE: _mse_arrays,
    MetricId.GLOBAL_SI_SDR: _si_sdr_arrays,
    MetricId.BSSEVAL_V3_SDR: _bsseval_v3_arrays,
}


def global_sdr(reference: Waveform, estimate: Waveform, cfg: MetricConfig = MetricConfig()) -> float:
    """Stabilized global SDR in dB. Defined for every input, including silence.

    A silent estimate against a reference of energy E scores
    10*log10((E + eps)/(E + eps)) = 0 dB, and silent/silent scores exactly 0 dB.
    """
    _check_pair(reference, estimate)
    return _sdr_arrays(reference.samples, estimate.samples, cfg)


def streamed_sdr(reference, estimate, cfg: MetricConfig = MetricConfig()) -> float:
    """global_sdr of two Waveforms or WAVE files given by their WavHeader.

    A file is decoded one block of 2**16 frames at a time into a reused
    buffer, so the working set does not depend on the signal length. The
    value and the errors are those of global_sdr on the decoded Waveforms,
    bit for bit.
    """
    _check_pair(reference, estimate)
    return _sdr_db(*_reduce_energies(zip(_blocks(reference), _blocks(estimate))), cfg)


def _blocks(source) -> Iterator[np.ndarray]:
    if isinstance(source, WavHeader):
        return read_wav_blocks(source, _ENERGY_BLOCK)
    return _array_blocks(source.samples)


def global_mae(reference: Waveform, estimate: Waveform) -> float:
    """Mean absolute error over all channels and frames. Lower is better."""
    _check_pair(reference, estimate)
    return _mae_arrays(reference.samples, estimate.samples, MetricConfig())


def global_mse(reference: Waveform, estimate: Waveform) -> float:
    """Mean squared error over all channels and frames. Lower is better."""
    _check_pair(reference, estimate)
    return _mse_arrays(reference.samples, estimate.samples, MetricConfig())


def si_sdr(reference: Waveform, estimate: Waveform, cfg: MetricConfig = MetricConfig()) -> float:
    """Scale-invariant SDR in dB over channel-concatenated signals.

    The estimate is projected onto the reference (target = <y, s>/||s||^2 * s)
    so pure gain errors do not count. Clamped to +-120 dB; a silent reference
    raises UndefinedMetricError.
    """
    _check_pair(reference, estimate)
    return _si_sdr_arrays(reference.samples, estimate.samples, cfg)


def bsseval_v3_sdr(reference: Waveform, estimate: Waveform, cfg: MetricConfig = MetricConfig()) -> float:
    """Energy-ratio SDR with no stabilizing constant, BSS Eval v3 style.

    Equals global_sdr up to the epsilon terms. Returns the +120 dB sentinel
    for an exactly-zero error and raises UndefinedMetricError for an
    exactly-silent reference.
    """
    _check_pair(reference, estimate)
    return _bsseval_v3_arrays(reference.samples, estimate.samples, cfg)


def _frame_values(
    metric: MetricId, reference: Waveform, estimate: Waveform, cfg: MetricConfig,
    frame_length: float, hop_length: float,
) -> list:
    """The surviving per-frame values of `metric`, in frame order (see framewise)."""
    rate = reference.sample_rate
    frame = int(round(frame_length * rate))
    hop = int(round(hop_length * rate))
    if frame <= 0 or hop <= 0:
        raise InvalidInputError("frame and hop must be at least one sample")
    total = reference.num_frames
    if total < frame:
        raise InvalidInputError(
            f"signal of {total} frames is shorter than one {frame}-frame window"
        )
    evaluate = _ARRAY_EVALUATORS[metric]
    ref = reference.samples
    est = estimate.samples
    values = []
    for start in range(0, total - frame + 1, hop):
        ref_slice = ref[:, start : start + frame]
        if float(np.sum(ref_slice * ref_slice)) <= cfg.silent_frame_energy_floor:
            continue
        try:
            values.append(evaluate(ref_slice, est[:, start : start + frame], cfg))
        except UndefinedMetricError:
            continue
    if not values:
        raise UndefinedMetricError("no frame produced a defined value")
    return values


def _aggregate(values: list, aggregation: Aggregation) -> float:
    if aggregation is Aggregation.MEAN:
        return sum(values) / len(values)
    return float(np.median(values))


def framewise(
    metric: MetricId,
    reference: Waveform,
    estimate: Waveform,
    cfg: MetricConfig,
) -> float:
    """Evaluate a global metric on fixed-length frames and aggregate.

    `metric` must be one of the global ids (GLOBAL_SDR, GLOBAL_MAE,
    GLOBAL_MSE, GLOBAL_SI_SDR, BSSEVAL_V3_SDR). Both signals are cut into
    frames of cfg.frame_length seconds at a stride of cfg.hop_length seconds;
    only frames fully contained in the signal are used. Frames whose
    reference energy is at or below cfg.silent_frame_energy_floor are
    skipped, as are frames where the underlying metric is undefined.
    Survivors are combined with cfg.aggregation.
    """
    _check_pair(reference, estimate)
    if metric not in _ARRAY_EVALUATORS:
        raise InvalidInputError(f"{metric} is not a global metric id")
    if cfg.frame_length is None or cfg.hop_length is None:
        raise InvalidInputError("framewise evaluation needs frame_length and hop_length")
    values = _frame_values(metric, reference, estimate, cfg, cfg.frame_length, cfg.hop_length)
    return _aggregate(values, cfg.aggregation)


# (base metric, frame s, hop s, mean id, median id): one per-frame series each
_FRAMEWISE_SERIES = (
    (MetricId.GLOBAL_SDR, 1.0, 1.0, MetricId.FRAMEWISE_SDR_MEAN, MetricId.FRAMEWISE_SDR_MEDIAN),
    (MetricId.GLOBAL_MAE, 1.0, 1.0, MetricId.FRAMEWISE_MAE_MEAN, MetricId.FRAMEWISE_MAE_MEDIAN),
    (MetricId.GLOBAL_MSE, 1.0, 1.0, MetricId.FRAMEWISE_MSE_MEAN, MetricId.FRAMEWISE_MSE_MEDIAN),
    (MetricId.GLOBAL_SI_SDR, 1.0, 1.0, MetricId.FRAMEWISE_SI_SDR_MEAN, MetricId.FRAMEWISE_SI_SDR_MEDIAN),
    (MetricId.BSSEVAL_V3_SDR, 30.0, 15.0,
     MetricId.BSSEVAL_V3_FRAMEWISE_SDR_MEAN, MetricId.BSSEVAL_V3_FRAMEWISE_SDR_MEDIAN),
    (MetricId.BSSEVAL_V3_SDR, 1.0, 1.0,
     MetricId.BSSEVAL_V4_FRAMEWISE_SDR_MEAN, MetricId.BSSEVAL_V4_FRAMEWISE_SDR_MEDIAN),
)


def metric_suite(reference: Waveform, estimate: Waveform, cfg: MetricConfig = MetricConfig()) -> dict:
    """Evaluate the whole comparison family on one pair.

    Returns {MetricId: value} in MetricId order. Each framewise series is
    computed once and reported as both its mean and its median. Metrics that
    are undefined for this pair, or whose frame is longer than the signal,
    are absent from the result rather than reported as numbers.
    """
    _check_pair(reference, estimate)
    results = {}
    for metric_id, evaluate in _ARRAY_EVALUATORS.items():
        try:
            results[metric_id] = evaluate(reference.samples, estimate.samples, cfg)
        except UndefinedMetricError:
            continue
    for base, frame_length, hop_length, mean_id, median_id in _FRAMEWISE_SERIES:
        try:
            values = _frame_values(base, reference, estimate, cfg, frame_length, hop_length)
        except (UndefinedMetricError, InvalidInputError):
            continue
        results[mean_id] = _aggregate(values, Aggregation.MEAN)
        results[median_id] = _aggregate(values, Aggregation.MEDIAN)
    return {metric_id: results[metric_id] for metric_id in MetricId if metric_id in results}


@dataclass(frozen=True)
class StemScores:
    """Per-stem metric values, in StemKind order.

    Stems excluded from aggregation (silent references) are left out of the
    map by the caller.
    """

    values: Mapping[StemKind, float]

    def __post_init__(self) -> None:
        values = {k: float(v) for k, v in dict(self.values).items()}
        if not values:
            raise InvalidInputError("StemScores needs at least one value")
        if any(not isinstance(k, StemKind) for k in values):
            raise InvalidInputError("StemScores keys must be StemKind members")
        object.__setattr__(self, "values", {k: values[k] for k in StemKind if k in values})


def sdr_song(scores: StemScores) -> float:
    """Arithmetic mean of the per-stem values, summed in StemKind order.

    With a silent stem removed by the harness this is the three-stem mean;
    normally it is the four-stem mean.
    """
    values = list(scores.values.values())
    return sum(values) / len(values)
