"""Distortion metrics on waveform pairs.

The headline metric is the stabilized global SDR,

    10 * log10((sum_n ||s(n)||^2 + eps) / (sum_n ||s(n) - s_hat(n)||^2 + eps)),

where the per-frame norm runs across channels and eps keeps the ratio defined
for silent inputs. The comparison family (MAE, MSE, SI-SDR, the classic BSS
Eval style SDR without the stabilizer, and framewise variants with mean or
median aggregation) comes from metric_suite, which leaves an id undefined
for the pair absent; global_sdr gives the SDR alone, framewise one metric
on a chosen frame, hop and aggregation. All accumulation is in float64. A
reference whose energy, over a frame or the whole signal, is at most
DEFAULT_ENERGY_FLOOR (1e-12) is silent: framewise metrics skip such frames,
and SI-SDR is undefined on it.

Every metric takes Waveforms or WavHeaders, in any mix, and comes from one
blocked reduction, _walk. It reads and checks a block of 2**16 frames of
the reference, then of the estimate, from memory or WAVE files, and per
channel decodes each into one of two reused rows. s**2 and (s - s_hat)**2
are built in those two in place; |s - s_hat|, s * s_hat and the SI-SDR
residual in a scratch row. There are three row sets:

- SDR: s**2 and (s - s_hat)**2, for global_sdr and streamed_sdr;
- suite: those two plus |s - s_hat| and s * s_hat, for the rest of the
  family, globally and on units of frames;
- SI-SDR residual: (s_hat - a s)**2, summed as it stands in a second pass.
  a is constant over each unit, so a block multiplies each whole unit by
  its scale in one broadcast product, and the unit pieces at its edges by
  one scalar each; no per-sample index is built.

Global sums are numpy's sum within a block, the block sums added
channel-major, left to right. The SDR energies agree with an exactly
rounded math.fsum to 1e-12 relative, and depend only on the sample values,
never on the memory layout or whether they come from a file. The package
makes no BLAS call, so no value depends on the thread count either. Scores
are bit-identical across runs and --jobs, and the suite's
global_sdr and bsseval_v3_sdr are the SDR's bit for bit. Frames add the
pieces block edges cut them into, in order. MAE and MSE agree with their
formulas over exactly rounded sums to 1e-12 relative, the other dB metrics
to 1e-10 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audio_io import _BLOCK_FRAMES as _ENERGY_BLOCK, Waveform, _decode, stored_blocks
from .errors import InvalidInputError, UndefinedMetricError

DB_CLAMP = 120.0  # stand-in for +-infinity; far outside any realistic score

DEFAULT_EPSILON = 1e-7
DEFAULT_ENERGY_FLOOR = 1e-12


class Aggregation(Enum):
    MEAN = "mean"
    MEDIAN = "median"


@dataclass(frozen=True)
class MetricConfig:
    """The stabilizer of the SDR metrics, shared by the scoring layers."""

    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        # NaN fails every comparison, so the check states what must hold
        if not 0 < self.epsilon < math.inf:
            raise InvalidInputError("epsilon must be finite and > 0")


class MetricId(Enum):
    """Every metric in the comparison family.

    Framewise variants aggregate per-frame values with mean or median. SI-SDR
    projects the estimate onto the reference over channel-concatenated
    signals, so a pure gain error does not count. The BSS Eval style entries
    drop the stabilizing constant; v3 framewise uses 30 s frames with a 15 s
    hop, v4 framewise uses 1 s frames with a 1 s hop.
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


def _sdr_db(signal: float, noise: float, cfg: MetricConfig) -> float:
    return 10.0 * math.log10((signal + cfg.epsilon) / (noise + cfg.epsilon))


# Rows of the blocked sums: s**2, (s - s_hat)**2, |s - s_hat| and s * s_hat
_SIGNAL, _NOISE, _ABS, _CROSS = range(4)


def _cuts(start: int, count: int, unit: int) -> tuple:
    """(head, stop) of a block of count frames at frame start: [0, head) ends a
    unit begun in an earlier block, [head, stop) holds whole units and
    [stop, count) begins a unit that a later block ends."""
    head = min(-start % unit, count)
    return head, count - (count - head) % unit


def _walk(reference, estimate, units, depth, rows) -> dict:
    """{unit: per-channel sums of rows(ref, est, start) on each unit of that many frames}.

    rows maps one channel of the block at frame start, decoded into two
    reused rows it may overwrite, to (row index, contiguous row) pairs, each
    summed before the next is drawn. A sum array is (depth, channels,
    frames // unit + 1), its last column taking the frames past the last
    whole unit; a unit cut by a block edge adds its pieces in order. No
    BLAS call, whose reduction order would depend on the thread count.
    """
    sums = {unit: np.zeros((depth, reference.num_channels, reference.num_frames // unit + 1)) for unit in units}
    s, s_hat, start = np.empty(_ENERGY_BLOCK), np.empty(_ENERGY_BLOCK), 0
    for ref, est in zip(stored_blocks(reference, _ENERGY_BLOCK), stored_blocks(estimate, _ENERGY_BLOCK)):
        count = len(ref)
        runs = []  # (sums, lo, hi, first unit, piece length)
        for unit, unit_sums in sums.items():
            head, stop = _cuts(start, count, unit)
            for lo, hi in ((0, head), (head, stop), (stop, count)):
                if lo < hi:
                    runs.append((unit_sums, lo, hi, (start + lo) // unit, min(unit, hi - lo)))
        for channel in range(reference.num_channels):
            pair = _decode(ref[:, channel], s[:count]), _decode(est[:, channel], s_hat[:count])
            for row, values in rows(*pair, start):
                for unit_sums, lo, hi, index, size in runs:
                    pieces = np.add.reduce(values[lo:hi].reshape(-1, size), axis=-1)
                    unit_sums[row, channel, index : index + len(pieces)] += pieces
        start += count
    return sums


def _totals(block_sums: np.ndarray) -> np.ndarray:
    """Per row, the (depth, channels, blocks) sums added channel-major, blocks left to right."""
    totals = np.zeros(len(block_sums))
    for block in block_sums.transpose(1, 2, 0).reshape(-1, len(block_sums)):
        totals += block
    return totals


def _energies(reference, estimate) -> tuple:
    """(sum s**2, sum (s - s_hat)**2) of two Waveforms or WavHeaders: the SDR rows, built in place."""

    def rows(ref, est, start):
        np.subtract(ref, est, out=est)
        yield _SIGNAL, np.multiply(ref, ref, out=ref)
        yield _NOISE, np.multiply(est, est, out=est)

    signal, noise = _totals(_walk(reference, estimate, (_ENERGY_BLOCK,), 2, rows)[_ENERGY_BLOCK])
    return float(signal), float(noise)


def _reduce(reference, estimate, units) -> tuple:
    """(totals, {unit: sums}) of the four suite rows over Waveforms or WavHeaders.

    The _SIGNAL and _NOISE totals are _energies' bit for bit.
    """
    scratch = np.empty(_ENERGY_BLOCK)

    def products(ref, est, start):
        out = scratch[: ref.shape[0]]
        yield _CROSS, np.multiply(ref, est, out=out)
        np.subtract(ref, est, out=est)
        yield _ABS, np.abs(est, out=out)
        yield _NOISE, np.multiply(est, est, out=est)
        yield _SIGNAL, np.multiply(ref, ref, out=ref)

    sums = _walk(reference, estimate, {_ENERGY_BLOCK, *units}, 4, products)
    return _totals(sums[_ENERGY_BLOCK]), sums


def _compose(unit_sums: np.ndarray, k: int, m: int, count: int) -> np.ndarray:
    """Sums over channels of count frames of k units, one every m units: per
    channel the units in order, then the channels in order."""
    frames = unit_sums[..., : m * count : m]
    for j in range(1, k):
        frames = frames + unit_sums[..., j : j + m * count : m]
    total = frames[..., 0, :]
    for channel in range(1, frames.shape[-2]):
        total = total + frames[..., channel, :]
    return total


def _grid(reference, frame_length: float, hop_length: float) -> tuple:
    """(unit, k, m, count): count whole frames of k units, one every m units,
    the unit being the greatest common divisor of frame and hop."""
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
    unit = math.gcd(frame, hop)
    return unit, frame // unit, hop // unit, (total - frame) // hop + 1


def _value(base: MetricId, sums, residual, size: int, cfg: MetricConfig) -> float | None:
    """One global metric from the four sums and the SI-SDR residual of `size` samples;
    None for SI-SDR or BSS Eval style SDR on a silent reference, where it is undefined."""
    signal, noise, abs_sum, cross = (float(value) for value in sums)
    if base is MetricId.GLOBAL_SDR:
        return _sdr_db(signal, noise, cfg)
    if base is MetricId.GLOBAL_MAE:
        return abs_sum / size
    if base is MetricId.GLOBAL_MSE:
        return noise / size
    if base is MetricId.GLOBAL_SI_SDR:
        if signal <= DEFAULT_ENERGY_FLOOR:
            return None
        scale = cross / signal
        target = scale * scale * signal
        if residual == 0.0:
            return DB_CLAMP
        if target == 0.0:
            return -DB_CLAMP
        return _clamp_db(10.0 * math.log10(target / residual))
    if signal == 0.0:
        return None
    if noise == 0.0:
        return DB_CLAMP
    return _clamp_db(10.0 * math.log10(signal / noise))


_GLOBAL_IDS = (MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE, MetricId.GLOBAL_MSE,
               MetricId.GLOBAL_SI_SDR, MetricId.BSSEVAL_V3_SDR)


def _evaluate(reference, estimate, cfg: MetricConfig, series, global_si_sdr: bool) -> tuple:
    """(totals, global SI-SDR residual, kept per-frame values of each (base, grid) series).

    A series keeps its frames above the silent floor where its base is
    defined. At most one is GLOBAL_SI_SDR: the residual sum (s_hat - a s)**2
    is summed as it stands in a second pass, once each a = sum s s_hat /
    sum s**2 is known (sum s_hat**2 - 2a sum s s_hat + a**2 sum s**2 cancels
    badly near a * s). Overlapping frames fall into ceil(k / m) classes of
    disjoint frames, one row of per-unit scales each. A row multiplies the
    block's whole units by their scales in one broadcast product and the
    pieces _cuts leaves at the block's edges by one scalar each, with no
    per-sample index.
    """
    totals, sums = _reduce(reference, estimate, {grid[0] for _, grid in series})
    frame_sums = [_compose(sums[unit], k, m, count) for _, (unit, k, m, count) in series]
    unit, scales, classes, si_grid = _ENERGY_BLOCK, [], [], (1, 1, 0)
    for (base, (frame_unit, k, m, count)), frames in zip(series, frame_sums):
        audible = frames[_SIGNAL] > DEFAULT_ENERGY_FLOOR
        if base is MetricId.GLOBAL_SI_SDR and audible.any():
            unit, step, si_grid = frame_unit, -(-k // m), (k, m, count)
            scale = np.divide(frames[_CROSS], frames[_SIGNAL], out=np.zeros(count), where=audible)
            for first in range(step):
                classes.append(np.arange(first, count, step))
                scales.append(np.zeros(reference.num_frames // unit + 1))
                for j in range(k):
                    scales[-1][classes[-1] * m + j] = scale[classes[-1]]
    if global_si_sdr and totals[_SIGNAL] > DEFAULT_ENERGY_FLOOR:
        scales.insert(0, np.full(reference.num_frames // unit + 1, totals[_CROSS] / totals[_SIGNAL]))
    residuals = np.zeros((len(scales), 0))
    if scales:
        scratch = np.empty(_ENERGY_BLOCK)

        def rows(ref, est, start):
            out = scratch[: ref.shape[0]]
            head, stop = _cuts(start, ref.shape[0], unit)
            first, last = (start + head) // unit, (start + stop) // unit
            for row, unit_scales in enumerate(scales):
                np.multiply(ref[:head], unit_scales[start // unit], out=out[:head])
                np.multiply(ref[head:stop].reshape(-1, unit), unit_scales[first:last, None],
                            out=out[head:stop].reshape(-1, unit))
                np.multiply(ref[stop:], unit_scales[last], out=out[stop:])
                np.subtract(est, out, out=out)
                yield row, np.multiply(out, out, out=out)

        residuals = _walk(reference, estimate, (unit,), len(scales), rows)[unit]
    global_residual = float(np.sum(residuals[0])) if len(residuals) > len(classes) else None
    frame_residuals = np.zeros(si_grid[2])
    for chosen, row in zip(classes, residuals[len(residuals) - len(classes) :]):
        frame_residuals[chosen] = _compose(row, *si_grid)[chosen]
    values = []
    for (base, (frame_unit, k, _, _)), frames in zip(series, frame_sums):
        kept = []
        size = reference.num_channels * frame_unit * k
        for index in np.flatnonzero(frames[_SIGNAL] > DEFAULT_ENERGY_FLOOR):  # where every base is defined
            residual = frame_residuals[index] if base is MetricId.GLOBAL_SI_SDR else None
            kept.append(_value(base, frames[:, index], residual, size, cfg))
        values.append(kept)
    return totals, global_residual, values


def global_sdr(reference: Waveform, estimate: Waveform, cfg: MetricConfig = MetricConfig()) -> float:
    """Stabilized global SDR in dB. Defined for every input, including silence.

    A silent estimate against a reference of energy E scores
    10*log10((E + eps)/(E + eps)) = 0 dB, and silent/silent scores exactly 0 dB.
    """
    _check_pair(reference, estimate)
    return _sdr_db(*_energies(reference, estimate), cfg)


def streamed_sdr(reference, estimate, cfg: MetricConfig = MetricConfig()) -> float:
    """global_sdr of two Waveforms or WAVE files given by their WavHeader.

    A file is read one block of 2**16 frames at a time and decoded one
    channel at a time into reused rows, so the working set does not depend
    on the signal length. The value and the errors are those of global_sdr
    on the decoded Waveforms, bit for bit.
    """
    _check_pair(reference, estimate)
    return _sdr_db(*_energies(reference, estimate), cfg)


def _aggregate(values: list, aggregation: Aggregation) -> float:
    if aggregation is Aggregation.MEAN:
        return sum(values) / len(values)
    return float(np.median(values))


def framewise(
    metric: MetricId,
    reference: Waveform,
    estimate: Waveform,
    frame_length: float,
    hop_length: float,
    aggregation: Aggregation = Aggregation.MEAN,
    cfg: MetricConfig = MetricConfig(),
) -> float:
    """Evaluate a global metric on fixed-length frames and aggregate.

    `metric` must be one of the global ids (GLOBAL_SDR, GLOBAL_MAE,
    GLOBAL_MSE, GLOBAL_SI_SDR, BSSEVAL_V3_SDR). Both signals are cut into
    frames of frame_length seconds at a stride of hop_length seconds, both
    finite and > 0 with the hop no longer than the frame; only frames fully
    contained in the signal are used. Frames whose reference energy is at or
    below DEFAULT_ENERGY_FLOOR are skipped, as are frames where the
    underlying metric is undefined. Survivors are combined with aggregation.
    """
    # NaN fails every comparison, so each check states what must hold
    if not 0 < frame_length < math.inf:
        raise InvalidInputError("frame_length must be finite and > 0")
    if not 0 < hop_length < math.inf:
        raise InvalidInputError("hop_length must be finite and > 0")
    if hop_length > frame_length:
        raise InvalidInputError("hop_length must not exceed frame_length")
    _check_pair(reference, estimate)
    if metric not in _GLOBAL_IDS:
        raise InvalidInputError(f"{metric} is not a global metric id")
    grid = _grid(reference, frame_length, hop_length)
    _, _, (values,) = _evaluate(reference, estimate, cfg, [(metric, grid)], False)
    if not values:
        raise UndefinedMetricError("no frame produced a defined value")
    return _aggregate(values, aggregation)


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
FRAMEWISE_FRAMES = "1s/1s (30s/15s for bsseval_v3_framewise)"  # each series' frame/hop above, as suite prints it


def metric_suite(reference, estimate, cfg: MetricConfig = MetricConfig()) -> dict:
    """Evaluate the whole comparison family on one pair of Waveforms or WavHeaders.

    Returns {MetricId: value} in MetricId order. Each framewise series is
    computed once and reported as both its mean and its median. Metrics that
    are undefined for this pair, or whose frame is longer than the signal,
    are absent from the result rather than reported as numbers. Given
    WavHeaders, the files are read block by block, twice at most, and never
    decoded whole.
    """
    _check_pair(reference, estimate)
    series, ids = [], []
    for base, frame_length, hop_length, mean_id, median_id in _FRAMEWISE_SERIES:
        try:
            series.append((base, _grid(reference, frame_length, hop_length)))
        except InvalidInputError:
            continue
        ids.append((mean_id, median_id))
    totals, residual, values = _evaluate(reference, estimate, cfg, series, True)
    size = reference.num_channels * reference.num_frames
    results = {base: value for base in _GLOBAL_IDS if (value := _value(base, totals, residual, size, cfg)) is not None}
    for (mean_id, median_id), kept in zip(ids, values):
        if kept:
            results[mean_id] = _aggregate(kept, Aggregation.MEAN)
            results[median_id] = _aggregate(kept, Aggregation.MEDIAN)
    return {metric_id: results[metric_id] for metric_id in MetricId if metric_id in results}

