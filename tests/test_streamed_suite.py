"""The metric suite reading a pair of WAVE files block by block.

metric_suite walks both signals in the 2**16-frame blocks of the SDR
kernel, once for its sums and once more for the SI-SDR residuals. These
tests pin that walk: WavHeaders give the decoded Waveforms' values bit for
bit, every id lies within the stated tolerance of an exactly rounded
math.fsum reference, the SI-SDR residual survives a near-perfect estimate,
every fault ends in one `error:` line, the working set does not grow with
the song, `suite` stdout matches output recorded before the suite read in
blocks, and the SI-SDR residual pass keeps the bits recorded before its rows
applied their per-unit scales by broadcast.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from demixeval.audio_io import Waveform, read_wav, read_wav_header, write_wav
from demixeval.cli import run
from demixeval.errors import AudioFormatError, CorruptFileError, InvalidInputError
from demixeval.metrics import (
    _ENERGY_BLOCK,
    DB_CLAMP,
    DEFAULT_ENERGY_FLOOR,
    _energies,
    Aggregation,
    MetricConfig,
    MetricId,
    framewise,
    metric_suite,
    streamed_sdr,
)

from helpers import add_partial_frame, write_encoded_wav

RATE = 2000  # a 30 s frame is 60000 frames, so a few blocks hold every series
EPS = MetricConfig().epsilon
FLOOR = DEFAULT_ENERGY_FLOOR
LENGTHS = (
    1, _ENERGY_BLOCK - 1, _ENERGY_BLOCK, _ENERGY_BLOCK + 1, 3 * _ENERGY_BLOCK + 1234,
    RATE - 1, RATE, RATE + 1,
)
CODECS = [("pcm16", False), ("pcm24", False), ("float32", False), ("float32", True)]
LINEAR_IDS = {
    MetricId.GLOBAL_MAE, MetricId.FRAMEWISE_MAE_MEAN, MetricId.FRAMEWISE_MAE_MEDIAN,
    MetricId.GLOBAL_MSE, MetricId.FRAMEWISE_MSE_MEAN, MetricId.FRAMEWISE_MSE_MEDIAN,
}


def _pair(tmp_path, codec, extensible, channels, frames, seed=0):
    """Reference and estimate WAVE files of random audio in one encoding.

    The reference has a silent second, so a 1 s frame is skipped.
    """
    rng = np.random.default_rng([seed, channels, frames])
    reference = np.clip(0.2 * rng.standard_normal((frames, channels)), -1, 0.99)
    reference[3 * RATE : 4 * RATE] = 0.0
    estimate = np.clip(0.8 * reference + 0.05 * rng.standard_normal((frames, channels)), -1, 0.99)
    paths = tmp_path / "reference.wav", tmp_path / "estimate.wav"
    for path, values in zip(paths, (reference, estimate)):
        write_encoded_wav(path, codec, values, RATE, extensible)
    return paths


def _hex(results):
    return {metric_id: value.hex() for metric_id, value in results.items()}


class TestHeadersEqualWaveforms:
    @pytest.mark.parametrize("frames", LENGTHS)
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("codec,extensible", CODECS, ids=["pcm16", "pcm24", "float32", "float32ext"])
    def test_bit_identical(self, tmp_path, codec, extensible, channels, frames):
        ref_path, est_path = _pair(tmp_path, codec, extensible, channels, frames)
        streamed = metric_suite(read_wav_header(ref_path), read_wav_header(est_path))
        in_memory = metric_suite(read_wav(ref_path), read_wav(est_path))
        assert list(streamed) == list(in_memory)
        assert _hex(streamed) == _hex(in_memory)
        # the SDR ids are score's kernel, bit for bit
        ref, est = read_wav(ref_path), read_wav(est_path)
        assert streamed[MetricId.GLOBAL_SDR] == streamed_sdr(read_wav_header(ref_path), read_wav_header(est_path))
        signal, noise = _energies(ref, est)
        if signal:
            assert streamed[MetricId.BSSEVAL_V3_SDR] == max(-DB_CLAMP, min(DB_CLAMP, 10 * math.log10(signal / noise)))

    def test_zero_frames_same_error(self, tmp_path):
        ref_path, est_path = tmp_path / "r.wav", tmp_path / "e.wav"
        for path in (ref_path, est_path):
            write_encoded_wav(path, "float32", np.zeros((0, 2)), RATE)
        for load in (read_wav_header, read_wav):
            with pytest.raises(InvalidInputError, match="^empty waveforms cannot be scored$"):
                metric_suite(load(ref_path), load(est_path))


# ---------------------------------------------------------------------------
# every id against an exactly rounded reference


def _fsum(values) -> float:
    return math.fsum(np.ravel(values).tolist())


def _reference_value(base, ref, est):
    """One global metric of (channels, frames) arrays from math.fsum sums.

    None where the metric is undefined; base is a framewise id's base name.
    """
    diff = ref - est
    signal, noise = _fsum(ref * ref), _fsum(diff * diff)
    if base == "sdr":
        return 10 * math.log10((signal + EPS) / (noise + EPS))
    if base == "mae":
        return _fsum(np.abs(diff)) / ref.size
    if base == "mse":
        return noise / ref.size
    if base == "si_sdr":
        if signal <= FLOOR:
            return None
        scale = _fsum(ref * est) / signal
        residual = _fsum((est - scale * ref) ** 2)
        target = _fsum((scale * ref) ** 2)
        if residual == 0.0:
            return DB_CLAMP
        if target == 0.0:
            return -DB_CLAMP
        return max(-DB_CLAMP, min(DB_CLAMP, 10 * math.log10(target / residual)))
    if signal == 0.0:
        return None
    if noise == 0.0:
        return DB_CLAMP
    return max(-DB_CLAMP, min(DB_CLAMP, 10 * math.log10(signal / noise)))


# framewise id stem: (base, frame s, hop s)
_SERIES = {
    "framewise_sdr": ("sdr", 1, 1),
    "framewise_mae": ("mae", 1, 1),
    "framewise_mse": ("mse", 1, 1),
    "framewise_si_sdr": ("si_sdr", 1, 1),
    "bsseval_v3_framewise_sdr": ("bss", 30, 15),
    "bsseval_v4_framewise_sdr": ("bss", 1, 1),
}


def _reference_suite(ref, est, rate):
    """{id name: value} for every defined id, each frame reduced on its own."""
    out = {}
    for name, base in (("global_sdr", "sdr"), ("global_mae", "mae"), ("global_mse", "mse"),
                       ("global_si_sdr", "si_sdr"), ("bsseval_v3_sdr", "bss")):
        value = _reference_value(base, ref, est)
        if value is not None:
            out[name] = value
    for name, (base, frame_s, hop_s) in _SERIES.items():
        frame, hop = frame_s * rate, hop_s * rate
        values = []
        for start in range(0, ref.shape[1] - frame + 1, hop):
            r, e = ref[:, start : start + frame], est[:, start : start + frame]
            if _fsum(r * r) > FLOOR:
                value = _reference_value(base, r, e)
                if value is not None:
                    values.append(value)
        if values:
            out[f"{name}_mean"] = math.fsum(values) / len(values)
            out[f"{name}_median"] = float(np.median(values))
    return out


def _assert_within_tolerance(results, expected):
    assert {metric_id.value for metric_id in results} == set(expected)
    for metric_id, value in results.items():
        if metric_id in LINEAR_IDS:
            assert value == pytest.approx(expected[metric_id.value], rel=1e-12, abs=0), metric_id
        else:
            assert abs(value - expected[metric_id.value]) <= 1e-10, metric_id


class TestTolerance:
    @pytest.mark.parametrize("frames", [_ENERGY_BLOCK + 1, 3 * _ENERGY_BLOCK + 1234])
    @pytest.mark.parametrize("codec,extensible", CODECS, ids=["pcm16", "pcm24", "float32", "float32ext"])
    def test_every_id_within_tolerance_of_fsum(self, tmp_path, codec, extensible, frames):
        ref_path, est_path = _pair(tmp_path, codec, extensible, 2, frames, seed=1)
        ref, est = read_wav(ref_path), read_wav(est_path)
        expected = _reference_suite(ref.samples, est.samples, RATE)
        _assert_within_tolerance(metric_suite(read_wav_header(ref_path), read_wav_header(est_path)), expected)

    def test_high_si_sdr_residual(self):
        # SI-SDR near 114 dB: the expanded residual sum y**2 - 2a sum s y
        # + a**2 sum s**2 loses about 1e-4 dB here to cancellation
        rng = np.random.default_rng(5)
        frames = 3 * _ENERGY_BLOCK + 1234
        ref = 0.1 * rng.standard_normal((2, frames))
        est = 0.5 * ref + 1e-7 * rng.standard_normal((2, frames))
        results = metric_suite(Waveform(ref, RATE), Waveform(est, RATE))
        expected = _reference_suite(ref, est, RATE)
        assert 100 < expected["global_si_sdr"] < DB_CLAMP
        for name in ("global_si_sdr", "framewise_si_sdr_mean", "framewise_si_sdr_median"):
            assert abs(results[MetricId(name)] - expected[name]) <= 1e-10, name

    @pytest.mark.parametrize("streamed", [False, True])
    def test_identical_pair(self, tmp_path, streamed):
        ref_path, _ = _pair(tmp_path, "float32", False, 2, 3 * _ENERGY_BLOCK + 1234)
        load = read_wav_header if streamed else read_wav
        results = metric_suite(load(ref_path), load(ref_path))
        for name in ("global_si_sdr", "framewise_si_sdr_mean", "framewise_si_sdr_median"):
            assert results[MetricId(name)] == DB_CLAMP
        for name in ("global_mae", "global_mse", "framewise_mae_mean", "framewise_mae_median",
                     "framewise_mse_mean", "framewise_mse_median"):
            assert results[MetricId(name)] == 0.0

    @pytest.mark.parametrize("streamed", [False, True])
    def test_silent_reference_leaves_ids_absent(self, tmp_path, streamed):
        _, est_path = _pair(tmp_path, "pcm16", False, 2, 3 * _ENERGY_BLOCK + 1234)
        silent_path = tmp_path / "silent.wav"
        write_encoded_wav(silent_path, "pcm16", np.zeros((3 * _ENERGY_BLOCK + 1234, 2)), RATE)
        load = read_wav_header if streamed else read_wav
        results = metric_suite(load(silent_path), load(est_path))
        assert list(results) == [MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE, MetricId.GLOBAL_MSE]


# public framewise base: the reference's base name
_BASES = {
    MetricId.GLOBAL_SDR: "sdr",
    MetricId.GLOBAL_MAE: "mae",
    MetricId.GLOBAL_MSE: "mse",
    MetricId.GLOBAL_SI_SDR: "si_sdr",
    MetricId.BSSEVAL_V3_SDR: "bss",
}


@pytest.mark.parametrize("frame_s,hop_s", [(1.0, 0.5), (1.0, 0.3), (0.7, 0.7), (40.0, 10.0)])
@pytest.mark.parametrize("base", list(_BASES), ids=str)
def test_framewise_any_frame_and_hop(base, frame_s, hop_s):
    # overlapping frames cut by block edges, a silent second and a gain
    # change, so SI-SDR frames need their own scales
    rng = np.random.default_rng(9)
    frames = 3 * _ENERGY_BLOCK + 1234
    ref = 0.2 * rng.standard_normal((2, frames))
    ref[:, 3 * RATE : 4 * RATE] = 0.0
    est = np.linspace(0.5, 1.5, frames) * ref + 0.05 * rng.standard_normal((2, frames))
    frame, hop = round(frame_s * RATE), round(hop_s * RATE)
    values = []
    for start in range(0, frames - frame + 1, hop):
        r, e = ref[:, start : start + frame], est[:, start : start + frame]
        if _fsum(r * r) > FLOOR:
            values.append(_reference_value(_BASES[base], r, e))
    for aggregation, expected in ((Aggregation.MEAN, math.fsum(values) / len(values)),
                                  (Aggregation.MEDIAN, float(np.median(values)))):
        got = framewise(base, Waveform(ref, RATE), Waveform(est, RATE), frame_s, hop_s, aggregation)
        if _BASES[base] in ("mae", "mse"):
            assert got == pytest.approx(expected, rel=1e-12, abs=0)
        else:
            assert abs(got - expected) <= 1e-10


class TestWorkingSet:
    # two read buffers, the (4, channels, block) products and the residual
    # rows' scratch: about 3.8 MB measured for stereo
    PEAK_BOUND = 32_000_000

    def _peak(self, tmp_path, seconds):
        frames = seconds * 44100
        rng = np.random.default_rng(seconds)
        reference = 0.1 * rng.standard_normal((2, frames))
        paths = tmp_path / f"ref{seconds}.wav", tmp_path / f"est{seconds}.wav"
        write_wav(Waveform(reference, 44100), paths[0])
        write_wav(Waveform(0.9 * reference + 0.01 * rng.standard_normal((2, frames)), 44100), paths[1])
        del reference
        tracemalloc.start()
        try:
            results = metric_suite(read_wav_header(paths[0]), read_wav_header(paths[1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for path in paths:
            path.unlink()
        assert len(results) == (17 if seconds >= 30 else 15)  # v3 frames are 30 s
        return peak

    def test_peak_bounded_and_flat_in_song_length(self, tmp_path):
        short = self._peak(tmp_path, 20)
        long = self._peak(tmp_path, 60)
        # one decoded 60-s stereo file alone is 42 MB
        assert long < self.PEAK_BOUND
        assert long - short < 256 * 1024


class TestErrorOrder:
    """Every header and shape check runs before any sample is decoded."""

    def _poison(self, path, offset):
        """Overwrite the float32 sample `offset` bytes into the data chunk with NaN."""
        raw = bytearray(path.read_bytes())
        start = raw.index(b"data") + 8 + offset
        raw[start : start + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))

    def test_broken_header_wins_over_nan(self, tmp_path):
        ref_path, est_path = _pair(tmp_path, "float32", False, 2, _ENERGY_BLOCK + 1)
        self._poison(ref_path, 0)
        est_path.write_bytes(b"OggS" + bytes(40))
        with pytest.raises(AudioFormatError, match="not a RIFF/WAVE file"):
            metric_suite(read_wav_header(ref_path), read_wav_header(est_path))

    def test_shape_mismatch_wins_over_nan(self, tmp_path):
        ref_path, _ = _pair(tmp_path, "float32", False, 2, _ENERGY_BLOCK + 1)
        (tmp_path / "short").mkdir()
        _, est_path = _pair(tmp_path / "short", "float32", False, 2, _ENERGY_BLOCK)
        self._poison(ref_path, 0)
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            metric_suite(read_wav_header(ref_path), read_wav_header(est_path))

    def test_nan_raised_at_the_block_that_holds_it(self, tmp_path):
        ref_path, est_path = _pair(tmp_path, "float32", False, 2, 3 * _ENERGY_BLOCK + 1234)
        self._poison(ref_path, 2 * _ENERGY_BLOCK * 8)  # block 2
        self._poison(est_path, 8)  # block 0
        with pytest.raises(CorruptFileError) as excinfo:
            metric_suite(read_wav_header(ref_path), read_wav_header(est_path))
        assert str(excinfo.value) == f"{est_path}: float data contains NaN or Inf"


# ---------------------------------------------------------------------------
# `suite` through the CLI


def _recorded_pair(root, codec):
    """A 65-s 4 kHz pair in one encoding: 4 blocks, three 30-s frames.

    The reference is silent from 10 s to 22 s and the estimate noisy there.
    """
    rate = 4000
    rng = np.random.default_rng(65)
    frames = 65 * rate
    t = np.arange(frames) / rate
    reference = 0.3 * np.sin(2 * np.pi * 220 * t)[:, None] * np.array([1.0, 0.5])
    reference = reference + 0.05 * rng.standard_normal((frames, 2))
    reference[10 * rate : 22 * rate] = 0.0
    estimate = 0.9 * reference + 0.02 * rng.standard_normal((frames, 2))
    paths = root / f"{codec}_reference.wav", root / f"{codec}_estimate.wav"
    for path, values in zip(paths, (reference, estimate)):
        write_encoded_wav(path, codec, np.clip(values, -1, 0.99), rate)
    return paths


def _suite(ref_path, est_path, capsys):
    code = run(["suite", "--reference", str(ref_path), "--estimate", str(est_path)])
    captured = capsys.readouterr()
    kept = "".join(line for line in captured.out.splitlines(True) if not line.startswith(("# reference", "# estimate")))
    return code, kept, captured.err


# `suite` stdout without the two lines naming the files, recorded before the
# suite read its files in blocks
RECORDED_STDOUT = {
    "pcm16": """\
# command = suite
# epsilon = 1e-07
# framewise_frames = 1s/1s (30s/15s for bsseval_v3_framewise)
metric,value
global_sdr,15.8514
framewise_sdr_mean,16.3778
framewise_sdr_median,16.3867
global_mae,0.0203563
framewise_mae_mean,0.0213483
framewise_mae_median,0.0213468
global_mse,0.00064907
framewise_mse_mean,0.000705211
framewise_mse_median,0.000703879
global_si_sdr,17.0313
framewise_si_sdr_mean,17.9189
framewise_si_sdr_median,17.9131
bsseval_v3_sdr,15.8514
bsseval_v3_framewise_sdr_mean,15.6805
bsseval_v3_framewise_sdr_median,15.6909
bsseval_v4_framewise_sdr_mean,16.3778
bsseval_v4_framewise_sdr_median,16.3867
""",
    "pcm24": """\
# command = suite
# epsilon = 1e-07
# framewise_frames = 1s/1s (30s/15s for bsseval_v3_framewise)
metric,value
global_sdr,15.8514
framewise_sdr_mean,16.3778
framewise_sdr_median,16.3868
global_mae,0.0203563
framewise_mae_mean,0.0213483
framewise_mae_median,0.0213468
global_mse,0.000649069
framewise_mse_mean,0.00070521
framewise_mse_median,0.000703882
global_si_sdr,17.0313
framewise_si_sdr_mean,17.9189
framewise_si_sdr_median,17.913
bsseval_v3_sdr,15.8514
bsseval_v3_framewise_sdr_mean,15.6805
bsseval_v3_framewise_sdr_median,15.6909
bsseval_v4_framewise_sdr_mean,16.3778
bsseval_v4_framewise_sdr_median,16.3868
""",
    "float32": """\
# command = suite
# epsilon = 1e-07
# framewise_frames = 1s/1s (30s/15s for bsseval_v3_framewise)
metric,value
global_sdr,15.8514
framewise_sdr_mean,16.3778
framewise_sdr_median,16.3868
global_mae,0.0203563
framewise_mae_mean,0.0213483
framewise_mae_median,0.0213468
global_mse,0.000649069
framewise_mse_mean,0.00070521
framewise_mse_median,0.000703882
global_si_sdr,17.0313
framewise_si_sdr_mean,17.9189
framewise_si_sdr_median,17.913
bsseval_v3_sdr,15.8514
bsseval_v3_framewise_sdr_mean,15.6805
bsseval_v3_framewise_sdr_median,15.6909
bsseval_v4_framewise_sdr_mean,16.3778
bsseval_v4_framewise_sdr_median,16.3868
""",
}


@pytest.mark.parametrize("codec", ["pcm16", "pcm24", "float32"])
def test_suite_output_matches_recorded(tmp_path, capsys, codec):
    code, stdout, err = _suite(*_recorded_pair(tmp_path, codec), capsys)
    assert (code, err) == (0, "")
    assert stdout == RECORDED_STDOUT[codec]


@pytest.fixture
def cli_pair(tmp_path):
    return _pair(tmp_path, "float32", False, 2, 3 * _ENERGY_BLOCK + 1234)


def _cli_error(ref_path, est_path, capsys):
    code, stdout, err = _suite(ref_path, est_path, capsys)
    assert (code, stdout) == (1, "")
    assert "Traceback" not in err
    return err


def test_cli_nan_in_last_block(cli_pair, capsys):
    ref_path, est_path = cli_pair
    raw = bytearray(est_path.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    est_path.write_bytes(bytes(raw))
    assert _cli_error(ref_path, est_path, capsys) == f"error: {est_path}: float data contains NaN or Inf\n"


def test_cli_truncated_data_chunk(cli_pair, capsys):
    ref_path, est_path = cli_pair
    raw = est_path.read_bytes()
    est_path.write_bytes(raw[: len(raw) // 2])
    size = len(raw) - raw.index(b"data") - 8
    assert _cli_error(ref_path, est_path, capsys) == (
        f"error: {est_path}: data chunk declares {size} bytes but the file ends early\n"
    )


def test_cli_partial_frame(cli_pair, capsys):
    ref_path, est_path = cli_pair
    add_partial_frame(est_path)
    assert _cli_error(ref_path, est_path, capsys) == f"error: {est_path}: data chunk holds a partial frame\n"


def test_cli_broken_header(cli_pair, capsys):
    ref_path, est_path = cli_pair
    ref_path.write_bytes(b"OggS" + bytes(40))
    assert _cli_error(ref_path, est_path, capsys) == f"error: {ref_path}: not a RIFF/WAVE file\n"


def test_cli_estimate_header_checked_before_reference_samples(cli_pair, capsys):
    ref_path, est_path = cli_pair
    raw = bytearray(ref_path.read_bytes())
    start = raw.index(b"data") + 8
    raw[start : start + 4] = struct.pack("<f", float("nan"))
    ref_path.write_bytes(bytes(raw))
    est_path.write_bytes(b"OggS" + bytes(40))
    assert _cli_error(ref_path, est_path, capsys) == f"error: {est_path}: not a RIFF/WAVE file\n"


@pytest.mark.parametrize(
    "channels,frames,rate,detail",
    [
        (2, 99, RATE, "shape mismatch: reference (2, 100) vs estimate (2, 99)"),
        (1, 100, RATE, "shape mismatch: reference (2, 100) vs estimate (1, 100)"),
        (2, 100, 16000, "sample rate mismatch: 2000 vs 16000"),
    ],
)
def test_cli_mismatch(tmp_path, capsys, channels, frames, rate, detail):
    ref_path, est_path = tmp_path / "r.wav", tmp_path / "e.wav"
    write_encoded_wav(ref_path, "float32", np.zeros((100, 2)), RATE)
    write_encoded_wav(est_path, "float32", np.zeros((frames, channels)), rate)
    assert _cli_error(ref_path, est_path, capsys) == f"error: {detail}\n"


# ---------------------------------------------------------------------------
# SI-SDR residual bits

# (channels, frames, rate, framewise SI-SDR frame s and hop s): 1 s units cut
# by block edges, overlapping frames, a unit longer than a block (88200
# frames), a one-sample unit (1401 and 1000 frames are coprime) and a signal
# shorter than the suite's 1 s unit
RESIDUAL_CASES = {
    "unit-1s": (2, 3 * _ENERGY_BLOCK + 1234, RATE, 1.0, 1.0),
    "half-hop": (2, 3 * _ENERGY_BLOCK + 1234, RATE, 1.0, 0.5),
    "unit-0.7s": (1, 3 * _ENERGY_BLOCK + 1234, RATE, 0.7, 0.7),
    "unit-over-block": (1, 3 * _ENERGY_BLOCK + 1234, 44100, 2.0, 2.0),
    "unit-1-sample": (3, 3 * _ENERGY_BLOCK + 1234, RATE, 0.7005, 0.5),
    "shorter-than-unit": (2, RATE - 500, RATE, 0.5, 0.25),
}


def _residual_bits(channels, frames, rate, frame_s, hop_s):
    """float.hex of every metric_suite value and of framewise SI-SDR's mean and median.

    The reference has a silent second at 3 s and the estimate's gain drifts,
    so each frame's SI-SDR scale differs.
    """
    rng = np.random.default_rng([channels, frames, rate, round(frame_s * rate), round(hop_s * rate)])
    ref = 0.2 * rng.standard_normal((channels, frames))
    ref[:, 3 * rate : 4 * rate] = 0.0
    est = np.linspace(0.5, 1.5, frames) * ref + 0.05 * rng.standard_normal((channels, frames))
    reference, estimate = Waveform(ref, rate), Waveform(est, rate)
    bits = {str(metric_id): value.hex() for metric_id, value in metric_suite(reference, estimate).items()}
    for aggregation in Aggregation:
        bits[f"framewise_si_sdr_{aggregation.value}"] = framewise(
            MetricId.GLOBAL_SI_SDR, reference, estimate, frame_s, hop_s, aggregation
        ).hex()
    return bits


# _residual_bits of each case, recorded before the residual rows applied their
# per-unit scales by broadcast
RECORDED_RESIDUAL_BITS = {
    "unit-1s": {
        "global_sdr": "0x1.0c7af86292e90p+3",
        "framewise_sdr_mean": "0x1.1fec03ed774aap+3",
        "framewise_sdr_median": "0x1.25eb12b8ee0d5p+3",
        "global_mae": "0x1.debaa9cd460a9p-5",
        "framewise_mae_mean": "0x1.de1bd5e86e9eep-5",
        "framewise_mae_median": "0x1.c9436456f65e7p-5",
        "global_mse": "0x1.772d9657f5e0ap-8",
        "framewise_mse_mean": "0x1.7588270ff10f1p-8",
        "framewise_mse_median": "0x1.404173d7ed9f9p-8",
        "global_si_sdr": "0x1.0dd06e625afd6p+3",
        "framewise_si_sdr_mean": "0x1.750414e80c26cp+3",
        "framewise_si_sdr_median": "0x1.7ecfb30e3d478p+3",
        "bsseval_v3_sdr": "0x1.0c7af862a9717p+3",
        "bsseval_v3_framewise_sdr_mean": "0x1.31d1bb80bd376p+3",
        "bsseval_v3_framewise_sdr_median": "0x1.351f838a85fa4p+3",
        "bsseval_v4_framewise_sdr_mean": "0x1.1fec03f9118c5p+3",
        "bsseval_v4_framewise_sdr_median": "0x1.25eb12c36b491p+3",
    },
    "half-hop": {
        "global_sdr": "0x1.0c0e0ba2171d9p+3",
        "framewise_sdr_mean": "0x1.1fac4c1e837ecp+3",
        "framewise_sdr_median": "0x1.252617b69f256p+3",
        "global_mae": "0x1.dedd2c4e0ede7p-5",
        "framewise_mae_mean": "0x1.ddff4a56829fcp-5",
        "framewise_mae_median": "0x1.c51953b97453dp-5",
        "global_mse": "0x1.771aa247dd987p-8",
        "framewise_mse_mean": "0x1.750ce55b3815ap-8",
        "framewise_mse_median": "0x1.3af793621d6aep-8",
        "global_si_sdr": "0x1.0d105ae2593a6p+3",
        "framewise_si_sdr_mean": "0x1.7338ec0d15babp+3",
        "framewise_si_sdr_median": "0x1.8272ebbe67de0p+3",
        "bsseval_v3_sdr": "0x1.0c0e0ba22da42p+3",
        "bsseval_v3_framewise_sdr_mean": "0x1.314b7e6007613p+3",
        "bsseval_v3_framewise_sdr_median": "0x1.334d0ba9d12b9p+3",
        "bsseval_v4_framewise_sdr_mean": "0x1.1fac4c2a23e6ap+3",
        "bsseval_v4_framewise_sdr_median": "0x1.252617c1892cap+3",
    },
    "unit-0.7s": {
        "global_sdr": "0x1.0ba170eb4aa58p+3",
        "framewise_sdr_mean": "0x1.1f663a131f82cp+3",
        "framewise_sdr_median": "0x1.22258ac9af0a8p+3",
        "global_mae": "0x1.e085983bfb83fp-5",
        "framewise_mae_mean": "0x1.dfa8af9d8cc8bp-5",
        "framewise_mae_median": "0x1.cd372c5b16fcdp-5",
        "global_mse": "0x1.7a5c68e393bb7p-8",
        "framewise_mse_mean": "0x1.78406ce346926p-8",
        "framewise_mse_median": "0x1.46acf0c6382aep-8",
        "global_si_sdr": "0x1.0cd41cc7fa5fbp+3",
        "framewise_si_sdr_mean": "0x1.71bb1c2376d24p+3",
        "framewise_si_sdr_median": "0x1.7e4608d878d1cp+3",
        "bsseval_v3_sdr": "0x1.0ba170eb77497p+3",
        "bsseval_v3_framewise_sdr_mean": "0x1.3128566aa5b23p+3",
        "bsseval_v3_framewise_sdr_median": "0x1.343e449ea24fcp+3",
        "bsseval_v4_framewise_sdr_mean": "0x1.1f663a2a38817p+3",
        "bsseval_v4_framewise_sdr_median": "0x1.22258addfc6d4p+3",
    },
    "unit-over-block": {
        "global_sdr": "0x1.f749ed1243a22p+2",
        "framewise_sdr_mean": "0x1.2f6c387c6b3c1p+3",
        "framewise_sdr_median": "0x1.47d3282faf181p+3",
        "global_mae": "0x1.bdec18f5bb8dcp-5",
        "framewise_mae_mean": "0x1.c187a271ef5d3p-5",
        "framewise_mae_median": "0x1.8ff2ef05f3418p-5",
        "global_mse": "0x1.4da5f00b36e3cp-8",
        "framewise_mse_mean": "0x1.4d189b4ce6cafp-8",
        "framewise_mse_median": "0x1.f293964d217ecp-9",
        "global_si_sdr": "0x1.d3e2ebb5b675ep+2",
        "framewise_si_sdr_mean": "0x1.19e77838c4295p+3",
        "framewise_si_sdr_median": "0x1.19e77838c4295p+3",
        "bsseval_v3_sdr": "0x1.f749ed12a6c5bp+2",
        "bsseval_v4_framewise_sdr_mean": "0x1.2f6c387d95df1p+3",
        "bsseval_v4_framewise_sdr_median": "0x1.47d32830f1485p+3",
    },
    "unit-1-sample": {
        "global_sdr": "0x1.0c2999f7f864ap+3",
        "framewise_sdr_mean": "0x1.1fea24d76e366p+3",
        "framewise_sdr_median": "0x1.1e951877a716ep+3",
        "global_mae": "0x1.dea7b87a556f5p-5",
        "framewise_mae_mean": "0x1.ddf6726718bb3p-5",
        "framewise_mae_median": "0x1.c7315b52ad72cp-5",
        "global_mse": "0x1.7763a68b7cacfp-8",
        "framewise_mse_mean": "0x1.7594a17390122p-8",
        "framewise_mse_median": "0x1.40de6d5b7439ap-8",
        "global_si_sdr": "0x1.0d093ebda9c28p+3",
        "framewise_si_sdr_mean": "0x1.737689187c0e5p+3",
        "framewise_si_sdr_median": "0x1.7fa3f5595c53ep+3",
        "bsseval_v3_sdr": "0x1.0c2999f80766ap+3",
        "bsseval_v3_framewise_sdr_mean": "0x1.314e1d7e391a8p+3",
        "bsseval_v3_framewise_sdr_median": "0x1.3357075564ab8p+3",
        "bsseval_v4_framewise_sdr_mean": "0x1.1fea24df323edp+3",
        "bsseval_v4_framewise_sdr_median": "0x1.1e95187e94898p+3",
    },
    "shorter-than-unit": {
        "global_sdr": "0x1.0964ebec6185bp+3",
        "global_mae": "0x1.e38aad603133dp-5",
        "global_mse": "0x1.821c69014e2f2p-8",
        "global_si_sdr": "0x1.0b74a0c148a64p+3",
        "bsseval_v3_sdr": "0x1.0964ebf79e59ep+3",
        "framewise_si_sdr_mean": "0x1.3e209cda6dc2ep+3",
        "framewise_si_sdr_median": "0x1.3e209cda6dc2ep+3",
    },
}


@pytest.mark.parametrize("case", list(RESIDUAL_CASES))
def test_residual_bits_match_recorded(case):
    assert _residual_bits(*RESIDUAL_CASES[case]) == RECORDED_RESIDUAL_BITS[case]
