import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demixeval.audio_io import StemKind, Waveform
from demixeval.errors import InvalidInputError, UndefinedMetricError
from demixeval.harness import SongScore
from demixeval.metrics import (
    DB_CLAMP,
    Aggregation,
    MetricConfig,
    MetricId,
    framewise,
    global_sdr,
    metric_suite,
)
from demixeval.metrics import _ENERGY_BLOCK, _aggregate, _energies

from helpers import noise_waveform

EPS = 1e-7


def two_line_sdr_oracle(ref, est, eps=EPS):
    """Independent energy-ratio computation of the stabilized SDR."""
    num = np.sum(np.asarray(ref) ** 2) + eps
    den = np.sum((np.asarray(ref) - np.asarray(est)) ** 2) + eps
    return 10 * np.log10(num / den)


class TestGlobalSdr:
    def test_silent_silent_is_zero(self):
        silent = Waveform(np.zeros((2, 100)), 8000)
        assert global_sdr(silent, silent) == 0.0

    def test_silent_estimate_is_zero(self, rng):
        ref = noise_waveform(rng)
        silent = Waveform(np.zeros(ref.samples.shape), ref.sample_rate)
        assert global_sdr(ref, silent) == 0.0

    def test_doubled_estimate_is_zero(self, rng):
        ref = noise_waveform(rng)
        doubled = Waveform(2.0 * ref.samples, ref.sample_rate)
        assert global_sdr(ref, doubled) == 0.0

    def test_matches_energy_ratio_oracle(self, rng):
        for _ in range(50):
            ref = noise_waveform(rng, frames=1500)
            est = Waveform(
                ref.samples + 0.05 * rng.standard_normal(ref.samples.shape),
                ref.sample_rate,
            )
            expected = two_line_sdr_oracle(ref.samples, est.samples)
            assert global_sdr(ref, est) == pytest.approx(expected, abs=1e-9)

    def test_shape_mismatch(self, rng):
        a = noise_waveform(rng, frames=100)
        b = noise_waveform(rng, frames=101)
        with pytest.raises(InvalidInputError):
            global_sdr(a, b)

    def test_rate_mismatch(self, rng):
        a = noise_waveform(rng, rate=8000)
        b = Waveform(a.samples, 16000)
        with pytest.raises(InvalidInputError):
            global_sdr(a, b)

    def test_scaling_changes_only_through_epsilon(self, rng):
        # with the stabilizer removed, joint scaling by powers of two is exact
        ref = noise_waveform(rng, frames=800)
        est = Waveform(ref.samples + 0.1 * rng.standard_normal(ref.samples.shape), 8000)
        base = metric_suite(ref, est)[MetricId.BSSEVAL_V3_SDR]
        for scale in (0.25, 0.5, 2.0, 8.0):
            scaled = metric_suite(
                Waveform(scale * ref.samples, 8000), Waveform(scale * est.samples, 8000)
            )[MetricId.BSSEVAL_V3_SDR]
            assert scaled == base


class TestEnergyReduction:
    """The blocked SDR energy sums: stated tolerance and layout independence."""

    @staticmethod
    def fsum_energies(ref, est):
        diff = ref - est
        return math.fsum((ref * ref).ravel()), math.fsum((diff * diff).ravel())

    def assert_within_tolerance(self, ref, est):
        for got, exact in zip(_energies(Waveform(ref, 8000), Waveform(est, 8000)), self.fsum_energies(ref, est)):
            assert abs(got - exact) <= 1e-12 * exact

    def test_random_signal_matches_fsum(self, rng):
        ref = rng.standard_normal((2, 3 * _ENERGY_BLOCK + 1234))
        est = ref + 0.1 * rng.standard_normal(ref.shape)
        self.assert_within_tolerance(ref, est)

    def test_high_dynamic_range_matches_fsum(self, rng):
        # blocks alternate between 1e-6 and full scale
        ref = rng.uniform(-1.0, 1.0, (2, 6 * _ENERGY_BLOCK))
        est = ref + 1e-3 * rng.standard_normal(ref.shape)
        for block in range(1, 6, 2):
            span = slice(block * _ENERGY_BLOCK, (block + 1) * _ENERGY_BLOCK)
            ref[:, span] *= 1e-6
            est[:, span] *= 1e-6
        self.assert_within_tolerance(ref, est)

    def test_bits_independent_of_call_and_layout(self, rng):
        frames = 2 * _ENERGY_BLOCK + 777
        ref = rng.standard_normal((2, frames))
        est = ref + 0.05 * rng.standard_normal(ref.shape)
        strided = np.zeros((2, 2 * frames))
        strided[:, ::2] = ref
        strided_est = np.zeros((2, 2 * frames))
        strided_est[:, ::2] = est
        layouts = [
            (ref, est),
            (strided[:, ::2], strided_est[:, ::2]),
            (np.asfortranarray(ref), np.asfortranarray(est)),
        ]
        expected = _energies(Waveform(ref, 8000), Waveform(est, 8000))
        contiguous = Waveform(ref, 8000), Waveform(est, 8000)
        sdr = global_sdr(*contiguous)
        v3 = metric_suite(*contiguous)[MetricId.BSSEVAL_V3_SDR]
        for r, e in layouts:
            assert _energies(Waveform(r, 8000), Waveform(e, 8000)) == expected
            assert _energies(Waveform(r, 8000), Waveform(e, 8000)) == expected  # repeated call
            pair = Waveform(r, 8000), Waveform(e, 8000)
            assert global_sdr(*pair) == sdr
            assert metric_suite(*pair)[MetricId.BSSEVAL_V3_SDR] == v3
            assert framewise(MetricId.GLOBAL_SDR, *pair, frames / 8000, frames / 8000) == sdr


class TestMaeMse:
    def test_identical_signals(self, rng):
        ref = noise_waveform(rng)
        assert metric_suite(ref, ref)[MetricId.GLOBAL_MAE] == 0.0
        assert metric_suite(ref, ref)[MetricId.GLOBAL_MSE] == 0.0

    def test_constant_offset(self, rng):
        ref = noise_waveform(rng, frames=256)
        offset = 0.125  # power of two keeps the arithmetic exact
        est = Waveform(ref.samples + offset, ref.sample_rate)
        assert metric_suite(ref, est)[MetricId.GLOBAL_MAE] == offset
        assert metric_suite(ref, est)[MetricId.GLOBAL_MSE] == pytest.approx(offset**2, rel=1e-14)

    def test_matches_elementwise_loop(self, rng):
        ref = noise_waveform(rng, channels=2, frames=300)
        est = noise_waveform(rng, channels=2, frames=300)
        abs_total = 0.0
        sq_total = 0.0
        for c in range(2):
            for n in range(300):
                diff = ref.samples[c, n] - est.samples[c, n]
                abs_total += abs(diff)
                sq_total += diff * diff
        count = 2 * 300
        assert metric_suite(ref, est)[MetricId.GLOBAL_MAE] == pytest.approx(abs_total / count, rel=1e-12)
        assert metric_suite(ref, est)[MetricId.GLOBAL_MSE] == pytest.approx(sq_total / count, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        data=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 2), st.integers(1, 64)),
            # zero or clearly away from zero; squared subnormals would underflow
            elements=st.one_of(
                st.just(0.0),
                st.floats(1e-6, 1.0),
                st.floats(-1.0, -1e-6),
            ),
        )
    )
    def test_nonnegative_and_zero_iff_identical(self, data):
        ref = Waveform(data, 8000)
        est = Waveform(np.zeros_like(data), 8000)
        assert metric_suite(ref, est)[MetricId.GLOBAL_MAE] >= 0.0
        assert metric_suite(ref, est)[MetricId.GLOBAL_MSE] >= 0.0
        identical = bool(np.all(data == 0.0))
        assert (metric_suite(ref, est)[MetricId.GLOBAL_MSE] == 0.0) == identical
        assert (metric_suite(ref, est)[MetricId.GLOBAL_MAE] == 0.0) == identical


class TestSiSdr:
    def test_scaled_estimate_hits_clamp(self, rng):
        ref = noise_waveform(rng)
        for scale in (0.1, 1.0, 7.5):
            est = Waveform(scale * ref.samples, ref.sample_rate)
            assert metric_suite(ref, est)[MetricId.GLOBAL_SI_SDR] == DB_CLAMP

    def test_scale_invariance_exact_for_pow2(self, rng):
        for frames in (4000, 20000):  # 20000 (2.5 s): the residual summed per 1-s unit
            ref = noise_waveform(rng, frames=frames)
            est = Waveform(ref.samples + 0.2 * rng.standard_normal(ref.samples.shape), 8000)
            base = metric_suite(ref, est)[MetricId.GLOBAL_SI_SDR]
            for scale in (0.25, 2.0, 1024.0):
                assert metric_suite(ref, Waveform(scale * est.samples, 8000))[MetricId.GLOBAL_SI_SDR] == base

    def test_orthogonal_estimate_hits_negative_clamp(self):
        ref = np.zeros((1, 8))
        ref[0, 0] = 1.0
        est = np.zeros((1, 8))
        est[0, 1] = 1.0
        assert metric_suite(Waveform(ref, 8000), Waveform(est, 8000))[MetricId.GLOBAL_SI_SDR] == -DB_CLAMP

    def test_silent_reference_undefined(self, rng):
        silent = Waveform(np.zeros((2, 64)), 8000)
        assert MetricId.GLOBAL_SI_SDR not in metric_suite(silent, noise_waveform(rng, frames=64))

    def test_matches_projection_oracle(self, rng):
        for _ in range(30):
            ref = noise_waveform(rng, frames=900)
            est = Waveform(
                0.8 * ref.samples + 0.1 * rng.standard_normal(ref.samples.shape), 8000
            )
            s = ref.samples.ravel()
            y = est.samples.ravel()
            # least-squares projection computed independently
            alpha = np.linalg.lstsq(s[:, None], y, rcond=None)[0][0]
            target = alpha * s
            expected = 10 * np.log10(np.sum(target**2) / np.sum((y - target) ** 2))
            assert metric_suite(ref, est)[MetricId.GLOBAL_SI_SDR] == pytest.approx(expected, abs=1e-9)


class TestBssEvalV3:
    def test_perfect_estimate_clamps(self, rng):
        ref = noise_waveform(rng)
        assert metric_suite(ref, ref)[MetricId.BSSEVAL_V3_SDR] == DB_CLAMP

    def test_silent_reference_undefined_but_global_sdr_defined(self, rng):
        silent = Waveform(np.zeros((2, 64)), 8000)
        est = noise_waveform(rng, frames=64)
        assert MetricId.BSSEVAL_V3_SDR not in metric_suite(silent, est)
        assert math.isfinite(global_sdr(silent, est))

    def test_epsilon_equivalence(self, rng):
        for _ in range(20):
            base = rng.standard_normal((2, 2000))
            ref = Waveform(base / np.sqrt(np.mean(base**2)) * 0.5, 8000)  # energy >> epsilon
            est = Waveform(ref.samples + 0.3 * rng.standard_normal((2, 2000)), 8000)
            signal_energy = np.sum(ref.samples**2)
            noise_energy = np.sum((ref.samples - est.samples) ** 2)
            bound = 10 * np.log10(1 + EPS / min(signal_energy, noise_energy))
            difference = abs(metric_suite(ref, est)[MetricId.BSSEVAL_V3_SDR] - global_sdr(ref, est))
            assert difference <= bound + 1e-12


class TestFramewise:
    def test_single_full_frame_equals_global(self, rng):
        ref = noise_waveform(rng, frames=2400, rate=800)
        est = Waveform(ref.samples + 0.1 * rng.standard_normal((2, 2400)), 800)
        assert framewise(MetricId.GLOBAL_SDR, ref, est, 3.0, 3.0) == global_sdr(ref, est)
        assert framewise(MetricId.GLOBAL_MAE, ref, est, 3.0, 3.0) == metric_suite(ref, est)[MetricId.GLOBAL_MAE]

    def test_identical_frames_mean_equals_median(self, rng):
        block_ref = rng.standard_normal((2, 500))
        block_est = block_ref + 0.1 * rng.standard_normal((2, 500))
        ref = Waveform(np.tile(block_ref, 6), 500)
        est = Waveform(np.tile(block_est, 6), 500)
        per_frame = global_sdr(Waveform(block_ref, 500), Waveform(block_est, 500))
        assert framewise(MetricId.GLOBAL_SDR, ref, est, 1.0, 1.0) == pytest.approx(per_frame, abs=1e-12)
        assert framewise(MetricId.GLOBAL_SDR, ref, est, 1.0, 1.0, Aggregation.MEDIAN) == pytest.approx(per_frame, abs=1e-12)

    def test_matches_bruteforce_oracle(self, rng):
        rate = 1000
        ref = noise_waveform(rng, frames=10 * rate, rate=rate)
        est = Waveform(ref.samples + 0.2 * rng.standard_normal((2, 10 * rate)), rate)
        values = []
        for start in range(0, 10 * rate - rate + 1, rate):
            r = ref.samples[:, start : start + rate]
            e = est.samples[:, start : start + rate]
            values.append(two_line_sdr_oracle(r, e))
        assert len(values) == 10
        assert framewise(MetricId.GLOBAL_SDR, ref, est, 1.0, 1.0) == pytest.approx(
            np.mean(values), abs=1e-9
        )

    def test_median_matches_order_statistics_oracle(self, rng):
        rate = 400
        ref = noise_waveform(rng, frames=7 * rate, rate=rate)
        est = Waveform(ref.samples + 0.2 * rng.standard_normal((2, 7 * rate)), rate)
        values = sorted(
            two_line_sdr_oracle(
                ref.samples[:, s : s + rate], est.samples[:, s : s + rate]
            )
            for s in range(0, 7 * rate - rate + 1, rate)
        )
        middle = values[len(values) // 2]  # 7 frames, odd count
        assert framewise(MetricId.GLOBAL_SDR, ref, est, 1.0, 1.0, Aggregation.MEDIAN) == pytest.approx(middle, abs=1e-12)

    def test_silent_reference_frames_skipped(self, rng):
        rate = 500
        loud = rng.standard_normal((1, rate))
        ref = Waveform(np.concatenate([loud, np.zeros((1, rate)), loud], axis=1), rate)
        est = Waveform(ref.samples + 0.1 * rng.standard_normal((1, 3 * rate)), rate)
        got = framewise(MetricId.GLOBAL_SDR, ref, est, 1.0, 1.0)
        kept = [
            two_line_sdr_oracle(ref.samples[:, s : s + rate], est.samples[:, s : s + rate])
            for s in (0, 2 * rate)
        ]
        assert got == pytest.approx(np.mean(kept), abs=1e-12)

    def test_all_silent_reference_undefined(self, rng):
        rate = 100
        ref = Waveform(np.zeros((1, 3 * rate)), rate)
        est = noise_waveform(rng, channels=1, frames=3 * rate, rate=rate)
        with pytest.raises(UndefinedMetricError):
            framewise(MetricId.GLOBAL_SDR, ref, est, 1.0, 1.0)

    def test_signal_shorter_than_frame_rejected(self, rng):
        ref = noise_waveform(rng, frames=100, rate=1000)
        est = noise_waveform(rng, frames=100, rate=1000)
        with pytest.raises(InvalidInputError):
            framewise(MetricId.GLOBAL_SDR, ref, est, 1.0, 1.0)

    def test_rejects_framewise_metric_id(self, rng):
        ref = noise_waveform(rng)
        with pytest.raises(InvalidInputError):
            framewise(MetricId.FRAMEWISE_SDR_MEAN, ref, ref, 0.1, 0.1)

    def test_trailing_partial_frame_discarded(self, rng):
        rate = 300
        ref = noise_waveform(rng, frames=int(2.6 * rate), rate=rate)
        est = Waveform(ref.samples + 0.1 * rng.standard_normal(ref.samples.shape), rate)
        starts = [0, rate]  # frame at 2*rate would run past 2.6*rate
        expected = np.mean(
            [
                two_line_sdr_oracle(
                    ref.samples[:, s : s + rate], est.samples[:, s : s + rate]
                )
                for s in starts
            ]
        )
        assert framewise(MetricId.GLOBAL_SDR, ref, est, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)


class TestMetricSuite:
    def test_identical_signals(self, rng):
        ref = noise_waveform(rng, frames=1600, rate=800)
        results = metric_suite(ref, ref)
        energy = np.sum(ref.samples**2)
        assert results[MetricId.GLOBAL_SDR] == pytest.approx(
            10 * np.log10((energy + EPS) / EPS)
        )
        assert results[MetricId.GLOBAL_MAE] == 0.0
        assert results[MetricId.GLOBAL_MSE] == 0.0
        assert results[MetricId.GLOBAL_SI_SDR] == DB_CLAMP

    def test_silent_estimate(self, rng):
        ref = noise_waveform(rng, frames=1600, rate=800)
        silent = Waveform(np.zeros((2, 1600)), 800)
        results = metric_suite(ref, silent)
        assert results[MetricId.GLOBAL_SDR] == 0.0
        assert MetricId.GLOBAL_SI_SDR in results
        assert math.isfinite(results[MetricId.GLOBAL_SI_SDR])
        assert MetricId.BSSEVAL_V3_SDR in results

    def test_silent_reference_entries_absent(self, rng):
        silent = Waveform(np.zeros((2, 1600)), 800)
        est = noise_waveform(rng, frames=1600, rate=800)
        results = metric_suite(silent, est)
        assert MetricId.GLOBAL_SDR in results
        assert MetricId.GLOBAL_SI_SDR not in results
        assert MetricId.BSSEVAL_V3_SDR not in results

    def test_short_signal_drops_long_frame_metrics(self, rng):
        ref = noise_waveform(rng, frames=4000, rate=2000)  # 2 s
        est = Waveform(ref.samples + 0.1 * rng.standard_normal((2, 4000)), 2000)
        results = metric_suite(ref, est)
        assert MetricId.BSSEVAL_V3_FRAMEWISE_SDR_MEAN not in results
        assert MetricId.BSSEVAL_V3_FRAMEWISE_SDR_MEDIAN not in results
        assert MetricId.FRAMEWISE_SDR_MEAN in results

    def test_consistency_with_standalone_operations(self, rng):
        ref = noise_waveform(rng, frames=6000, rate=2000)
        est = Waveform(ref.samples + 0.2 * rng.standard_normal((2, 6000)), 2000)
        cfg = MetricConfig()
        results = metric_suite(ref, est, cfg)
        assert results[MetricId.GLOBAL_SDR] == global_sdr(ref, est, cfg)
        # one 3-s frame is the whole signal
        for base in (MetricId.GLOBAL_MAE, MetricId.GLOBAL_MSE, MetricId.BSSEVAL_V3_SDR):
            assert results[base] == framewise(base, ref, est, 3.0, 3.0)
        # the suite sums the SI-SDR residual per 1-s unit, the frame per 3-s unit
        assert results[MetricId.GLOBAL_SI_SDR] == pytest.approx(
            framewise(MetricId.GLOBAL_SI_SDR, ref, est, 3.0, 3.0), abs=1e-10
        )
        assert results[MetricId.FRAMEWISE_SDR_MEAN] == framewise(
            MetricId.GLOBAL_SDR, ref, est, 1.0, 1.0
        )
        assert results[MetricId.BSSEVAL_V4_FRAMEWISE_SDR_MEDIAN] == framewise(
            MetricId.BSSEVAL_V3_SDR, ref, est, 1.0, 1.0, Aggregation.MEDIAN
        )

    def test_all_seventeen_defined_on_long_signal(self, rng):
        rate = 100  # 65 s signal at low cost
        ref = noise_waveform(rng, frames=65 * rate, rate=rate)
        est = Waveform(ref.samples + 0.2 * rng.standard_normal((2, 65 * rate)), rate)
        results = metric_suite(ref, est)
        assert set(results) == set(MetricId)


# each framewise id of the README's comparison family table:
# (base metric, frame s, hop s, aggregation)
FRAMEWISE_IDS = {
    MetricId.FRAMEWISE_SDR_MEAN: (MetricId.GLOBAL_SDR, 1.0, 1.0, Aggregation.MEAN),
    MetricId.FRAMEWISE_SDR_MEDIAN: (MetricId.GLOBAL_SDR, 1.0, 1.0, Aggregation.MEDIAN),
    MetricId.FRAMEWISE_MAE_MEAN: (MetricId.GLOBAL_MAE, 1.0, 1.0, Aggregation.MEAN),
    MetricId.FRAMEWISE_MAE_MEDIAN: (MetricId.GLOBAL_MAE, 1.0, 1.0, Aggregation.MEDIAN),
    MetricId.FRAMEWISE_MSE_MEAN: (MetricId.GLOBAL_MSE, 1.0, 1.0, Aggregation.MEAN),
    MetricId.FRAMEWISE_MSE_MEDIAN: (MetricId.GLOBAL_MSE, 1.0, 1.0, Aggregation.MEDIAN),
    MetricId.FRAMEWISE_SI_SDR_MEAN: (MetricId.GLOBAL_SI_SDR, 1.0, 1.0, Aggregation.MEAN),
    MetricId.FRAMEWISE_SI_SDR_MEDIAN: (MetricId.GLOBAL_SI_SDR, 1.0, 1.0, Aggregation.MEDIAN),
    MetricId.BSSEVAL_V3_FRAMEWISE_SDR_MEAN: (MetricId.BSSEVAL_V3_SDR, 30.0, 15.0, Aggregation.MEAN),
    MetricId.BSSEVAL_V3_FRAMEWISE_SDR_MEDIAN: (MetricId.BSSEVAL_V3_SDR, 30.0, 15.0, Aggregation.MEDIAN),
    MetricId.BSSEVAL_V4_FRAMEWISE_SDR_MEAN: (MetricId.BSSEVAL_V3_SDR, 1.0, 1.0, Aggregation.MEAN),
    MetricId.BSSEVAL_V4_FRAMEWISE_SDR_MEDIAN: (MetricId.BSSEVAL_V3_SDR, 1.0, 1.0, Aggregation.MEDIAN),
}


def _numpy_frame_value(base, ref, est):
    """One frame of a global metric, written out independently in numpy."""
    diff = ref - est
    if base is MetricId.GLOBAL_SDR:
        return 10 * np.log10((np.sum(ref**2) + EPS) / (np.sum(diff**2) + EPS))
    if base is MetricId.GLOBAL_MAE:
        return np.mean(np.abs(diff))
    if base is MetricId.GLOBAL_MSE:
        return np.mean(diff**2)
    if base is MetricId.GLOBAL_SI_SDR:
        s, y = ref.ravel(), est.ravel()
        target = (y @ s) / (s @ s) * s
        return 10 * np.log10((target @ target) / ((y - target) @ (y - target)))
    return 10 * np.log10(np.sum(ref**2) / np.sum(diff**2))


class TestSuiteFramewiseSeries:
    """The suite's framewise ids against the public framewise and a numpy reference."""

    RATE = 100  # 65 s at low cost: three 30 s/15 s frames, sixty-five 1 s frames

    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(21)
        frames = 65 * self.RATE
        ref = 0.1 * rng.standard_normal((2, frames))
        ref[:, 10 * self.RATE : 22 * self.RATE] = 0.0  # twelve silent 1 s frames
        est = ref + 0.05 * rng.standard_normal((2, frames))  # noise in the silent run too
        ref_wf, est_wf = Waveform(ref, self.RATE), Waveform(est, self.RATE)
        return ref_wf, est_wf, metric_suite(ref_wf, est_wf)

    @pytest.mark.parametrize("metric_id", list(FRAMEWISE_IDS), ids=str)
    def test_equals_public_framewise(self, pair, metric_id):
        ref, est, results = pair
        base, frame, hop, aggregation = FRAMEWISE_IDS[metric_id]
        assert results[metric_id] == framewise(base, ref, est, frame, hop, aggregation)

    @pytest.mark.parametrize("metric_id", list(FRAMEWISE_IDS), ids=str)
    def test_matches_numpy_frames(self, pair, metric_id):
        ref, est, results = pair
        base, frame, hop, aggregation = FRAMEWISE_IDS[metric_id]
        frame, hop = int(frame * self.RATE), int(hop * self.RATE)
        values = []
        for start in range(0, ref.num_frames - frame + 1, hop):
            ref_frame = ref.samples[:, start : start + frame]
            if np.sum(ref_frame**2) > 1e-12:  # silent reference frames are skipped
                values.append(_numpy_frame_value(base, ref_frame, est.samples[:, start : start + frame]))
        expected = np.mean(values) if aggregation is Aggregation.MEAN else np.median(values)
        assert results[metric_id] == pytest.approx(expected, rel=1e-9)

    def test_keys_in_metric_id_order(self, pair):
        assert list(pair[2]) == list(MetricId)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -120.0, 120.0, 1.7e308, 5e-324]) | st.floats(allow_nan=False),
                min_size=1, max_size=30))
def test_median_is_numpys_bit_for_bit(values):
    # overflow and signed zeros included; a process that aggregates never imports numpy.ma
    with np.errstate(over="ignore"):
        expected = float(np.median(values))
    assert _aggregate(values, Aggregation.MEDIAN).hex() == expected.hex()


class TestMetricConfig:
    """MetricConfig's epsilon, and the frame and hop arguments of framewise."""

    def test_validation(self, rng):
        ref = noise_waveform(rng)
        with pytest.raises(InvalidInputError):
            MetricConfig(epsilon=0.0)
        with pytest.raises(InvalidInputError, match="frame_length"):
            framewise(MetricId.GLOBAL_SDR, ref, ref, -1.0, 1.0)
        with pytest.raises(InvalidInputError, match="hop_length must not exceed frame_length"):
            framewise(MetricId.GLOBAL_SDR, ref, ref, 1.0, 2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("field", ["epsilon", "frame_length", "hop_length"])
    def test_non_finite_rejected(self, rng, field, value):
        ref = noise_waveform(rng)
        with pytest.raises(InvalidInputError, match=field):
            if field == "epsilon":
                MetricConfig(epsilon=value)
            else:
                framewise(MetricId.GLOBAL_SDR, ref, ref, **{"frame_length": 0.1, "hop_length": 0.1, field: value})


class TestSdrSong:
    """SongScore.sdr_song, the per-song mean, and SongScore's per_stem checks."""

    def test_final_standings_row(self):
        scores = SongScore(
            "s",
            {
                StemKind.BASS: 8.115,
                StemKind.DRUMS: 8.037,
                StemKind.OTHER: 5.193,
                StemKind.VOCALS: 7.968,
            },
            {},
        )
        assert scores.sdr_song == pytest.approx(7.328, abs=0.0005)

    def test_baseline_table_row(self):
        scores = SongScore(
            "s",
            {
                StemKind.BASS: 5.62,
                StemKind.DRUMS: 5.81,
                StemKind.OTHER: 3.72,
                StemKind.VOCALS: 6.34,
            },
            {},
        )
        value = scores.sdr_song
        assert value == pytest.approx(5.3725, abs=1e-12)
        assert f"{value:.2f}" == "5.37"

    def test_three_stem_mean(self):
        scores = SongScore(
            "s",
            {StemKind.BASS: -40.0, StemKind.DRUMS: 6.0, StemKind.OTHER: 3.0, StemKind.VOCALS: 9.0},
            {StemKind.BASS: "silent reference"},
        )
        assert scores.sdr_song == pytest.approx(6.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            SongScore("s", {}, {})

    def test_non_stem_key_rejected(self):
        with pytest.raises(InvalidInputError, match="keys must be StemKind members"):
            SongScore("s", {"bass": 1.0}, {})

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(-40, 40, allow_nan=False), min_size=4, max_size=4
        ),
        order=st.permutations(list(StemKind)),
    )
    def test_permutation_invariant_mean(self, values, order):
        mapping = dict(zip(order, values))
        expected = math.fsum(mapping[k] for k in StemKind) / 4
        score = SongScore("s", mapping, {})
        assert score.sdr_song == pytest.approx(expected, abs=1e-12)
        # summed in StemKind order, whatever the order of the mapping
        assert list(score.per_stem) == list(StemKind)
        assert score.sdr_song == sum(mapping[k] for k in StemKind) / 4
