import contextlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demixeval import analysis
from demixeval.analysis import (
    CorrelationKind,
    MetricTable,
    correlation_matrix,
    metric_table_to_csv,
    pearson,
    read_metric_table_csv,
    spearman,
)
from demixeval.audio_io import Waveform
from demixeval.errors import InvalidInputError, UndefinedCorrelationError
from demixeval.metrics import MetricId, metric_suite

from helpers import average_ranks_loop


def covariance_formula_oracle(x, y):
    """Textbook covariance/stddev ratio, computed step by step."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y)) / n
    sd_x = (sum((a - mean_x) ** 2 for a in x) / n) ** 0.5
    sd_y = (sum((b - mean_y) ** 2 for b in y) / n) ** 0.5
    return cov / (sd_x * sd_y)


def fsum_pearson(x, y):
    """Pearson correlation from exactly rounded (math.fsum) means and sums."""
    mean_x = math.fsum(x) / len(x)
    mean_y = math.fsum(y) / len(y)
    xc = [a - mean_x for a in x]
    yc = [b - mean_y for b in y]
    sxy = math.fsum(a * b for a, b in zip(xc, yc))
    return sxy / math.sqrt(math.fsum(a * a for a in xc) * math.fsum(b * b for b in yc))


def average_rank_oracle(values):
    """Brute-force fractional ranks with tie averaging."""
    values = list(values)
    ranks = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(smaller + (equal + 1) / 2)
    return ranks


class TestPearson:
    def test_identity_is_exactly_one(self, rng):
        x = rng.standard_normal(50)
        assert pearson(x, x) == 1.0

    def test_negation_is_exactly_minus_one(self, rng):
        x = rng.standard_normal(50)
        assert pearson(x, -x) == -1.0

    def test_matches_covariance_oracle(self, rng):
        for _ in range(20):
            x = rng.standard_normal(40)
            y = 0.5 * x + rng.standard_normal(40)
            assert pearson(x, y) == pytest.approx(covariance_formula_oracle(x, y), abs=1e-12)

    @pytest.mark.parametrize("rows", [2, 3, 40, 1000, 20_000])
    def test_matches_fsum_reference(self, rng, rows):
        x = 1e3 + rng.standard_normal(rows)
        y = 0.5 * x + rng.standard_normal(rows)
        assert pearson(x, y) == pytest.approx(fsum_pearson(x, y), abs=1e-12)

    def test_bits_independent_of_blas_threads(self):
        # OpenBLAS splits a dot product above 10 000 rows across its threads
        code = (
            "import numpy as np; from demixeval.analysis import pearson; "
            "gen = np.random.default_rng(5); x = gen.standard_normal(20_000); "
            "print(pearson(x, 0.3 * x + gen.standard_normal(20_000)).hex())"
        )
        printed = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            printed.add(result.stdout)
        assert len(printed) == 1

    def test_constant_sequence_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            pearson([1.0], [2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.floats(0.01, 100),
        offset=st.floats(-100, 100),
        seed=st.integers(0, 2**31),
    )
    def test_positive_affine_invariance(self, scale, offset, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(30)
        y = gen.standard_normal(30)
        base = pearson(x, y)
        assert pearson(scale * x + offset, y) == pytest.approx(base, abs=1e-12)


class TestSpearman:
    def test_monotone_map_is_exactly_one(self, rng):
        x = rng.standard_normal(40)
        assert spearman(x, np.exp(x)) == 1.0

    def test_reversed_order_is_minus_one(self, rng):
        x = np.sort(rng.standard_normal(25))
        assert spearman(x, x[::-1].copy() * 0 + np.arange(25)[::-1]) == -1.0

    def test_ties_match_average_rank_oracle(self):
        x = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 0.5])
        y = np.array([2.0, 1.0, 4.0, 4.0, 5.0, 2.0, 2.0])
        expected = covariance_formula_oracle(average_rank_oracle(x), average_rank_oracle(y))
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_invariant_under_strictly_increasing_transforms(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(20)
        y = gen.standard_normal(20)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == base
        assert spearman(x, y**3 + 5 * y) == base  # strictly increasing in y

    def test_constant_sequence_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])


class TestMetricTable:
    def test_duplicate_row_rejected(self):
        table = MetricTable()
        table.add_row(("sys", "song", "bass"), {MetricId.GLOBAL_SDR: 1.0})
        with pytest.raises(InvalidInputError):
            table.add_row(("sys", "song", "bass"), {MetricId.GLOBAL_SDR: 2.0})

    def test_non_finite_rejected(self):
        table = MetricTable()
        with pytest.raises(InvalidInputError):
            table.add_row(("s", "s", "bass"), {MetricId.GLOBAL_SDR: float("inf")})

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_nan_and_negative_infinity_rejected(self, value):
        table = MetricTable()
        with pytest.raises(InvalidInputError, match=r"^non-finite value for global_mae at \('s', 's', 'bass'\)$"):
            table.add_row(("s", "s", "bass"), {MetricId.GLOBAL_SDR: 1.0, MetricId.GLOBAL_MAE: value})
        assert len(table) == 0

    def test_unknown_column_rejected_before_value_check(self):
        table = MetricTable(columns=(MetricId.GLOBAL_SDR,))
        with pytest.raises(InvalidInputError, match="^unknown column global_mae$"):
            table.add_row(("s", "s", "bass"), {MetricId.GLOBAL_MAE: float("nan")})
        assert len(table) == 0

    def test_duplicate_column_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match="^duplicate column global_sdr$"):
            MetricTable(columns=(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE, MetricId.GLOBAL_SDR))
        path = tmp_path / "table.csv"
        path.write_text("system_id,song_id,stem,global_sdr,global_sdr\ns,a,bass,1,2\n")
        with pytest.raises(InvalidInputError) as excinfo:
            read_metric_table_csv(path)
        assert str(excinfo.value) == f"{path}: duplicate column global_sdr"

    def test_csv_round_trip(self, tmp_path):
        table = MetricTable(columns=(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE))
        table.add_row(("sys", "a", "bass"), {MetricId.GLOBAL_SDR: 3.25})
        table.add_row(
            ("sys", "a", "vocals"),
            {MetricId.GLOBAL_SDR: -1.5, MetricId.GLOBAL_MAE: 0.125},
        )
        path = tmp_path / "table.csv"
        path.write_text(metric_table_to_csv(table))
        loaded = read_metric_table_csv(path)
        assert loaded.columns == table.columns
        assert loaded.cells == table.cells

    @pytest.mark.parametrize("part, refusal", [("a\rb", "CR or LF"), ("a\nb", "CR or LF"), ("a\0b", "NUL")],
                             ids=["cr", "lf", "nul"])
    def test_key_with_a_line_break_or_nul_refused(self, tmp_path, part, refusal):
        # written, a CR would end the row, and Python 3.10's csv cannot take a NUL
        table = MetricTable(columns=(MetricId.GLOBAL_SDR,))
        message = f"row key must not contain {refusal}, got {(part, 's', 'bass')!r}"
        with pytest.raises(InvalidInputError) as excinfo:
            table.add_row((part, "s", "bass"), {MetricId.GLOBAL_SDR: 1.0})
        assert str(excinfo.value) == message
        assert len(table) == 0
        path = tmp_path / "table.csv"
        with open(path, "w", newline="") as file:
            file.write(f'system_id,song_id,stem,global_sdr\nc,s,bass,2\n"{part}",s,bass,1\n')
        with pytest.raises(InvalidInputError) as excinfo:
            read_metric_table_csv(path)
        assert str(excinfo.value) == f"{path}: line 3: {message}"

    @pytest.mark.parametrize("key, message", [
        (("a", "b"), "row key must be (system_id, song_id, stem)"),
        (("a", "b", "c", "d"), "row key must be (system_id, song_id, stem)"),
        (("a", 1, "bass"), "row key must be (system_id, song_id, stem)"),
        (("a", "\ud800", "bass"), "row key must be valid Unicode text"),
    ])
    def test_key_of_three_texts(self, key, message):
        table = MetricTable(columns=(MetricId.GLOBAL_SDR,))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            table.add_row(key, {})

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.sampled_from(list(MetricId)), unique=True, max_size=4),
        st.lists(
            st.tuples(
                # all of Unicode, lone surrogates included, and the characters CSV quotes
                st.tuples(*[st.text(st.characters(exclude_categories=()) | st.sampled_from('\r\n\0,"'),
                                    max_size=4)] * 3),
                # values that 12 significant digits carry exactly
                st.lists(st.none() | st.floats(allow_nan=False, allow_infinity=False).map(
                    lambda value: float(format(value, ".12g"))), min_size=4, max_size=4),
            ),
            max_size=8,
        ),
    )
    def test_every_accepted_table_reads_back(self, tmp_path, columns, rows):
        table = MetricTable(columns=tuple(columns))
        for key, values in rows:
            with contextlib.suppress(InvalidInputError):  # a refused row is not in the table
                table.add_row(key, {metric: value for metric, value in zip(columns, values) if value is not None})
        path = tmp_path / "table.csv"
        with open(path, "w", newline="") as file:
            file.write(metric_table_to_csv(table))
        loaded = read_metric_table_csv(path)
        assert loaded == table
        assert loaded.keys == table.keys
        assert loaded.values.tobytes() == table.values.tobytes()


def _sdr_corpus(rng, pairs=60):
    """Waveform pairs with reference energy >= 1, for epsilon-equivalence."""
    corpus = []
    for _ in range(pairs):
        base = rng.standard_normal((2, 1200))
        ref = Waveform(base / np.sqrt(np.mean(base**2)) * 0.4, 8000)
        noise_level = rng.uniform(0.05, 0.6)
        est = Waveform(ref.samples + noise_level * rng.standard_normal((2, 1200)), 8000)
        corpus.append((ref, est))
    return corpus


class TestCorrelationMatrix:
    def test_identical_columns_give_unit_offdiagonal(self, rng):
        table = MetricTable(columns=(MetricId.GLOBAL_SDR, MetricId.BSSEVAL_V3_SDR))
        for i, value in enumerate(rng.standard_normal(10)):
            table.add_row(
                ("sys", f"song{i}", "bass"),
                {MetricId.GLOBAL_SDR: value, MetricId.BSSEVAL_V3_SDR: value},
            )
        matrix = correlation_matrix(table, CorrelationKind.PEARSON)
        assert matrix.get(MetricId.GLOBAL_SDR, MetricId.BSSEVAL_V3_SDR) == 1.0

    def test_epsilon_equivalence_corpus(self, rng):
        table = MetricTable(
            columns=(MetricId.GLOBAL_SDR, MetricId.BSSEVAL_V3_SDR, MetricId.GLOBAL_MAE)
        )
        for i, (ref, est) in enumerate(_sdr_corpus(rng)):
            results = metric_suite(ref, est)
            table.add_row(("sys", f"song{i}", "bass"), {column: results[column] for column in table.columns})
        for kind in CorrelationKind:
            matrix = correlation_matrix(table, kind)
            assert matrix.get(MetricId.GLOBAL_SDR, MetricId.BSSEVAL_V3_SDR) > 0.999
            # error metric runs against the quality metric
            assert matrix.get(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE) < 0.0

    def test_symmetric_with_unit_diagonal(self, rng):
        table = MetricTable(columns=(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MSE))
        for i in range(8):
            table.add_row(
                ("sys", f"s{i}", "drums"),
                {
                    MetricId.GLOBAL_SDR: float(rng.standard_normal()),
                    MetricId.GLOBAL_MSE: float(rng.uniform(0, 1)),
                },
            )
        matrix = correlation_matrix(table, CorrelationKind.SPEARMAN)
        assert matrix.get(MetricId.GLOBAL_SDR, MetricId.GLOBAL_SDR) == 1.0
        assert matrix.get(MetricId.GLOBAL_MSE, MetricId.GLOBAL_MSE) == 1.0
        assert matrix.get(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MSE) == matrix.get(
            MetricId.GLOBAL_MSE, MetricId.GLOBAL_SDR
        )

    def test_insufficient_rows_recorded_as_missing(self):
        table = MetricTable(columns=(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE))
        table.add_row(("sys", "a", "bass"), {MetricId.GLOBAL_SDR: 1.0})
        table.add_row(("sys", "b", "bass"), {MetricId.GLOBAL_SDR: 2.0})
        table.add_row(("sys", "c", "bass"), {MetricId.GLOBAL_MAE: 0.5})
        matrix = correlation_matrix(table, CorrelationKind.PEARSON)
        assert matrix.get(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE) is None
        assert (MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE) in matrix.missing

    def test_report_flags_low_pairs(self, rng):
        table = MetricTable(columns=(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE))
        x = rng.standard_normal(30)
        noise = rng.standard_normal(30)
        for i in range(30):
            table.add_row(
                ("sys", f"s{i}", "bass"),
                {MetricId.GLOBAL_SDR: x[i], MetricId.GLOBAL_MAE: noise[i]},
            )
        matrix = correlation_matrix(table, CorrelationKind.PEARSON)
        report = matrix.report(threshold=0.9)
        assert "below threshold: global_sdr vs global_mae" in report

    def test_csv_output_shape(self):
        table = MetricTable(columns=(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE))
        table.add_row(("s", "a", "bass"), {MetricId.GLOBAL_SDR: 1.0, MetricId.GLOBAL_MAE: 2.0})
        table.add_row(("s", "b", "bass"), {MetricId.GLOBAL_SDR: 2.0, MetricId.GLOBAL_MAE: 1.0})
        matrix = correlation_matrix(table, CorrelationKind.PEARSON)
        lines = matrix.to_csv().strip().split("\n")
        assert lines[0] == "metric,global_sdr,global_mae"
        assert len(lines) == 3


class TestVectorisedCorrelation:
    """correlation_matrix's masked columns and tie ranks against per-row loops."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0, 1e300]) | st.floats(-5, 5), max_size=40))
    def test_ranks_match_loop(self, values):
        values = np.array(values, dtype=np.float64)
        assert analysis._average_ranks(values).tobytes() == average_ranks_loop(values).tobytes()

    @staticmethod
    def _loop_matrix(table, kind):
        """(values, missing) of each pair from rows walked one at a time."""
        values, missing = {}, {}
        metrics = tuple(table.columns)
        for i, first in enumerate(metrics):
            for second in metrics[i:]:
                rows = [row for row in table.cells.values() if first in row and second in row]
                xs = np.array([row[first] for row in rows])
                ys = np.array([row[second] for row in rows])
                if len(xs) < 2:
                    missing[(first, second)] = missing[(second, first)] = f"only {len(xs)} co-present row(s)"
                    continue
                if kind is CorrelationKind.SPEARMAN:
                    xs, ys = average_ranks_loop(xs), average_ranks_loop(ys)
                try:
                    value = pearson(xs, ys)
                except UndefinedCorrelationError:
                    missing[(first, second)] = missing[(second, first)] = "constant values"
                    continue
                values[(first, second)] = values[(second, first)] = value
        return values, missing

    @pytest.mark.parametrize("kind", list(CorrelationKind), ids=str)
    def test_matrix_matches_row_loop(self, rng, kind):
        # ties in rounded columns, a tenth of their cells absent, a constant
        # column, a column in row 0 only and one in rows 1 and 2 only
        columns = tuple(MetricId)[:8]
        table = MetricTable(columns=columns)
        for index in range(300):
            row = {}
            for position, metric in enumerate(columns[:5]):
                if rng.random() > 0.1:
                    row[metric] = round(float(rng.standard_normal()), position % 3)
            row[columns[5]] = 2.0
            if index == 0:
                row[columns[6]] = 1.0
            if index in (1, 2):
                row[columns[7]] = float(index)
            table.add_row(("sys", f"song{index}", "vocals"), row)
        matrix = correlation_matrix(table, kind)
        values, missing = self._loop_matrix(table, kind)
        assert {key: value.hex() for key, value in matrix.values.items()} == {
            key: value.hex() for key, value in values.items()
        }
        assert matrix.missing == missing
        assert set(missing.values()) == {"only 0 co-present row(s)", "only 1 co-present row(s)", "constant values"}

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.none() | st.floats(-3, 3).map(lambda value: round(value, 1)), min_size=4,
                             max_size=4), max_size=25))
    def test_every_value_is_the_pair_correlation_bit_for_bit(self, rows):
        # ties, -0.0 beside 0.0, absent cells and constant or near-empty pairs
        columns = tuple(MetricId)[:4]
        table = MetricTable(columns=columns)
        for index, row in enumerate(rows):
            table.add_row(("s", f"song{index}", "bass"), {m: v for m, v in zip(columns, row) if v is not None})
        for kind, correlate in ((CorrelationKind.PEARSON, pearson), (CorrelationKind.SPEARMAN, spearman)):
            values, missing = {}, {}
            for first in columns:
                for second in columns:
                    pairs = [(row[first], row[second])
                             for row in table.cells.values() if first in row and second in row]
                    if len(pairs) < 2:
                        missing[(first, second)] = f"only {len(pairs)} co-present row(s)"
                        continue
                    try:
                        values[(first, second)] = correlate(*zip(*pairs)).hex()
                    except UndefinedCorrelationError:
                        missing[(first, second)] = "constant values"
            matrix = correlation_matrix(table, kind)
            assert {key: value.hex() for key, value in matrix.values.items()} == values
            assert matrix.missing == missing

    def test_empty_table(self):
        matrix = correlation_matrix(MetricTable(columns=tuple(MetricId)[:2]), CorrelationKind.SPEARMAN)
        assert matrix.values == {}
        assert set(matrix.missing.values()) == {"only 0 co-present row(s)"}
