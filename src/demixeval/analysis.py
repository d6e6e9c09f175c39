"""Correlation analysis across a corpus of per-(system, song, stem) scores.

Used to compare metric candidates: fill a MetricTable with one row per
scored stem and one column per MetricId, then compute the pairwise Pearson
or Spearman matrix over co-present values.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .errors import InvalidInputError, UndefinedCorrelationError
from .metrics import MetricId

RowKey = tuple  # (system_id, song_id, stem)

DEFAULT_CORRELATION_THRESHOLD = 0.9


class CorrelationKind(Enum):
    PEARSON = "pearson"
    SPEARMAN = "spearman"


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length sequences.

    The three sums of products are np.add.reduce's pairwise sums, within
    1e-12 of a correlation from exactly rounded (math.fsum) sums. No BLAS
    dot product: OpenBLAS splits a long one across threads, so its bits would
    depend on the thread count.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidInputError("sequences must be 1-D and of equal length")
    if len(x) < 2:
        raise InvalidInputError("correlation needs at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.add.reduce(xc * xc))
    syy = float(np.add.reduce(yc * yc))
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation is undefined for a constant sequence")
    value = float(np.add.reduce(xc * yc)) / float(np.sqrt(sxx * syy))
    return max(-1.0, min(1.0, value))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks starting at 1, ties averaged."""
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_values[1:] != sorted_values[:-1]])
    stops = np.r_[starts[1:], len(values)] - 1
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + stops) + 1.0, stops - starts + 1)
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of fractional ranks (average-rank ties)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidInputError("sequences must be 1-D and of equal length")
    if len(x) < 2:
        raise InvalidInputError("correlation needs at least 2 points")
    return pearson(_average_ranks(x), _average_ranks(y))


_CORRELATORS = {
    CorrelationKind.PEARSON: pearson,
    CorrelationKind.SPEARMAN: spearman,
}


@dataclass
class MetricTable:
    """Sparse table of metric values keyed by (system_id, song_id, stem)."""

    columns: tuple = tuple(MetricId)
    cells: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for index, column in enumerate(self.columns):
            if column in self.columns[:index]:
                raise InvalidInputError(f"duplicate column {column}")

    def add_row(self, key: RowKey, values: Mapping[MetricId, float]) -> None:
        key = tuple(key)
        if len(key) != 3:
            raise InvalidInputError("row key must be (system_id, song_id, stem)")
        if key in self.cells:
            raise InvalidInputError(f"duplicate row key {key}")
        row = {}
        for metric, value in values.items():
            if metric not in self.columns:
                raise InvalidInputError(f"unknown column {metric}")
            value = float(value)
            if not math.isfinite(value):
                raise InvalidInputError(f"non-finite value for {metric} at {key}")
            row[metric] = value
        self.cells[key] = row

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric pairwise correlations; undefined cells carry a reason."""

    kind: CorrelationKind
    metrics: tuple
    values: Mapping[tuple, float]
    missing: Mapping[tuple, str]

    def get(self, first: MetricId, second: MetricId) -> Optional[float]:
        return self.values.get((first, second))

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["metric", *(m.value for m in self.metrics)])
        for row_metric in self.metrics:
            cells = []
            for col_metric in self.metrics:
                value = self.values.get((row_metric, col_metric))
                cells.append("" if value is None else format(value, ".6g"))
            writer.writerow([row_metric.value, *cells])
        return buffer.getvalue()

    def report(self, threshold: float = DEFAULT_CORRELATION_THRESHOLD) -> str:
        """Plain-text summary flagging metric pairs correlated below threshold."""
        lines = [f"{self.kind.value} correlation report (threshold {threshold:g})"]
        flagged = []
        for i, first in enumerate(self.metrics):
            for second in self.metrics[i + 1 :]:
                value = self.values.get((first, second))
                if value is not None and value < threshold:
                    flagged.append((value, first, second))
        for value, first, second in sorted(flagged):
            lines.append(f"below threshold: {first.value} vs {second.value} = {value:.6g}")
        if not flagged:
            lines.append("no defined pair falls below the threshold")
        undefined = sorted(
            {tuple(sorted((a.value, b.value))) for (a, b) in self.missing if a != b}
        )
        for a, b in undefined:
            lines.append(f"undefined: {a} vs {b} ({self.missing_reason(a, b)})")
        return "\n".join(lines) + "\n"

    def missing_reason(self, first_name: str, second_name: str) -> str:
        for (a, b), reason in self.missing.items():
            if {a.value, b.value} == {first_name, second_name}:
                return reason
        return "unknown"


def correlation_matrix(table: MetricTable, kind: CorrelationKind) -> CorrelationMatrix:
    """Pairwise correlations over rows where both metrics are present.

    Pairs with fewer than two co-present rows or a constant column are left
    undefined and recorded with a reason.
    """
    correlate = _CORRELATORS[kind]
    metrics = tuple(table.columns)
    rows = list(table.cells.values())
    shape = (len(rows), len(metrics))  # also for a table with no rows
    present = np.array([[metric in row for metric in metrics] for row in rows], dtype=bool).reshape(shape)
    data = np.array([[row.get(metric, 0.0) for metric in metrics] for row in rows]).reshape(shape)
    values = {}
    missing = {}
    for i, first in enumerate(metrics):
        for j, second in enumerate(metrics[i:], start=i):
            both = present[:, i] & present[:, j]
            xs, ys = data[both, i], data[both, j]
            if len(xs) < 2:
                missing[(first, second)] = missing[(second, first)] = (
                    f"only {len(xs)} co-present row(s)"
                )
                continue
            try:
                value = correlate(xs, ys)
            except UndefinedCorrelationError:
                missing[(first, second)] = missing[(second, first)] = "constant values"
                continue
            values[(first, second)] = values[(second, first)] = value
    return CorrelationMatrix(kind=kind, metrics=metrics, values=values, missing=missing)


# CSV interchange for metric tables -----------------------------------------

METRIC_TABLE_KEY_COLUMNS = ("system_id", "song_id", "stem")


def metric_table_to_csv(table: MetricTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([*METRIC_TABLE_KEY_COLUMNS, *(m.value for m in table.columns)])
    for key, row in table.cells.items():
        cells = [
            format(row[m], ".12g") if m in row else "" for m in table.columns
        ]
        writer.writerow([*key, *cells])
    return buffer.getvalue()


def read_metric_table_csv(path) -> MetricTable:
    """Parse a metric table written by metric_table_to_csv.

    Header: system_id,song_id,stem,<metric>,... Empty cells mean the metric
    is absent for that row.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidInputError(f"{path}: empty table") from None
    if tuple(header[:3]) != METRIC_TABLE_KEY_COLUMNS:
        raise InvalidInputError(
            f"{path}: header must start with {','.join(METRIC_TABLE_KEY_COLUMNS)}"
        )
    try:
        columns = tuple(MetricId(name) for name in header[3:])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: unknown metric column ({exc})") from None
    try:
        table = MetricTable(columns=columns)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3 + len(columns):
            raise InvalidInputError(f"{path}: line {line_number} has {len(row)} fields")
        try:
            values = {
                metric: float(cell)
                for metric, cell in zip(columns, row[3:])
                if cell != ""
            }
        except ValueError as exc:
            raise InvalidInputError(f"{path}: line {line_number}: {exc}") from None
        table.add_row(tuple(row[:3]), values)
    return table
