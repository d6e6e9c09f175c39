"""Correlation analysis across a corpus of per-(system, song, stem) scores.

Used to compare metric candidates: fill a MetricTable with one row per
scored stem and one column per MetricId, then compute the pairwise Pearson
or Spearman matrix over co-present values.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .audio_io import csv_text, line_text
from .errors import InvalidInputError, UndefinedCorrelationError, context
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
    x, y = _pair(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.add.reduce(xc * xc))
    syy = float(np.add.reduce(yc * yc))
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation is undefined for a constant sequence")
    value = float(np.add.reduce(xc * yc)) / float(np.sqrt(sxx * syy))
    return max(-1.0, min(1.0, value))


def _pair(x, y) -> tuple:
    """x and y as float64 arrays, if they are 1-D, of equal length and at least 2 points long."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidInputError("sequences must be 1-D and of equal length")
    if len(x) < 2:
        raise InvalidInputError("correlation needs at least 2 points")
    return x, y


def _average_ranks(values: np.ndarray, order=None) -> np.ndarray:
    """Fractional ranks starting at 1, ties averaged; order, if given, is values' stable argsort."""
    if order is None:
        order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_values[1:] != sorted_values[:-1])))
    stops = np.concatenate((starts[1:], [len(values)])) - 1
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + stops) + 1.0, stops - starts + 1)
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of fractional ranks (average-rank ties)."""
    x, y = _pair(x, y)
    return pearson(_average_ranks(x), _average_ranks(y))


class MetricTable:
    """Metric values keyed by (system_id, song_id, stem), one column per MetricId in columns.

    The row keys are kept in a list, in the order added, and the values in
    one (rows, columns) float64 matrix, `values`, with NaN where a row has
    no value for a metric. Every value is finite, so NaN is never a value.
    A key is three strings that audio_io.line_text accepts (valid Unicode, no
    CR, LF or NUL), so the CSV form of a table reads back as the same table.
    """

    def __init__(self, columns: tuple = tuple(MetricId)) -> None:
        self.columns = tuple(columns)
        for index, column in enumerate(self.columns):
            if column in self.columns[:index]:
                raise InvalidInputError(f"duplicate column {column}")
        self._keys = []
        self._seen = set()
        self._matrix = np.empty((0, len(self.columns)))
        self._pending = []  # rows added since _matrix was last built, as lists of floats

    def _check_key(self, key) -> tuple:
        """key as a tuple, if it may become a row of this table; else InvalidInputError."""
        key = tuple(key)
        if len(key) != 3 or not all(isinstance(part, str) for part in key):
            raise InvalidInputError("row key must be (system_id, song_id, stem)")
        line_text(key, "row key")
        if key in self._seen:
            raise InvalidInputError(f"duplicate row key {key}")
        return key

    def _append(self, key: tuple, row: list) -> None:
        self._keys.append(key)
        self._seen.add(key)
        self._pending.append(row)

    def add_row(self, key: RowKey, values: Mapping[MetricId, float]) -> None:
        key = self._check_key(key)
        row = [math.nan] * len(self.columns)
        for metric, value in values.items():
            if metric not in self.columns:
                raise InvalidInputError(f"unknown column {metric}")
            value = float(value)
            if not math.isfinite(value):
                raise InvalidInputError(f"non-finite value for {metric} at {key}")
            row[self.columns.index(metric)] = value
        self._append(key, row)

    @property
    def keys(self) -> tuple:
        """The row keys, in the order added."""
        return tuple(self._keys)

    @property
    def values(self) -> np.ndarray:
        """The (rows, columns) matrix, NaN for an absent value; read-only."""
        if self._pending:
            added = np.array(self._pending, dtype=np.float64).reshape(len(self._pending), len(self.columns))
            self._matrix, self._pending = np.concatenate([self._matrix, added]), []
            self._matrix.flags.writeable = False
        return self._matrix

    @property
    def cells(self) -> dict:
        """{key: {metric: value}} of the present values, rows and metrics in table order; a copy."""
        return {
            key: {metric: value for metric, value in zip(self.columns, row) if not math.isnan(value)}
            for key, row in zip(self.keys, self.values.tolist())
        }

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricTable):
            return NotImplemented
        return self.columns == other.columns and self.cells == other.cells


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
        rows = [["metric", *(m.value for m in self.metrics)]]
        for row_metric in self.metrics:
            values = (self.values.get((row_metric, col_metric)) for col_metric in self.metrics)
            rows.append([row_metric.value, *("" if value is None else format(value, ".6g") for value in values)])
        return csv_text(rows)

    def report(self, threshold: float = DEFAULT_CORRELATION_THRESHOLD) -> str:
        """Plain-text summary flagging metric pairs correlated below threshold."""
        lines = [f"{self.kind.value} correlation report (threshold {threshold:g})"]
        flagged = []
        for i, first in enumerate(self.metrics):
            for second in self.metrics[i + 1 :]:
                value = self.values.get((first, second))
                if value is not None and value < threshold:
                    flagged.append((value, first, second))
        # by value alone: a stable sort keeps column order for ties
        for value, first, second in sorted(flagged, key=lambda pair: pair[0]):
            lines.append(f"below threshold: {first.value} vs {second.value} = {value:.6g}")
        if not flagged:
            lines.append("no defined pair falls below the threshold")
        undefined = {tuple(sorted((a.value, b.value))): reason for (a, b), reason in self.missing.items() if a != b}
        for (a, b), reason in sorted(undefined.items()):
            lines.append(f"undefined: {a} vs {b} ({reason})")
        return "\n".join(lines) + "\n"


def correlation_matrix(table: MetricTable, kind: CorrelationKind) -> CorrelationMatrix:
    """Pairwise correlations over rows where both metrics are present.

    Pairs with fewer than two co-present rows or a constant column are left
    undefined and recorded with a reason. Each value is pearson or spearman
    on the pair's co-present rows in table order, bit for bit. Spearman
    ranks a pair's rows from its columns' stable argsorts, each taken once:
    kept to the co-present rows, an argsort is their own stable argsort.
    """
    metrics = tuple(table.columns)
    data = np.ascontiguousarray(table.values.T)  # one row per metric
    present = ~np.isnan(data)
    if kind is CorrelationKind.SPEARMAN:
        orders = np.argsort(data, axis=1, kind="stable")
    values = {}
    missing = {}
    for i, first in enumerate(metrics):
        for j, second in enumerate(metrics[i:], start=i):
            both = present[i] & present[j]
            count = int(np.count_nonzero(both))
            if count < 2:
                missing[(first, second)] = missing[(second, first)] = f"only {count} co-present row(s)"
                continue
            xs, ys = data[i, both], data[j, both]
            if kind is CorrelationKind.SPEARMAN:
                position = np.cumsum(both) - 1  # each co-present row's index among them
                xs = _average_ranks(xs, position[orders[i, both[orders[i]]]])
                ys = _average_ranks(ys, position[orders[j, both[orders[j]]]])
            try:
                value = pearson(xs, ys)
            except UndefinedCorrelationError:
                missing[(first, second)] = missing[(second, first)] = "constant values"
                continue
            values[(first, second)] = values[(second, first)] = value
    return CorrelationMatrix(kind=kind, metrics=metrics, values=values, missing=missing)


# CSV interchange for metric tables -----------------------------------------

METRIC_TABLE_KEY_COLUMNS = ("system_id", "song_id", "stem")


def metric_table_to_csv(table: MetricTable) -> str:
    rows = [[*METRIC_TABLE_KEY_COLUMNS, *(m.value for m in table.columns)]]
    for key, row in zip(table.keys, table.values.tolist()):
        rows.append([*key, *("" if math.isnan(value) else format(value, ".12g") for value in row)])
    return csv_text(rows)


def read_metric_table_csv(path) -> MetricTable:
    """Parse a metric table written by metric_table_to_csv.

    Header: system_id,song_id,stem,<metric>,... Empty cells mean the metric
    is absent for that row. A refusal names the file, then the line if it has one.
    """
    with context(f"{path}: "):
        try:
            # newline="", as the csv module asks: a CR inside a quoted cell stays in it
            with Path(path).open(newline="") as file:
                text = file.read()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"not UTF-8 text ({exc})") from None
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            if (header := next(reader, None)) is None:
                raise InvalidInputError("empty table")
            if tuple(header[:3]) != METRIC_TABLE_KEY_COLUMNS:
                raise InvalidInputError(f"header must start with {','.join(METRIC_TABLE_KEY_COLUMNS)}")
            try:
                columns = tuple(MetricId(name) for name in header[3:])
            except ValueError as exc:
                raise InvalidInputError(f"unknown metric column ({exc})") from None
            table = MetricTable(columns=columns)
            for line_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3 + len(columns):
                    raise InvalidInputError(f"line {line_number} has {len(row)} fields")
                try:
                    cells = row[3:]
                    try:
                        values = [float(cell) if cell else math.nan for cell in cells]
                    except ValueError as exc:
                        raise InvalidInputError(str(exc)) from None
                    key = table._check_key(row[:3])
                    # an absent cell is NaN, so the present values are all finite
                    # exactly when the finite values number the present cells
                    if sum(map(math.isfinite, values)) + cells.count("") != len(cells):
                        metric = next(metric for metric, cell, value in zip(columns, cells, values)
                                      if cell and not math.isfinite(value))
                        raise InvalidInputError(f"non-finite value for {metric} at {key}")
                except InvalidInputError as exc:
                    raise InvalidInputError(f"line {line_number}: {exc}") from None
                table._append(key, values)
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise InvalidInputError(f"line {reader.line_num}: {exc}") from None
    return table
