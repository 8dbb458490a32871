"""OHLCV ingestion, validation, scaling, and supervised window construction,
plus the one CSV and one JSON format of every file the program writes.

Input files are CSVs with one row per (asset, day) carrying the columns
SNo, Name, Symbol, Date, High, Low, Open, Close, Volume, Marketcap
(header match is case-insensitive; extra columns are ignored). Rows are
validated on the way in: parse failures, duplicate dates, negative values
and OHLC ordering violations all raise naming the first offending line
(1-based).

A file's fields are those ``csv`` reads. A plain file, one that csv would
read the same way, is split with one ``str.split`` on line ends and commas;
any other file is read as ``csv`` records. Either way each number goes
through ``float()`` and whole columns are checked at once. Only when a check
fails does a row-by-row pass run, to name the first faulty line. Output rows
are written with ``csv.writer`` only where a cell may need quoting; every
other row is one ``",".join``.

A series' dates are one sorted ``datetime64[D]`` array: shared dates are
found with numpy's set operations, a parsed series pickles as two arrays, so
a worker process can hand one back cheaply, and a date column is written as
ISO text by ``np.datetime_as_string``.
"""
from __future__ import annotations

import binascii
import csv
import io
import json
import math
from dataclasses import dataclass, replace
from datetime import date, datetime
from functools import reduce
from itertools import compress, count, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, SchemaError, ShapeError, SizingError, ValidationError, shown

REQUIRED_COLUMNS = (
    "sno", "name", "symbol", "date", "high", "low", "open", "close", "volume", "marketcap",
)

# Numeric fields a PriceSeries can expose as a feature column.
PRICE_FIELDS = ("open", "high", "low", "close", "volume", "marketcap")

DEFAULT_FEATURES = ("open", "high", "low", "close", "volume")


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """A single asset's daily history, strictly ascending by date.

    ``days`` is a (T,) ``datetime64[D]`` array and ``values`` a (T, 6)
    float64 matrix whose columns follow PRICE_FIELDS.
    """

    symbol: str
    name: str
    days: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.days)

    def dates(self) -> list[date]:
        return self.days.tolist()

    def column(self, field: str) -> np.ndarray:
        """A fresh float64 vector of one numeric field."""
        if field not in PRICE_FIELDS:
            raise SchemaError(f"unknown price field {field!r}; expected one of {PRICE_FIELDS}")
        return self.values[:, PRICE_FIELDS.index(field)].copy()


def _as_text(source) -> str:
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, str):
        return data.removeprefix("\ufeff")
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"file is not UTF-8 text: {exc}") from None


def _records(buf):
    """Yield (line number, row) for each csv record of ``buf``, from line 1; a
    record csv cannot read, such as one with a field over its size limit, is a
    ValidationError naming the line."""
    reader = csv.reader(buf)
    for line_no in count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
        yield line_no, row


def _parse_day(raw: str) -> date | None:
    """The date of a ``YYYY-MM-DD`` or ``YYYY-MM-DD HH:MM:SS`` stamp (or another
    ISO 8601 form that datetime reads), or None."""
    s = raw.strip()
    try:
        return datetime.fromisoformat(s).date()
    except ValueError:
        pass
    try:
        return datetime.strptime(s, "%Y-%m-%d %H:%M:%S").date()
    except ValueError:
        return None


def _parse_number(raw: str, column: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(
            f"line {line_no}: cannot parse {column} value {shown(raw)} as a number"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(f"line {line_no}: non-finite {column} value {shown(raw)}")
    return value


# The ordinal of 1970-01-01, day 0 of datetime64[D].
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _sorted_if_valid(days: list, values: np.ndarray):
    """The ``datetime64[D]`` dates and (n, 6) value matrix sorted by date, or
    None when a value is not finite or negative, a row breaks OHLC order, or a
    date repeats."""
    ordinals = np.fromiter(map(date.toordinal, days), np.int64, len(days))
    order = np.argsort(ordinals, kind="stable")
    o, h, lo, c = values[:, :4].T
    valid = (
        np.isfinite(values).all()
        and (values >= 0).all()
        and (lo <= np.minimum(o, c)).all()
        and (h >= np.maximum(o, c)).all()
        and (np.diff(ordinals[order]) > 0).all()
    )
    return ((ordinals[order] - _EPOCH_ORDINAL).astype("datetime64[D]"), values[order]) if valid else None


def _split_cells(body: str, width: int, date_col: int):
    """The fields of the data rows in ``body``, the text after the header, row
    after row, split with ``str.split`` on line ends and commas; or None when
    csv might read them differently: a quote, a NUL (which csv refuses before
    Python 3.11), a CR outside CRLF, a line without exactly ``width`` fields or
    one longer than csv's field size limit. A blank date field also gives None:
    its row is blank, which csv's reading skips, or faulty. Reading a plain
    file as csv records instead takes close to half as long again."""
    if '"' in body or "\0" in body:
        return None
    if "\r" in body:
        if body.count("\r") != body.count("\r\n"):
            return None
        body = body.replace("\r\n", "\n")
    body = body.rstrip("\n")  # csv skips empty lines at the end too
    lines = body.split("\n")
    if set(map(str.count, lines, repeat(","))) != {width - 1} or max(map(len, lines)) > csv.field_size_limit():
        return None
    del lines
    cells = body.replace("\n", ",").split(",")
    return cells if all(map(str.strip, cells[date_col::width])) else None


def _series_if_valid(cells: list, width: int, cols: dict):
    """The dates and (n, 6) value matrix sorted by date from the fields of n rows
    of ``width`` each, or None when a date or number does not parse or a row
    fails a check. numpy converts each number with ``float()``."""
    days = list(map(_parse_day, cells[cols["date"] :: width]))
    if None in days:
        return None
    try:
        values = np.array([cells[cols[field] :: width] for field in PRICE_FIELDS], dtype=np.float64).T
    except ValueError:
        return None
    return _sorted_if_valid(days, values)


def _raise_first_fault(numbered, width: int, cols: dict) -> None:
    """Check each data row in turn and raise naming the first offending line.
    Within a line the checks run in the order: field count, date, duplicate,
    each field's parse and finiteness, negatives, OHLC order."""
    first_line: dict[date, int] = {}
    for line_no, row in numbered:
        if len(row) < width:
            raise ValidationError(f"line {line_no}: expected {width} fields, got {len(row)}")
        day = _parse_day(row[cols["date"]])
        if day is None:
            raise ValidationError(f"line {line_no}: cannot parse date {shown(row[cols['date']])}")
        if day in first_line:
            raise ValidationError(
                f"duplicate date {day.isoformat()} (lines {first_line[day]} and {line_no})"
            )
        first_line[day] = line_no
        v = {field: _parse_number(row[cols[field]], field, line_no) for field in PRICE_FIELDS}
        for field in PRICE_FIELDS:
            if v[field] < 0:
                kind = "" if field in ("volume", "marketcap") else " price"
                raise ValidationError(f"line {line_no}: negative {field}{kind} {v[field]}")
        if v["low"] > min(v["open"], v["close"]) or v["high"] < max(v["open"], v["close"]):
            raise ValidationError(
                "line {}: OHLC ordering violated (open={}, high={}, low={}, close={})".format(
                    line_no, v["open"], v["high"], v["low"], v["close"]
                )
            )


def _data_rows(records):
    """The records that hold a non-blank field."""
    return ((line_no, row) for line_no, row in records if any(map(str.strip, row)))


def parse_csv(source) -> PriceSeries:
    """Parse one asset's history from CSV text, bytes, or a file object.

    Rows may arrive in any order; the result is sorted ascending by date.
    Raises SchemaError for header problems and ValidationError for bad rows,
    naming the first offending line.
    """
    text = _as_text(source)
    buf = io.StringIO(text, newline="")
    records = _records(buf)
    _, header = next(records, (1, None))
    if header is None:
        raise SchemaError("empty file: header row is missing")
    cols: dict[str, int] = {}
    for idx, name in enumerate(header):
        key = name.strip().lower()
        if key and key not in cols:
            cols[key] = idx
    missing = [c for c in REQUIRED_COLUMNS if c not in cols]
    if missing:
        raise SchemaError(f"missing required column(s): {', '.join(missing)}")

    width = len(header)
    cells = _split_cells(text[buf.tell() :], width, cols["date"])
    numbered = None
    if cells is None:
        numbered = list(_data_rows(records))
        if not numbered:
            raise ValidationError("file contains a header but no data rows")
        if all(len(row) >= width for _, row in numbered):
            cells = [cell for _, row in numbered for cell in row[:width]]
    parsed = None if cells is None else _series_if_valid(cells, width, cols)
    if parsed is None:
        _raise_first_fault(_data_rows(records) if numbered is None else numbered, width, cols)
    days, values = parsed
    # symbol and name come from the first row that names a symbol, else the last row
    symbols = cells[cols["symbol"] :: width]
    first = next(compress(count(), map(str.strip, symbols)), len(symbols) - 1)
    name = cells[first * width + cols["name"]]
    return PriceSeries(symbol=symbols[first].strip(), name=name.strip(), days=days, values=values)


def series_to_features(series: PriceSeries, feature_names) -> np.ndarray:
    """Stack the named fields into a (T, d) feature matrix, column order as given."""
    names = tuple(feature_names)
    if not names:
        raise SchemaError("feature list is empty")
    return np.column_stack([series.column(n) for n in names])


def rebase_to_100(series: PriceSeries, field: str = "close") -> np.ndarray:
    """Scale a price column so the first observation equals exactly 100."""
    values = series.column(field)
    first = values[0]
    if first <= 0:
        raise DomainError(
            f"cannot rebase {series.symbol or 'series'}: first {field} value is {first}"
        )
    return values / first * 100.0


def align_on_dates(series_list) -> tuple[np.ndarray, list[PriceSeries]]:
    """Restrict several assets to their common calendar dates.

    Returns the sorted shared ``datetime64[D]`` dates and, in input order,
    each series reduced to exactly those dates. Raises SizingError when the
    intersection is empty.
    """
    series_list = list(series_list)
    if not series_list:
        raise SizingError("no series given")
    common = reduce(lambda a, b: np.intersect1d(a, b, assume_unique=True), (s.days for s in series_list))
    if not common.size:
        raise SizingError("series share no common dates")
    aligned = []
    for s in series_list:
        keep = np.isin(s.days, common, assume_unique=True)
        aligned.append(replace(s, days=s.days[keep], values=s.values[keep]))
    return common, aligned


@dataclass(frozen=True, eq=False)
class MinMaxScaler:
    """Per-feature affine map onto [0, 1], fit on training rows only.

    A constant feature (zero range) maps to 0.5 everywhere and inverts back
    to its original value, so degenerate fixtures remain usable.
    """

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, rows) -> "MinMaxScaler":
        m = np.asarray(rows, dtype=np.float64)
        if m.ndim != 2:
            raise ShapeError(f"expected a 2-D row matrix, got {m.ndim} dimension(s)")
        if m.shape[0] < 2:
            raise SizingError(f"need at least 2 rows to fit a scaler, got {m.shape[0]}")
        if not np.all(np.isfinite(m)):
            raise DomainError("cannot fit scaler: non-finite values present")
        return cls(m.min(axis=0), m.max(axis=0))

    def _check_width(self, m: np.ndarray):
        if m.shape[-1] != self.mins.shape[0]:
            raise ShapeError(
                f"scaler was fit on {self.mins.shape[0]} feature(s), got {m.shape[-1]}"
            )

    def apply(self, rows) -> np.ndarray:
        """Map rows into [0, 1] feature-wise (values outside the fit range extrapolate)."""
        m = np.asarray(rows, dtype=np.float64)
        self._check_width(m)
        span = self.maxs - self.mins
        safe = np.where(span > 0, span, 1.0)
        out = (m - self.mins) / safe
        return np.where(span > 0, out, 0.5)

    def invert_column(self, col: int, values) -> np.ndarray:
        """Undo scaling for a single feature column (any array shape)."""
        v = np.asarray(values, dtype=np.float64)
        return self.mins[col] + v * (self.maxs[col] - self.mins[col])

    def to_dict(self) -> dict:
        return {"mins": array_json(self.mins, "<f8"), "maxs": array_json(self.maxs, "<f8")}

    @classmethod
    def from_dict(cls, payload: dict) -> "MinMaxScaler":
        """Inverse of :meth:`to_dict`; raises SchemaError for a malformed scaler."""
        try:
            mins, maxs = (array_from_json(payload[key], f"scaler {key}", "<f8", 1) for key in ("mins", "maxs"))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed scaler: {exc!r}") from None
        if mins.shape != maxs.shape:
            raise SchemaError(
                f"scaler mins {mins.shape} and maxs {maxs.shape} are not vectors of one length"
            )
        return cls(mins, maxs)


@dataclass
class WindowedDataset:
    """Supervised sliding windows: X[i] holds n_in consecutive feature rows,
    Y[i] the next n_out values of the target column."""

    X: np.ndarray  # (N, n_in, d)
    Y: np.ndarray  # (N, n_out)
    feature_names: tuple[str, ...]
    target_col: int
    scaler: MinMaxScaler | None = None

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_steps_in(self) -> int:
        return self.X.shape[1]

    @property
    def n_features(self) -> int:
        return self.X.shape[2]

    @property
    def n_steps_out(self) -> int:
        return self.Y.shape[1]


def make_windows(
    features,
    target_col: int,
    n_steps_in: int,
    n_steps_out: int,
    feature_names=None,
    scaler: MinMaxScaler | None = None,
) -> WindowedDataset:
    """Slide a window of length n_steps_in over (T, d) rows.

    Sample i uses feature rows [i, i + n_steps_in) and target-column rows
    [i + n_steps_in, i + n_steps_in + n_steps_out), giving
    N = T - n_steps_in - n_steps_out + 1 samples.
    """
    mat = np.asarray(features, dtype=np.float64)
    if mat.ndim != 2:
        raise ShapeError(f"expected a 2-D feature matrix, got {mat.ndim} dimension(s)")
    T, d = mat.shape
    if not 0 <= target_col < d:
        raise ShapeError(f"target column {target_col} out of range for {d} feature(s)")
    if n_steps_in < 1 or n_steps_out < 1:
        raise SizingError(
            f"window sizes must be at least 1, got n_steps_in={n_steps_in}, n_steps_out={n_steps_out}"
        )
    if T < n_steps_in + n_steps_out:
        raise SizingError(
            f"need at least {n_steps_in + n_steps_out} rows for one window, got {T}"
        )
    N = T - n_steps_in - n_steps_out + 1
    X = sliding_window_view(mat, (n_steps_in, d))[:N, 0].copy()
    Y = sliding_window_view(mat[n_steps_in:, target_col], n_steps_out).copy()
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"f{j}" for j in range(d)
    )
    if len(names) != d:
        raise ShapeError(f"{len(names)} feature names for {d} columns")
    return WindowedDataset(X=X, Y=Y, feature_names=names, target_col=target_col, scaler=scaler)


def train_window_count(n_windows: int, train_fraction: float) -> int:
    """Training windows of a chronological split: floor(n_windows * train_fraction).

    Both parts must be non-empty, otherwise SizingError.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DomainError(f"train fraction must be in (0, 1), got {train_fraction}")
    n_train = int(n_windows * train_fraction)
    if n_train < 1 or n_windows - n_train < 1:
        raise SizingError(
            f"train fraction {train_fraction} leaves an empty split for {n_windows} window(s)"
        )
    return n_train


# Characters that make csv.writer quote a cell.
_QUOTED_CHARS = (",", '"', "\r", "\n")
# Rows converted to text at a time, so a table's cells are never all alive at once.
_ROWS_PER_BLOCK = 256


def _cells(column) -> list:
    """The text csv.writer writes for each cell of a column."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            cells = list(map(repr, column.tolist()))
            for i in np.flatnonzero(~np.isfinite(column)).tolist():
                cells[i] = ""
            return cells
        if column.dtype.kind == "M":
            return np.datetime_as_string(column).tolist()
        column = column.tolist()
    return ["" if cell is None else str(cell) for cell in column]


def _numeric(column) -> bool:
    """Whether every cell of the column is a number or a date, which csv.writer never quotes."""
    return isinstance(column, range) or (isinstance(column, np.ndarray) and column.dtype.kind in "biufM")


def write_csv(path, header, columns) -> None:
    """Write one CSV from equal-length column sequences, one per header name.

    A float array is written with repr for full round-trip fidelity and a
    blank cell where a value is not finite, a datetime64 array as ISO 8601
    text (``YYYY-MM-DD`` for days); any other column as it is. The
    bytes are csv.writer's; rows that need no quoting are joined directly.
    """
    columns = list(columns)
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    texts = [i for i, column in enumerate(columns) if not _numeric(column)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, max(lengths, default=0), _ROWS_PER_BLOCK):
            block = [_cells(column[start : start + _ROWS_PER_BLOCK]) for column in columns]
            joined = "".join("".join(block[i]) for i in texts)
            # csv.writer writes a lone empty cell as "", so one-column tables go through it
            if len(columns) > 1 and not any(ch in joined for ch in _QUOTED_CHARS):
                fh.writelines(",".join(row) + "\n" for row in zip(*block))
            else:
                writer.writerows(zip(*block))


def json_text(payload) -> str:
    """The text of every JSON file the program writes: sorted keys, 2-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def array_json(array, dtype: str) -> dict:
    """The JSON object that stores a numeric array in a model file: ``data``, the
    base64 of the array's C-order bytes as ``dtype`` (``"<f4"``, ``"<f8"`` or
    ``"<i8"``, little-endian), and the ``dtype`` and ``shape`` to read them back."""
    array = np.asarray(array, dtype=dtype)
    data = binascii.b2a_base64(array.tobytes(), newline=False).decode("ascii")
    return {"data": data, "dtype": dtype, "shape": list(array.shape)}


def array_from_json(value, what: str, dtype: str, ndim: int) -> np.ndarray:
    """The writable, native-order array of an :func:`array_json` object of
    ``dtype`` and ``ndim`` dimensions. Anything else is a SchemaError naming
    ``what``: keys other than data, dtype and shape; another dtype; a shape not of
    ``ndim`` non-negative integers; data other than the writer's own base64 text
    of exactly the shape's bytes; a float that is not finite."""
    if type(value) is not dict or value.keys() != {"data", "dtype", "shape"}:
        raise SchemaError(f"{what} must be an object of data, dtype and shape, got {shown(value)}")
    if value["dtype"] != dtype:
        raise SchemaError(f"{what} dtype must be {dtype!r}, got {shown(value['dtype'])}")
    shape = value["shape"]
    if type(shape) is not list or len(shape) != ndim or not all(type(n) is int and n >= 0 for n in shape):
        raise SchemaError(f"{what} shape must be a list of {ndim} non-negative integers, got {shown(shape)}")
    text = value["data"]
    try:
        data = binascii.a2b_base64(text)
    except (TypeError, ValueError):  # not a string, not ASCII, or cut short
        data = None
    if data is None or binascii.b2a_base64(data, newline=False) != text.encode("ascii"):
        raise SchemaError(f"{what} data must be base64 text, got {shown(text)}")
    size = math.prod(shape) * np.dtype(dtype).itemsize  # a Python int: nothing is allocated from it
    if len(data) != size:
        raise SchemaError(f"{what} holds {len(data)} bytes; its shape {shown(shape)} needs {shown(size)}")
    array = np.frombuffer(data, dtype).astype(np.dtype(dtype).newbyteorder("="))  # a writable copy
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        raise SchemaError(f"{what} has non-finite values")
    return array.reshape(shape)


def windows_to_csv(dataset: WindowedDataset, path) -> None:
    """Dump windows sample-major: one row per sample, features then targets."""
    header = [
        "sample",
        *(f"x{t}_{name}" for t in range(dataset.n_steps_in) for name in dataset.feature_names),
        *(f"y{s}" for s in range(dataset.n_steps_out)),
    ]
    X = dataset.X.reshape(dataset.n_samples, -1)
    write_csv(path, header, [range(dataset.n_samples), *X.T, *dataset.Y.T])
