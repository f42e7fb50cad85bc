"""Loading, validation, normalization and supervised windowing of the
cumulative case/death series, and the one check of declared field types
that every config and every fit, an LSTM model too, runs when it is built.

All types are immutable value objects; every operation is a pure function.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import os
import re
import sys
import typing
from dataclasses import dataclass
from importlib import resources

import numpy as np

DAY = dt.timedelta(days=1)
_INT64_MAX = int(np.iinfo(np.int64).max)  # counts are stored as int64
# a count as a CSV holds it, once stripped: ASCII digits and no other sign
# than a minus, where int() would also take `+5`, `1_000` and non-ASCII digits
_COUNT = re.compile(r"-?[0-9]+")


class DataError(Exception):
    """Anything the data layer rejects; its message names the fault."""


# the declared type of each field of a dataclass, by name in field order:
# resolved once per class, since under postponed annotations one resolution
# costs about 90 us and a fit is built in about 6 us. Every caller shares the
# dict, so none may change it.
field_types = functools.cache(typing.get_type_hints)

# the types a declared int admits; a declared float admits these too, a
# Python int only if float() converts it, and any float or numpy float
_ADMITS = {int: (int, np.integer)}
# the least int that float() rejects: 2**1024 - 2**970 rounds up to 2**1024
_INT_BEYOND_FLOAT = 2**1024 - 2**970
# the name a message gives each declared type that is no plain class
_SHOWN = {np.ndarray: "1-D int or float ndarray", tuple[int, int, int]: "tuple[int, int, int]",
          list[float]: "list[float]"}
# the most characters of a rejected value that a message quotes
_QUOTED = 160


def _admits(kind, value) -> bool:
    if kind is float:  # first: a list[float] checks each of its entries here
        return isinstance(value, (float, np.floating, np.integer)) or (
            _admits(int, value) and abs(value) < _INT_BEYOND_FLOAT)
    if kind is np.ndarray:
        return isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "iuf"
    if kind == tuple[int, int, int]:
        return isinstance(value, tuple) and len(value) == 3 and all(_admits(int, n) for n in value)
    if kind == list[float]:
        return isinstance(value, list) and all(_admits(float, x) for x in value)
    return isinstance(value, _ADMITS.get(kind, kind)) and not isinstance(value, (bool, dt.datetime))


def _quoted(value) -> str:
    """repr(value) on one line; past _QUOTED characters, its middle is cut
    to `...`, so a long value keeps its first and its last entries."""
    text = re.sub(r"\n\s*", " ", repr(value))
    keep = (_QUOTED - 3) // 2
    return text if len(text) <= _QUOTED else f"{text[:keep]}...{text[-keep:]}"


def check_value(name: str, declared, value, error) -> None:
    """Raise `error` naming `name` unless `value` is of the type `declared`.
    An `int` is an int or a numpy integer, a `float` also a float or a numpy
    float, and neither a bool nor a numpy bool; an int that `float()` cannot
    convert, 10**400 say, is no `float`; a `dt.date` is no datetime,
    which compares with no date; a `tuple[int, int, int]` holds three such
    ints and a `list[float]` any number of such floats; an `np.ndarray` is
    1-D, of integer or float dtype. Any other type admits its own
    instances. The message quotes the value by `_quoted`."""
    if not _admits(declared, value):
        raise error(f"{name} must be of type {_SHOWN.get(declared, declared.__name__)}, "
                    f"got {_quoted(value)}")


def check_fields(obj, error) -> None:
    """`check_value` on every field of the dataclass `obj`, in field order."""
    for name, declared in field_types(type(obj)).items():
        check_value(name, declared, getattr(obj, name), error)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeSeries:
    """Daily cumulative counts of two channels, cases and deaths, on strictly
    consecutive calendar days. Not checked here: `load_csv` checks, line by
    line, that the dates are consecutive and that neither channel decreases."""

    dates: tuple[dt.date, ...]
    cases: np.ndarray
    deaths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        for name in ("cases", "deaths"):
            values = _freeze(np.asarray(getattr(self, name), dtype=np.int64))
            object.__setattr__(self, name, values)
            if len(values) != len(self.dates):
                raise DataError(f"dates and {name} length mismatch")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def start(self) -> dt.date:
        return self.dates[0]

    @property
    def end(self) -> dt.date:
        return self.dates[-1]

    def channels(self, bivariate: bool) -> np.ndarray:
        """Values as an (n, D) float array, D=2 when bivariate."""
        if bivariate:
            return np.column_stack([self.cases, self.deaths]).astype(float)
        return self.cases.astype(float)[:, None]


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-channel affine map sending the fit window's min to 0 and max to 1.

    Values outside the fitted window may map outside [0, 1]; that is fine and
    expected for later actuals and recursive model outputs.
    Max exceeds min for every channel, which is not checked here:
    `fit_normalizer` checks it and names the channel, its value and the window.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", _freeze(np.asarray(self.mins, dtype=float)))
        object.__setattr__(self, "maxs", _freeze(np.asarray(self.maxs, dtype=float)))

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mins) / (self.maxs - self.mins)

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * (self.maxs - self.mins) + self.mins


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised one-step-ahead samples from a normalized series.

    inputs has shape (n_samples, lookback, channels); targets (n_samples, channels).
    Sample k's target equals the first row of sample k+1's input block.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", _freeze(np.asarray(self.inputs, dtype=float)))
        object.__setattr__(self, "targets", _freeze(np.asarray(self.targets, dtype=float)))

    def __len__(self) -> int:
        return len(self.targets)


def bundled_dataset_path() -> str:
    """Path to the snapshot of the Turkey Ministry of Health series shipped
    with the package (2020-03-11 .. 2020-05-08)."""
    return str(resources.files("casecast").joinpath("turkey_covid19.csv"))


def shown_path(path) -> str:
    """`path` as a message names it: its bytes in the file system's encoding,
    decoded back with each byte that does not decode written as `\\xhh`. So
    the C locale shows `donn\\xc3\\xa9es.csv` for a name typed in UTF-8, a
    UTF-8 locale shows `données.csv`, and no lone surrogate is printed."""
    return os.fsencode(path).decode(sys.getfilesystemencoding(), "backslashreplace")


def load_csv(path: str) -> TimeSeries:
    """Parse a `date,total_cases,total_deaths` CSV into a TimeSeries.

    Every violation is a DataError whose message names the fault: a missing,
    unreadable or non-UTF-8 file, or, prefixed with its line, a malformed
    row (a count that is not a decimal integer, negative or beyond int64
    is one), a date gap or out of order, or a decreasing cumulative value.
    A count is ASCII digits with an optional leading minus, once its
    surrounding whitespace is stripped.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError as exc:
        raise DataError(f"no such file: {shown_path(path)}") from exc
    except OSError as exc:
        raise DataError(f"cannot open {shown_path(path)}: {exc.strerror}") from exc
    with fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise DataError(f"{shown_path(path)} is not UTF-8 text") from exc
    if not rows:
        raise DataError("line 1: empty file")
    if [h.strip() for h in rows[0]] != ["date", "total_cases", "total_deaths"]:
        raise DataError(f"line 1: unexpected header {rows[0]!r}")
    dates: list[dt.date] = []
    cases: list[int] = []
    deaths: list[int] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataError(f"line {lineno}: expected 3 fields, got {len(row)}")
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        counts = [field.strip() for field in row[1:]]
        for count in counts:
            if not _COUNT.fullmatch(count):
                raise DataError(f"line {lineno}: count {count!r} is not a decimal integer")
        c, d = map(int, counts)
        if c < 0 or d < 0:
            raise DataError(f"line {lineno}: negative count")
        if max(c, d) > _INT64_MAX:
            raise DataError(f"line {lineno}: count {max(c, d)} exceeds the int64 range")
        if dates:
            if date <= dates[-1]:
                raise DataError(f"line {lineno}: date {date} not after {dates[-1]}")
            if date - dates[-1] != DAY:
                raise DataError(f"line {lineno}: gap between {dates[-1]} and {date}")
            if c < cases[-1] or d < deaths[-1]:
                raise DataError(f"line {lineno}: cumulative value decreases")
        dates.append(date)
        cases.append(c)
        deaths.append(d)
    if not dates:
        raise DataError("line 2: no data rows")
    return TimeSeries(tuple(dates), np.array(cases), np.array(deaths))


def slice_window(ts: TimeSeries, start: dt.date, end: dt.date) -> TimeSeries:
    """Inclusive sub-series by date range. Slices by dates, never by a
    hardcoded count."""
    if start > end:
        raise DataError(f"start {start} after end {end}")
    if start < ts.start or end > ts.end:
        raise DataError(
            f"window {start}..{end} outside series range {ts.start}..{ts.end}"
        )
    i = (start - ts.start).days
    j = (end - ts.start).days + 1
    return TimeSeries(ts.dates[i:j], ts.cases[i:j], ts.deaths[i:j])


def forecast_horizon(ts: TimeSeries, train_end: dt.date, horizon: int):
    """The `horizon` days after `train_end` and the cases observed on them,
    as floats (None unless the series covers every one of them).
    Returns (dates, actuals). A horizon below 1 is a DataError."""
    if horizon < 1:
        raise DataError(f"horizon must be at least 1 day, got {horizon}")
    dates = tuple(train_end + (k + 1) * DAY for k in range(horizon))
    if dates[0] < ts.start or dates[-1] > ts.end:
        return dates, None
    i = (dates[0] - ts.start).days
    return dates, ts.cases[i : i + horizon].astype(float)


def observed_horizon(ts: TimeSeries, train_end: dt.date, horizon: int):
    """`forecast_horizon` for a caller that reads or scores the observed
    days: a horizon the series does not cover is a DataError."""
    dates, actuals = forecast_horizon(ts, train_end, horizon)
    if actuals is None:
        raise DataError(f"observed values over the whole horizon {dates[0]}..{dates[-1]} "
                        f"are needed, but the series covers {ts.start}..{ts.end}")
    return dates, actuals


def fit_normalizer(ts: TimeSeries, bivariate: bool = False) -> NormalizationSpec:
    """Per-channel min/max over the given (training) window only. A channel
    that is constant over the window is a DataError naming it."""
    if len(ts) < 2:
        raise DataError("need at least 2 observations to fit a normalizer")
    values = ts.channels(bivariate)
    mins, maxs = values.min(axis=0), values.max(axis=0)
    for name, lo, hi in zip(("cases", "deaths"), mins, maxs):
        if hi <= lo:
            raise DataError(
                f"{name} is constant at {lo:.0f} over {ts.start}..{ts.end}, "
                "so it cannot be normalized"
            )
    return NormalizationSpec(mins, maxs)


def make_windows(values: np.ndarray, lookback: int) -> WindowedDataset:
    """Slide a length-`lookback` window over a normalized (n, D) array,
    pairing each block with the next day's vector."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DataError(f"values of shape {values.shape}, expected (n, D)")
    n = len(values)
    if lookback < 1:
        raise DataError("lookback must be >= 1")
    if n <= lookback:
        raise DataError(f"series of length {n} too short for lookback {lookback}")
    inputs = np.stack([values[k : k + lookback] for k in range(n - lookback)])
    targets = values[lookback:]
    return WindowedDataset(inputs, targets)
