"""OHLCV ingestion, calendar alignment, normalization and sample windowing.

Input is one CSV per stock with the fixed header
``date,open,high,low,adj_close,volume`` (``YYYY-MM-DD`` dates, plain
unquoted fields), plus a manifest
CSV mapping ticker to file path with an optional sector column.  The
panel is restricted to the intersection of all stocks' trading days; no
values are imputed.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ConfigError, DataError, InsufficientDataError, NumericError, ParseError

RAW_INDICATORS = ["open", "high", "low", "adj_close", "volume"]
DEFAULT_INDICATORS = ["open", "high", "low", "adj_close"]
CSV_HEADER = ["date", "open", "high", "low", "adj_close", "volume"]
CLASSES = 2  # trend classes per forecast step: 0 down or flat, 1 up


@dataclass
class IndicatorPanel:
    """Aligned per-stock, per-day indicator series."""

    tickers: list[str]
    dates: list[str]
    values: np.ndarray               # N x T x F
    indicators: list[str]
    close: np.ndarray                # N x T raw adjusted close, kept for labels
    sectors: dict[str, str] = field(default_factory=dict)

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    @property
    def n_days(self) -> int:
        return len(self.dates)


@dataclass
class DatasetSplits:
    """Chronological blocks of window ends t, consecutive days each."""

    train: range
    validation: range
    test: range


def _read_lines(path: Path) -> list[str]:
    """A UTF-8 file's lines, split at ``\\n``, ``\\r\\n`` or ``\\r``.  A byte
    sequence that is not UTF-8 is a ParseError naming the file and line."""
    data = path.read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: not UTF-8 ({exc.reason})") from None
    return text.split("\n")


def read_manifest(path) -> list[tuple[str, Path, str]]:
    """Parse a manifest CSV of `ticker,path[,sector]` rows.  Lines starting
    with '#' are comments; paths are resolved relative to the manifest."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    try:
        lines = _read_lines(path)
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc.strerror}") from None
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[0] == "ticker":
            continue
        if len(parts) < 2:
            raise ParseError(f"{path}:{lineno}: expected `ticker,path[,sector]`")
        sector = parts[2] if len(parts) > 2 else ""
        rows.append((parts[0], path.parent / parts[1], sector))
    if not rows:
        raise DataError(f"manifest {path} lists no stocks")
    return rows


# True at the dashes of YYYY-MM-DD, False at its digits
_DATE_DASHES = np.array([c == "-" for c in "0000-00-00"])


def _read_stock_csv(ticker: str, csv_path: Path) -> tuple[np.ndarray, np.ndarray]:
    """One stock's rows as (dates, values): sorted ``datetime64[D]`` dates
    and the matching R x 5 float64 array in RAW_INDICATORS order.

    The file is checked and converted in bulk: one read, one split into
    fields, one ``np.array`` conversion of the 5R value strings (Python's
    ``float`` parser on each), and array checks
    of the dates (canonical ``YYYY-MM-DD``, a real calendar day, year >= 1,
    no repeats) and values (finite).  Fields are plain: a ``"`` is not
    quoting, so a quoted field fails its date or number check.  Blank lines
    are skipped.  Only when a bulk check fails are the lines walked one by
    one, to name the first bad one in the ParseError."""
    if not csv_path.exists():
        raise DataError(f"missing data file for ticker {ticker}: {csv_path}")
    try:
        lines = _read_lines(csv_path)
    except OSError as exc:
        raise DataError(
            f"cannot read data file for ticker {ticker}: {csv_path}: {exc.strerror}") from None
    if [h.strip() for h in lines[0].split(",")] != CSV_HEADER:
        raise ParseError(f"{csv_path}:1: header must be {','.join(CSV_HEADER)}")
    rows = list(filter(None, lines[1:]))
    if not rows:
        raise DataError(f"data file for ticker {ticker} has no rows: {csv_path}")
    n = len(rows)
    if not (np.fromiter(map(str.count, rows, repeat(",")), np.intp, n) == 5).all():
        _raise_first_bad_line(csv_path, lines)
    fields = ",".join(rows).split(",")
    date_strings = list(map(str.strip, fields[0::6]))
    del fields[0::6]
    chars = np.array(date_strings)
    if chars.dtype != np.dtype("U10"):
        _raise_first_bad_line(csv_path, lines)
    codes = chars.view(np.uint32).reshape(n, 10)
    digits = (codes >= ord("0")) & (codes <= ord("9"))
    if not np.where(_DATE_DASHES, codes == ord("-"), digits).all():
        _raise_first_bad_line(csv_path, lines)
    try:
        days = np.array(date_strings, dtype="datetime64[D]")
    except ValueError:
        _raise_first_bad_line(csv_path, lines)
    if days.min() < np.datetime64("0001-01-01"):
        _raise_first_bad_line(csv_path, lines)
    try:
        values = np.array(fields, dtype=np.float64).reshape(n, 5)
    except ValueError:
        _raise_first_bad_line(csv_path, lines)
    if not np.isfinite(values).all():
        _raise_first_bad_line(csv_path, lines)
    order = np.argsort(days)
    days = days[order]
    if (days[1:] == days[:-1]).any():
        _raise_first_bad_line(csv_path, lines)
    return days, values[order]


def _raise_first_bad_line(csv_path: Path, lines: list[str]) -> NoReturn:
    """Raise the ParseError for the first data line that fails a row check,
    in the order columns, date, numbers, finiteness, repeat.  Called only
    after a bulk check has rejected the file."""
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        row = line.split(",")
        if len(row) != 6:
            raise ParseError(f"{csv_path}:{lineno}: expected 6 columns, got {len(row)}")
        date = row[0].strip()
        try:
            canonical = datetime.date.fromisoformat(date).isoformat() == date
        except ValueError:
            canonical = False
        if not canonical:
            raise ParseError(f"{csv_path}:{lineno}: date {date!r} is not YYYY-MM-DD")
        try:
            vals = [float(x) for x in row[1:]]
        except ValueError as exc:
            raise ParseError(f"{csv_path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, vals)):
            raise ParseError(f"{csv_path}:{lineno}: non-finite value")
        if date in seen:
            raise ParseError(f"{csv_path}:{lineno}: duplicate date {date}")
        seen.add(date)
    raise ParseError(f"{csv_path}: rejected by a bulk check that no single line fails")


def load_panel(manifest, min_days: int = 2) -> IndicatorPanel:
    """Load every stock in the manifest and align on the common calendar.

    The panel is allocated on the first stock's calendar and each stock's
    rows are written into it as soon as its file is parsed (see
    ``_read_stock_csv``), while one mask keeps the days every stock has.
    The other days are dropped at the end, a step that copies nothing when
    all calendars agree, or as soon as they outnumber the shared ones.
    Loading therefore holds one N x T x 5 panel, T at most twice the shared
    days once a second stock is written, plus one file's fields and arrays."""
    entries = read_manifest(manifest)
    if len(entries) < 2:
        raise DataError("manifest must list at least 2 stocks")
    tickers = [t for t, _, _ in entries]
    if len(set(tickers)) != len(tickers):
        raise DataError("manifest has duplicate tickers")

    calendar, rows = _read_stock_csv(*entries[0][:2])
    values = np.empty((len(entries),) + rows.shape)
    values[0] = rows
    shared = np.ones(len(calendar), dtype=bool)
    for i, (ticker, path, _) in enumerate(entries[1:], start=1):
        days, rows = _read_stock_csv(ticker, path)
        at = np.minimum(np.searchsorted(days, calendar), len(days) - 1)
        shared &= days[at] == calendar
        np.take(rows, at, axis=0, out=values[i])
        # Unshared days go at the end, or once they are half the calendar,
        # so a first stock with a long history cannot inflate the panel
        n_shared = int(np.count_nonzero(shared))
        if n_shared < len(calendar) and (i == len(entries) - 1 or 2 * n_shared < len(calendar)):
            calendar, values = calendar[shared], np.compress(shared, values, axis=1)
            shared = shared[shared]
    if n_shared < min_days:
        raise InsufficientDataError(
            f"only {n_shared} shared trading days, need at least {min_days}")
    close = values[:, :, RAW_INDICATORS.index("adj_close")].copy()
    sectors = {t: s for t, _, s in entries if s}
    return IndicatorPanel(tickers=tickers, dates=np.datetime_as_string(calendar).tolist(),
                          values=values, indicators=list(RAW_INDICATORS), close=close,
                          sectors=sectors)


def select_indicators(panel: IndicatorPanel, names: list[str]) -> IndicatorPanel:
    """Restrict the panel to the given channels, each named once, in order."""
    unknown = [n for n in names if n not in panel.indicators]
    if unknown:
        raise ConfigError(f"unknown indicator(s) {unknown}; available: {panel.indicators}")
    repeated = sorted({n for i, n in enumerate(names) if n in names[:i]})
    if repeated:
        raise ConfigError(f"indicator(s) {repeated} named more than once")
    idx = [panel.indicators.index(n) for n in names]
    return IndicatorPanel(tickers=panel.tickers, dates=panel.dates,
                          values=np.take(panel.values, idx, axis=2),
                          indicators=list(names), close=panel.close,
                          sectors=panel.sectors)


def normalize(panel: IndicatorPanel, splits: DatasetSplits) -> IndicatorPanel:
    """Z-score each (stock, channel) series with statistics from the days
    covered by the training block only (calendar days up to the last train
    window end); zero-variance channels keep divisor 1.  The result is one
    new panel, centred and then divided in place, so the input and the
    output are the only full-size arrays.  A channel whose statistics
    overflow float64 is a NumericError."""
    if not splits.train:
        raise InsufficientDataError("empty training split")
    stat_days = splits.train[-1] + 1
    if stat_days < 2:
        raise InsufficientDataError("training split must cover at least 2 days")
    train_slice = panel.values[:, :stat_days, :]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train_slice.mean(axis=1)           # N x F
        std = train_slice.std(axis=1)             # population std
    overflowed = ~(np.isfinite(mean) & np.isfinite(std))
    if overflowed.any():
        i, j = (int(x[0]) for x in np.nonzero(overflowed))
        raise NumericError(
            f"normalize: {panel.indicators[j]} of stock {panel.tickers[i]} has "
            f"train mean {mean[i, j]} and std {std[i, j]}; its values are too large "
            f"to z-score in float64")
    safe_std = np.where(std == 0.0, 1.0, std)
    values = panel.values - mean[:, None, :]
    values /= safe_std[:, None, :]
    return IndicatorPanel(tickers=panel.tickers, dates=panel.dates, values=values,
                          indicators=panel.indicators, close=panel.close,
                          sectors=panel.sectors)


def window_ends(ts, tau: int, last: int) -> np.ndarray:
    """``ts`` as an int64 array of window ends, checked: consecutive days,
    as a split's are, each with ``tau`` days of history and none past day
    ``last``.  A tau below 1 or ends that are not consecutive is a
    ``ConfigError``; an end outside [tau - 1, last] an ``IndexError``."""
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    ts = np.asarray(ts, dtype=np.int64).reshape(-1)
    outside = ts[(ts < tau - 1) | (ts > last)]
    if outside.size:
        raise IndexError(f"t={outside[0]} out of range [{tau - 1}, {last}] for tau={tau}")
    if (np.diff(ts) != 1).any():
        raise ConfigError("window ends must be consecutive days")
    return ts


def window_view(values: np.ndarray, ts: np.ndarray, tau: int) -> np.ndarray:
    """The windows of ``tau`` days ending at each day of ``ts`` (checked by
    ``window_ends``) of the N x T x F array ``values``, as a read-only
    B x N x (tau*F) view: row i of window b concatenates, day by day from
    t-tau+1 through t, the F channels of stock i.  The array is day-major,
    so for a C-order ``values`` each row is one contiguous run of it and
    consecutive windows overlap; no window is copied."""
    n, _, f = values.shape
    # N x (T - tau + 1) x F x tau windows of the day axis, read-only
    days = np.lib.stride_tricks.sliding_window_view(values, tau, axis=1)
    first = int(ts[0]) - tau + 1 if ts.size else 0
    windows = days[:, first:first + ts.size].transpose(1, 0, 3, 2)
    return windows.reshape(ts.size, n, tau * f)


def build_windows(panel: IndicatorPanel, ts, tau: int, phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Window features ending at each day t of ``ts`` plus one-hot movement
    labels for days t+1 .. t+phi, for all B window ends in one pass.

    ``features`` is the B x N x (tau*F) ``window_view`` of
    ``panel.values``.  ``labels`` is a read-only B x N x (phi*CLASSES)
    int8 array, one CLASSES block per step: class 1 when adjusted close
    rises, class 0 otherwise (ties count as down).
    """
    if phi < 1:
        raise ConfigError(f"phi must be >= 1, got {phi}")
    ts = window_ends(ts, tau, panel.n_days - 1 - phi)
    features = window_view(panel.values, ts, tau)
    n = panel.n_stocks
    up = panel.close[:, 1:] > panel.close[:, :-1]         # N x (T - 1): day d to d + 1
    steps = up[:, ts[:, None] + np.arange(phi)].transpose(1, 0, 2)   # B x N x phi
    labels = np.empty(steps.shape + (CLASSES,), dtype=np.int8)
    labels[..., 0] = ~steps                               # class 0: down or flat
    labels[..., 1] = steps                                # class 1: up
    labels.flags.writeable = False
    return features, labels.reshape(ts.size, n, phi * CLASSES)


def usable_range(n_days: int, tau: int, phi: int) -> range:
    """Window ends t for which both the lag window and the labels exist."""
    return range(tau - 1, n_days - phi)


def split_periods(panel: IndicatorPanel, ratios: tuple[int, int, int],
                  tau: int, phi: int) -> DatasetSplits:
    """Contiguous chronological partition of the usable window ends,
    proportional to the ratios (floor, then remainder left to right)."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ConfigError(f"ratios must be three positive integers, got {ratios}")
    ts = usable_range(panel.n_days, tau, phi)
    usable = len(ts)
    total = sum(ratios)
    sizes = [usable * r // total for r in ratios]
    remainder = usable - sum(sizes)
    for i in range(remainder):
        sizes[i % 3] += 1
    if any(s == 0 for s in sizes):
        raise InsufficientDataError(
            f"{usable} usable days cannot fill three non-empty blocks with ratios {ratios}")
    a, b = sizes[0], sizes[0] + sizes[1]
    return DatasetSplits(train=ts[:a], validation=ts[a:b], test=ts[b:])
