"""OHLCV ingestion, calendar alignment, normalization and sample windowing.

Input is one CSV per stock with the fixed header
``date,open,high,low,adj_close,volume`` (``YYYY-MM-DD`` dates), plus a manifest
CSV mapping ticker to file path with an optional sector column.  The
panel is restricted to the intersection of all stocks' trading days; no
values are imputed.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, InsufficientDataError, NumericError, ParseError

RAW_INDICATORS = ["open", "high", "low", "adj_close", "volume"]
DEFAULT_INDICATORS = ["open", "high", "low", "adj_close"]
CSV_HEADER = ["date", "open", "high", "low", "adj_close", "volume"]


@dataclass
class NormalizationStats:
    """Per-(stock, channel) train-split statistics; kept for inverting the
    transform and for reporting zero-variance channels."""

    mean: np.ndarray       # N x F
    std: np.ndarray        # N x F, divisor actually used (1.0 where degenerate)
    stat_days: int         # calendar days the statistics were computed on
    zero_variance: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class IndicatorPanel:
    """Aligned per-stock, per-day indicator series."""

    tickers: list[str]
    dates: list[str]
    values: np.ndarray               # N x T x F
    indicators: list[str]
    close: np.ndarray                # N x T raw adjusted close, kept for labels
    sectors: dict[str, str] = field(default_factory=dict)
    norm_stats: NormalizationStats | None = None

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    @property
    def n_days(self) -> int:
        return len(self.dates)


@dataclass
class WindowSample:
    """Features over the lag window ending at t and one-hot labels for the
    following forecast steps."""

    t: int
    features: np.ndarray  # N x (tau*F), a read-only view of the panel
    labels: np.ndarray    # N x (phi*alpha) integer one-hot per alpha block


@dataclass
class DatasetSplits:
    """Chronological sample-index blocks; every index is a window end t."""

    train: list[int]
    validation: list[int]
    test: list[int]


def read_manifest(path) -> list[tuple[str, Path, str]]:
    """Parse a manifest CSV of `ticker,path[,sector]` rows.  Lines starting
    with '#' are comments; paths are resolved relative to the manifest."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def _read_stock_csv(ticker: str, csv_path: Path) -> tuple[np.ndarray, np.ndarray]:
    """One stock's rows as (dates, values): sorted ``datetime64[D]`` dates
    and the matching R x 5 float64 array in RAW_INDICATORS order."""
    if not csv_path.exists():
        raise DataError(f"missing data file for ticker {ticker}: {csv_path}")
    dates: list[str] = []
    values: list[list[float]] = []
    seen: set[str] = set()
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise ParseError(f"{csv_path}:1: header must be {','.join(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
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
            dates.append(date)
            values.append(vals)
    if not dates:
        raise DataError(f"data file for ticker {ticker} has no rows: {csv_path}")
    days = np.array(dates, dtype="datetime64[D]")
    order = np.argsort(days)
    return days[order], np.array(values)[order]


def load_panel(manifest, min_days: int = 2) -> IndicatorPanel:
    """Load every stock in the manifest and align on the common calendar.

    Each file is parsed straight to arrays, so no per-row Python object
    outlives its file and memory grows as N x T x F."""
    entries = read_manifest(manifest)
    if len(entries) < 2:
        raise DataError("manifest must list at least 2 stocks")
    tickers = [t for t, _, _ in entries]
    if len(set(tickers)) != len(tickers):
        raise DataError("manifest has duplicate tickers")

    per_stock = [_read_stock_csv(t, p) for t, p, _ in entries]
    common = per_stock[0][0]
    for days, _ in per_stock[1:]:
        common = np.intersect1d(common, days, assume_unique=True)
    if len(common) < min_days:
        raise InsufficientDataError(
            f"only {len(common)} shared trading days, need at least {min_days}")

    values = np.empty((len(tickers), len(common), len(RAW_INDICATORS)))
    for i, (days, rows) in enumerate(per_stock):
        values[i] = rows[np.searchsorted(days, common)]
    close = values[:, :, RAW_INDICATORS.index("adj_close")].copy()
    sectors = {t: s for t, _, s in entries if s}
    return IndicatorPanel(tickers=tickers, dates=np.datetime_as_string(common).tolist(),
                          values=values, indicators=list(RAW_INDICATORS), close=close,
                          sectors=sectors)


def select_indicators(panel: IndicatorPanel, names: list[str]) -> IndicatorPanel:
    """Restrict the panel to the given channels in the given order."""
    unknown = [n for n in names if n not in panel.indicators]
    if unknown:
        raise ConfigError(f"unknown indicator(s) {unknown}; available: {panel.indicators}")
    idx = [panel.indicators.index(n) for n in names]
    return IndicatorPanel(tickers=panel.tickers, dates=panel.dates,
                          values=np.take(panel.values, idx, axis=2),
                          indicators=list(names), close=panel.close,
                          sectors=panel.sectors)


def normalize(panel: IndicatorPanel, splits: DatasetSplits) -> IndicatorPanel:
    """Z-score each (stock, channel) series with statistics from the days
    covered by the training block only (calendar days up to the last train
    window end); zero-variance channels keep divisor 1 and are recorded.
    A channel whose statistics overflow float64 is a NumericError."""
    if not splits.train:
        raise InsufficientDataError("empty training split")
    stat_days = max(splits.train) + 1
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
    degenerate = std == 0.0
    zero_variance = [(panel.tickers[i], panel.indicators[j])
                     for i, j in zip(*np.nonzero(degenerate))]
    safe_std = np.where(degenerate, 1.0, std)
    values = (panel.values - mean[:, None, :]) / safe_std[:, None, :]
    stats = NormalizationStats(mean=mean, std=safe_std, stat_days=stat_days,
                               zero_variance=zero_variance)
    return IndicatorPanel(tickers=panel.tickers, dates=panel.dates, values=values,
                          indicators=panel.indicators, close=panel.close,
                          sectors=panel.sectors, norm_stats=stats)


def build_sample(panel: IndicatorPanel, t: int, tau: int, phi: int, alpha: int = 2) -> WindowSample:
    """Window features ending at day t plus one-hot movement labels for
    days t+1 .. t+phi.

    Feature rows concatenate, day by day from t-tau+1 through t, the F
    channels of that stock.  The panel is day-major, so the features are a
    read-only view of ``panel.values`` and consecutive windows share
    memory; no window is copied.  A step is class 1 when adjusted close rises,
    class 0 otherwise (ties count as down).
    """
    if alpha != 2:
        raise ConfigError(f"only alpha=2 trend classes are supported, got {alpha}")
    if tau < 1 or phi < 1:
        raise ConfigError(f"tau and phi must be >= 1, got tau={tau}, phi={phi}")
    if t < tau - 1 or t + phi >= panel.n_days:
        raise IndexError(
            f"t={t} out of range for tau={tau}, phi={phi}, {panel.n_days} days")
    n = panel.n_stocks
    f = len(panel.indicators)
    window = panel.values[:, t - tau + 1:t + 1, :]        # N x tau x F, day-major
    features = window.reshape(n, tau * f)                 # a view of the panel
    features.flags.writeable = False
    labels = np.zeros((n, phi * alpha), dtype=np.int64)
    for j in range(1, phi + 1):
        up = panel.close[:, t + j] > panel.close[:, t + j - 1]
        block = (j - 1) * alpha
        labels[:, block] = (~up).astype(np.int64)     # class 0: down or flat
        labels[:, block + 1] = up.astype(np.int64)    # class 1: up
    return WindowSample(t=t, features=features, labels=labels)


def usable_range(n_days: int, tau: int, phi: int) -> range:
    """Window ends t for which both the lag window and the labels exist."""
    return range(tau - 1, n_days - phi)


def split_periods(panel: IndicatorPanel, ratios: tuple[int, int, int],
                  tau: int, phi: int) -> DatasetSplits:
    """Contiguous chronological partition of the usable window ends,
    proportional to the ratios (floor, then remainder left to right)."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ConfigError(f"ratios must be three positive integers, got {ratios}")
    ts = list(usable_range(panel.n_days, tau, phi))
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
