import csv
import datetime
import math
import tracemalloc

import numpy as np
import pytest

from trendgat import market_data as md
from trendgat import model as mdl
from trendgat import synth
from trendgat.errors import ConfigError, DataError, InsufficientDataError, NumericError, ParseError

from conftest import make_dataset, trading_dates, write_manifest, write_stock_csv


def flat_values(base):
    def fn(t, j):
        c = base + j
        return (c, c + 1, c - 1, c, 1000.0)
    return fn


# ---------------------------------------------------------------------------
# load_panel
# ---------------------------------------------------------------------------

def test_calendar_intersection(tmp_path):
    dates10 = trading_dates(10)
    dates12 = trading_dates(12)
    write_stock_csv(tmp_path / "A.csv", dates10, [flat_values(10.0)("A", j) for j in range(10)])
    write_stock_csv(tmp_path / "B.csv", dates12, [flat_values(20.0)("B", j) for j in range(12)])
    write_manifest(tmp_path / "m.csv", [("A", "A.csv"), ("B", "B.csv")])
    panel = md.load_panel(tmp_path / "m.csv")
    assert panel.dates == dates10
    assert panel.values.shape == (2, 10, 5)


def test_missing_file_names_ticker(tmp_path):
    dates = trading_dates(5)
    write_stock_csv(tmp_path / "A.csv", dates, [flat_values(1.0)("A", j) for j in range(5)])
    write_manifest(tmp_path / "m.csv", [("A", "A.csv"), ("GHOST", "ghost.csv")])
    with pytest.raises(DataError, match="GHOST"):
        md.load_panel(tmp_path / "m.csv")


def test_unparsable_row_reports_file_and_line(tmp_path):
    dates = trading_dates(3)
    write_stock_csv(tmp_path / "A.csv", dates, [flat_values(1.0)("A", j) for j in range(3)])
    bad = tmp_path / "B.csv"
    bad.write_text("date,open,high,low,adj_close,volume\n"
                   "2023-01-02,1,2,3,4,5\n"
                   "2023-01-03,1,2,oops,4,5\n")
    write_manifest(tmp_path / "m.csv", [("A", "A.csv"), ("B", "B.csv")])
    with pytest.raises(ParseError, match=r"B\.csv:3"):
        md.load_panel(tmp_path / "m.csv")


MALFORMED_ROWS = [
    "2023-1-9,1,2,3,4,5",          # dates must be canonical YYYY-MM-DD
    "20230109,1,2,3,4,5",
    "2023-01-03T00:00,1,2,3,4,5",
    "2023-02-30,1,2,3,4,5",
    "2023-01-03,1,nan,3,4,5",
    "2023-01-03,1,2,3,-inf,5",
    "2023-01-03,1,2,3,4",          # 5 fields
    "2023-01-03,1,2,3,4,5,2023-01-04,1,2,3,4,5",   # two records on one line
    "2023-01-03,1,2,3,4,5,2023-01-04\n1,2,3,4,5",   # 7 then 5 fields: 12 on two lines
    '2023-01-03,"1,5",2,3,4,5',    # fields are plain: a quote is not quoting
    '"2023-01-03",1,2,3,4,5',
    "0000-01-01,1,2,3,4,5",        # year 0 is not a calendar year
    "10000-01-01,1,2,3,4,5",
    "2023-01-02,1,2,3,4,5",        # repeats the previous line's date
]


@pytest.mark.parametrize("bad_row", MALFORMED_ROWS)
def test_malformed_row_reports_file_and_line(tmp_path, bad_row):
    dates = trading_dates(3)
    write_stock_csv(tmp_path / "A.csv", dates, [flat_values(1.0)("A", j) for j in range(3)])
    (tmp_path / "B.csv").write_text("date,open,high,low,adj_close,volume\n"
                                    f"2023-01-02,1,2,3,4,5\n{bad_row}\n")
    write_manifest(tmp_path / "m.csv", [("A", "A.csv"), ("B", "B.csv")])
    with pytest.raises(ParseError, match=r"B\.csv:3"):
        md.load_panel(tmp_path / "m.csv")


# ---------------------------------------------------------------------------
# the bulk reader against the per-row reader it replaced
# ---------------------------------------------------------------------------

def oracle_read_stock_csv(ticker, csv_path):
    """The per-row csv.reader parser that ``_read_stock_csv`` replaced."""
    if not csv_path.exists():
        raise DataError(f"missing data file for ticker {ticker}: {csv_path}")
    dates, values, seen = [], [], set()
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != md.CSV_HEADER:
            raise ParseError(f"{csv_path}:1: header must be {','.join(md.CSV_HEADER)}")
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


PADS = ["", " ", "\t", "  "]


def pad(rng, text):
    return PADS[rng.integers(4)] + text + PADS[rng.integers(4)]


def spell(rng, x):
    """One of the spellings ``float`` accepts for x, or a digit-grouped
    integer such as ``3_045``."""
    if rng.random() < 0.1:
        return f"{rng.integers(1, 10)}_{rng.integers(0, 1000):03d}"
    return [repr(x), f"{x:.6e}", f"{x:.17g}", f"{x:E}"][rng.integers(4)]


def random_stock_file(path, rng):
    """Shuffled rows with blank lines, mixed LF/CRLF/CR endings, padding,
    exponents and digit-group underscores."""
    n = int(rng.integers(1, 120))
    first = int(rng.integers(-700000, 2900000))       # days since 1970: years 53 to 9909
    days = rng.permutation(first + np.arange(n) * int(rng.integers(1, 4)))
    endings = ["\n", "\r\n", "\r"]
    ending = endings[rng.integers(3)]
    parts = ["date,open,high,low,adj_close,volume" + ending]
    for d in days:
        date = str(np.datetime64(int(d), "D"))
        values = rng.standard_normal(5) * 10.0 ** rng.integers(-5, 8, size=5)
        parts.append(",".join([pad(rng, date)] + [pad(rng, spell(rng, float(v)))
                                                  for v in values]))
        parts.append(endings[rng.integers(3)] if rng.random() < 0.2 else ending)
        if rng.random() < 0.1:
            parts.append(ending * int(rng.integers(1, 3)))
    path.write_bytes("".join(parts).encode("utf-8"))


@pytest.mark.parametrize("seed", range(12))
def test_bulk_reader_matches_per_row_oracle(tmp_path, seed):
    rng = np.random.default_rng(seed)
    for i in range(8):
        path = tmp_path / f"S{i}.csv"
        random_stock_file(path, rng)
        days, values = md._read_stock_csv("S", path)
        want_days, want_values = oracle_read_stock_csv("S", path)
        assert days.dtype == want_days.dtype and values.dtype == want_values.dtype
        assert np.array_equal(days, want_days) and np.array_equal(values, want_values)


@pytest.mark.parametrize("n_stocks,n_days", [(20, 600), (100, 120), (100, 600)])
def test_load_panel_is_bit_identical_to_per_row_oracle(tmp_path, monkeypatch, n_stocks, n_days):
    manifest = synth.write_dataset(tmp_path, n_stocks, n_days, seed=n_stocks + n_days)
    panel = md.load_panel(manifest)
    monkeypatch.setattr(md, "_read_stock_csv", oracle_read_stock_csv)
    want = md.load_panel(manifest)
    assert np.array_equal(panel.values, want.values)
    assert np.array_equal(panel.close, want.close)
    assert panel.dates == want.dates


def failure(read, path):
    """The class and message of a reader's rejection of path."""
    with pytest.raises(DataError) as info:
        read("B", path)
    return type(info.value), str(info.value)


# the csv module strips the quotes of '"2023-01-03"' and accepts the row
@pytest.mark.parametrize("bad_row", [r for r in MALFORMED_ROWS if not r.startswith('"')])
def test_bulk_reader_rejects_like_per_row_oracle(tmp_path, bad_row):
    path = tmp_path / "B.csv"
    path.write_text("date,open,high,low,adj_close,volume\n"
                    f"2023-01-02,1,2,3,4,5\n{bad_row}\n2023-01-05,1,2,3,4,5\n")
    got, got_message = failure(md._read_stock_csv, path)
    want, want_message = failure(oracle_read_stock_csv, path)
    assert got is want is ParseError
    assert got_message.startswith(f"{path}:3: ") and want_message.startswith(f"{path}:3: ")
    if '"' not in bad_row:    # csv reads "1,5" as one field, the bulk reader as two
        assert got_message == want_message


def test_duplicate_date_far_from_its_first_line_names_the_repeat(tmp_path):
    dates = trading_dates(80)
    lines = [f"{d},1,2,3,4,{j}" for j, d in enumerate(dates)]
    lines.insert(60, f"{dates[10]},9,9,9,9,9")     # 50 lines after dates[10]'s row
    path = tmp_path / "B.csv"
    path.write_text("date,open,high,low,adj_close,volume\n" + "\n".join(lines) + "\n")
    want = (ParseError, f"{path}:62: duplicate date {dates[10]}")
    assert failure(md._read_stock_csv, path) == failure(oracle_read_stock_csv, path) == want


def test_values_match_fixture_cell_for_cell(tmp_path):
    dates = trading_dates(4)
    fixture = {
        "A": [(1.0, 2.0, 0.5, 1.5, 100.0), (1.1, 2.1, 0.6, 1.6, 110.0),
              (1.2, 2.2, 0.7, 1.7, 120.0), (1.3, 2.3, 0.8, 1.8, 130.0)],
        "B": [(9.0, 9.5, 8.5, 9.2, 900.0), (9.1, 9.6, 8.6, 9.3, 910.0),
              (9.2, 9.7, 8.7, 9.4, 920.0), (9.3, 9.8, 8.8, 9.5, 930.0)],
        "C": [(5.0, 5.5, 4.5, 5.1, 500.0), (5.1, 5.6, 4.6, 5.2, 510.0),
              (5.2, 5.7, 4.7, 5.3, 520.0), (5.3, 5.8, 4.8, 5.4, 530.0)],
    }
    for t, rows in fixture.items():
        write_stock_csv(tmp_path / f"{t}.csv", dates, rows)
    write_manifest(tmp_path / "m.csv", [(t, f"{t}.csv") for t in fixture])
    panel = md.load_panel(tmp_path / "m.csv")
    for i, t in enumerate(panel.tickers):
        np.testing.assert_array_equal(panel.values[i], np.array(fixture[t]))
    np.testing.assert_array_equal(panel.close, panel.values[:, :, 3])


def test_unsorted_rows_and_ragged_calendars_align_cell_for_cell(tmp_path):
    # A lists its rows newest first, B misses two mid-series days and runs
    # past A's last day, C starts a day late; the panel keeps the shared
    # days in calendar order, each cell from its own stock's row
    dates = trading_dates(10)
    cell = {(t, d): (base + j, base + j + 0.5, base + j - 0.5, base + 2 * j, 100.0 * base + j)
            for t, base in (("A", 1.0), ("B", 20.0), ("C", 300.0))
            for j, d in enumerate(dates + trading_dates(12)[10:])}
    calendars = {"A": dates[::-1],
                 "B": [d for d in trading_dates(12) if d not in (dates[4], dates[6])],
                 "C": dates[1:]}
    for t, days in calendars.items():
        write_stock_csv(tmp_path / f"{t}.csv", days, [cell[t, d] for d in days])
    write_manifest(tmp_path / "m.csv", [(t, f"{t}.csv") for t in calendars])
    panel = md.load_panel(tmp_path / "m.csv")
    shared = [d for d in dates if d not in (dates[0], dates[4], dates[6])]
    assert panel.dates == shared
    expected = np.array([[cell[t, d] for d in shared] for t in calendars])
    np.testing.assert_array_equal(panel.values, expected)
    np.testing.assert_array_equal(panel.close, expected[:, :, 3])


def test_setup_memory_is_a_small_multiple_of_the_panel(tmp_path):
    # One panel in its raw, selected and normalized forms, the close
    # series, labels and sparse graphs come to about 3.8 panels; per-row
    # Python objects or copied lag windows (tau = 14 copies) would not fit
    manifest = synth.write_dataset(tmp_path / "ds", 200, 300, seed=4)
    tracemalloc.start()
    try:
        panel = md.select_indicators(md.load_panel(manifest), md.DEFAULT_INDICATORS)
        datasets = mdl.build_datasets(panel, mdl.ModelConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(datasets["train"]) > 0
    assert peak < 5 * panel.values.nbytes, f"peak {peak} B, panel {panel.values.nbytes} B"


def test_min_days_enforced(tmp_path):
    manifest = make_dataset(tmp_path, ["A", "B"], trading_dates(4), flat_values(1.0))
    with pytest.raises(InsufficientDataError):
        md.load_panel(manifest, min_days=8)


def test_sector_column_parsed(tmp_path):
    manifest = make_dataset(tmp_path, ["A", "B"], trading_dates(5), flat_values(1.0),
                            sectors={"A": "tech", "B": "energy"})
    panel = md.load_panel(manifest)
    assert panel.sectors == {"A": "tech", "B": "energy"}


# ---------------------------------------------------------------------------
# select_indicators
# ---------------------------------------------------------------------------

def make_panel(tmp_path, n_stocks=3, n_days=20, seed=0):
    from conftest import random_walk_dataset
    return md.load_panel(random_walk_dataset(tmp_path, n_stocks=n_stocks,
                                             n_days=n_days, seed=seed))


def test_select_all_five_is_identity(tmp_path):
    panel = make_panel(tmp_path)
    out = md.select_indicators(panel, md.RAW_INDICATORS)
    np.testing.assert_array_equal(out.values, panel.values)
    assert out.indicators == md.RAW_INDICATORS


def test_default_selection_has_four_channels(tmp_path):
    panel = make_panel(tmp_path)
    out = md.select_indicators(panel, md.DEFAULT_INDICATORS)
    assert out.values.shape[2] == 4
    assert out.indicators == ["open", "high", "low", "adj_close"]


def test_select_volume_only(tmp_path):
    panel = make_panel(tmp_path)
    out = md.select_indicators(panel, ["volume"])
    np.testing.assert_array_equal(out.values[:, :, 0], panel.values[:, :, 4])


def test_unknown_indicator_rejected(tmp_path):
    panel = make_panel(tmp_path)
    with pytest.raises(ConfigError, match="vwap"):
        md.select_indicators(panel, ["open", "vwap"])


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_two_value_hand_case(tmp_path):
    # stat window = days {0, 1} with adj_close values {1, 3}: mean 2, std 1
    dates = trading_dates(6)
    closes = [1.0, 3.0, 2.0, 4.0, 5.0, 6.0]
    rows = [(c, c, c, c, 1.0) for c in closes]
    write_stock_csv(tmp_path / "A.csv", dates, rows)
    write_stock_csv(tmp_path / "B.csv", dates, rows)
    write_manifest(tmp_path / "m.csv", [("A", "A.csv"), ("B", "B.csv")])
    panel = md.load_panel(tmp_path / "m.csv")
    splits = md.DatasetSplits(train=[1], validation=[2, 3], test=[4])
    out = md.normalize(panel, splits)
    np.testing.assert_allclose(out.values[0, :2, 3], [-1.0, 1.0], atol=1e-12)


def test_constant_channel_becomes_zero(tmp_path):
    dates = trading_dates(8)

    def fn(t, j):
        return (1.0 + j, 2.0 + j, 0.5 + j, 1.5 + j, 777.0)  # constant volume

    manifest = make_dataset(tmp_path, ["A", "B"], dates, fn)
    panel = md.load_panel(manifest)
    splits = md.split_periods(panel, (1, 1, 1), tau=2, phi=1)
    out = md.normalize(panel, splits)
    assert (out.values[:, :, 4] == 0.0).all()
    # divisor 1 on the constant channel only: the others are z-scored
    train = out.values[:, :max(splits.train) + 1, :4]
    np.testing.assert_allclose(train.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(train.std(axis=1), 1.0, atol=1e-12)


def test_overflowing_channel_is_a_numeric_error(tmp_path):
    # squares of 1e200 overflow, so std would be inf and the channel zeros
    def fn(t, j):
        high = (-1.0) ** j * 1e200 if t == "B" else 2.0 + j
        return (1.0 + j, high, 0.5 + j, 1.5 + j, 100.0 + j)

    manifest = make_dataset(tmp_path, ["A", "B"], trading_dates(12), fn)
    panel = md.load_panel(manifest)
    splits = md.split_periods(panel, (1, 1, 1), tau=2, phi=1)
    with pytest.raises(NumericError, match="high of stock B"):
        md.normalize(panel, splits)


def test_normalize_is_idempotent_on_statistics(tmp_path):
    panel = make_panel(tmp_path, n_days=30, seed=3)
    splits = md.split_periods(panel, (2, 1, 1), tau=3, phi=1)
    once = md.normalize(panel, splits)
    twice = md.normalize(once, splits)
    train = twice.values[:, :max(splits.train) + 1, :]
    np.testing.assert_allclose(train.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(train.std(axis=1), 1.0, atol=1e-12)


def test_statistics_ignore_validation_days(tmp_path):
    panel = make_panel(tmp_path, n_days=30, seed=4)
    splits = md.split_periods(panel, (2, 1, 1), tau=3, phi=1)
    base = md.normalize(panel, splits)
    perturbed = md.IndicatorPanel(
        tickers=panel.tickers, dates=panel.dates, values=panel.values.copy(),
        indicators=panel.indicators, close=panel.close, sectors=panel.sectors)
    perturbed.values[:, splits.validation[0], :] += 99.0
    out = md.normalize(perturbed, splits)
    stat_days = max(splits.train) + 1
    assert splits.validation[0] >= stat_days
    np.testing.assert_array_equal(out.values[:, :stat_days], base.values[:, :stat_days])


# ---------------------------------------------------------------------------
# build_sample
# ---------------------------------------------------------------------------

def rising_panel(tmp_path, n_days=12):
    return md.load_panel(make_dataset(tmp_path, ["A", "B", "C", "D", "E"],
                                      trading_dates(n_days), flat_values(10.0)))


def test_strictly_rising_close_labels_all_up(tmp_path):
    panel = rising_panel(tmp_path)
    sample = md.build_sample(panel, t=5, tau=3, phi=2)
    np.testing.assert_array_equal(sample.labels,
                                  np.tile([0, 1, 0, 1], (5, 1)))


def test_constant_close_labels_all_down(tmp_path):
    dates = trading_dates(8)
    manifest = make_dataset(tmp_path, ["A", "B"], dates,
                            lambda t, j: (5.0, 6.0, 4.0, 5.0, 10.0))
    panel = md.load_panel(manifest)
    sample = md.build_sample(panel, t=4, tau=2, phi=1)
    np.testing.assert_array_equal(sample.labels, np.tile([1, 0], (2, 1)))


def test_sample_shapes(tmp_path):
    panel = rising_panel(tmp_path, n_days=12)
    sample = md.build_sample(md.select_indicators(panel, md.DEFAULT_INDICATORS),
                             t=8, tau=7, phi=1, alpha=2)
    assert sample.features.shape == (5, 28)
    assert sample.labels.shape == (5, 2)


def test_feature_layout_is_day_major(tmp_path):
    panel = rising_panel(tmp_path)
    sample = md.build_sample(panel, t=4, tau=3, phi=1)
    # first F entries of stock 0 are day t-2's indicators
    np.testing.assert_array_equal(sample.features[0, :5], panel.values[0, 2, :])
    np.testing.assert_array_equal(sample.features[0, 5:10], panel.values[0, 3, :])


def test_features_are_read_only_views_of_the_panel(tmp_path):
    panel = rising_panel(tmp_path)
    first = md.build_sample(panel, t=4, tau=3, phi=1)
    second = md.build_sample(panel, t=5, tau=3, phi=1)
    assert np.shares_memory(first.features, panel.values)
    assert np.shares_memory(first.features, second.features)
    with pytest.raises(ValueError):
        first.features[0, 0] = 1.0


def test_out_of_range_t_rejected(tmp_path):
    panel = rising_panel(tmp_path, n_days=10)
    with pytest.raises(IndexError):
        md.build_sample(panel, t=1, tau=3, phi=1)
    with pytest.raises(IndexError):
        md.build_sample(panel, t=9, tau=3, phi=1)


def test_labels_are_one_hot_per_block(tmp_path):
    panel = make_panel(tmp_path, n_stocks=4, n_days=25, seed=5)
    for t in md.usable_range(panel.n_days, 5, 2):
        sample = md.build_sample(panel, t, tau=5, phi=2)
        blocks = sample.labels.reshape(4, 2, 2)
        assert set(np.unique(sample.labels)) <= {0, 1}
        np.testing.assert_array_equal(blocks.sum(axis=2), np.ones((4, 2)))


def test_no_lookahead_in_features(tmp_path):
    panel = make_panel(tmp_path, n_stocks=3, n_days=20, seed=6)
    t, tau, phi = 10, 4, 2
    # features are a view of the panel, so keep a copy of the window
    before = md.build_sample(panel, t, tau, phi).features.copy()
    panel.values[:, t + 1:, :] += 123.0  # future days only
    after = md.build_sample(panel, t, tau, phi)
    np.testing.assert_array_equal(before, after.features)


def test_labels_only_depend_on_forecast_steps(tmp_path):
    # labels compare closes over [t, t+phi]; earlier days must not matter
    panel = make_panel(tmp_path, n_stocks=3, n_days=20, seed=7)
    t, tau, phi = 10, 4, 1
    before = md.build_sample(panel, t, tau, phi)
    panel.close[:, :t] *= 1.7
    after = md.build_sample(panel, t, tau, phi)
    np.testing.assert_array_equal(before.labels, after.labels)


# ---------------------------------------------------------------------------
# split_periods
# ---------------------------------------------------------------------------

def test_exact_ratio_split(tmp_path):
    # 781 usable window ends: T = 781 + (tau-1) + phi with tau=7, phi=1
    panel = make_panel(tmp_path, n_stocks=2, n_days=781 + 6 + 1, seed=8)
    splits = md.split_periods(panel, (457, 63, 261), tau=7, phi=1)
    assert (len(splits.train), len(splits.validation), len(splits.test)) == (457, 63, 261)
    assert max(splits.train) < min(splits.validation) < min(splits.test)
    assert splits.train[0] == 6


def test_even_split(tmp_path):
    panel = make_panel(tmp_path, n_stocks=2, n_days=9 + 2 + 1, seed=9)
    splits = md.split_periods(panel, (1, 1, 1), tau=3, phi=1)
    assert [len(splits.train), len(splits.validation), len(splits.test)] == [3, 3, 3]


def test_proportional_rounding_oracle(tmp_path):
    # oracle: floor usable*r/sum, then hand the remainder out left to right
    panel = make_panel(tmp_path, n_stocks=2, n_days=10 + 2 + 1, seed=10)
    splits = md.split_periods(panel, (457, 63, 261), tau=3, phi=1)
    usable, total = 10, 781
    floors = [usable * r // total for r in (457, 63, 261)]
    assert floors == [5, 0, 3]
    expected = [6, 1, 3]  # remainder 2 goes to the first two blocks
    assert [len(splits.train), len(splits.validation), len(splits.test)] == expected


def test_too_few_days_rejected(tmp_path):
    panel = make_panel(tmp_path, n_stocks=2, n_days=6, seed=11)
    with pytest.raises(InsufficientDataError):
        md.split_periods(panel, (457, 63, 261), tau=4, phi=1)
