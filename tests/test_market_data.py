import numpy as np
import pytest

from trendgat import market_data as md
from trendgat.errors import ConfigError, DataError, InsufficientDataError, ParseError

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


@pytest.mark.parametrize("bad_row", [
    "2023-1-9,1,2,3,4,5",          # dates must be canonical YYYY-MM-DD
    "20230109,1,2,3,4,5",
    "2023-01-03T00:00,1,2,3,4,5",
    "2023-02-30,1,2,3,4,5",
    "2023-01-03,1,nan,3,4,5",
    "2023-01-03,1,2,3,-inf,5",
])
def test_malformed_row_reports_file_and_line(tmp_path, bad_row):
    dates = trading_dates(3)
    write_stock_csv(tmp_path / "A.csv", dates, [flat_values(1.0)("A", j) for j in range(3)])
    (tmp_path / "B.csv").write_text("date,open,high,low,adj_close,volume\n"
                                    f"2023-01-02,1,2,3,4,5\n{bad_row}\n")
    write_manifest(tmp_path / "m.csv", [("A", "A.csv"), ("B", "B.csv")])
    with pytest.raises(ParseError, match=r"B\.csv:3"):
        md.load_panel(tmp_path / "m.csv")


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


def test_constant_channel_becomes_zero_with_record(tmp_path):
    dates = trading_dates(8)

    def fn(t, j):
        return (1.0 + j, 2.0 + j, 0.5 + j, 1.5 + j, 777.0)  # constant volume

    manifest = make_dataset(tmp_path, ["A", "B"], dates, fn)
    panel = md.load_panel(manifest)
    splits = md.split_periods(panel, (1, 1, 1), tau=2, phi=1)
    out = md.normalize(panel, splits)
    assert (out.values[:, :, 4] == 0.0).all()
    assert ("A", "volume") in out.norm_stats.zero_variance


def test_normalize_is_idempotent_on_statistics(tmp_path):
    panel = make_panel(tmp_path, n_days=30, seed=3)
    splits = md.split_periods(panel, (2, 1, 1), tau=3, phi=1)
    once = md.normalize(panel, splits)
    twice = md.normalize(once, splits)
    stat_days = once.norm_stats.stat_days
    train = twice.values[:, :stat_days, :]
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
    np.testing.assert_array_equal(out.norm_stats.mean, base.norm_stats.mean)
    np.testing.assert_array_equal(out.norm_stats.std, base.norm_stats.std)


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
    before = md.build_sample(panel, t, tau, phi)
    panel.values[:, t + 1:, :] += 123.0  # future days only
    after = md.build_sample(panel, t, tau, phi)
    np.testing.assert_array_equal(before.features, after.features)


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
