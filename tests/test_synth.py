import time

import numpy as np
import pytest

from trendgat import market_data as md
from trendgat import synth
from trendgat.errors import ConfigError

from oracles import rule_directions_by_stock


def read_bytes_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_same_seed_is_byte_identical(tmp_path):
    a = synth.write_dataset(tmp_path / "a", 6, 60, seed=7)
    b = synth.write_dataset(tmp_path / "b", 6, 60, seed=7)
    assert read_bytes_tree(tmp_path / "a") == read_bytes_tree(tmp_path / "b")
    assert a.endswith("manifest.csv") and b.endswith("manifest.csv")


def test_different_seed_differs(tmp_path):
    synth.write_dataset(tmp_path / "a", 6, 60, seed=1)
    synth.write_dataset(tmp_path / "b", 6, 60, seed=2)
    assert read_bytes_tree(tmp_path / "a") != read_bytes_tree(tmp_path / "b")


def test_manifest_loads_through_the_standard_pipeline(tmp_path):
    manifest = synth.write_dataset(tmp_path / "ds", 8, 70, seed=0)
    panel = md.load_panel(manifest)
    assert panel.n_stocks == 8
    assert panel.n_days == 70
    assert len(panel.sectors) == 8


def test_oracle_rule_scores_perfectly_on_generated_labels(tmp_path):
    """The planted rule, re-evaluated from the written CSVs, must reproduce
    every pipeline label exactly."""
    manifest = synth.write_dataset(tmp_path / "ds", 10, 120, seed=3)
    panel = md.load_panel(manifest)
    spec = synth.RuleSpec()
    scales = synth.stock_scales(10, spec)
    hits = 0
    total = 0
    ts = range(spec.warmup, panel.n_days - 1)
    _, labels = md.build_windows(panel, ts, tau=2, phi=1)
    for t, label in zip(ts, labels):
        dirs = synth.rule_directions(panel.close, scales, spec, t)
        hits += int((label[:, 1] == (dirs > 0)).sum())
        total += 10
    assert hits == total


def test_label_base_rate_near_half(tmp_path):
    manifest = synth.write_dataset(tmp_path / "ds", 20, 600, seed=0)
    panel = md.load_panel(manifest)
    ups = panel.close[:, 1:] > panel.close[:, :-1]
    rate = ups.mean()
    assert 0.4 <= rate <= 0.6


def test_drift_never_flips_a_step_sign():
    spec = synth.RuleSpec()
    assert spec.drift_frac < spec.mag_base


def test_parameter_validation():
    with pytest.raises(ConfigError):
        synth.generate(1, 100, seed=0)
    with pytest.raises(ConfigError):
        synth.generate(4, 5, seed=0)


def test_sectors_are_round_robin_and_split_pairs(tmp_path):
    manifest = synth.write_dataset(tmp_path / "ds", 10, 60, seed=0)
    panel = md.load_panel(manifest)
    sectors = [panel.sectors[t] for t in panel.tickers]
    for i in range(0, 10, 2):
        assert sectors[i] != sectors[i + 1]  # ladder partners never share a sector


def test_rule_needs_warmup():
    spec = synth.RuleSpec()
    closes = np.cumsum(np.ones((4, 30)), axis=1)
    with pytest.raises(ConfigError):
        synth.rule_directions(closes, synth.stock_scales(4, spec), spec, t=spec.warmup - 1)


ENERGY_KINDS = ("tied", "near_tied", "random")


def rising_closes(kind, n, rng):
    """N x 11 closes that rise every day, so the rule reads day t = 10.
    Tied and near-tied ones rise by integers, so every return, square and
    sum is exact: "tied" repeats a few return profiles, one of them for at
    least four stocks (when N >= 4); "near_tied" shares nine large returns
    and varies a small one, so the energies lie a few ulps apart or tie."""
    if kind == "tied":
        profile = rng.integers(0, max(1, n // 5), n)
        profile[rng.permutation(n)[:4]] = 0
        returns = rng.integers(1, 100, (max(1, n // 5), 10))[profile]
    elif kind == "near_tied":
        returns = np.tile(rng.integers(3 * 10**6, 10**7, 10), (n, 1))
        returns[:, 0] = rng.integers(1, 6, n)
    else:
        returns = rng.random((n, 10)) + 0.1
    start = rng.integers(1000, 2000, (n, 1))
    return np.concatenate((start, returns), axis=1).cumsum(axis=1, dtype=np.float64)


def picked_neighbours(rule, closes, t):
    """The (n1, n2) that ``rule`` picks for every stock, read off its
    directions: with only that neighbour weighted and every momentum zero
    (scale inf) but stock j's, made negative by scale -1, exactly the
    stocks whose neighbour is j step down."""
    n = closes.shape[0]
    picks = []
    for n1_weight, n2_weight in ((1.0, 0.0), (0.0, 1.0)):
        spec = synth.RuleSpec(own_weight=0.0, n1_weight=n1_weight, n2_weight=n2_weight)
        down = np.array([rule(closes, np.where(np.arange(n) == j, -1.0, np.inf), spec, t) < 0
                         for j in range(n)])
        assert (down.sum(axis=0) == 1).all()
        picks.append(down.argmax(axis=0))
    return np.array(picks)


@pytest.mark.parametrize("kind", ENERGY_KINDS)
@pytest.mark.parametrize("n", range(2, 31))
def test_neighbours_match_the_per_stock_rule(n, kind):
    rng = np.random.default_rng([n, ENERGY_KINDS.index(kind)])
    closes = rising_closes(kind, n, rng)
    t = closes.shape[1] - 1
    picks = picked_neighbours(synth.rule_directions, closes, t)
    np.testing.assert_array_equal(picks, picked_neighbours(rule_directions_by_stock, closes, t))
    if n == 2:                                 # the second neighbour is the stock itself
        np.testing.assert_array_equal(picks, [[1, 0], [0, 1]])
    spec, scales = synth.RuleSpec(), rng.normal(size=n)   # momenta of both signs
    np.testing.assert_array_equal(synth.rule_directions(closes, scales, spec, t),
                                  rule_directions_by_stock(closes, scales, spec, t))


@pytest.mark.parametrize("n,days", [(2, 120), (3, 120), (20, 600), (100, 120)])
def test_files_match_the_per_stock_rule(tmp_path, monkeypatch, n, days):
    synth.write_dataset(tmp_path / "rule", n, days, seed=0)
    monkeypatch.setattr(synth, "rule_directions", rule_directions_by_stock)
    synth.write_dataset(tmp_path / "by_stock", n, days, seed=0)
    assert read_bytes_tree(tmp_path / "rule") == read_bytes_tree(tmp_path / "by_stock")


def test_seed_uses_its_whole_value():
    closes = [synth.generate(4, 40, seed)["adj_close"] for seed in (0, 2**32, 2**64)]
    assert (closes[0] != closes[1]).any() and (closes[1] != closes[2]).any()
    with pytest.raises(ConfigError, match="seed must not be negative, got -1"):
        synth.generate(4, 40, seed=-1)


def test_stock_days_are_bounded(monkeypatch):
    # refused at once, before any path is simulated
    largest = synth.max_stocks(synth.RuleSpec())
    started = time.perf_counter()
    with pytest.raises(ConfigError, match=r"^at most MAX_STOCK_DAYS = 1000000 stock-days, got "
                                          r"753 stocks x 100000 days = 75300000$"):
        synth.generate(largest, synth.MAX_DAYS, seed=0)
    assert time.perf_counter() - started < 1.0
    assert largest * 600 <= synth.MAX_STOCK_DAYS          # the CI set
    monkeypatch.setattr(synth, "MAX_STOCK_DAYS", 4 * 40)
    synth.generate(4, 40, seed=0)                         # at the bound
    for n, days in ((4, 41), (5, 40)):
        with pytest.raises(ConfigError, match=f"got {n} stocks x {days} days"):
            synth.generate(n, days, seed=0)


@pytest.mark.parametrize("argv,message", [
    (["--days", "100000000000"], "need 22 to 100000 days, got 100000000000"),
    (["--days", str(synth.MAX_DAYS + 1)], f"need 22 to 100000 days, got {synth.MAX_DAYS + 1}"),
    (["--seed", "-1"], "seed must not be negative, got -1"),
    (["--n", "753", "--days", "100000"], "at most MAX_STOCK_DAYS = 1000000 stock-days"),
], ids=["days_huge", "days_past_headroom", "seed_negative", "stock_days_past_bound"])
def test_cli_synth_bad_days_or_seed_exits_one(tmp_path, capsys, argv, message):
    from trendgat import cli

    assert cli.main(["synth", "--out", str(tmp_path / "ds"), "--n", "4", *argv]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.filterwarnings("error")
def test_largest_ladder_generates_finite_paths():
    # 600 days: the top rung's close walk must also z-score in float64
    # (at 767 stocks the paths are finite but their std overflows)
    largest = synth.max_stocks(synth.RuleSpec())
    data = synth.generate(largest, 600, seed=7)
    assert all(np.isfinite(v).all() for v in data.values())
    for v in data.values():
        assert np.isfinite(v.mean(axis=1)).all() and np.isfinite(v.std(axis=1)).all()


@pytest.mark.filterwarnings("error")
def test_stock_count_beyond_the_ladder_is_refused():
    largest = synth.max_stocks(synth.RuleSpec())
    with pytest.raises(ConfigError, match=f"at most {largest} stocks"):
        synth.generate(largest + 1, 40, seed=7)


@pytest.mark.filterwarnings("error")
def test_cli_synth_beyond_the_ladder_exits_one(tmp_path, capsys):
    from trendgat import cli

    largest = synth.max_stocks(synth.RuleSpec())
    code = cli.main(["synth", "--out", str(tmp_path / "ds"), "--n", str(largest + 1)])
    assert code == 1
    assert f"at most {largest} stocks" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()
