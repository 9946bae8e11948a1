import numpy as np
import pytest

from trendgat import market_data as md
from trendgat import synth
from trendgat.errors import ConfigError


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
    for t in range(spec.warmup, panel.n_days - 1):
        sample = md.build_sample(panel, t, tau=2, phi=1)
        dirs = synth.rule_directions(panel.close, scales, spec, t)
        hits += int((sample.labels[:, 1] == (dirs > 0)).sum())
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
