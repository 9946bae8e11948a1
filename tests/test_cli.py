import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from trendgat import cli, model as mdl, synth
from trendgat.errors import ConfigError


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    return synth.write_dataset(root, 6, 80, seed=5)


def run_cli(*argv):
    return cli.main(list(argv))


def fast_flags(manifest, out, epochs="3"):
    return ["--manifest", str(manifest), "--out", str(out),
            "--tau", "7", "--epochs", epochs, "--seed", "0"]


# ---------------------------------------------------------------------------
# parse_spec
# ---------------------------------------------------------------------------

def test_empty_config_file_gives_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    spec = cli.parse_spec(cfg, {}, mode="train")
    assert spec.config.tau == mdl.ModelConfig.tau
    assert spec.config.epochs == 800
    assert spec.seeds == [0]
    assert spec.ratios == (457, 63, 261)


def test_out_of_range_tau_cites_range(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.tau = 30\n")
    with pytest.raises(ConfigError, match=r"\[7, 27\]"):
        cli.parse_spec(cfg, {}, mode="train")


def test_flag_overrides_file_value(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("graph.k = 0.08\n")
    spec = cli.parse_spec(cfg, {"graph.k": "0.5"}, mode="train")
    assert spec.config.k == 0.5


def test_unknown_key_is_rejected(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("model.width = 9\n")
    with pytest.raises(ConfigError, match="model.width"):
        cli.parse_spec(cfg, {}, mode="train")


def test_range_check_can_be_disabled(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("model.tau = 5\n")
    spec = cli.parse_spec(cfg, {}, mode="train", range_check=False)
    assert spec.config.tau == 5


def test_comments_and_sections_parse(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nmodel.tau = 9   # trailing\ntrain.seeds = 1,2,3\n")
    spec = cli.parse_spec(cfg, {}, mode="train")
    assert spec.config.tau == 9
    assert spec.seeds == [1, 2, 3]


# ---------------------------------------------------------------------------
# train / eval / resolved-spec invariants
# ---------------------------------------------------------------------------

def test_train_writes_resolved_spec_and_outputs(small_dataset, tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", *fast_flags(small_dataset, out)) == 0
    resolved = json.loads((out / "spec_resolved.json").read_text())
    assert resolved["config"]["tau"] == 7
    assert resolved["config"]["epochs"] == 3
    assert resolved["manifest"] == str(small_dataset)
    assert (out / "history_seed0.jsonl").exists()
    assert (out / "model_seed0.bin").exists()
    history = [json.loads(line) for line in (out / "history_seed0.jsonl").read_text().splitlines()]
    assert len(history) == 3
    assert {"epoch", "train_loss", "val_acc", "val_mcc", "val_f1"} <= set(history[0])


def test_cli_does_not_mutate_input_files(small_dataset, tmp_path):
    files = sorted(Path(small_dataset).parent.iterdir())
    before = [hashlib.sha256(p.read_bytes()).hexdigest() for p in files]
    run_cli("train", *fast_flags(small_dataset, tmp_path / "run"))
    after = [hashlib.sha256(p.read_bytes()).hexdigest() for p in files]
    assert before == after


def test_eval_reproduces_saved_model_metrics(small_dataset, tmp_path):
    out = tmp_path / "run"
    run_cli("train", *fast_flags(small_dataset, out))
    trained = json.loads((out / "metrics_seed0.json").read_text())
    out2 = tmp_path / "eval"
    assert run_cli("eval", "--manifest", str(small_dataset), "--out", str(out2),
                   "--model", str(out / "model_seed0.bin")) == 0
    evaluated = json.loads((out2 / "metrics_eval.json").read_text())
    assert evaluated["acc"] == pytest.approx(trained["test"]["acc"], abs=1e-12)


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def test_ablation_emits_four_variants(small_dataset, tmp_path):
    out = tmp_path / "abl"
    assert run_cli("ablate", *fast_flags(small_dataset, out)) == 0
    report = json.loads((out / "ablation.json").read_text())
    assert set(report["variants"]) == {"energy_attn", "energy_plain",
                                       "sector_plain", "sector_attn"}
    assert report["seeds"] == [0]


def test_ablation_full_variant_matches_plain_train(small_dataset, tmp_path):
    out = tmp_path / "abl"
    run_cli("ablate", *fast_flags(small_dataset, out))
    out2 = tmp_path / "plain"
    run_cli("train", *fast_flags(small_dataset, out2))
    abl = json.loads((out / "metrics_energy_attn_seed0.json").read_text())
    plain = json.loads((out2 / "metrics_seed0.json").read_text())
    assert abl["val_acc"] == plain["val_acc"]
    assert abl["test"]["acc"] == plain["test"]["acc"]


def test_ablation_parameter_counts_differ_by_attention_matrices(small_dataset, tmp_path):
    out = tmp_path / "abl"
    run_cli("ablate", *fast_flags(small_dataset, out))
    report = json.loads((out / "ablation.json").read_text())
    d = mdl.ModelConfig.hidden
    h = mdl.ModelConfig.heads
    layers = mdl.ModelConfig.layers
    d_cat, d_head = 2 * d, 2 * d // h
    gamma = layers * (h * 3 * d_cat * d_head + d_cat * d)
    diff = (report["variants"]["energy_attn"]["parameters"]
            - report["variants"]["energy_plain"]["parameters"])
    assert diff == gamma


def test_variants_share_initial_input_projection():
    cfg_on = mdl.ModelConfig(tau=7, seed=11, parallel_attention=True)
    cfg_off = mdl.ModelConfig(tau=7, seed=11, parallel_attention=False)
    np.testing.assert_array_equal(mdl.init_model(cfg_on).w_in.data,
                                  mdl.init_model(cfg_off).w_in.data)


def test_ablation_without_sectors_fails_before_training(tmp_path):
    from conftest import random_walk_dataset
    manifest = random_walk_dataset(tmp_path, n_stocks=4, n_days=40, seed=0)
    code = run_cli("ablate", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                   "--tau", "7", "--epochs", "2")
    assert code == 1
    assert not list((tmp_path / "o").glob("model_*"))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_single_point_sweep_equals_train_run(small_dataset, tmp_path):
    out = tmp_path / "sw"
    assert run_cli("sweep", *fast_flags(small_dataset, out),
                   "--axis", "k", "--grid", "0.5") == 0
    out2 = tmp_path / "tr"
    run_cli("train", *fast_flags(small_dataset, out2), "--k", "0.5")
    rows = cli.read_sweep_csv(out / "sweep.csv")
    plain = json.loads((out2 / "metrics_seed0.json").read_text())
    assert len(rows) == 1
    assert rows[0][2] == pytest.approx(plain["test"]["acc"], abs=1e-12)


def test_sweep_cardinality(small_dataset, tmp_path):
    out = tmp_path / "sw"
    code = run_cli("sweep", "--manifest", str(small_dataset), "--out", str(out),
                   "--epochs", "2", "--seeds", "0,1",
                   "--axis", "tau", "--grid", "7,17,27")
    assert code == 0
    rows = cli.read_sweep_csv(out / "sweep.csv")
    assert len(rows) == 6


def test_sweep_csv_round_trip_matches_summary(small_dataset, tmp_path):
    out = tmp_path / "sw"
    run_cli("sweep", "--manifest", str(small_dataset), "--out", str(out),
            "--epochs", "2", "--seeds", "0,1", "--axis", "k", "--grid", "0.1,0.9",
            "--tau", "7")
    stored = json.loads((out / "sweep_summary.json").read_text())["values"]
    recomputed = cli.sweep_summary(cli.read_sweep_csv(out / "sweep.csv"))
    for value, stats in recomputed.items():
        for metric in ("acc", "mcc", "f1"):
            assert stats[metric]["mean"] == pytest.approx(stored[value][metric]["mean"], abs=1e-12)
            assert stats[metric]["std"] == pytest.approx(stored[value][metric]["std"], abs=1e-12)


def test_empty_grid_rejected(small_dataset, tmp_path):
    code = run_cli("sweep", *fast_flags(small_dataset, tmp_path / "o"),
                   "--axis", "k", "--grid", ",")
    assert code == 1


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def write_metrics(path, label, seed, acc):
    blob = {"seed": seed, "label": label, "best_epoch": 1, "val_acc": acc,
            "parameters": 10, "test": {"acc": acc, "mcc": 0.0, "f1": acc}}
    path.write_text(json.dumps(blob))


def test_report_mean_and_population_std(tmp_path, capsys):
    write_metrics(tmp_path / "metrics_seed0.json", "train", 0, 0.55)
    write_metrics(tmp_path / "metrics_seed1.json", "train", 1, 0.57)
    assert cli.cmd_report(tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["train"]["acc"]["mean"] == pytest.approx(0.56)
    assert report["train"]["acc"]["std"] == pytest.approx(0.01)
    text = capsys.readouterr().out
    assert "0.5600 +- 0.0100" in text  # table and JSON carry identical numbers


def test_report_single_run_has_zero_std(tmp_path):
    write_metrics(tmp_path / "metrics_seed0.json", "train", 0, 0.61)
    cli.cmd_report(tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["train"]["acc"]["std"] == 0.0


def test_report_on_empty_directory_is_data_error(tmp_path):
    assert run_cli("report", "--dir", str(tmp_path)) == 2


@pytest.mark.parametrize("text", [
    '{"seed": 0, "test": {"acc": 0.5',
    '[{"seed": 0}]',
    '{"seed": 0, "test": {"acc": 0.5, "f1": 0.5}}',
], ids=["truncated", "json_list", "test_lacks_mcc"])
def test_report_on_malformed_metrics_file_is_data_error(tmp_path, capsys, text):
    (tmp_path / "metrics_seed0.json").write_text(text)
    assert run_cli("report", "--dir", str(tmp_path)) == 2
    assert "metrics_seed0.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# graphgen and exit codes
# ---------------------------------------------------------------------------

def test_graphgen_writes_edge_list(small_dataset, tmp_path):
    out = tmp_path / "gg"
    assert run_cli("graphgen", "--manifest", str(small_dataset), "--out", str(out),
                   "--tau", "7") == 0
    edges = list(out.glob("edges_t*.tsv"))
    assert len(edges) == 1
    assert edges[0].read_text().startswith("src\tdst\tweight\n")


@pytest.mark.parametrize("t", ["99999", "-1", "5"])
def test_graphgen_index_outside_usable_range_exits_one(small_dataset, tmp_path, capsys, t):
    assert run_cli("graphgen", "--manifest", str(small_dataset), "--out", str(tmp_path / "gg"),
                   "--tau", "7", "--t", t) == 1
    assert "usable range [6, 78]" in capsys.readouterr().err


def test_usage_error_exits_one():
    assert run_cli("train", "--tau", "30", "--manifest", "x.csv", "--out", "/tmp/x") == 1
    assert run_cli("nonsense") == 1


def test_missing_data_exits_two(tmp_path):
    assert run_cli("train", "--manifest", str(tmp_path / "ghost.csv"),
                   "--out", str(tmp_path / "o"), "--tau", "7") == 2


def test_overflowing_channel_exits_three(tmp_path, capsys):
    # a close series of +-1e200 has squares that overflow its z-score std
    manifest = synth.write_dataset(tmp_path / "ds", 6, 80, seed=5)
    path = tmp_path / "ds" / "SYN03.csv"
    header, *lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    for j, row in enumerate(rows):
        row[4] = repr((-1.0) ** j * 1e200)
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    assert run_cli("train", *fast_flags(manifest, tmp_path / "o")) == 3
    assert "adj_close of stock SYN03" in capsys.readouterr().err


def test_numeric_failure_exits_three(small_dataset, tmp_path, monkeypatch):
    from trendgat.errors import TrainingDivergedError

    def boom(*args, **kwargs):
        raise TrainingDivergedError("diverged", history=[])

    monkeypatch.setattr(mdl, "train", boom)
    assert run_cli("train", *fast_flags(small_dataset, tmp_path / "o")) == 3
