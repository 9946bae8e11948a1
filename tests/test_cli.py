import argparse
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from trendgat import cli, energy_graph as eg, market_data as md, model as mdl, synth
from trendgat.errors import ConfigError

from oracles import energies_of, one_window_graph


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    return synth.write_dataset(root, 6, 80, seed=5)


def run_cli(*argv):
    return cli.main(list(argv))


def fast_flags(manifest, out, epochs="3"):
    return ["--manifest", str(manifest), "--out", str(out),
            "--tau", "7", "--epochs", epochs, "--seeds", "0"]


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that every call appends to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


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


# one value per configuration key, each different from its default
KEY_SAMPLES = {
    "data.manifest": "data/manifest.csv",
    "out.dir": "runs/other",
    "data.indicators": "open,adj_close",
    "data.ratios": "400:60:200",
    "model.tau": "9",
    "graph.k": "0.3",
    "graph.s": "0.5",
    "model.hidden": "8",
    "model.heads": "4",
    "model.layers": "3",
    "model.phi": "2",
    "train.lr": "0.002",
    "train.wd": "0.0002",
    "train.epochs": "5",
    "train.seeds": "1,2",
}


def flag_of(key):
    return "--out" if key == "out.dir" else "--" + key.split(".", 1)[1].replace("_", "-")


def resolved_from(*argv):
    return cli.spec_from_args(cli.build_parser().parse_args(["train", *argv])).resolved()


@pytest.mark.parametrize("key", sorted(cli.KEYS))
def test_file_line_and_flag_set_a_key_alike(tmp_path, key):
    value = KEY_SAMPLES[key]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {value}\n")
    from_file = resolved_from("--config", str(cfg))
    assert from_file == resolved_from(flag_of(key), value)
    assert from_file != resolved_from()


COMMON_FLAGS = {
    "--config", "--manifest", "--out", "--indicators", "--ratios", "--tau", "--k", "--s",
    "--hidden", "--heads", "--layers", "--phi", "--lr", "--wd", "--epochs", "--seeds",
    "--no-range-check",
}


def test_each_subcommand_accepts_exactly_its_flags():
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    accepted = {
        mode: {opt for action in sub._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for mode, sub in subparsers.choices.items()
    }
    assert len(COMMON_FLAGS) == 17
    assert accepted == {
        "train": COMMON_FLAGS,
        "eval": COMMON_FLAGS | {"--model"},
        "ablate": COMMON_FLAGS,
        "graphgen": COMMON_FLAGS | {"--t"},
        "sweep": COMMON_FLAGS | {"--axis", "--grid"},
        "synth": {"--out", "--n", "--days", "--seed"},
        "report": {"--dir"},
    }


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
    report = read_json(out / "report.json")
    assert set(report) == {"energy_attn", "energy_plain", "sector_plain", "sector_attn"}
    assert all(stats["n"] == 1 for stats in report.values())
    assert read_json(out / "spec_resolved.json")["seeds"] == [0]


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
    d = mdl.ModelConfig.hidden
    h = mdl.ModelConfig.heads
    layers = mdl.ModelConfig.layers
    d_cat, d_head = 2 * d, 2 * d // h
    gamma = layers * (h * 3 * d_cat * d_head + d_cat * d)
    diff = (read_json(out / "metrics_energy_attn_seed0.json")["parameters"]
            - read_json(out / "metrics_energy_plain_seed0.json")["parameters"])
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
    report = read_json(out / "report.json")
    plain = read_json(out2 / "metrics_seed0.json")
    assert list(report) == ["k0.5"] and report["k0.5"]["n"] == 1
    assert report["k0.5"]["acc"]["mean"] == pytest.approx(plain["test"]["acc"], abs=1e-12)


def test_sweep_cardinality(small_dataset, tmp_path):
    out = tmp_path / "sw"
    code = run_cli("sweep", "--manifest", str(small_dataset), "--out", str(out),
                   "--epochs", "2", "--seeds", "0,1",
                   "--axis", "tau", "--grid", "7,17,27")
    assert code == 0
    assert len(list(out.glob("metrics_*_seed*.json"))) == 6
    report = read_json(out / "report.json")
    assert sorted(report) == ["tau17", "tau27", "tau7"]
    assert [stats["n"] for stats in report.values()] == [2, 2, 2]


def test_sweep_report_matches_its_per_seed_metrics(small_dataset, tmp_path):
    out = tmp_path / "sw"
    run_cli("sweep", "--manifest", str(small_dataset), "--out", str(out),
            "--epochs", "2", "--seeds", "0,1", "--axis", "k", "--grid", "0.1,0.9",
            "--tau", "7")
    stored = read_json(out / "report.json")
    assert sorted(stored) == ["k0.1", "k0.9"]
    for label, stats in stored.items():
        seeds = [read_json(out / f"metrics_{label}_seed{seed}.json") for seed in (0, 1)]
        for metric in ("val_acc", "acc", "mcc", "f1"):
            values = [m["val_acc"] if metric == "val_acc" else m["test"][metric] for m in seeds]
            assert stats[metric]["mean"] == pytest.approx(np.mean(values), abs=1e-12)
            assert stats[metric]["std"] == pytest.approx(np.std(values), abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["train", "--seeds", "2,0,1"],
    ["ablate"],
    ["sweep", "--seeds", "1,0", "--axis", "k", "--grid", "0.1,0.9"],
], ids=["train", "ablate", "sweep"])
def test_command_summary_is_the_report_of_its_directory(small_dataset, tmp_path, argv):
    out = tmp_path / "o"
    assert run_cli(argv[0], *fast_flags(small_dataset, out, epochs="1"), *argv[1:]) == 0
    summaries = {p.name for p in out.iterdir()
                 if not p.name.startswith(("history_", "metrics_", "model_"))}
    assert summaries == {"spec_resolved.json", "report.json"}
    written = (out / "report.json").read_bytes()
    assert cli.cmd_report(out) == 0
    assert (out / "report.json").read_bytes() == written


@pytest.mark.parametrize("argv", [
    ["train", "--seeds", "2"],
    ["ablate"],
    ["sweep", "--axis", "k", "--grid", "0.5"],
], ids=["train", "ablate", "sweep"])
def test_out_holding_earlier_results_is_refused_before_loading(small_dataset, tmp_path,
                                                               monkeypatch, capsys, argv):
    out = tmp_path / "o"
    assert run_cli("train", *fast_flags(small_dataset, out, epochs="1")) == 0
    before = sorted(p.name for p in out.iterdir())
    loads = count_calls(monkeypatch, md, "load_panel")
    assert run_cli(argv[0], *fast_flags(small_dataset, out, epochs="1"), *argv[1:]) == 1
    assert f"already holds results ({out / 'metrics_seed0.json'})" in capsys.readouterr().err
    assert loads == []
    assert sorted(p.name for p in out.iterdir()) == before


def test_empty_grid_rejected(small_dataset, tmp_path):
    code = run_cli("sweep", *fast_flags(small_dataset, tmp_path / "o"),
                   "--axis", "k", "--grid", ",")
    assert code == 1


@pytest.mark.parametrize("axis,grid,message", [
    ("tau", "7,30", "tau=30"),
    ("heads", "2,3", "heads 3 must divide the fused width 32"),
], ids=["tau_out_of_range", "heads_not_dividing"])
def test_sweep_checks_the_whole_grid_before_training(small_dataset, tmp_path, capsys,
                                                     axis, grid, message):
    out = tmp_path / "sw"
    assert run_cli("sweep", "--manifest", str(small_dataset), "--out", str(out),
                   "--epochs", "1", "--axis", axis, "--grid", grid) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_checks_every_split_before_training(tmp_path, capsys):
    manifest = synth.write_dataset(tmp_path / "ds", 6, 32, seed=5)
    out = tmp_path / "sw"
    assert run_cli("sweep", "--manifest", str(manifest), "--out", str(out), "--epochs", "1",
                   "--no-range-check", "--axis", "tau", "--grid", "7,30") == 2
    assert "cannot fill three non-empty blocks" in capsys.readouterr().err
    assert not list(tmp_path.rglob("model_*.bin"))


@pytest.mark.parametrize("flags", [
    ["train", "--seeds", "0,0"],
    ["sweep", "--axis", "k", "--grid", "0.5,0.5"],
    ["sweep", "--axis", "k", "--grid", "1,1.0"],
    ["sweep", "--axis", "heads", "--grid", "2,4,2"],
])
def test_duplicate_seed_or_grid_value_exits_one(small_dataset, tmp_path, capsys, flags):
    mode, *rest = flags
    assert run_cli(mode, *fast_flags(small_dataset, tmp_path / "o", epochs="1"), *rest) == 1
    assert "repeats" in capsys.readouterr().err
    assert not list(tmp_path.rglob("model_*.bin"))


@pytest.mark.parametrize("argv", [
    ["ablate"],
    ["sweep", "--axis", "k", "--grid", "0.5,1.0"],
])
def test_each_stock_csv_is_read_once(small_dataset, tmp_path, monkeypatch, argv):
    reads = count_calls(monkeypatch, md, "_read_stock_csv")
    assert run_cli(argv[0], *fast_flags(small_dataset, tmp_path / "o", epochs="1"),
                   *argv[1:]) == 0
    assert sorted(ticker for ticker, _ in reads) == [f"SYN{i:02d}" for i in range(6)]


def windows_built(builds) -> int:
    """The windows whose energies were handed to ``eg.boltzmann_graph`` over
    the recorded calls."""
    return sum(args[0].shape[0] for args in builds)


def test_eval_builds_graphs_for_the_test_windows_only(small_dataset, tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run_cli("train", *fast_flags(small_dataset, out, epochs="1")) == 0
    builds = count_calls(monkeypatch, eg, "boltzmann_graph")
    assert run_cli("eval", "--manifest", str(small_dataset), "--out", str(tmp_path / "eval"),
                   "--model", str(out / "model_seed0.bin")) == 0
    panel = md.select_indicators(md.load_panel(small_dataset), md.DEFAULT_INDICATORS)
    test_windows = md.split_periods(panel, mdl.DEFAULT_RATIOS, 7, 1).test
    assert len(builds) == 1                   # one batched build for the split
    assert windows_built(builds) == len(test_windows) > 0


def test_sweep_over_heads_builds_each_energy_graph_once(small_dataset, tmp_path, monkeypatch):
    builds = count_calls(monkeypatch, eg, "boltzmann_graph")
    assert run_cli("train", *fast_flags(small_dataset, tmp_path / "tr", epochs="1")) == 0
    per_train = windows_built(builds)
    assert len(builds) == 3                   # one per split
    builds.clear()
    assert run_cli("sweep", *fast_flags(small_dataset, tmp_path / "sw", epochs="1"),
                   "--axis", "heads", "--grid", "2,4") == 0
    assert per_train > 0
    assert windows_built(builds) == per_train


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


VALID_TEST = '"test": {"acc": 0.5, "mcc": 0.0, "f1": 0.5}'


@pytest.mark.parametrize("text", [
    '{"seed": 0, "test": {"acc": 0.5',
    '[{"seed": 0}]',
    '{"seed": 0, "val_acc": 0.5, "test": {"acc": 0.5, "f1": 0.5}}',
    '{"seed": 0, "label": ["a"], "val_acc": 0.5, ' + VALID_TEST + '}',
    '{"seed": 0, "label": 3, "val_acc": 0.5, ' + VALID_TEST + '}',
    '{"seed": 0, ' + VALID_TEST + '}',
    '{"seed": 0, "val_acc": NaN, ' + VALID_TEST + '}',
    '{"seed": 0, "val_acc": 0.5, "test": {"acc": Infinity, "mcc": 0.0, "f1": 0.5}}',
    '{"seed": 0, "val_acc": 0.5, "test": {"acc": 0.5, "mcc": 1' + '0' * 400 + ', "f1": 0.5}}',
    '{"seed": 0, "val_acc": true, ' + VALID_TEST + '}',
], ids=["truncated", "json_list", "test_lacks_mcc", "list_label", "int_label",
        "lacks_val_acc", "nan_val_acc", "inf_acc", "huge_int_mcc", "bool_val_acc"])
def test_report_on_malformed_metrics_file_is_data_error(tmp_path, capsys, text):
    # a well-formed file beside the bad one, so that labels of two types meet
    write_metrics(tmp_path / "metrics_ok_seed1.json", "ok", 1, 0.5)
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


def test_graphgen_prints_each_splits_graph_statistics(tmp_path, capsys):
    manifest = synth.write_dataset(tmp_path / "ds", 6, 120, seed=2)
    tau, k, s = 7, 0.08, 0.25
    assert run_cli("graphgen", "--manifest", str(manifest), "--out", str(tmp_path / "gg"),
                   "--tau", str(tau), "--k", str(k), "--s", str(s)) == 0
    printed = capsys.readouterr().out.splitlines()
    # the same numbers from one-window oracle graphs, made dense
    panel = md.select_indicators(md.load_panel(manifest), md.DEFAULT_INDICATORS)
    splits = md.split_periods(panel, mdl.DEFAULT_RATIOS, tau, 1)
    values = md.normalize(panel, splits).values
    offdiag_total = 0
    for name in ("train", "validation", "test"):
        off = []
        for t in getattr(splits, name):
            window = values[:, t - tau + 1:t + 1, :].reshape(6, -1)
            dense = np.asarray(one_window_graph(energies_of(window), k, tau, s))
            np.fill_diagonal(dense, 0.0)
            off.append(dense > 0)
        off = np.array(off)
        offdiag_total += off.sum()
        assert (f"{name}: {len(off)} windows, {off.sum() / len(off):.4f} off-diagonal edges "
                f"per window, {off.any(axis=(1, 2)).mean():.4f} of windows with a neighbour "
                f"row, isolated-node fraction {(~off.any(axis=2)).mean():.4f}") in printed
    assert offdiag_total > 0


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
@pytest.mark.parametrize("argv", [
    ["train"], ["ablate"], ["sweep", "--axis", "k", "--grid", "0.5,1.0"],
    ["eval", "--model", "model.bin"], ["graphgen"],
], ids=["train", "ablate", "sweep", "eval", "graphgen"])
def test_out_that_is_a_file_exits_one_before_reading_data(small_dataset, tmp_path, monkeypatch,
                                                          capsys, argv, below):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    reads = count_calls(monkeypatch, md, "_read_stock_csv")
    loads = count_calls(monkeypatch, mdl, "load_model")
    out = taken / "run" if below else taken
    assert run_cli(argv[0], *fast_flags(small_dataset, out, epochs="1"), *argv[1:]) == 1
    assert f"{taken} exists and is not a directory" in capsys.readouterr().err
    assert reads == [] and loads == []
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_synth_out_that_is_a_file_exits_one_before_generating(tmp_path, monkeypatch, capsys,
                                                              below):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    generated = count_calls(monkeypatch, synth, "generate")
    out = taken / "data" if below else taken
    assert run_cli("synth", "--out", str(out), "--n", "3", "--days", "40") == 1
    assert f"{taken} exists and is not a directory" in capsys.readouterr().err
    assert generated == []
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("day", ["first_validation", "last_usable"])
def test_graphgen_exports_the_graph_of_the_given_day(small_dataset, tmp_path, capsys, day):
    tau, k, s = 7, 0.08, 0.25
    panel = md.select_indicators(md.load_panel(small_dataset), md.DEFAULT_INDICATORS)
    splits = md.split_periods(panel, mdl.DEFAULT_RATIOS, tau, 1)
    # neither is the default day, the last training day
    t = (splits.validation[0] if day == "first_validation"
         else md.usable_range(panel.n_days, tau, 1)[-1])
    out = tmp_path / "gg"
    assert run_cli("graphgen", "--manifest", str(small_dataset), "--out", str(out),
                   "--tau", str(tau), "--k", str(k), "--s", str(s), "--t", str(t)) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"t={t} ({panel.dates[t]}): ")
    window = md.normalize(panel, splits).values[:, t - tau + 1:t + 1, :].reshape(6, -1)
    want = np.asarray(one_window_graph(energies_of(window), k, tau, s))
    got = np.loadtxt(out / f"adjacency_t{t}.csv", delimiter=",", skiprows=1,
                     usecols=range(1, 7))
    np.testing.assert_array_equal(got, want)
    edges = (out / f"edges_t{t}.tsv").read_text().splitlines()
    assert len(edges) == 1 + np.count_nonzero(want)


@pytest.mark.parametrize("t", ["99999", "-1", "5"])
def test_graphgen_index_outside_usable_range_exits_one(small_dataset, tmp_path, capsys, t):
    assert run_cli("graphgen", "--manifest", str(small_dataset), "--out", str(tmp_path / "gg"),
                   "--tau", "7", "--t", t) == 1
    assert "usable range [6, 78]" in capsys.readouterr().err


def test_usage_error_exits_one():
    assert run_cli("train", "--tau", "30", "--manifest", "x.csv", "--out", "/tmp/x") == 1
    assert run_cli("nonsense") == 1


@pytest.mark.parametrize("flags,message", [
    # gradient clipping is no longer a setting: every value of the retired flag is refused
    (("--grad-clip", "-1"), "unrecognized arguments: --grad-clip -1"),
    (("--grad-clip", "0"), "unrecognized arguments: --grad-clip 0"),
    (("--grad-clip", "nan"), "unrecognized arguments: --grad-clip nan"),
    (("--grad-clip", "inf"), "unrecognized arguments: --grad-clip inf"),
    (("--indicators", ","), "f must be positive"),
    (("--no-range-check", "--k", "nan"), "k must be finite, got nan"),
    (("--no-range-check", "--k", "inf"), "k must be finite, got inf"),
    (("--no-range-check", "--s", "nan"), "s must be finite, got nan"),
    (("--no-range-check", "--lr", "nan"), "lr must be finite, got nan"),
    (("--no-range-check", "--wd", "inf"), "wd must be finite, got inf"),
    (("--heads", "3"), "heads 3 must divide the fused width 32"),
    (("--no-range-check", "--heads", "33"), "heads must be in [1, 32], got 33"),
    (("--no-range-check", "--tau", "0"), "tau must be positive (at least one lag day), got 0"),
    (("--no-range-check", "--layers", "-1"), "layers must not be negative, got -1"),
    (("--seeds", "0,-1"), "seed must not be negative, got -1"),
    (("--hidden", "100000000"), "more than MAX_PARAMETERS = 16777216 learnables: "
                                "340000003300000002 (2 blocks of 170000000100000001, "
                                "3100000000 outside them)"),
    (("--no-range-check", "--layers", "100000000"), "more than MAX_PARAMETERS = 16777216"),
    (("--no-range-check", "--hidden", "1", "--heads", "1", "--layers", "800000"),
     "more than MAX_ENTRIES = 4096 layout entries: 5600003"),
    (("--no-range-check", "--lr", "-1"), "lr must be positive and wd not negative, got -1.0, "),
    (("--no-range-check", "--lr", "0"), "lr must be positive and wd not negative, got 0.0, "),
    (("--no-range-check", "--wd", "-5"), "wd not negative, got 0.001, -5.0"),
    (("--indicators", "open,high,open"), "indicator(s) ['open'] named more than once"),
], ids=["grad_clip_negative", "grad_clip_zero", "grad_clip_nan", "grad_clip_inf",
        "no_indicators", "k_nan_unchecked", "k_inf_unchecked",
        "s_nan_unchecked", "lr_nan_unchecked", "wd_inf_unchecked", "heads_not_dividing",
        "heads_above_fused_width_unchecked", "tau_zero_unchecked", "layers_negative_unchecked",
        "seed_negative", "hidden_past_parameter_bound", "layers_past_parameter_bound_unchecked",
        "layers_past_entry_bound_unchecked", "lr_negative_unchecked", "lr_zero_unchecked",
        "wd_negative_unchecked", "indicator_repeated"])
def test_setting_no_model_trains_with_exits_one(small_dataset, tmp_path, capsys, flags, message):
    out = tmp_path / "o"
    assert run_cli("train", *fast_flags(small_dataset, out), *flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_attention_scores_past_the_bound_exit_one_before_anything_is_written(
        small_dataset, tmp_path, capsys, monkeypatch):
    # 6 stocks: an evaluation chunk stacks 66 windows of 2 heads x 6 x 6 scores
    loaded = count_calls(monkeypatch, md, "load_panel")
    monkeypatch.setattr(mdl, "MAX_SCORES", 66 * 2 * 6 * 6 - 1)
    out = tmp_path / "o"
    assert run_cli("train", *fast_flags(small_dataset, out)) == 1
    assert ("66 graph(s) of N = 6 nodes with 2 heads hold 4752 attention scores, more than "
            "MAX_SCORES = 4751") in capsys.readouterr().err
    assert len(loaded) == 1 and not out.exists()
    monkeypatch.setattr(mdl, "MAX_SCORES", 66 * 2 * 6 * 6)
    assert run_cli("train", *fast_flags(small_dataset, out, epochs="1")) == 0


def test_seeds_past_32_bits_train_different_models(small_dataset, tmp_path):
    out = tmp_path / "o"
    assert run_cli("train", *fast_flags(small_dataset, out, epochs="1"),
                   "--seeds", "0,4294967296") == 0
    assert read_json(out / "report.json")["train"]["n"] == 2
    a, b = (mdl.load_model(out / f"model_seed{seed}.bin") for seed in (0, 2**32))
    assert b.config.seed == 2**32 and (a.flat != b.flat).any()


@pytest.mark.parametrize("make", ["missing", "directory"])
def test_unreadable_model_file_exits_two(small_dataset, tmp_path, capsys, make):
    model = tmp_path / "model.bin"
    if make == "directory":
        model.mkdir()
    assert run_cli("eval", "--manifest", str(small_dataset), "--out", str(tmp_path / "o"),
                   "--model", str(model)) == 2
    assert f"cannot read model file {model}" in capsys.readouterr().err


@pytest.mark.parametrize("make", ["missing", "directory", "non_utf8"])
def test_unreadable_config_file_exits_one(small_dataset, tmp_path, capsys, make):
    cfg = tmp_path / "run.cfg"
    if make == "directory":
        cfg.mkdir()
    elif make == "non_utf8":
        cfg.write_bytes(b"train.epochs = 1\n# caf\xe9\n")
    out = tmp_path / "o"
    assert run_cli("train", *fast_flags(small_dataset, out), "--config", str(cfg)) == 1
    assert str(cfg) in capsys.readouterr().err
    assert not out.exists()


def test_missing_data_exits_two(tmp_path):
    assert run_cli("train", "--manifest", str(tmp_path / "ghost.csv"),
                   "--out", str(tmp_path / "o"), "--tau", "7") == 2


@pytest.mark.parametrize("target", ["SYN02.csv", "manifest.csv"])
def test_non_utf8_byte_exits_two_naming_file_and_line(tmp_path, capsys, target):
    manifest = synth.write_dataset(tmp_path / "ds", 6, 80, seed=5)
    path = tmp_path / "ds" / target
    lines = path.read_bytes().split(b"\n")
    lines[2] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    assert run_cli("train", *fast_flags(manifest, tmp_path / "o")) == 2
    assert f"{path}:3: not UTF-8" in capsys.readouterr().err


def test_directory_as_manifest_exits_two(tmp_path, capsys):
    (tmp_path / "m").mkdir()
    assert run_cli("train", *fast_flags(tmp_path / "m", tmp_path / "o")) == 2
    assert f"cannot read manifest {tmp_path / 'm'}" in capsys.readouterr().err


def test_manifest_row_naming_a_directory_exits_two(tmp_path, capsys):
    manifest = synth.write_dataset(tmp_path / "ds", 6, 80, seed=5)
    path = tmp_path / "ds" / "SYN02.csv"
    path.unlink()
    path.mkdir()
    assert run_cli("train", *fast_flags(manifest, tmp_path / "o")) == 2
    assert f"ticker SYN02: {path}" in capsys.readouterr().err


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


def test_energy_scale_past_the_largest_float_exits_three(small_dataset, tmp_path, capsys):
    # E / (k * tau) overflows: the graph would hold NaN self-loop weights
    out = tmp_path / "o"
    assert run_cli("train", *fast_flags(small_dataset, out), "--no-range-check",
                   "--k", "1e-320") == 3
    err = capsys.readouterr().err
    assert "window 0 has non-finite or negative energies" in err
    assert "E / (k * tau) that overflows at k * tau = 6.99992e-320" in err
    assert not list(out.glob("model_*"))


def test_numeric_failure_exits_three(small_dataset, tmp_path, monkeypatch):
    from trendgat.errors import TrainingDivergedError

    def boom(*args, **kwargs):
        raise TrainingDivergedError("diverged", history=[])

    monkeypatch.setattr(mdl, "train", boom)
    assert run_cli("train", *fast_flags(small_dataset, tmp_path / "o")) == 3
