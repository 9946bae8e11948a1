"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to stream them).  Heavy training checks share one
generated dataset via module fixtures."""

import math
import os
import time

import numpy as np
import pytest

from trendgat import autodiff as ad
from trendgat import energy_graph as eg
from trendgat import market_data as md
from trendgat import metrics as mt
from trendgat import model as mdl
from trendgat import synth

from gradcheck import grad_check
from oracles import boltzmann_adjacency, energies_of, sparsify, window_graph
from test_energy_graph import assert_matches_dense_oracle, brute_force_adjacency
from test_metrics import oracle_metrics


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def synthetic_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_ds")
    manifest = synth.write_dataset(root, 20, 600, seed=0)
    panel = md.select_indicators(md.load_panel(manifest), md.DEFAULT_INDICATORS)
    return manifest, panel


def acceptance_config(**overrides) -> mdl.ModelConfig:
    return mdl.ModelConfig(**{**dict(tau=14, k=0.5, s=0.4, f=4, hidden=16, heads=2, layers=2,
                                     lr=1e-3, epochs=800, seed=0), **overrides})


def test_graph_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        width = int(rng.integers(1, 17))
        feats = rng.standard_normal((n, width)) * rng.uniform(0.2, 3.0)
        k = float(rng.uniform(0.02, 2.0))
        tau = int(rng.integers(1, 28))
        s = float(rng.uniform(0.0, 1.0))
        dense = boltzmann_adjacency(energies_of(feats), k, tau)
        oracle = brute_force_adjacency(feats, k, tau)
        worst = max(worst, float(np.abs(dense - oracle).max()))
        sparse_ours = sparsify(dense, s)
        sparse_oracle = np.where(oracle < s, 0.0, oracle)
        worst = max(worst, float(np.abs(sparse_ours - sparse_oracle).max()))
    elapsed = time.time() - start
    report("graph oracle equivalence (200 instances, 1e-12)",
           worst <= 1e-12 and elapsed < 5.0,
           f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_graph_builder_matches_dense_oracle_on_acceptance_set(synthetic_dataset):
    _, panel = synthetic_dataset
    cfg = acceptance_config()
    windows = [features for split in mdl.build_datasets(panel, cfg).values()
               for features in split.features]
    edges = sum(assert_matches_dense_oracle(energies_of(features), cfg.k, cfg.tau, cfg.s).src.size
                for features in windows)
    report("sparse graph builder equals the dense oracle on every snapshot (edges exact, 1e-12)",
           True, f"{len(windows)} snapshots, {edges} edges with self-loops")


def test_row_stochasticity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        feats = rng.standard_normal((n, int(rng.integers(1, 17)))) * rng.uniform(0.1, 5.0)
        adj = boltzmann_adjacency(energies_of(feats), float(rng.uniform(0.02, 2.0)),
                                  int(rng.integers(1, 28)))
        worst = max(worst, float(np.abs(adj.sum(axis=1) - 1.0).max()))
    report("pre-threshold rows sum to 1 (1e-9)", worst <= 1e-9, f"max dev {worst:.2e}")


def test_temperature_limits():
    rng = np.random.default_rng(8)
    ok = True
    detail = []
    for _ in range(20):
        n = int(rng.integers(2, 9))
        feats = rng.standard_normal((n, 6))
        energies = (feats ** 2).sum(axis=1)
        gaps = np.abs(energies[:, None] - energies[None, :])
        max_gap = gaps.max()
        adj = boltzmann_adjacency(energies_of(feats), k=1e6 * max_gap, tau=1)
        dev = float(np.abs(adj - 1.0 / n).max())
        if dev > 1e-6:
            ok = False
            detail.append(f"uniform dev {dev:.2e}")
        min_gap = gaps[gaps > 0].min()
        adj = boltzmann_adjacency(energies_of(feats), k=1e-6 * min_gap, tau=1)
        if (np.diag(adj) < 1.0 - 1e-6).any():
            ok = False
            detail.append(f"diag {np.diag(adj).min():.8f}")
    report("temperature limits (uniform 1e-6, sharp diagonal 1-1e-6)", ok, "; ".join(detail))


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    cfg = acceptance_config(tau=7, f=2, hidden=8)
    params = mdl.init_model(cfg)
    worst_adj = 0.0
    worst_fwd = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        feats = rng.standard_normal((n, cfg.input_width))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        adj = boltzmann_adjacency(energies_of(feats), cfg.k, cfg.tau)
        adj_perm = boltzmann_adjacency(energies_of(p @ feats), cfg.k, cfg.tau)
        worst_adj = max(worst_adj, float(np.abs(adj_perm - p @ adj @ p.T).max()))
        base, permuted = (mdl.forward(params, x, window_graph(x, cfg.k, cfg.tau, cfg.s)).data
                          for x in (feats, p @ feats))
        worst_fwd = max(worst_fwd, float(np.abs(permuted - p @ base).max()))
    report("permutation equivariance (adjacency exact, forward 1e-10)",
           worst_adj <= 1e-12 and worst_fwd <= 1e-10,
           f"adjacency {worst_adj:.2e}, forward {worst_fwd:.2e}")


def test_gradient_suite():
    start = time.time()
    # primitives across 20 seeds each
    rng = np.random.default_rng(11)
    ok = True
    worst = 0.0
    for seed in range(20):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        srng = np.random.default_rng(seed)
        checks = []
        a = ad.Value(srng.standard_normal((r, c + 1)))
        b = ad.Value(srng.standard_normal((c + 1, c)))
        w = ad.const(srng.standard_normal((r, c)))
        checks.append((lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), w)), [a, b]))
        x = ad.Value(srng.standard_normal((r, c)) + 0.3)
        y = ad.Value(srng.standard_normal((r, c)) + 0.3)
        slopes = ad.Value(srng.uniform(0.2, 0.8, (1, c)))
        checks.append((lambda: ad.reduce_sum(ad.mul(ad.prelu(ad.add(x, y), slopes), x)), [x, y, slopes]))
        lg = ad.Value(srng.standard_normal((r, c + 1)))
        tgt = np.zeros((r, c + 1)); tgt[np.arange(r), srng.integers(0, c + 1, r)] = 1.0
        checks.append((lambda: ad.cross_entropy_with_logits(lg, tgt, c + 1), [lg]))
        lg2 = ad.Value(srng.standard_normal((r, 2 * (c + 1))))    # phi = 2 blocks of c + 1
        tgt2 = np.zeros((r, 2, c + 1))
        tgt2[np.arange(r)[:, None], np.arange(2), srng.integers(0, c + 1, (r, 2))] = 1.0
        checks.append((lambda: ad.cross_entropy_with_logits(lg2, tgt2.reshape(r, -1), c + 1),
                       [lg2]))
        for f, params in checks:
            rep = grad_check(f, params, step=1e-5, tol=1e-4)
            worst = max(worst, rep.max_rel_err)
            ok = ok and rep.passed

    # end-to-end loss across 20 seeds at the pinned instance shape
    for seed in range(20):
        cfg = acceptance_config(tau=7, f=4, hidden=8, seed=seed)
        params = mdl.init_model(cfg)
        srng = np.random.default_rng(100 + seed)
        feats = srng.standard_normal((5, cfg.input_width))
        labels = np.zeros((5, 2), dtype=np.int64)
        labels[np.arange(5), srng.integers(0, 2, 5)] = 1
        graph = window_graph(feats, cfg.k, cfg.tau, cfg.s)
        values = [v for _, v in params.named()]
        rep = grad_check(lambda: mdl.loss(mdl.forward(params, feats, graph), labels),
                            values, step=1e-5, tol=1e-4)
        worst = max(worst, rep.max_rel_err)
        ok = ok and rep.passed
    elapsed = time.time() - start
    report("gradient suite (primitives + end-to-end, 20 seeds, 1e-4)",
           ok and elapsed < 120.0, f"max rel err {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_synthetic_learnability(synthetic_dataset):
    _, panel = synthetic_dataset
    cfg = acceptance_config()
    datasets = mdl.build_datasets(panel, cfg)
    start = time.time()
    result = mdl.train(datasets["train"], datasets["validation"], cfg, stop_at_val_acc=0.90)
    elapsed = time.time() - start
    report("synthetic learnability (val ACC >= 0.90 within 800 epochs, < 10 min)",
           result.best_val_acc >= 0.90 and len(result.history) <= 800 and elapsed < 600.0,
           f"val ACC {result.best_val_acc:.4f} at epoch {result.best_epoch}, {elapsed:.0f}s")


# The bound holds on the parallel attention stream alone: on this set the
# energy graph leaves about 99% of training nodes isolated, and a graph of
# self-loops only with attention scores the same (best validation ACC 0.901
# against 0.895 for the energy graph, 3 seeds at 50 epochs; ROADMAP.md,
# Measurements).  So a pass does not show that the energy graph carries
# cross-stock signal.
@pytest.mark.slow
def test_ablation_separation(synthetic_dataset):
    manifest, panel = synthetic_dataset
    epochs = 50  # budgeted: the criterion compares variants, not convergence
    full_accs, plain_accs = [], []
    sector_adj = eg.sector_adjacency(panel.sectors, panel.tickers)
    for seed in range(5):
        cfg = acceptance_config(epochs=epochs, seed=seed)
        datasets = mdl.build_datasets(panel, cfg)
        full = mdl.train(datasets["train"], datasets["validation"], cfg)
        full_accs.append(full.best_val_acc)

        plain_cfg = acceptance_config(epochs=epochs, seed=seed, parallel_attention=False)
        swapped = mdl.build_datasets(panel, cfg, adjacency=sector_adj)
        plain = mdl.train(swapped["train"], swapped["validation"], plain_cfg)
        plain_accs.append(plain.best_val_acc)
    full_mean = float(np.mean(full_accs))
    plain_mean = float(np.mean(plain_accs))
    report("ablation separation (dynamic-graph+attention >= sector-plain, 5 seeds)",
           full_mean >= plain_mean,
           f"full {full_mean:.4f} vs sector-plain {plain_mean:.4f}")


def test_metrics_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    count = 0
    while count < 1000:
        tp, tn, fp, fn = (int(x) for x in rng.integers(0, 60, 4))
        if tp + tn + fp + fn == 0:
            continue
        count += 1
        c = mt.ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
        acc, mcc, f1 = oracle_metrics(tp, tn, fp, fn)
        worst = max(worst, abs(mt.accuracy(c) - acc), abs(mt.mcc(c) - mcc), abs(mt.f1(c) - f1))
    hand = mt.mcc(mt.ConfusionCounts(tp=3, tn=4, fp=2, fn=1))
    hand_ok = abs(hand - 10.0 / math.sqrt(600.0)) <= 1e-12
    report("metrics oracle (1000 matrices, 1e-12; mcc hand case)",
           worst <= 1e-12 and hand_ok, f"max dev {worst:.2e}")


def test_determinism_and_persistence(tmp_path):
    manifest = synth.write_dataset(tmp_path / "ds", 6, 80, seed=4)
    panel = md.select_indicators(md.load_panel(manifest), md.DEFAULT_INDICATORS)
    cfg = acceptance_config(tau=7, epochs=5)
    datasets = mdl.build_datasets(panel, cfg)
    run_a = mdl.train(datasets["train"], datasets["validation"], cfg)
    run_b = mdl.train(datasets["train"], datasets["validation"], cfg)
    histories_identical = run_a.history == run_b.history

    mdl.save_model(run_a.params, tmp_path / "model.bin")
    loaded = mdl.load_model(tmp_path / "model.bin")
    window = datasets["test"].features[0], datasets["test"].graphs[0]
    logits_match = (mdl.forward(run_a.params, *window).data
                    == mdl.forward(loaded, *window).data).all()
    report("determinism and persistence (bit-identical history, identical logits)",
           histories_identical and bool(logits_match))


REAL_MANIFEST = os.environ.get("TRENDGAT_REAL_MANIFEST")


@pytest.mark.skipif(REAL_MANIFEST is None,
                    reason="set TRENDGAT_REAL_MANIFEST to a real dataset manifest to enable")
def test_real_data_smoke():
    panel = md.select_indicators(md.load_panel(REAL_MANIFEST), md.DEFAULT_INDICATORS)
    cfg = acceptance_config(epochs=60)
    datasets = mdl.build_datasets(panel, cfg)
    result = mdl.train(datasets["train"], datasets["validation"], cfg)
    test = mt.evaluate(result.params, datasets["test"])
    report("real-data smoke (test ACC plausibility band)",
           0.45 < test["acc"] < 0.65, f"test ACC {test['acc']:.4f}")
