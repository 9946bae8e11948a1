import dataclasses
import json
import math
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from trendgat import autodiff as ad
from trendgat import energy_graph as eg
from trendgat import gnn_blocks as gb
from trendgat import market_data as md
from trendgat import metrics as mt
from trendgat import model as mdl
from trendgat import synth
from trendgat.errors import (ConfigError, FormatError, LabelError, NumericError, ShapeError,
                             TrendgatError)

from gradcheck import grad_check
from oracles import energies_of, from_dense
from test_gnn_blocks import gat_oracle, mha_oracle


def small_config(**overrides):
    return mdl.ModelConfig(**{**dict(tau=3, k=0.5, s=0.3, f=2, hidden=6, heads=2, layers=2,
                                     lr=1e-3, wd=1e-4, epochs=10, seed=0), **overrides})


def random_split(rng, n, cfg, windows=1):
    """``windows`` windows of n stocks with random features and one-hot
    labels and their energy graphs, as one ``metrics.Split``."""
    features = rng.standard_normal((windows, n, cfg.input_width))
    ups = rng.integers(0, cfg.alpha, (windows, n, cfg.phi))
    labels = np.eye(cfg.alpha, dtype=np.int64)[ups].reshape(windows, n, cfg.output_width)
    graphs = eg.boltzmann_graph(energies_of(features), cfg.k, cfg.tau, cfg.s)
    return mt.Split(range(windows), features, labels, tuple(graphs))


def forward_oracle(params, snapshot):
    """Straight-line numpy re-implementation, no tape machinery."""
    cfg = params.config
    h = snapshot.features @ params.w_in.data
    h = np.where(h > 0, h, h * params.prelu_in.data)
    hp = h
    for block in params.blocks:
        prop = gat_oracle(h, snapshot.adjacency, block.gat)
        if cfg.parallel_attention:
            fused = np.concatenate([hp, prop + h @ block.w_skip.data], axis=1)
            hp = mha_oracle(fused, block)
            h = prop
        else:
            h = hp = prop + h @ block.w_skip.data
    return hp @ params.w_out.data


def loss_oracle(logits, labels, alpha=2):
    n, width = labels.shape
    total = 0.0
    for row in range(n):
        for start in range(0, width, alpha):
            block = logits[row, start:start + alpha]
            z = block - block.max()
            log_probs = z - math.log(np.exp(z).sum())
            total -= float(labels[row, start:start + alpha] @ log_probs)
    return total / n


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_output_shape():
    cfg = small_config()
    params = mdl.init_model(cfg)
    sample = random_split(np.random.default_rng(0), 5, cfg)[0]
    out = mdl.forward(params, sample.snapshot)
    assert out.data.shape == (5, 2)


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(1)
    for parallel in (True, False):
        cfg = small_config(parallel_attention=parallel)
        params = mdl.init_model(cfg)
        sample = random_split(rng, 6, cfg)[0]
        out = mdl.forward(params, sample.snapshot)
        np.testing.assert_allclose(out.data, forward_oracle(params, sample.snapshot),
                                   atol=1e-12)


def test_forward_is_permutation_equivariant():
    rng = np.random.default_rng(2)
    cfg = small_config()
    params = mdl.init_model(cfg)
    feats = rng.standard_normal((7, cfg.input_width))
    perm = rng.permutation(7)
    p = np.eye(7)[perm]
    base = mdl.forward(params, eg.snapshot(0, feats, cfg.k, cfg.tau, cfg.s)).data
    permuted = mdl.forward(params, eg.snapshot(0, p @ feats, cfg.k, cfg.tau, cfg.s)).data
    np.testing.assert_allclose(permuted, p @ base, atol=1e-10)


def test_forward_rejects_wrong_width():
    cfg = small_config()
    params = mdl.init_model(cfg)
    bad = eg.snapshot(0, np.random.default_rng(3).standard_normal((4, 5)), cfg.k, cfg.tau, cfg.s)
    with pytest.raises(ConfigError):
        mdl.forward(params, bad)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_confident_correct_prediction_drives_loss_to_zero():
    labels = np.array([[0, 1], [1, 0]])
    logits = ad.Value(np.array([[-40.0, 40.0], [40.0, -40.0]]))
    assert mdl.loss(logits, labels).data[0, 0] < 1e-12


def test_zero_logits_give_ln2():
    labels = np.array([[0, 1], [1, 0], [0, 1]])
    logits = ad.Value(np.zeros((3, 2)))
    assert mdl.loss(logits, labels).data[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)


def test_loss_matches_formula_oracle():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((4, 2))
    labels = np.zeros((4, 2), dtype=np.int64)
    labels[np.arange(4), rng.integers(0, 2, 4)] = 1
    ours = mdl.loss(ad.Value(logits), labels).data[0, 0]
    assert ours == pytest.approx(loss_oracle(logits, labels), abs=1e-12)


def test_loss_multi_step_blocks():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((3, 4))  # phi=2, alpha=2
    labels = np.zeros((3, 4), dtype=np.int64)
    for j in range(2):
        labels[np.arange(3), 2 * j + rng.integers(0, 2, 3)] = 1
    ours = mdl.loss(ad.Value(logits), labels).data[0, 0]
    assert ours == pytest.approx(loss_oracle(logits, labels), abs=1e-12)


def _training_step(dense):
    """The tape and parameters of one training step (hidden 16, 2 layers,
    2 heads) on a snapshot of len(dense) stocks whose graph is ``dense``."""
    cfg = small_config(hidden=16, layers=2, heads=2)
    sample = random_split(np.random.default_rng(6), len(dense), cfg)[0]
    snapshot = eg.GraphSnapshot(0, sample.snapshot.features, from_dense(dense))
    params = mdl.init_model(cfg)
    with ad.Tape() as tape:
        tape.backward(mdl.loss(mdl.forward(params, snapshot), sample.labels))
    return tape, params


def test_training_step_records_eighteen_tape_ops():
    # input projection, rectifier, output projection and loss; per block:
    # two projections, gat_attention, skip, add, concat, attention
    dense = np.eye(8)
    dense[3, 5] = 0.4                        # one row with a neighbour
    tape, params = _training_step(dense)
    assert len(tape) == 18
    assert all(block.gat.attn.grad.any() for block in params.blocks)


def test_neighbour_free_training_step_records_fourteen_tape_ops():
    # per block the graph layer is the right projection alone
    tape, params = _training_step(np.eye(8))
    assert len(tape) == 14
    for block in params.blocks:
        for value in (block.gat.w_left, block.gat.attn, block.gat.edge_bias):
            assert not value.grad.any()
        assert block.gat.w_right.grad.any()


def test_malformed_labels_rejected():
    logits = ad.Value(np.zeros((2, 2)))
    with pytest.raises(LabelError):
        mdl.loss(logits, np.array([[1, 1], [0, 1]]))
    for shape, labels, message in [
            ((2, 2), [[1, 0]], r"targets \(1, 2\) vs logits \(2, 2\)"),
            ((2, 3), [[1, 0, 0], [0, 1, 0]], "width 3 is not a multiple of alpha=2"),
            ((2, 4), [[1, 0, 0, 1], [0, 1, 1, 1]], "one-hot")]:       # second block
        with pytest.raises(LabelError, match=message):
            mdl.loss(ad.Value(np.zeros(shape)), np.array(labels))


def _blockwise_loss_reference(x, labels, alpha):
    """The loss and its logits gradient computed block by block: each
    alpha-wide block's cross-entropy summed over the rows, the block sums
    added in block order, then scaled by 1 / rows."""
    n = x.shape[0]
    total, grad = 0.0, np.zeros_like(x)
    for start in range(0, x.shape[1], alpha):
        block = x[:, start:start + alpha].copy()
        target = labels[:, start:start + alpha].astype(np.float64)
        m = block.max(axis=1, keepdims=True)
        e = np.exp(block - m)
        lse = m + np.log(e.sum(axis=1, keepdims=True))
        total += float((lse[:, 0] - (target * block).sum(axis=1)).sum())
        grad[:, start:start + alpha] = (e / e.sum(axis=1, keepdims=True) - target) * (1.0 / n)
    return total * (1.0 / n), grad


def test_loss_is_one_tape_op_equal_to_the_blockwise_reference():
    rng = np.random.default_rng(7)
    cfg = small_config(phi=3)
    labels = random_split(rng, 9, cfg)[0].labels
    logits = ad.Value(3.0 * rng.standard_normal((9, cfg.output_width)))
    with ad.Tape() as tape:
        value = mdl.loss(logits, labels)
        tape.backward(value)
    want_value, want_grad = _blockwise_loss_reference(logits.data, labels, cfg.alpha)
    assert len(tape) == 1
    assert value.data[0, 0] == want_value
    assert (logits.grad == want_grad).all()


# ---------------------------------------------------------------------------
# adamw
# ---------------------------------------------------------------------------

def flat_params(pattern):
    """A real parameter store with every scalar set from a repeating pattern."""
    params = mdl.init_model(small_config())
    params.flat[...] = np.resize(pattern, params.flat.size)
    return params


def reference_adamw_step(named, moments, step, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-tensor AdamW, one parameter at a time."""
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    for name, value in named:
        g = value.grad
        m, v = moments.get(name, (np.zeros_like(g), np.zeros_like(g)))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        moments[name] = (m, v)
        value.data -= lr * ((m / c1) / (np.sqrt(v / c2) + eps) + wd * value.data)


def test_zero_gradient_without_decay_is_noop():
    params = flat_params([1.0, -2.0])
    opt = mdl.OptimizerState()
    before = params.flat.copy()
    mdl.adamw_step(params, opt, lr=1e-3, wd=0.0)
    np.testing.assert_array_equal(params.flat, before)


def test_zero_gradient_with_decay_scales_exactly():
    params = flat_params([4.0, -8.0])
    opt = mdl.OptimizerState()
    before = params.flat.copy()
    mdl.adamw_step(params, opt, lr=1e-3, wd=0.5)
    np.testing.assert_array_equal(params.flat, before * (1.0 - 1e-3 * 0.5))


def test_constant_gradient_reaches_signed_lr_steady_state():
    params = flat_params([0.0])
    opt = mdl.OptimizerState()
    g = np.resize([0.37, -1.9], params.grad.size)
    lr = 1e-3
    prev = params.flat.copy()
    for _ in range(3000):
        params.grad[...] = g
        prev = params.flat.copy()
        mdl.adamw_step(params, opt, lr=lr, wd=0.0)
    delta = params.flat - prev
    np.testing.assert_allclose(delta, -lr * np.sign(g), rtol=1e-6)


def test_non_finite_gradient_names_parameter():
    params = mdl.init_model(small_config())
    params.blocks[1].w_qkv.grad[0, 1] = np.nan
    with pytest.raises(NumericError, match=r"block1\.w_qkv"):
        mdl.adamw_step(params, mdl.OptimizerState(), lr=1e-3, wd=0.0)


def test_non_finite_gradient_updates_no_parameter():
    params = mdl.init_model(small_config())
    params.grad[-1] = np.inf
    before = params.flat.copy()
    with pytest.raises(NumericError, match="w_out"):
        mdl.adamw_step(params, mdl.OptimizerState(), lr=1e-3, wd=0.5)
    np.testing.assert_array_equal(params.flat, before)


def test_vectorized_adamw_matches_per_tensor_reference_bitwise():
    rng = np.random.default_rng(13)
    params, ref = mdl.init_model(small_config()), mdl.init_model(small_config())
    opt, moments = mdl.OptimizerState(), {}
    for step in range(1, 6):
        params.grad[...] = ref.grad[...] = rng.standard_normal(params.grad.size)
        mdl.adamw_step(params, opt, lr=1e-3, wd=5e-4)
        reference_adamw_step(ref.named(), moments, step, lr=1e-3, wd=5e-4)
        np.testing.assert_array_equal(params.flat, ref.flat)


@pytest.mark.parametrize("parallel", [False, True], ids=["plain", "parallel"])
def test_named_values_are_views_of_the_flat_store(parallel):
    cfg = small_config(parallel_attention=parallel)
    params = mdl.init_model(cfg)
    named = params.named()
    assert [(name, *v.data.shape) for name, v in named] == list(mdl.layout(cfg))
    assert params.parameter_count() == sum(v.data.size for _, v in named)
    np.testing.assert_array_equal(
        np.concatenate([v.data.ravel() for _, v in named]), params.flat)
    params.flat[...] = np.arange(params.flat.size)
    params.grad[...] = -np.arange(params.grad.size)
    np.testing.assert_array_equal(
        np.concatenate([v.data.ravel() for _, v in named]), params.flat)
    np.testing.assert_array_equal(
        np.concatenate([v.grad.ravel() for _, v in named]), params.grad)


def test_flat_vector_of_the_wrong_size_is_shape_error():
    cfg = small_config()
    size = mdl.init_model(cfg).flat.size
    for wrong in (size - 1, size + 1):
        with pytest.raises(ShapeError, match=rf"the layout needs \({size},\)"):
            mdl.ModelParams(cfg, np.zeros(wrong))


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_w_qkv_starts_as_the_per_head_draws(heads):
    # each block's w_qkv is the column concatenation of one Xavier draw per
    # head and projection, keyed by the names they had as separate matrices
    cfg = small_config(hidden=8, heads=heads, layers=2, seed=7)
    named = dict(mdl.init_model(cfg).named())
    d_cat = 2 * cfg.hidden
    for i in range(cfg.layers):
        want = np.concatenate([gb.xavier(7, f"block{i}.head{h}.{proj}", d_cat, d_cat // heads)
                               for h in range(heads) for proj in ("w_q", "w_k", "w_v")], axis=1)
        np.testing.assert_array_equal(named[f"block{i}.w_qkv"].data, want)


def test_parameter_count_is_bounded(monkeypatch):
    count = mdl.init_model(small_config()).parameter_count()
    monkeypatch.setattr(mdl, "MAX_PARAMETERS", count)
    small_config()                                 # exactly at the bound
    monkeypatch.setattr(mdl, "MAX_PARAMETERS", count - 1)
    with pytest.raises(ConfigError, match=rf"more than MAX_PARAMETERS = {count - 1} "
                                          rf"learnables: {count} \(2 blocks of "):
        small_config()
    monkeypatch.undo()
    # the total is counted in closed form, however large hidden or layers is
    with pytest.raises(ConfigError, match=r"learnables: 340000006100000002 \(2 blocks of "
                                          r"170000000100000001, 5900000000 outside them\)"):
        mdl.ModelConfig(hidden=10**8)
    with pytest.raises(ConfigError, match=r"learnables: 436900000944 \(100000000 blocks of "
                                          r"4369, 944 outside them\)"):
        mdl.ModelConfig(layers=10**8)


def _self_loop_snapshot(n, width, groups=1):
    """A snapshot of ``groups`` stacked self-loop graphs of n nodes and zero
    features."""
    graph = eg.stack([eg.CsrGraph(indptr=np.arange(n + 1), src=np.arange(n),
                                  weight=np.ones(n), n=n)] * groups)
    return eg.GraphSnapshot(0, np.zeros((groups * n, width)), graph)


def test_attention_scores_past_the_bound_are_refused_before_any_product():
    # 8193^2 scores are one more than MAX_SCORES at one head: a forward
    # would allocate 512 MiB, so the refusal must come first
    params = mdl.init_model(mdl.ModelConfig(tau=1, f=1, hidden=1, heads=1, layers=1))
    snapshot = _self_loop_snapshot(8193, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"N = 8193 nodes with 1 heads hold 67125249 "
                                              r"attention scores, more than MAX_SCORES = "
                                              r"67108864$"):
            mdl.forward(params, snapshot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_attention_score_bound_counts_groups_and_heads(monkeypatch):
    params = mdl.init_model(small_config(heads=3))
    snapshot = _self_loop_snapshot(5, params.config.input_width, groups=4)
    monkeypatch.setattr(mdl, "MAX_SCORES", 4 * 3 * 5 * 5)
    assert mdl.forward(params, snapshot).data.shape == (20, params.config.output_width)
    monkeypatch.setattr(mdl, "MAX_SCORES", 4 * 3 * 5 * 5 - 1)
    with pytest.raises(ConfigError, match="4 graph"):
        mdl.forward(params, snapshot)
    # without the parallel stream there are no scores to bound
    plain = mdl.init_model(small_config(parallel_attention=False))
    assert mdl.forward(plain, snapshot).data.shape == (20, plain.config.output_width)


def test_largest_synthetic_panel_is_within_the_score_bound():
    # at this N an evaluation chunk is one window, so it passes too
    params = mdl.init_model(mdl.ModelConfig())
    n = synth.max_stocks(synth.RuleSpec())
    assert n > mt.CHUNK_ROWS
    out = mdl.forward(params, _self_loop_snapshot(n, params.config.input_width))
    assert out.data.shape == (n, params.config.output_width)


@pytest.mark.parametrize("parallel", [False, True])
def test_parameter_bound_lays_out_one_block_whatever_the_layer_count(monkeypatch, parallel):
    calls = []
    block_layout = gb.block_layout

    def counted(*args):
        calls.append(args)
        return block_layout(*args)

    monkeypatch.setattr(gb, "block_layout", counted)
    with pytest.raises(ConfigError, match="more than MAX_PARAMETERS"):
        mdl.ModelConfig(hidden=1, heads=1, layers=10**8, parallel_attention=parallel)
    assert len(calls) == 1
    mdl.ModelConfig(hidden=1, heads=1, layers=3, parallel_attention=parallel)
    assert len(calls) == 2


def test_layout_entry_count_is_bounded(monkeypatch):
    # the count is taken in closed form, so a config past the bound fails
    # before any parameter exists
    def refused(config):
        raise AssertionError("init_model was called")

    monkeypatch.setattr(mdl, "init_model", refused)
    with pytest.raises(ConfigError, match=r"^more than MAX_ENTRIES = 4096 layout entries: "
                                          r"5600003 \(800000 blocks of 7, 3 outside them\)$"):
        mdl.ModelConfig(hidden=1, heads=1, layers=800_000)   # 15,200,059 learnables
    mdl.ModelConfig(hidden=1, heads=1, layers=584)           # 4,091 entries
    with pytest.raises(ConfigError, match=r"4098 \(819 blocks of 5, 3 outside them\)"):
        mdl.ModelConfig(hidden=1, layers=819, parallel_attention=False)
    monkeypatch.setattr(mdl, "MAX_ENTRIES", 17)
    small_config()                                 # 2 blocks of 7 and 3 outside: at the bound
    with pytest.raises(ConfigError, match="more than MAX_ENTRIES = 17 layout entries: 24"):
        small_config(layers=3)


def test_seed_uses_its_whole_value():
    with pytest.raises(ConfigError, match="seed must not be negative, got -1"):
        small_config(seed=-1)
    # seeds below 2**32 draw what they drew while the key held only 32 bits
    assert gb.xavier(0, "probe", 1, 2).tolist() == [[0.18898085950590238, -1.3882055011060819]]
    assert gb.xavier(2**32 - 1, "probe", 1, 2).tolist() == [[-1.090988028546568,
                                                           -1.0981681362279412]]
    flats = [mdl.init_model(small_config(seed=seed)).flat
             for seed in (0, 2**32, 2**32 - 1, 2**64)]
    for i, a in enumerate(flats):
        for b in flats[i + 1:]:
            assert (a != b).any()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_single_sample_capacity():
    rng = np.random.default_rng(6)
    cfg = small_config(epochs=50)
    result = mdl.train(random_split(rng, 4, cfg), random_split(rng, 4, cfg, windows=0), cfg)
    losses = [rec["train_loss"] for rec in result.history]
    assert min(losses) < math.log(2.0)


def test_single_sample_loss_nearly_monotone():
    rng = np.random.default_rng(7)
    cfg = small_config(epochs=50)
    result = mdl.train(random_split(rng, 4, cfg), random_split(rng, 4, cfg, windows=0), cfg)
    losses = [rec["train_loss"] for rec in result.history]
    violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-12)
    assert violations <= 5


def test_training_is_deterministic():
    rng = np.random.default_rng(8)
    cfg = small_config(epochs=8)
    samples = random_split(rng, 4, cfg, windows=3)
    val = random_split(rng, 4, cfg)
    a = mdl.train(samples, val, cfg)
    b = mdl.train(samples, val, cfg)
    assert a.history == b.history
    for (_, va), (_, vb) in zip(a.final_params.named(), b.final_params.named()):
        np.testing.assert_array_equal(va.data, vb.data)


def test_training_builds_each_graph_structure_once(monkeypatch):
    built = []
    build = eg.edge_structure
    monkeypatch.setattr(eg, "edge_structure", lambda graph: built.append(graph) or build(graph))
    rng = np.random.default_rng(15)
    cfg = small_config(epochs=2, s=0.25)
    samples = random_split(rng, 5, cfg, windows=3)
    mdl.train(samples, random_split(rng, 5, cfg), cfg)
    assert [sum(graph is window for graph in built) for window in samples.graphs] == [1, 1, 1]


def full_gatv2_layer(h, adjacency, params):
    """The graph layer without its shortcuts: both projections and
    gat_attention on every graph, whatever its rows."""
    left = ad.matmul(h, params.w_left)
    right = ad.matmul(h, params.w_right)
    return ad.gat_attention(left, right, params.attn, params.edge_bias, adjacency,
                            gb.LEAKY_SLOPE)


@pytest.fixture(scope="module")
def small_synth_panel(tmp_path_factory):
    manifest = synth.write_dataset(tmp_path_factory.mktemp("synth"), 6, 120, seed=0)
    return md.select_indicators(md.load_panel(manifest), md.DEFAULT_INDICATORS)


@pytest.mark.parametrize("source", ["energy", "sector"])
def test_training_matches_the_full_graph_layer_bit_for_bit(small_synth_panel, monkeypatch,
                                                            source):
    panel = small_synth_panel
    cfg = mdl.ModelConfig(tau=7, k=0.5, s=0.4, f=4, hidden=8, heads=2, layers=2, epochs=3,
                          seed=0)
    sector = eg.sector_adjacency(panel.sectors, panel.tickers) if source == "sector" else None
    datasets = mdl.build_datasets(panel, cfg, adjacency=sector)
    # the energy snapshots mix both kinds of graph; the sector graph has neighbour rows
    kinds = {sample.snapshot.adjacency.structure is None for sample in datasets["train"]}
    assert kinds == ({False} if sector else {False, True})

    def run():
        result = mdl.train(datasets["train"], datasets["validation"], cfg)
        return result, mt.evaluate(result.params, datasets["test"])

    got, got_test = run()
    monkeypatch.setattr(gb, "gatv2_layer", full_gatv2_layer)
    want, want_test = run()
    assert got.history == want.history
    assert got.params.flat.tobytes() == want.params.flat.tobytes()
    assert got.final_params.flat.tobytes() == want.final_params.flat.tobytes()
    assert got_test == want_test


def test_build_datasets_returns_a_split_per_requested_name(small_synth_panel):
    cfg = mdl.ModelConfig(tau=7, f=4, hidden=8, heads=2, layers=2, epochs=1)
    for names in (("train", "validation", "test"), ("test",)):
        datasets = mdl.build_datasets(small_synth_panel, cfg, names=names)
        assert tuple(datasets) == names
        assert all(isinstance(split, mt.Split) and split for split in datasets.values())


def test_a_split_hands_out_its_windows_on_demand(small_synth_panel):
    cfg = mdl.ModelConfig(tau=7, f=4, hidden=8, heads=2, layers=2, epochs=1)
    periods = md.split_periods(small_synth_panel, mdl.DEFAULT_RATIOS, cfg.tau, cfg.phi)
    for name, split in mdl.build_datasets(small_synth_panel, cfg).items():
        assert split.ts == getattr(periods, name)
        assert len(split) == len(split.features) == len(split.labels) == len(split.graphs) > 1
        for b in (0, 1, len(split) - 1, -1):
            window = split[b]
            assert window.snapshot.t == split.ts[b]
            assert window.snapshot.adjacency is split.graphs[b]
            assert np.shares_memory(window.snapshot.features, split.features)
            np.testing.assert_array_equal(window.snapshot.features, split.features[b])
            np.testing.assert_array_equal(window.labels, split.labels[b])
        assert split[-1].snapshot.t == split.ts[-1] == split[len(split) - 1].snapshot.t
        with pytest.raises(IndexError):
            split[len(split)]
        windows = list(split)
        assert len(windows) == len(split)
        assert [window.snapshot.t for window in windows] == list(split.ts)


def test_split_labels_cannot_be_written(small_synth_panel):
    cfg = mdl.ModelConfig(tau=7, f=4, hidden=8, heads=2, layers=2, epochs=1)
    split = mdl.build_datasets(small_synth_panel, cfg, names=("validation",))["validation"]
    classes = split.classes.copy()
    for labels in (split.labels, split[0].labels):
        with pytest.raises(ValueError, match="read-only"):
            labels[0, 0] = 1 - labels[0, 0]
    np.testing.assert_array_equal(split.classes, classes)


@pytest.mark.parametrize("with_validation", [True, False])
def test_best_params_are_independent_of_final_params(with_validation):
    rng = np.random.default_rng(14)
    cfg = small_config(epochs=3)
    samples = random_split(rng, 4, cfg, windows=2)
    val = random_split(rng, 4, cfg, windows=1 if with_validation else 0)
    result = mdl.train(samples, val, cfg)
    best = [v.data.copy() for _, v in result.params.named()]
    for _, value in result.final_params.named():
        value.data += 1.0
    for kept, (_, value) in zip(best, result.params.named()):
        np.testing.assert_array_equal(value.data, kept)


def test_best_checkpoint_tracks_validation_accuracy():
    rng = np.random.default_rng(9)
    cfg = small_config(epochs=6)
    samples = random_split(rng, 4, cfg, windows=2)
    val = random_split(rng, 4, cfg, windows=2)
    result = mdl.train(samples, val, cfg)
    accs = [rec["val_acc"] for rec in result.history]
    assert result.best_val_acc == max(accs)
    assert result.history[result.best_epoch - 1]["val_acc"] == result.best_val_acc


# ---------------------------------------------------------------------------
# end-to-end gradient
# ---------------------------------------------------------------------------

def test_end_to_end_gradient_check():
    rng = np.random.default_rng(10)
    cfg = mdl.ModelConfig(tau=7, f=4, hidden=8, heads=2, layers=2, seed=3)
    params = mdl.init_model(cfg)
    sample = random_split(rng, 5, cfg)[0]

    def f():
        return mdl.loss(mdl.forward(params, sample.snapshot), sample.labels)

    values = [v for _, v in params.named()]
    report = grad_check(f, values, step=1e-5, tol=1e-4)
    assert report.passed, report


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_argmax_and_tie_rule():
    cfg = small_config(layers=2)
    params = mdl.init_model(cfg)
    # bypass the network: check the decision rule directly on logit blocks
    logits = np.array([[2.0, -1.0], [0.3, 0.3], [-4.0, 1.0]])
    classes = logits.argmax(axis=1)
    assert classes.tolist() == [0, 0, 1]  # equal logits resolve to class 0


def test_predict_equals_the_per_step_loop(monkeypatch):
    params = mdl.init_model(small_config(phi=3))
    logits = np.random.default_rng(12).standard_normal((7, 6)) * 30
    logits[0, 2:4] = 0.5  # a tie, which goes to class 0
    monkeypatch.setattr(mdl, "forward", lambda params, snapshot: ad.Value(logits))
    classes, probs = mdl.predict(params, None)
    want_classes = np.empty((7, 3), dtype=np.int64)
    want_probs = np.empty_like(logits)
    for j in range(3):
        block = logits[:, 2 * j:2 * j + 2]
        e = np.exp(block - block.max(axis=1, keepdims=True))
        want_probs[:, 2 * j:2 * j + 2] = e / e.sum(axis=1, keepdims=True)
        want_classes[:, j] = block.argmax(axis=1)
    assert want_classes[0, 1] == 0
    np.testing.assert_array_equal(classes, want_classes)
    np.testing.assert_array_equal(probs, want_probs)


def test_predict_shapes_and_probabilities():
    rng = np.random.default_rng(11)
    cfg = small_config()
    params = mdl.init_model(cfg)
    sample = random_split(rng, 5, cfg)[0]
    classes, probs = mdl.predict(params, sample.snapshot)
    assert classes.shape == (5, 1)
    assert probs.shape == (5, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert set(np.unique(classes)) <= {0, 1}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip_is_bit_identical(tmp_path, monkeypatch):
    cfg = small_config()
    params = mdl.init_model(cfg)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    mdl.save_model(params, p1)

    def no_draws(*args):
        raise AssertionError("load_model drew a Xavier initialisation")

    monkeypatch.setattr(gb, "xavier", no_draws)    # loading wraps the payload, draws nothing
    mdl.save_model(mdl.load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_is_format_error(tmp_path):
    cfg = small_config()
    params = mdl.init_model(cfg)
    path = tmp_path / "model.bin"
    mdl.save_model(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(FormatError, match="offset"):
        mdl.load_model(path)


def test_bad_magic_is_format_error(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        mdl.load_model(path)


def _sealed(header: bytes, payload: bytes) -> bytes:
    """Format-2 checkpoint bytes for a header and payload, with a valid CRC32
    over both."""
    body = header + payload
    return struct.pack("<4sIII", b"EPGT", 2, len(header), zlib.crc32(body)) + body


def _split(blob: bytes) -> tuple[bytes, bytes]:
    """The JSON header and the float64 payload of a checkpoint."""
    header_len = struct.unpack_from("<I", blob, 8)[0]
    return blob[16:16 + header_len], blob[16 + header_len:]


def _config_block(blob: bytes) -> bytes:
    return json.dumps(json.loads(_split(blob)[0])["config"], sort_keys=True).encode()


def _with_config_block(blob: bytes, cfg_blob: bytes) -> bytes:
    """Checkpoint bytes with the config block inside the header replaced by
    cfg_blob, re-sealed with a valid CRC32."""
    header, payload = _split(blob)
    old = _config_block(blob)
    assert header.count(old) == 1
    return _sealed(header.replace(old, cfg_blob), payload)


@pytest.mark.parametrize("edit,match", [
    (lambda cfg: b"\xff" + cfg[1:], "not UTF-8"),
    (lambda cfg: b"x" + cfg[1:], "not JSON"),
    (lambda cfg: b"[1, 2]", "not a JSON object"),
    (lambda cfg: json.dumps({**json.loads(cfg), "bogus": 1}).encode(), r"unknown keys \['bogus'\]"),
    (lambda cfg: json.dumps({**json.loads(cfg), "k": "big"}).encode().replace(
        b'"big"', b"1" + b"0" * 5000), "not JSON: Exceeds"),
], ids=["not_utf8", "not_json", "not_object", "unknown_key", "int_past_digit_limit"])
def test_corrupt_config_block_is_format_error(tmp_path, edit, match):
    path = tmp_path / "model.bin"
    mdl.save_model(mdl.init_model(small_config()), path)
    blob = path.read_bytes()
    path.write_bytes(_with_config_block(blob, edit(_config_block(blob))))
    with pytest.raises(FormatError, match=match):
        mdl.load_model(path)


@pytest.mark.parametrize("key,value,match", [
    ("hidden", "x", "hidden='x' is not int"),
    ("layers", None, "layers=None is not int"),
    ("tau", "14", "tau='14' is not int"),
    ("hidden", 10**12, r"config at offset 16: more than MAX_PARAMETERS = 16777216 "
                       r"learnables: \d+ \(2 blocks of \d+, \d+ outside them\)$"),
    ("grad_clip", "a", "config at offset 16: grad_clip='a' is not null or a finite positive"),
    ("parallel_attention", "no", "parallel_attention='no' is not bool"),
    ("layers", 10**9, r"config at offset 16: more than MAX_PARAMETERS = 16777216 "
                      r"learnables: \d+ \(1000000000 blocks of "),
    ("layers", 5000, r"config at offset 16: more than MAX_ENTRIES = 4096 layout entries: "
                     r"35003 \(5000 blocks of 7, 3 outside them\)$"),
    ("seed", -1, "config at offset 16: seed must not be negative, got -1"),
    ("heads", 10**9, r"config at offset 16: heads must be in \[1, 12\], got 1000000000"),
    ("heads", 5, "config at offset 16: heads 5 must divide the fused width 12"),
    ("epochs", 0, "config at offset 16: phi, epochs and hidden must be positive"),
    ("tau", 0, r"config at offset 16: tau must be positive \(at least one lag day\), got 0"),
    ("layers", -1, "config at offset 16: layers must not be negative, got -1"),
    ("k", math.nan, "config at offset 16: k must be finite, got nan"),
    ("s", math.inf, "config at offset 16: s must be finite, got inf"),
    ("lr", -1.0, "config at offset 16: lr must be positive and wd not negative, got -1.0, "),
    ("wd", -5.0, "config at offset 16: lr must be positive and wd not negative, got .*, -5.0$"),
    ("grad_clip", -math.inf, "config at offset 16: grad_clip=-inf is not null or a finite"),
    ("grad_clip", -1, "config at offset 16: grad_clip=-1 is not null or a finite positive"),
    ("k", 10**400, "config at offset 16: k must be finite, got 10{400}$"),
    ("grad_clip", 10**400, "config at offset 16: grad_clip=10{400} is not null or a finite"),
    ("alpha", 3, "config at offset 16: alpha=3, but a model has 2 classes per step"),
    ("alpha", 2.0, "config at offset 16: alpha=2.0, but a model has 2 classes per step"),
], ids=["hidden_str", "layers_null", "tau_str", "hidden_huge", "grad_clip_str",
        "parallel_str", "layers_huge", "layers_past_entry_bound", "seed_negative", "heads_huge",
        "heads_not_dividing", "epochs_zero", "tau_zero", "layers_negative", "k_nan", "s_inf", "lr_negative", "wd_negative",
        "grad_clip_neg_inf", "grad_clip_negative", "k_past_float", "grad_clip_past_float",
        "alpha_3", "alpha_float"])
def test_mistyped_or_missized_config_is_format_error(tmp_path, capsys, key, value, match):
    from trendgat import cli

    path = tmp_path / "model.bin"
    mdl.save_model(mdl.init_model(small_config()), path)
    blob = path.read_bytes()
    cfg = json.loads(_config_block(blob))
    path.write_bytes(_with_config_block(blob, json.dumps({**cfg, key: value}).encode()))
    with pytest.raises(FormatError, match=match):
        mdl.load_model(path)
    assert cli.main(["eval", "--manifest", str(tmp_path / "unused.csv"),
                     "--out", str(tmp_path / "eval"), "--model", str(path)]) == 2
    assert re.search(match, capsys.readouterr().err)


def test_config_is_frozen_and_checked_when_made():
    cfg = mdl.ModelConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.heads = 3
    assert "alpha" not in {field.name for field in dataclasses.fields(mdl.ModelConfig)}
    assert cfg.alpha == md.CLASSES == 2
    with pytest.raises(ConfigError, match="heads 3 must divide the fused width 32"):
        dataclasses.replace(cfg, heads=3)
    with pytest.raises(ConfigError, match="tau=7.0 is not int"):
        mdl.ModelConfig(tau=7.0)
    for tau in (0, -2):
        with pytest.raises(ConfigError, match=f"tau must be positive .*, got {tau}$"):
            mdl.ModelConfig(tau=tau)
    with pytest.raises(ConfigError, match="layers must not be negative, got -1$"):
        mdl.ModelConfig(layers=-1)
    assert mdl.init_model(mdl.ModelConfig(tau=1, layers=0)).parameter_count() > 0


@pytest.mark.parametrize("key", ["k", "s", "lr", "wd"])
def test_config_rejects_an_int_too_large_for_a_float(key):
    # math.isfinite raises OverflowError on such an int; the config says why instead
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        mdl.ModelConfig(**{key: 10**400})


def test_header_holding_the_retired_alpha_field_loads(tmp_path):
    # checkpoints written while alpha was a config field store "alpha": 2
    path = tmp_path / "model.bin"
    params = mdl.init_model(small_config())
    mdl.save_model(params, path)
    blob = path.read_bytes()
    assert b"alpha" not in _split(blob)[0]
    cfg = json.loads(_config_block(blob))
    path.write_bytes(_with_config_block(blob, json.dumps({**cfg, "alpha": 2},
                                                         sort_keys=True).encode()))
    loaded = mdl.load_model(path)
    assert loaded.config == params.config
    np.testing.assert_array_equal(loaded.flat, params.flat)


@pytest.mark.parametrize("value", [None, 0.5], ids=["null", "set"])
def test_header_holding_the_retired_grad_clip_setting_loads(tmp_path, value):
    # checkpoints written while gradient clipping was a setting store grad_clip
    path = tmp_path / "model.bin"
    params = mdl.init_model(small_config())
    mdl.save_model(params, path)
    blob = path.read_bytes()
    assert b"grad_clip" not in _split(blob)[0]
    cfg = json.loads(_config_block(blob))
    path.write_bytes(_with_config_block(blob, json.dumps({**cfg, "grad_clip": value},
                                                         sort_keys=True).encode()))
    loaded = mdl.load_model(path)
    assert loaded.config == params.config
    assert loaded.flat.tobytes() == params.flat.tobytes()


def test_header_listing_per_head_matrices_is_format_error(tmp_path, capsys):
    # checkpoints written while each head kept its own w_q, w_k and w_v list
    # them where the layout now has the block's one w_qkv
    from trendgat import cli

    path = tmp_path / "model.bin"
    mdl.save_model(mdl.init_model(small_config()), path)
    header, payload = _split(path.read_bytes())
    blob = json.loads(header)
    at = blob["params"].index(["block0.w_qkv", 12, 36])
    blob["params"][at:at + 1] = [[f"block0.head{h}.{proj}", 12, 6]
                                 for h in range(2) for proj in ("w_q", "w_k", "w_v")]
    path.write_bytes(_sealed(json.dumps(blob, sort_keys=True).encode(), payload))
    match = (r"entry 7: the header has \['block0.head0.w_q', 12, 6\], "
             r"the configuration lays out \['block0.w_qkv', 12, 36\]")
    with pytest.raises(FormatError, match=match):
        mdl.load_model(path)
    assert cli.main(["eval", "--manifest", str(tmp_path / "unused.csv"),
                     "--out", str(tmp_path / "eval"), "--model", str(path)]) == 2
    assert re.search(match, capsys.readouterr().err)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
def test_a_non_finite_weight_is_a_format_error_naming_it(tmp_path, value, at):
    # save_model seals the file, so only the value itself is wrong
    params = mdl.init_model(small_config())
    params.flat[at] = value
    path = tmp_path / "model.bin"
    mdl.save_model(params, path)
    *_, (name, rows, cols) = mdl.layout(params.config)
    where = "w_in[0, 0]" if at == 0 else f"{name}[{rows - 1}, {cols - 1}]"
    header, _ = _split(path.read_bytes())
    offset = 16 + len(header) + 8 * (at % params.flat.size)
    with pytest.raises(FormatError, match=re.escape(f"payload at offset {offset}: parameter "
                                                    f"{where} is {value}, not finite")):
        mdl.load_model(path)


def test_config_field_kinds_accept_what_save_writes(tmp_path):
    # an int where a float is declared still loads
    path = tmp_path / "model.bin"
    mdl.save_model(mdl.init_model(small_config(k=1)), path)
    loaded = mdl.load_model(path)
    assert loaded.config.k == 1


def test_non_utf8_parameter_name_is_format_error(tmp_path):
    path = tmp_path / "model.bin"
    mdl.save_model(mdl.init_model(small_config()), path)
    header, payload = _split(path.read_bytes())
    path.write_bytes(_sealed(header.replace(b'"w_in"', b'"\xffin"'), payload))
    with pytest.raises(FormatError, match="header at offset 16 is not UTF-8"):
        mdl.load_model(path)


def test_declared_matrix_larger_than_file_is_format_error(tmp_path):
    path = tmp_path / "model.bin"
    params = mdl.init_model(small_config())
    mdl.save_model(params, path)
    header, payload = _split(path.read_bytes())
    shape = json.dumps(["w_in", small_config().input_width, 6]).encode()
    assert header.count(shape) == 1
    huge = json.dumps(["w_in", 2**31, 2**31]).encode()
    path.write_bytes(_sealed(header.replace(shape, huge), payload))
    declared = 8 * (2**62 + params.flat.size - params.w_in.data.size)
    with pytest.raises(FormatError, match=rf"header declares {declared} bytes"):
        mdl.load_model(path)


def _swap_first_two_params(header: bytes) -> bytes:
    blob = json.loads(header)
    blob["params"][:2] = blob["params"][1::-1]
    return json.dumps(blob, sort_keys=True).encode()


@pytest.mark.parametrize("make,match", [
    (lambda blob: blob[:4] + struct.pack("<I", 1) + blob[8:],
     r"unsupported format version 1 at offset 4"),
    (lambda blob: blob.replace(b'"lr": 0.001', b'"lr": 0.007'), "CRC32 .* at offset 12"),
    (lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]), "CRC32 .* at offset 12"),
    (lambda blob: blob[:8] + struct.pack("<I", 2**32 - 1) + blob[12:],
     "header length 4294967295 at offset 8 exceeds"),
    (lambda blob: _sealed(b"[" * 100_000, _split(blob)[1]), "header at offset 16 is not JSON"),
    (lambda blob: _sealed(b"[]", _split(blob)[1]), "header at offset 16 is not a JSON object"),
    (lambda blob: _sealed(_split(blob)[0].replace(b'"w_in", 6', b'"w_in", -6'), _split(blob)[1]),
     r"header at offset 16: params is not a list of \[name, rows, cols\]"),
    (lambda blob: _sealed(_split(blob)[0], _split(blob)[1][:-8]),
     r"payload at offset \d+ holds \d+ bytes, but the header declares"),
    (lambda blob: _sealed(_swap_first_two_params(_split(blob)[0]), _split(blob)[1]),
     "parameter listing in the header at offset 16 does not match"),
], ids=["version_1", "config_digit_unsealed", "payload_bit_unsealed", "header_length_huge",
        "header_nested_too_deep", "header_not_object", "negative_rows", "payload_short",
        "listing_out_of_order"])
def test_rejected_checkpoint_is_format_error_and_exits_two(tmp_path, capsys, make, match):
    from trendgat import cli

    path = tmp_path / "model.bin"
    mdl.save_model(mdl.init_model(small_config()), path)
    blob = path.read_bytes()
    edited = make(blob)
    assert edited != blob
    path.write_bytes(edited)
    with pytest.raises(FormatError, match=match):
        mdl.load_model(path)
    assert cli.main(["eval", "--manifest", str(tmp_path / "unused.csv"),
                     "--out", str(tmp_path / "eval"), "--model", str(path)]) == 2
    assert re.search(match, capsys.readouterr().err)


FUZZ_CASES = 1000


def test_corrupted_or_truncated_checkpoint_is_trendgat_error_or_loads(tmp_path):
    # each case flips 1-4 bytes, truncates the file, or both; the CRC32 covers
    # every byte after the prefix, so a checkpoint that loads must save back
    # to the original bytes
    path, resaved = tmp_path / "model.bin", tmp_path / "resaved.bin"
    mdl.save_model(mdl.init_model(small_config()), path)
    blob = path.read_bytes()
    rng = np.random.default_rng(2024)
    outcomes = {"identical": 0, "error": 0}
    for case in range(FUZZ_CASES):
        data = bytearray(blob)
        mode = int(rng.integers(3))            # 0 corrupt, 1 truncate, 2 both
        if mode != 1:
            for at in rng.integers(0, len(data), int(rng.integers(1, 5))):
                data[at] = int(rng.integers(256))
        if mode != 0:
            data = data[:int(rng.integers(0, len(data)))]
        path.write_bytes(bytes(data))
        try:
            loaded = mdl.load_model(path)
        except TrendgatError:
            outcomes["error"] += 1
            continue
        except Exception as exc:               # noqa: BLE001 - the failure under test
            pytest.fail(f"case {case} (mode {mode}) escaped as {type(exc).__name__}: {exc}")
        mdl.save_model(loaded, resaved)
        if resaved.read_bytes() != blob:
            pytest.fail(f"case {case} (mode {mode}) loaded a model that differs from the saved one")
        outcomes["identical"] += 1
    assert outcomes["error"] > FUZZ_CASES // 2, outcomes


def test_loaded_model_reproduces_logits(tmp_path):
    rng = np.random.default_rng(12)
    cfg = small_config()
    params = mdl.init_model(cfg)
    sample = random_split(rng, 4, cfg)[0]
    before = mdl.forward(params, sample.snapshot).data
    mdl.save_model(params, tmp_path / "m.bin")
    loaded = mdl.load_model(tmp_path / "m.bin")
    after = mdl.forward(loaded, sample.snapshot).data
    np.testing.assert_array_equal(before, after)
