import json
import math
import re
import struct
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
from oracles import from_dense
from test_gnn_blocks import gat_oracle, mha_oracle


def small_config(**overrides):
    cfg = mdl.ModelConfig(tau=3, k=0.5, s=0.3, f=2, hidden=6, heads=2, layers=2,
                          lr=1e-3, wd=1e-4, epochs=10, seed=0)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def random_sample(rng, n, cfg, labels=None):
    feats = rng.standard_normal((n, cfg.input_width))
    snap = eg.snapshot(0, feats, cfg.k, cfg.tau, cfg.s)
    if labels is None:
        labels = np.zeros((n, cfg.output_width), dtype=np.int64)
        for j in range(cfg.phi):
            ups = rng.integers(0, 2, n)
            labels[np.arange(n), j * cfg.alpha + ups] = 1
    return mdl.Sample(snapshot=snap, labels=labels)


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
    sample = random_sample(np.random.default_rng(0), 5, cfg)
    out = mdl.forward(params, sample.snapshot)
    assert out.data.shape == (5, 2)


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(1)
    for parallel in (True, False):
        cfg = small_config(parallel_attention=parallel)
        params = mdl.init_model(cfg)
        sample = random_sample(rng, 6, cfg)
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
    assert mdl.loss(logits, labels).item() < 1e-12


def test_zero_logits_give_ln2():
    labels = np.array([[0, 1], [1, 0], [0, 1]])
    logits = ad.Value(np.zeros((3, 2)))
    assert mdl.loss(logits, labels).item() == pytest.approx(math.log(2.0), abs=1e-15)


def test_loss_matches_formula_oracle():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((4, 2))
    labels = np.zeros((4, 2), dtype=np.int64)
    labels[np.arange(4), rng.integers(0, 2, 4)] = 1
    ours = mdl.loss(ad.Value(logits), labels).item()
    assert ours == pytest.approx(loss_oracle(logits, labels), abs=1e-12)


def test_loss_multi_step_blocks():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((3, 4))  # phi=2, alpha=2
    labels = np.zeros((3, 4), dtype=np.int64)
    for j in range(2):
        labels[np.arange(3), 2 * j + rng.integers(0, 2, 3)] = 1
    ours = mdl.loss(ad.Value(logits), labels).item()
    assert ours == pytest.approx(loss_oracle(logits, labels), abs=1e-12)


def _training_step(dense):
    """The tape and parameters of one training step (hidden 16, 2 layers,
    2 heads) on a snapshot of len(dense) stocks whose graph is ``dense``."""
    cfg = small_config(hidden=16, layers=2, heads=2)
    sample = random_sample(np.random.default_rng(6), len(dense), cfg)
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
    labels = random_sample(rng, 9, cfg).labels
    logits = ad.Value(3.0 * rng.standard_normal((9, cfg.output_width)))
    with ad.Tape() as tape:
        value = mdl.loss(logits, labels)
        tape.backward(value)
    want_value, want_grad = _blockwise_loss_reference(logits.data, labels, cfg.alpha)
    assert len(tape) == 1
    assert value.item() == want_value
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
    params.blocks[1].heads[0][1].grad[0, 0] = np.nan
    with pytest.raises(NumericError, match=r"block1\.head0\.w_k"):
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


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_single_sample_capacity():
    rng = np.random.default_rng(6)
    cfg = small_config(epochs=50)
    sample = random_sample(rng, 4, cfg)
    result = mdl.train([sample], [], cfg)
    losses = [rec["train_loss"] for rec in result.history]
    assert min(losses) < math.log(2.0)


def test_single_sample_loss_nearly_monotone():
    rng = np.random.default_rng(7)
    cfg = small_config(epochs=50)
    sample = random_sample(rng, 4, cfg)
    result = mdl.train([sample], [], cfg)
    losses = [rec["train_loss"] for rec in result.history]
    violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-12)
    assert violations <= 5


def test_training_is_deterministic():
    rng = np.random.default_rng(8)
    cfg = small_config(epochs=8)
    samples = [random_sample(rng, 4, cfg) for _ in range(3)]
    val = [random_sample(rng, 4, cfg)]
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
    samples = [random_sample(rng, 5, cfg) for _ in range(3)]
    mdl.train(samples, [random_sample(rng, 5, cfg)], cfg)
    assert [sum(graph is sample.snapshot.adjacency for graph in built)
            for sample in samples] == [1, 1, 1]


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
    kinds = {sample.snapshot.adjacency.structure.self_loops_only
             for sample in datasets["train"]}
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


def test_training_history_is_the_same_for_a_list_or_a_split(small_synth_panel):
    cfg = mdl.ModelConfig(tau=7, k=0.5, s=0.4, f=4, hidden=8, heads=2, layers=2, epochs=3,
                          seed=1)
    datasets = mdl.build_datasets(small_synth_panel, cfg)
    validation = datasets["validation"]
    from_split = mdl.train(datasets["train"], validation, cfg)
    from_list = mdl.train(list(datasets["train"]), list(validation), cfg)
    assert from_split.history == from_list.history
    assert from_split.params.flat.tobytes() == from_list.params.flat.tobytes()


@pytest.mark.parametrize("with_validation", [True, False])
def test_best_params_are_independent_of_final_params(with_validation):
    rng = np.random.default_rng(14)
    cfg = small_config(epochs=3)
    samples = [random_sample(rng, 4, cfg) for _ in range(2)]
    val = [random_sample(rng, 4, cfg)] if with_validation else []
    result = mdl.train(samples, val, cfg)
    best = [v.data.copy() for _, v in result.params.named()]
    for _, value in result.final_params.named():
        value.data += 1.0
    for kept, (_, value) in zip(best, result.params.named()):
        np.testing.assert_array_equal(value.data, kept)


def test_best_checkpoint_tracks_validation_accuracy():
    rng = np.random.default_rng(9)
    cfg = small_config(epochs=6)
    samples = [random_sample(rng, 4, cfg) for _ in range(2)]
    val = [random_sample(rng, 4, cfg) for _ in range(2)]
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
    sample = random_sample(rng, 5, cfg)

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


def test_predict_shapes_and_probabilities():
    rng = np.random.default_rng(11)
    cfg = small_config()
    params = mdl.init_model(cfg)
    sample = random_sample(rng, 5, cfg)
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
], ids=["not_utf8", "not_json", "not_object", "unknown_key"])
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
    ("hidden", 10**12, r"entry 0: the header has \['w_in', 6, 6\], "
                       r"the configuration lays out \['w_in', 6, 1000000000000\]"),
    ("grad_clip", "a", "grad_clip='a' is not float | None"),
    ("parallel_attention", "no", "parallel_attention='no' is not bool"),
    ("heads", 3, r"entry 7: the header has \['block0.head0.w_q', 12, 6\], "
                 r"the configuration lays out \['block0.head0.w_q', 12, 4\]"),
    ("layers", 10**9, r"entry 26: the header has \['w_out', 6, 2\], "
                      r"the configuration lays out \['block2.gat.w_left', 6, 6\]"),
    ("heads", 10**9, r"stored configuration is invalid: .*heads must be in \[1, 12\]"),
    ("epochs", 0, "stored configuration is invalid"),
    ("k", math.nan, "k=nan is not finite"),
    ("s", math.inf, "s=inf is not finite"),
    ("grad_clip", -math.inf, "grad_clip=-inf is not finite"),
    ("grad_clip", -1, "stored configuration is invalid: grad_clip must be a finite positive"),
], ids=["hidden_str", "layers_null", "tau_str", "hidden_huge", "grad_clip_str",
        "parallel_str", "heads_missized", "layers_huge", "heads_huge", "epochs_zero", "k_nan",
        "s_inf", "grad_clip_neg_inf", "grad_clip_negative"])
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


def test_config_field_kinds_accept_what_save_writes(tmp_path):
    # an int where a float is declared, and a set grad_clip, still load
    path = tmp_path / "model.bin"
    mdl.save_model(mdl.init_model(small_config(k=1, grad_clip=0.5)), path)
    loaded = mdl.load_model(path)
    assert loaded.config.k == 1 and loaded.config.grad_clip == 0.5


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
    mdl.save_model(mdl.init_model(small_config(grad_clip=0.5)), path)
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
    sample = random_sample(rng, 4, cfg)
    before = mdl.forward(params, sample.snapshot).data
    mdl.save_model(params, tmp_path / "m.bin")
    loaded = mdl.load_model(tmp_path / "m.bin")
    after = mdl.forward(loaded, sample.snapshot).data
    np.testing.assert_array_equal(before, after)
