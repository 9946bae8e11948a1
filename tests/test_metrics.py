import math

import numpy as np
import pytest

from trendgat import metrics as mt

from oracles import from_dense
from test_model import random_split


def oracle_metrics(tp, tn, fp, fn):
    """Direct formula evaluation, independent of the library code paths."""
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    f1 = 0.0 if (2 * tp + fp + fn) == 0 else 2 * tp / (2 * tp + fp + fn)
    factors = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = 0.0 if factors == 0 else (tp * tn - fp * fn) / math.sqrt(factors)
    return acc, mcc, f1


# ---------------------------------------------------------------------------
# confusion
# ---------------------------------------------------------------------------

def test_identical_sequences_have_no_errors():
    c = mt.confusion([1, 0, 1, 1, 0], [1, 0, 1, 1, 0])
    assert c.fp == 0 and c.fn == 0
    assert c.tp == 3 and c.tn == 2


def test_complemented_sequences_have_no_hits():
    c = mt.confusion([1, 0, 1], [0, 1, 0])
    assert c.tp == 0 and c.tn == 0
    assert c.fp == 1 and c.fn == 2


def test_hand_counted_case():
    y_true = [1, 1, 1, 0, 0, 0, 0, 0, 0, 1]
    y_pred = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    c = mt.confusion(y_true, y_pred)
    assert (c.tp, c.fp, c.fn, c.tn) == (3, 2, 1, 4)


def test_confusion_input_validation():
    with pytest.raises(ValueError):
        mt.confusion([1, 0], [1])
    with pytest.raises(ValueError):
        mt.confusion([1, 2], [1, 0])
    with pytest.raises(ValueError):
        mt.confusion([], [])


# ---------------------------------------------------------------------------
# accuracy / f1 / mcc
# ---------------------------------------------------------------------------

def test_perfect_prediction_maximal_scores():
    c = mt.ConfusionCounts(tp=5, tn=7, fp=0, fn=0)
    assert mt.accuracy(c) == 1.0
    assert mt.f1(c) == 1.0
    assert mt.mcc(c) == 1.0


def test_fully_inverted_prediction_has_mcc_minus_one():
    c = mt.ConfusionCounts(tp=0, tn=0, fp=4, fn=6)
    assert mt.mcc(c) == -1.0


def test_mcc_hand_case_ten_over_sqrt600():
    c = mt.ConfusionCounts(tp=3, tn=4, fp=2, fn=1)
    assert mt.mcc(c) == pytest.approx(10.0 / math.sqrt(600.0), abs=1e-15)


def test_degenerate_mcc_and_f1_are_zero_and_flagged():
    c = mt.ConfusionCounts(tp=0, tn=9, fp=0, fn=0)  # no positives anywhere
    assert mt.mcc(c) == 0.0
    assert mt.f1(c) == 0.0
    rec = mt.metrics_record(c)
    assert rec["degenerate_flags"] == {"mcc": True, "f1": True}


def test_mcc_symmetric_under_class_relabeling():
    rng = np.random.default_rng(0)
    for _ in range(50):
        y_true = rng.integers(0, 2, 40)
        y_pred = rng.integers(0, 2, 40)
        a = mt.mcc(mt.confusion(y_true, y_pred))
        b = mt.mcc(mt.confusion(1 - y_true, 1 - y_pred))
        assert a == pytest.approx(b, abs=1e-12)


def test_accuracy_invariant_under_pair_permutation():
    rng = np.random.default_rng(1)
    y_true = rng.integers(0, 2, 60)
    y_pred = rng.integers(0, 2, 60)
    perm = rng.permutation(60)
    a = mt.accuracy(mt.confusion(y_true, y_pred))
    b = mt.accuracy(mt.confusion(y_true[perm], y_pred[perm]))
    assert a == b


def test_thousand_random_matrices_match_formula_oracle():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        tp, tn, fp, fn = (int(x) for x in rng.integers(0, 50, 4))
        if tp + tn + fp + fn == 0:
            continue
        c = mt.ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
        acc, mcc, f1 = oracle_metrics(tp, tn, fp, fn)
        assert abs(mt.accuracy(c) - acc) < 1e-12
        assert abs(mt.mcc(c) - mcc) < 1e-12
        assert abs(mt.f1(c) - f1) < 1e-12


def test_random_agreement_near_half():
    rng = np.random.default_rng(3)
    y_true = rng.integers(0, 2, 10_000)
    y_pred = rng.integers(0, 2, 10_000)
    acc = mt.accuracy(mt.confusion(y_true, y_pred))
    assert abs(acc - 0.5) < 0.02


def test_pooling_equals_concatenated_confusion():
    rng = np.random.default_rng(4)
    days = [(rng.integers(0, 2, 15), rng.integers(0, 2, 15)) for _ in range(6)]
    pooled = mt.ConfusionCounts(0, 0, 0, 0)
    for yt, yp in days:
        c = mt.confusion(yt, yp)
        pooled = mt.ConfusionCounts(pooled.tp + c.tp, pooled.tn + c.tn,
                                    pooled.fp + c.fp, pooled.fn + c.fn)
    concat = mt.confusion(np.concatenate([yt for yt, _ in days]),
                          np.concatenate([yp for _, yp in days]))
    assert pooled == concat


# ---------------------------------------------------------------------------
# evaluate: chunked inference against one predict call per window
# ---------------------------------------------------------------------------

def _predict_reference(params, split):
    """One ``predict`` call per window, pooled: what ``evaluate`` must equal."""
    from trendgat import model as mdl
    cfg = params.config
    trues, preds = [], []
    for sample in split:
        classes, _ = mdl.predict(params, sample.snapshot)
        trues.append(sample.labels.reshape(-1, cfg.phi, cfg.alpha).argmax(axis=2).ravel())
        preds.append(classes.ravel())
    return mt.metrics_record(mt.confusion(np.concatenate(trues), np.concatenate(preds)))


def test_chunked_evaluate_equals_per_sample_predictions(monkeypatch):
    from trendgat import model as mdl
    rng = np.random.default_rng(5)
    cfg = mdl.ModelConfig(tau=3, k=0.5, s=0.25, f=2, phi=2, hidden=6, heads=2, layers=2, seed=1)
    params = mdl.init_model(cfg)
    # 30 rows: 13 windows per chunk, 40 = 3 * 13 + 1; 7 rows: 57 per chunk
    cases = [(random_split(rng, n, cfg, windows), rows) for n, windows, rows in
             [(30, 40, [390, 390, 390, 30]), (7, 60, [399, 21]), (30, 2, [60])]]
    references = [_predict_reference(params, split) for split, _ in cases]

    calls = []
    forward = mdl.forward
    monkeypatch.setattr(mdl, "forward", lambda p, snap: calls.append(snap) or forward(p, snap))
    for (split, rows), reference in zip(cases, references):
        calls.clear()
        assert mt.evaluate(params, split) == reference
        assert [snap.features.shape[0] for snap in calls] == rows
        assert [snap.adjacency.shape[0] for snap in calls] == rows


def test_evaluate_scores_a_sample_larger_than_a_chunk_alone(monkeypatch):
    from trendgat import model as mdl
    rng = np.random.default_rng(6)
    cfg = mdl.ModelConfig(tau=3, k=0.5, s=0.25, f=2, hidden=4, heads=2, layers=2, seed=2)
    params = mdl.init_model(cfg)
    split = random_split(rng, mt.CHUNK_ROWS + 1, cfg, windows=2)
    calls = []
    forward = mdl.forward
    monkeypatch.setattr(mdl, "forward", lambda p, snap: calls.append(snap) or forward(p, snap))
    assert mt.evaluate(params, split)["n"] == 2 * (mt.CHUNK_ROWS + 1)
    assert [snap.adjacency.shape for snap in calls] == [(mt.CHUNK_ROWS + 1,) * 2] * 2


# ---------------------------------------------------------------------------
# Split: each split stacks its chunks and pools its classes once
# ---------------------------------------------------------------------------

def test_a_split_stacks_each_chunk_once(monkeypatch):
    from trendgat import energy_graph as eg
    from trendgat import model as mdl
    rng = np.random.default_rng(7)
    cfg = mdl.ModelConfig(tau=3, k=0.5, s=0.25, f=2, phi=2, hidden=6, heads=2, layers=2, seed=3)
    params = mdl.init_model(cfg)
    # 30 rows: 13 windows per chunk, so 20 windows make 2 chunks; 7 rows: 1 chunk
    splits = [random_split(rng, 30, cfg, windows=20), random_split(rng, 7, cfg, windows=5)]
    references = [_predict_reference(params, split) for split in splits]

    stacked = []
    stack = eg.stack
    monkeypatch.setattr(eg, "stack", lambda graphs: stacked.append(1) or stack(graphs))
    for split, reference in zip(splits, references):
        assert mt.evaluate(params, split) == reference
        assert mt.evaluate(params, split) == reference
    assert len(stacked) == sum(len(split.chunks) for split in splits) == 3


def test_evaluating_an_empty_split_is_value_error():
    from trendgat import model as mdl
    cfg = mdl.ModelConfig(tau=3, f=2, hidden=4, heads=2, layers=2)
    empty = random_split(np.random.default_rng(0), 4, cfg, windows=0)
    with pytest.raises(ValueError, match="no samples"):
        mt.evaluate(mdl.init_model(cfg), empty)


def test_training_and_evaluation_build_each_graph_structure_once(monkeypatch):
    from trendgat import energy_graph as eg
    from trendgat import model as mdl
    built = []
    build = eg.edge_structure
    monkeypatch.setattr(eg, "edge_structure", lambda graph: built.append(graph) or build(graph))
    self_loops = eg.stack([from_dense(np.eye(5))] * 3)
    for _ in range(2):
        assert self_loops.structure is None
    assert built == [self_loops]              # None is kept like a structure

    rng = np.random.default_rng(8)
    cfg = mdl.ModelConfig(tau=3, k=0.5, s=0.25, f=2, hidden=4, heads=2, layers=2, epochs=2,
                          seed=4)
    train, val, test = (random_split(rng, 30, cfg, windows=3) for _ in range(3))
    # every training window runs forward and backward in each epoch, and
    # the validation chunks are scored in each epoch
    result = mdl.train(train, val, cfg)
    for _ in range(2):
        mt.evaluate(result.params, test)
    graphs = [*train.graphs, *(graph for split in (val, test) for _, graph in split.chunks)]
    assert any(graph.structure is not None for graph in train.graphs)
    assert len(built) == 1 + len(graphs)
    assert all(sum(graph is b for b in built) == 1 for graph in graphs)
