import math

import numpy as np
import pytest

from trendgat import metrics as mt

from oracles import from_dense


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


def test_record_reports_mcc_times_100():
    c = mt.ConfusionCounts(tp=3, tn=4, fp=2, fn=1)
    rec = mt.metrics_record(c)
    assert rec["mcc_x100"] == pytest.approx(100.0 * rec["mcc"])


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
# evaluate: chunked inference against one predict call per sample
# ---------------------------------------------------------------------------

def _samples(rng, cfg, counts_by_n):
    from trendgat import energy_graph as eg
    from trendgat import model as mdl
    out = []
    for n, count in counts_by_n:
        for _ in range(count):
            feats = rng.standard_normal((n, cfg.input_width))
            labels = np.zeros((n, cfg.output_width), dtype=np.int64)
            for j in range(cfg.phi):
                labels[np.arange(n), j * cfg.alpha + rng.integers(0, 2, n)] = 1
            out.append(mdl.Sample(snapshot=eg.snapshot(0, feats, cfg.k, cfg.tau, 0.25),
                                  labels=labels))
    return out


def _predict_reference(params, samples):
    """One ``predict`` call per sample, pooled: what ``evaluate`` must equal."""
    from trendgat import model as mdl
    cfg = params.config
    trues, preds = [], []
    for sample in samples:
        classes, _ = mdl.predict(params, sample.snapshot)
        trues.append(sample.labels.reshape(-1, cfg.phi, cfg.alpha).argmax(axis=2).ravel())
        preds.append(classes.ravel())
    return mt.metrics_record(mt.confusion(np.concatenate(trues), np.concatenate(preds)))


def test_chunked_evaluate_equals_per_sample_predictions(monkeypatch):
    from trendgat import model as mdl
    rng = np.random.default_rng(5)
    cfg = mdl.ModelConfig(tau=3, k=0.5, s=0.25, f=2, phi=2, hidden=6, heads=2, layers=2, seed=1)
    params = mdl.init_model(cfg)
    # 30 rows: 13 samples per chunk, 40 = 3 * 13 + 1; 7 rows: 57 per chunk
    runs = [(30, 40), (7, 60), (30, 2)]
    samples = _samples(rng, cfg, runs)
    reference = _predict_reference(params, samples)

    calls = []
    forward = mdl.forward
    monkeypatch.setattr(mdl, "forward", lambda p, snap: calls.append(snap) or forward(p, snap))
    assert mt.evaluate(params, samples) == reference
    assert [snap.features.shape[0] for snap in calls] == [390, 390, 390, 30, 399, 21, 60]
    assert all(rows <= mt.CHUNK_ROWS for rows in (snap.adjacency.shape[0] for snap in calls))


def test_evaluate_scores_a_sample_larger_than_a_chunk_alone(monkeypatch):
    from trendgat import model as mdl
    rng = np.random.default_rng(6)
    cfg = mdl.ModelConfig(tau=3, k=0.5, s=0.25, f=2, hidden=4, heads=2, layers=2, seed=2)
    params = mdl.init_model(cfg)
    samples = _samples(rng, cfg, [(mt.CHUNK_ROWS + 1, 2)])
    calls = []
    forward = mdl.forward
    monkeypatch.setattr(mdl, "forward", lambda p, snap: calls.append(snap) or forward(p, snap))
    assert mt.evaluate(params, samples)["n"] == 2 * (mt.CHUNK_ROWS + 1)
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
    # 30 rows: 13 samples per chunk, so 20 samples make 2 chunks; 7 rows: 1 chunk
    samples = _samples(rng, cfg, [(30, 20), (7, 5)])
    reference = _predict_reference(params, samples)

    stacked = []
    stack = eg.stack
    monkeypatch.setattr(eg, "stack", lambda graphs: stacked.append(1) or stack(graphs))
    split = mt.Split(samples)
    assert mt.evaluate(params, split) == reference
    assert mt.evaluate(params, split) == reference
    assert len(stacked) == len(split.chunks) == 3
    # a plain list is wrapped anew on every call
    assert mt.evaluate(params, samples) == reference
    assert len(stacked) == 6


def test_evaluating_an_empty_split_is_value_error():
    from trendgat import model as mdl
    params = mdl.init_model(mdl.ModelConfig(tau=3, f=2, hidden=4, heads=2, layers=2))
    for empty in ([], mt.Split()):
        with pytest.raises(ValueError, match="no samples"):
            mt.evaluate(params, empty)


def test_evaluation_and_self_loop_stacks_build_no_source_order(monkeypatch):
    from trendgat import autodiff as ad
    from trendgat import energy_graph as eg
    from trendgat import model as mdl
    built = []
    order = eg.source_order
    monkeypatch.setattr(eg, "source_order", lambda graph: built.append(graph) or order(graph))
    self_loops = eg.stack([from_dense(np.eye(5))] * 3)
    assert self_loops.structure.self_loops_only

    rng = np.random.default_rng(8)
    cfg = mdl.ModelConfig(tau=3, k=0.5, s=0.25, f=2, hidden=4, heads=2, layers=2, seed=4)
    params = mdl.init_model(cfg)
    samples = _samples(rng, cfg, [(30, 3)])
    split = mt.Split(samples)
    mt.evaluate(params, split)
    assert all(graph.structure.multi is not None for _, graph in split.chunks)
    assert built == []

    # the backward into the graph layer's right projection builds it, once
    sample = next(s for s in samples if s.snapshot.adjacency.structure.multi is not None)
    for _ in range(2):
        with ad.Tape() as tape:
            tape.backward(mdl.loss(mdl.forward(params, sample.snapshot), sample.labels))
    assert built == [sample.snapshot.adjacency]
