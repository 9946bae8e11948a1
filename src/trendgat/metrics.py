"""Classification metrics: accuracy, Matthews correlation and F1.

Evaluation pools every (stock, step) prediction over all scored days into
one confusion matrix and computes each metric once (micro-pooling).
Degenerate cases are total: a zero factor in the MCC denominator or an
all-negative F1 yields 0.0 with a flag in the record.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import energy_graph as eg

# rows (stocks x snapshots) that evaluate stacks into one forward pass; at
# N = 100 that is 4 snapshots, and larger chunks gain little speed while the
# stacked inputs and B x H x N x N attention scores raise peak memory
CHUNK_ROWS = 400


@dataclass
class ConfusionCounts:
    """Binary confusion counts with class 1 (upward) as positive."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(y_true, y_pred) -> ConfusionCounts:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"confusion: length mismatch {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("confusion: empty sequences")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"confusion: {name} has entries outside {{0, 1}}")
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    tn = int(((y_true == 0) & (y_pred == 0)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def accuracy(c: ConfusionCounts) -> float:
    if c.total == 0:
        raise ValueError("accuracy: empty counts")
    return (c.tp + c.tn) / c.total


def f1(c: ConfusionCounts) -> float:
    if c.total == 0:
        raise ValueError("f1: empty counts")
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 0.0
    return 2 * c.tp / denom


def f1_degenerate(c: ConfusionCounts) -> bool:
    return c.tp == 0 and c.fp == 0 and c.fn == 0


def mcc(c: ConfusionCounts) -> float:
    if c.total == 0:
        raise ValueError("mcc: empty counts")
    if mcc_degenerate(c):
        return 0.0
    num = c.tp * c.tn - c.fp * c.fn          # exact integer arithmetic
    den = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    return num / math.sqrt(den)


def mcc_degenerate(c: ConfusionCounts) -> bool:
    return 0 in ((c.tp + c.fp), (c.tp + c.fn), (c.tn + c.fp), (c.tn + c.fn))


def metrics_record(c: ConfusionCounts) -> dict:
    """JSON-ready record of all three metrics plus degeneracy flags."""
    m = mcc(c)
    return {
        "acc": accuracy(c),
        "mcc": m,
        "mcc_x100": 100.0 * m,
        "f1": f1(c),
        "n": c.total,
        "degenerate_flags": {
            "mcc": mcc_degenerate(c),
            "f1": f1_degenerate(c),
        },
    }


def evaluate(params, samples) -> dict:
    """Pool predictions of every sample into one confusion matrix and score
    it; samples are (GraphSnapshot, labels) pairs.

    Consecutive samples of the same shape are joined into chunks of at
    most ``CHUNK_ROWS`` rows, or one sample if it is larger: features
    stacked row-wise to (B * N) x tau*f and graphs by ``energy_graph.stack``
    (see ``gnn_blocks``).  Each chunk is scored by one ``predict`` call.
    Every snapshot still attends only within itself, so the predictions
    are those of one call per sample, but each primitive runs once per
    chunk instead of once per snapshot.  The dense attention keeps
    B x H x N x N scores per chunk.
    """
    from .model import predict  # deferred: model depends on this module too
    if not samples:
        raise ValueError("evaluate: no samples")
    trues, preds = [], []
    for chunk in _chunks(samples):
        snapshot = replace(
            chunk[0].snapshot,
            features=np.concatenate([sample.snapshot.features for sample in chunk]),
            adjacency=eg.stack(sample.snapshot.adjacency for sample in chunk))
        classes, _ = predict(params, snapshot)
        labels = np.concatenate([sample.labels for sample in chunk])
        alpha = 2
        phi = classes.shape[1]
        blocks = labels.reshape(labels.shape[0], phi, alpha)
        trues.append(blocks.argmax(axis=2).ravel())
        preds.append(classes.ravel())
    c = confusion(np.concatenate(trues), np.concatenate(preds))
    return metrics_record(c)


def _chunks(samples):
    """Runs of consecutive samples with equal feature and adjacency shapes,
    cut into chunks of at most ``CHUNK_ROWS`` rows (a larger sample stands
    alone)."""
    shapes = lambda sample: (sample.snapshot.features.shape, sample.snapshot.adjacency.shape)
    for (features_shape, _), run in itertools.groupby(samples, key=shapes):
        run = list(run)
        size = max(1, CHUNK_ROWS // max(1, features_shape[0]))
        for start in range(0, len(run), size):
            yield run[start:start + size]
