"""Classification metrics: accuracy, Matthews correlation and F1.

Evaluation pools every (stock, step) prediction over all scored days into
one confusion matrix and computes each metric once (micro-pooling).
Degenerate cases are total: a zero factor in the MCC denominator or an
all-negative F1 yields 0.0 with a flag in the record.  A ``Split`` holds
one split's samples and keeps, once built, the stacked graphs and true
classes that every evaluation of it reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import energy_graph as eg
from . import market_data as md

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
        "f1": f1(c),
        "n": c.total,
        "degenerate_flags": {
            "mcc": mcc_degenerate(c),
            "f1": f1_degenerate(c),
        },
    }


class Split(tuple):
    """One split's samples, in time order: an immutable sequence that
    ``evaluate`` scores.

    On first evaluation the split cuts its samples into chunks (see
    ``_chunks``), stacks each chunk's graphs with ``energy_graph.stack``
    and pools the true class of every (stock, step), and it keeps both:
    later evaluations of the split, such as every epoch's validation,
    build neither again, and each stacked graph keeps the ``structure``
    its first forward built.  The chunk size is fixed then.  Chunk
    features are not kept; each evaluation joins the samples' own arrays.
    The split reads its samples' graphs and labels once, so they must not
    change after it is first scored.
    """

    @cached_property
    def chunks(self) -> tuple[tuple[tuple, eg.CsrGraph], ...]:
        """(samples, their stacked graph) per chunk, in sample order."""
        return tuple((chunk, eg.stack(sample.snapshot.adjacency for sample in chunk))
                     for chunk in _chunks(self))

    @cached_property
    def classes(self) -> np.ndarray:
        """The true class of every (stock, step), sample by sample: each
        ``md.CLASSES``-wide one-hot label block's first maximum."""
        labels = np.concatenate([sample.labels for sample in self])
        return labels.reshape(-1, md.CLASSES).argmax(axis=1)


def as_split(samples) -> Split:
    """``samples`` if it is a ``Split``, else a new one holding them."""
    return samples if isinstance(samples, Split) else Split(samples)


def evaluate(params, samples) -> dict:
    """Pool predictions of every sample into one confusion matrix and score
    it; samples are (GraphSnapshot, labels) pairs, a ``Split`` or any
    sequence (wrapped in a new ``Split``, so pass the same ``Split`` to
    score a split repeatedly without stacking it again).

    Consecutive samples of the same shape are joined into chunks of at
    most ``CHUNK_ROWS`` rows, or one sample if it is larger: features
    stacked row-wise to (B * N) x tau*f and graphs by ``energy_graph.stack``
    (see ``gnn_blocks``).  Each chunk is scored by one ``model.forward``
    call, each ``md.CLASSES``-wide logit block's first maximum being its class, so
    ties go to class 0 as in ``model.predict``.  Every snapshot still
    attends only within itself, so the predictions are those of one
    ``predict`` call per sample, but each primitive runs once per chunk
    instead of once per snapshot.  The dense attention keeps B x H x N x N
    scores per chunk.
    """
    from . import model  # deferred: model depends on this module too
    if not samples:
        raise ValueError("evaluate: no samples")
    split = as_split(samples)
    preds = []
    for chunk, graph in split.chunks:
        features = np.concatenate([sample.snapshot.features for sample in chunk])
        logits = model.forward(params, eg.GraphSnapshot(chunk[0].snapshot.t, features, graph))
        preds.append(logits.data.reshape(-1, md.CLASSES).argmax(axis=1))
    return metrics_record(confusion(split.classes, np.concatenate(preds)))


def _chunks(samples):
    """Runs of consecutive samples with equal feature and adjacency shapes,
    cut into chunks of at most ``CHUNK_ROWS`` rows (a larger sample stands
    alone)."""
    shapes = lambda sample: (sample.snapshot.features.shape, sample.snapshot.adjacency.shape)
    for (features_shape, _), run in itertools.groupby(samples, key=shapes):
        run = tuple(run)
        size = max(1, CHUNK_ROWS // max(1, features_shape[0]))
        for start in range(0, len(run), size):
            yield run[start:start + size]
