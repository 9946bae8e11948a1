"""Classification metrics: accuracy, Matthews correlation and F1.

Evaluation pools every (stock, step) prediction over all scored days into
one confusion matrix and computes each metric once (micro-pooling).
Degenerate cases are total: a zero factor in the MCC denominator or an
all-negative F1 yields 0.0 with a flag in the record.  A ``Split`` holds
one split's windows as stacked arrays and keeps, once built, the stacked
graphs and true classes that every evaluation of it reads.
"""

from __future__ import annotations

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


def chunk_windows(n: int) -> int:
    """Windows of N stocks per ``evaluate`` forward: at least one."""
    return max(1, CHUNK_ROWS // n)


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


@dataclass
class Sample:
    """One window of a split: its graph snapshot plus its labels."""

    snapshot: eg.GraphSnapshot
    labels: np.ndarray


@dataclass(frozen=True, eq=False)
class Split:
    """One split's B windows, in time order, in the arrays they are built
    in: window b ends on day ``ts[b]`` and has features ``features[b]``,
    labels ``labels[b]`` and graph ``graphs[b]``; ``split[b]`` makes it a
    ``Sample`` on demand.

    On first evaluation the split cuts its windows into chunks of at most
    ``CHUNK_ROWS`` rows (a larger window stands alone), stacks each chunk's
    graphs with ``energy_graph.stack`` and pools the true class of every
    (stock, step).  It keeps both, so later evaluations, such as every
    epoch's validation, build neither again, and each stacked graph keeps
    the ``structure`` its first forward built.  ``build_windows`` and
    ``CsrGraph`` make the labels and graphs read-only, so neither goes stale.
    """

    ts: range
    features: np.ndarray   # B x N x (tau*F)
    labels: np.ndarray     # B x N x (phi*CLASSES)
    graphs: tuple          # B CsrGraphs of N nodes

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, b: int) -> Sample:
        return Sample(eg.GraphSnapshot(self.ts[b], self.features[b], self.graphs[b]),
                      self.labels[b])

    @cached_property
    def chunks(self) -> tuple[tuple[slice, eg.CsrGraph], ...]:
        """(window slice, their stacked graph) per chunk, in window order."""
        size = chunk_windows(self.features.shape[1])
        slices = (slice(start, start + size) for start in range(0, len(self), size))
        return tuple((chunk, eg.stack(self.graphs[chunk])) for chunk in slices)

    @cached_property
    def classes(self) -> np.ndarray:
        """The true class of every (stock, step), window by window: each
        ``md.CLASSES``-wide one-hot label block's first maximum."""
        return self.labels.reshape(-1, md.CLASSES).argmax(axis=1)


def evaluate(params, split: Split) -> dict:
    """Pool predictions of every window of ``split`` into one confusion
    matrix and score it.

    Each chunk of the split is scored by one ``model.forward`` call, its
    features stacked row-wise to (B * N) x tau*F and its graphs by
    ``energy_graph.stack`` (see ``gnn_blocks``); each ``md.CLASSES``-wide
    logit block's first maximum is its class, so ties go to class 0 as in
    ``model.predict``.  Every snapshot still attends only within itself,
    so the predictions are those of one ``predict`` call per window, but
    each primitive runs once per chunk.  The dense attention keeps
    B x H x N x N scores per chunk.
    """
    from . import model  # deferred: model depends on this module too
    if not split:
        raise ValueError("evaluate: no samples")
    preds = []
    for chunk, graph in split.chunks:
        features = split.features[chunk].reshape(-1, split.features.shape[2])
        logits = model.forward(params, eg.GraphSnapshot(split.ts[chunk.start], features, graph))
        preds.append(logits.data.reshape(-1, md.CLASSES).argmax(axis=1))
    return metrics_record(confusion(split.classes, np.concatenate(preds)))
