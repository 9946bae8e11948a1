"""Spans and counts recorded around trendgat's public functions.

While installed, a :class:`Tracer` replaces selected module attributes (and
two class methods) with wrappers that record one span per call -- name,
start, end and the index of the enclosing span -- and, for a few
functions, counts taken from the call's arguments or result.  Library code
looks these names up at call time, so calls made inside the library are
seen as well.  Uninstalling restores the original objects, so untraced
runs execute the unmodified program.

Spans stay in memory; :func:`layer_metrics` reduces them to the per-layer
metrics once a run is over.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict

import numpy as np

from trendgat import autodiff as ad
from trendgat import energy_graph as eg
from trendgat import gnn_blocks as gb
from trendgat import market_data as md
from trendgat import metrics as mt
from trendgat import model as mdl


def _panel_rows(counts, args, result):
    # one row per (stock, shared date) of the aligned panel
    counts["market_data.rows"].append(result.values.shape[0] * result.values.shape[1])


def _snapshot_edges(counts, args, result):
    adj = np.asarray(result.adjacency)
    off = adj > 0
    np.fill_diagonal(off, False)
    counts["energy_graph.offdiag_edges"].append(int(off.sum()))
    counts["energy_graph.isolated_rows"].append(int((~off.any(axis=1)).sum()))
    counts["energy_graph.rows"].append(adj.shape[0])


def _gat_pairs(counts, args, result):
    # the layer scores every ordered pair; the neighbourhood mask (graph
    # edges plus self-loops) keeps the useful ones
    adj = np.asarray(args[1])
    mask = adj > 0
    np.fill_diagonal(mask, True)
    counts["gnn_blocks.mask_edges"].append(int(mask.sum()))
    counts["gnn_blocks.pairs_scored"].append(adj.shape[0] * adj.shape[0])


def _tape_ops(counts, args, result):
    counts["autodiff.tape_ops"].append(len(args[0]))


# (owner, attribute, span name, count hook)
TRACED = [
    (md, "load_panel", "market_data.load_panel", _panel_rows),
    (eg, "snapshot", "energy_graph.snapshot", _snapshot_edges),
    (gb, "gatv2_layer", "gnn_blocks.gatv2_layer", _gat_pairs),
    (gb, "multi_head_attention", "gnn_blocks.multi_head_attention", None),
    (ad.Tape, "backward", "autodiff.backward", _tape_ops),
    (mdl, "train", "model.train", None),
    (mdl, "forward", "model.forward", None),
    (mdl, "loss", "model.loss", None),
    (mdl, "adamw_step", "model.adamw_step", None),
    (mdl.ModelParams, "clone", "model.clone", None),
    (mdl, "save_model", "model.save_model", None),
    (mdl, "load_model", "model.load_model", None),
    (mt, "evaluate", "metrics.evaluate", None),
]


class Tracer:
    """In-memory span recorder.  ``spans[i]`` is ``[name, start, end, parent]``
    with ``parent == -1`` for a root span."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span around the benchmark's own code."""
        return _Span(self, name)

    def install(self) -> None:
        for owner, attr, name, hook in TRACED:
            original = owner.__dict__.get(attr)
            if original is None:
                # renamed or removed by a later change: measure what remains
                self.missing.append(name)
                continue
            setattr(owner, attr, self._wrap(original, name, hook))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines ``[name, start_s, end_s, parent]``."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self._span = self.tracer._open(self.name)
        return self._span

    def __exit__(self, *exc):
        self.tracer._close(self._span)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 when the layer never ran."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Index:
    """Spans grouped by name, with ancestor lookup."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            self.by_name[span[0]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def durations(self, name: str) -> list[float]:
        return [self.dur(i) for i in self.by_name[name]]

    def ancestor(self, i: int, name: str) -> int:
        """Index of the nearest enclosing span called ``name``, or -1."""
        p = self.spans[i][3]
        while p != -1 and self.spans[p][0] != name:
            p = self.spans[p][3]
        return p

    def under(self, name: str, root: str) -> dict[int, list[int]]:
        """Spans called ``name`` grouped by their enclosing ``root`` span."""
        out: dict[int, list[int]] = defaultdict(list)
        for i in self.by_name[name]:
            r = self.ancestor(i, root)
            if r != -1:
                out[r].append(i)
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from one traced run.  A layer the workload never
    reaches reports 0."""
    idx = _Index(tracer.spans)
    c = tracer.counts
    ms = 1e3
    out: dict[str, float] = {}

    out["market_data.load_panel_s"] = _median(idx.durations("market_data.load_panel"))
    out["market_data.rows_parsed"] = _median(c["market_data.rows"])

    out["energy_graph.snapshot_ms_p50"] = _percentile(idx.durations("energy_graph.snapshot"), 50) * ms
    out["energy_graph.offdiag_edges_mean"] = (float(np.mean(c["energy_graph.offdiag_edges"]))
                                              if c["energy_graph.offdiag_edges"] else 0.0)
    out["energy_graph.isolated_frac"] = _ratio(sum(c["energy_graph.isolated_rows"]),
                                               sum(c["energy_graph.rows"]))

    out["gnn_blocks.gatv2_fwd_ms_p50"] = _percentile(idx.durations("gnn_blocks.gatv2_layer"), 50) * ms
    out["gnn_blocks.gatv2_useful_pair_frac"] = _ratio(sum(c["gnn_blocks.mask_edges"]),
                                                      sum(c["gnn_blocks.pairs_scored"]))
    out["gnn_blocks.mha_fwd_ms_p50"] = _percentile(
        idx.durations("gnn_blocks.multi_head_attention"), 50) * ms

    backward = idx.durations("autodiff.backward")
    out["autodiff.backward_ms_p50"] = _percentile(backward, 50) * ms
    out["autodiff.backward_ms_p90"] = _percentile(backward, 90) * ms
    out["autodiff.tape_ops_per_step"] = _median(c["autodiff.tape_ops"])

    out["model.forward_ms_p50"] = _percentile(idx.durations("model.forward"), 50) * ms
    out["model.loss_ms_p50"] = _percentile(idx.durations("model.loss"), 50) * ms

    # step time: interval between consecutive adamw_step returns in one train call
    steps = []
    for members in idx.under("model.adamw_step", "model.train").values():
        ends = [tracer.spans[i][2] for i in members]
        steps += list(np.diff(ends))
    out["model.step_ms_p50"] = _percentile(steps, 50) * ms
    out["model.step_ms_p90"] = _percentile(steps, 90) * ms
    out["model.adamw_step_ms_p50"] = _percentile(idx.durations("model.adamw_step"), 50) * ms

    clones = idx.under("model.clone", "model.train")
    out["model.clone_ms_total"] = _median(
        [sum(idx.dur(i) for i in clones.get(t, [])) for t in idx.by_name["model.train"]]) * ms
    out["model.load_model_ms"] = _median(idx.durations("model.load_model")) * ms
    out["model.save_model_ms"] = _median(idx.durations("model.save_model")) * ms

    # evaluation cost per timed call, and its share of that call
    evals = idx.under("metrics.evaluate", "bench.call")
    totals, shares = [], []
    for call in idx.by_name["bench.call"]:
        spent = sum(idx.dur(i) for i in evals.get(call, []))
        totals.append(spent)
        shares.append(_ratio(spent, idx.dur(call)))
    out["metrics.evaluate_s_total"] = _median(totals)
    out["metrics.evaluate_share"] = _median(shares)

    gat_share, adamw_share = step_shares(idx)
    out["model.gatv2_share_of_step"] = gat_share
    out["model.adamw_share_of_step"] = adamw_share
    return out


def step_shares(idx: _Index) -> tuple[float, float]:
    """Median over train calls of the share of optimizer-step time spent in
    the ``gatv2_layer`` forward and in ``adamw_step``.  Step time is the
    train call minus its validation passes and checkpoint clones."""
    gat = idx.under("gnn_blocks.gatv2_layer", "model.train")
    adamw = idx.under("model.adamw_step", "model.train")
    evals = idx.under("metrics.evaluate", "model.train")
    clones = idx.under("model.clone", "model.train")
    gat_shares, adamw_shares = [], []
    for t in idx.by_name["model.train"]:
        step_time = (idx.dur(t) - sum(idx.dur(i) for i in evals.get(t, []))
                     - sum(idx.dur(i) for i in clones.get(t, [])))
        in_steps = [i for i in gat.get(t, []) if idx.ancestor(i, "metrics.evaluate") == -1]
        gat_shares.append(_ratio(sum(idx.dur(i) for i in in_steps), step_time))
        adamw_shares.append(_ratio(sum(idx.dur(i) for i in adamw.get(t, [])), step_time))
    return _median(gat_shares), _median(adamw_shares)
