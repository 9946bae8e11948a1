"""Test references and builders.  ``boltzmann_adjacency`` and ``sparsify``
are dense references for ``energy_graph.boltzmann_graph``: the Boltzmann
adjacency as an N x N matrix and the entrywise threshold.
``one_window_graph`` is its bit-exact sparse reference, one window at a
time.  All three take the window's energies, as the builder does
(``energies_of`` gives them for windows that are not days of a panel),
and skip the input checks, which the builder owns.  ``from_dense`` turns
a dense matrix into a ``CsrGraph`` and ``init_block`` builds a standalone
block.  ``rule_directions_by_stock`` is the reference for
``synth.rule_directions``: the planted rule, one stock at a time."""

import numpy as np

from trendgat import autodiff as ad
from trendgat import energy_graph as eg
from trendgat import gnn_blocks as gb
from trendgat import synth
from trendgat.energy_graph import CsrGraph, _windows
from trendgat.errors import ShapeError

# one_window_graph widens each row's candidate window by
# _WINDOW_MARGIN * (1 + max x), x = E / (k * tau): far above the rounding
# of x and of log Z, far below any gap that changes which entries reach s
_WINDOW_MARGIN = 1e-9


def energies_of(windows):
    """``eg.window_energies`` of a B x N x (tau*F) stack of windows, each
    taken as one day of an N x B x (tau*F) panel: B x N energies.  One
    N x (tau*F) window gives its N energies."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim == 2:
        return energies_of(windows[None])[0]
    return eg.window_energies(windows.swapaxes(0, 1), range(len(windows)), 1)


def boltzmann_adjacency(energies, k, tau):
    """Row-stochastic similarity matrix from the pairwise differences of N
    energies.

    Entry (i, j) is exp(-|E_i - E_j|/(k*tau)) normalized over j.  The
    exponent is shifted by the row maximum before exponentiation; the
    shift is zero here (the self term always attains it) but keeps the
    evaluation explicitly underflow-safe for extreme energies.
    """
    energies = np.asarray(energies, dtype=np.float64)
    gaps = np.abs(energies[:, None] - energies[None, :])
    logits = -gaps / (k * tau)
    logits -= logits.max(axis=1, keepdims=True)
    with np.errstate(under="ignore"):
        kernel = np.exp(logits)
    return kernel / kernel.sum(axis=1, keepdims=True)


def one_window_graph(energies, k, tau, s) -> CsrGraph:
    """The thresholded Boltzmann graph of one window's N energies, whose
    candidates come by a route of their own, not ``boltzmann_graph``'s
    band: sort the energies, take each row's normalizer Z from two
    ``logaddexp.accumulate`` passes, ``searchsorted`` each row's candidate
    window |x_i - x_j| <= -ln(s * Z_i) (widened by ``_WINDOW_MARGIN``),
    then keep each candidate that reaches s, and every self-loop.  Each
    weight is computed as the builder computes it, so the two agree bit
    for bit."""
    energies = np.asarray(energies, dtype=np.float64)
    n = energies.size
    scale = k * tau
    order = energies.argsort(kind="stable")
    e = energies[order]
    x = e / scale
    log_left = np.logaddexp.accumulate(x) - x
    log_right = np.logaddexp.accumulate(-x[::-1])[::-1] + x
    z = np.exp(log_left) + np.exp(log_right) - 1.0
    margin = _WINDOW_MARGIN * (1.0 + x[-1])          # energies are >= 0
    reach = margin - np.log(s * z) if s > 0 else np.full(n, np.inf)
    bounds = x.searchsorted(np.concatenate((x - reach, x + reach)))
    # every window holds its own row: one whose own entry misses s keeps
    # only its self-loop
    at = np.arange(n)
    lo, hi = np.minimum(bounds[:n], at), np.maximum(bounds[n:], at + 1)
    if (hi - lo == 1).all():
        # no row has a candidate neighbour, as in most snapshots at the
        # default k and s: the graph is the self-loops, weight 1 / Z_i
        self_weight = 1.0 / z
        weight = np.empty(n)
        weight[order] = self_weight * (self_weight >= s)
        return CsrGraph(indptr=np.arange(n + 1), src=at, weight=weight, n=n)
    row, col = _windows(lo, hi)
    w = np.exp(np.abs(e[row] - e[col]) / -scale) / z[row]
    kept = w >= s if s > 0 else w > 0
    edge = kept | (row == col)
    w *= kept
    dst, src = order[row[edge]], order[col[edge]]
    by_node = (dst * n + src).argsort()              # row-major, sources ascending
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.bincount(dst, minlength=n).cumsum(out=indptr[1:])
    return CsrGraph(indptr=indptr, src=src[by_node], weight=w[edge][by_node], n=n)


def sparsify(adjacency, s):
    """Zero every entry below s, leaving the rest untouched (no renormalization)."""
    out = np.array(adjacency, dtype=np.float64)
    out[out < s] = 0.0
    return out


def from_dense(adjacency) -> CsrGraph:
    """The graph of a square matrix: its positive entries plus every
    self-loop (weight ``adjacency[i, i]``, whatever its sign), row-major."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1] or not adjacency.size:
        raise ShapeError(f"from_dense: want a non-empty square matrix, got {adjacency.shape}")
    mask = adjacency > 0
    np.fill_diagonal(mask, True)
    dst, src = np.nonzero(mask)
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    return CsrGraph(indptr=indptr, src=src, weight=adjacency[dst, src], n=adjacency.shape[0])


def init_block(d: int, h: int, seed: int, name: str = "block0",
               parallel: bool = True) -> gb.BlockParams:
    """A standalone block with fresh initial values."""
    values = (ad.Value(gb.initial_value(seed, *entry, h))
              for entry in gb.block_layout(d, name, parallel))
    return gb.assemble_block(values, h, parallel)


def rule_directions_by_stock(closes, scales, spec: synth.RuleSpec, t: int) -> np.ndarray:
    """``synth.rule_directions`` with each stock's neighbours found on their
    own: sort its |log-energy gaps| to every stock (its own set to inf) by
    gap, then by index, and take the first two places."""
    momentum = (closes[:, t] - closes[:, t - spec.momentum_window]) / scales
    returns = np.diff(closes[:, t - spec.energy_window:t + 1], axis=1)
    energy = np.log((returns ** 2).sum(axis=1))
    n = closes.shape[0]
    scores = np.empty(n)
    for i in range(n):
        gaps = np.abs(energy - energy[i])
        gaps[i] = np.inf
        order = np.lexsort((np.arange(n), gaps))       # stable: ties to lower index
        n1, n2 = int(order[0]), int(order[1])
        scores[i] = (-spec.own_weight * momentum[i]
                     + spec.n1_weight * momentum[n1]
                     + spec.n2_weight * momentum[n2])
    return np.where(scores >= 0.0, 1.0, -1.0)
