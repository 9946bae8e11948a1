"""Test references and builders.  ``boltzmann_adjacency`` and ``sparsify``
are dense references for ``energy_graph.boltzmann_graph``: the Boltzmann
adjacency as an N x N matrix and the entrywise threshold.  They skip the
input checks, which the builder owns.  ``from_dense`` turns a dense matrix
into a ``CsrGraph`` and ``init_block`` builds a standalone block."""

import numpy as np

from trendgat import autodiff as ad
from trendgat import gnn_blocks as gb
from trendgat.energy_graph import CsrGraph
from trendgat.errors import ShapeError


def boltzmann_adjacency(features, k, tau):
    """Row-stochastic similarity matrix from pairwise energy differences.

    Entry (i, j) is exp(-|E_i - E_j|/(k*tau)) normalized over j.  The
    exponent is shifted by the row maximum before exponentiation; the
    shift is zero here (the self term always attains it) but keeps the
    evaluation explicitly underflow-safe for extreme energies.
    """
    features = np.asarray(features, dtype=np.float64)
    energies = (features * features).sum(axis=1)
    gaps = np.abs(energies[:, None] - energies[None, :])
    logits = -gaps / (k * tau)
    logits -= logits.max(axis=1, keepdims=True)
    with np.errstate(under="ignore"):
        kernel = np.exp(logits)
    return kernel / kernel.sum(axis=1, keepdims=True)


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
    values = (ad.Value(gb.initial_value(seed, *entry))
              for entry in gb.block_layout(d, h, name, parallel))
    return gb.assemble_block(values, h, parallel)
