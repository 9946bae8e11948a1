"""Dense references for ``energy_graph.boltzmann_graph``: the Boltzmann
adjacency as an N x N matrix and the entrywise threshold.  They skip the
input checks, which the builder owns."""

import numpy as np


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
