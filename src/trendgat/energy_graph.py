"""Dynamic stock-graph generation.

Each stock's lag window gets an energy (sum of squared feature entries);
pairwise energy differences are turned into edge weights with the
Boltzmann kernel exp(-|dE|/(k*tau)) and row-normalized, the lag window
size doubling as the system temperature.  Entries below the threshold s
are then zeroed.  A static same-sector graph is provided for ablation
runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

THRESHOLD_RANGE = (0.25, 0.85)


class ThresholdRangeWarning(UserWarning):
    """Threshold outside the usual search range; permitted but suspicious."""


@dataclass
class GraphSnapshot:
    """One time step's model input: lag-window features plus the adjacency
    built from them.  ``metrics.evaluate`` also builds one from B snapshots
    stacked row-wise: features (B * N) x (tau*F) and adjacency (B * N) x N,
    row b * N + i holding row i of snapshot b."""

    t: int
    features: np.ndarray   # N x (tau*F), or (B * N) x (tau*F) stacked
    adjacency: np.ndarray  # N x N sparsified, or (B * N) x N stacked
    k: float
    tau: int
    threshold: float


def boltzmann_adjacency(features: np.ndarray, k: float, tau: int) -> np.ndarray:
    """Row-stochastic similarity matrix from pairwise energy differences.

    Entry (i, j) is exp(-|E_i - E_j|/(k*tau)) normalized over j.  The
    exponent is shifted by the row maximum before exponentiation; the
    shift is zero here (the self term always attains it) but keeps the
    evaluation explicitly underflow-safe for extreme energies.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ConfigError(f"boltzmann_adjacency: need a 2-D matrix with N >= 2 rows, got {features.shape}")
    if k <= 0:
        raise ConfigError(f"boltzmann_adjacency: k must be positive, got {k}")
    if tau < 1:
        raise ConfigError(f"boltzmann_adjacency: tau must be >= 1, got {tau}")
    if not np.isfinite(features).all():
        raise NumericError("boltzmann_adjacency: features have non-finite entries")

    energies = (features * features).sum(axis=1)
    gaps = np.abs(energies[:, None] - energies[None, :])
    logits = -gaps / (k * tau)
    logits -= logits.max(axis=1, keepdims=True)
    with np.errstate(under="ignore"):
        kernel = np.exp(logits)
    return kernel / kernel.sum(axis=1, keepdims=True)


def sparsify(adjacency: np.ndarray, s: float) -> np.ndarray:
    """Zero every entry below s, leaving the rest untouched (no renormalization)."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    lo, hi = THRESHOLD_RANGE
    if not lo <= s <= hi:
        warnings.warn(
            f"threshold {s} outside the usual range [{lo}, {hi}]", ThresholdRangeWarning,
            stacklevel=2)
    out = adjacency.copy()
    out[out < s] = 0.0
    return out


def edge_list(adjacency: np.ndarray) -> list[tuple[int, int, float]]:
    """Nonzero entries as (src, dst, weight) triples in row-major order."""
    adjacency = np.asarray(adjacency)
    src, dst = np.nonzero(adjacency)
    return [(int(i), int(j), float(adjacency[i, j])) for i, j in zip(src, dst)]


def sector_adjacency(membership: dict[str, str], tickers: list[str]) -> np.ndarray:
    """Row-normalized same-sector graph (self-loops included)."""
    missing = [t for t in tickers if t not in membership or not membership[t]]
    if missing:
        raise ConfigError(f"sector_adjacency: no sector for ticker(s) {missing}")
    # integer codes: exact string equality, and faster to compare than a numpy string array
    codes: dict[str, int] = {}
    sectors = np.array([codes.setdefault(membership[t], len(codes)) for t in tickers])
    adj = (sectors[:, None] == sectors[None, :]).astype(np.float64)
    return adj / adj.sum(axis=1, keepdims=True)


def export_edges(adjacency: np.ndarray, tickers: list[str], out) -> int:
    """Write nonzero entries as TSV `src dst weight` lines; returns the count."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if not np.isfinite(adjacency).all():
        raise NumericError("export_edges: adjacency has non-finite entries")
    edges = edge_list(adjacency)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("src\tdst\tweight\n")
        for i, j, w in edges:
            fh.write(f"{tickers[i]}\t{tickers[j]}\t{w:.17g}\n")
    return len(edges)


def export_dense(adjacency: np.ndarray, tickers: list[str], out) -> None:
    """Dense adjacency dump as CSV with a ticker header row and column."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("," + ",".join(tickers) + "\n")
        for ticker, row in zip(tickers, adjacency):
            fh.write(ticker + "," + ",".join(f"{w:.17g}" for w in row) + "\n")


def snapshot(t: int, features: np.ndarray, k: float, tau: int, threshold: float) -> GraphSnapshot:
    """Build the sparsified adjacency for one window and bundle it up."""
    dense = boltzmann_adjacency(features, k, tau)
    return GraphSnapshot(
        t=t,
        features=np.asarray(features, dtype=np.float64),
        adjacency=sparsify(dense, threshold),
        k=k,
        tau=tau,
        threshold=threshold,
    )
