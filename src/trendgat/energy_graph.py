"""Dynamic stock-graph generation, in two stages.

First each stock's lag window gets an energy, the sum of its squared
feature entries (``window_energies``, for every window of a split at
once).  Then ``boltzmann_graph`` turns the pairwise energy differences
into edge weights with the Boltzmann kernel exp(-|dE|/(k*tau)),
row-normalized, the lag window size doubling as the system temperature,
and zeroes the entries below the threshold s.  A static same-sector graph
is provided for ablation runs.

Every graph the model reads is a ``CsrGraph``: per node, the sources of
its incoming edges and their weights.  A thresholded row keeps at most
1/s entries, so a snapshot takes O(N / s) memory, and ``boltzmann_graph``
builds it in O(N log N + N / s) without an N x N intermediate, for every
window of a split in one call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import market_data as md
from .errors import ConfigError, DegenerateRowError, NumericError, ShapeError

THRESHOLD_RANGE = (0.25, 0.85)

# boltzmann_graph builds blocks of windows whose candidate pairs take about
# this many bytes.  Each pair's temporaries (indices, weights, masks) take
# several times that, so larger blocks raise the set-up peak: over
# load_panel + build_datasets of a 200 x 300 panel, 64 KiB blocks peak at
# 3.8 panels, 256 KiB at 4.2 and 1 MiB at 5.6
_BLOCK_BYTES = 1 << 16


class ThresholdRangeWarning(UserWarning):
    """Threshold outside the usual search range; permitted but suspicious."""


def _read_only(values, dtype=None) -> np.ndarray:
    """``values`` as an array that is read-only: itself when it already is
    one, else a read-only view (the array it views keeps its flags)."""
    array = np.asarray(values, dtype=dtype)
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class CsrGraph:
    """Sparse graph over R nodes: B graphs of ``n`` nodes each, stacked by
    node offset (R = B * n; B = 1 is one snapshot).

    Row r holds the edges into node r: ``src[indptr[r]:indptr[r + 1]]``
    are their source nodes (indices into all R nodes, ascending) and
    ``weight`` the matching adjacency entries.  Every row holds its
    self-loop, with the thresholded diagonal weight (0.0 when that entry
    fell below the threshold), so no attention row is empty and every node
    is some edge's source; ``edge_structure`` checks it.
    ``np.asarray(graph)`` is the dense R x R matrix, block-diagonal for a
    stack; ``shape`` is its shape.

    The arrays are read-only, so ``structure``, the one ``NeighbourRows``
    (or None) built from them on first use and kept, cannot go stale.
    """

    indptr: np.ndarray   # R + 1 edge offsets, indptr[0] = 0
    src: np.ndarray      # E source nodes
    weight: np.ndarray   # E entries
    n: int               # nodes per graph

    def __post_init__(self):
        for name, dtype in (("indptr", None), ("src", None), ("weight", np.float64)):
            value = getattr(self, name)
            array = _read_only(value, dtype)
            if array is not value:
                object.__setattr__(self, name, array)

    @property
    def rows(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.rows)

    @property
    def dst(self) -> np.ndarray:
        """The row (destination node) of each edge."""
        return np.repeat(np.arange(self.rows), np.diff(self.indptr))

    @cached_property
    def structure(self) -> "NeighbourRows | None":
        """The graph's ``edge_structure``, built and checked on first use."""
        return edge_structure(self)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("CsrGraph: the dense matrix is always a new array")
        dense = np.zeros(self.shape, dtype=np.float64 if dtype is None else dtype)
        dense[self.dst, self.src] = self.weight
        return dense


@dataclass
class GraphSnapshot:
    """One time step's model input: lag-window features plus the graph
    built from them.  ``metrics.evaluate`` also builds one from B
    snapshots: features stacked row-wise to (B * N) x (tau*F) and their
    graphs joined by ``stack``, so row b * N + i is stock i of snapshot b."""

    t: int
    features: np.ndarray   # N x (tau*F), or (B * N) x (tau*F) stacked
    adjacency: CsrGraph    # the sparsified graph, or B of them stacked


def _windows(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, p) for every position p of every window [lo[r], hi[r]), window
    by window and ascending within each."""
    counts = hi - lo
    row = np.repeat(np.arange(lo.size), counts)
    first = counts.cumsum() - counts
    return row, np.arange(row.size) + (lo - first)[row]


@dataclass(frozen=True, eq=False, slots=True)
class NeighbourRows:
    """The index arrays ``autodiff.gat_attention`` reads from a graph in
    which some row has more than one edge.  The forward reads the M such
    rows (index, first edge) and their E' edges row by row (row position
    in 0..M-1, source, row, weight).  The backward reads all E edges in
    stable source order: ``dst_by_src`` their rows, ``src_starts`` each
    node's first place (every node is the source of its self-loop) and
    ``multi_at`` the place of each of the E' edges."""

    rows: np.ndarray        # M
    starts: np.ndarray      # M
    seg: np.ndarray         # E'
    src: np.ndarray         # E'
    dst: np.ndarray         # E'
    weight: np.ndarray      # E'
    dst_by_src: np.ndarray  # E
    src_starts: np.ndarray  # R
    multi_at: np.ndarray    # E'


def edge_structure(graph: CsrGraph) -> NeighbourRows | None:
    """Check ``graph`` and build its ``NeighbourRows``, or None when no row
    has more than one edge: every row is then its self-loop alone.
    ``indptr`` not R + 1 non-decreasing integer offsets from 0 to E, a
    source outside [0, R) or ``weight`` not E long is a ``ShapeError``; a
    row without edges a ``DegenerateRowError``; a row without its
    self-loop a ``ShapeError``."""
    indptr, src, weight, rows = graph.indptr, graph.src, graph.weight, graph.rows
    if (indptr.ndim != 1 or not indptr.size or src.ndim != 1 or weight.shape != src.shape
            or indptr.dtype.kind not in "iu" or src.dtype.kind not in "iu"
            or indptr[0] != 0 or indptr[-1] != src.size):
        raise ShapeError(
            f"CsrGraph: indptr {indptr.shape}, src {src.shape}, weight {weight.shape} "
            f"(want R + 1 integer offsets from 0 to E, E integer sources and E weights)")
    if not rows:
        return None
    counts = np.diff(indptr)
    if counts.min() <= 0:
        row = int(np.argmin(counts))
        if counts[row] < 0:
            raise ShapeError(f"CsrGraph: indptr decreases at row {row}")
        raise DegenerateRowError(f"CsrGraph: row {row} has no edge")
    if src.min() < 0 or src.max() >= rows:
        raise ShapeError(f"CsrGraph: sources span [{src.min()}, {src.max()}], "
                         f"outside [0, {rows})")
    dst = graph.dst
    looped = np.logical_or.reduceat(src == dst, indptr[:-1])
    if not looped.all():
        raise ShapeError(f"CsrGraph: row {int(np.argmin(looped))} has no self-loop")
    multi_rows = np.flatnonzero(counts > 1)
    if not multi_rows.size:
        return None
    multi_counts = counts[multi_rows]
    seg, edges = _windows(indptr[multi_rows], indptr[multi_rows + 1])
    by_src = np.argsort(src, kind="stable")
    place = np.empty_like(by_src)
    place[by_src] = np.arange(by_src.size)
    src_counts = np.bincount(src, minlength=rows)
    return NeighbourRows(rows=multi_rows, starts=multi_counts.cumsum() - multi_counts,
                         seg=seg, src=src[edges], dst=multi_rows[seg], weight=weight[edges],
                         dst_by_src=dst[by_src], src_starts=src_counts.cumsum() - src_counts,
                         multi_at=place[edges])


def window_energies(values: np.ndarray, ts, tau: int) -> np.ndarray:
    """The B x N energies of the windows of ``tau`` days ending at each day
    of ``ts`` (consecutive, checked by ``md.window_ends``) of the N x T x F
    panel ``values``: entry (b, i) is the sum of squares of row i of
    window b of ``md.build_windows``.  Only the days the windows cover are
    squared, once, in C order; each window's row of ``md.window_view`` is
    then one contiguous run of the squares, summed as that row alone would
    be.  A non-finite entry, or a square that overflows, gives a
    non-finite energy, which ``boltzmann_graph`` rejects."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ConfigError(f"window_energies: need an N x T x F panel, got shape {values.shape}")
    ts = md.window_ends(ts, tau, values.shape[1] - 1)
    if not ts.size:
        return np.empty((0, values.shape[0]))
    first = int(ts[0]) - tau + 1
    covered = values[:, first:first + ts.size + tau - 1]
    squares = np.multiply(covered, covered, order="C")
    return md.window_view(squares, ts - first, tau).sum(axis=2)


def boltzmann_graph(energies: np.ndarray, k: float, tau: int, s: float) -> list[CsrGraph]:
    """The thresholded Boltzmann graph of each of B windows, given as their
    B x N energies (``window_energies``): entry (i, j) is
    exp(-|E_i - E_j| / (k * tau)) normalized over j, and is kept when it
    is at least s (positive, for s <= 0); every self-loop is kept too.
    O(N log N + N / s) time and O(N / s) memory per window.

    With the energies sorted and x = E / (k * tau), row i's normalizer
    sum_j exp(-|x_i - x_j|) is Z_i = L_i + R_i - 1, where
    L_i = sum_{j <= i} exp(x_j - x_i) comes from one
    ``np.logaddexp.accumulate`` and R_i mirrors it from the right.  Row
    i's candidates, each kept by the rule above, are the sorted places
    within floor(1 / s) of i (all of them for s <= 1 / N).  They hold every
    kept entry: (1) the own weight 1 / Z_i is the row's largest; (2) the
    computed weight exp(-|e_i - e_j| / (k * tau)) / Z_i is a chain of
    monotone rounded steps, so on each side of i it does not rise with
    distance and the kept entries form a run next to i; (3) a computed row
    summing to 1 + delta has at most floor((1 + delta) / s) entries that
    reach s, its own among them, so for delta < s each run is at most
    floor(1 / s) long.

    Every step runs on whole blocks of windows at once (``_block_graphs``),
    sized so that their candidate pairs take about ``_BLOCK_BYTES``; the
    returned graphs view the block's arrays.

    Energies that are not B x N with N >= 2 stocks, a k that is not
    positive and finite, an s that is not finite or a tau below 1 is a
    ``ConfigError``; a negative energy, or one whose E / (k * tau) is not
    finite, a ``NumericError`` naming the window.  A finite threshold
    outside ``THRESHOLD_RANGE`` warns, once per call.
    """
    energies = np.asarray(energies, dtype=np.float64)
    if energies.ndim != 2 or energies.shape[1] < 2:
        raise ConfigError(f"boltzmann_graph: need B x N energies with N >= 2 stocks, "
                          f"got shape {energies.shape}")
    if not 0 < k < math.inf:
        raise ConfigError(f"boltzmann_graph: k must be positive and finite, got {k}")
    if not math.isfinite(s):
        raise ConfigError(f"boltzmann_graph: s must be finite, got {s}")
    if tau < 1:
        raise ConfigError(f"boltzmann_graph: tau must be >= 1, got {tau}")
    scale = k * tau
    with np.errstate(over="ignore"):     # a NaN fails both comparisons
        valid = ((energies >= 0) & (energies / scale < math.inf)).all(axis=1)
    if not valid.all():
        raise NumericError(f"boltzmann_graph: window {int(np.argmin(valid))} has non-finite "
                           f"or negative energies (a non-finite feature, squares that "
                           f"overflow, or E / (k * tau) that overflows at k * tau = {scale:g})")
    lo, hi = THRESHOLD_RANGE
    if not lo <= s <= hi:
        warnings.warn(f"threshold {s} outside the usual range [{lo}, {hi}]",
                      ThresholdRangeWarning, stacklevel=2)
    b, n = energies.shape
    band = n if s <= 1.0 / n else min(n, int(1.0 / s))
    step = max(1, _BLOCK_BYTES // (8 * n * min(n, 2 * band + 1)))
    graphs: list[CsrGraph] = []
    for start in range(0, b, step):
        graphs += _block_graphs(energies[start:start + step], scale, s, band)
    return graphs


def _block_graphs(energies: np.ndarray, scale: float, s: float, band: int) -> list[CsrGraph]:
    """``boltzmann_graph`` of one block of B windows' checked energies.
    Sorted position i of window b is flat row b * N + i; its candidates
    are the flat columns of its own window within ``band`` places of it,
    and one argsort of (window, dst, src) keys puts the kept edges in CSR
    order for all windows together."""
    b, n = energies.shape
    order = energies.argsort(axis=1, kind="stable")
    e = np.take_along_axis(energies, order, axis=1)
    x = e / scale
    log_left = np.logaddexp.accumulate(x, axis=1) - x
    log_right = np.logaddexp.accumulate(-x[:, ::-1], axis=1)[:, ::-1] + x
    z = np.exp(log_left) + np.exp(log_right) - 1.0
    at = np.arange(n)
    base = np.arange(0, b * n, n)[:, None]
    lo = np.maximum(at - band, 0) + base
    hi = np.minimum(at + band + 1, n) + base
    row, col = _windows(lo.ravel(), hi.ravel())
    e, z = e.ravel(), z.ravel()
    w = np.exp(np.abs(e[row] - e[col]) / -scale) / z[row]
    kept = w >= s if s > 0 else w > 0
    edge = kept | (row == col)
    w *= kept
    row = row[edge]
    order = (order + base).ravel()                   # flat node b * N + stock
    dst, src = order[row], order[col[edge]]
    by_node = (dst * n + src % n).argsort()          # window, row and source ascending
    indptr = np.zeros((b, n + 1), dtype=np.int64)
    np.bincount(dst, minlength=b * n).reshape(b, n).cumsum(axis=1, out=indptr[:, 1:])
    src = src[by_node] % n
    weight = w[edge][by_node]
    for array in (indptr, src, weight):
        array.flags.writeable = False
    ends = indptr[:, -1].cumsum().tolist()
    return [CsrGraph(indptr=indptr[i], src=src[start:end], weight=weight[start:end], n=n)
            for i, (start, end) in enumerate(zip([0] + ends[:-1], ends))]


def stack(graphs) -> CsrGraph:
    """One graph holding ``graphs`` side by side: the nodes of each are
    offset by the node count of those before it, so no edge crosses
    between them.  All must have the same nodes per graph ``n``."""
    graphs = list(graphs)
    if not graphs or any(g.n != graphs[0].n for g in graphs):
        raise ShapeError(f"stack: want one or more graphs of equal n, got "
                         f"n = {[g.n for g in graphs]}")
    indptr, src, nodes, edges = [np.zeros(1, dtype=np.int64)], [], 0, 0
    for g in graphs:
        indptr.append(g.indptr[1:] + edges)
        src.append(g.src + nodes)
        nodes += g.rows
        edges += g.src.size
    return CsrGraph(indptr=np.concatenate(indptr), src=np.concatenate(src),
                    weight=np.concatenate([g.weight for g in graphs]), n=graphs[0].n)


def sector_adjacency(membership: dict[str, str], tickers: list[str]) -> CsrGraph:
    """Row-normalized same-sector graph: each stock links to every member
    of its sector, itself included, with weight 1 / sector size."""
    missing = [t for t in tickers if t not in membership or not membership[t]]
    if missing:
        raise ConfigError(f"sector_adjacency: no sector for ticker(s) {missing}")
    # integer codes: exact string equality, and faster to compare than a numpy string array
    codes: dict[str, int] = {}
    sectors = np.array([codes.setdefault(membership[t], len(codes)) for t in tickers])
    members = np.argsort(sectors, kind="stable")      # by sector, ascending within one
    size = np.bincount(sectors)[sectors]              # each stock's sector size
    first = np.searchsorted(sectors[members], sectors)
    row, pos = _windows(first, first + size)
    return CsrGraph(indptr=np.concatenate(([0], np.cumsum(size))), src=members[pos],
                    weight=1.0 / size[row], n=len(tickers))


def graph_statistics(graphs: list[CsrGraph]) -> dict:
    """Summary of one or more graphs of equal ``n``, such as a split's energy
    graphs: ``windows``, the graph count; ``offdiag_edges_mean``, the mean
    number of edges between two different nodes per graph;
    ``neighbour_window_share``, the share of graphs in which some row has
    such an edge; ``isolated_frac``, the share of rows (over all graphs)
    that hold only their self-loop.  Every row holds its self-loop, so its
    other edges are its edge count less one."""
    off = np.stack([np.diff(graph.indptr) for graph in graphs]) - 1
    return {"windows": len(graphs),
            "offdiag_edges_mean": float(off.sum() / len(graphs)),
            "neighbour_window_share": float((off.max(axis=1) > 0).mean()),
            "isolated_frac": float((off == 0).mean())}


def export_edges(graph: CsrGraph, tickers: list[str], out) -> int:
    """Write the nonzero entries as TSV `src dst weight` lines, row-major,
    `src` naming the row's stock and `dst` the entry's column; returns the
    count.  A self-loop of weight 0.0 is no entry."""
    if not np.isfinite(graph.weight).all():
        raise NumericError("export_edges: adjacency has non-finite entries")
    rows = graph.dst
    nonzero = np.flatnonzero(graph.weight)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("src\tdst\tweight\n")
        for e in nonzero:
            fh.write(f"{tickers[rows[e]]}\t{tickers[graph.src[e]]}\t{graph.weight[e]:.17g}\n")
    return int(nonzero.size)


def export_dense(graph: CsrGraph, tickers: list[str], out) -> None:
    """Dense adjacency dump as CSV with a ticker header row and column."""
    adjacency = np.asarray(graph, dtype=np.float64)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("," + ",".join(tickers) + "\n")
        for ticker, row in zip(tickers, adjacency):
            fh.write(ticker + "," + ",".join(f"{w:.17g}" for w in row) + "\n")


def snapshot(t: int, features: np.ndarray, k: float, tau: int, threshold: float) -> GraphSnapshot:
    """Bundle one N x (tau*F) window's features with its thresholded energy
    graph: the window is a one-day panel of tau*F channels, whose one
    window has the same energies."""
    features = np.asarray(features, dtype=np.float64)
    energies = window_energies(np.expand_dims(features, 1), [0], 1)
    return GraphSnapshot(t, features, boltzmann_graph(energies, k, tau, threshold)[0])
