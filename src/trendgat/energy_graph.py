"""Dynamic stock-graph generation.

Each stock's lag window gets an energy (sum of squared feature entries);
pairwise energy differences are turned into edge weights with the
Boltzmann kernel exp(-|dE|/(k*tau)) and row-normalized, the lag window
size doubling as the system temperature.  Entries below the threshold s
are then zeroed.  A static same-sector graph is provided for ablation
runs.

Every graph the model reads is a ``CsrGraph``: per node, the sources of
its incoming edges and their weights.  A thresholded row keeps at most
1/s entries, so a snapshot takes O(N / s) memory, and ``boltzmann_graph``
builds it in O(N log N) without an N x N intermediate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DegenerateRowError, NumericError, ShapeError

THRESHOLD_RANGE = (0.25, 0.85)

# each row's candidate window is widened by _WINDOW_MARGIN * (1 + max x),
# x = E / (k * tau): far above the rounding of x and of log Z, far below
# any gap that changes which entries reach s
_WINDOW_MARGIN = 1e-9


class ThresholdRangeWarning(UserWarning):
    """Threshold outside the usual search range; permitted but suspicious."""


def _read_only(values, dtype=None) -> np.ndarray:
    """A read-only view of ``values``; the array it views keeps its flags."""
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class CsrGraph:
    """Sparse graph over R nodes: B graphs of ``n`` nodes each, stacked by
    node offset (R = B * n; B = 1 is one snapshot).

    Row r holds the edges into node r: ``src[indptr[r]:indptr[r + 1]]``
    are their source nodes (indices into all R nodes, ascending) and
    ``weight`` the matching adjacency entries.  Every row holds its
    self-loop, with the thresholded diagonal weight (0.0 when that entry
    fell below the threshold), so no attention row is empty.
    ``np.asarray(graph)`` is the dense R x R matrix, block-diagonal for a
    stack; ``shape`` is its shape.

    The arrays are read-only views, so ``structure``, which is built from
    them on first use and kept, cannot go stale.
    """

    indptr: np.ndarray   # R + 1 edge offsets, indptr[0] = 0
    src: np.ndarray      # E source nodes
    weight: np.ndarray   # E entries
    n: int               # nodes per graph

    def __post_init__(self):
        object.__setattr__(self, "indptr", _read_only(self.indptr))
        object.__setattr__(self, "src", _read_only(self.src))
        object.__setattr__(self, "weight", _read_only(self.weight, np.float64))

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
    def structure(self) -> "EdgeStructure":
        """The graph's ``edge_structure``, built on first use."""
        return edge_structure(self)

    @cached_property
    def by_source(self) -> "SourceOrder":
        """The graph's ``source_order``, built on first use: only a backward
        pass into ``right`` of ``autodiff.gat_attention`` reads it."""
        return source_order(self)

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
    """The M rows that have more than one edge, and their E' edges row by
    row: per row its index into all rows and its first edge; per edge its
    row's position in 0..M-1, its index into all E edges, and its source,
    row and weight."""

    rows: np.ndarray      # M
    starts: np.ndarray    # M
    seg: np.ndarray       # E'
    edges: np.ndarray     # E'
    src: np.ndarray       # E'
    dst: np.ndarray       # E'
    weight: np.ndarray    # E'


@dataclass(frozen=True, eq=False, slots=True)
class EdgeStructure:
    """The index arrays ``autodiff.gat_attention``'s forward reads from a
    graph.

    A row with one edge has a softmax over one position, so it needs only
    its source: ``first_src`` holds each row's first.  ``multi`` holds the
    rows with more than one edge, or is None when there are none; then
    ``self_loops_only`` tells whether every row's one edge is its own
    self-loop, which makes the attention the identity on ``right`` (so
    ``gnn_blocks.gatv2_layer`` is the plain projection W_right h).
    """

    first_src: np.ndarray     # R
    multi: NeighbourRows | None
    self_loops_only: bool     # no multi, and first_src[r] == r for every row r


@dataclass(frozen=True, eq=False, slots=True)
class SourceOrder:
    """The graph's E edges in stable source order, in which the backward
    of ``autodiff.gat_attention`` sums the right gradient: ``dst_by_src``
    is their rows, ``src_nodes`` and ``src_starts`` each source node and
    its first place in that order, and ``multi_at`` the place of each edge
    of ``EdgeStructure.multi`` (None when that is None)."""

    dst_by_src: np.ndarray    # E
    src_nodes: np.ndarray     # nodes that are the source of some edge, ascending
    src_starts: np.ndarray    # one per src_nodes
    multi_at: np.ndarray | None   # E'


def edge_structure(graph: CsrGraph) -> EdgeStructure:
    """Check ``graph`` and build its ``EdgeStructure``.  ``indptr`` not
    R + 1 non-decreasing integer offsets from 0 to E, a source outside
    [0, R) or ``weight`` not E long is a ``ShapeError``; a row without
    edges a ``DegenerateRowError``."""
    indptr, src, weight, rows = graph.indptr, graph.src, graph.weight, graph.rows
    if (indptr.ndim != 1 or not indptr.size or src.ndim != 1 or weight.shape != src.shape
            or indptr.dtype.kind not in "iu" or src.dtype.kind not in "iu"
            or indptr[0] != 0 or indptr[-1] != src.size):
        raise ShapeError(
            f"CsrGraph: indptr {indptr.shape}, src {src.shape}, weight {weight.shape} "
            f"(want R + 1 integer offsets from 0 to E, E integer sources and E weights)")
    counts = np.diff(indptr)
    if rows and counts.min() <= 0:
        row = int(np.argmin(counts))
        if counts[row] < 0:
            raise ShapeError(f"CsrGraph: indptr decreases at row {row}")
        raise DegenerateRowError(f"CsrGraph: row {row} has no edge")
    if src.size and (src.min() < 0 or src.max() >= rows):
        raise ShapeError(f"CsrGraph: sources span [{src.min()}, {src.max()}], "
                         f"outside [0, {rows})")
    multi_rows = np.flatnonzero(counts > 1)
    multi = None
    if multi_rows.size:
        multi_counts = counts[multi_rows]
        seg, edges = _windows(indptr[multi_rows], indptr[multi_rows + 1])
        multi = NeighbourRows(rows=multi_rows, starts=multi_counts.cumsum() - multi_counts,
                              seg=seg, edges=edges, src=src[edges], dst=multi_rows[seg],
                              weight=weight[edges])
    first_src = src[indptr[:-1]]
    self_loops_only = multi is None and np.array_equal(first_src, np.arange(rows))
    return EdgeStructure(first_src=first_src, multi=multi, self_loops_only=self_loops_only)


def source_order(graph: CsrGraph) -> SourceOrder:
    """Build ``graph``'s ``SourceOrder``, after ``graph.structure`` has
    checked it."""
    multi = graph.structure.multi
    by_src = np.argsort(graph.src, kind="stable")
    src_counts = np.bincount(graph.src, minlength=graph.rows)
    src_nodes = np.flatnonzero(src_counts)
    multi_at = None
    if multi is not None:
        place = np.empty_like(by_src)
        place[by_src] = np.arange(by_src.size)
        multi_at = place[multi.edges]
    return SourceOrder(dst_by_src=graph.dst[by_src], src_nodes=src_nodes,
                       src_starts=(src_counts.cumsum() - src_counts)[src_nodes],
                       multi_at=multi_at)


def boltzmann_graph(features: np.ndarray, k: float, tau: int, s: float) -> CsrGraph:
    """The thresholded Boltzmann graph of one window: entry (i, j) is
    exp(-|E_i - E_j| / (k * tau)) normalized over j, E being each stock's
    sum of squared features, and is kept when it is at least s (positive,
    for s <= 0); every self-loop is kept too.  O(N log N) time and
    O(N / s) memory.

    With the energies sorted and x = E / (k * tau), row i's normalizer
    sum_j exp(-|x_i - x_j|) is Z_i = L_i + R_i - 1, where
    L_i = sum_{j <= i} exp(x_j - x_i) comes from one
    ``np.logaddexp.accumulate`` and R_i mirrors it from the right.  Entry
    (i, j) reaches s exactly when |x_i - x_j| <= -ln(s * Z_i): a window of
    the sorted energies, found with ``searchsorted`` and widened by a
    rounding margin.  Each candidate's weight is then computed and kept
    by the rule above.

    Fewer than two stocks, a k that is not positive or a tau below 1 is a
    ``ConfigError``; a non-finite feature, or an energy that overflows, a
    ``NumericError``.  A threshold outside ``THRESHOLD_RANGE`` warns.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ConfigError(f"boltzmann_graph: need a 2-D matrix with N >= 2 rows, "
                          f"got {features.shape}")
    if not k > 0:
        raise ConfigError(f"boltzmann_graph: k must be positive, got {k}")
    if tau < 1:
        raise ConfigError(f"boltzmann_graph: tau must be >= 1, got {tau}")
    energies = (features * features).sum(axis=1)
    # squares cannot cancel, so a non-finite feature makes its energy non-finite
    if not np.isfinite(energies).all():
        raise NumericError("boltzmann_graph: features have non-finite entries or energies "
                           "that overflow")
    lo, hi = THRESHOLD_RANGE
    if not lo <= s <= hi:
        warnings.warn(f"threshold {s} outside the usual range [{lo}, {hi}]",
                      ThresholdRangeWarning, stacklevel=2)
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


def from_dense(adjacency: np.ndarray) -> CsrGraph:
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
    """Bundle one window's features with its thresholded energy graph
    (``boltzmann_graph``)."""
    features = np.asarray(features, dtype=np.float64)
    return GraphSnapshot(t, features, boltzmann_graph(features, k, tau, threshold))
