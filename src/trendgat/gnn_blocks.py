"""Graph-attention propagation layer and the dual-stream block.

Each block runs two streams side by side: a propagation stream updated by
an attention layer over the sparsified stock graph, and a parallel stream
that concatenates its previous state with the propagated-plus-skip
representation and re-compresses the result to the hidden width through
multi-head attention.  The propagation stream never reads the parallel
stream, so per-depth representations survive later propagation.

The attention layer reads only the graph's edges; every row holds its
self-loop (checked).  A row whose one edge is its self-loop is the plain
projection W_right h_i, and a thresholded row keeps at most 1/s entries,
so for s > 0.5 every row is one.  The softmax runs over the E' edges of
rows that have neighbours: with width d the layer costs O(N * d + E' * d)
time and memory on top of its projections.  A graph of self-loops alone
is h @ W_right itself, one product and one tape op, with no W_left
product.  Each graph's one index structure, or None for self-loops
alone, is built once (``CsrGraph.structure``).
The multi-head attention is dense over the N nodes: one primitive
projects all H heads with the block's one ``w_qkv`` and costs O(H * N^2)
time and memory.

Every function here also takes B snapshots of N nodes at once: node
states stacked row-wise to (B * N) x d and the graphs joined by
``energy_graph.stack``.  Each snapshot attends only within itself, so
one call over the stack gives the rows of B separate calls; inference
uses this to score many snapshots in one pass.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .energy_graph import CsrGraph
from .errors import ConfigError, ShapeError

LEAKY_SLOPE = 0.2          # fixed rectifier slope inside the graph layer
EDGE_BIAS = "edge_bias"    # 1 x 1 scale on a graph layer's edge weights
PRELU_IN = "prelu_in"      # 1 x d slopes of the model's input rectifier
QKV = "w_qkv"              # every head's q, k and v projections of one block
# learnables that start at a constant instead of a Xavier draw
CONSTANT_INIT = {PRELU_IN: 0.25, EDGE_BIAS: 1.0}


@dataclass
class GatLayerParams:
    """Learnables of one graph-attention propagation layer."""

    w_left: ad.Value        # d_in x d_out
    w_right: ad.Value       # d_in x d_out
    attn: ad.Value          # d_out x 1
    edge_bias: ad.Value     # 1 x 1 scale on the graph weights (pre-softmax)


@dataclass
class BlockParams:
    """One dual-stream block; the attention fields are None when the block
    is configured without the parallel stream."""

    gat: GatLayerParams
    w_skip: ad.Value             # d x d
    w_qkv: ad.Value | None       # d_cat x 3 d_cat: head 0's q, k, v columns, then head 1's, ...
    w_merge: ad.Value | None     # d_cat x d
    heads: int                   # attention heads, each d_cat / heads wide


@dataclass
class BlockState:
    h: ad.Value    # propagation stream, N x d
    hp: ad.Value   # parallel stream,    N x d


def xavier(seed: int, name: str, rows: int, cols: int) -> np.ndarray:
    """Uniform draw within +-sqrt(6 / (rows + cols)) from a generator keyed
    by (seed, parameter name), so that parameters shared between model
    variants get identical draws regardless of how many other parameters
    either variant creates.  The key holds the whole of a seed >= 0."""
    digest = hashlib.sha256(name.encode()).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    limit = np.sqrt(6.0 / (rows + cols))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, *words]))
    return rng.uniform(-limit, limit, (rows, cols))


def gatv2_layer(h: ad.Value, adjacency: CsrGraph, params: GatLayerParams) -> ad.Value:
    """Attention over graph neighborhoods.

    For each edge j -> i of ``adjacency`` (a ``CsrGraph``, self-loops
    included) the logit is
    attn . leaky_relu(W_left h_i + W_right h_j) + edge_bias * w_ij, the
    attention row is the softmax over node i's edges, and the output row
    is the attention-weighted sum of W_right h_j.

    ``h`` has one row per graph node, so B snapshots stacked row-wise
    ((B * N) x d) pair with their ``energy_graph.stack``; each snapshot
    then attends only within itself, exactly as if it were run alone.

    Only rows with more than one edge read W_left h.  When no row has
    more than one edge (``structure`` is None: every neighbour-free energy
    graph, or a stack of them), every row is its self-loop and the layer
    is W_right h itself, one tape op with no W_left product.  The graph's
    checks, the self-loop rule among them, run first in every case.
    """
    rows, d_in = h.data.shape
    d_out = params.w_right.data.shape[1]
    shapes = tuple(value.data.shape for value in
                   (params.w_left, params.w_right, params.attn, params.edge_bias))
    if shapes != ((d_in, d_out), (d_in, d_out), (d_out, 1), (1, 1)):
        raise ShapeError(
            f"gatv2_layer: input width {d_in} does not match w_left, w_right, attn, "
            f"edge_bias {shapes} (want {d_in} x d_out, {d_in} x d_out, d_out x 1, 1 x 1)")
    if not isinstance(adjacency, CsrGraph):
        raise ShapeError(f"gatv2_layer: adjacency must be a CsrGraph, got "
                         f"{type(adjacency).__name__} {np.shape(adjacency)}")
    if adjacency.rows != rows or adjacency.n < 1 or rows % adjacency.n:
        raise ShapeError(f"gatv2_layer: adjacency of {adjacency.rows} nodes, {adjacency.n} "
                         f"per graph, for {rows} rows (want {rows} nodes, n dividing them)")
    if adjacency.structure is None:        # checks the graph before any product
        return ad.matmul(h, params.w_right)

    # left before right: the tape order fixes how h.grad accumulates
    left = ad.matmul(h, params.w_left)     # R x d_out
    right = ad.matmul(h, params.w_right)
    return ad.gat_attention(left, right, params.attn, params.edge_bias, adjacency, LEAKY_SLOPE)


def multi_head_attention(m: ad.Value, params: BlockParams, groups: int = 1) -> ad.Value:
    """Scaled dot-product attention over the node dimension through the
    block's ``w_qkv`` and ``w_merge``; the rows of ``m`` are ``groups``
    stacked snapshots, each attending only within itself."""
    if params.w_qkv is None or params.w_merge is None:
        raise ConfigError("multi_head_attention: block has no attention parameters")
    return ad.multi_head_attention(m, params.w_qkv, params.w_merge, params.heads, groups)


def parallel_block(state: BlockState, adjacency: CsrGraph, params: BlockParams) -> BlockState:
    """One dual-stream update.

    Propagation stream: h <- gat(h).  Parallel stream: hp <- attention over
    concat_cols(hp, gat(h) + h @ W_skip).  A stack of B graphs runs B
    row-stacked snapshots at once (see ``gatv2_layer``); the attention then
    takes each block of ``adjacency.n`` rows as its own group.
    """
    d = state.h.data.shape[1]
    propagated = gatv2_layer(state.h, adjacency, params.gat)
    if propagated.data.shape[1] != d:
        raise ShapeError(
            f"parallel_block: propagated width {propagated.data.shape[1]} != {d}")
    skip = ad.matmul(state.h, params.w_skip)
    fused = ad.concat_cols(state.hp, ad.add(propagated, skip))
    groups = adjacency.rows // adjacency.n
    return BlockState(h=propagated, hp=multi_head_attention(fused, params, groups))


def plain_block(state: BlockState, adjacency: CsrGraph, params: BlockParams) -> BlockState:
    """Ablation variant without the parallel stream: both streams collapse
    to gat(h) + h @ W_skip."""
    merged = ad.add(gatv2_layer(state.h, adjacency, params.gat),
                    ad.matmul(state.h, params.w_skip))
    return BlockState(h=merged, hp=merged)


def block_layout(d: int, name: str = "block0",
                 parallel: bool = True) -> Iterator[tuple[str, int, int]]:
    """(name, rows, cols) of one block's learnables, in store order: the
    graph layer's w_left, w_right, attn and edge_bias, then w_skip, then
    (parallel stream only) w_qkv, whose columns any head count splits, and
    the merge.  Lazy, so a caller comparing against it stops at the first
    difference.  ``d`` comes from a checked ``model.ModelConfig``."""
    yield f"{name}.gat.w_left", d, d
    yield f"{name}.gat.w_right", d, d
    yield f"{name}.gat.attn", d, 1
    yield f"{name}.gat.{EDGE_BIAS}", 1, 1
    yield f"{name}.w_skip", d, d
    if not parallel:
        return
    yield f"{name}.{QKV}", 2 * d, 6 * d
    yield f"{name}.w_merge", 2 * d, d


def initial_value(seed: int, name: str, rows: int, cols: int, heads: int) -> np.ndarray:
    """Uniform Xavier draw keyed by (seed, name), except the learnables of
    ``CONSTANT_INIT`` (matched on the last name component) and a block's
    ``w_qkv``: the draws keyed ``<block>.head<h>.w_q``, ``.w_k`` and ``.w_v``
    (rows x d_head each) side by side, head by head."""
    block, _, last = name.rpartition(".")
    constant = CONSTANT_INIT.get(last)
    if constant is not None:
        return np.full((rows, cols), constant)
    if last == QKV:
        return np.concatenate([xavier(seed, f"{block}.head{i}.{proj}", rows, cols // (3 * heads))
                               for i in range(heads) for proj in ("w_q", "w_k", "w_v")], axis=1)
    return xavier(seed, name, rows, cols)


def assemble_block(values: Iterator[ad.Value], h: int, parallel: bool = True) -> BlockParams:
    """One block from the next Values of ``values``, taken in ``block_layout``
    order."""
    gat = GatLayerParams(w_left=next(values), w_right=next(values), attn=next(values),
                         edge_bias=next(values))
    w_skip = next(values)
    w_qkv, w_merge = (next(values), next(values)) if parallel else (None, None)
    return BlockParams(gat=gat, w_skip=w_skip, w_qkv=w_qkv, w_merge=w_merge, heads=h)

