"""Graph-attention propagation layer and the dual-stream block.

Each block runs two streams side by side: a propagation stream updated by
an attention layer over the sparsified stock graph, and a parallel stream
that concatenates its previous state with the propagated-plus-skip
representation and re-compresses the result to the hidden width through
multi-head attention.  The propagation stream never reads the parallel
stream, so per-depth representations survive later propagation.

The attention layer touches only the graph's edges plus the self-loops:
with E of them and width d it costs O(E * d) time and memory, so a
thresholded snapshot (at most 1/s entries per row) costs O(N * d).  The
multi-head attention is dense over the N nodes: one primitive computes
all H heads in batched products and costs O(H * N^2) time and memory.

Every function here also takes B snapshots of N nodes at once, stacked
row-wise: node states (B * N) x d and adjacency (B * N) x N.  Each
snapshot attends only within itself, so one call over the stack gives
the rows of B separate calls; inference uses this to score many
snapshots in one pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError

LEAKY_SLOPE = 0.2          # fixed rectifier slope inside the graph layer
PRELU_INIT = 0.25
EDGE_BIAS_INIT = 1.0


@dataclass
class GatLayerParams:
    """Learnables of one graph-attention propagation layer."""

    w_left: ad.Value        # d_in x d_out
    w_right: ad.Value       # d_in x d_out
    attn: ad.Value          # d_out x 1
    edge_bias: ad.Value     # 1 x 1 scale on the graph weights (pre-softmax)
    leaky_slope: float = LEAKY_SLOPE


@dataclass
class BlockParams:
    """One dual-stream block; the attention fields are None when the block
    is configured without the parallel stream."""

    gat: GatLayerParams
    w_skip: ad.Value                                   # d x d
    heads: list[tuple[ad.Value, ad.Value, ad.Value]] | None   # (w_q, w_k, w_v), each d_cat x d'
    w_merge: ad.Value | None                           # d_cat x d


@dataclass
class BlockState:
    h: ad.Value    # propagation stream, N x d
    hp: ad.Value   # parallel stream,    N x d


def seeded_rng(seed: int, name: str) -> np.random.Generator:
    """Generator keyed by (seed, parameter name) so that parameters shared
    between model variants get identical draws regardless of how many other
    parameters either variant creates."""
    digest = hashlib.sha256(name.encode()).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed & 0xFFFFFFFF, *words]))


def xavier(seed: int, name: str, rows: int, cols: int) -> ad.Value:
    limit = np.sqrt(6.0 / (rows + cols))
    return ad.Value(seeded_rng(seed, name).uniform(-limit, limit, (rows, cols)))


def neighborhood_mask(adjacency: np.ndarray) -> np.ndarray:
    """Positive entries define the neighborhoods; the self-loop is always
    restored so no attention row is empty.  ``adjacency`` is N x N or B
    snapshots stacked row-wise to (B * N) x N, where row r's self-loop
    sits in column r mod N."""
    mask = np.asarray(adjacency) > 0
    n = mask.shape[1]
    mask.reshape(-1, n * n)[:, ::n + 1] = True    # every snapshot's diagonal
    return mask


def gatv2_layer(h: ad.Value, adjacency: np.ndarray, params: GatLayerParams) -> ad.Value:
    """Attention over graph neighborhoods.

    For each pair (i, j) the logit is
    attn . leaky_relu(W_left h_i + W_right h_j) + edge_bias * w_ij, the
    attention row is a masked softmax over N(i) plus the self-loop, and the
    output row is the attention-weighted sum of W_right h_j.

    ``h`` may hold B snapshots of N nodes stacked row-wise ((B * N) x d)
    with ``adjacency`` stacked the same way ((B * N) x N, row b * N + i
    being row i of snapshot b); each snapshot then attends only within
    itself, exactly as if it were run alone.
    """
    rows, d_in = h.data.shape
    if params.w_left.data.shape[0] != d_in or params.w_right.data.shape[0] != d_in:
        raise ShapeError(
            f"gatv2_layer: input width {d_in} does not match projections "
            f"{params.w_left.data.shape} / {params.w_right.data.shape}")
    if (adjacency.ndim != 2 or adjacency.shape[0] != rows or not adjacency.shape[1]
            or rows % adjacency.shape[1]):
        raise ShapeError(f"gatv2_layer: adjacency {adjacency.shape} for {rows} rows "
                         f"(want R x N with N dividing R)")

    left = ad.matmul(h, params.w_left)     # R x d_out
    right = ad.matmul(h, params.w_right)   # R x d_out
    return ad.gat_attention(left, right, params.attn, params.edge_bias, adjacency,
                            neighborhood_mask(adjacency), params.leaky_slope)


def multi_head_attention(m: ad.Value, params: BlockParams, groups: int = 1) -> ad.Value:
    """Scaled dot-product attention over the node dimension, one projection
    triple per head, heads concatenated and merged back to width d.  The
    rows of ``m`` are ``groups`` stacked snapshots, each attending only
    within itself."""
    if params.heads is None or params.w_merge is None:
        raise ConfigError("multi_head_attention: block has no attention parameters")
    d_cat = m.data.shape[1]
    for w_q, _, _ in params.heads:
        if w_q.data.shape[0] != d_cat:
            raise ShapeError(
                f"multi_head_attention: input width {d_cat} vs head projection {w_q.data.shape}")
    return ad.multi_head_attention(m, params.heads, params.w_merge, groups)


def parallel_block(state: BlockState, adjacency: np.ndarray, params: BlockParams,
                   gamma_fn=None) -> BlockState:
    """One dual-stream update.

    Propagation stream: h <- gat(h).  Parallel stream: hp <- attention over
    concat_cols(hp, gat(h) + h @ W_skip).  ``gamma_fn`` replaces the
    attention for probing in tests.  A (B * N) x N ``adjacency`` runs B
    row-stacked snapshots at once (see ``gatv2_layer``).
    """
    rows, d = state.h.data.shape
    propagated = gatv2_layer(state.h, adjacency, params.gat)
    if propagated.data.shape[1] != d:
        raise ShapeError(
            f"parallel_block: propagated width {propagated.data.shape[1]} != {d}")
    skip = ad.matmul(state.h, params.w_skip)
    fused = ad.concat_cols(state.hp, ad.add(propagated, skip))
    groups = rows // adjacency.shape[1]
    gamma = gamma_fn if gamma_fn is not None else lambda m: multi_head_attention(m, params, groups)
    return BlockState(h=propagated, hp=gamma(fused))


def plain_block(state: BlockState, adjacency: np.ndarray, params: BlockParams) -> BlockState:
    """Ablation variant without the parallel stream: both streams collapse
    to gat(h) + h @ W_skip."""
    merged = ad.add(gatv2_layer(state.h, adjacency, params.gat),
                    ad.matmul(state.h, params.w_skip))
    return BlockState(h=merged, hp=merged)


def init_block(d: int, h: int, seed: int, name: str = "block0",
               parallel: bool = True) -> BlockParams:
    """Uniform Xavier initialization from per-parameter seeded generators;
    the edge-bias scale starts at 1."""
    if d < 1:
        raise ConfigError(f"init_block: width must be >= 1, got {d}")
    gat = GatLayerParams(
        w_left=xavier(seed, f"{name}.gat.w_left", d, d),
        w_right=xavier(seed, f"{name}.gat.w_right", d, d),
        attn=xavier(seed, f"{name}.gat.attn", d, 1),
        edge_bias=ad.Value(np.full((1, 1), EDGE_BIAS_INIT)),
    )
    w_skip = xavier(seed, f"{name}.w_skip", d, d)
    if not parallel:
        return BlockParams(gat=gat, w_skip=w_skip, heads=None, w_merge=None)

    d_cat = 2 * d
    if h < 1 or h > d_cat:
        raise ConfigError(f"init_block: heads must be in [1, {d_cat}], got {h}")
    if d_cat % h != 0:
        raise ConfigError(f"init_block: heads {h} must divide the fused width {d_cat}")
    d_head = d_cat // h
    heads = [
        (xavier(seed, f"{name}.head{i}.w_q", d_cat, d_head),
         xavier(seed, f"{name}.head{i}.w_k", d_cat, d_head),
         xavier(seed, f"{name}.head{i}.w_v", d_cat, d_head))
        for i in range(h)
    ]
    w_merge = xavier(seed, f"{name}.w_merge", d_cat, d)
    return BlockParams(gat=gat, w_skip=w_skip, heads=heads, w_merge=w_merge)


def block_parameters(params: BlockParams, name: str = "block0") -> list[tuple[str, ad.Value]]:
    """Stable (name, Value) listing used by the optimizer and checkpoints."""
    out = [
        (f"{name}.gat.w_left", params.gat.w_left),
        (f"{name}.gat.w_right", params.gat.w_right),
        (f"{name}.gat.attn", params.gat.attn),
        (f"{name}.gat.edge_bias", params.gat.edge_bias),
        (f"{name}.w_skip", params.w_skip),
    ]
    if params.heads is not None:
        for i, (w_q, w_k, w_v) in enumerate(params.heads):
            out += [(f"{name}.head{i}.w_q", w_q),
                    (f"{name}.head{i}.w_k", w_k),
                    (f"{name}.head{i}.w_v", w_v)]
        out.append((f"{name}.w_merge", params.w_merge))
    return out
