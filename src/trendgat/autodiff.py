"""Reverse-mode differentiation over dense 2-D float64 matrices.

Every tracked quantity is a :class:`Value` wrapping a ``(rows, cols)``
ndarray.  Operations executed while a :class:`Tape` is active record a
backward closure on it; ``Tape.backward`` sweeps the closures in reverse
recording order, which is a valid reverse topological order because
operands always exist before their result.  Accumulation order is fixed,
so two backward passes over identical recordings produce bit-identical
gradients.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import LabelError, ShapeError, TapeError

if TYPE_CHECKING:
    from .energy_graph import CsrGraph

_ACTIVE_TAPES: list["Tape"] = []

# multi_head_attention exponentiates its scores without a row-max shift
# while every |score| is at most this.  e^±300 is a normal float64, so a
# row sum overflows only past 9e177 columns, and the backward's
# e * (g_hat v^T) products stay finite; scores past it take the row-max
# shift instead.
SCORE_LIMIT = 300.0


class Value:
    """A dense matrix with a lazily allocated same-shape gradient buffer."""

    __slots__ = ("data", "_grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"Value requires a 2-D matrix, got shape {arr.shape}")
        self.data = arr
        self._grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad.fill(0.0)

    def _acc(self, g: np.ndarray) -> None:
        # the first touch stores a copy of g, so dead branches stay cheap and
        # a live one skips the zero fill
        if self._grad is None:
            self._grad = np.array(g, dtype=np.float64)
        else:
            self._grad += g

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() requires a 1x1 Value, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Value(shape={self.data.shape}, requires_grad={self.requires_grad})"


def const(data) -> Value:
    """Leaf Value that never receives a gradient (inputs, masks)."""
    return Value(data, requires_grad=False)


class Tape:
    """Ordered record of primitive applications for one backward sweep."""

    def __init__(self):
        self._ops: list = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TAPES.pop()

    def _record(self, backward_fn) -> None:
        self._ops.append(backward_fn)

    def __len__(self) -> int:
        return len(self._ops)

    def backward(self, loss: Value) -> None:
        """Accumulate d(loss)/dv into every recorded Value's grad."""
        if loss.data.shape != (1, 1):
            raise TapeError(f"backward requires a 1x1 scalar loss, got {loss.data.shape}")
        if self._spent:
            raise TapeError("backward already ran on this tape; record a new tape")
        loss._acc(np.ones((1, 1)))
        for fn in reversed(self._ops):
            fn()
        self._spent = True


def _tape() -> Tape | None:
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


def _make(data: np.ndarray, *parents: Value) -> tuple[Value, Tape | None]:
    out = Value(data, requires_grad=any(p.requires_grad for p in parents))
    t = _tape()
    if t is None or not out.requires_grad:
        return out, None
    return out, t


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Value, b: Value) -> Value:
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    out, t = _make(a.data @ b.data, a, b)
    if t is not None:
        def bwd():
            g = out.grad
            if a.requires_grad:
                a._acc(g @ b.data.T)
            if b.requires_grad:
                b._acc(a.data.T @ g)
        t._record(bwd)
    return out


def add(a: Value, b: Value) -> Value:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes differ, {a.data.shape} vs {b.data.shape}")
    out, t = _make(a.data + b.data, a, b)
    if t is not None:
        def bwd():
            g = out.grad
            if a.requires_grad:
                a._acc(g)
            if b.requires_grad:
                b._acc(g)
        t._record(bwd)
    return out


def mul(a: Value, b: Value) -> Value:
    """Elementwise product of two same-shape matrices."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes differ, {a.data.shape} vs {b.data.shape}")
    out, t = _make(a.data * b.data, a, b)
    if t is not None:
        def bwd():
            g = out.grad
            if a.requires_grad:
                a._acc(g * b.data)
            if b.requires_grad:
                b._acc(g * a.data)
        t._record(bwd)
    return out


def concat_cols(*vs: Value) -> Value:
    if len(vs) < 2:
        raise ShapeError("concat_cols: needs at least two operands")
    rows = vs[0].data.shape[0]
    for v in vs:
        if v.data.shape[0] != rows:
            raise ShapeError(
                f"concat_cols: row counts differ, {vs[0].data.shape} vs {v.data.shape}")
    out, t = _make(np.concatenate([v.data for v in vs], axis=1), *vs)
    if t is not None:
        widths = [v.data.shape[1] for v in vs]
        def bwd():
            g = out.grad
            lo = 0
            for v, w in zip(vs, widths):
                if v.requires_grad:
                    v._acc(g[:, lo:lo + w])
                lo += w
        t._record(bwd)
    return out


def gat_attention(left: Value, right: Value, attn: Value, edge_bias: Value,
                  graph: CsrGraph, slope: float) -> Value:
    """GATv2 attention evaluated on the edges of a CSR graph only.

    ``left`` and ``right`` have one row per node of ``graph`` (R rows, B
    stacked graphs of N nodes being one graph of R = B * N nodes).  Row r
    of the result is sum_e a_e * right[src[e]] over row r's edges, where a
    is the softmax over them of attn . leaky_relu(left[r] + right[src[e]])
    + edge_bias * weight[e].

    A softmax over one position is 1, so a row with a single edge is
    ``right`` at its source, and its gradient reaches ``right`` alone.
    The logits, softmax and weighted sums run only over the E' edges of
    rows with more than one edge, each row's edges contiguous so that
    every per-row reduction is one ``reduceat``: time and memory are
    O(R * d + E' * d).  The index arrays come from ``graph.structure``,
    built once per graph, which also checks the graph (see
    ``energy_graph.edge_structure``); the backward into ``right`` also
    reads ``graph.by_source``, likewise built once, on first need.
    """
    rows, d = left.data.shape
    if right.data.shape != (rows, d) or attn.data.shape != (d, 1) or edge_bias.data.shape != (1, 1):
        raise ShapeError(
            f"gat_attention: left {left.data.shape}, right {right.data.shape}, "
            f"attn {attn.data.shape}, edge_bias {edge_bias.data.shape} "
            f"(want R x d, R x d, d x 1, 1 x 1)")
    if graph.rows != rows:
        raise ShapeError(f"gat_attention: indptr {graph.indptr.shape} for {rows} node rows "
                         f"(want R + 1 offsets)")
    s = graph.structure
    m = s.multi
    slope = float(slope)

    result = right.data[s.first_src]                                # R x d
    if m is not None:
        nbr = right.data[m.src]                                     # E' x d
        pre = left.data[m.dst] + nbr
        pos = pre > 0
        act = np.where(pos, pre, slope * pre)
        # row-wise, so that an edge's logit does not depend on its offset
        logits = (act * attn.data[:, 0]).sum(axis=1) + m.weight * edge_bias.data[0, 0]
        e = np.exp(logits - np.maximum.reduceat(logits, m.starts)[m.seg])
        alpha = e / np.add.reduceat(e, m.starts)[m.seg]             # E'
        result[m.rows] = np.add.reduceat(alpha[:, None] * nbr, m.starts, axis=0)
    out, t = _make(result, left, right, attn, edge_bias)
    if t is not None:
        def bwd():
            g_out = out.grad
            if right.requires_grad:
                o = graph.by_source
                g_edges = g_out[o.dst_by_src]                       # E x d, by source
            if m is not None:
                g = g_out[m.dst]                                    # E' x d
                g_alpha = (g * nbr).sum(axis=1)
                g_logit = alpha * (g_alpha - np.add.reduceat(alpha * g_alpha, m.starts)[m.seg])
                if attn.requires_grad:
                    attn._acc(act.T @ g_logit[:, None])
                if edge_bias.requires_grad:
                    edge_bias._acc(np.array([[g_logit @ m.weight]]))
                g_pre = g_logit[:, None] * attn.data[:, 0] * np.where(pos, 1.0, slope)
                if left.requires_grad:
                    g_left = np.zeros_like(left.data)
                    g_left[m.rows] = np.add.reduceat(g_pre, m.starts, axis=0)
                    left._acc(g_left)
                if right.requires_grad:
                    g_edges[o.multi_at] = alpha[:, None] * g + g_pre
            if right.requires_grad:
                # one sum per source over all its edges; a node that is no
                # edge's source keeps a zero row
                g_right = np.zeros_like(right.data)
                g_right[o.src_nodes] = np.add.reduceat(g_edges, o.src_starts, axis=0)
                right._acc(g_right)
        t._record(bwd)
    return out


def multi_head_attention(m: Value, heads, w_merge: Value, groups: int = 1) -> Value:
    """Scaled dot-product attention over the rows of ``m``, all heads at once.

    ``heads`` holds one (w_q, w_k, w_v) triple per head, each d_in x d_head.
    Head h returns softmax(Q_h K_h^T / sqrt(d_head)) V_h with Q_h = m w_q and
    so on; the heads are concatenated column-wise and multiplied by
    ``w_merge`` ((H * d_head) x d_out).  The rows of ``m`` form ``groups``
    equal consecutive blocks of N rows (B stacked graphs), and a row attends
    only to the rows of its own block.  The projections are one GEMM, the
    groups x H x N x N scores and the weighted sums one batched matmul each.

    The softmax stays unnormalised: the scores are exponentiated in place,
    shifted by their row max only if some |score| exceeds ``SCORE_LIMIT``,
    and each row's sum divides the N x d_head weighted sum, not the N x N
    weights.  The backward reuses those weights and row sums, so time and
    memory are O(groups * H * N^2) with one N x N buffer kept per call.
    """
    rows, d_in = m.data.shape
    if not heads or any(len(triple) != 3 for triple in heads):
        raise ShapeError(f"multi_head_attention: want one (w_q, w_k, w_v) per head, "
                         f"got {[len(triple) for triple in heads]} matrices per head")
    if groups < 1 or rows % groups != 0:
        raise ShapeError(f"multi_head_attention: {rows} input rows do not split into "
                         f"{groups} equal groups")
    weights = [w for triple in heads for w in triple]               # q0, k0, v0, q1, ...
    d_head = weights[0].data.shape[1]
    n_heads = len(heads)
    shapes = [w.data.shape for w in weights]
    if any(shape != (d_in, d_head) for shape in shapes) or w_merge.data.shape[0] != n_heads * d_head:
        raise ShapeError(
            f"multi_head_attention: input {m.data.shape}, head projections {shapes}, "
            f"merge {w_merge.data.shape} (want {d_in} x d_head each and "
            f"{n_heads} * d_head merge rows)")
    n = rows // groups
    scale = 1.0 / np.sqrt(d_head)

    w_all = np.concatenate([w.data for w in weights], axis=1)      # d_in x 3H*d_head
    q, k, v = (m.data @ w_all).reshape(groups, n, n_heads, 3, d_head).transpose(3, 0, 2, 1, 4)
    q_scaled = q * scale                                            # scale N x d, not N x N
    e = q_scaled @ k.swapaxes(-1, -2)                               # groups x H x N x N
    if e.max() > SCORE_LIMIT or e.min() < -SCORE_LIMIT:
        e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)                                                # unnormalised weights
    norm = e.sum(axis=-1, keepdims=True)
    o = e @ v
    o /= norm
    merged = o.transpose(0, 2, 1, 3).reshape(rows, n_heads * d_head)
    out, t = _make(merged @ w_merge.data, m, *weights, w_merge)
    if t is not None:
        def bwd():
            g = out.grad
            if w_merge.requires_grad:
                w_merge._acc(merged.T @ g)
            g_o = (g @ w_merge.data.T).reshape(groups, n, n_heads, d_head).transpose(0, 2, 1, 3)
            # p = e / norm row by row, so dividing the N x d_head g_o by norm
            # stands in for every division by it of an N x N product
            g_hat = g_o / norm
            # the q, k and v gradients land in one buffer laid out as m @ w_all
            g_qkv = np.empty((groups, n, n_heads, 3, d_head))
            g_q, g_k, g_v = g_qkv.transpose(3, 0, 2, 1, 4)               # groups x H x N x d_head
            np.matmul(e.swapaxes(-1, -2), g_hat, out=g_v)
            # softmax JVP in place: row i of sum_j p_ij * g_p_ij is g_o_i . o_i,
            # so g_hat_i . o_i here, one batched 1 x d by d x 1 product per row
            # instead of an N x N one
            g_s = g_hat @ v.swapaxes(-1, -2)
            g_s -= (g_hat[..., None, :] @ o[..., None])[..., 0]
            g_s *= e
            np.matmul(g_s, k, out=g_q)
            g_q *= scale
            np.matmul(g_s.swapaxes(-1, -2), q_scaled, out=g_k)
            g_qkv = g_qkv.reshape(rows, -1)
            if any(w.requires_grad for w in weights):
                g_w = m.data.T @ g_qkv
                for i, w in enumerate(weights):
                    if w.requires_grad:
                        w._acc(g_w[:, i * d_head:(i + 1) * d_head])
            if m.requires_grad:
                m._acc(g_qkv @ w_all.T)
        t._record(bwd)
    return out


def prelu(a: Value, slopes: Value) -> Value:
    """Leaky rectifier with one learned slope per column; slopes is 1 x cols."""
    if slopes.data.shape != (1, a.data.shape[1]):
        raise ShapeError(
            f"prelu: slopes {slopes.data.shape} vs input {a.data.shape} (want 1x{a.data.shape[1]})")
    pos = a.data > 0
    out, t = _make(np.where(pos, a.data, a.data * slopes.data), a, slopes)
    if t is not None:
        def bwd():
            g = out.grad
            if a.requires_grad:
                a._acc(np.where(pos, 1.0, slopes.data) * g)
            if slopes.requires_grad:
                slopes._acc(np.where(pos, 0.0, a.data * g).sum(axis=0, keepdims=True))
        t._record(bwd)
    return out


def reduce_sum(a: Value) -> Value:
    out, t = _make(np.array([[a.data.sum()]]), a)
    if t is not None:
        def bwd():
            a._acc(np.full_like(a.data, out.grad[0, 0]))
        t._record(bwd)
    return out


def cross_entropy_with_logits(logits: Value, targets: np.ndarray, alpha: int) -> Value:
    """Softmax cross-entropy of each alpha-wide column block of ``logits``
    against one-hot ``targets``, summed over the blocks and averaged over
    the rows into a 1x1 scalar.

    Targets of another shape, a width that is not a multiple of ``alpha``
    or a target block that is not one-hot is a ``LabelError``.  Each
    block's cross-entropies are summed over the rows, the block totals are
    added in block order and the sum is scaled by 1 / rows.  The backward
    reuses the forward's exponentials and row sums.
    """
    targets = np.asarray(targets, dtype=np.float64)
    rows, width = logits.data.shape
    if targets.shape != (rows, width):
        raise LabelError(
            f"cross_entropy_with_logits: targets {targets.shape} vs logits {logits.data.shape}")
    if alpha < 1 or width % alpha:
        raise LabelError(f"cross_entropy_with_logits: width {width} is not a multiple of "
                         f"alpha={alpha}")
    y = targets.reshape(rows, width // alpha, alpha)
    if not (((y == 0.0) | (y == 1.0)).all() and (y.sum(axis=2) == 1.0).all()):
        raise LabelError("cross_entropy_with_logits: each target block must be one-hot")
    x = logits.data.reshape(y.shape)
    m = x.max(axis=2, keepdims=True)
    e = np.exp(x - m)
    norm = e.sum(axis=2, keepdims=True)
    lse = (m + np.log(norm))[..., 0]                                # rows x blocks
    total = 0.0
    for b in range(y.shape[1]):
        total += float((lse[:, b] - (y[:, b] * x[:, b]).sum(axis=1)).sum())
    scale = 1.0 / rows
    out, t = _make(np.array([[total * scale]]), logits)
    if t is not None:
        def bwd():
            logits._acc(((e / norm - y) * (out.grad[0, 0] * scale)).reshape(rows, width))
        t._record(bwd)
    return out

