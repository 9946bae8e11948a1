import tracemalloc

import numpy as np
import pytest

from trendgat import autodiff as ad
from trendgat import energy_graph as eg
from trendgat import gnn_blocks as gb
from trendgat import model as mdl
from trendgat.errors import ConfigError, DegenerateRowError, ShapeError

from gradcheck import grad_check
from oracles import from_dense, init_block


def gat_oracle(h, graph, params):
    """Per-node, per-edge evaluation of the propagation layer formula over
    the graph's stored edges."""
    w_left = params.w_left.data
    w_right = params.w_right.data
    a = params.attn.data[:, 0]
    beta = params.edge_bias.data[0, 0]
    slope = gb.LEAKY_SLOPE
    n = h.shape[0]
    left = h @ w_left
    right = h @ w_right
    out = np.zeros_like(right)
    for i in range(n):
        edges = range(graph.indptr[i], graph.indptr[i + 1])
        logits = []
        for e in edges:
            u = left[i] + right[graph.src[e]]
            act = np.where(u > 0, u, slope * u)
            logits.append(float(act @ a) + beta * graph.weight[e])
        logits = np.array(logits)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        for wj, e in zip(w, edges):
            out[i] += wj * right[graph.src[e]]
    return out


def head_projections(params):
    """(w_q, w_k, w_v) of each head: head h's are the d_head-wide column
    blocks 3h, 3h + 1 and 3h + 2 of w_qkv."""
    blocks = np.split(params.w_qkv.data, 3 * params.heads, axis=1)
    return [blocks[i:i + 3] for i in range(0, len(blocks), 3)]


def mha_scores(m, params):
    """Each head's scores Q K^T / sqrt(d_head), as mha_oracle softmaxes them."""
    return [(m @ w_q) @ (m @ w_k).T / np.sqrt(w_q.shape[1])
            for w_q, w_k, _ in head_projections(params)]


def mha_oracle(m, params):
    """Head-by-head plain numpy evaluation of the fusion attention."""
    outs = []
    for scores, (_, _, w_v) in zip(mha_scores(m, params), head_projections(params)):
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        outs.append(p @ (m @ w_v))
    return np.concatenate(outs, axis=1) @ params.w_merge.data


def random_adjacency(rng, n, density=0.5):
    return from_dense(rng.random((n, n)) * (rng.random((n, n)) < density))


def mixed_graph(rng, n):
    """A graph of n nodes mixing three kinds of row in shuffled order, about
    n / 3 of each: the self-loop alone, the self-loop plus one other node,
    and the self-loop among two or more edges.  Random weights."""
    indptr, src = [0], []
    for i, kind in enumerate(rng.permutation(np.resize([0, 1, 2], n)) if n > 1 else [0]):
        if kind == 0:
            row = [i]
        elif kind == 1:
            row = sorted([i, int(rng.choice(np.delete(np.arange(n), i)))])
        else:
            row = sorted({i, *rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)})
        src += row
        indptr.append(len(src))
    return eg.CsrGraph(indptr=np.array(indptr), src=np.array(src, dtype=np.int64),
                       weight=rng.random(len(src)), n=n)


def layout_values(d, h, seed, name="block0", parallel=True):
    """Fresh (name, Value) pairs of one block, in block_layout order."""
    return [(entry[0], ad.Value(gb.initial_value(seed, *entry, h)))
            for entry in gb.block_layout(d, name, parallel)]


# ---------------------------------------------------------------------------
# gatv2_layer
# ---------------------------------------------------------------------------

def test_isolated_node_with_self_loop_passes_right_projection():
    params = init_block(d=4, h=2, seed=0)
    h = ad.Value(np.random.default_rng(0).standard_normal((3, 4)))
    adj = from_dense(np.zeros((3, 3)))  # fully sparsified: only the self-loops
    out = gb.gatv2_layer(h, adj, params.gat)
    expected = h.data @ params.gat.w_right.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_identical_positions_share_attention_equally():
    params = init_block(d=3, h=2, seed=1)
    row = np.array([0.4, -1.2, 0.7])
    h = ad.Value(np.tile(row, (3, 1)))
    adj = from_dense(np.full((3, 3), 0.5))
    out = gb.gatv2_layer(h, adj, params.gat)
    # all three logits in each row are identical, so each weight is 1/3 and
    # the output equals the shared right-projection
    np.testing.assert_allclose(out.data, np.tile(row @ params.gat.w_right.data, (3, 1)),
                               atol=1e-12)


def test_gat_matches_per_edge_oracle():
    rng = np.random.default_rng(2)
    for seed in range(5):
        params = init_block(d=5, h=2, seed=seed)
        h = ad.Value(rng.standard_normal((4, 5)))
        adj = random_adjacency(rng, 4)
        out = gb.gatv2_layer(h, adj, params.gat)
        np.testing.assert_allclose(out.data, gat_oracle(h.data, adj, params.gat), atol=1e-12)


def test_gat_matches_per_edge_oracle_on_larger_denser_graph():
    rng = np.random.default_rng(15)
    params = init_block(d=8, h=2, seed=17)
    params.gat.edge_bias.data[...] = 1.6
    h = ad.Value(rng.standard_normal((40, 8)))
    adj = random_adjacency(rng, 40, density=0.3)
    out = gb.gatv2_layer(h, adj, params.gat)
    np.testing.assert_allclose(out.data, gat_oracle(h.data, adj, params.gat), atol=1e-12)


def test_gat_forward_backward_memory_scales_with_edges():
    # N=500 with about 2.5k graph edges: a single N^2 x d intermediate
    # would take 32 MB, so the bound leaves no room for pair-sized arrays
    rng = np.random.default_rng(16)
    n, d = 500, 16
    params = init_block(d=d, h=2, seed=18)
    h = ad.Value(rng.standard_normal((n, d)))
    adj = random_adjacency(rng, n, density=0.01)
    cotangent = ad.const(rng.standard_normal((n, d)))
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            out = gb.gatv2_layer(h, adj, params.gat)
            tape.backward(ad.reduce_sum(ad.mul(out, cotangent)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(h.grad).all() and (params.gat.attn.grad != 0).any()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_gat_width_mismatch_is_shape_error():
    params = init_block(d=4, h=2, seed=3)
    with pytest.raises(ShapeError):
        gb.gatv2_layer(ad.Value(np.zeros((3, 5))), from_dense(np.zeros((3, 3))), params.gat)


@pytest.mark.parametrize("name,shape", [("w_left", (4, 5)), ("w_right", (4, 5)),
                                        ("attn", (5, 1)), ("edge_bias", (1, 2))])
def test_gat_parameter_shape_mismatch_on_self_loop_graph_is_shape_error(name, shape):
    # the layer returns the right projection on this graph, after checking every learnable
    params = init_block(d=4, h=2, seed=3).gat
    setattr(params, name, ad.Value(np.zeros(shape)))
    with pytest.raises(ShapeError, match="gatv2_layer: input width 4"):
        gb.gatv2_layer(ad.Value(np.zeros((3, 4))), from_dense(np.zeros((3, 3))), params)


def test_gat_permutation_equivariance():
    rng = np.random.default_rng(4)
    params = init_block(d=4, h=2, seed=5)
    h = rng.standard_normal((6, 4))
    adj = random_adjacency(rng, 6)
    perm = rng.permutation(6)
    p = np.eye(6)[perm]
    base = gb.gatv2_layer(ad.Value(h), adj, params.gat).data
    permuted = gb.gatv2_layer(ad.Value(p @ h), from_dense(p @ np.asarray(adj) @ p.T),
                              params.gat).data
    np.testing.assert_allclose(permuted, p @ base, atol=1e-12)


@pytest.mark.parametrize("n", [3, 7, 12])
def test_gat_on_mixed_single_and_multi_edge_rows_matches_oracle(n):
    rng = np.random.default_rng(34 + n)
    params = init_block(d=4, h=2, seed=35)
    params.gat.edge_bias.data[...] = 0.8
    for _ in range(5):
        graph = mixed_graph(rng, n)
        h = ad.Value(rng.standard_normal((n, 4)))
        out = gb.gatv2_layer(h, graph, params.gat)
        np.testing.assert_allclose(out.data, gat_oracle(h.data, graph, params.gat), atol=1e-12)


@pytest.mark.parametrize("graph", [
    eg.snapshot(0, np.random.default_rng(36).standard_normal((9, 8)), 0.5, 4, 0.7).adjacency,
    eg.stack([from_dense(np.zeros((3, 3)))] * 3),
], ids=["energy_graph_s_0.7", "stacked_zero_weight_self_loops"])
def test_gat_on_self_loop_graph_is_the_right_projection(graph):
    rng = np.random.default_rng(37)
    params = init_block(d=4, h=2, seed=38)
    assert graph.src.size == graph.rows
    h = ad.Value(rng.standard_normal((graph.rows, 4)))
    with ad.Tape() as tape:
        out = gb.gatv2_layer(h, graph, params.gat)
        recorded = len(tape)
        tape.backward(ad.reduce_sum(ad.mul(out, ad.const(rng.standard_normal(out.data.shape)))))
    assert graph.structure is None and recorded == 1
    np.testing.assert_array_equal(out.data, h.data @ params.gat.w_right.data)
    for value in (params.gat.w_left, params.gat.attn, params.gat.edge_bias):
        assert not value.grad.any()
    assert params.gat.w_right.grad.any()


def test_gat_attention_rows_are_convex_combinations():
    # with every value row equal to v, any weights summing to 1 return v
    rng = np.random.default_rng(5)
    params = init_block(d=4, h=2, seed=6)
    h = ad.Value(np.tile(rng.standard_normal(4), (5, 1)))
    adj = random_adjacency(rng, 5)
    out = gb.gatv2_layer(h, adj, params.gat)
    expected_row = h.data[0] @ params.gat.w_right.data
    np.testing.assert_allclose(out.data, np.tile(expected_row, (5, 1)), atol=1e-12)


def _stacked_snapshots(rng, n, densities):
    """Per-snapshot node states and adjacencies, one per density."""
    hs = [rng.standard_normal((n, 4)) for _ in densities]
    adjs = [random_adjacency(rng, n, density) for density in densities]
    return hs, adjs


def test_gat_on_row_stacked_snapshots_matches_separate_calls():
    rng = np.random.default_rng(24)
    params = init_block(d=4, h=2, seed=25)
    hs, adjs = _stacked_snapshots(rng, 6, (0.0, 0.3, 0.9))
    dense = np.asarray(adjs[2])
    dense[4] = 0.0                           # a row left with only its self-loop
    adjs[2] = from_dense(dense)
    out = gb.gatv2_layer(ad.Value(np.concatenate(hs)), eg.stack(adjs), params.gat)
    separate = [gb.gatv2_layer(ad.Value(h), adj, params.gat).data for h, adj in zip(hs, adjs)]
    np.testing.assert_allclose(out.data, np.concatenate(separate), rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data[2 * 6 + 4], hs[2][4] @ params.gat.w_right.data,
                               atol=1e-12)


def test_parallel_block_on_row_stacked_snapshots_matches_separate_calls():
    rng = np.random.default_rng(26)
    params = init_block(d=4, h=2, seed=27)
    hs, adjs = _stacked_snapshots(rng, 5, (0.2, 0.6, 1.0))
    hps = [rng.standard_normal((5, 4)) for _ in hs]
    out = gb.parallel_block(gb.BlockState(h=ad.Value(np.concatenate(hs)),
                                          hp=ad.Value(np.concatenate(hps))),
                            eg.stack(adjs), params)
    separate = [gb.parallel_block(gb.BlockState(h=ad.Value(h), hp=ad.Value(hp)), adj, params)
                for h, hp, adj in zip(hs, hps, adjs)]
    for got, want in ((out.h, [s.h for s in separate]), (out.hp, [s.hp for s in separate])):
        np.testing.assert_allclose(got.data, np.concatenate([v.data for v in want]),
                                   rtol=0, atol=1e-12)


def _graph(rows, n):
    """A CsrGraph of ``rows`` nodes, ``n`` per graph, each row's one edge
    from node 0."""
    return eg.CsrGraph(indptr=np.arange(rows + 1), src=np.zeros(rows, dtype=np.int64),
                       weight=np.zeros(rows), n=n)


@pytest.mark.parametrize("h_rows,graph", [(6, _graph(4, 4)), (7, _graph(7, 3)), (6, _graph(6, 0))],
                         ids=["rows_differ", "rows_not_multiple_of_width", "empty_width"])
def test_gat_stacked_adjacency_shape_mismatch_is_shape_error(h_rows, graph):
    params = init_block(d=4, h=2, seed=28)
    with pytest.raises(ShapeError, match="gatv2_layer: adjacency"):
        gb.gatv2_layer(ad.Value(np.zeros((h_rows, 4))), graph, params.gat)


# well-formed graphs over 3 nodes: rows of 1, 2 and 1 edges, and self-loops alone
MIXED_ROWS = {"indptr": [0, 1, 3, 4], "src": [0, 0, 1, 2], "weight": [0.5, 0.2, 0.7, 1.0]}
SELF_LOOPS = {"indptr": [0, 1, 2, 3], "src": [0, 1, 2], "weight": [0.5, 0.0, 1.0]}


def _csr(base, **edges):
    """A CsrGraph of 3 nodes from ``base`` with the given arrays replaced."""
    arrays = {**base, **edges}
    return eg.CsrGraph(**{key: np.array(values) for key, values in arrays.items()}, n=3)


def _attention_on(base=MIXED_ROWS, **edges):
    """gat_attention over 3 nodes on ``_csr(base, **edges)``."""
    v = lambda r, c: ad.Value(np.ones((r, c)))
    graph = _csr(base, **edges)
    return lambda: ad.gat_attention(v(3, 2), v(3, 2), v(2, 1), v(1, 1), graph, 0.2)


def _layer_on(adjacency):
    """gatv2_layer over 3 node rows."""
    return lambda: gb.gatv2_layer(ad.Value(np.ones((3, 2))), adjacency,
                                  init_block(d=2, h=2, seed=32).gat)


@pytest.mark.parametrize("call,error,match", [
    (_attention_on(), None, None),
    (_attention_on(indptr=[0, 1, 4]), ShapeError, "gat_attention: indptr"),
    (_attention_on(indptr=[0, 3, 1, 4]), ShapeError, "indptr decreases at row 1"),
    (_attention_on(indptr=[0, 1, 3, 3]), ShapeError, "CsrGraph: indptr"),
    (_attention_on(indptr=[1, 1, 3, 4]), ShapeError, "CsrGraph: indptr"),
    (_attention_on(src=[0, -1, 1, 2]), ShapeError, r"outside \[0, 3\)"),
    (_attention_on(src=[0, 0, 3, 2]), ShapeError, r"outside \[0, 3\)"),
    (_attention_on(src=[0.0, 0.0, 1.0, 2.0]), ShapeError, "CsrGraph: indptr"),
    (_attention_on(weight=[0.5, 0.2, 0.7]), ShapeError, "CsrGraph: indptr"),
    (_attention_on(indptr=[0, 1, 1, 4], src=[0, 0, 1, 2]), DegenerateRowError, "row 1"),
    (_layer_on(np.eye(3)), ShapeError, "must be a CsrGraph"),
    (_layer_on(from_dense(np.eye(4))), ShapeError, "gatv2_layer: adjacency of 4 nodes"),
    # a neighbour-free graph makes the layer a plain projection, after the same checks
    (_layer_on(_csr(SELF_LOOPS)), None, None),
    (_attention_on(SELF_LOOPS, src=[0, 1, 3]), ShapeError, r"outside \[0, 3\)"),
    (_layer_on(_csr(SELF_LOOPS, src=[0, 1, 3])), ShapeError, r"outside \[0, 3\)"),
    (_attention_on(SELF_LOOPS, indptr=[0, 1, 2, 4]), ShapeError, "CsrGraph: indptr"),
    (_layer_on(_csr(SELF_LOOPS, indptr=[0, 1, 2, 4])), ShapeError, "CsrGraph: indptr"),
    (_attention_on(SELF_LOOPS, weight=[0.5, 1.0]), ShapeError, "CsrGraph: indptr"),
    (_layer_on(_csr(SELF_LOOPS, weight=[0.5, 1.0])), ShapeError, "CsrGraph: indptr"),
    (_attention_on(SELF_LOOPS, indptr=[0, 1, 1, 2], src=[0, 2], weight=[0.5, 1.0]),
     DegenerateRowError, "row 1"),
    (_layer_on(_csr(SELF_LOOPS, indptr=[0, 1, 1, 2], src=[0, 2], weight=[0.5, 1.0])),
     DegenerateRowError, "row 1"),
    # every row must hold its self-loop, a row with neighbours or one edge alike
    (_attention_on(src=[0, 0, 2, 2]), ShapeError, "CsrGraph: row 1 has no self-loop"),
    (_layer_on(_csr(MIXED_ROWS, src=[0, 0, 2, 2])), ShapeError,
     "CsrGraph: row 1 has no self-loop"),
    (_attention_on(SELF_LOOPS, src=[0, 2, 1]), ShapeError, "CsrGraph: row 1 has no self-loop"),
    (_layer_on(_csr(SELF_LOOPS, src=[0, 2, 1])), ShapeError,
     "CsrGraph: row 1 has no self-loop"),
], ids=["well_formed", "indptr_length", "indptr_decreasing", "indptr_not_ending_at_edges",
        "indptr_not_starting_at_zero", "source_negative", "source_past_last_row",
        "source_not_integer", "weight_length", "row_without_edge", "layer_dense_matrix",
        "layer_row_count", "layer_self_loops_well_formed", "self_loops_source_past_last_row",
        "layer_self_loops_source_past_last_row", "self_loops_indptr_not_ending_at_edges",
        "layer_self_loops_indptr_not_ending_at_edges", "self_loops_weight_length",
        "layer_self_loops_weight_length", "self_loops_row_without_edge",
        "layer_self_loops_row_without_edge", "row_without_self_loop",
        "layer_row_without_self_loop", "one_edge_row_without_self_loop",
        "layer_one_edge_row_without_self_loop"])
def test_malformed_graph_is_a_documented_error(call, error, match):
    if error is None:
        assert call().data.shape == (3, 2)
        return
    with pytest.raises(error, match=match):
        call()


# ---------------------------------------------------------------------------
# multi_head_attention
# ---------------------------------------------------------------------------

def test_single_row_attention_is_value_projection():
    params = init_block(d=3, h=2, seed=7)
    m = ad.Value(np.random.default_rng(6).standard_normal((1, 6)))
    out = gb.multi_head_attention(m, params)
    heads = [m.data @ w_v for _, _, w_v in head_projections(params)]
    np.testing.assert_allclose(out.data, np.concatenate(heads, axis=1) @ params.w_merge.data,
                               atol=1e-12)


@pytest.mark.parametrize("n,d,h", [(5, 4, 2), (3, 8, 4), (7, 6, 3)])
def test_attention_output_shape(n, d, h):
    params = init_block(d=d, h=h, seed=8)
    m = ad.Value(np.random.default_rng(7).standard_normal((n, 2 * d)))
    out = gb.multi_head_attention(m, params)
    assert out.data.shape == (n, d)


def test_attention_matches_per_head_oracle():
    rng = np.random.default_rng(8)
    params = init_block(d=4, h=2, seed=9)
    m = rng.standard_normal((5, 8))
    out = gb.multi_head_attention(ad.Value(m), params)
    np.testing.assert_allclose(out.data, mha_oracle(m, params), atol=1e-12)


def peak_score(m, params):
    return max(np.abs(scores).max() for scores in mha_scores(m, params))


def scaled_to_peak(m, params, fraction):
    """``m`` scaled so that its largest |score| is ``fraction`` of SCORE_LIMIT
    (the scores are quadratic in m); ``m`` itself when fraction is None."""
    if fraction is None:
        return m
    return m * np.sqrt(fraction * ad.SCORE_LIMIT / peak_score(m, params))


def check_attention_at_scale(ms, params):
    """One forward and backward over the stacked groups ``ms`` with overflow,
    invalid and divide faults raised.  The output must be within 1e-12 of
    mha_oracle relative to its largest entry, and every gradient within 1e-9
    of the other softmax branch's (row-max shift or none), relative to the
    largest gradient entry: with one row the q and k gradients are zero up
    to round-off."""
    rng = np.random.default_rng(len(ms))
    m = ad.Value(np.concatenate(ms))
    cotangent = ad.const(rng.standard_normal((m.data.shape[0], params.w_merge.data.shape[1])))
    operands = [m, params.w_qkv, params.w_merge]

    def forward_backward():
        for v in operands:
            v.zero_grad()
        with np.errstate(over="raise", invalid="raise", divide="raise"), ad.Tape() as tape:
            out = gb.multi_head_attention(m, params, groups=len(ms))
            tape.backward(ad.reduce_sum(ad.mul(out, cotangent)))
        return out.data, [v.grad.copy() for v in operands]

    out, grads = forward_backward()
    want = np.concatenate([mha_oracle(x, params) for x in ms])
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
    shifted = max(peak_score(x, params) for x in ms) > ad.SCORE_LIMIT
    with pytest.MonkeyPatch.context() as mp:
        # both branches stay finite at these scores: e^310 is a normal float64
        mp.setattr(ad, "SCORE_LIMIT", np.inf if shifted else -1.0)
        _, other = forward_backward()
    assert all(np.isfinite(g).all() for g in grads)
    scale = max(np.abs(g).max() for g in other)
    assert max(np.abs(g - h).max() for g, h in zip(grads, other)) <= 1e-9 * scale


@pytest.mark.parametrize("n,fraction", [(60, None), (1, None), (60, 0.97), (60, 1.03),
                                        (1, 0.97), (1, 1.03)],
                         ids=["60", "1", "60-under", "60-over", "1-under", "1-over"])
def test_attention_matches_per_head_oracle_at_width_16(n, fraction):
    # fraction scales the input so that the largest |score| sits just under
    # or just over SCORE_LIMIT, on either side of the row-max shift
    rng = np.random.default_rng(20 + n)
    params = init_block(d=16, h=2, seed=21)
    m = scaled_to_peak(rng.standard_normal((n, 32)), params, fraction)
    if fraction is None:
        out = gb.multi_head_attention(ad.Value(m), params)
        np.testing.assert_allclose(out.data, mha_oracle(m, params), atol=1e-12)
        return
    assert abs(peak_score(m, params) / ad.SCORE_LIMIT - fraction) < 1e-9
    check_attention_at_scale([m], params)


def test_grouped_attention_matches_per_group_oracle():
    rng = np.random.default_rng(29)
    params = init_block(d=4, h=2, seed=30)
    ms = [rng.standard_normal((6, 8)) for _ in range(3)]
    out = gb.multi_head_attention(ad.Value(np.concatenate(ms)), params, groups=3)
    np.testing.assert_allclose(out.data, np.concatenate([mha_oracle(m, params) for m in ms]),
                               rtol=0, atol=1e-12)
    # the same groups scaled so that the largest |score| sits just under or
    # just over SCORE_LIMIT: in all three groups, or over in the middle one only
    for fractions in [(0.97, 0.97, 0.97), (1.03, 1.03, 1.03), (None, 1.03, None)]:
        scaled = [scaled_to_peak(m, params, f) for m, f in zip(ms, fractions)]
        for m, f in zip(scaled, fractions):
            peak = peak_score(m, params) / ad.SCORE_LIMIT
            assert peak < 1 if f is None else abs(peak - f) < 1e-9
        check_attention_at_scale(scaled, params)


@pytest.mark.parametrize("rows,groups", [(7, 2), (6, 4), (6, 0)])
def test_attention_rows_must_split_into_groups(rows, groups):
    params = init_block(d=4, h=2, seed=31)
    with pytest.raises(ShapeError, match="equal groups"):
        gb.multi_head_attention(ad.Value(np.zeros((rows, 8))), params, groups)


def test_attention_records_one_tape_op():
    params = init_block(d=4, h=2, seed=22)
    m = ad.Value(np.random.default_rng(23).standard_normal((6, 8)))
    with ad.Tape() as tape:
        gb.multi_head_attention(m, params)
    assert len(tape) == 1


def test_head_count_must_divide_fused_width():
    # block_layout trusts its d and h; the ModelConfig they come from checks them
    with pytest.raises(ConfigError, match="heads 3 must divide the fused width 8"):
        mdl.ModelConfig(hidden=4, heads=3)
    with pytest.raises(ConfigError, match=r"heads must be in \[1, 8\], got 9"):
        mdl.ModelConfig(hidden=4, heads=9)
    assert mdl.ModelConfig(hidden=4, heads=3, parallel_attention=False).heads == 3


# ---------------------------------------------------------------------------
# parallel_block
# ---------------------------------------------------------------------------

def test_fused_left_columns_are_previous_parallel_stream(monkeypatch):
    rng = np.random.default_rng(9)
    params = init_block(d=4, h=2, seed=11)
    state = gb.BlockState(h=ad.Value(rng.standard_normal((3, 4))),
                          hp=ad.Value(rng.standard_normal((3, 4))))
    adj = random_adjacency(rng, 3)
    captured = {}

    def probe(fused, *_):
        captured["fused"] = fused.data.copy()
        return fused

    monkeypatch.setattr(gb, "multi_head_attention", probe)
    gb.parallel_block(state, adj, params)
    np.testing.assert_array_equal(captured["fused"][:, :4], state.hp.data)


def test_zero_skip_makes_fused_right_half_pure_propagation(monkeypatch):
    rng = np.random.default_rng(10)
    params = init_block(d=4, h=2, seed=12)
    params.w_skip.data[:] = 0.0
    state = gb.BlockState(h=ad.Value(rng.standard_normal((3, 4))),
                          hp=ad.Value(rng.standard_normal((3, 4))))
    adj = from_dense(np.zeros((3, 3)))  # only the self-loops
    captured = {}

    def probe(fused, *_):
        captured["fused"] = fused.data.copy()
        return fused

    monkeypatch.setattr(gb, "multi_head_attention", probe)
    gb.parallel_block(state, adj, params)
    self_loop_out = state.h.data @ params.gat.w_right.data
    np.testing.assert_allclose(captured["fused"][:, 4:], self_loop_out, atol=1e-12)


def test_block_widths_are_invariant():
    rng = np.random.default_rng(11)
    params = init_block(d=6, h=3, seed=13)
    state = gb.BlockState(h=ad.Value(rng.standard_normal((4, 6))),
                          hp=ad.Value(rng.standard_normal((4, 6))))
    adj = random_adjacency(rng, 4)
    for _ in range(3):
        state = gb.parallel_block(state, adj, params)
        assert state.h.data.shape == (4, 6)
        assert state.hp.data.shape == (4, 6)


def test_propagation_stream_ignores_parallel_stream():
    rng = np.random.default_rng(12)
    params = init_block(d=4, h=2, seed=14)
    h = ad.Value(rng.standard_normal((3, 4)))
    adj = random_adjacency(rng, 3)
    a = gb.parallel_block(gb.BlockState(h=h, hp=ad.Value(rng.standard_normal((3, 4)))),
                          adj, params)
    b = gb.parallel_block(gb.BlockState(h=h, hp=ad.Value(rng.standard_normal((3, 4)))),
                          adj, params)
    np.testing.assert_array_equal(a.h.data, b.h.data)


def test_two_stacked_blocks_pass_gradient_check():
    rng = np.random.default_rng(13)
    listings = [layout_values(4, 2, seed=15, name=f"block{i}") for i in range(2)]
    blocks = [gb.assemble_block(iter(v for _, v in listing), h=2) for listing in listings]
    x = ad.Value(rng.standard_normal((5, 4)))
    adj = random_adjacency(rng, 5)
    weight = ad.const(rng.standard_normal((5, 4)))

    def f():
        state = gb.BlockState(h=x, hp=x)
        for b in blocks:
            state = gb.parallel_block(state, adj, b)
        return ad.reduce_sum(ad.mul(state.hp, weight))

    params = [x] + [v for listing in listings for _, v in listing]
    report = grad_check(f, params, step=1e-5, tol=1e-4)
    assert report.passed, report


def test_plain_block_collapses_streams():
    rng = np.random.default_rng(14)
    params = init_block(d=4, h=2, seed=16, parallel=False)
    assert params.w_qkv is None and params.w_merge is None
    h = ad.Value(rng.standard_normal((3, 4)))
    adj = random_adjacency(rng, 3)
    state = gb.plain_block(gb.BlockState(h=h, hp=h), adj, params)
    expected = gat_oracle(h.data, adj, params.gat) + h.data @ params.w_skip.data
    np.testing.assert_allclose(state.h.data, expected, atol=1e-12)
    assert state.h is state.hp


# ---------------------------------------------------------------------------
# initial values
# ---------------------------------------------------------------------------

def test_same_seed_is_bit_identical():
    a = layout_values(8, 2, seed=42)
    b = layout_values(8, 2, seed=42)
    for (na, va), (nb, vb) in zip(a, b):
        assert na == nb
        np.testing.assert_array_equal(va.data, vb.data)
    # init_block assembles the same draws into the matching fields
    block = init_block(d=8, h=2, seed=42)
    values = dict(a)
    np.testing.assert_array_equal(block.gat.attn.data, values["block0.gat.attn"].data)
    np.testing.assert_array_equal(block.w_qkv.data, values["block0.w_qkv"].data)
    np.testing.assert_array_equal(block.w_merge.data, values["block0.w_merge"].data)


def test_different_seeds_differ():
    a = init_block(d=8, h=2, seed=1)
    b = init_block(d=8, h=2, seed=2)
    assert (a.gat.w_left.data != b.gat.w_left.data).any()


def test_xavier_bounds_hold_empirically():
    # 10^4 draws of an 8x2-shaped parameter stay inside +-sqrt(6/(8+2))
    limit = np.sqrt(6.0 / 10.0)
    draws = np.concatenate([
        gb.xavier(seed, "probe", 8, 2).ravel() for seed in range(625)
    ])
    assert draws.size == 10_000
    assert np.abs(draws).max() <= limit
    assert np.abs(draws).max() > 0.9 * limit  # the bound is actually approached


def test_shared_shape_parameters_identical_across_variants():
    full = init_block(d=8, h=2, seed=3, parallel=True)
    plain = init_block(d=8, h=2, seed=3, parallel=False)
    np.testing.assert_array_equal(full.gat.w_left.data, plain.gat.w_left.data)
    np.testing.assert_array_equal(full.w_skip.data, plain.w_skip.data)


def test_parallel_off_drops_exactly_the_attention_matrices():
    d, h = 8, 2
    count = lambda parallel: sum(rows * cols for _, rows, cols
                                 in gb.block_layout(d, parallel=parallel))
    d_cat, d_head = 2 * d, 2 * d // h
    gamma_size = h * 3 * d_cat * d_head + d_cat * d
    assert count(True) - count(False) == gamma_size
