import math
import tracemalloc

import numpy as np
import pytest

from trendgat import autodiff as ad
from trendgat import energy_graph as eg
from trendgat.errors import (
    DegenerateRowError,
    LabelError,
    ShapeError,
    TapeError,
)

from gradcheck import grad_check
from oracles import from_dense
from test_gnn_blocks import mixed_graph


def rand(rng, r, c):
    return ad.Value(rng.standard_normal((r, c)))


# ---------------------------------------------------------------------------
# forward behaviour
# ---------------------------------------------------------------------------

def test_gat_attention_rejects_bad_shapes():
    v = lambda r, c: ad.Value(np.zeros((r, c)))
    graph = from_dense(np.zeros((3, 3)))
    bad = [
        (v(3, 4), v(3, 5), v(4, 1), v(1, 1), graph),   # right width
        (v(3, 4), v(2, 4), v(4, 1), v(1, 1), graph),   # right rows
        (v(3, 4), v(3, 4), v(5, 1), v(1, 1), graph),   # attn
        (v(3, 4), v(3, 4), v(4, 1), v(1, 2), graph),   # edge_bias
    ]
    for args in bad:
        with pytest.raises(ShapeError, match="gat_attention"):
            ad.gat_attention(*args, 0.2)


def test_gat_attention_empty_mask_row_raises():
    v = lambda r, c: ad.Value(np.ones((r, c)))
    indptr, src = np.array([0, 1, 1, 2]), np.array([0, 2])     # row 1 has no edge
    with pytest.raises(DegenerateRowError, match="row 1"):
        ad.gat_attention(v(3, 2), v(3, 2), v(2, 1), v(1, 1),
                         eg.CsrGraph(indptr, src, np.ones(2), n=3), 0.2)


def test_gat_attention_node_that_is_no_source_gets_zero_right_gradient():
    # column 2 of the mask is empty: node 2 is attended by no row
    rng = np.random.default_rng(11)
    left, right = (ad.Value(rng.standard_normal((4, 3))) for _ in range(2))
    attn, edge_bias = ad.Value(rng.standard_normal((3, 1))), ad.Value(np.ones((1, 1)))
    mask = np.array([[1, 1, 0, 0], [0, 1, 0, 1], [1, 0, 0, 1], [0, 0, 0, 1]], dtype=bool)
    weights, w = rng.random((4, 4)), ad.const(rng.standard_normal((4, 3)))
    dst, src = np.nonzero(mask)
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    graph = eg.CsrGraph(indptr, src, weights[dst, src], n=4)
    f = lambda: ad.reduce_sum(ad.mul(
        ad.gat_attention(left, right, attn, edge_bias, graph, 0.2), w))
    report = grad_check(f, [left, right, attn, edge_bias], step=1e-5, tol=1e-4)
    assert report.passed, report
    assert (right.grad[2] == 0.0).all() and (right.grad[[0, 1, 3]] != 0.0).any()


def test_gat_attention_rows_do_not_depend_on_the_other_rows():
    # every edge and row is scored on its own, so a row's output and its
    # left and right gradients are bit-identical wherever the row sits: in
    # a stack of graphs, or after extra single-edge rows
    rng = np.random.default_rng(17)   # with these draws a GEMV's logits move with the offset
    n, d = 60, 16
    dense = [rng.random((n, n)) * (rng.random((n, n)) < 0.04) for _ in range(4)]
    padded = np.zeros((n + 7, n + 7))
    padded[7:, 7:] = dense[0]
    lefts, rights, cotangents = ([rng.standard_normal((n, d)) for _ in dense] for _ in range(3))
    attn, edge_bias = rand(rng, d, 1), ad.Value(np.full((1, 1), 0.7))

    def rows(graph, left, right, cotangent):
        left, right = ad.Value(left), ad.Value(right)
        with ad.Tape() as tape:
            out = ad.gat_attention(left, right, attn, edge_bias, graph, 0.2)
            tape.backward(ad.reduce_sum(ad.mul(out, ad.const(cotangent))))
        return out.data, left.grad, right.grad

    separate = [rows(from_dense(a), *operands)
                for a, *operands in zip(dense, lefts, rights, cotangents)]
    stacked = rows(eg.stack(from_dense(a) for a in dense),
                   *(np.concatenate(operands) for operands in (lefts, rights, cotangents)))
    extra = np.zeros((7, d))
    padded_rows = rows(from_dense(padded), *(np.concatenate((extra, operands[0]))
                                                 for operands in (lefts, rights, cotangents)))
    for i, want in enumerate(separate[0]):
        np.testing.assert_array_equal(stacked[i], np.concatenate([s[i] for s in separate]))
        np.testing.assert_array_equal(padded_rows[i][7:], want)
    multi = np.diff(from_dense(dense[0]).indptr) > 1
    assert multi.any() and not multi.all()


def _mha_operands(rng, n, d_in, d_head, n_heads, d_out):
    heads = [tuple(rand(rng, d_in, d_head) for _ in range(3)) for _ in range(n_heads)]
    return rand(rng, n, d_in), heads, rand(rng, n_heads * d_head, d_out)


def test_multi_head_attention_rejects_mismatched_shapes():
    rng = np.random.default_rng(12)
    m, heads, w_merge = _mha_operands(rng, 4, 6, 3, 2, 5)
    narrow = (heads[1][0], rand(rng, 6, 2), heads[1][2])          # one w_k is 6 x 2
    bad = [
        (m, [heads[0], narrow], w_merge),                          # head widths differ
        (rand(rng, 4, 5), heads, w_merge),                         # input width
        (m, heads, rand(rng, 5, 5)),                               # merge rows
        (m, [heads[0][:2]], w_merge),                              # missing w_v
        (m, [heads[0][:2], (*heads[1], heads[1][0])], w_merge),    # 2 + 4 matrices
        (m, [], w_merge),                                          # no head
    ]
    for args in bad:
        with pytest.raises(ShapeError, match="multi_head_attention"):
            ad.multi_head_attention(*args)


def test_multi_head_attention_rejects_rows_that_do_not_split_into_groups():
    rng = np.random.default_rng(14)
    m, heads, w_merge = _mha_operands(rng, 6, 4, 2, 2, 3)
    for groups in (4, 0, -2):
        with pytest.raises(ShapeError, match="6 input rows do not split"):
            ad.multi_head_attention(m, heads, w_merge, groups)


def test_gat_attention_rejects_stacked_mask_of_wrong_height():
    v = lambda r, c: ad.Value(np.zeros((r, c)))
    for copies in (2, 3):                     # 4 or 6 graph rows for 5 node rows
        graph = eg.stack([from_dense(np.ones((2, 2)))] * copies)
        with pytest.raises(ShapeError, match="gat_attention: indptr"):
            ad.gat_attention(v(5, 2), v(5, 2), v(2, 1), v(1, 1), graph, 0.2)


def test_multi_head_attention_skips_frozen_operands():
    rng = np.random.default_rng(13)
    m, heads, w_merge = _mha_operands(rng, 5, 4, 2, 2, 3)
    frozen = heads[1][1]
    frozen.requires_grad = False
    with ad.Tape() as t:
        t.backward(ad.reduce_sum(ad.multi_head_attention(m, heads, w_merge)))
    assert frozen._grad is None
    assert all((w.grad != 0).any() for w in (m, heads[0][0], heads[1][2], w_merge))


def test_multi_head_attention_keeps_one_score_sized_buffer():
    # N=500 and 2 heads, so H * N^2 doubles are 4 MB.  The forward keeps the
    # unnormalised weights e and the backward adds one N x N gradient;
    # normalising e into a second buffer would break both bounds
    rng = np.random.default_rng(15)
    n, n_heads = 500, 2
    m, heads, w_merge = _mha_operands(rng, n, 32, 16, n_heads, 16)
    cotangent = ad.const(rng.standard_normal((n, 16)))
    scores = n_heads * n * n * 8
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            out = ad.multi_head_attention(m, heads, w_merge)
            _, forward_peak = tracemalloc.get_traced_memory()
            tape.backward(ad.reduce_sum(ad.mul(out, cotangent)))
        _, step_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(m.grad).all()
    assert forward_peak < 1.5 * scores, f"forward peak {forward_peak / scores:.2f} H*N^2 doubles"
    assert step_peak < 3 * scores, f"step peak {step_peak / scores:.2f} H*N^2 doubles"


def test_cross_entropy_uniform_binary_is_ln2():
    logits = ad.Value(np.zeros((1, 2)))
    target = np.array([[1.0, 0.0]])
    out = ad.cross_entropy_with_logits(logits, target, 2)
    assert out.item() == pytest.approx(math.log(2.0), abs=1e-15)


def test_cross_entropy_rejects_malformed_target():
    logits = ad.Value(np.zeros((2, 2)))
    with pytest.raises(LabelError):
        ad.cross_entropy_with_logits(logits, np.array([[1.0, 1.0], [0.0, 1.0]]), 2)


@pytest.mark.parametrize("row", [[0.5, 0.5], [2.0, -1.0], [math.nan, 1.0], [1.0, math.nan]],
                         ids=["halves", "two_minus_one", "nan_first", "nan_second"])
def test_cross_entropy_rejects_non_binary_targets(row):
    logits = ad.Value(np.zeros((2, 2)))
    with pytest.raises(LabelError, match="one-hot"):
        ad.cross_entropy_with_logits(logits, np.array([[0.0, 1.0], row]), 2)


def test_prelu_all_ones_is_identity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 5))
    out = ad.prelu(ad.Value(x), ad.Value(np.ones((1, 5))))
    np.testing.assert_array_equal(out.data, x)


def test_shape_errors_name_operation_and_shapes():
    a = ad.Value(np.zeros((2, 3)))
    b = ad.Value(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        ad.matmul(a, b)
    with pytest.raises(ShapeError, match="add"):
        ad.add(a, ad.Value(np.zeros((3, 2))))


# ---------------------------------------------------------------------------
# backward behaviour
# ---------------------------------------------------------------------------

def test_backward_of_sum_is_ones():
    x = ad.Value(np.arange(6.0).reshape(2, 3))
    with ad.Tape() as t:
        loss = ad.reduce_sum(x)
        t.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_sum_of_squares_is_2x():
    rng = np.random.default_rng(5)
    x = ad.Value(rng.standard_normal((3, 4)))
    with ad.Tape() as t:
        loss = ad.reduce_sum(ad.mul(x, x))
        t.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-15)


def test_backward_requires_scalar():
    x = ad.Value(np.zeros((2, 2)))
    with ad.Tape() as t:
        y = ad.add(x, x)
        with pytest.raises(TapeError):
            t.backward(y)


def test_backward_twice_raises():
    x = ad.Value(np.ones((1, 1)))
    with ad.Tape() as t:
        y = ad.add(x, x)
        t.backward(y)
        with pytest.raises(TapeError):
            t.backward(y)


def test_backward_determinism_bit_identical():
    rng = np.random.default_rng(6)
    data_a = rng.standard_normal((4, 4))
    data_b = rng.standard_normal((4, 4))

    def run():
        a = ad.Value(data_a.copy())
        b = ad.Value(data_b.copy())
        with ad.Tape() as t:
            out = ad.cross_entropy_with_logits(ad.matmul(a, b), np.eye(4), 4)
            t.backward(out)
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert (ga1 == ga2).all() and (gb1 == gb2).all()


def test_concat_cols_routes_gradient_exactly():
    a = ad.Value(np.ones((2, 2)))
    b = ad.Value(np.ones((2, 3)))
    with ad.Tape() as t:
        cat = ad.concat_cols(a, b)
        loss = ad.reduce_sum(ad.mul(cat, ad.const(np.array([[0.0, 0.0, 1.0, 1.0, 1.0]] * 2))))
        t.backward(loss)
    np.testing.assert_array_equal(a.grad, np.zeros((2, 2)))
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


def test_constant_values_receive_no_gradient():
    c = ad.const(np.ones((2, 2)))
    x = ad.Value(np.ones((2, 2)))
    with ad.Tape() as t:
        loss = ad.reduce_sum(ad.matmul(c, x))
        t.backward(loss)
    assert (c.grad == 0).all()
    assert (x.grad != 0).any()


# ---------------------------------------------------------------------------
# finite-difference suite: every primitive, many random shapes and seeds
# ---------------------------------------------------------------------------

def _check(f, params, seed, tol=1e-4):
    report = grad_check(f, params, step=1e-5, tol=tol)
    assert report.passed, f"seed={seed}: {report}"


def _off_kink_pair(rng, n, d):
    # redraw until every left[i] + right[j] is away from 0, so the
    # leaky_relu kink inside gat_attention is not sampled
    while True:
        left, right = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        if np.abs(left[:, None, :] + right[None, :, :]).min() > 1e-3:
            return ad.Value(left), ad.Value(right)


def _smooth(rng, r, c):
    # keep entries away from 0 so prelu kinks are not sampled
    x = rng.standard_normal((r, c))
    return ad.Value(np.where(np.abs(x) < 0.1, x + 0.3, x))


PRIMITIVE_CASES = 100  # shapes/seed combinations per primitive

# primitive -> seed base of its cases, fixed so that a case's draws do not
# depend on which other primitives are listed
PRIMITIVES = {
    "matmul": 0, "add": 1, "mul": 3, "concat_cols": 5,
    "prelu": 12, "reduce_sum": 13, "cross_entropy_with_logits": 15,
    "gat_attention": 16, "multi_head_attention": 17, "gat_attention_stacked": 18,
    "multi_head_attention_groups": 19, "gat_attention_mixed_rows": 20,
    "multi_head_attention_shifted": 21,
}


@pytest.mark.parametrize("name", PRIMITIVES)
def test_primitive_gradients_against_finite_differences(name, monkeypatch):
    if name == "multi_head_attention_shifted":
        # a negative limit sends every score through the row-max shift; the
        # other attention entries take the unshifted softmax
        monkeypatch.setattr(ad, "SCORE_LIMIT", -1.0)
    for case in range(PRIMITIVE_CASES):
        rng = np.random.default_rng(1000 * PRIMITIVES[name] + case)
        r = int(rng.integers(1, 6))
        c = int(rng.integers(1, 6))
        if name == "matmul":
            k = int(rng.integers(1, 6))
            a, b = rand(rng, r, k), rand(rng, k, c)
            w = ad.const(rng.standard_normal((r, c)))
            f = lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), w))
            params = [a, b]
        elif name == "add":
            a, b = rand(rng, r, c), rand(rng, r, c)
            f = lambda: ad.reduce_sum(ad.mul(ad.add(a, b), ad.add(a, b)))
            params = [a, b]
        elif name == "mul":
            a, b = rand(rng, r, c), rand(rng, r, c)
            f = lambda: ad.reduce_sum(ad.mul(a, b))
            params = [a, b]
        elif name == "concat_cols":
            a, b = rand(rng, r, c), rand(rng, r, c + 1)
            f = lambda: ad.reduce_sum(ad.mul(ad.concat_cols(a, b), ad.concat_cols(a, b)))
            params = [a, b]
        elif name == "gat_attention":
            left, right = _off_kink_pair(rng, r, c)
            attn, edge_bias = rand(rng, c, 1), ad.Value(rng.uniform(0.5, 2.0, (1, 1)))
            weights = rng.random((r, r))
            mask = rng.random((r, r)) < 0.6
            mask[rng.random(r) < 0.3] = False   # some rows keep only their self-loop
            np.fill_diagonal(mask, True)
            graph = from_dense(np.where(mask, weights, 0.0))
            w = ad.const(rng.standard_normal((r, c)))
            f = lambda: ad.reduce_sum(ad.mul(ad.gat_attention(
                left, right, attn, edge_bias, graph, 0.2), w))
            params = [left, right, attn, edge_bias]
        elif name == "multi_head_attention":
            n, n_heads, d_head = (int(x) for x in rng.integers(1, [7, 4, 4]))
            m = rand(rng, n, c)
            heads = [tuple(rand(rng, c, d_head) for _ in range(3)) for _ in range(n_heads)]
            w_merge = rand(rng, n_heads * d_head, r)
            operands = [m, *(w for triple in heads for w in triple), w_merge]
            for v in operands:
                v.requires_grad = bool(rng.random() < 0.7)
            operands[int(rng.integers(len(operands)))].requires_grad = True
            w = ad.const(rng.standard_normal((n, r)))
            f = lambda: ad.reduce_sum(ad.mul(ad.multi_head_attention(m, heads, w_merge), w))
            params = [v for v in operands if v.requires_grad]
        elif name == "gat_attention_stacked":
            # r graphs of c nodes stacked: mask and weights are drawn (r*c) x c,
            # row b*c + i being row i of graph b
            left, right = _off_kink_pair(rng, r * c, 2)
            attn, edge_bias = rand(rng, 2, 1), ad.Value(rng.uniform(0.5, 2.0, (1, 1)))
            weights = rng.random((r * c, c))
            mask = rng.random((r * c, c)) < 0.5
            mask[np.arange(r * c), np.arange(r * c) % c] = True
            blocks = np.where(mask, weights, 0.0).reshape(r, c, c)
            graph = eg.stack(from_dense(block) for block in blocks)
            w = ad.const(rng.standard_normal((r * c, 2)))
            f = lambda: ad.reduce_sum(ad.mul(ad.gat_attention(
                left, right, attn, edge_bias, graph, 0.2), w))
            params = [left, right, attn, edge_bias]
        elif name == "gat_attention_mixed_rows":
            # rows with one edge (a self-loop, or an edge from another node)
            # next to rows with several
            left, right = _off_kink_pair(rng, r, c)
            attn, edge_bias = rand(rng, c, 1), ad.Value(rng.uniform(0.5, 2.0, (1, 1)))
            graph = mixed_graph(rng, r)
            w = ad.const(rng.standard_normal((r, c)))
            f = lambda: ad.reduce_sum(ad.mul(ad.gat_attention(
                left, right, attn, edge_bias, graph, 0.2), w))
            params = [left, right, attn, edge_bias]
        elif name in ("multi_head_attention_groups", "multi_head_attention_shifted"):
            groups, n, n_heads, d_head = (int(x) for x in rng.integers([2, 1, 1, 1], [5, 5, 4, 4]))
            m = rand(rng, groups * n, c)
            heads = [tuple(rand(rng, c, d_head) for _ in range(3)) for _ in range(n_heads)]
            w_merge = rand(rng, n_heads * d_head, r)
            w = ad.const(rng.standard_normal((groups * n, r)))
            f = lambda: ad.reduce_sum(ad.mul(
                ad.multi_head_attention(m, heads, w_merge, groups), w))
            params = [m, *(w for triple in heads for w in triple), w_merge]
        elif name == "prelu":
            a = _smooth(rng, r, c)
            slopes = ad.Value(rng.uniform(0.1, 0.9, (1, c)))
            f = lambda: ad.reduce_sum(ad.mul(ad.prelu(a, slopes), a))
            params = [a, slopes]
        elif name == "reduce_sum":
            a = rand(rng, r, c)
            f = lambda: ad.reduce_sum(ad.mul(a, a))
            params = [a]
        else:  # cross_entropy_with_logits: phi blocks of alpha columns
            phi, alpha = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            a = rand(rng, r, phi * alpha)
            target = np.zeros((r, phi, alpha))
            target[np.arange(r)[:, None], np.arange(phi), rng.integers(0, alpha, (r, phi))] = 1.0
            f = lambda: ad.cross_entropy_with_logits(a, target.reshape(r, -1), alpha)
            params = [a]
        _check(f, params, seed=case)


def test_grad_check_passes_on_quadratic():
    rng = np.random.default_rng(10)
    x = ad.Value(rng.standard_normal((4, 3)))
    report = grad_check(lambda: ad.reduce_sum(ad.mul(x, x)), [x], step=1e-5, tol=1e-6)
    assert report.passed
