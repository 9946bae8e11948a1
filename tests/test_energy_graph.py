import math
import tracemalloc
import warnings

import numpy as np
import pytest

from trendgat import energy_graph as eg
from trendgat import market_data as md
from trendgat import synth
from trendgat.errors import ConfigError, NumericError, ShapeError

from oracles import boltzmann_adjacency, energies_of, from_dense, one_window_graph, sparsify


def graph_of(energies, k, tau, s):
    """``boltzmann_graph`` of one window's N energies: a stack of one."""
    return eg.boltzmann_graph(np.asarray(energies)[None], k, tau, s)[0]


def brute_force_adjacency(features, k, tau):
    """Independent evaluation: scalar loops, no vectorization shortcuts."""
    n = features.shape[0]
    energies = []
    for i in range(n):
        e = 0.0
        for x in features[i]:
            e += float(x) * float(x)
        energies.append(e)
    adj = np.zeros((n, n))
    for i in range(n):
        denom = 0.0
        for o in range(n):
            denom += math.exp(-abs(energies[i] - energies[o]) / (k * tau))
        for j in range(n):
            adj[i, j] = math.exp(-abs(energies[i] - energies[j]) / (k * tau)) / denom
    return adj


# ---------------------------------------------------------------------------
# the dense Boltzmann adjacency (tests/oracles.py)
# ---------------------------------------------------------------------------

def test_equal_energies_give_uniform_rows():
    feats = np.tile(np.array([1.0, -2.0, 0.5]), (3, 1))
    adj = boltzmann_adjacency(energies_of(feats), k=0.7, tau=5)
    np.testing.assert_allclose(adj, 1.0 / 3.0, atol=1e-15)


def test_two_stock_log2_gap_hand_case():
    # |E_0 - E_1| = k*tau*ln2 makes the off-diagonal kernel exactly 1/2
    k, tau = 0.5, 10
    e1 = k * tau * math.log(2.0)
    feats = np.array([[0.0, 0.0], [math.sqrt(e1), 0.0]])
    adj = boltzmann_adjacency(energies_of(feats), k=k, tau=tau)
    np.testing.assert_allclose(adj[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((6, 8))
    adj = boltzmann_adjacency(energies_of(feats), k=0.5, tau=10)
    oracle = brute_force_adjacency(feats, k=0.5, tau=10)
    np.testing.assert_allclose(adj, oracle, atol=1e-12)


def test_invalid_scaling_or_temperature_rejected():
    feats = np.ones((2, 3))
    for k in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="k must be positive"):
            graph_of(energies_of(feats), k=k, tau=5, s=0.4)
    # a non-finite threshold is rejected before the range warning
    for s in (math.nan, math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="s must be finite"):
                graph_of(energies_of(feats), k=0.5, tau=5, s=s)
        with pytest.raises(ConfigError, match="s must be finite"):
            eg.snapshot(0, feats, 0.5, 5, s)
    with pytest.raises(ConfigError):
        graph_of(energies_of(feats), k=0.5, tau=0, s=0.4)
    with pytest.raises(ConfigError):
        graph_of(energies_of(np.ones((1, 3))), k=0.5, tau=5, s=0.4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])   # 1e200 squared overflows
def test_non_finite_features_rejected(bad):
    feats = np.ones((3, 4))
    feats[1, 2] = bad
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite"):
        graph_of(energies_of(feats), k=0.5, tau=5, s=0.4)


def test_rows_sum_to_one_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        feats = rng.standard_normal((n, int(rng.integers(1, 10)))) * rng.uniform(0.1, 5.0)
        adj = boltzmann_adjacency(energies_of(feats), k=float(rng.uniform(0.02, 2.0)),
                                  tau=int(rng.integers(1, 30)))
        np.testing.assert_allclose(adj.sum(axis=1), 1.0, atol=1e-9)
        assert (adj >= 0).all()


def test_prenormalization_kernel_is_symmetric():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((7, 5))
    k, tau = 0.3, 9
    energies = (feats ** 2).sum(axis=1)
    kernel = np.exp(-np.abs(energies[:, None] - energies[None, :]) / (k * tau))
    np.testing.assert_allclose(kernel, kernel.T, atol=1e-15)


def test_diagonal_is_row_maximum_before_sparsify():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((8, 6))
    adj = boltzmann_adjacency(energies_of(feats), k=0.4, tau=7)
    assert (np.diag(adj) >= adj.max(axis=1) - 1e-15).all()


def test_uniform_temperature_limit():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((5, 4))
    energies = (feats ** 2).sum(axis=1)
    max_gap = np.abs(energies[:, None] - energies[None, :]).max()
    k = 1e6 * max_gap  # k*tau >= 1e6 * max|dE| with tau = 1
    adj = boltzmann_adjacency(energies_of(feats), k=k, tau=1)
    assert np.abs(adj - 0.2).max() < 1e-6


def test_sharp_temperature_limit_concentrates_on_diagonal():
    feats = np.diag([1.0, 2.0, 3.0, 4.0])  # distinct energies 1,4,9,16
    energies = (feats ** 2).sum(axis=1)
    gaps = np.abs(energies[:, None] - energies[None, :])
    min_gap = gaps[gaps > 0].min()
    adj = boltzmann_adjacency(energies_of(feats), k=1e-6 * min_gap, tau=1)
    assert (np.diag(adj) >= 1.0 - 1e-6).all()


def test_permutation_equivariance():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((6, 5))
    perm = rng.permutation(6)
    p = np.eye(6)[perm]
    a = boltzmann_adjacency(energies_of(feats), k=0.5, tau=10)
    a_perm = boltzmann_adjacency(energies_of(p @ feats), k=0.5, tau=10)
    np.testing.assert_allclose(a_perm, p @ a @ p.T, atol=1e-13)


def test_larger_gap_never_gets_larger_entry():
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((9, 4))
    adj = boltzmann_adjacency(energies_of(feats), k=0.8, tau=3)
    energies = (feats ** 2).sum(axis=1)
    gaps = np.abs(energies[:, None] - energies[None, :])
    for i in range(9):
        order = np.argsort(gaps[i])
        entries = adj[i][order]
        assert (np.diff(entries) <= 1e-15).all()


# ---------------------------------------------------------------------------
# the entrywise threshold
# ---------------------------------------------------------------------------

def test_zero_threshold_leaves_matrix_unchanged():
    rng = np.random.default_rng(8)
    adj = rng.random((4, 4))
    np.testing.assert_array_equal(sparsify(adj, 0.0), adj)
    feats = rng.standard_normal((4, 3))
    with pytest.warns(eg.ThresholdRangeWarning):
        graph = graph_of(energies_of(feats), 0.5, 5, 0.0)
    np.testing.assert_allclose(np.asarray(graph), boltzmann_adjacency(energies_of(feats), 0.5, 5),
                               rtol=0, atol=1e-12)


def test_entrywise_threshold_hand_case():
    adj = np.array([[0.6, 0.4], [0.3, 0.7]])
    out = sparsify(adj, 0.5)
    np.testing.assert_array_equal(out, [[0.6, 0.0], [0.0, 0.7]])


def test_saturating_threshold_zeroes_everything():
    adj = np.full((3, 3), 1.0 / 3.0)
    assert (sparsify(adj, 0.9) == 0.0).all()
    with pytest.warns(eg.ThresholdRangeWarning):
        graph = graph_of(energies_of(np.ones((3, 2))), 0.5, 5, 0.9)    # uniform rows of 1/3
    np.testing.assert_array_equal(np.asarray(graph), 0.0)


def test_surviving_entries_are_zero_or_at_least_s():
    rng = np.random.default_rng(9)
    adj = boltzmann_adjacency(energies_of(rng.standard_normal((7, 5))), k=0.5, tau=10)
    out = sparsify(adj, 0.3)
    assert ((out == 0.0) | (out >= 0.3)).all()


# ---------------------------------------------------------------------------
# boltzmann_graph: the O(N log N) builder against the dense oracle
# ---------------------------------------------------------------------------

def assert_matches_dense_oracle(energies, k, tau, s):
    """The builder's edges are the positive entries of
    sparsify(boltzmann_adjacency(...)) plus every self-loop, row-major,
    with weights within 1e-12 (a self-loop below s carries 0.0)."""
    graph = graph_of(energies, k, tau, s)
    dense = sparsify(boltzmann_adjacency(energies, k, tau), s)
    keep = dense > 0
    np.fill_diagonal(keep, True)
    rows, cols = np.nonzero(keep)
    assert graph.n == graph.rows == dense.shape[0]
    np.testing.assert_array_equal(np.diff(graph.indptr), keep.sum(axis=1))
    np.testing.assert_array_equal(graph.src, cols)
    np.testing.assert_allclose(graph.weight, dense[rows, cols], rtol=0, atol=1e-12)
    return graph


def test_builder_matches_dense_oracle_on_random_instances():
    rng = np.random.default_rng(31)
    offdiag = 0
    for _ in range(300):
        n, tau, f = int(rng.integers(2, 60)), int(rng.integers(7, 28)), int(rng.integers(1, 6))
        feats = rng.standard_normal((n, tau * f)) * rng.uniform(0.2, 2.0, (n, 1))
        graph = assert_matches_dense_oracle(energies_of(feats), float(rng.uniform(0.02, 2.0)), tau,
                                            float(rng.uniform(0.25, 0.85)))
        offdiag += graph.src.size - n
    # energies spaced on the kernel's own scale k * tau, where rows keep neighbours
    for _ in range(100):
        n, tau = int(rng.integers(2, 60)), int(rng.integers(7, 28))
        k, s = float(rng.uniform(0.02, 2.0)), float(rng.uniform(0.25, 0.85))
        energies = np.cumsum(rng.exponential(rng.uniform(0.1, 2.0), n) * k * tau)
        graph = assert_matches_dense_oracle(rng.permutation(energies), k, tau, s)
        offdiag += graph.src.size - n
    assert offdiag > 150    # kept neighbours are exercised, not only self-loops


def _threshold_off_reciprocals(rng):
    """s in [0.25, 0.85], away from every 1/m, where m entries of 1/m each
    would sit exactly at the bound."""
    while True:
        s = float(rng.uniform(0.25, 0.85))
        if min(abs(s - 1.0 / m) for m in (2, 3, 4)) > 1e-6:
            return s


def test_rows_keep_at_most_one_over_s_edges():
    # a row sums to 1 and its self-weight is its largest entry, so at most
    # floor(1/s) entries reach s, and only the self-loop when s > 0.5
    rng = np.random.default_rng(43)
    widest = 0
    for case in range(600):
        n, tau = int(rng.integers(2, 60)), int(rng.integers(7, 28))
        k, s = float(rng.uniform(0.02, 2.0)), _threshold_off_reciprocals(rng)
        if case % 2:
            energies = energies_of(rng.standard_normal((n, tau)) * rng.uniform(0.2, 2.0, (n, 1)))
        else:   # energies spaced on the kernel's scale k * tau, where rows keep neighbours
            energies = np.cumsum(rng.exponential(rng.uniform(0.1, 2.0), n) * k * tau)
            energies = rng.permutation(energies)
        per_row = np.diff(graph_of(energies, k, tau, s).indptr)
        assert per_row.max() <= max(1, math.floor(1.0 / s)), (case, s, per_row.max())
        if s > 0.5:
            assert (per_row == 1).all(), (case, s)
        widest = max(widest, int(per_row.max()))
    assert widest == 3      # rows with neighbours are exercised, up to the bound


def test_builder_on_tied_energies():
    # rows 0 and 2 are permutations of each other, so their energies tie
    feats = np.array([[1.0, 2.0], [0.5, 0.5], [2.0, 1.0], [3.0, 0.0]])
    for k, s in ((0.5, 0.25), (2.0, 0.3), (0.05, 0.4)):
        assert_matches_dense_oracle(energies_of(feats), k, 1, s)


def test_builder_on_two_stocks_hand_case():
    # |E_0 - E_1| = k*tau*ln2: row 0 is [2/3, 1/3]
    k, tau = 0.5, 10
    feats = np.array([[0.0, 0.0], [math.sqrt(k * tau * math.log(2.0)), 0.0]])
    graph = assert_matches_dense_oracle(energies_of(feats), k, tau, 0.3)
    np.testing.assert_allclose(np.asarray(graph), [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)
    graph = assert_matches_dense_oracle(energies_of(feats), k, tau, 0.5)
    np.testing.assert_array_equal(graph.src, [0, 1])


@pytest.mark.parametrize("n,s,weight", [(3, 0.25, 1.0 / 3.0), (5, 0.25, 0.0), (2, 0.4, 0.5)])
def test_builder_on_equal_energies_keeps_uniform_rows_or_only_self_loops(n, s, weight):
    feats = np.tile(np.array([1.0, -2.0, 0.5]), (n, 1))
    graph = assert_matches_dense_oracle(energies_of(feats), 0.7, 5, s)
    expected = np.full((n, n), weight) if weight else np.zeros((n, n))
    np.testing.assert_allclose(np.asarray(graph), expected, atol=1e-12)
    assert graph.src.size == (n * n if weight else n)


def test_builder_keeps_the_dense_checks_and_warning():
    with pytest.raises(ConfigError):
        graph_of(energies_of(np.ones((1, 3))), 0.5, 5, 0.4)
    with pytest.raises(ConfigError):
        graph_of(energies_of(np.ones((2, 3))), 0.0, 5, 0.4)
    with pytest.raises(ConfigError):
        graph_of(energies_of(np.ones((2, 3))), 0.5, 0, 0.4)
    with pytest.raises(NumericError, match="non-finite"):
        graph_of(energies_of(np.array([[1.0, np.nan], [0.0, 1.0]])), 0.5, 5, 0.4)
    with pytest.warns(eg.ThresholdRangeWarning):
        graph = eg.snapshot(0, np.eye(3), 0.5, 5, 0.9).adjacency
    np.testing.assert_array_equal(graph.weight, 0.0)     # nothing reaches 0.9


# ---------------------------------------------------------------------------
# boltzmann_graph over a stack of windows: bit for bit the one-window build
# ---------------------------------------------------------------------------

def random_panel(n, seed, k=0.5, days=60, f=4):
    """A random N x days x f panel whose window energies lie on the kernel's
    scale k * tau.  Stock 0 is all zeros (zero energy).  With N = 2, stock
    1 lies near it; otherwise stock 2 is stock 1 negated, so their energies
    tie exactly, far above the rest: both kinds of pair keep their edges
    for s <= 0.4."""
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.uniform(-1.2, 1.2, (n, 1, 1))) * math.sqrt(k / f)
    values = rng.standard_normal((n, days, f)) * scales
    values[0] = 0.0
    if n == 2:
        values[1] *= 0.1
    else:
        values[1] *= 30.0
        values[2] = -values[1]
    return md.IndicatorPanel(tickers=[f"S{i}" for i in range(n)], dates=[""] * days,
                             values=values, indicators=["a"] * f, close=values[:, :, 0])


def panel_energies(n, seed, k=0.5, tau=7, days=60, f=4):
    """The B x N energies of every window of a ``random_panel``."""
    panel = random_panel(n, seed, k, days, f)
    return eg.window_energies(panel.values, md.usable_range(days, tau, 1), tau)


@pytest.fixture(scope="module")
def synth_panel(tmp_path_factory):
    """The normalized 20 x 600 ``synth`` panel of the acceptance set."""
    manifest = synth.write_dataset(tmp_path_factory.mktemp("synth"), 20, 600, seed=0)
    panel = md.select_indicators(md.load_panel(manifest), md.DEFAULT_INDICATORS)
    return md.normalize(panel, md.split_periods(panel, (457, 63, 261), 14, 1))


@pytest.mark.parametrize("tau", [1, 7, 14, 27])
def test_window_energies_are_the_squares_of_each_window_bit_for_bit(synth_panel, tau):
    # the reference squares every copied window and sums each contiguous
    # row, as the graph builder did before the energies were a stage
    panels = [random_panel(n, seed=n) for n in (2, 3, 20, 100)] + [synth_panel]
    for panel in panels:
        usable = md.usable_range(panel.n_days, tau, 1)
        for ts in (usable, usable[10:30], usable[-1:]):
            features, _ = md.build_windows(panel, ts, tau, 1)
            want = np.multiply(features, features, order="C").sum(axis=2)
            got = eg.window_energies(panel.values, ts, tau)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_window_energies_check_the_panel_and_the_window_ends():
    values = random_panel(3, seed=1, days=20).values
    assert eg.window_energies(values, range(0), 7).shape == (0, 3)
    with pytest.raises(ConfigError, match="N x T x F panel"):
        eg.window_energies(values[:, :, 0], range(6, 9), 7)
    with pytest.raises(ConfigError, match="tau must be >= 1"):
        eg.window_energies(values, range(6, 9), 0)
    with pytest.raises(IndexError, match="t=5 out of range"):
        eg.window_energies(values, range(5, 9), 7)
    with pytest.raises(IndexError, match="t=20 out of range"):
        eg.window_energies(values, range(18, 21), 7)
    with pytest.raises(ConfigError, match="consecutive"):
        eg.window_energies(values, [6, 8], 7)


def assert_bit_identical(graph, reference):
    assert graph.n == reference.n
    for name in ("indptr", "src", "weight"):
        got, want = getattr(graph, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("n", [2, 3, 20, 100])
@pytest.mark.parametrize("k,s", [(0.5, 0.4), (0.08, 0.25), (0.02, 0.1), (0.5, 0.0)])
def test_stacked_build_is_bit_identical_to_one_window_at_a_time(n, k, s):
    tau = 7
    energies = panel_energies(n, seed=n, k=k, tau=tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", eg.ThresholdRangeWarning)
        graphs = eg.boltzmann_graph(energies, k, tau, s)
    assert len(graphs) == energies.shape[0]
    offdiag = 0
    for window, graph in zip(energies, graphs):
        assert_bit_identical(graph, one_window_graph(window, k, tau, s))
        offdiag += graph.src.size - n
    assert offdiag > 0      # rows with neighbours are exercised


def assert_near_dense_oracle(graph, energies, k, tau, s):
    """``graph`` against sparsify(boltzmann_adjacency(...)) where entries
    may sit within rounding of s: an entry the dense matrix puts more than
    1e-12 above s is kept, one more than 1e-12 below it is not, and a kept
    entry is within 1e-12 of the dense one."""
    dense, built = boltzmann_adjacency(energies, k, tau), np.asarray(graph)
    kept = built != 0                                  # s > 0: a kept entry is >= s
    clear = np.abs(dense - s) > 1e-12
    np.testing.assert_array_equal(kept[clear], dense[clear] >= s)
    np.testing.assert_allclose(built[kept], dense[kept], rtol=0, atol=1e-12)


def band_energies(kind, n, scale, rng):
    """Three windows of N energies: all ``zero``; ``tied`` in groups a
    fifth of the kernel's scale k * tau apart; or ``near_tied``, groups
    a kernel scale apart, each spread by at most 1e-12."""
    groups = rng.integers(0, 3, (3, n)).astype(float)
    if kind == "zero":
        return np.zeros((3, n))
    if kind == "tied":
        return groups * (0.2 * scale)
    return groups * scale + rng.uniform(0, 1e-12, (3, n))


@pytest.mark.parametrize("k,tau", [(1e-6, 1), (1e-3, 7), (0.5, 14)])
@pytest.mark.parametrize("kind", ["zero", "tied", "near_tied"])
def test_the_band_holds_every_kept_entry(kind, k, tau):
    # each row's candidates are the floor(1/s) places on either side of its
    # own: test thresholds where m entries of 1/m sit at the bound, against
    # the searchsorted candidates of one_window_graph and the dense oracle
    rng = np.random.default_rng([len(kind), tau])
    offdiag, widest = 0, -1
    for m in range(1, 14):
        for s in (np.nextafter(1.0 / m, 0.0), 1.0 / m, np.nextafter(1.0 / m, 1.0)):
            for n in (2, 3, 5, 9, 14, 30):
                energies = band_energies(kind, n, k * tau, rng)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", eg.ThresholdRangeWarning)
                    graphs = eg.boltzmann_graph(energies, k, tau, float(s))
                for window, graph in zip(energies, graphs, strict=True):
                    assert_bit_identical(graph, one_window_graph(window, k, tau, s))
                    assert_near_dense_oracle(graph, window, k, tau, s)
                    place = np.empty(n, dtype=np.intp)
                    place[window.argsort(kind="stable")] = np.arange(n)
                    kept = graph.weight > 0
                    reach = np.abs(place[graph.dst[kept]] - place[graph.src[kept]])
                    offdiag += int(np.count_nonzero(reach))
                    widest = max(widest, int(reach.max(initial=0)) - math.floor(1.0 / s))
    assert offdiag > 1000      # kept neighbours are exercised, not only self-loops
    # for some m, m equal energies at s one float above 1/m round to weights
    # at or above s: a run of m - 1 = floor(1/s) places, the band's edge
    assert widest == 0 if kind == "zero" else widest <= 0


def test_an_energy_scale_past_the_largest_float_is_a_numeric_error():
    energies = np.array([[0.0, 1.0], [0.0, 1e300], [0.0, 0.0]])
    graphs = eg.boltzmann_graph(energies[[0, 2]], 1e-300, 1, 0.4)
    assert [graph.src.size for graph in graphs] == [2, 4]
    with pytest.raises(NumericError, match=r"window 1 has non-finite or negative energies \(.*, "
                                           r"or E / \(k \* tau\) that overflows at "
                                           r"k \* tau = 1e-300\)$"):
        eg.boltzmann_graph(energies, 1e-300, 1, 0.4)
    with pytest.raises(NumericError, match="window 0 has non-finite or negative energies"):
        eg.boltzmann_graph(energies[:1], 1e-320, 1, 0.4)


def test_candidate_edges_past_the_bound_are_a_config_error(monkeypatch):
    # the band is N at s <= 1/N, else floor(1/s) places a side, at most N
    assert [eg.check_edges(3, 10, s) for s in (0.0, -1.0, 0.1, 0.25, 0.4, 0.85)] == [10, 10, 10,
                                                                                       4, 2, 1]
    # paper scale: 1737 stocks, about 720 training windows of 1245 days, s = 0.25
    assert eg.check_edges(720, 1737, 0.25) == 4
    with pytest.raises(ConfigError, match=r"^343 energy graph\(s\) of N = 753 nodes at s = 0.0 "
                                          r"have 194484087 candidate edges, more than "
                                          r"MAX_EDGES = 67108864$"):
        eg.check_edges(343, 753, 0.0)
    energies = panel_energies(6, seed=2)[:4]       # 4 windows x 6 x min(6, 2 * 2 + 1) at s = 0.4
    monkeypatch.setattr(eg, "MAX_EDGES", 4 * 6 * 5 - 1)
    with pytest.raises(ConfigError, match="have 120 candidate edges, more than MAX_EDGES = 119"):
        eg.boltzmann_graph(energies, 0.5, 7, 0.4)
    monkeypatch.setattr(eg, "MAX_EDGES", 4 * 6 * 5)
    assert len(eg.boltzmann_graph(energies, 0.5, 7, 0.4)) == 4


@pytest.mark.parametrize("block_bytes", [1, 20_000])
def test_blocks_do_not_change_the_graphs(monkeypatch, block_bytes):
    energies = panel_energies(20, seed=5)
    whole = eg.boltzmann_graph(energies, 0.08, 7, 0.25)
    monkeypatch.setattr(eg, "_BLOCK_BYTES", block_bytes)
    for graph, reference in zip(eg.boltzmann_graph(energies, 0.08, 7, 0.25), whole, strict=True):
        assert_bit_identical(graph, reference)


def test_stacked_build_names_the_non_finite_window_and_warns_once(monkeypatch):
    panel = random_panel(5, seed=6)
    panel.values[1, 9, 2] = np.nan        # day 9: in the windows ending at t = 9 (window 3) on
    energies = eg.window_energies(panel.values, md.usable_range(60, 7, 1), 7)
    with pytest.raises(NumericError, match="window 3 has non-finite"):
        eg.boltzmann_graph(energies, 0.5, 7, 0.4)
    monkeypatch.setattr(eg, "_BLOCK_BYTES", 1)       # one window per block
    with pytest.raises(NumericError, match="window 3 has non-finite"):
        eg.boltzmann_graph(energies, 0.5, 7, 0.4)
    monkeypatch.undo()
    with pytest.warns(eg.ThresholdRangeWarning) as caught:
        graphs = eg.boltzmann_graph(energies[:3], 0.5, 7, 0.9)
    assert len(caught) == 1 and len(graphs) == 3
    assert eg.boltzmann_graph(energies[:0], 0.5, 7, 0.4) == []


@pytest.mark.parametrize("block_bytes", [None, 1])
@pytest.mark.parametrize("bad", [-1.0, -5e-324, np.nan, np.inf, -np.inf])
def test_a_negative_or_non_finite_energy_is_a_numeric_error_naming_its_window(
        monkeypatch, block_bytes, bad):
    energies = panel_energies(5, seed=6).copy()
    energies[3, 1] = energies[5, 0] = bad
    if block_bytes is not None:
        monkeypatch.setattr(eg, "_BLOCK_BYTES", block_bytes)
    with pytest.raises(NumericError, match="window 3 has non-finite or negative energies"):
        eg.boltzmann_graph(energies, 0.5, 7, 0.4)


@pytest.mark.parametrize("shape", [(5,), (4, 1), (0, 1), (3, 5, 28)])
def test_energies_not_b_by_n_with_two_stocks_are_a_config_error(shape):
    with pytest.raises(ConfigError, match="need B x N energies with N >= 2 stocks"):
        eg.boltzmann_graph(np.ones(shape), 0.5, 7, 0.4)


def test_graph_statistics_count_neighbours_and_isolated_rows():
    alone = from_dense(np.eye(3))
    pair = from_dense(np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert eg.graph_statistics([alone, pair]) == {
        "windows": 2, "offdiag_edges_mean": 0.5, "neighbour_window_share": 0.5,
        "isolated_frac": 5 / 6}


def test_snapshot_at_2000_stocks_needs_no_dense_matrix():
    # a dense N x N float64 matrix alone is 30.5 MiB at N = 2000
    rng = np.random.default_rng(40)
    n = 2000
    features = rng.standard_normal((n, 28)) * rng.uniform(0.2, 2.0, (n, 1))
    tracemalloc.start()
    try:
        graph = eg.snapshot(0, features, 0.02, 7, 0.25).adjacency
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.rows == n and graph.src.size > n      # some kept neighbours
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# CsrGraph conversions
# ---------------------------------------------------------------------------

def test_from_dense_round_trips_through_the_dense_matrix():
    rng = np.random.default_rng(41)
    dense = rng.random((6, 6)) * (rng.random((6, 6)) < 0.4)
    dense[2, 2] = 0.0
    graph = from_dense(dense)
    assert set(zip(graph.dst, graph.src)) >= {(i, i) for i in range(6)}   # every self-loop
    np.testing.assert_array_equal(np.asarray(graph), dense)
    assert np.asarray(graph, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError):
        np.array(graph, copy=False)
    with pytest.raises(ShapeError, match="square"):
        from_dense(np.zeros((2, 3)))


def test_graph_arrays_are_read_only():
    # the attention index arrays are built from them once, so they must not change
    graph = from_dense(np.array([[0.5, 0.5], [0.0, 1.0]]))
    for array in (graph.indptr, graph.src, graph.weight):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_stack_offsets_sources_and_keeps_each_snapshots_self_loops():
    a = from_dense(np.zeros((3, 3)))                                  # self-loops only
    b = from_dense(np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.2, 0.0, 0.9]]))
    graph = eg.stack([a, b])
    assert (graph.rows, graph.n, graph.shape) == (6, 3, (6, 6))
    np.testing.assert_array_equal(graph.indptr, [0, 1, 2, 3, 5, 6, 8])
    np.testing.assert_array_equal(graph.src, [0, 1, 2, 3, 4, 4, 3, 5])
    expected = np.zeros((6, 6))
    expected[3:, 3:] = np.asarray(b)
    np.testing.assert_array_equal(np.asarray(graph), expected)           # block-diagonal
    with pytest.raises(ShapeError, match="equal n"):
        eg.stack([a, from_dense(np.eye(2))])


# ---------------------------------------------------------------------------
# sector_adjacency
# ---------------------------------------------------------------------------

def test_single_sector_is_uniform():
    tickers = ["A", "B", "C", "D"]
    adj = eg.sector_adjacency({t: "tech" for t in tickers}, tickers)
    np.testing.assert_allclose(adj, 0.25)


def test_singleton_sectors_give_identity():
    tickers = ["A", "B", "C"]
    adj = eg.sector_adjacency({t: t for t in tickers}, tickers)
    np.testing.assert_array_equal(adj, np.eye(3))


def test_two_sector_block_structure():
    tickers = ["A", "B", "C", "D", "E"]
    memb = {"A": "x", "B": "x", "C": "y", "D": "y", "E": "y"}
    adj = eg.sector_adjacency(memb, tickers)
    expected = np.zeros((5, 5))
    expected[:2, :2] = 0.5
    expected[2:, 2:] = 1.0 / 3.0
    np.testing.assert_allclose(adj, expected)


def test_missing_sector_is_config_error():
    with pytest.raises(ConfigError, match="B"):
        eg.sector_adjacency({"A": "x"}, ["A", "B"])


# ---------------------------------------------------------------------------
# export_edges
# ---------------------------------------------------------------------------

def test_export_zero_matrix(tmp_path):
    out = tmp_path / "edges.tsv"
    n = eg.export_edges(from_dense(np.zeros((3, 3))), ["A", "B", "C"], out)
    assert n == 0
    assert out.read_text() == "src\tdst\tweight\n"


def test_export_identity_self_loops(tmp_path):
    out = tmp_path / "edges.tsv"
    n = eg.export_edges(from_dense(np.eye(3)), ["A", "B", "C"], out)
    assert n == 3
    lines = out.read_text().strip().split("\n")
    assert lines[1:] == ["A\tA\t1", "B\tB\t1", "C\tC\t1"]


def test_export_count_matches_independent_nonzero_count(tmp_path):
    rng = np.random.default_rng(10)
    adj = sparsify(boltzmann_adjacency(energies_of(rng.standard_normal((5, 4))), 0.5, 10), 0.3)
    expected = sum(1 for i in range(5) for j in range(5) if adj[i, j] != 0.0)
    n = eg.export_edges(from_dense(adj), list("ABCDE"), tmp_path / "e.tsv")
    assert n == expected
    assert len((tmp_path / "e.tsv").read_text().strip().split("\n")) == expected + 1


def test_dense_dump_round_trips(tmp_path):
    rng = np.random.default_rng(11)
    adj = boltzmann_adjacency(energies_of(rng.standard_normal((4, 3))), 0.5, 10)
    out = tmp_path / "adj.csv"
    eg.export_dense(from_dense(adj), list("ABCD"), out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",A,B,C,D"
    parsed = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
    np.testing.assert_array_equal(parsed, adj)
