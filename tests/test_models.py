import numpy as np
import pytest

from geokd import tensor as T
from geokd.errors import DimensionError, ValidationError
from geokd.graphs import Graph, normalize_adjacency, propagated_features, sbm_generate
from geokd.models import (
    GnnModel,
    accuracy,
    build_model,
    forward,
    init_xavier,
    sgc_euler_equivalence,
)
from geokd.tensor import SparseMatrix


@pytest.fixture
def graph():
    return sbm_generate([5, 5], 0.5, 0.2, 4, 0.4, 0)


# --------------------------------------------------------------------------
# construction and initialization


def test_build_model_shapes():
    gcn = build_model("gcn", 8, 16, 3, 4)
    assert gcn.dims == [8, 16, 16, 4]
    assert [w.shape for w in gcn.weights] == [(8, 16), (16, 16), (16, 4)]
    sgc = build_model("sgc", 8, 16, 3, 4)
    assert sgc.dims == [8, 8, 8, 4]
    assert len(sgc.weights) == 1


def test_sgc_requires_uniform_propagation_dims():
    with pytest.raises(ValidationError):
        GnnModel("sgc", [4, 8, 2])


def test_xavier_support_bound():
    model = build_model("gcn", 6, 8, 2, 3)
    init_xavier(model, 0)
    for w in model.weights:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.max(np.abs(w.values)) <= bound


def test_xavier_deterministic():
    a = build_model("gcn", 6, 8, 2, 3)
    b = build_model("gcn", 6, 8, 2, 3)
    init_xavier(a, 5)
    init_xavier(b, 5)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa.values, wb.values)


def test_xavier_sample_mean_near_zero():
    model = GnnModel("gcn", [64, 64])
    init_xavier(model, 1)
    w = model.weights[0].values
    a = np.sqrt(6.0 / 128)
    sigma_mean = (a / np.sqrt(3.0)) / np.sqrt(w.size)
    assert abs(w.mean()) < 3 * sigma_mean


# --------------------------------------------------------------------------
# forward


def test_forward_edgeless_single_layer_is_linear():
    feats = np.random.default_rng(2).normal(size=(4, 3))
    g = Graph(4, [], feats, [0, 1, 0, 1], [0, 1], [2], [3])
    model = GnnModel("gcn", [3, 2])
    init_xavier(model, 3)
    logits, trace = forward(model, g)
    np.testing.assert_allclose(logits.values, feats @ model.weights[0].values, atol=1e-15)
    assert len(trace) == 2
    np.testing.assert_array_equal(trace[0].values, feats)


def test_forward_zero_weights_zero_logits(graph):
    model = build_model("gcn", 4, 8, 3, 2)
    logits, _ = forward(model, graph)
    assert np.all(logits.values == 0.0)


def test_forward_feature_dim_mismatch(graph):
    model = build_model("gcn", 7, 8, 2, 2)
    with pytest.raises(DimensionError):
        forward(model, graph)


def test_sgc_matches_dense_propagation(graph):
    model = GnnModel("sgc", [4, 4, 4], [T.Tensor(np.eye(4))])
    logits, trace = forward(model, graph)
    a = normalize_adjacency(graph).densify()
    expected = a @ (a @ graph.features.values)
    assert np.max(np.abs(logits.values - expected)) < 1e-12
    assert len(trace) == 3


def unfolded_forward(model, g, narrow_side=True):
    """Reference forward that propagates every hop, the features included.

    With ``narrow_side`` a gcn layer after the first propagates its narrower
    side, as ``forward`` does; without, every layer runs (A_hat H) W.
    """
    a_hat = normalize_adjacency(g)
    h, trace = g.features, [g.features]
    if model.kind == "sgc":
        for _ in range(model.num_layers):
            h = T.spmm(a_hat, h)
            trace.append(h)
        return T.matmul(h, model.weights[0]), trace
    for l, w in enumerate(model.weights):
        if narrow_side and l > 0 and w.shape[1] < w.shape[0]:
            h = T.spmm(a_hat, T.matmul(h, w))
        else:
            h = T.matmul(T.spmm(a_hat, h), w)
        if l < model.num_layers - 1:
            h = T.relu(h)
        trace.append(h)
    return h, trace


def _weighted_logit_sum(logits):
    c = np.random.default_rng(12).normal(size=logits.shape)
    return T.sum_all(T.mul_elem(logits, T.constant(c)))


# layer 1 narrows 16 -> 5, layer 2 widens 5 -> 9, layer 3 narrows 9 -> 3
NARROW_WIDEN_DIMS = [6, 16, 5, 9, 3]


def test_narrow_order_matches_wide_first_order():
    g = sbm_generate([14, 11, 15], 0.4, 0.05, 6, 0.5, 4)
    model = GnnModel("gcn", NARROW_WIDEN_DIMS)
    init_xavier(model, 13)
    model.set_trainable(True)
    runs = []
    for fwd in (lambda m, g: unfolded_forward(m, g, narrow_side=False), forward):
        for w in model.weights:
            w.zero_grad()
        logits, trace = fwd(model, g)
        _weighted_logit_sum(logits).backward()
        runs.append(([h.values for h in trace] + [logits.values],
                     [w.grad.copy() for w in model.weights]))
    (got_values, got_grads), (want_values, want_grads) = runs[1], runs[0]
    for got, want in zip(got_values + got_grads, want_values + want_grads):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_grad_check_through_narrowing_layer(graph):
    model = GnnModel("gcn", [4, 8, 3])  # layer 1 propagates A_hat (H W)
    init_xavier(model, 14)
    model.set_trainable(True)
    assert T.grad_check(lambda: _weighted_logit_sum(forward(model, graph)[0]),
                        model.parameters()) < 1e-4


def test_every_spmm_runs_at_the_narrower_width(monkeypatch):
    g = sbm_generate([14, 11, 15], 0.4, 0.05, 6, 0.5, 4)
    model = GnnModel("gcn", NARROW_WIDEN_DIMS)
    init_xavier(model, 15)
    forward(model, g)  # fills the per-graph A_hat X cache
    model.set_trainable(True)
    widths = []
    matmul_dense = SparseMatrix.matmul_dense

    def spy(self, x, *args, **kwargs):
        widths.append(x.shape[1])
        return matmul_dense(self, x, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "matmul_dense", spy)
    logits, _ = forward(model, g)
    forward_widths = list(widths)
    _weighted_logit_sum(logits).backward()
    narrow = [min(d_in, d_out) for d_in, d_out in
              zip(NARROW_WIDEN_DIMS[1:-1], NARROW_WIDEN_DIMS[2:])]
    assert forward_widths == narrow == [5, 5, 3]
    assert widths[len(narrow):] == narrow[::-1]  # backward runs the layers in reverse


@pytest.mark.parametrize("kind", ["gcn", "sgc"])
def test_folded_forward_bit_identical(kind):
    g = sbm_generate([12, 9, 15], 0.4, 0.05, 6, 0.5, 3)
    model = build_model(kind, 6, 8, 3, 3)
    init_xavier(model, 8)
    ref_logits, ref_trace = unfolded_forward(model, g)
    for _ in range(2):  # the second call reads the per-graph cache
        logits, trace = forward(model, g)
        np.testing.assert_array_equal(logits.values, ref_logits.values)
        assert len(trace) == len(ref_trace)
        for h, ref in zip(trace, ref_trace):
            np.testing.assert_array_equal(h.values, ref.values)


def test_folded_forward_gradients_match_unfolded(graph):
    model = build_model("gcn", 4, 8, 3, 2)
    init_xavier(model, 9)
    grads = []
    for fwd in (unfolded_forward, forward):
        model.set_trainable(True)
        for w in model.weights:
            w.zero_grad()
        logits, _ = fwd(model, graph)
        T.sum_all(logits).backward()
        grads.append([w.grad.copy() for w in model.weights])
    for a, b in zip(*grads):
        np.testing.assert_array_equal(a, b)


def test_gcn_trace_is_post_activation(graph):
    model = build_model("gcn", 4, 8, 2, 2)
    init_xavier(model, 4)
    _, trace = forward(model, graph)
    assert len(trace) == 3
    assert np.all(trace[1].values >= 0.0)  # relu output


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_forward_overwrites_only_its_own_products(graph, depth):
    # each relu overwrites the product it reads, which the tape then holds
    # once; the cached propagations it multiplies stay as they were
    model = build_model("gcn", 4, 8, depth, 2)
    init_xavier(model, 5)
    model.set_trainable(True)
    cached = [h.values.copy() for h in propagated_features(graph, 1)]
    for _ in range(2):
        _, trace = forward(model, graph)
    for h, before in zip(propagated_features(graph, 1), cached):
        assert h.values.tobytes() == before.tobytes()
    for h in trace[1:-1]:
        assert h._parents[0].values is h.values


def test_forward_permutation_equivariance(graph):
    model = build_model("gcn", 4, 8, 3, 2)
    init_xavier(model, 5)
    logits, _ = forward(model, graph)
    rng = np.random.default_rng(6)
    perm = rng.permutation(graph.num_nodes)
    inv = np.argsort(perm)
    g2 = Graph(
        graph.num_nodes,
        [(min(inv[u], inv[v]), max(inv[u], inv[v])) for u, v in graph.edges],
        graph.features.values[perm],
        graph.labels[perm],
        inv[graph.train_mask],
        inv[graph.val_mask],
        inv[graph.test_mask],
    )
    logits2, _ = forward(model, g2)
    np.testing.assert_allclose(logits2.values, logits.values[perm], atol=1e-12)


def test_forward_pure_function(graph):
    model = build_model("gcn", 4, 8, 2, 2)
    init_xavier(model, 7)
    first, _ = forward(model, graph)
    second, _ = forward(model, graph)
    np.testing.assert_array_equal(first.values, second.values)


def test_accuracy_helper():
    logits = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
    labels = np.array([0, 1, 1])
    assert accuracy(logits, labels, np.array([0, 1, 2])) == pytest.approx(2 / 3)


def test_accuracy_rejects_empty_mask():
    with pytest.raises(ValidationError, match="empty mask"):
        accuracy(np.zeros((2, 2)), np.array([0, 1]), np.array([], dtype=np.int64))


# --------------------------------------------------------------------------
# Euler correspondence


def test_euler_zero_steps(graph):
    x0 = np.random.default_rng(8).normal(size=(graph.num_nodes, 3))
    assert sgc_euler_equivalence(graph, x0, 0) == 0.0


def test_euler_matches_propagation(graph):
    x0 = np.random.default_rng(9).normal(size=(graph.num_nodes, 3))
    assert sgc_euler_equivalence(graph, x0, 3) < 1e-12


def test_euler_deviation_scale_invariant(graph):
    x0 = np.random.default_rng(10).normal(size=(graph.num_nodes, 2))
    d1 = sgc_euler_equivalence(graph, x0, 2)
    d2 = sgc_euler_equivalence(graph, 1000.0 * x0, 2)
    assert d2 < 1e-9  # linearity: deviation stays at rounding level


def test_euler_rejects_negative_steps(graph):
    with pytest.raises(ValidationError):
        sgc_euler_equivalence(graph, np.zeros((graph.num_nodes, 1)), -1)


# --------------------------------------------------------------------------
# checkpointing


def test_checkpoint_roundtrip(tmp_path):
    model = build_model("gcn", 5, 7, 2, 3)
    init_xavier(model, 11)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = GnnModel.load(path)
    assert loaded.kind == model.kind
    assert loaded.dims == model.dims
    for wa, wb in zip(loaded.weights, model.weights):
        np.testing.assert_array_equal(wa.values, wb.values)
