import numpy as np
import pytest

from geokd import tensor as T
from geokd.distill import (
    DistillConfig,
    InverseNhkMapper,
    _sq_residual,
    distill_loss,
    factored_reconstruction_loss,
    inverse_nhk_gram,
    kd_soft_label_loss,
    layer_avg_distill,
    pgkd_span,
    reconstruction_loss,
    teacher_kernels,
    teacher_layer_kernels,
    weight_matrix,
)
from geokd.errors import DimensionError, ValidationError
from geokd.graphs import Graph, adjacency, sbm_generate
from geokd.models import build_model, forward, init_xavier
from geokd.nhk import KernelSpec, kernel_matrix
from geokd.training import sample_distill_batch


def sides(t_feats, s_trace, spec, g, delta, ids=None):
    """The teacher sides ``layer_avg_distill`` reads, at the student's widths."""
    return teacher_kernels(t_feats, [h.shape[1] for h in s_trace], spec, adjacency(g, ids), delta)


def align(h_s, h_t, adj, delta, spec):
    """kernel_alignment of h_s against a teacher side built from h_t's rows."""
    return T.kernel_alignment(h_s, T.TeacherKernel(h_t.values, spec, adj, delta))


def dense_adjacency(g):
    a = np.zeros((g.num_nodes, g.num_nodes))
    a[g.edges[:, 0], g.edges[:, 1]] = a[g.edges[:, 1], g.edges[:, 0]] = 1.0
    return a


def two_node_graph(edges=((0, 1),), delta_labels=(0, 1)):
    return Graph(2, list(edges), np.eye(2), list(delta_labels), [0, 1], [], [])


# --------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValidationError):
        DistillConfig(alpha=-1.0)
    with pytest.raises(ValidationError):
        DistillConfig(alpha_kd=1.0)
    with pytest.raises(ValidationError):
        DistillConfig(tau_kd=0.0)
    with pytest.raises(ValidationError):
        DistillConfig(batch_size=0)


# --------------------------------------------------------------------------
# weighting matrix


def test_weight_matrix_all_ones_at_delta_one():
    g = sbm_generate([3, 3], 0.5, 0.2, 2, 0.1, 0)
    w = weight_matrix(g, 1.0, np.arange(6)).values
    np.testing.assert_array_equal(w, np.ones((6, 6)))


def test_weight_matrix_zero_on_edgeless():
    g = Graph(3, [], np.zeros((3, 1)), [0, 0, 0], [0], [], [])
    w = weight_matrix(g, 0.0, np.arange(3)).values
    np.testing.assert_array_equal(w, np.zeros((3, 3)))


def test_weight_matrix_hand_case():
    w = weight_matrix(two_node_graph(), 0.5, [0, 1]).values
    np.testing.assert_array_equal(w, [[0.5, 1.0], [1.0, 0.5]])


def test_weight_matrix_respects_subset():
    g = sbm_generate([4, 4], 0.9, 0.1, 2, 0.0, 1)
    subset = np.array([1, 3, 5])
    w = weight_matrix(g, 0.25, subset).values
    adj = dense_adjacency(g)[np.ix_(subset, subset)]
    np.testing.assert_array_equal(w, 0.25 + 0.75 * adj)
    with pytest.raises(ValidationError):
        weight_matrix(g, 0.5, [0, 99])


def reference_weight_matrix(g, delta, subset):
    return delta + (1.0 - delta) * dense_adjacency(g)[np.ix_(subset, subset)]


@pytest.mark.parametrize("delta", [0.0, 0.4, 1.0, 2.5])
def test_weight_matrix_matches_dense_adjacency(delta):
    rng = np.random.default_rng(14)
    g = sbm_generate([12, 9, 7], 0.5, 0.1, 3, 0.1, 15)
    subsets = [
        np.arange(g.num_nodes),
        rng.permutation(g.num_nodes)[:10],
        rng.integers(0, g.num_nodes, size=25),  # repeated ids
        np.array([4, 4, 4]),
        np.array([7]),
    ]
    for subset in subsets:
        w = weight_matrix(g, delta, subset).values
        assert w.tobytes() == reference_weight_matrix(g, delta, subset).tobytes()


def test_weight_matrix_repeated_ids_on_edgeless_and_single_node():
    g = Graph(3, [], np.zeros((3, 1)), [0, 0, 0], [0], [], [])
    w = weight_matrix(g, 0.3, [2, 0, 2]).values
    assert w.tobytes() == reference_weight_matrix(g, 0.3, [2, 0, 2]).tobytes()
    g1 = Graph(1, [], [[1.0]], [0], [0], [], [])
    np.testing.assert_array_equal(weight_matrix(g1, 0.5, [0, 0]).values, np.full((2, 2), 0.5))


# --------------------------------------------------------------------------
# alignment loss


def test_distill_loss_identical_kernels():
    k = T.Tensor(np.random.default_rng(0).random((4, 4)))
    w = T.Tensor(np.ones((4, 4)))
    assert distill_loss(k, k, w).item() == 0.0


def test_distill_loss_hand_case():
    k_t = T.Tensor([[0.1, 0.2], [0.2, 0.3]])
    k_s = T.Tensor(np.zeros((2, 2)))
    w = weight_matrix(two_node_graph(), 0.0, [0, 1])
    assert distill_loss(k_t, k_s, w).item() == pytest.approx(0.08, abs=1e-12)


def test_distill_loss_monotone_in_delta():
    g = two_node_graph()
    k_t = T.Tensor([[0.5, 0.1], [0.1, 0.7]])
    k_s = T.Tensor(np.zeros((2, 2)))
    lo = distill_loss(k_t, k_s, weight_matrix(g, 0.0, [0, 1])).item()
    hi = distill_loss(k_t, k_s, weight_matrix(g, 1.0, [0, 1])).item()
    assert hi >= lo


def test_distill_loss_detaches_teacher():
    k_t = T.Tensor(np.eye(3), requires_grad=True)
    k_s = T.Tensor(np.zeros((3, 3)), requires_grad=True)
    loss = distill_loss(k_t, k_s, T.Tensor(np.ones((3, 3))))
    loss.backward()
    assert k_t.grad is None
    assert k_s.grad is not None


def test_distill_loss_shape_mismatch():
    with pytest.raises(DimensionError):
        distill_loss(T.Tensor(np.eye(2)), T.Tensor(np.eye(3)), T.Tensor(np.eye(3)))


# --------------------------------------------------------------------------
# layer-averaged loss


@pytest.fixture
def small_setup():
    g = sbm_generate([3, 3], 0.7, 0.2, 4, 0.4, 2)
    teacher = build_model("gcn", 4, 5, 2, 2)
    init_xavier(teacher, 0)
    student = build_model("gcn", 4, 5, 2, 2)
    init_xavier(student, 1)
    _, t_trace = forward(teacher, g)
    _, s_trace = forward(student, g)
    w = weight_matrix(g, 0.4, np.arange(g.num_nodes))
    return g, [h.values for h in t_trace], s_trace, w


def test_layer_avg_zero_for_equal_traces(small_setup):
    g, t_feats, s_trace, w = small_setup
    spec = KernelSpec(kind="gauss", t=1.0)
    cfg = DistillConfig(alpha=3.0)
    same = [T.Tensor(f) for f in t_feats]
    loss = layer_avg_distill(sides(t_feats, same, spec, g, cfg.delta), same, spec,
                             cfg.alpha).item()
    assert loss == pytest.approx(0.0, abs=1e-20)


def test_layer_avg_zero_alpha(small_setup):
    g, t_feats, s_trace, w = small_setup
    spec = KernelSpec(kind="gauss")
    loss = layer_avg_distill(sides(t_feats, s_trace, spec, g, 0.0), s_trace, spec, 0.0)
    assert loss.item() == 0.0


def test_layer_avg_matches_manual_loop(small_setup):
    g, t_feats, s_trace, w = small_setup
    spec = KernelSpec(kind="gauss", t=0.8)
    cfg = DistillConfig(alpha=2.5, delta=0.4)
    loss = layer_avg_distill(sides(t_feats, s_trace, spec, g, cfg.delta), s_trace, spec,
                             cfg.alpha).item()
    manual = 0.0
    for l in range(1, len(s_trace) - 1):  # entry 0 is X on both sides and skipped
        k_t = kernel_matrix(spec, T.Tensor(t_feats[l])).values
        k_s = kernel_matrix(spec, T.Tensor(s_trace[l].values)).values
        manual += np.sum((w.values * (k_t - k_s)) ** 2)
    manual *= 2.5 / (len(s_trace) - 1)
    assert abs(loss - manual) < 1e-10


def test_layer_avg_trace_length_mismatch(small_setup):
    g, t_feats, s_trace, w = small_setup
    with pytest.raises(DimensionError):
        layer_avg_distill(sides(t_feats[:-1], s_trace, KernelSpec(), g, 0.0), s_trace,
                          KernelSpec(), 1.0)


# --------------------------------------------------------------------------
# inverse kernel and reconstruction


def test_inverse_gram_zero_weights():
    mapper = InverseNhkMapper(4, 8)
    k = inverse_nhk_gram(mapper, T.Tensor(np.random.default_rng(3).random((5, 4))))
    np.testing.assert_array_equal(k.values, np.zeros((5, 5)))


def test_inverse_gram_symmetric_psd():
    mapper = InverseNhkMapper(4, 8)
    mapper.init(0)
    k = inverse_nhk_gram(mapper, T.Tensor(np.random.default_rng(4).random((6, 4)))).values
    assert np.max(np.abs(k - k.T)) < 1e-12
    assert np.linalg.eigvalsh(0.5 * (k + k.T)).min() >= -1e-10


def test_reconstruction_exact_recovery_gives_zero():
    h_late = T.Tensor(np.eye(3))
    h_early = T.Tensor(np.eye(3))
    k = T.Tensor(np.eye(3))
    assert reconstruction_loss(k, h_late, h_early).item() == 0.0


def test_reconstruction_scalar_case():
    # single node: loss (2c - 1)^2, minimized at c = 0.5
    for c, expected in ((0.0, 1.0), (0.5, 0.0), (1.0, 1.0)):
        k = T.Tensor([[c]])
        loss = reconstruction_loss(k, T.Tensor([[2.0]]), T.Tensor([[1.0]]))
        assert loss.item() == pytest.approx(expected)


def test_sq_residual_sums_both_reads_of_its_shared_difference():
    # mul_elem(diff, diff) reads diff twice: the walk frees diff only after
    # both contributions have reached it, so d/dR ||R - H||^2 = 2 (R - H) exactly
    rng = np.random.default_rng(5)
    recon, target = T.parameter(rng.standard_normal((6, 3))), rng.standard_normal((6, 3))
    _sq_residual(recon, T.constant(target)).backward()
    assert recon.grad.tobytes() == (2.0 * (recon.values - target)).tobytes()


def test_mapper_tanh_overwrites_its_product_and_keeps_its_gradient():
    h = T.constant(np.random.default_rng(4).standard_normal((5, 3)))
    grads = []
    for inplace in (False, True):
        mapper = InverseNhkMapper(3, 6)
        mapper.init(1)
        if inplace:
            out = mapper.apply(h)
            assert out._parents[0].values is out.values
        else:
            out = T.tanh(T.matmul(h, mapper.weight))
        T.sum_all(T.mul_elem(out, out)).backward()
        grads.append(mapper.weight.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_reconstruction_gradient_wrt_mapper():
    mapper = InverseNhkMapper(3, 6)
    mapper.init(1)
    h_late = T.Tensor(np.random.default_rng(5).normal(size=(4, 3)))
    h_early = T.Tensor(np.random.default_rng(6).normal(size=(4, 3)))

    def f():
        return reconstruction_loss(inverse_nhk_gram(mapper, h_late), h_late, h_early)

    assert T.grad_check(f, mapper.parameters()) < 1e-4


# --------------------------------------------------------------------------
# factored inverse-kernel losses against the dense reference


def factor_graphs():
    """Seeded random graphs, one without edges, one with isolated nodes, n=1."""
    rng = np.random.default_rng(16)
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.4]
    return [
        sbm_generate([6, 5], 0.6, 0.2, 3, 0.5, 17),
        Graph(5, [], rng.normal(size=(5, 3)), [0] * 5, [0], [], []),
        Graph(9, edges, rng.normal(size=(9, 3)), [0] * 9, [0], [], []),  # 7, 8 isolated
        Graph(1, [], [[0.3, -0.2, 0.9]], [0], [0], [], []),
    ]


def assert_close_rel(got, want, rtol=1e-12):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= rtol * scale


PARAMETRIC = KernelSpec(kind="parametric")


def inverse_kernel_alignments(phi_t, phi_s, adj, delta):
    """pgkd's alignment loss and its gradient wrt Phi_s, from the op's edge sum
    and each of its all-pairs sums (row blocks, r x r Grams), weighted as the
    op weighs them: each part gives its loss and Q u, mapped once."""
    hs, ht, d2 = phi_s.values, phi_t.values, delta ** 2
    ops_s, ops_t = T._kernel_operands(PARAMETRIC, hs), T._kernel_operands(PARAMETRIC, ht)
    edge, edge_qu = T._edge_alignment(hs, T._edge_kernel(PARAMETRIC, ops_s, adj),
                                      T._edge_kernel(PARAMETRIC, ops_t, adj), adj, PARAMETRIC, True)
    return [((1 - d2) * edge + d2 * loss, T._gradient(PARAMETRIC, (1 - d2) * edge_qu + d2 * qu, hs))
            for loss, qu in (T._blocked_alignment(ops_s, ops_t, PARAMETRIC, True),
                             T._gram_alignment(hs, ht, True))]


def loss_and_grads(f, params):
    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    return loss.item(), [np.zeros_like(p.values) if p.grad is None else p.grad.copy()
                         for p in params]


@pytest.mark.parametrize("delta", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("case", range(4))
def test_factored_distill_matches_dense(case, delta):
    g = factor_graphs()[case]
    n = g.num_nodes
    rng = np.random.default_rng([18, case])
    mapper_t, mapper_s = InverseNhkMapper(4, 6), InverseNhkMapper(4, 6)
    mapper_t.init(19)
    mapper_s.init(20)
    h_t = T.constant(rng.normal(size=(n, 4)))
    h_s = T.parameter(rng.normal(size=(n, 4)))
    params = [h_s, mapper_s.weight, mapper_t.weight]

    def dense():
        w = weight_matrix(g, delta, np.arange(n))
        return distill_loss(inverse_nhk_gram(mapper_t, h_t), inverse_nhk_gram(mapper_s, h_s), w)

    want, want_grads = loss_and_grads(dense, params)
    adj = adjacency(g)
    got, got_grads = loss_and_grads(lambda: align(
        mapper_s.apply(h_s), mapper_t.apply(h_t), adj, delta, PARAMETRIC), params)
    assert abs(got - want) <= 1e-12 * abs(want)
    for gg, wg in zip(got_grads, want_grads):
        assert_close_rel(gg, wg)
    assert not np.any(got_grads[2])  # the teacher factor is detached
    # both all-pairs sums, whatever n and r
    phi_s, phi_t = T.parameter(mapper_s.apply(h_s).values), mapper_t.apply(h_t)
    want, (want_grad,) = loss_and_grads(lambda: distill_loss(
        T.gram(phi_t), T.gram(phi_s), weight_matrix(g, delta, np.arange(n))), [phi_s])
    for got, got_grad in inverse_kernel_alignments(phi_t, phi_s, adj, delta):
        assert abs(got - want) <= 1e-12 * abs(want)
        assert_close_rel(got_grad, want_grad)


@pytest.mark.parametrize("delta", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("case", range(4))
def test_randomized_full_graph_alignment_matches_dense(case, delta):
    # every node and a batch of every node, against the n x n kernels and a
    # dense W at entry 1, the one aligned (entry 0 is skipped); factors of
    # width r = 3 s walk row blocks at s = 2d (r >= 18), and at s = 1 take
    # r x r Grams wherever n >= 6
    g = factor_graphs()[case]
    n = g.num_nodes
    rng = np.random.default_rng([21, case])
    cfg = DistillConfig(alpha=1.5, delta=delta)
    t_feats = [rng.normal(size=(n, 3)), rng.normal(size=(n, 5)), rng.normal(size=(n, 2))]
    s_trace = [T.constant(rng.normal(size=(n, 3))), T.parameter(rng.normal(size=(n, 4))),
               T.parameter(rng.normal(size=(n, 2)))]
    params = s_trace[1:]
    w = weight_matrix(g, delta, np.arange(n))
    for s in (None, 1):
        spec = KernelSpec(kind="randomized", t=1.0, m=2, s=s, seed=case)
        k_t = teacher_layer_kernels(t_feats, [h.shape[1] for h in s_trace], spec)
        assert len(k_t) == 1
        want, want_grads = loss_and_grads(lambda: T.scale(
            distill_loss(k_t[0], kernel_matrix(spec, s_trace[1]), w), cfg.alpha / 2), params)
        for ids in (None, np.arange(n)):
            got, got_grads = loss_and_grads(
                lambda: layer_avg_distill(sides(t_feats, s_trace, spec, g, cfg.delta, ids),
                                          s_trace, spec, cfg.alpha), params)
            assert abs(got - want) <= 1e-12 * abs(want)
            for gg, wg in zip(got_grads, want_grads):
                assert_close_rel(gg, wg)


@pytest.mark.parametrize("case", range(4))
def test_factored_reconstruction_matches_dense(case):
    g = factor_graphs()[case]
    rng = np.random.default_rng([21, case])
    mapper = InverseNhkMapper(3, 5)
    mapper.init(22)
    h_late = T.parameter(rng.normal(size=(g.num_nodes, 3)))
    h_early = T.parameter(rng.normal(size=(g.num_nodes, 3)))
    params = [mapper.weight, h_late, h_early]
    want, want_grads = loss_and_grads(
        lambda: reconstruction_loss(inverse_nhk_gram(mapper, h_late), h_late, h_early), params)
    got, got_grads = loss_and_grads(
        lambda: factored_reconstruction_loss(mapper.apply(h_late), h_late, h_early), params)
    assert abs(got - want) <= 1e-12 * abs(want)
    for gg, wg in zip(got_grads, want_grads):
        assert_close_rel(gg, wg)


@pytest.mark.parametrize("delta", [0.0, 0.4, 1.0])
def test_factored_distill_identical_factors_zero(delta):
    g = sbm_generate([6, 5], 0.6, 0.2, 3, 0.5, 23)
    phi = T.parameter(np.tanh(np.random.default_rng(24).normal(size=(g.num_nodes, 6))))
    loss = align(phi, phi, adjacency(g), delta, PARAMETRIC)
    assert loss.item() == 0.0
    loss.backward()
    assert not np.any(phi.grad)
    for loss, grad in inverse_kernel_alignments(phi, phi, adjacency(g), delta):
        assert loss == 0.0 and not np.any(grad)


def test_factored_losses_check_shapes():
    g = sbm_generate([3, 3], 0.6, 0.2, 3, 0.5, 25)
    phi = T.Tensor(np.ones((6, 4)))
    with pytest.raises(DimensionError):
        align(T.Tensor(np.ones((5, 4))), T.Tensor(np.ones((5, 4))), adjacency(g), 0.4,
              PARAMETRIC)
    with pytest.raises(DimensionError):
        factored_reconstruction_loss(phi, T.Tensor(np.ones((5, 2))), T.Tensor(np.ones((5, 2))))
    with pytest.raises(DimensionError):
        factored_reconstruction_loss(phi, T.Tensor(np.ones((6, 2))), T.Tensor(np.ones((6, 3))))


def test_pgkd_span_choices():
    assert pgkd_span(build_model("gcn", 6, 8, 3, 2)) == (1, 2)
    assert pgkd_span(build_model("sgc", 6, 8, 3, 2)) == (0, 3)
    with pytest.raises(ValidationError):
        pgkd_span(build_model("gcn", 6, 8, 1, 2))


# --------------------------------------------------------------------------
# soft-label loss


def test_kd_identical_logits_zero():
    z = T.Tensor(np.random.default_rng(7).normal(size=(4, 3)))
    assert kd_soft_label_loss(z.values, z, 2.0, [0, 1, 2, 3]).item() == pytest.approx(0.0, abs=1e-15)


def test_kd_swapped_logits_value():
    # independent evaluation of tau^2 * KL(softmax(t) || softmax(s))
    t = np.array([[1.0, 0.0]])
    s = T.Tensor([[0.0, 1.0]])
    pt = np.exp(t) / np.exp(t).sum()
    ps = np.exp(s.values) / np.exp(s.values).sum()
    expected = float((pt * (np.log(pt) - np.log(ps))).sum())
    assert kd_soft_label_loss(t, s, 1.0, [0]).item() == pytest.approx(expected, abs=1e-12)


def test_kd_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(5):
        t = rng.normal(size=(3, 4))
        s = T.Tensor(rng.normal(size=(3, 4)))
        assert kd_soft_label_loss(t, s, 0.5, [0, 1, 2]).item() >= -1e-12


def test_kd_empty_mask_errors():
    with pytest.raises(ValidationError):
        kd_soft_label_loss(np.zeros((2, 2)), T.Tensor(np.zeros((2, 2))), 1.0, [])


def test_kd_gradient():
    s = T.Tensor(np.random.default_rng(9).normal(size=(4, 3)), requires_grad=True)
    t = np.random.default_rng(10).normal(size=(4, 3))
    assert T.grad_check(lambda: kd_soft_label_loss(t, s, 2.0, [0, 2, 3]), [s]) < 1e-4


# --------------------------------------------------------------------------
# mini-batch distillation is unbiased over pairs


def test_minibatch_loss_matches_full_in_expectation():
    rng = np.random.default_rng(11)
    g = sbm_generate([25, 25], 0.3, 0.1, 4, 0.5, 12)
    n, b = g.num_nodes, 20
    h_t = rng.normal(size=(n, 4))
    h_s = rng.normal(size=(n, 4))
    spec = KernelSpec(kind="gauss", t=1.0)
    cfg = DistillConfig(alpha=1.0, delta=0.3)

    def pair_loss(ids):  # two layers: entry 1 is the one aligned
        t_feats = [h_t[ids]] * 3
        s_feats = [T.Tensor(h_s[ids])] * 3
        return layer_avg_distill(sides(t_feats, s_feats, spec, g, cfg.delta, ids), s_feats,
                                 spec, cfg.alpha).item()

    full = pair_loss(np.arange(n))
    # gauss kernels have unit diagonals on both sides, so only off-diagonal
    # pairs contribute; scale sampled losses by the pair inclusion ratio
    scale = (n * (n - 1)) / (b * (b - 1))
    batches = [pair_loss(sample_distill_batch(n, b, seed=13, epoch=e)) * scale
               for e in range(200)]
    assert abs(np.mean(batches) - full) / full < 0.05
