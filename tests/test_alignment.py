"""The fused alignment op and each of its parts against the dense reference.

``T.kernel_alignment`` splits W2 = delta^2 + (1 - delta^2) A into a sum over
the adjacency entries (``_edge_alignment``) and, for delta > 0, a sum over all
pairs: row blocks (``_blocked_alignment``) or, for a randomized or parametric
spec with n >= 2r factor rows, r x r Grams (``_gram_alignment``). Each adds in
another order than the dense chain of ``kernel_matrix`` (for a Gram spec,
``gram``), ``weight_matrix`` and ``distill_loss``. The op is checked against
the chain at each delta, the edge sum against the chain at delta 0 (W = A),
and both all-pairs sums against it at delta 1 (W = 1), whatever the shape.
Values and gradients are compared to 1e-12 relative, never bit for bit.
"""

import itertools
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from geokd import tensor as T
from geokd.cli import main
from geokd.distill import (
    DistillConfig,
    distill_loss,
    layer_avg_distill,
    teacher_kernels,
    teacher_layer_kernels,
    weight_matrix,
)
from geokd.errors import DimensionError, ValidationError
from geokd import training
from geokd.graphs import (
    Graph,
    adjacency,
    normalize_adjacency,
    sbm_generate,
    save_graph,
    split_edges,
)
from geokd.models import build_model, init_xavier
from geokd.nhk import KernelSpec, kernel_matrix, kernel_rows
from geokd.tensor import Tensor
from geokd.training import TrainPlan, train_student

SPECS = [KernelSpec(kind="gauss", t=0.25), KernelSpec(kind="gauss", t=1.0),
         KernelSpec(kind="gauss", t=3.0), KernelSpec(kind="sigmoid", a=1.0, b=0.0),
         KernelSpec(kind="sigmoid", a=0.7, b=-0.3), KernelSpec(kind="randomized"),
         KernelSpec(kind="parametric")]
KINDS = ["gauss", "sigmoid", "randomized", "parametric"]
GRAM_KINDS = ("randomized", "parametric")
DELTAS = [0.0, 0.4, 1.0, 1.5]  # at 1.5 the edge weight 1 - delta^2 is negative


def dense_alignment(h_s, h_t, adj, delta, spec):
    """The dense reference, with W = delta + (1 - delta) A; the rows of a
    randomized or parametric spec are the factors of its kernel."""
    w = T.constant(delta + (1.0 - delta) * adj.densify())
    if spec.kind in GRAM_KINDS:
        return distill_loss(T.gram(h_t), T.gram(h_s), w)
    return distill_loss(kernel_matrix(spec, h_t), kernel_matrix(spec, h_s), w)


def align(h_s, h_t, adj, delta, spec):
    """kernel_alignment of h_s against a teacher side built from h_t's rows."""
    return T.kernel_alignment(h_s, T.TeacherKernel(h_t.values, spec, adj, delta))


class RowsKept(T.TeacherKernel):
    """A teacher side that also keeps its rows, for the dense reference."""

    def __init__(self, rows, *args):
        super().__init__(rows, *args)
        self.rows = rows


def dense_of_side(h_s, teacher):
    """``dense_alignment`` with the arguments a ``RowsKept`` side holds."""
    return dense_alignment(h_s, T.constant(teacher.rows), teacher.adj, teacher.delta,
                           teacher.spec)


def loss_and_grad(align, hv_s, hv_t, adj, delta, spec):
    h_s = Tensor(hv_s.copy(), requires_grad=True)
    loss = align(h_s, T.constant(hv_t), adj, delta, spec)
    loss.backward()
    return loss.item(), h_s.grad


def assert_matches_dense(hv_s, hv_t, adj, delta, spec, rtol=1e-12):
    """The op against the dense chain at delta, the edge sum against it at
    delta 0, and the row blocks and, for a Gram spec, the r x r Grams against
    it at delta 1, whatever n and r."""
    def dense(d):
        return loss_and_grad(dense_alignment, hv_s, hv_t, adj, d, spec)

    def part(loss, qu):  # a part's loss and Q u, mapped to its gradient
        return loss, T._gradient(spec, qu, hv_s)

    all_pairs = dense(1.0)
    ops_s, ops_t = T._kernel_operands(spec, hv_s), T._kernel_operands(spec, hv_t)
    k_s, k_t = T._edge_kernel(spec, ops_s, adj), T._edge_kernel(spec, ops_t, adj)
    pairs = [(loss_and_grad(align, hv_s, hv_t, adj, delta, spec), dense(delta)),
             (part(*T._edge_alignment(ops_s[0], k_s, k_t, adj, spec, True)), dense(0.0)),
             (part(*T._blocked_alignment(ops_s, ops_t, spec, True)), all_pairs)]
    if spec.kind in GRAM_KINDS:
        pairs.append((part(*T._gram_alignment(hv_s, hv_t, True)), all_pairs))
    for (got, got_grad), (want, want_grad) in pairs:
        assert abs(got - want) <= rtol * abs(want)
        assert np.max(np.abs(got_grad - want_grad)) <= rtol * np.max(np.abs(want_grad))


def random_graph(n, seed, p=0.2, isolated=0):
    """n nodes, the last ``isolated`` of them without edges."""
    rng = np.random.default_rng(seed)
    linked = n - isolated
    edges = [(u, v) for u in range(linked) for v in range(u + 1, linked) if rng.random() < p]
    return Graph(n, edges, rng.normal(size=(n, 2)), [0] * n, [0], [], [])


def features(n, d, seed, coincident=False):
    h = np.random.default_rng(seed).standard_normal((n, d))
    if coincident and n > 2:
        h[n // 2:] = h[0]  # zero distances and equal inner products
    return h


# n = 700 walks 8 row blocks of 93 rows, n = 300 two blocks; at n = 1100
# 65536 // n is 59, so the 64-row floor applies: 17 blocks of 64 rows and one
# of 12
@pytest.mark.parametrize("n", [1, 2, 7, 64, 300, 700, 1100])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-t{s.t}-a{s.a}-b{s.b}")
def test_matches_dense_over_sizes(n, spec):
    g = random_graph(n, n, p=min(1.0, 4.0 / n))
    adj = adjacency(g)
    assert_matches_dense(features(n, 6, n), features(n, 3, n + 1), adj, 0.4, spec)


# the upper-triangle walk: one block at n = 1 and n = 37 (< 64 rows); at
# n = 700, seven blocks of 93 rows and one of 49, so no multiple of the rows
@pytest.mark.parametrize("n", [1, 37, 700])
@pytest.mark.parametrize("delta", [0.4, 1.0, 1.5])
@pytest.mark.parametrize("kind", KINDS)
def test_upper_triangle_walk_matches_dense(kind, delta, n):
    g = random_graph(n, n + 1, p=min(1.0, 4.0 / n))
    spec = KernelSpec(kind=kind, t=0.6, a=0.8, b=-0.2)
    assert_matches_dense(features(n, 5, n), features(n, 4, n + 2), adjacency(g), delta, spec)


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("delta", [0.0, 0.4])
@pytest.mark.parametrize("kind", ["gauss", "sigmoid", "randomized"])
def test_side_built_once_equals_one_rebuilt_per_call(kind, delta, batch):
    # a teacher side built once and read by three alignments of changing
    # student rows gives the bits of a side built anew for each call, on the
    # full adjacency and on a batch's with repeated ids (at 90 rows, a
    # randomized spec's factors take the r x r Grams)
    g = random_graph(90, 4, p=0.1)
    ids = np.random.default_rng(5).integers(0, 90, size=120) if batch else None
    adj, spec = adjacency(g, ids), KernelSpec(kind=kind, t=0.6, a=0.8, b=-0.2)
    hv_t = features(90, 4, 2)[ids if batch else slice(None)]
    once = T.TeacherKernel(hv_t, spec, adj, delta)
    for step in range(3):
        hv_s = features(90, 5, 10 + step)[ids if batch else slice(None)]
        got = loss_and_grad(lambda h_s, *_: T.kernel_alignment(h_s, once),
                            hv_s, hv_t, adj, delta, spec)
        want = loss_and_grad(align, hv_s, hv_t, adj, delta, spec)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
    # the all-pairs sum's operands are held at delta > 0 alone; a Gram kind's
    # first is the rows themselves
    assert (once.operands is None) == (delta == 0)
    if delta and kind == "randomized":
        assert np.array_equal(once.operands[0], hv_t)
    n = len(hv_t)
    with pytest.raises(DimensionError, match=f"TeacherKernel: rows {n - 1}, adjacency"):
        T.TeacherKernel(hv_t[1:], spec, adj, delta)
    with pytest.raises(DimensionError, match=f"kernel_alignment: rows {n - 1}, teacher adj"):
        T.kernel_alignment(T.parameter(hv_s[1:]), once)


class PerCall:
    """``teacher_kernels``' sides, built anew each time they are read."""

    def __init__(self, build, *args):
        self.build, self.args = build, args

    def __len__(self):
        return len(self.args[0]) - 2

    def __iter__(self):
        return iter(self.build(*self.args))


@pytest.mark.parametrize("delta", [0.0, 0.4])
@pytest.mark.parametrize("kind", ["gauss", "sigmoid", "randomized"])
def test_frozen_sides_built_before_training_give_the_same_run(kind, delta, monkeypatch):
    # a frozen full-graph teacher's sides are built before the student's
    # first forward; the run keeps the bits of one whose sides are rebuilt
    # from the teacher's rows at every alignment
    g_c = sbm_generate([15, 15], 0.4, 0.05, 6, 0.5, 0)
    g = split_edges(g_c, 0.5, 0)
    teacher = build_model("gcn", 6, 8, 3, 2)
    init_xavier(teacher, 1)
    plan = TrainPlan(mode="gkd_offline", epochs=4, seed=2, lr=0.05,
                     kernel=KernelSpec(kind=kind, t=0.6, a=0.8, b=-0.2, m=2),
                     distill=DistillConfig(alpha=1.0, delta=delta))
    events, forward, side_init = [], training.forward, T.TeacherKernel.__init__
    teacher_entries, alive = [], []

    def spy(model, *args):
        events.append(model)
        if model is teacher:
            logits, trace = forward(model, *args)
            teacher_entries.extend(weakref.ref(h.values) for h in trace[1:-1])
            return logits, trace
        alive.append([ref() is not None for ref in teacher_entries])
        return forward(model, *args)

    monkeypatch.setattr(training, "forward", spy)
    monkeypatch.setattr(T.TeacherKernel, "__init__", lambda self, *a: events.append(
        ("side", a[3])) or side_init(self, *a))
    student = build_model("gcn", 6, 8, 3, 2)
    got = [r.public_dict() for r in train_student(plan, g, g_c, teacher, student).metrics]
    assert events[:4] == [teacher, ("side", delta), ("side", delta), student]
    # from the student's first forward on, the teacher's trace lives on only
    # as the operands of a sigmoid side at delta > 0, which are the rows
    kept = delta > 0 and kind == "sigmoid"
    assert alive[0] == [kept, kept]
    monkeypatch.setattr(training, "teacher_kernels",
                        lambda *args: PerCall(teacher_kernels, *args))
    student = build_model("gcn", 6, 8, 3, 2)
    want = [r.public_dict() for r in train_student(plan, g, g_c, teacher, student).metrics]
    assert got == want


@pytest.mark.parametrize("block", [T._BLOCK_FLOATS, 8])  # at 8, chunks of 2 or 3 rows
@pytest.mark.parametrize("operator", ["adjacency", "normalized", "batch"])
@pytest.mark.parametrize("kind", ["gauss", "sigmoid", "randomized"])
def test_edge_kernel_is_the_dense_kernel_at_the_stored_entries(kind, operator, block,
                                                               monkeypatch):
    monkeypatch.setattr(T, "_BLOCK_FLOATS", block)
    g = sbm_generate([30, 30], 0.3, 0.03, 4, 0.5, 6)
    ids = np.random.default_rng(7).integers(0, 60, size=90)  # repeats ids
    adj = {"adjacency": adjacency(g), "normalized": normalize_adjacency(g),
           "batch": adjacency(g, ids)}[operator]
    spec = KernelSpec(kind=kind, t=0.6, a=0.8, b=-0.2, m=2)
    h = T.constant(features(adj.shape[0], 5, 8))
    rows = kernel_rows(spec, h)  # a randomized kernel's factors
    got = T._edge_kernel(spec, T._kernel_operands(spec, rows.values), adj)
    want = kernel_matrix(spec, h).values
    assert len(got) == adj.nnz
    for r, lo, idx, _ in adj._buckets:
        np.testing.assert_allclose(got[lo:lo + idx.size].reshape(idx.shape), want[r, idx],
                                   rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("mode,batch_size", [("gkd_offline", None), ("gkd_offline", 8),
                                             ("online", None)])
def test_frozen_full_graph_teacher_edge_values_once_per_run(mode, batch_size, monkeypatch):
    # each epoch aligns entries 1 and 2: their student sides always, and the
    # teacher's only for a batched or online teacher; a frozen full-graph
    # teacher's two layers are computed once, when its rows are built
    g_c = sbm_generate([15, 15], 0.4, 0.05, 6, 0.5, 0)
    g = split_edges(g_c, 0.5, 0)
    teacher = build_model("gcn", 6, 8, 3, 2)
    init_xavier(teacher, 1)
    calls, edge_kernel = [], T._edge_kernel

    def spy(*args):
        calls.append(args)
        return edge_kernel(*args)

    monkeypatch.setattr(T, "_edge_kernel", spy)
    epochs = 4
    plan = TrainPlan(mode=mode, epochs=epochs, seed=2, lr=0.05, kernel=KernelSpec(kind="gauss"),
                     distill=DistillConfig(alpha=1.0, delta=0.4, batch_size=batch_size))
    train_student(plan, g, g_c, teacher, build_model("gcn", 6, 8, 3, 2))
    frozen = mode == "gkd_offline" and batch_size is None
    assert len(calls) == 2 * epochs + (2 if frozen else 2 * epochs)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("case", ["edges", "no_edges", "isolated", "coincident"])
@pytest.mark.parametrize("kind", KINDS)
def test_matches_dense_on_graph_cases(kind, case, delta):
    n = 40
    g = random_graph(n, 3, p=0.0 if case == "no_edges" else 0.15,
                     isolated=10 if case == "isolated" else 0)
    spec = KernelSpec(kind=kind, t=0.7, a=1.3, b=0.4)
    hv_s = features(n, 5, 4, coincident=case == "coincident")
    hv_t = features(n, 8, 5, coincident=case == "coincident")
    assert_matches_dense(hv_s, hv_t, adjacency(g), delta, spec)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("kind", KINDS)
def test_batch_with_repeated_ids_matches_weight_matrix(kind, delta):
    g = sbm_generate([12, 12], 0.4, 0.1, 4, 0.5, 3)
    ids = np.array([0, 5, 5, 13, 2, 23, 0, 7, 19, 19, 11])
    spec = KernelSpec(kind=kind, t=0.5, a=2.0, b=0.3)
    hv_s, hv_t = features(24, 6, 1)[ids], features(24, 4, 2)[ids]
    adj = adjacency(g, ids)
    assert np.array_equal(delta + (1.0 - delta) * adj.densify(),
                          weight_matrix(g, delta, ids).values)
    assert_matches_dense(hv_s, hv_t, adj, delta, spec)


@pytest.mark.parametrize("kind", ["gauss", "sigmoid", "randomized"])
def test_every_batch_layer_runs_the_blocked_op(kind, monkeypatch):
    g = sbm_generate([12, 12], 0.4, 0.1, 4, 0.5, 3)
    ids = np.array([0, 5, 5, 13, 2, 23, 0, 7, 19, 19, 11])
    rng = np.random.default_rng(8)
    t_feats = [rng.normal(size=(11, w)) for w in (4, 6, 3, 2)]
    s_trace = [T.parameter(rng.normal(size=(11, w))) for w in (4, 3, 5, 2)]
    calls, op = [], T.kernel_alignment

    def recording_op(h_s, teacher):
        calls.append((h_s.shape, teacher.operands[0].shape, teacher.adj.shape))
        return op(h_s, teacher)

    monkeypatch.setattr(T, "kernel_alignment", recording_op)
    spec = KernelSpec(kind=kind, m=2)
    teachers = teacher_kernels(t_feats, [h.shape[1] for h in s_trace], spec,
                               adjacency(g, ids), 0.4)
    layer_avg_distill(teachers, s_trace, spec, 1.0).backward()
    # entries 1 and 2 only; a randomized layer aligns factors of width
    # (m + 1) * 2d, d the student's, and a gauss side's first operand is
    # [h, 1, c]
    widths = {"randomized": [(18, 18), (30, 30)], "gauss": [(3, 8), (5, 5)],
              "sigmoid": [(3, 6), (5, 3)]}[kind]
    assert calls == [((11, w_s), (11, w_t), (11, 11)) for w_s, w_t in widths]


def test_adjacency_expands_repeated_ids():
    g = Graph(4, [(0, 1), (1, 2)], np.zeros((4, 1)), [0] * 4, [0], [], [])
    ids = [1, 0, 1, 3, 2]
    dense = adjacency(g, ids).densify()
    full = np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
    np.testing.assert_array_equal(dense, full[np.ix_(ids, ids)])
    np.testing.assert_array_equal(adjacency(g).densify(), full)
    assert adjacency(g) is adjacency(g)  # the full adjacency is cached


def test_gradient_free_student_and_shape_checks():
    adj = adjacency(random_graph(5, 0))
    hv_s, hv_t, spec = features(5, 2, 0), features(5, 2, 1), KernelSpec(kind="parametric")
    for delta in (0.0, 0.4):
        loss = align(Tensor(hv_s), Tensor(hv_t), adj, delta, spec)
        assert loss._backward is None and loss.item() > 0.0
    ops_s, ops_t = T._kernel_operands(spec, hv_s), T._kernel_operands(spec, hv_t)
    k_s, k_t = T._edge_kernel(spec, ops_s, adj), T._edge_kernel(spec, ops_t, adj)
    for loss, grad in (T._edge_alignment(ops_s[0], k_s, k_t, adj, spec, False),
                       T._blocked_alignment(ops_s, ops_t, spec, False),
                       T._gram_alignment(hv_s, hv_t, False)):
        assert grad is None and loss > 0.0
    with pytest.raises(DimensionError, match=r"kernel_alignment: rows 5, teacher adjacency \(4, 4\)"):
        align(Tensor(features(5, 2, 0)), Tensor(features(4, 2, 1)),
              adjacency(random_graph(4, 0)), 0.4, KernelSpec(kind="parametric"))
    with pytest.raises(DimensionError, match=r"TeacherKernel: rows 4, adjacency \(5, 5\)"):
        align(Tensor(features(4, 2, 0)), Tensor(features(4, 2, 1)), adj, 0.4,
              KernelSpec(kind="gauss"))
    # gkd has no learned kernel to align, and aligns entries 1 .. L-1 of L >= 2
    trace = [T.constant(features(5, 2, seed)) for seed in range(3)]
    with pytest.raises(ValidationError, match="parametric"):
        layer_avg_distill([None], trace, KernelSpec(kind="parametric"), 1.0)
    with pytest.raises(ValidationError, match="two layers"):
        layer_avg_distill([], trace[:2], KernelSpec(), 1.0)


def spy_all_pairs(monkeypatch):
    """The names of the all-pairs sums kernel_alignment runs, in call order."""
    calls = []
    for name in ("_blocked_alignment", "_gram_alignment"):
        def spy(*args, name=name, branch=getattr(T, name)):
            calls.append(name)
            return branch(*args)

        monkeypatch.setattr(T, name, spy)
    return calls


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)], np.zeros((n, 1)), [0] * n, [0], [], [])


@pytest.mark.parametrize("kind,n,r_s,r_t,grams", [
    ("parametric", 1200, 64, 64, True),     # pgkd-nodes: 1,200 student nodes
    ("randomized", 3200, 320, 320, True),   # a full-graph layer of width 32
    ("randomized", 256, 160, 160, False),   # gkd-randomized-batch, batch 256
    ("randomized", 256, 320, 320, False),
    ("randomized", 39, 20, 12, False),      # n = 2r - 1
    ("randomized", 40, 20, 12, True),       # n = 2r
    ("parametric", 40, 12, 20, True),       # r is the wider side
    ("parametric", 39, 12, 20, False),
    ("gauss", 64, 2, 2, False),             # entrywise kernels always walk row blocks
    ("sigmoid", 64, 2, 2, False),
])
def test_gram_branch_from_the_shape(kind, n, r_s, r_t, grams, monkeypatch):
    calls = spy_all_pairs(monkeypatch)
    adj = adjacency(path_graph(n))
    rng = np.random.default_rng(n)
    phi_s = T.parameter(np.tanh(rng.normal(size=(n, r_s))))
    phi_t = T.constant(np.tanh(rng.normal(size=(n, r_t))))
    align(phi_s, phi_t, adj, 0.4, KernelSpec(kind=kind)).backward()
    assert calls == ["_gram_alignment" if grams else "_blocked_alignment"]
    assert phi_s.grad is not None


def test_no_all_pairs_sum_at_delta_zero(monkeypatch):
    calls = spy_all_pairs(monkeypatch)
    rng = np.random.default_rng(9)
    for kind, n in itertools.product(KINDS, (39, 40)):  # both sides of n = 2r
        phi_s = T.parameter(np.tanh(rng.normal(size=(n, 20))))
        phi_t = T.constant(np.tanh(rng.normal(size=(n, 12))))
        align(phi_s, phi_t, adjacency(path_graph(n)), 0.0, KernelSpec(kind=kind)).backward()
        assert phi_s.grad is not None
    # gkd full batch and batched, and pgkd, each at distill.delta's default 0
    g_c = sbm_generate([15, 15], 0.4, 0.05, 6, 0.5, 0)
    g = split_edges(g_c, 0.5, 0)
    teacher = build_model("gcn", 6, 8, 3, 2)
    init_xavier(teacher, 1)
    for mode, kind, batch in [("gkd_offline", "gauss", None), ("gkd_offline", "sigmoid", 8),
                              ("pgkd", "parametric", None)]:
        plan = TrainPlan(mode=mode, epochs=2, seed=2, lr=0.05, kernel=KernelSpec(kind=kind),
                         distill=DistillConfig(batch_size=batch))
        train_student(plan, g, g_c, teacher, build_model("gcn", 6, 8, 3, 2))
    assert calls == []


@pytest.mark.parametrize("kind", ["gauss", "sigmoid"])
def test_layer_avg_full_graph_matches_dense(kind):
    g = sbm_generate([20, 25], 0.3, 0.05, 4, 0.5, 6)
    n = g.num_nodes
    rng = np.random.default_rng(7)
    spec = KernelSpec(kind=kind, t=0.8, a=0.6, b=0.2)
    cfg = DistillConfig(alpha=1.5, delta=0.4)
    t_feats = [rng.normal(size=(n, 4)), rng.normal(size=(n, 6)), rng.normal(size=(n, 2))]
    s_trace = [T.constant(rng.normal(size=(n, 4))), T.parameter(rng.normal(size=(n, 3))),
               T.parameter(rng.normal(size=(n, 2)))]
    teachers = teacher_kernels(t_feats, [h.shape[1] for h in s_trace], spec, adjacency(g),
                               cfg.delta)
    got = layer_avg_distill(teachers, s_trace, spec, cfg.alpha)
    got.backward()
    got_grad = s_trace[1].grad.copy()
    s_trace[1].zero_grad()
    # of the two bridges, the one term left reads trace entry 1 (entry 0,
    # here unlike the teacher's, is skipped); the scale stays alpha / 2
    w = weight_matrix(g, cfg.delta, np.arange(n))
    k_t = teacher_layer_kernels(t_feats, [h.shape[1] for h in s_trace], spec)
    assert len(k_t) == 1
    want = T.scale(distill_loss(k_t[0], kernel_matrix(spec, s_trace[1]), w), cfg.alpha / 2)
    want.backward()
    assert abs(got.item() - want.item()) <= 1e-12 * want.item()
    want_grad = s_trace[1].grad
    assert np.max(np.abs(got_grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


def test_gauss_gkd_full_batch_allocates_no_node_by_node_buffer():
    # one full-batch gauss epoch on 2,000 nodes: no kernel, no W, no teacher kernels
    g_c = sbm_generate([500] * 4, 0.01, 0.001, 8, 0.5, 29)
    g = split_edges(g_c, 0.5, 29)
    teacher = build_model("gcn", 8, 32, 3, 4)
    init_xavier(teacher, 30)
    student = build_model("gcn", 8, 32, 3, 4)
    plan = TrainPlan(mode="gkd_offline", epochs=1, seed=31, lr=0.05,
                     kernel=KernelSpec(kind="gauss", t=1.0),
                     distill=DistillConfig(alpha=1.0, delta=0.4))
    n = g.num_nodes
    tracemalloc.start()
    try:
        train_student(plan, g, g_c, teacher, student)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_gauss_gkd_epoch_at_delta_zero_holds_no_row_block(monkeypatch):
    # one full-batch gauss epoch on 8,000 nodes of width 4, each alignment op
    # measured on its own: at delta = 0 it holds O(n d + |E|) floats and
    # gathers of 65,536, never a b x n row block (b = 64 here); at delta > 0
    # it holds two
    g_c = sbm_generate([2000] * 4, 0.002, 0.0002, 4, 0.5, 29)
    g = split_edges(g_c, 0.5, 29)
    block = 64 * g.num_nodes * 8
    peaks, op = {}, T.kernel_alignment

    def measured(*args):
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = op(*args)
        peaks.setdefault(args[1].delta, []).append(tracemalloc.get_traced_memory()[1] - held)
        return out

    monkeypatch.setattr(T, "kernel_alignment", measured)
    for delta in (0.0, 0.4):
        teacher = build_model("gcn", 4, 4, 3, 4)
        init_xavier(teacher, 30)
        plan = TrainPlan(mode="gkd_offline", epochs=1, seed=31, lr=0.05,
                         kernel=KernelSpec(kind="gauss", t=1.0),
                         distill=DistillConfig(alpha=1.0, delta=delta))
        tracemalloc.start()
        try:
            train_student(plan, g, g_c, teacher, build_model("gcn", 4, 4, 3, 4))
        finally:
            tracemalloc.stop()
    assert len(peaks[0.0]) == len(peaks[0.4]) == 2  # one op per entry 1 and 2
    assert max(peaks[0.0]) < block
    assert min(peaks[0.4]) >= 2 * block


def test_factored_alignment_peaks_below_eight_factor_buffers():
    # the student graph of a pgkd node split at n = 1,600 (about 1,200 nodes
    # and 7,200 edges), with the r = 320 factor columns of a full-graph
    # randomized layer of width 32: the op keeps the Grams and one residual
    # per edge, never an |E| x r gather
    g = sbm_generate([300] * 4, 0.032, 0.0027, 4, 0.5, 32)
    n, r = g.num_nodes, 320
    rng = np.random.default_rng(33)
    phi_t = T.constant(np.tanh(rng.normal(size=(n, r))))
    phi_s = T.parameter(np.tanh(rng.normal(size=(n, r))))
    tracemalloc.start()
    try:
        align(phi_s, phi_t, adjacency(g), 0.4, KernelSpec(kind="parametric")).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges > 6000 and phi_s.grad is not None
    assert peak <= 8 * n * r * 8


def test_cli_gauss_gkd_matches_dense_reference(tmp_path, monkeypatch):
    graph = tmp_path / "g.json"
    save_graph(sbm_generate([15, 15], 0.4, 0.05, 6, 0.5, 0), graph)

    def run(name):
        doc = {"mode": "teacher", "complete_graph": str(graph),
               "split": {"kind": "edges", "pir": 0.5},
               "teacher": {"depth": 3, "hidden": 8}, "student": {"depth": 3, "hidden": 8},
               "kernel": {"kind": "gauss", "t": 0.5}, "distill": {"alpha": 2.0, "delta": 0.4},
               "optimizer": {"lr": 0.05, "epochs": 3}, "out_dir": str(tmp_path / name)}
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train-teacher", "--config", str(cfg)]) == 0
        doc.update(mode="gkd_offline", out_dir=str(tmp_path / name / "student"))
        doc["teacher"]["checkpoint"] = str(tmp_path / name / "teacher.json")
        cfg.write_text(json.dumps(doc))
        assert main(["distill", "--config", str(cfg)]) == 0
        out = tmp_path / name / "student"
        metrics = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        return (out / "summary.json").read_bytes(), metrics

    summary, metrics = run("blocked")
    monkeypatch.setattr(T, "TeacherKernel", RowsKept)
    monkeypatch.setattr(T, "kernel_alignment", dense_of_side)
    summary_ref, metrics_ref = run("dense")
    assert summary == summary_ref
    assert len(metrics) == len(metrics_ref) == 3
    for got, want in zip(metrics, metrics_ref):
        assert got["loss_dis"] > 0.0
        assert abs(got["loss_dis"] - want["loss_dis"]) <= 1e-12 * want["loss_dis"]
        assert {k: v for k, v in got.items() if k != "loss_dis"} == \
            {k: v for k, v in want.items() if k != "loss_dis"}
