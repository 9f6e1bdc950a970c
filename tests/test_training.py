import tracemalloc

import numpy as np
import pytest

from geokd import tensor as T
from geokd import training
from geokd.distill import DistillConfig
from geokd.errors import NumericError, ValidationError
from geokd.graphs import sbm_generate, split_edges, split_nodes
from geokd.models import build_model, forward, init_xavier
from geokd.nhk import KernelSpec
from geokd.training import (
    Adam,
    TrainPlan,
    apply_grid_overrides,
    grid_search,
    sample_distill_batch,
    train_online,
    train_student,
    train_student_gkd,
    train_student_pgkd,
    train_supervised,
)


def quick_plan(**kw):
    base = dict(mode="teacher", epochs=30, seed=0, lr=0.05)
    base.update(kw)
    return TrainPlan(**base)


@pytest.fixture(scope="module")
def graphs():
    g_c = sbm_generate([20, 20], 0.3, 0.05, 6, 0.5, 0)
    g = split_edges(g_c, 0.5, 0)
    return g_c, g


@pytest.fixture(scope="module")
def teacher(graphs):
    g_c, _ = graphs
    model = build_model("gcn", 6, 8, 3, 2)
    train_supervised(g_c, model, quick_plan(epochs=60))
    return model


# --------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_no_update():
    p = T.parameter([[1.0, -2.0]])
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros_like(p.values)
    opt.step()
    np.testing.assert_array_equal(p.values, [[1.0, -2.0]])


def test_adam_first_step_magnitude():
    p = T.parameter([[0.0]])
    opt = Adam([p], lr=0.1)
    p.grad = np.array([[1.0]])
    opt.step()
    assert p.values[0, 0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(0)
        p = T.parameter(rng.normal(size=(3, 3)))
        opt = Adam([p], lr=0.01)
        for step in range(10):
            p.grad = rng.normal(size=(3, 3))
            opt.step()
        return p.values

    np.testing.assert_array_equal(run(), run())


def test_adam_requires_gradients():
    p = T.parameter([[1.0]])
    with pytest.raises(ValidationError):
        Adam([p], lr=0.1).step()


# --------------------------------------------------------------------------
# supervised training


def test_teacher_beats_majority_baseline():
    accs = []
    for seed in range(5):
        g = sbm_generate([30, 30], 0.9, 0.05, 4, 0.5, seed)
        model = build_model("gcn", 4, 8, 2, 2)
        res = train_supervised(g, model, quick_plan(epochs=100, seed=seed))
        accs.append(res.best_test_acc)
    labels_majority = 0.5  # two equal blocks
    assert np.mean(accs) > labels_majority


def test_training_loss_decreases_early():
    g = sbm_generate([30, 30], 0.9, 0.05, 4, 0.3, 1)
    model = build_model("gcn", 4, 8, 2, 2)
    res = train_supervised(g, model, quick_plan(epochs=6, seed=1))
    losses = [m.loss_pre for m in res.metrics]
    assert all(b <= a + 1e-9 for a, b in zip(losses[:5], losses[1:6]))


def test_non_finite_loss_raises_numeric_error(graphs):
    g_c, _ = graphs
    model = build_model("gcn", 6, 8, 3, 2)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="epoch 1: loss_pre"):
        train_supervised(g_c, model, quick_plan(epochs=6, lr=1e150))


def test_online_teacher_non_finite_loss_named(graphs):
    g_c, g = graphs
    plan = quick_plan(mode="online", epochs=6, lr=1e150, distill=DistillConfig(alpha=0.0))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="teacher_loss_pre"):
        train_online(g, g_c, build_model("gcn", 6, 8, 3, 2), build_model("gcn", 6, 8, 3, 2),
                     plan)


def test_zero_epochs_rejected():
    with pytest.raises(ValidationError):
        quick_plan(epochs=0)


def test_empty_train_mask_rejected(graphs):
    g_c, _ = graphs
    from geokd.graphs import Graph

    g_empty = Graph(4, [], np.zeros((4, 2)), [0, 0, 1, 1], [], [0], [1])
    model = build_model("gcn", 2, 4, 2, 2)
    with pytest.raises(ValidationError):
        train_supervised(g_empty, model, quick_plan())


def test_best_checkpoint_restored(graphs):
    g_c, _ = graphs
    model = build_model("gcn", 6, 8, 2, 2)
    res = train_supervised(g_c, model, quick_plan(epochs=40))
    logits, _ = forward(model, g_c)
    from geokd.models import accuracy

    assert accuracy(logits.values, g_c.labels, g_c.val_mask) == pytest.approx(res.best_val_acc)
    assert res.best_val_acc == max(m.val_acc for m in res.metrics)


def test_early_stopping_truncates(graphs):
    g_c, _ = graphs
    model = build_model("gcn", 6, 8, 2, 2)
    res = train_supervised(g_c, model, quick_plan(epochs=200, patience=5))
    assert len(res.metrics) < 200


# --------------------------------------------------------------------------
# reduction: zero distillation weights replay plain training


def weights_equal(a, b, tol=1e-12):
    return all(np.max(np.abs(wa.values - wb.values)) <= tol
               for wa, wb in zip(a.weights, b.weights))


@pytest.mark.parametrize("mode", ["gkd_offline", "pgkd", "online"])
def test_zero_alpha_reduces_to_plain_training(graphs, teacher, mode):
    g_c, g = graphs
    plain = build_model("gcn", 6, 8, 3, 2)
    train_supervised(g, plain, quick_plan(seed=3))

    plan = quick_plan(mode=mode, seed=3,
                      distill=DistillConfig(alpha=0.0, alpha_kd=0.0))
    student = build_model("gcn", 6, 8, 3, 2)
    online_teacher = build_model("gcn", 6, 8, 3, 2)
    if mode == "online":
        train_online(g, g_c, online_teacher, student, plan)
    else:
        train_student(plan, g, g_c, teacher, student)
    assert weights_equal(plain, student)


def test_self_alignment_distill_term_is_zero(graphs):
    # same weights, same graph: per-layer kernels coincide, loss_dis = 0
    g_c, _ = graphs
    model = build_model("gcn", 6, 8, 3, 2)
    init_xavier(model, 9)
    plan = quick_plan(mode="self_distill", epochs=3, seed=9,
                      kernel=KernelSpec(kind="gauss", t=1.0),
                      distill=DistillConfig(alpha=5.0, delta=0.5))
    student = build_model("gcn", 6, 8, 3, 2)
    res = train_student(plan, g_c, g_c, model, student)
    assert res.metrics[0].loss_dis == pytest.approx(0.0, abs=1e-18)


# --------------------------------------------------------------------------
# offline GKD


def test_gkd_teacher_stays_frozen(graphs, teacher):
    g_c, g = graphs
    before = [w.values.copy() for w in teacher.weights]
    plan = quick_plan(mode="gkd_offline", seed=4,
                      kernel=KernelSpec(kind="gauss", t=1.0),
                      distill=DistillConfig(alpha=5.0, delta=0.4))
    student = build_model("gcn", 6, 8, 3, 2)
    train_student_gkd(g, teacher, g_c, plan, student)
    for w, orig in zip(teacher.weights, before):
        np.testing.assert_array_equal(w.values, orig)


def test_gkd_deterministic(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="gkd_offline", seed=5,
                      distill=DistillConfig(alpha=2.0, delta=0.2))

    def run():
        student = build_model("gcn", 6, 8, 3, 2)
        res = train_student_gkd(g, teacher, g_c, plan, student)
        return student, [m.public_dict() for m in res.metrics]

    s1, m1 = run()
    s2, m2 = run()
    assert weights_equal(s1, s2, tol=0.0)
    assert m1 == m2


def test_gkd_minibatch_runs_and_is_deterministic(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="gkd_offline", seed=6, epochs=10,
                      distill=DistillConfig(alpha=2.0, delta=0.2, batch_size=15))

    def run():
        student = build_model("gcn", 6, 8, 3, 2)
        res = train_student_gkd(g, teacher, g_c, plan, student)
        return [m.loss_dis for m in res.metrics]

    assert run() == run()


def test_gkd_minibatch_builds_no_full_weight_matrix(graphs, teacher, monkeypatch):
    g_c, g = graphs
    sizes = []
    weight_matrix = training.weight_matrix

    def recording_weight_matrix(graph, delta, ids):
        sizes.append(len(ids))
        return weight_matrix(graph, delta, ids)

    monkeypatch.setattr(training, "weight_matrix", recording_weight_matrix)
    plan = quick_plan(mode="gkd_offline", seed=6, epochs=3,
                      distill=DistillConfig(alpha=2.0, delta=0.2, batch_size=15))
    train_student_gkd(g, teacher, g_c, plan, build_model("gcn", 6, 8, 3, 2))
    assert sizes == [15, 15, 15]


def test_gkd_trace_length_mismatch_raises(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="gkd_offline", seed=7)
    student = build_model("gcn", 6, 8, 2, 2)  # depth 2 vs teacher depth 3
    with pytest.raises(ValidationError):
        train_student_gkd(g, teacher, g_c, plan, student)


def test_gkd_node_aware_alignment(graphs, teacher):
    g_c, _ = graphs
    g, node_map = split_nodes(g_c, 0.5, 8)
    plan = quick_plan(mode="gkd_offline", seed=8, epochs=10,
                      distill=DistillConfig(alpha=2.0, delta=0.2))
    student = build_model("gcn", 6, 8, 3, 2)
    res = train_student_gkd(g, teacher, g_c, plan, student, node_map)
    assert len(res.metrics) == 10


def test_gkd_compression_dims(graphs, teacher):
    # student narrower than teacher; kernels stay node x node
    g_c, g = graphs
    plan = quick_plan(mode="compression", seed=9, epochs=8,
                      kernel=KernelSpec(kind="randomized", t=1.0, m=2, seed=1),
                      distill=DistillConfig(alpha=1.0, delta=0.4))
    student = build_model("gcn", 6, 4, 3, 2)
    res = train_student(plan, g_c, g_c, teacher, student)
    assert len(res.metrics) == 8


def test_gkd_sgc_student(graphs, teacher):
    # compression onto an SGC student: same depth, propagation-space features
    g_c, _ = graphs
    plan = quick_plan(mode="compression", seed=19, epochs=8,
                      kernel=KernelSpec(kind="gauss", t=1.0),
                      distill=DistillConfig(alpha=1.0, delta=0.4))
    student = build_model("sgc", 6, 8, 3, 2)
    res = train_student(plan, g_c, g_c, teacher, student)
    assert len(res.metrics) == 8
    assert res.best_val_acc > 0.0


def test_pgkd_sgc_student_spans_whole_stack(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="pgkd", seed=20, epochs=4,
                      distill=DistillConfig(alpha=1.0))
    student = build_model("sgc", 6, 8, 3, 2)
    res = train_student_pgkd(g, teacher, g_c, plan, student)
    assert len(res.metrics) == 4


# --------------------------------------------------------------------------
# PGKD


def test_pgkd_estep_only_changes_mapper(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="pgkd", seed=10, epochs=1, lr_mapper=0.01,
                      distill=DistillConfig(alpha=0.0))
    student = build_model("gcn", 6, 8, 3, 2)
    # alpha=0: the M-step is plain supervised; run 1 epoch and compare with
    # one supervised epoch to confirm theta follows the supervised path only
    plain = build_model("gcn", 6, 8, 3, 2)
    train_supervised(g, plain, quick_plan(seed=10, epochs=1))
    train_student_pgkd(g, teacher, g_c, plan, student)
    assert weights_equal(plain, student)


def test_pgkd_reconstruction_descends(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="pgkd", seed=11, epochs=25, lr_mapper=0.01,
                      distill=DistillConfig(alpha=1.0, delta=0.4))
    student = build_model("gcn", 6, 8, 3, 2)
    res = train_student_pgkd(g, teacher, g_c, plan, student)
    recs = [m.loss_rec for m in res.metrics]
    assert recs[-1] < recs[0]


def test_pgkd_records_reconstruction_loss(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="pgkd", seed=12, epochs=3)
    student = build_model("gcn", 6, 8, 3, 2)
    res = train_student_pgkd(g, teacher, g_c, plan, student)
    assert all(m.loss_rec is not None for m in res.metrics)


def test_pgkd_separate_mappers_for_mismatched_dims(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="pgkd", seed=13, epochs=4,
                      distill=DistillConfig(alpha=1.0))
    student = build_model("gcn", 6, 4, 3, 2)  # hidden 4 vs teacher hidden 8
    res = train_student_pgkd(g, teacher, g_c, plan, student)
    assert len(res.metrics) == 4


def test_pgkd_allocates_no_node_by_node_buffer():
    # sparse 4-block graph with 2,000 nodes; the student keeps 1,800 of them
    g_c = sbm_generate([500] * 4, 0.01, 0.001, 8, 0.5, 26)
    g, node_map = split_nodes(g_c, 0.2, 26)
    teacher = build_model("gcn", 8, 16, 3, 4)
    init_xavier(teacher, 27)
    student = build_model("gcn", 8, 16, 3, 4)
    plan = quick_plan(mode="pgkd", seed=28, epochs=2,
                      distill=DistillConfig(alpha=1.0, delta=0.4))
    n_s = g.num_nodes
    tracemalloc.start()
    try:
        train_student_pgkd(g, teacher, g_c, plan, student, node_map)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_s * n_s * 8


@pytest.mark.parametrize("mode", ["teacher", "gkd_offline", "pgkd", "online"])
def test_forwards_per_run(graphs, teacher, monkeypatch, mode):
    # the forward after each step also feeds the next epoch: E + 1 per model
    g_c, g = graphs
    calls = []

    def counting_forward(model, graph):
        calls.append(model)
        return forward(model, graph)

    monkeypatch.setattr(training, "forward", counting_forward)
    epochs = 5
    plan = quick_plan(mode=mode, seed=14, epochs=epochs,
                      distill=DistillConfig(alpha=1.0, alpha_kd=0.2))
    student = build_model("gcn", 6, 8, 3, 2)
    if mode == "teacher":
        train_supervised(g, student, plan)
        assert calls == [student] * (epochs + 1)
        return
    if mode == "online":
        live_teacher = build_model("gcn", 6, 8, 3, 2)
        train_online(g, g_c, live_teacher, student, plan)
        assert sum(m is live_teacher for m in calls) == epochs + 1
    else:
        train_student(plan, g, g_c, teacher, student)
        assert sum(m is teacher for m in calls) == 1
    assert sum(m is student for m in calls) == epochs + 1
    assert len(calls) == (2 * (epochs + 1) if mode == "online" else epochs + 2)


# --------------------------------------------------------------------------
# online


def test_online_returns_both_models(graphs):
    g_c, g = graphs
    plan = quick_plan(mode="online", seed=14, epochs=10,
                      distill=DistillConfig(alpha=1.0, delta=0.4))
    t = build_model("gcn", 6, 8, 3, 2)
    s = build_model("gcn", 6, 8, 3, 2)
    res = train_online(g, g_c, t, s, plan)
    assert res.teacher_model is t
    assert res.model is s


def test_online_deterministic(graphs):
    g_c, g = graphs
    plan = quick_plan(mode="online", seed=15, epochs=8,
                      distill=DistillConfig(alpha=1.0, delta=0.2))

    def run():
        t = build_model("gcn", 6, 8, 3, 2)
        s = build_model("gcn", 6, 8, 3, 2)
        res = train_online(g, g_c, t, s, plan)
        return [m.public_dict() for m in res.metrics]

    assert run() == run()


# --------------------------------------------------------------------------
# batch sampling


def test_batch_full_size_is_permutation():
    ids = sample_distill_batch(10, 10, seed=0, epoch=0)
    assert sorted(ids.tolist()) == list(range(10))


def test_batch_deterministic_per_epoch():
    a = sample_distill_batch(50, 16, seed=1, epoch=3)
    b = sample_distill_batch(50, 16, seed=1, epoch=3)
    np.testing.assert_array_equal(a, b)


def test_batch_cycle_covers_all_nodes():
    n, b = 23, 7
    cycle_len = -(-n // b)
    seen = set()
    for epoch in range(cycle_len):
        ids = sample_distill_batch(n, b, seed=2, epoch=epoch)
        assert len(ids) == b
        assert len(set(ids.tolist())) == b  # no repeats inside a batch
        seen.update(ids.tolist())
    assert seen == set(range(n))


def test_batch_size_bounds():
    with pytest.raises(ValidationError):
        sample_distill_batch(10, 0, seed=0, epoch=0)
    with pytest.raises(ValidationError):
        sample_distill_batch(10, 11, seed=0, epoch=0)


# --------------------------------------------------------------------------
# grid search


def test_grid_singleton(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="gkd_offline", epochs=5, seed=16)
    best, rows = grid_search({"alpha": [3.0]}, plan, g, g_c, teacher,
                             model_builder=lambda: build_model("gcn", 6, 8, 3, 2))
    assert best == {"alpha": 3.0}
    assert len(rows) == 1


def test_grid_table_shape_and_argmax(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="gkd_offline", epochs=5, seed=17)
    space = {"alpha": [1.0, 10.0], "delta": [0.0, 0.5, 1.0]}
    best, rows = grid_search(space, plan, g, g_c, teacher,
                             model_builder=lambda: build_model("gcn", 6, 8, 3, 2))
    assert len(rows) == 6
    best_row = max(rows, key=lambda r: r["val_acc"])
    assert {k: best[k] for k in space} == {k: best_row[k] for k in space}


def test_grid_tie_breaks_to_first_declared(graphs, teacher):
    # alpha = 0 makes delta irrelevant: all cells tie, first combination wins
    g_c, g = graphs
    plan = quick_plan(mode="gkd_offline", epochs=4, seed=18)
    space = {"alpha": [0.0], "delta": [0.3, 0.7]}
    best, rows = grid_search(space, plan, g, g_c, teacher,
                             model_builder=lambda: build_model("gcn", 6, 8, 3, 2))
    assert rows[0]["val_acc"] == rows[1]["val_acc"]
    assert best == {"alpha": 0.0, "delta": 0.3}


def test_gkd_with_soft_label_term(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="gkd_offline", seed=21, epochs=8,
                      kernel=KernelSpec(kind="gauss", t=1.0),
                      distill=DistillConfig(alpha=1.0, delta=0.4,
                                            alpha_kd=0.4, tau_kd=2.0))

    def run():
        student = build_model("gcn", 6, 8, 3, 2)
        res = train_student_gkd(g, teacher, g_c, plan, student)
        return [m.loss_pre for m in res.metrics]

    first = run()
    assert first == run()
    assert len(first) == 8


def test_grid_rejects_unknown_key():
    with pytest.raises(ValidationError):
        apply_grid_overrides(quick_plan(), {"bogus": [1]})


def test_grid_overrides_nested_fields():
    plan = apply_grid_overrides(quick_plan(), {"alpha": 7.0, "t": 2.0, "lr": 0.5})
    assert plan.distill.alpha == 7.0
    assert plan.kernel.t == 2.0
    assert plan.lr == 0.5
