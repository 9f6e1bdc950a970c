import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from geokd import distill, nhk, training
from geokd import tensor as T
from geokd.distill import DistillConfig
from geokd.errors import GraphParseError, NumericError, ValidationError
from geokd.graphs import Graph, normalize_adjacency, sbm_generate, split_edges, split_nodes
from geokd.models import build_model, forward, init_xavier
from geokd.nhk import KernelSpec
from geokd.training import (
    Adam,
    TrainPlan,
    apply_grid_overrides,
    grid_search,
    sample_distill_batch,
    train_student,
    train_supervised,
)


def quick_plan(**kw):
    base = dict(mode="teacher", epochs=30, seed=0, lr=0.05)
    if kw.get("mode") == "pgkd":  # the one kernel pgkd aligns
        base["kernel"] = KernelSpec(kind="parametric")
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


def test_adam_non_finite_gradient_names_epoch_and_parameter():
    p, q = T.parameter([[1.0]]), T.parameter([[2.0, 3.0]])
    opt = Adam([p, q], lr=0.1, name="student weight")
    p.grad, q.grad = np.ones((1, 1)), np.ones((1, 2))
    opt.step()
    before = [p.values.copy(), q.values.copy()]
    p.grad, q.grad = np.ones((1, 1)), np.array([[0.0, np.inf]])
    with pytest.raises(NumericError,
                       match=r"epoch 1: gradient of student weight\[1\] is not finite"):
        opt.step()
    # nothing is updated, not even the parameters before the bad one
    np.testing.assert_array_equal(p.values, before[0])
    np.testing.assert_array_equal(q.values, before[1])
    assert opt.step_count == 1


@pytest.mark.parametrize("mode,poisoned,name", [
    ("teacher", "cross_entropy", "teacher weight"),
    ("gkd_offline", "cross_entropy", "student weight"),
    ("online", "cross_entropy", "online teacher weight"),
    ("pgkd", "factored_reconstruction_loss", "mapper weight"),
])
def test_non_finite_gradient_with_finite_loss_raises(graphs, teacher, monkeypatch, mode,
                                                     poisoned, name):
    # a loss whose value is finite but whose backward sends NaN to its inputs
    g_c, g = graphs
    module = T if poisoned == "cross_entropy" else training
    loss_fn = getattr(module, poisoned)

    def poisoned_loss(*args):
        loss = loss_fn(*args)
        return T._make(loss.values.copy(), (loss,),
                       lambda grad: loss._accumulate(np.full_like(grad, np.nan)))

    monkeypatch.setattr(module, poisoned, poisoned_loss)
    plan = quick_plan(mode=mode, seed=2, epochs=3, distill=DistillConfig(alpha=1.0, delta=0.4))
    student = build_model("gcn", 6, 8, 3, 2)
    with pytest.raises(NumericError, match=rf"epoch 0: gradient of {name}\[0\] is not finite"):
        if mode == "teacher":
            train_supervised(g, student, plan)
        elif mode == "online":
            train_student(plan, g, g_c, build_model("gcn", 6, 8, 3, 2), student)
        else:
            train_student(plan, g, g_c, teacher, student)


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
        train_student(plan, g, g_c, build_model("gcn", 6, 8, 3, 2),
                      build_model("gcn", 6, 8, 3, 2))


def test_zero_epochs_rejected():
    with pytest.raises(ValidationError):
        quick_plan(epochs=0)


@pytest.mark.parametrize("mode,kind,batch_size,field", [
    ("gkd_offline", "parametric", None, "kernel.kind"),
    ("online", "parametric", None, "kernel.kind"),
    ("self_distill", "parametric", None, "kernel.kind"),
    ("compression", "parametric", None, "kernel.kind"),
    ("pgkd", "gauss", None, "kernel.kind"),
    ("pgkd", "sigmoid", None, "kernel.kind"),
    ("pgkd", "randomized", None, "kernel.kind"),
    ("pgkd", "parametric", 8, "distill.batch_size"),
])
def test_plan_rejects_a_kernel_its_mode_does_not_align(mode, kind, batch_size, field):
    with pytest.raises(GraphParseError, match=f"^{field}: mode '{mode}'"):
        TrainPlan(mode=mode, kernel=KernelSpec(kind=kind),
                  distill=DistillConfig(batch_size=batch_size))
    if field == "distill.batch_size":  # a grid cell is checked as well
        with pytest.raises(GraphParseError, match=f"^{field}: "):
            apply_grid_overrides(quick_plan(mode="pgkd"), {"batch_size": batch_size})
    else:  # the teacher trains no alignment and reads no kernel
        TrainPlan(mode="teacher", kernel=KernelSpec(kind=kind))


def test_empty_train_mask_rejected(graphs):
    g_c, _ = graphs
    from geokd.graphs import Graph

    g_empty = Graph(4, [], np.zeros((4, 2)), [0, 0, 1, 1], [], [0], [1])
    model = build_model("gcn", 2, 4, 2, 2)
    with pytest.raises(ValidationError):
        train_supervised(g_empty, model, quick_plan())


@pytest.mark.parametrize("empty", ["validation", "test"])
def test_empty_validation_or_test_mask_rejected(empty):
    masks = {"validation": ([0, 1], [], [3]), "test": ([0, 1], [2], [])}[empty]
    g = Graph(4, [], np.zeros((4, 2)), [0, 0, 1, 1], *masks)
    with pytest.raises(ValidationError, match=f"graph has no {empty} nodes"):
        train_supervised(g, build_model("gcn", 2, 4, 2, 2), quick_plan())


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
        train_student(plan, g, g_c, online_teacher, student)
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
    train_student(plan, g, g_c, teacher, student)
    for w, orig in zip(teacher.weights, before):
        np.testing.assert_array_equal(w.values, orig)


def test_gkd_deterministic(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="gkd_offline", seed=5,
                      distill=DistillConfig(alpha=2.0, delta=0.2))

    def run():
        student = build_model("gcn", 6, 8, 3, 2)
        res = train_student(plan, g, g_c, teacher, student)
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
        res = train_student(plan, g, g_c, teacher, student)
        return [m.loss_dis for m in res.metrics]

    assert run() == run()


def test_gkd_minibatch_gathers_only_the_aligned_student_entries(graphs, teacher, monkeypatch):
    g_c, g = graphs
    shapes, take_rows = [], T.take_rows
    monkeypatch.setattr(T, "take_rows", lambda a, idx: shapes.append(a.shape) or take_rows(a, idx))
    plan = quick_plan(mode="gkd_offline", seed=4, epochs=2,
                      distill=DistillConfig(alpha=1.0, batch_size=8))
    train_student(plan, g, g_c, teacher, build_model("gcn", 6, 8, 3, 2))
    # each epoch: the cross-entropy's training rows, then trace entries 1 and 2
    assert shapes == [(40, 2), (40, 8), (40, 8)] * 2


def test_gkd_minibatch_builds_no_full_weight_matrix(graphs, teacher, monkeypatch):
    # no batch builds W: gauss and randomized batches both run the blocked op
    g_c, g = graphs
    sizes = []
    weight_matrix = distill.weight_matrix

    def recording_weight_matrix(graph, delta, ids):
        sizes.append(len(ids))
        return weight_matrix(graph, delta, ids)

    monkeypatch.setattr(distill, "weight_matrix", recording_weight_matrix)
    for kind in ("randomized", "gauss"):
        plan = quick_plan(mode="gkd_offline", seed=6, epochs=3,
                          kernel=KernelSpec(kind=kind, m=2),
                          distill=DistillConfig(alpha=2.0, delta=0.2, batch_size=15))
        train_student(plan, g, g_c, teacher, build_model("gcn", 6, 8, 3, 2))
        assert sizes == []


def test_gkd_trace_length_mismatch_raises(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="gkd_offline", seed=7)
    student = build_model("gcn", 6, 8, 2, 2)  # depth 2 vs teacher depth 3
    with pytest.raises(ValidationError):
        train_student(plan, g, g_c, teacher, student)


def test_gkd_node_aware_alignment(graphs, teacher):
    g_c, _ = graphs
    g, node_map = split_nodes(g_c, 0.5, 8)
    plan = quick_plan(mode="gkd_offline", seed=8, epochs=10,
                      distill=DistillConfig(alpha=2.0, delta=0.2))
    student = build_model("gcn", 6, 8, 3, 2)
    res = train_student(plan, g, g_c, teacher, student, node_map)
    assert len(res.metrics) == 10


@pytest.mark.parametrize("mode, alpha, alpha_kd, nodes, entries", [
    ("gkd_offline", 1.0, 0.0, False, [1, 2]),  # X and the logits are never aligned
    ("gkd_offline", 1.0, 0.5, True, [1, 2]),
    ("gkd_offline", 0.0, 0.5, False, []),
    ("online", 1.0, 0.0, False, [1, 2]),
    ("pgkd", 1e-3, 0.0, True, [2]),  # the mapped late entry alone
])
def test_teacher_view_holds_only_what_the_mode_reads(graphs, teacher, monkeypatch, mode, alpha,
                                                     alpha_kd, nodes, entries):
    g_c, g = graphs
    node_map = None
    if nodes:
        g, node_map = split_nodes(g_c, 0.5, 8)
    views, view = [], training._teacher_view

    def spy(logits, trace, *args):
        views.append((logits, trace, view(logits, trace, *args)))
        return views[-1][2]

    monkeypatch.setattr(training, "_teacher_view", spy)
    if mode == "online":  # trains a teacher of its own
        teacher = build_model("gcn", 6, 8, 3, 2)
    plan = quick_plan(mode=mode, seed=3, epochs=3,
                      distill=DistillConfig(alpha=alpha, delta=0.2, alpha_kd=alpha_kd))
    train_student(plan, g, g_c, teacher, build_model("gcn", 6, 8, 3, 2), node_map)
    assert len(views) == (4 if mode == "online" else 1)  # online: once per teacher forward
    for logits, trace, (t_logits, feats) in views:
        assert [i for i, f in enumerate(feats) if f is not None] == entries
        assert (t_logits is None) == (alpha_kd == 0)
        for got, src in [(feats[i], trace[i]) for i in entries] + [(t_logits, logits)]:
            if got is not None and node_map is None:
                assert got is src.values  # the teacher's own array, uncopied
            elif got is not None:
                np.testing.assert_array_equal(got, src.values[node_map])


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
    # an sgc trace is propagated X, so no aligned entry holds a parameter:
    # alignment is refused, soft labels still train it
    g_c, _ = graphs
    plan = quick_plan(mode="compression", seed=19, epochs=8,
                      kernel=KernelSpec(kind="gauss", t=1.0),
                      distill=DistillConfig(alpha=1.0, delta=0.4))
    with pytest.raises(ValidationError, match="distill.alpha: needs a gcn of depth >= 2"):
        train_student(plan, g_c, g_c, teacher, build_model("sgc", 6, 8, 3, 2))
    plan = replace(plan, distill=DistillConfig(alpha=0.0, alpha_kd=0.5))
    res = train_student(plan, g_c, g_c, teacher, build_model("sgc", 6, 8, 3, 2))
    assert len(res.metrics) == 8
    assert res.best_val_acc > 0.0


def test_stream_tags_differ():
    # default_rng([seed, tag]) draws the stream of default_rng([seed, tag, 0]),
    # a batch cycle's, so no two streams may share a tag
    tags = {name: tag for name, tag in vars(training).items() if name.startswith("STREAM_")}
    assert len(tags) == 5 and len(set(tags.values())) == len(tags)
    # pgkd's two mappers, when the late widths differ, draw from their own streams
    plan = quick_plan(mode="pgkd", kernel=KernelSpec(kind="parametric", s=3))
    mapper_t, mapper_s = training._build_mappers(
        plan, build_model("gcn", 6, 8, 3, 2), build_model("gcn", 6, 4, 3, 2))
    assert mapper_s.weight.shape == (4, 3) and mapper_t.weight.shape == (8, 3)
    a = np.sqrt(6.0 / (4 + 3))  # init_xavier's bound
    want = np.random.default_rng([plan.seed, training.STREAM_MAPPER_STUDENT]).uniform(
        -a, a, size=(4, 3))
    np.testing.assert_array_equal(mapper_s.weight.values, want)


def test_pgkd_sgc_student_spans_whole_stack(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="pgkd", seed=20, epochs=4,
                      distill=DistillConfig(alpha=1.0))
    with pytest.raises(ValidationError, match="distill.alpha"):
        train_student(plan, g, g_c, teacher, build_model("sgc", 6, 8, 3, 2))
    plan = replace(plan, distill=DistillConfig(alpha=0.0))
    res = train_student(plan, g, g_c, teacher, build_model("sgc", 6, 8, 3, 2))
    assert len(res.metrics) == 4
    assert all(rec.loss_rec > 0.0 for rec in res.metrics)  # its mapper spans 0 .. L


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
    train_student(plan, g, g_c, teacher, student)
    assert weights_equal(plain, student)


def test_pgkd_reconstruction_descends(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="pgkd", seed=11, epochs=25, lr_mapper=0.01,
                      distill=DistillConfig(alpha=1.0, delta=0.4))
    student = build_model("gcn", 6, 8, 3, 2)
    res = train_student(plan, g, g_c, teacher, student)
    recs = [m.loss_rec for m in res.metrics]
    assert recs[-1] < recs[0]


def test_pgkd_records_reconstruction_loss(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="pgkd", seed=12, epochs=3)
    student = build_model("gcn", 6, 8, 3, 2)
    res = train_student(plan, g, g_c, teacher, student)
    assert all(m.loss_rec is not None for m in res.metrics)


def test_pgkd_separate_mappers_for_mismatched_dims(graphs, teacher):
    g_c, g = graphs
    plan = quick_plan(mode="pgkd", seed=13, epochs=4,
                      distill=DistillConfig(alpha=1.0))
    student = build_model("gcn", 6, 4, 3, 2)  # hidden 4 vs teacher hidden 8
    res = train_student(plan, g, g_c, teacher, student)
    assert len(res.metrics) == 4


@pytest.mark.parametrize("hidden", [8, 12])  # one shared mapper; one per model
def test_e_step_one_side_at_a_time_matches_the_summed_backward(graphs, teacher, hidden):
    g_c, g = graphs
    plan = quick_plan(mode="pgkd", seed=16)
    student = build_model("gcn", 6, hidden, 3, 2)
    init_xavier(student, 17)
    (early_t, late_t), (early_s, late_s) = distill.pgkd_span(teacher), distill.pgkd_span(student)
    t_trace, s_trace = forward(teacher, g_c)[1], forward(student, g)[1]
    t_late, t_early, s_late, s_early = (T.constant(h.values) for h in (
        t_trace[late_t], t_trace[early_t], s_trace[late_s], s_trace[early_s]))

    def mapper_params(mappers):
        return list(dict.fromkeys(p for m in mappers for p in m.parameters()))

    ref = training._build_mappers(plan, teacher, student)
    assert (ref[0] is ref[1]) == (hidden == 8)
    rec = T.add(distill.factored_reconstruction_loss(ref[0].apply(t_late), t_late, t_early),
                distill.factored_reconstruction_loss(ref[1].apply(s_late), s_late, s_early))
    rec.backward()
    mappers = training._build_mappers(plan, teacher, student)
    loss = training._e_step(Adam(mapper_params(mappers), 0.01),
                            ((mappers[0], t_late, t_early), (mappers[1], s_late, s_early)))
    assert loss == rec.item()
    for got, want in zip(mapper_params(mappers), mapper_params(ref)):
        np.testing.assert_array_equal(got.grad, want.grad)


def test_e_step_frees_the_teacher_side_before_the_student_side(graphs, teacher, monkeypatch):
    g_c, g = graphs
    mapped, freed = [], []

    def spy(phi, h_late, h_early):
        if len(mapped) % 2:  # the student side: the teacher's mapped features are gone
            freed.append(mapped[-1]() is None)
        mapped.append(weakref.ref(phi.values))
        return distill.factored_reconstruction_loss(phi, h_late, h_early)

    monkeypatch.setattr(training, "factored_reconstruction_loss", spy)
    gc.disable()  # by reference counts alone
    try:
        train_student(quick_plan(mode="pgkd", seed=18, epochs=3), g, g_c, teacher,
                      build_model("gcn", 6, 8, 3, 2))
    finally:
        gc.enable()
    assert freed == [True] * 3


@pytest.mark.parametrize("mode, split, dropped", [
    ("gkd_offline", "edges", True), ("pgkd", "nodes", True),
    ("online", "edges", False), ("self_distill", None, False)])
def test_complete_graph_operators_dropped_after_a_frozen_teacher(teacher, mode, split, dropped):
    g_c = sbm_generate([20, 20], 0.3, 0.05, 6, 0.5, 0)
    g, node_map = g_c, None
    if split == "edges":
        g = split_edges(g_c, 0.5, 0)
    elif split == "nodes":
        g, node_map = split_nodes(g_c, 0.5, 0)
    a_hat = weakref.ref(normalize_adjacency(g_c))
    model = teacher if mode != "online" else build_model("gcn", 6, 8, 3, 2)
    gc.disable()  # freed by reference counts alone
    try:
        train_student(quick_plan(mode=mode, seed=19, epochs=2), g, g_c, model,
                      build_model("gcn", 6, 8, 3, 2), node_map)
        assert (a_hat() is None) == dropped
    finally:
        gc.enable()


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
        train_student(plan, g, g_c, teacher, student, node_map)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_s * n_s * 8


def test_randomized_gkd_full_batch_allocates_no_node_by_node_buffer():
    # one full-batch epoch on 2,000 nodes: factors only, no kernel and no W.
    # The factored loss keeps O((n + |E|) r) on the tape, so the factor width
    # r = (m+1) 2 hidden = 32 stays well below n for that to fit.
    g_c = sbm_generate([500] * 4, 0.01, 0.001, 8, 0.5, 29)
    g = split_edges(g_c, 0.5, 29)
    teacher = build_model("gcn", 8, 8, 3, 4)
    init_xavier(teacher, 30)
    student = build_model("gcn", 8, 8, 3, 4)
    plan = quick_plan(mode="gkd_offline", seed=31, epochs=1,
                      kernel=KernelSpec(kind="randomized", m=1),
                      distill=DistillConfig(alpha=1.0, delta=0.4))
    n = g.num_nodes
    tracemalloc.start()
    try:
        train_student(plan, g, g_c, teacher, student)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("batch_size", [None, 16])
def test_frozen_teacher_projected_once_per_run(graphs, teacher, monkeypatch, batch_size):
    g_c, g = graphs
    n, layers, epochs = g.num_nodes, 3, 4
    rows = []
    project = nhk.randomized_features

    def recording(h, *args, **kwargs):
        rows.append(h.shape[0])
        return project(h, *args, **kwargs)

    monkeypatch.setattr(nhk, "randomized_features", recording)
    plan = quick_plan(mode="gkd_offline", seed=15, epochs=epochs,
                      kernel=KernelSpec(kind="randomized", m=2),
                      distill=DistillConfig(alpha=1.0, delta=0.4, batch_size=batch_size))
    train_student(plan, g, g_c, teacher, build_model("gcn", 6, 8, 3, 2))
    # trace entries 1 .. L-1 alone: a full-graph teacher's once, the student's
    # per epoch; a batched teacher's per epoch too, and never more rows than
    # the batch, so it holds no full-graph table
    aligned = layers - 1
    if batch_size is None:
        assert rows == [n] * (epochs + 1) * aligned
    else:
        assert rows == [batch_size] * epochs * 2 * aligned


@pytest.mark.parametrize("mode", ["gkd_offline", "online"])
@pytest.mark.parametrize("batch_size", [None, 16])
def test_every_alignment_reads_a_trained_entry(graphs, teacher, monkeypatch, mode, batch_size):
    # entries 1 and 2 (width 8) of a depth-3 student, never entry 0 (X, width 6)
    g_c, g = graphs
    calls, op = [], T.kernel_alignment

    def spy(h_s, teacher):  # a gauss side's first operand is [h, 1, c]
        calls.append((h_s.requires_grad, h_s.shape, teacher.operands[0].shape))
        return op(h_s, teacher)

    monkeypatch.setattr(T, "kernel_alignment", spy)
    plan = quick_plan(mode=mode, seed=16, epochs=3, kernel=KernelSpec(kind="gauss"),
                      distill=DistillConfig(alpha=1.0, delta=0.4, batch_size=batch_size))
    if mode == "online":  # trains its own teacher, so not the shared one
        teacher = build_model("gcn", 6, 8, 3, 2)
    train_student(plan, g, g_c, teacher, build_model("gcn", 6, 8, 3, 2))
    rows = batch_size or g.num_nodes
    assert calls == [(True, (rows, 8), (rows, 10))] * 2 * 3


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
        train_student(plan, g, g_c, live_teacher, student)
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
    res = train_student(plan, g, g_c, t, s)
    assert res.teacher_model is t
    assert res.model is s


def test_online_deterministic(graphs):
    g_c, g = graphs
    plan = quick_plan(mode="online", seed=15, epochs=8,
                      distill=DistillConfig(alpha=1.0, delta=0.2))

    def run():
        t = build_model("gcn", 6, 8, 3, 2)
        s = build_model("gcn", 6, 8, 3, 2)
        res = train_student(plan, g, g_c, t, s)
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
        res = train_student(plan, g, g_c, teacher, student)
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


def test_grid_keys_are_the_tunable_config_fields():
    assert training._GRID_KERNEL_KEYS == {"t", "a", "b", "m", "s"}
    assert training._GRID_DISTILL_KEYS == {"alpha", "delta", "alpha_kd", "tau_kd", "batch_size"}
    assert training._GRID_PLAN_KEYS == {"lr", "lr_mapper", "epochs", "patience"}
