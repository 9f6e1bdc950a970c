"""Training drivers: supervised pretraining, offline/online distillation,
EM-style parametric distillation, mini-batch sampling and grid search.

Every run is a pure function of (graphs, plan, seed). Random streams are
namespaced so that a distilled student with all distillation weights at zero
replays the plain supervised trajectory bit for bit.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .distill import (
    DistillConfig,
    InverseNhkMapper,
    ProjectionCache,
    factored_distill_loss,
    factored_reconstruction_loss,
    kd_soft_label_loss,
    layer_avg_distill,
    pgkd_span,
    teacher_layer_kernels,
    trace_feature_dim,
    weight_matrix,
)
from .errors import ValidationError
from .graphs import Graph
from .models import GnnModel, accuracy, forward, init_xavier
from .nhk import KernelSpec

STREAM_STUDENT = 201   # also the lone model of a supervised run
STREAM_TEACHER_ONLINE = 202
STREAM_MAPPER = 203
STREAM_BATCH = 204

STUDENT_MODES = ("gkd_offline", "pgkd", "online", "self_distill", "compression")


class Adam:
    """Bias-corrected Adam over a fixed parameter list."""

    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValidationError("adam step with unpopulated gradient")
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * (g * g)
            m_hat = self.m[i] / (1 - self.beta1 ** t)
            v_hat = self.v[i] / (1 - self.beta2 ** t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class MetricsRecord:
    epoch: int
    loss_pre: float
    loss_dis: float
    train_acc: float
    val_acc: float
    test_acc: float
    wall_ms: float
    loss_rec: float | None = None

    def public_dict(self) -> dict:
        """Deterministic serialization; wall time lives in a sidecar file."""
        doc = {
            "epoch": self.epoch,
            "loss_pre": self.loss_pre,
            "loss_dis": self.loss_dis,
            "train_acc": self.train_acc,
            "val_acc": self.val_acc,
            "test_acc": self.test_acc,
        }
        if self.loss_rec is not None:
            doc["loss_rec"] = self.loss_rec
        return doc


@dataclass
class TrainPlan:
    mode: str = "teacher"
    epochs: int = 200
    seed: int = 0
    patience: int = 0          # 0 disables early stopping
    lr: float = 0.01           # model parameters
    lr_mapper: float = 0.01    # inverse-kernel mapper parameters
    kernel: KernelSpec = field(default_factory=KernelSpec)
    distill: DistillConfig = field(default_factory=DistillConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.mode not in ("teacher",) + STUDENT_MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")


@dataclass
class TrainResult:
    model: GnnModel
    metrics: list
    best_epoch: int
    best_val_acc: float
    best_test_acc: float
    teacher_model: GnnModel | None = None  # populated by online training


def _evaluate(model: GnnModel, g: Graph):
    logits, _ = forward(model, g)
    vals = logits.values
    return (
        accuracy(vals, g.labels, g.train_mask),
        accuracy(vals, g.labels, g.val_mask),
        accuracy(vals, g.labels, g.test_mask),
    )


class _BestTracker:
    """Keeps the weight snapshot of the best validation epoch (first on ties)."""

    def __init__(self, model: GnnModel):
        self.model = model
        self.best_val = -1.0
        self.best_test = 0.0
        self.best_epoch = -1
        self.snapshot = model.copy_weights()
        self.since_best = 0

    def update(self, epoch: int, val_acc: float, test_acc: float):
        if val_acc > self.best_val:
            self.best_val = val_acc
            self.best_test = test_acc
            self.best_epoch = epoch
            self.snapshot = self.model.copy_weights()
            self.since_best = 0
        else:
            self.since_best += 1

    def restore(self):
        self.model.load_weights(self.snapshot)


def train_supervised(g: Graph, model: GnnModel, plan: TrainPlan) -> TrainResult:
    """Cross-entropy training on one graph with best-validation checkpointing."""
    if len(g.train_mask) == 0:
        raise ValidationError("graph has no training nodes")
    init_xavier(model, plan.seed, STREAM_STUDENT)
    model.set_trainable(True)
    opt = Adam(model.parameters(), plan.lr)
    tracker = _BestTracker(model)
    metrics = []
    for epoch in range(plan.epochs):
        tic = time.perf_counter()
        logits, _ = forward(model, g)
        loss = T.cross_entropy(logits, g.labels, g.train_mask)
        opt.zero_grad()
        loss.backward()
        opt.step()
        train_acc, val_acc, test_acc = _evaluate(model, g)
        tracker.update(epoch, val_acc, test_acc)
        metrics.append(MetricsRecord(
            epoch, loss.item(), 0.0, train_acc, val_acc, test_acc,
            (time.perf_counter() - tic) * 1e3,
        ))
        if plan.patience and tracker.since_best >= plan.patience:
            break
    tracker.restore()
    model.set_trainable(False)
    return TrainResult(model, metrics, tracker.best_epoch, tracker.best_val, tracker.best_test)


def train_teacher(g_complete: Graph, model: GnnModel, plan: TrainPlan) -> TrainResult:
    return train_supervised(g_complete, model, plan)


def _teacher_layer_features(teacher: GnnModel, g_complete: Graph, node_map):
    """Detached per-layer teacher features, rows restricted to student nodes."""
    teacher.set_trainable(False)
    logits, trace = forward(teacher, g_complete)
    if node_map is None:
        node_map = np.arange(g_complete.num_nodes)
    feats = [h.values[node_map] for h in trace]
    return logits.values[node_map], feats


def _samples_batches(cfg: DistillConfig, n: int) -> bool:
    return cfg.batch_size is not None and cfg.batch_size < n


def _full_weight_matrix(g: Graph, cfg: DistillConfig):
    """W over all nodes, or None when no loss reads it."""
    if cfg.alpha > 0 and not _samples_batches(cfg, g.num_nodes):
        return weight_matrix(g, cfg.delta, np.arange(g.num_nodes))
    return None


def _distill_term(plan: TrainPlan, g: Graph, trace_student, teacher_feats,
                  w_full, projections, epoch: int, teacher_kernels=None,
                  static_terms=None):
    """alpha-scaled mean per-layer alignment, optionally on a node mini-batch."""
    cfg = plan.distill
    n = g.num_nodes
    if _samples_batches(cfg, n):
        ids = sample_distill_batch(n, cfg.batch_size, plan.seed, epoch)
        w = weight_matrix(g, cfg.delta, ids)
        t_feats = [f[ids] for f in teacher_feats]
        s_feats = [T.take_rows(h, ids) for h in trace_student]
        teacher_kernels = None  # batch subsets change every epoch
        static_terms = None
    else:
        w = w_full
        t_feats = teacher_feats
        s_feats = trace_student
    return layer_avg_distill(t_feats, s_feats, plan.kernel, cfg, w, projections,
                             teacher_kernels, static_terms)


def train_student_gkd(g: Graph, teacher: GnnModel, g_complete: Graph,
                      plan: TrainPlan, student: GnnModel,
                      node_map=None) -> TrainResult:
    """Offline distillation: frozen teacher, per-layer kernel alignment."""
    cfg = plan.distill
    teacher_logits, teacher_feats = _teacher_layer_features(teacher, g_complete, node_map)
    if len(teacher_feats) != student.num_layers + 1:
        raise ValidationError(
            f"teacher trace has {len(teacher_feats)} entries, student expects "
            f"{student.num_layers + 1}"
        )
    init_xavier(student, plan.seed, STREAM_STUDENT)
    student.set_trainable(True)
    opt = Adam(student.parameters(), plan.lr)
    tracker = _BestTracker(student)
    projections = ProjectionCache(plan.kernel) if plan.kernel.kind == "randomized" else None
    w_full = _full_weight_matrix(g, cfg)
    teacher_kernels = None  # computed lazily; needs the student trace dims
    static_terms = {}
    metrics = []
    for epoch in range(plan.epochs):
        tic = time.perf_counter()
        logits, trace = forward(student, g)
        loss_pre = T.cross_entropy(logits, g.labels, g.train_mask)
        if teacher_kernels is None and w_full is not None:
            teacher_kernels = teacher_layer_kernels(
                teacher_feats, [h.shape[1] for h in trace], plan.kernel, projections
            )
        total = loss_pre
        loss_dis_val = 0.0
        if cfg.alpha > 0:
            dis = _distill_term(plan, g, trace, teacher_feats, w_full, projections,
                                epoch, teacher_kernels, static_terms)
            loss_dis_val = dis.item()
            total = T.add(total, dis)
        if cfg.alpha_kd > 0:
            kd = kd_soft_label_loss(teacher_logits, logits, cfg.tau_kd, g.train_mask)
            total = T.add(total, T.scale(kd, cfg.alpha_kd))
        opt.zero_grad()
        total.backward()
        opt.step()
        train_acc, val_acc, test_acc = _evaluate(student, g)
        tracker.update(epoch, val_acc, test_acc)
        metrics.append(MetricsRecord(
            epoch, loss_pre.item(), loss_dis_val, train_acc, val_acc, test_acc,
            (time.perf_counter() - tic) * 1e3,
        ))
        if plan.patience and tracker.since_best >= plan.patience:
            break
    tracker.restore()
    student.set_trainable(False)
    return TrainResult(student, metrics, tracker.best_epoch, tracker.best_val, tracker.best_test)


def _build_mappers(plan: TrainPlan, teacher: GnnModel, student: GnnModel):
    """Shared mapper when late-layer dims agree, else one per model, common s."""
    _, late_t = pgkd_span(teacher)
    _, late_s = pgkd_span(student)
    d_t = trace_feature_dim(teacher, late_t)
    d_s = trace_feature_dim(student, late_s)
    s = plan.kernel.s if plan.kernel.s is not None else 2 * d_s
    if d_t == d_s:
        mapper = InverseNhkMapper(d_s, s)
        mapper.init(plan.seed, STREAM_MAPPER)
        return mapper, mapper
    mapper_t = InverseNhkMapper(d_t, s)
    mapper_t.init(plan.seed, STREAM_MAPPER)
    mapper_s = InverseNhkMapper(d_s, s)
    mapper_s.init(plan.seed, STREAM_MAPPER + 1)
    return mapper_t, mapper_s


def train_student_pgkd(g: Graph, teacher: GnnModel, g_complete: Graph,
                       plan: TrainPlan, student: GnnModel,
                       node_map=None) -> TrainResult:
    """EM alternation: fit the inverse kernel (phi), then align and fit (theta)."""
    cfg = plan.distill
    if node_map is None:
        node_map = np.arange(g_complete.num_nodes)
    teacher.set_trainable(False)
    t_logits, t_trace = forward(teacher, g_complete)
    early_t, late_t = pgkd_span(teacher)
    early_s, late_s = pgkd_span(student)
    t_late_full = T.constant(t_trace[late_t].values)
    t_early_full = T.constant(t_trace[early_t].values)
    t_late_sub = T.constant(t_trace[late_t].values[node_map])
    teacher_logits_sub = t_logits.values[node_map]

    mapper_t, mapper_s = _build_mappers(plan, teacher, student)
    phi_params = mapper_t.parameters()
    if mapper_s is not mapper_t:
        phi_params = phi_params + mapper_s.parameters()

    init_xavier(student, plan.seed, STREAM_STUDENT)
    student.set_trainable(True)
    opt_theta = Adam(student.parameters(), plan.lr)
    opt_phi = Adam(phi_params, plan.lr_mapper)
    tracker = _BestTracker(student)
    metrics = []
    for epoch in range(plan.epochs):
        tic = time.perf_counter()
        # One taped forward serves both steps: the E-step leaves the GNN
        # weights alone and reads the trace values as constants.
        logits, trace_s = forward(student, g)

        # E-step: refit the inverse kernel with the GNN weights frozen.
        s_late = T.constant(trace_s[late_s].values)
        s_early = T.constant(trace_s[early_s].values)
        rec = T.add(
            factored_reconstruction_loss(mapper_t.apply(t_late_full), t_late_full, t_early_full),
            factored_reconstruction_loss(mapper_s.apply(s_late), s_late, s_early),
        )
        opt_phi.zero_grad()
        rec.backward()
        opt_phi.step()
        loss_rec_val = rec.item()

        # M-step: supervised loss plus inverse-kernel alignment, mapper frozen.
        loss_pre = T.cross_entropy(logits, g.labels, g.train_mask)
        total = loss_pre
        loss_dis_val = 0.0
        if cfg.alpha > 0:
            phi_t = mapper_t.apply(t_late_sub)
            phi_s = mapper_s.apply(trace_s[late_s])
            dis = T.scale(factored_distill_loss(g, phi_t, phi_s, cfg.delta), cfg.alpha)
            loss_dis_val = dis.item()
            total = T.add(total, dis)
        if cfg.alpha_kd > 0:
            kd = kd_soft_label_loss(teacher_logits_sub, logits, cfg.tau_kd, g.train_mask)
            total = T.add(total, T.scale(kd, cfg.alpha_kd))
        opt_theta.zero_grad()
        total.backward()
        opt_theta.step()

        train_acc, val_acc, test_acc = _evaluate(student, g)
        tracker.update(epoch, val_acc, test_acc)
        metrics.append(MetricsRecord(
            epoch, loss_pre.item(), loss_dis_val, train_acc, val_acc, test_acc,
            (time.perf_counter() - tic) * 1e3, loss_rec=loss_rec_val,
        ))
        if plan.patience and tracker.since_best >= plan.patience:
            break
    tracker.restore()
    student.set_trainable(False)
    return TrainResult(student, metrics, tracker.best_epoch, tracker.best_val, tracker.best_test)


def train_online(g: Graph, g_complete: Graph, teacher: GnnModel,
                 student: GnnModel, plan: TrainPlan, node_map=None) -> TrainResult:
    """Teacher and student trained jointly; one step each per epoch."""
    cfg = plan.distill
    if node_map is None:
        node_map = np.arange(g_complete.num_nodes)
    init_xavier(teacher, plan.seed, STREAM_TEACHER_ONLINE)
    init_xavier(student, plan.seed, STREAM_STUDENT)
    teacher.set_trainable(True)
    student.set_trainable(True)
    opt_t = Adam(teacher.parameters(), plan.lr)
    opt_s = Adam(student.parameters(), plan.lr)
    tracker_t = _BestTracker(teacher)
    tracker = _BestTracker(student)
    projections = ProjectionCache(plan.kernel) if plan.kernel.kind == "randomized" else None
    w_full = _full_weight_matrix(g, cfg)
    metrics = []
    for epoch in range(plan.epochs):
        tic = time.perf_counter()
        t_logits_live, _ = forward(teacher, g_complete)
        t_loss = T.cross_entropy(t_logits_live, g_complete.labels, g_complete.train_mask)
        opt_t.zero_grad()
        t_loss.backward()
        opt_t.step()
        _, t_val, t_test = _evaluate(teacher, g_complete)
        tracker_t.update(epoch, t_val, t_test)

        logits, trace = forward(student, g)
        loss_pre = T.cross_entropy(logits, g.labels, g.train_mask)
        total = loss_pre
        loss_dis_val = 0.0
        if cfg.alpha > 0 or cfg.alpha_kd > 0:
            teacher_logits, teacher_feats = _teacher_layer_features(teacher, g_complete, node_map)
            teacher.set_trainable(True)
        if cfg.alpha > 0:
            dis = _distill_term(plan, g, trace, teacher_feats, w_full, projections, epoch)
            loss_dis_val = dis.item()
            total = T.add(total, dis)
        if cfg.alpha_kd > 0:
            kd = kd_soft_label_loss(teacher_logits, logits, cfg.tau_kd, g.train_mask)
            total = T.add(total, T.scale(kd, cfg.alpha_kd))
        opt_s.zero_grad()
        total.backward()
        opt_s.step()

        train_acc, val_acc, test_acc = _evaluate(student, g)
        tracker.update(epoch, val_acc, test_acc)
        metrics.append(MetricsRecord(
            epoch, loss_pre.item(), loss_dis_val, train_acc, val_acc, test_acc,
            (time.perf_counter() - tic) * 1e3,
        ))
        if plan.patience and tracker.since_best >= plan.patience:
            break
    tracker.restore()
    tracker_t.restore()
    teacher.set_trainable(False)
    student.set_trainable(False)
    return TrainResult(
        student, metrics, tracker.best_epoch, tracker.best_val, tracker.best_test,
        teacher_model=teacher,
    )


def train_student(plan: TrainPlan, g: Graph, g_complete: Graph,
                  teacher: GnnModel, student: GnnModel, node_map=None) -> TrainResult:
    """Dispatch on plan.mode; self-distillation and compression run offline."""
    if plan.mode in ("gkd_offline", "self_distill", "compression"):
        return train_student_gkd(g, teacher, g_complete, plan, student, node_map)
    if plan.mode == "pgkd":
        return train_student_pgkd(g, teacher, g_complete, plan, student, node_map)
    if plan.mode == "online":
        return train_online(g, g_complete, teacher, student, plan, node_map)
    raise ValidationError(f"mode {plan.mode!r} is not a student mode")


def sample_distill_batch(n: int, batch_size: int, seed: int, epoch: int) -> np.ndarray:
    """Slice of a seeded permutation, cycling so every node appears each cycle."""
    if not 1 <= batch_size <= n:
        raise ValidationError(f"batch_size {batch_size} out of [1, {n}]")
    num_batches = -(-n // batch_size)
    cycle, pos = divmod(epoch, num_batches)
    perm = np.random.default_rng([int(seed), STREAM_BATCH, int(cycle)]).permutation(n)
    start = pos * batch_size
    ids = perm[start:start + batch_size]
    if len(ids) < batch_size:
        ids = np.concatenate([ids, perm[:batch_size - len(ids)]])
    return ids


_GRID_KERNEL_KEYS = {"t", "a", "b", "m", "s"}
_GRID_DISTILL_KEYS = {"alpha", "delta", "alpha_kd", "tau_kd", "batch_size", "layer_span"}
_GRID_PLAN_KEYS = {"lr", "lr_mapper", "epochs", "patience"}


def apply_grid_overrides(plan: TrainPlan, overrides: dict) -> TrainPlan:
    kernel_kv = {k: v for k, v in overrides.items() if k in _GRID_KERNEL_KEYS}
    distill_kv = {k: v for k, v in overrides.items() if k in _GRID_DISTILL_KEYS}
    plan_kv = {k: v for k, v in overrides.items() if k in _GRID_PLAN_KEYS}
    unknown = set(overrides) - _GRID_KERNEL_KEYS - _GRID_DISTILL_KEYS - _GRID_PLAN_KEYS
    if unknown:
        raise ValidationError(f"unknown grid keys: {sorted(unknown)}")
    new_plan = replace(plan, **plan_kv)
    if kernel_kv:
        new_plan = replace(new_plan, kernel=replace(plan.kernel, **kernel_kv))
    if distill_kv:
        new_plan = replace(new_plan, distill=replace(plan.distill, **distill_kv))
    return new_plan


def grid_search(space: dict, plan: TrainPlan, g: Graph, g_complete: Graph = None,
                teacher: GnnModel = None, model_builder=None):
    """Exhaustive search over the declared space, selected on validation accuracy.

    Ties keep the first combination in declared (lexicographic) order. Returns
    (best override dict, rows), one row per combination with its accuracies.
    """
    if not space or any(len(v) == 0 for v in space.values()):
        raise ValidationError("grid space must be nonempty")
    if model_builder is None:
        raise ValidationError("grid_search needs a model_builder")
    keys = list(space.keys())
    rows = []
    best_row = None
    best_overrides = None
    for combo in itertools.product(*(space[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        cell_plan = apply_grid_overrides(plan, overrides)
        model = model_builder()
        if cell_plan.mode == "teacher":
            result = train_supervised(g_complete if g_complete is not None else g,
                                      model, cell_plan)
        else:
            result = train_student(cell_plan, g, g_complete, teacher, model)
        row = dict(overrides)
        row["val_acc"] = result.best_val_acc
        row["test_acc"] = result.best_test_acc
        rows.append(row)
        if best_row is None or row["val_acc"] > best_row["val_acc"]:
            best_row = row
            best_overrides = overrides
    return best_overrides, rows
