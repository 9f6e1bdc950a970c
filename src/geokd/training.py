"""Training drivers: supervised pretraining, offline/online distillation,
EM-style parametric distillation, mini-batch sampling and grid search.

Every mode runs the one epoch loop in ``_fit`` and supplies only the loss
terms it adds to the cross-entropy.

Every run is a pure function of (graphs, plan, seed). Random streams are
namespaced so that a distilled student with all distillation weights at zero
replays the plain supervised trajectory bit for bit.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .distill import (
    DistillConfig,
    InverseNhkMapper,
    distill_loss,
    factored_distill_loss,
    factored_reconstruction_loss,
    kd_soft_label_loss,
    layer_avg_distill,
    pgkd_span,
    teacher_layer_kernels,
    trace_feature_dim,
    weight_matrix,
)
from .errors import NumericError, ValidationError
from .graphs import Graph
from .models import GnnModel, accuracies, forward, init_xavier
from .nhk import KernelSpec, kernel_matrix

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


def _require_finite(epoch: int, **losses):
    """NumericError naming the epoch and the first non-finite loss."""
    for name, value in losses.items():
        if value is not None and not math.isfinite(value):
            raise NumericError(f"epoch {epoch}: {name} is {value}")


def _fit(model: GnnModel, g: Graph, plan: TrainPlan, terms) -> TrainResult:
    """The epoch loop shared by every mode, with best-validation checkpointing.

    Each epoch minimizes cross-entropy plus the tensors of
    ``terms(epoch, logits, trace) -> (tensors, loss_dis, loss_rec)``. The
    forward after each step both evaluates the epoch and feeds the next
    epoch's loss, since the weights do not change in between: a run of E
    epochs runs E + 1 forwards.
    """
    if len(g.train_mask) == 0:
        raise ValidationError("graph has no training nodes")
    init_xavier(model, plan.seed, STREAM_STUDENT)
    model.set_trainable(True)
    opt = Adam(model.parameters(), plan.lr)
    tracker = _BestTracker(model)
    metrics = []
    logits, trace = forward(model, g)
    for epoch in range(plan.epochs):
        tic = time.perf_counter()
        loss_pre = T.cross_entropy(logits, g.labels, g.train_mask)
        extra, loss_dis, loss_rec = terms(epoch, logits, trace)
        _require_finite(epoch, loss_pre=loss_pre.item(), loss_dis=loss_dis,
                        loss_rec=loss_rec)
        total = loss_pre
        for term in extra:
            total = T.add(total, term)
        opt.zero_grad()
        total.backward()
        opt.step()
        logits, trace = forward(model, g)
        train_acc, val_acc, test_acc = accuracies(logits.values, g)
        tracker.update(epoch, val_acc, test_acc)
        metrics.append(MetricsRecord(
            epoch, loss_pre.item(), loss_dis, train_acc, val_acc, test_acc,
            (time.perf_counter() - tic) * 1e3, loss_rec=loss_rec,
        ))
        if plan.patience and tracker.since_best >= plan.patience:
            break
    tracker.restore()
    model.set_trainable(False)
    return TrainResult(model, metrics, tracker.best_epoch, tracker.best_val, tracker.best_test)


def train_supervised(g: Graph, model: GnnModel, plan: TrainPlan) -> TrainResult:
    """Cross-entropy training on one graph with best-validation checkpointing."""
    return _fit(model, g, plan, lambda epoch, logits, trace: ((), 0.0, None))


def _restrict(logits, trace, node_map):
    """Teacher logit and trace values on the student's rows (all if None)."""
    if node_map is None:
        node_map = np.arange(logits.shape[0])
    return logits.values[node_map], [h.values[node_map] for h in trace]


def _kd_term(plan: TrainPlan, teacher_logits, logits, g: Graph):
    return T.scale(kd_soft_label_loss(teacher_logits, logits, plan.distill.tau_kd,
                                      g.train_mask), plan.distill.alpha_kd)


class _GkdTerms:
    """gkd and online terms: alpha-scaled per-layer alignment, soft labels.

    Alignment constants are built once per run. On the full graph that is
    W; given a frozen teacher's features, also its kernels and, on the first
    call, the terms of gradient-free student entries (the input features,
    the whole sgc trace). A mini-batch run builds them for each epoch's batch.
    """

    def __init__(self, plan: TrainPlan, g: Graph, frozen_teacher_feats=None,
                 student: GnnModel | None = None):
        self.plan, self.g = plan, g
        n, cfg = g.num_nodes, plan.distill
        self.batched = cfg.batch_size is not None and cfg.batch_size < n
        self.w = self.teacher_kernels = self.fixed_terms = None
        if cfg.alpha > 0 and not self.batched:
            self.w = weight_matrix(g, cfg.delta, np.arange(n))
            if frozen_teacher_feats is not None:
                dims = [trace_feature_dim(student, l) for l in range(student.num_layers + 1)]
                self.teacher_kernels = teacher_layer_kernels(frozen_teacher_feats, dims,
                                                             plan.kernel)

    def __call__(self, epoch: int, teacher_logits, teacher_feats, logits, trace):
        spec, cfg = self.plan.kernel, self.plan.distill
        extra, loss_dis = [], 0.0
        if cfg.alpha > 0:
            if self.batched:
                ids = sample_distill_batch(self.g.num_nodes, cfg.batch_size,
                                           self.plan.seed, epoch)
                dis = layer_avg_distill([f[ids] for f in teacher_feats],
                                        [T.take_rows(h, ids) for h in trace], spec, cfg,
                                        weight_matrix(self.g, cfg.delta, ids))
            else:
                if self.teacher_kernels is not None and self.fixed_terms is None:
                    self.fixed_terms = {
                        l: distill_loss(self.teacher_kernels[l], kernel_matrix(spec, h),
                                        self.w).item()
                        for l, h in enumerate(trace[:-1]) if not h.requires_grad
                    }
                dis = layer_avg_distill(teacher_feats, trace, spec, cfg, self.w,
                                        self.teacher_kernels, self.fixed_terms)
            loss_dis = dis.item()
            extra.append(dis)
        if cfg.alpha_kd > 0:
            extra.append(_kd_term(self.plan, teacher_logits, logits, self.g))
        return extra, loss_dis, None


def train_student_gkd(g: Graph, teacher: GnnModel, g_complete: Graph,
                      plan: TrainPlan, student: GnnModel,
                      node_map=None) -> TrainResult:
    """Offline distillation: frozen teacher, per-layer kernel alignment."""
    teacher.set_trainable(False)
    teacher_logits, teacher_feats = _restrict(*forward(teacher, g_complete), node_map)
    if len(teacher_feats) != student.num_layers + 1:
        raise ValidationError(
            f"teacher trace has {len(teacher_feats)} entries, student expects "
            f"{student.num_layers + 1}"
        )
    gkd = _GkdTerms(plan, g, teacher_feats, student)
    return _fit(student, g, plan, lambda epoch, logits, trace: gkd(
        epoch, teacher_logits, teacher_feats, logits, trace))


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
    teacher.set_trainable(False)
    t_logits, t_trace = forward(teacher, g_complete)
    early_t, late_t = pgkd_span(teacher)
    early_s, late_s = pgkd_span(student)
    t_late_full = T.constant(t_trace[late_t].values)
    t_early_full = T.constant(t_trace[early_t].values)
    teacher_logits_sub, t_feats_sub = _restrict(t_logits, t_trace, node_map)
    t_late_sub = T.constant(t_feats_sub[late_t])

    mapper_t, mapper_s = _build_mappers(plan, teacher, student)
    phi_params = mapper_t.parameters()
    if mapper_s is not mapper_t:
        phi_params = phi_params + mapper_s.parameters()
    opt_phi = Adam(phi_params, plan.lr_mapper)

    def terms(epoch, logits, trace):
        # E-step: refit the inverse kernel with the GNN weights frozen; it
        # reads the trace values as constants.
        s_late = T.constant(trace[late_s].values)
        s_early = T.constant(trace[early_s].values)
        rec = T.add(
            factored_reconstruction_loss(mapper_t.apply(t_late_full), t_late_full, t_early_full),
            factored_reconstruction_loss(mapper_s.apply(s_late), s_late, s_early),
        )
        opt_phi.zero_grad()
        rec.backward()
        opt_phi.step()

        # M-step terms: inverse-kernel alignment, mapper frozen.
        extra, loss_dis = [], 0.0
        if cfg.alpha > 0:
            phi_t = mapper_t.apply(t_late_sub)
            phi_s = mapper_s.apply(trace[late_s])
            dis = T.scale(factored_distill_loss(g, phi_t, phi_s, cfg.delta), cfg.alpha)
            loss_dis = dis.item()
            extra.append(dis)
        if cfg.alpha_kd > 0:
            extra.append(_kd_term(plan, teacher_logits_sub, logits, g))
        return extra, loss_dis, rec.item()

    return _fit(student, g, plan, terms)


def train_online(g: Graph, g_complete: Graph, teacher: GnnModel,
                 student: GnnModel, plan: TrainPlan, node_map=None) -> TrainResult:
    """Teacher and student trained jointly; one step each per epoch."""
    init_xavier(teacher, plan.seed, STREAM_TEACHER_ONLINE)
    teacher.set_trainable(True)
    opt_t = Adam(teacher.parameters(), plan.lr)
    tracker_t = _BestTracker(teacher)
    gkd = _GkdTerms(plan, g)
    # as for the student, the teacher forward after each of its steps is
    # also the one its next step differentiates
    t_logits, t_trace = forward(teacher, g_complete)

    def terms(epoch, logits, trace):
        nonlocal t_logits, t_trace
        t_loss = T.cross_entropy(t_logits, g_complete.labels, g_complete.train_mask)
        _require_finite(epoch, teacher_loss_pre=t_loss.item())
        opt_t.zero_grad()
        t_loss.backward()
        opt_t.step()
        t_logits, t_trace = forward(teacher, g_complete)
        _, t_val, t_test = accuracies(t_logits.values, g_complete)
        tracker_t.update(epoch, t_val, t_test)
        return gkd(epoch, *_restrict(t_logits, t_trace, node_map), logits, trace)

    result = _fit(student, g, plan, terms)
    tracker_t.restore()
    teacher.set_trainable(False)
    result.teacher_model = teacher
    return result


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
_GRID_DISTILL_KEYS = {"alpha", "delta", "alpha_kd", "tau_kd", "batch_size"}
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
