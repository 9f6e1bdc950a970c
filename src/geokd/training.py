"""Training: supervised pretraining (``train_supervised``), every student
mode (``train_student``) and mini-batch sampling.

Every mode runs the one epoch loop in ``_fit`` and supplies only the loss
terms it adds to the cross-entropy. The student modes differ only in where
the teacher's features come from (a frozen checkpoint, or a teacher trained
alongside in online mode) and which terms they add. ``TrainPlan`` checks
each mode's kernel once: pgkd aligns the learned parametric kernel, and
every other student mode aligns the ``nhk.kernel_rows`` of a gauss, sigmoid
or randomized one.

Every run is a pure function of (graphs, plan, seed). Random streams are
namespaced so that a distilled student with all distillation weights at zero
replays the plain supervised trajectory bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from . import tensor as T
from .distill import (
    DistillConfig,
    InverseNhkMapper,
    factored_reconstruction_loss,
    kd_soft_label_loss,
    layer_avg_distill,
    pgkd_span,
    require_hidden_layers,
    teacher_kernels,
    trace_feature_dim,
)
from .errors import GraphParseError, NumericError, ValidationError
from .graphs import Graph, adjacency
from .models import GnnModel, accuracies, forward, init_xavier
from .nhk import KernelSpec

STREAM_STUDENT = 201   # also the lone model of a supervised run
STREAM_TEACHER_ONLINE = 202
STREAM_MAPPER = 203   # the teacher's, or the one shared, inverse-kernel mapper
STREAM_BATCH = 204
STREAM_MAPPER_STUDENT = 205  # the student's own mapper when late widths differ

STUDENT_MODES = ("gkd_offline", "pgkd", "online", "self_distill", "compression")
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    Training takes one step per epoch, so a non-finite gradient is reported
    as a NumericError naming the step count as the epoch, and ``name[i]``.
    """

    def __init__(self, params, lr: float, name: str = "parameter"):
        self.params = list(params)
        self.lr = float(lr)
        self.name = name
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValidationError("adam step with unpopulated gradient")
            if not np.isfinite(p.grad).all():
                raise NumericError(
                    f"epoch {self.step_count}: gradient of {self.name}[{i}] is not finite")
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = _BETA1 * self.m[i] + (1 - _BETA1) * g
            self.v[i] = _BETA2 * self.v[i] + (1 - _BETA2) * (g * g)
            m_hat = self.m[i] / (1 - _BETA1 ** t)
            v_hat = self.v[i] / (1 - _BETA2 ** t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)


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
        """Deterministic serialization: the fields in order, loss_rec only
        when set; wall time lives in a sidecar file."""
        doc = asdict(self)
        del doc["wall_ms"]
        if self.loss_rec is None:
            del doc["loss_rec"]
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
        if self.mode not in ("teacher",) + STUDENT_MODES:
            raise GraphParseError("mode", f"unknown mode {self.mode!r}")
        if self.epochs < 1:
            raise GraphParseError("epochs", f"expected an integer >= 1, got {self.epochs}")
        if self.patience < 0:  # would stop after the first epoch
            raise GraphParseError("patience", f"expected an integer >= 0, got {self.patience}")
        for name in ("lr", "lr_mapper"):  # a negative rate would ascend the loss
            if not getattr(self, name) > 0:
                raise GraphParseError(name, f"expected a number > 0, got {getattr(self, name)}")
        # the one mode x kernel check: pgkd learns its kernel, gkd evaluates one
        pgkd = self.mode == "pgkd"
        if self.mode != "teacher" and pgkd != (self.kernel.kind == "parametric"):
            need = "'parametric'" if pgkd else "'gauss', 'sigmoid' or 'randomized'"
            raise GraphParseError("kernel.kind", f"mode {self.mode!r} aligns {need} "
                                  f"kernels, got {self.kernel.kind!r}")
        if pgkd and self.distill.batch_size is not None:
            raise GraphParseError("distill.batch_size", "mode 'pgkd' aligns the whole graph, "
                                  f"got {self.distill.batch_size}")

    def require_alignable(self, kind: str, depth: int, teacher_depth: int | None = None):
        """Alignment at alpha > 0 needs a gcn student of depth >= 2, and every
        mode but pgkd aligns the teacher's trace entry l with the student's."""
        if self.mode != "teacher" and self.distill.alpha > 0:
            require_hidden_layers(kind, depth, "distill.alpha")
        if self.mode not in ("teacher", "pgkd") and teacher_depth not in (None, depth):
            raise GraphParseError("student.depth", f"mode {self.mode!r} aligns trace entries "
                                  f"one to one: teacher.depth is {teacher_depth}, got {depth}")


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
    epochs runs E + 1 forwards. Before the backward the loop keeps only the
    floats its record needs: the tape alone holds the epoch's forward and loss
    terms, the backward frees them as it walks, and no two forwards coexist.
    """
    plan.require_alignable(model.kind, model.num_layers)
    empty = g.empty_split()
    if empty is not None:
        raise ValidationError(f"graph has no {empty} nodes")
    init_xavier(model, plan.seed, STREAM_STUDENT)
    model.set_trainable(True)
    opt = Adam(model.parameters(), plan.lr,
               name="teacher weight" if plan.mode == "teacher" else "student weight")
    tracker = _BestTracker(model)
    metrics = []
    logits, trace = forward(model, g)
    for epoch in range(plan.epochs):
        tic = time.perf_counter()
        loss_pre = T.cross_entropy(logits, g.labels, g.train_mask)
        extra, loss_dis, loss_rec = terms(epoch, logits, trace)
        pre = loss_pre.item()
        _require_finite(epoch, loss_pre=pre, loss_dis=loss_dis, loss_rec=loss_rec)
        total = reduce(T.add, extra, loss_pre)
        del logits, trace, loss_pre, extra
        opt.zero_grad()
        total.backward()
        del total
        opt.step()
        logits, trace = forward(model, g)
        train_acc, val_acc, test_acc = accuracies(logits.values, g)
        tracker.update(epoch, val_acc, test_acc)
        metrics.append(MetricsRecord(
            epoch, pre, loss_dis, train_acc, val_acc, test_acc,
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


def _teacher_view(logits, trace, node_map, read_logits: bool, entries):
    """The teacher values a student mode reads, on the student's rows: the
    logits if ``read_logits``, else None, and the trace with None at entries
    not in ``entries``. With node_map None they are the teacher's own arrays,
    uncopied."""
    def rows(t):
        return t.values if node_map is None else t.values[node_map]
    return (rows(logits) if read_logits else None,
            [rows(h) if i in entries else None for i, h in enumerate(trace)])


def _build_mappers(plan: TrainPlan, teacher: GnnModel, student: GnnModel):
    """Shared mapper when late-layer dims agree, else one per model, common s."""
    _, late_t = pgkd_span(teacher)
    _, late_s = pgkd_span(student)
    d_t = trace_feature_dim(teacher, late_t)
    d_s = trace_feature_dim(student, late_s)
    s = plan.kernel.width(d_s)
    mapper_t = InverseNhkMapper(d_t, s)
    mapper_t.init(plan.seed, STREAM_MAPPER)
    if d_t == d_s:
        return mapper_t, mapper_t
    mapper_s = InverseNhkMapper(d_s, s)
    mapper_s.init(plan.seed, STREAM_MAPPER_STUDENT)
    return mapper_t, mapper_s


def _e_step(opt_phi: Adam, sides) -> float:
    """pgkd's E-step: one mapper step on the sum, returned, of the ``sides``'
    (mapper, h_late, h_early) reconstruction losses. Each side's tape is spent
    before the next is built; a shared mapper's weight sums one gradient from
    each side, as a backward through their sum would, in either order. The
    mapper weights take a gradient here alone: outside, they are constants
    that no tape differentiates, and they hold no grad."""
    for p in opt_phi.params:
        p.requires_grad, p.grad = True, None
    losses = []
    for mapper, late, early in sides:
        rec = factored_reconstruction_loss(mapper.apply(late), late, early)
        rec.backward()
        losses.append(rec.item())
    opt_phi.step()
    for p in opt_phi.params:
        p.requires_grad, p.grad = False, None
    return sum(losses)


def train_student(plan: TrainPlan, g: Graph, g_complete: Graph,
                  teacher: GnnModel, student: GnnModel, node_map=None) -> TrainResult:
    """Distill the teacher, run on g_complete, into the student, trained on g.

    ``node_map[i]`` is the g_complete node of g's node i (None: the same
    nodes). online trains the teacher from scratch, one step ahead of the
    student each epoch; every other mode freezes it and runs it once, then
    drops g_complete's cached operators unless g is g_complete. Each epoch
    then adds to the student's cross-entropy, in order: pgkd's E-step, which
    refits the inverse-kernel mappers with the GNN weights frozen; the
    alignment at alpha > 0; the soft labels at alpha_kd > 0.

    pgkd aligns the mapped late span entries. Every other mode aligns trace
    entries 1 .. L-1 under an alpha / L scale (entry 0 is X on both sides).
    Every teacher side is a ``T.TeacherKernel``; only when it is built
    differs. A frozen full-graph teacher's are built once, before the first
    epoch (``teacher_kernels``), and its trace is dropped. An online or
    batched teacher's, and pgkd's mapped one, are rebuilt each epoch from the
    aligned rows alone, so a batch of b nodes holds O(b r) teacher floats.
    """
    if plan.mode not in STUDENT_MODES:
        raise ValidationError(f"mode {plan.mode!r} is not a student mode")
    cfg, spec = plan.distill, plan.kernel
    online, pgkd = plan.mode == "online", plan.mode == "pgkd"
    if online:
        init_xavier(teacher, plan.seed, STREAM_TEACHER_ONLINE)
        opt_t = Adam(teacher.parameters(), plan.lr, name="online teacher weight")
        tracker_t = _BestTracker(teacher)
    teacher.set_trainable(online)
    # as for the student, an online teacher's forward after each of its steps
    # is also the one its next step differentiates
    t_logits, t_trace = forward(teacher, g_complete)
    if not pgkd and len(t_trace) != student.num_layers + 1:
        raise ValidationError(f"teacher trace has {len(t_trace)} entries, student expects "
                              f"{student.num_layers + 1}")
    if pgkd:
        (early_t, late_t), (early_s, late_s) = pgkd_span(teacher), pgkd_span(student)
        t_late, t_early = (T.constant(t_trace[i].values) for i in (late_t, early_t))
        mapper_t, mapper_s = _build_mappers(plan, teacher, student)
        phi_params = mapper_t.parameters()
        if mapper_s is not mapper_t:
            phi_params = phi_params + mapper_s.parameters()
        opt_phi = Adam(phi_params, plan.lr_mapper, name="mapper weight")
    # the epochs read the logits for soft labels alone, and the entries the
    # alignment reads: pgkd's mapped late one, every other mode's 1 .. L-1
    entries = () if cfg.alpha == 0 else (late_t,) if pgkd else range(1, len(t_trace) - 1)
    t_view = _teacher_view(t_logits, t_trace, node_map, cfg.alpha_kd > 0, entries)
    if not online:  # frees the forward's tensors; a frozen teacher's epochs read arrays alone
        t_logits = t_trace = None
        if g_complete is not g:  # and nothing reads g_complete's operators again
            g_complete.drop_operators()
    batched = cfg.batch_size is not None and cfg.batch_size < g.num_nodes
    frozen = None
    if cfg.alpha > 0 and not (online or pgkd or batched):  # all the epochs read of the trace
        frozen = teacher_kernels(t_view[1], student.dims, spec, adjacency(g), cfg.delta)
        t_view = t_view[0], None

    def terms(epoch, logits, trace):
        nonlocal t_logits, t_trace, t_view
        extra, loss_dis, loss_rec = [], 0.0, None
        if online:
            t_loss = T.cross_entropy(t_logits, g_complete.labels, g_complete.train_mask)
            _require_finite(epoch, teacher_loss_pre=t_loss.item())
            t_logits = t_trace = t_view = None  # as in _fit: the tape alone holds them
            opt_t.zero_grad()
            t_loss.backward()
            opt_t.step()
            t_logits, t_trace = forward(teacher, g_complete)
            _, t_val, t_test = accuracies(t_logits.values, g_complete)
            tracker_t.update(epoch, t_val, t_test)
            t_view = _teacher_view(t_logits, t_trace, node_map, cfg.alpha_kd > 0, entries)
        teacher_logits, teacher_feats = t_view
        if pgkd:  # the E-step reads the student's trace values as constants
            s_late, s_early = (T.constant(trace[i].values) for i in (late_s, early_s))
            loss_rec = _e_step(opt_phi, ((mapper_t, t_late, t_early),
                                         (mapper_s, s_late, s_early)))
        if cfg.alpha > 0:
            if pgkd:  # the mappers stay frozen from here on
                phi_t = mapper_t.apply(T.constant(teacher_feats[late_t])).values
                dis = T.scale(T.kernel_alignment(mapper_s.apply(trace[late_s]), T.TeacherKernel(
                    phi_t, spec, adjacency(g), cfg.delta)), cfg.alpha)
            else:
                ids = None
                if batched:
                    ids = sample_distill_batch(g.num_nodes, cfg.batch_size, plan.seed, epoch)
                    trace = [T.take_rows(h, ids) if 0 < l < len(trace) - 1 else h  # 1 .. L-1
                             for l, h in enumerate(trace)]
                    teacher_feats = [f if f is None else f[ids] for f in teacher_feats]
                dis = layer_avg_distill(frozen or teacher_kernels(  # an online or batched one's
                    teacher_feats, student.dims, spec, adjacency(g, ids), cfg.delta),
                    trace, spec, cfg.alpha)
            loss_dis = dis.item()
            extra.append(dis)
        if cfg.alpha_kd > 0:
            extra.append(T.scale(kd_soft_label_loss(teacher_logits, logits, cfg.tau_kd,
                                                    g.train_mask), cfg.alpha_kd))
        return extra, loss_dis, loss_rec

    result = _fit(student, g, plan, terms)
    if online:
        tracker_t.restore()
        teacher.set_trainable(False)
        result.teacher_model = teacher
    return result


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
