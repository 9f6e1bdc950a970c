"""Distillation losses: kernel alignment, inverse-kernel reconstruction, soft labels.

The alignment loss is ||(K_teacher_sub - K_student) .* W||_F^2 where W weights
connected pairs 1 and everything else (including self-pairs) delta. Teacher
inputs are detached here so no gradient ever reaches the frozen model.

The learned inverse kernel is a Gram, K = Phi Phi^T with Phi n x s, so its
losses never need the n x n matrix. Reconstruction is K H = Phi (Phi^T H).
For alignment, W .* W = delta^2 + (1 - delta^2) A whenever the adjacency A is
binary with a zero diagonal, which ``Graph`` guarantees (no self-loops, no
duplicate edges). Hence, with phi_u the row of node u,

    ||W .* (K_s - K_t)||_F^2
        = delta^2 (||Phi_s^T Phi_s||^2 - 2 ||Phi_s^T Phi_t||^2 + ||Phi_t^T Phi_t||^2)
        + 2 (1 - delta^2) sum_{(u, v) in E} (<phi_s,u, phi_s,v> - <phi_t,u, phi_t,v>)^2

in O(n s^2 + |E| s) time and O(n s + |E| s) memory. ``factored_distill_loss``
and ``factored_reconstruction_loss`` compute these from tape ops; the dense
``distill_loss``, ``inverse_nhk_gram`` and ``reconstruction_loss`` are the
reference they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError, ValidationError
from .graphs import Graph, edge_endpoints
from .models import GnnModel, init_xavier
from .nhk import KernelSpec, kernel_matrix
from .tensor import Tensor


@dataclass
class DistillConfig:
    """Loss weighting and schedule for student training."""

    alpha: float = 1.0        # kernel-alignment weight
    delta: float = 0.0        # off-edge pair weight in W
    alpha_kd: float = 0.0     # soft-label loss weight
    tau_kd: float = 1.0       # soft-label temperature
    batch_size: int | None = None  # nodes per distillation mini-batch

    def __post_init__(self):
        if self.alpha < 0:
            raise ValidationError("alpha must be >= 0")
        if self.delta < 0:
            raise ValidationError("delta must be >= 0")
        if not 0.0 <= self.alpha_kd < 1.0:
            raise ValidationError("alpha_kd must lie in [0, 1)")
        if self.tau_kd <= 0:
            raise ValidationError("tau_kd must be > 0")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")


class InverseNhkMapper:
    """One-layer tanh map g: R^d -> R^s whose Gram is the learned inverse kernel."""

    def __init__(self, in_dim: int, out_dim: int):
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.weight = T.parameter(np.zeros((self.in_dim, self.out_dim)))
        self.weights = [self.weight]  # what init_xavier initializes

    def init(self, seed: int, stream: int = 203):
        init_xavier(self, seed, stream)

    def apply(self, h: Tensor) -> Tensor:
        if h.shape[1] != self.in_dim:
            raise DimensionError(f"mapper expects dim {self.in_dim}, got {h.shape[1]}")
        return T.tanh(T.matmul(h, self.weight))

    def parameters(self):
        return [self.weight]


def weight_matrix(g: Graph, delta: float, node_subset) -> Tensor:
    """W over the subset: 1 on student edges, delta elsewhere (self-pairs too)."""
    subset = np.asarray(node_subset, dtype=np.int64)
    if len(subset) and (subset.min() < 0 or subset.max() >= g.num_nodes):
        raise ValidationError("node subset id out of range")
    # adjacency among the distinct ids from the edges inside them, then
    # expanded to the subset's order (repeated ids share a row and column)
    uniq, inverse = np.unique(subset, return_inverse=True)
    pos = np.full(g.num_nodes, -1, dtype=np.int64)
    pos[uniq] = np.arange(len(uniq))
    pu, pv = pos[g.edges[:, 0]], pos[g.edges[:, 1]]
    inside = (pu >= 0) & (pv >= 0)
    adj = np.zeros((len(uniq), len(uniq)))
    adj[pu[inside], pv[inside]] = 1.0
    adj[pv[inside], pu[inside]] = 1.0
    adj = adj[np.ix_(inverse, inverse)]
    return T.constant(delta + (1.0 - delta) * adj)


def distill_loss(k_teacher_sub: Tensor, k_student: Tensor, w: Tensor) -> Tensor:
    """Weighted Frobenius alignment; gradient flows into the student kernel only."""
    if k_teacher_sub.shape != k_student.shape:
        raise DimensionError(
            f"kernel shapes differ: {k_teacher_sub.shape} vs {k_student.shape}"
        )
    return T.frobenius_sq(k_student, k_teacher_sub.detach(), w)


def teacher_layer_kernels(traces_teacher, traces_student_dims, spec: KernelSpec):
    """Kernel matrices of the frozen teacher, one per loss layer, detached.

    A randomized kernel projects teacher layer l to the width the student's
    layer l uses: spec.s, else twice the student's feature width.
    """
    kernels = []
    for l in range(len(traces_teacher) - 1):
        h_t = traces_teacher[l] if isinstance(traces_teacher[l], Tensor) \
            else T.constant(traces_teacher[l])
        s = spec.s if spec.s is not None else 2 * traces_student_dims[l]
        kernels.append(kernel_matrix(spec, h_t, s).detach())
    return kernels


def layer_avg_distill(traces_teacher, traces_student, spec: KernelSpec,
                      cfg: DistillConfig, w: Tensor, teacher_kernels=None,
                      fixed_terms=None) -> Tensor:
    """Mean per-layer kernel alignment scaled by alpha.

    The kernel bridging layer l-1 to l is evaluated on the source features,
    so the L loss terms read trace entries 0 .. L-1. Teacher entries must
    already be restricted to the student's nodes (and batch, if sampling).
    A run whose teacher is frozen passes its ``teacher_kernels`` and, as
    ``fixed_terms`` {l: value}, the terms of gradient-free student entries.
    """
    if len(traces_teacher) != len(traces_student):
        raise DimensionError(
            f"trace length mismatch: {len(traces_teacher)} vs {len(traces_student)}"
        )
    num_layers = len(traces_student) - 1
    if num_layers < 1:
        raise ValidationError("traces must cover at least one layer")
    if teacher_kernels is None:
        teacher_kernels = teacher_layer_kernels(
            traces_teacher, [h.shape[1] for h in traces_student], spec
        )
    fixed_terms = fixed_terms or {}
    total = None
    for l in range(num_layers):
        if l in fixed_terms:
            term = T.constant([[fixed_terms[l]]])
        else:
            term = distill_loss(teacher_kernels[l], kernel_matrix(spec, traces_student[l]), w)
        total = term if total is None else T.add(total, term)
    return T.scale(total, cfg.alpha / num_layers)


def inverse_nhk_gram(mapper: InverseNhkMapper, h_last: Tensor) -> Tensor:
    """Gram matrix of mapped late-layer features; symmetric PSD."""
    return T.gram(mapper.apply(h_last))


def reconstruction_loss(k_dagger: Tensor, h_late: Tensor, h_early: Tensor) -> Tensor:
    """||K_dagger H_late - H_early||_F^2."""
    if k_dagger.shape[1] != h_late.shape[0]:
        raise DimensionError(
            f"k_dagger cols {k_dagger.shape[1]} != h_late rows {h_late.shape[0]}"
        )
    recon = T.matmul(k_dagger, h_late)
    if recon.shape != h_early.shape:
        raise DimensionError(
            f"reconstruction shape {recon.shape} != target {h_early.shape}"
        )
    ones = T.constant(np.ones(h_early.shape))
    return T.frobenius_sq(recon, h_early, ones)


def factored_reconstruction_loss(phi: Tensor, h_late: Tensor, h_early: Tensor) -> Tensor:
    """||Phi (Phi^T H_late) - H_early||_F^2, i.e. reconstruction_loss of Phi Phi^T."""
    if phi.shape[0] != h_late.shape[0]:
        raise DimensionError(f"phi rows {phi.shape[0]} != h_late rows {h_late.shape[0]}")
    recon = T.matmul(phi, T.matmul(T.transpose(phi), h_late))
    if recon.shape != h_early.shape:
        raise DimensionError(
            f"reconstruction shape {recon.shape} != target {h_early.shape}"
        )
    diff = T.sub(recon, h_early)
    return T.sum_all(T.mul_elem(diff, diff))


def _sq_cross_gram(a: Tensor, b: Tensor) -> Tensor:
    """||A^T B||_F^2 as a scalar tensor."""
    m = T.matmul(T.transpose(a), b)
    return T.sum_all(T.mul_elem(m, m))


def factored_distill_loss(g: Graph, phi_teacher_sub: Tensor, phi_student: Tensor,
                          delta: float) -> Tensor:
    """distill_loss(Phi_t Phi_t^T, Phi_s Phi_s^T, weight_matrix(g, delta, all nodes)).

    Computed from the factors by the identity in the module docstring; the
    teacher factor is detached.
    """
    if phi_teacher_sub.shape != phi_student.shape:
        raise DimensionError(
            f"factor shapes differ: {phi_teacher_sub.shape} vs {phi_student.shape}"
        )
    if phi_student.shape[0] != g.num_nodes:
        raise DimensionError(
            f"factor rows {phi_student.shape[0]} != num_nodes {g.num_nodes}"
        )
    phi_s, phi_t = phi_student, phi_teacher_sub.detach()
    all_pairs = T.add(
        T.sub(_sq_cross_gram(phi_s, phi_s), T.scale(_sq_cross_gram(phi_s, phi_t), 2.0)),
        _sq_cross_gram(phi_t, phi_t),
    )
    loss = T.scale(all_pairs, delta * delta)
    if g.num_edges:
        sel_u, sel_v = edge_endpoints(g)
        ones = T.constant(np.ones((phi_s.shape[1], 1)))

        def edge_dots(phi):
            return T.matmul(T.mul_elem(T.spmm(sel_u, phi), T.spmm(sel_v, phi)), ones)

        diff = T.sub(edge_dots(phi_s), edge_dots(phi_t))
        on_edges = T.sum_all(T.mul_elem(diff, diff))
        loss = T.add(loss, T.scale(on_edges, 2.0 * (1.0 - delta * delta)))
    return loss


def kd_soft_label_loss(teacher_logits, student_logits: Tensor, tau: float, mask) -> Tensor:
    """tau^2 * mean KL(softmax(teacher/tau) || softmax(student/tau)) over masked rows."""
    if tau <= 0:
        raise ValidationError("tau must be > 0")
    mask = np.asarray(mask, dtype=np.int64)
    if len(mask) == 0:
        raise ValidationError("kd loss: empty mask")
    t_vals = teacher_logits.values if isinstance(teacher_logits, Tensor) else \
        np.asarray(teacher_logits, dtype=np.float64)
    if t_vals.shape != student_logits.shape:
        raise DimensionError(f"logit shapes differ: {t_vals.shape} vs {student_logits.shape}")

    zt = t_vals[mask] / tau
    zt = zt - zt.max(axis=1, keepdims=True)
    log_pt = zt - np.log(np.exp(zt).sum(axis=1, keepdims=True))
    pt = np.exp(log_pt)
    entropy_term = float((pt * log_pt).sum())

    log_ps = T.log_softmax(T.scale(T.take_rows(student_logits, mask), 1.0 / tau))
    cross = T.sum_all(T.mul_elem(log_ps, T.constant(pt)))
    kl = T.add(T.constant([[entropy_term]]), T.scale(cross, -1.0))
    return T.scale(kl, tau * tau / len(mask))


def pgkd_span(model: GnnModel) -> tuple[int, int]:
    """Trace indices (early, late) bridged by the inverse kernel.

    The reconstruction target and input must share a feature dimension, so a
    gcn uses its first and last hidden maps; an sgc propagates in the input
    space and can span the whole stack.
    """
    if model.kind == "sgc":
        return 0, model.num_layers
    if model.num_layers < 2:
        raise ValidationError("parametric distillation needs depth >= 2")
    early, late = 1, model.num_layers - 1
    if model.dims[early] != model.dims[late]:
        raise ValidationError("hidden sizes at span endpoints must match")
    return early, late


def trace_feature_dim(model: GnnModel, idx: int) -> int:
    """Feature width of trace entry idx (sgc propagates in the input space)."""
    return model.dims[0] if model.kind == "sgc" else model.dims[idx]
