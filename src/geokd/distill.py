"""Distillation losses: kernel alignment, inverse-kernel reconstruction, soft labels.

The alignment loss is ||(K_teacher_sub - K_student) .* W||_F^2 where W weights
connected pairs 1 and everything else (including self-pairs) delta. Each
teacher side is a ``T.TeacherKernel``, no tensor, so no gradient reaches it.

gkd's L bridging kernels read trace entries 0 .. L-1 under an alpha / L
scale. Entry 0 is X on both sides, so its term is 0.0 and is skipped: the
terms read entries 1 .. L-1, hidden features of a gcn of depth >= 2, the one
student ``require_hidden_layers`` lets align. Each term moves a parameter.

Every alignment loss, gkd's per layer and pgkd's, is one call of
``T.kernel_alignment``: gkd's reads the rows ``nhk.kernel_rows`` gives for
its kernel, pgkd's the mapped features whose Gram is the parametric kernel.
As ``Graph`` keeps the adjacency A binary with a zero diagonal,
W .* W = delta^2 + (1 - delta^2) A, so the loss is

    (1 - delta^2) sum_{A_uv = 1} (K_s - K_t)_uv^2 + delta^2 sum_{u, v} (K_s - K_t)_uv^2.

The edge sum reads the kernels at the |E| entries alone, in O(|E| d) time.
The all-pairs sum, for delta > 0 only, rebuilds the gauss and sigmoid
kernels (entrywise maps of distances or inner products) in blocks of b =
max(64, 65536 // n) rows over the upper triangle, as KeOps and FlashAttention
reduce kernels, in O(n^2 d) time and O(b n + n d) memory. For the randomized
and parametric Grams K = Phi Phi^T with Phi n x r, it is ||Phi_s^T Phi_s||^2 -
2 ||Phi_t^T Phi_s||^2 + ||Phi_t^T Phi_t||^2 in O(n r^2) when n >= 2r, where
that beats the blocks; reconstruction is K H = Phi (Phi^T H). The dense
references the op and ``factored_reconstruction_loss`` are tested against
are ``distill_loss`` over ``weight_matrix`` and ``nhk.kernel_matrix`` (the
one dense kernel constructor, which ``teacher_layer_kernels`` applies per
teacher layer), ``inverse_nhk_gram`` and ``reconstruction_loss``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .errors import DimensionError, GraphParseError, ValidationError
from .graphs import Graph, adjacency
from .models import GnnModel, init_xavier
from .nhk import KernelSpec, kernel_matrix, kernel_rows
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
        for name, bad, want in (("alpha", self.alpha < 0, "a number >= 0"),
                                ("delta", self.delta < 0, "a number >= 0"),
                                ("alpha_kd", not 0.0 <= self.alpha_kd < 1.0, "a number in [0, 1)"),
                                ("tau_kd", self.tau_kd <= 0, "a number > 0"),
                                ("batch_size", self.batch_size is not None
                                 and self.batch_size < 1, "an integer >= 1")):
            if bad:
                raise GraphParseError(name, f"expected {want}, got {getattr(self, name)}")


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
        return T.tanh(T.matmul(h, self.weight), inplace=True)

    def parameters(self):
        return [self.weight]


def weight_matrix(g: Graph, delta: float, node_subset) -> Tensor:
    """W over the subset: 1 on student edges, delta elsewhere (self-pairs too)."""
    return T.constant(delta + (1.0 - delta) * adjacency(g, node_subset).densify())


def distill_loss(k_teacher_sub: Tensor, k_student: Tensor, w: Tensor) -> Tensor:
    """Weighted Frobenius alignment; gradient flows into the student kernel only."""
    if k_teacher_sub.shape != k_student.shape:
        raise DimensionError(f"kernel shapes differ: {k_teacher_sub.shape} vs {k_student.shape}")
    weighted = T.mul_elem(T.sub(k_student, T.constant(k_teacher_sub.values)), w)
    return T.sum_all(T.mul_elem(weighted, weighted))


def teacher_layer_kernels(traces_teacher, traces_student_dims, spec: KernelSpec):
    """The frozen teacher's kernel matrices at trace entries 1 .. L-1, detached:
    the dense reference for the teacher side of ``layer_avg_distill``."""
    return [kernel_matrix(spec, T.constant(h), spec.width(d)).detach()
            for h, d in zip(traces_teacher[1:-1], traces_student_dims[1:])]


def teacher_kernels(traces_teacher, student_dims, spec: KernelSpec, adj, delta: float):
    """A ``T.TeacherKernel`` over adj at delta of the teacher's ``kernel_rows``
    at each trace entry 1 .. L-1 ``layer_avg_distill`` aligns; a randomized
    kernel projects entry l to spec.s, else twice ``student_dims[l]``."""
    return [T.TeacherKernel(kernel_rows(spec, T.constant(h), spec.width(d)).values, spec, adj,
                            delta) for h, d in zip(traces_teacher[1:-1], student_dims[1:])]


def require_hidden_layers(kind: str, depth: int, field: str):
    """ValidationError naming ``field`` unless the model is a gcn of depth >= 2,
    the one kind whose trace entries 1 .. L-1 its weights produce (an sgc's
    are propagated X): gkd aligns them, pgkd's span reads the first and last."""
    if kind != "gcn" or depth < 2:
        raise ValidationError(f"{field}: needs a gcn of depth >= 2, got {kind} of depth "
                              f"{depth}; alignment reads a gcn's hidden trace entries 1..L-1")


def layer_avg_distill(teachers, traces_student, spec: KernelSpec, alpha: float) -> Tensor:
    """Kernel alignment of trace entries 1 .. L-1 scaled by alpha / L.

    The kernel bridging layer l-1 to l reads entry l-1; the bridge from entry
    0, X on both sides, adds 0.0 and is skipped. Entry l is one
    ``T.kernel_alignment`` of the student's ``kernel_rows`` against
    ``teachers[l - 1]`` (``teacher_kernels``), whose adjacency and delta it
    reads: the student's entries must already be restricted to its rows.
    """
    num_layers = len(traces_student) - 1
    if num_layers < 2:
        raise ValidationError("traces must cover at least two layers")
    if len(teachers) != num_layers - 1:
        raise DimensionError(f"{len(teachers)} teacher sides for {num_layers - 1} student entries")
    terms = (T.kernel_alignment(kernel_rows(spec, h), teacher)
             for h, teacher in zip(traces_student[1:-1], teachers))
    return T.scale(reduce(T.add, terms), alpha / num_layers)


def inverse_nhk_gram(mapper: InverseNhkMapper, h_last: Tensor) -> Tensor:
    """Gram matrix of mapped late-layer features; symmetric PSD."""
    return T.gram(mapper.apply(h_last))


def reconstruction_loss(k_dagger: Tensor, h_late: Tensor, h_early: Tensor) -> Tensor:
    """||K_dagger H_late - H_early||_F^2."""
    if k_dagger.shape[1] != h_late.shape[0]:
        raise DimensionError(f"k_dagger cols {k_dagger.shape[1]} != h_late rows {h_late.shape[0]}")
    return _sq_residual(T.matmul(k_dagger, h_late), h_early)


def factored_reconstruction_loss(phi: Tensor, h_late: Tensor, h_early: Tensor) -> Tensor:
    """||Phi (Phi^T H_late) - H_early||_F^2, i.e. reconstruction_loss of Phi Phi^T."""
    if phi.shape[0] != h_late.shape[0]:
        raise DimensionError(f"phi rows {phi.shape[0]} != h_late rows {h_late.shape[0]}")
    return _sq_residual(T.matmul(phi, T.matmul(T.transpose(phi), h_late)), h_early)


def _sq_residual(recon: Tensor, h_early: Tensor) -> Tensor:
    """||recon - H_early||_F^2 as a scalar tensor."""
    if recon.shape != h_early.shape:
        raise DimensionError(f"reconstruction shape {recon.shape} != target {h_early.shape}")
    diff = T.sub(recon, h_early)
    return T.sum_all(T.mul_elem(diff, diff))


def kd_soft_label_loss(teacher_logits, student_logits: Tensor, tau: float, mask) -> Tensor:
    """tau^2 * mean KL(softmax(teacher/tau) || softmax(student/tau)) over masked rows."""
    if tau <= 0:
        raise ValidationError("tau must be > 0")
    mask = np.asarray(mask, dtype=np.int64)
    if len(mask) == 0:
        raise ValidationError("kd loss: empty mask")
    t_vals = np.asarray(teacher_logits, dtype=np.float64)
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
    require_hidden_layers(model.kind, model.num_layers, "depth")
    early, late = 1, model.num_layers - 1
    if model.dims[early] != model.dims[late]:
        raise ValidationError("hidden sizes at span endpoints must match")
    return early, late


def trace_feature_dim(model: GnnModel, idx: int) -> int:
    """Feature width of trace entry idx (sgc propagates in the input space)."""
    return model.dims[0] if model.kind == "sgc" else model.dims[idx]
