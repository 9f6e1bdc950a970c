"""Numerical check suites behind the validate-kernels and gradcheck commands.

Each check reports the worst observed deviation against its tolerance so the
CLI can print a one-line verdict per property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .distill import (
    DistillConfig,
    InverseNhkMapper,
    distill_loss,
    factored_reconstruction_loss,
    inverse_nhk_gram,
    kd_soft_label_loss,
    layer_avg_distill,
    reconstruction_loss,
    teacher_kernels,
    weight_matrix,
)
from .graphs import adjacency, laplacian_sym, normalize_adjacency, sbm_generate
from .models import GnnModel, forward, init_xavier, sgc_euler_equivalence
from .nhk import (
    KernelSpec,
    _projections,
    build_projections,
    heat_kernel,
    heat_spectrum,
    kernel_matrix,
)


@dataclass
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


# theorem_checks holds at most about ten n x n float arrays at once: the dense
# Laplacian and its eigenvectors, the kernels and the expansion residual
ORACLE_BUDGET = 1 << 30  # bytes


def theorem_bytes(n: int) -> int:
    """The peak bytes ``theorem_checks`` is predicted to hold on n nodes."""
    return 10 * 8 * n * n


def _min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())


def theorem_checks(seed: int, n: int = 20) -> list[CheckResult]:
    """Exact heat-kernel properties on one seeded random graph."""
    g = sbm_generate([n // 2, n - n // 2], 0.35, 0.15, 4, 0.5, seed)
    spectrum = heat_spectrum(laplacian_sym(g))  # one eigh serves every kernel below
    results = []

    k1 = heat_kernel(spectrum, 0.7)
    results.append(CheckResult("heat kernel symmetry", float(np.max(np.abs(k1 - k1.T))), 1e-10))
    results.append(CheckResult("heat kernel PSD (negated min eig)", max(0.0, -_min_eig(k1)), 1e-10))

    k_half = heat_kernel(spectrum, 0.5)
    k_full = heat_kernel(spectrum, 1.0)
    semigroup = float(np.linalg.norm(k_half @ k_half - k_full))
    results.append(CheckResult("semigroup K(s)K(t)=K(s+t)", semigroup, 1e-8))

    lam, vecs = spectrum  # K - K_r for r = 1..n, each a rank-1 downdate of the last
    resid, errs = k_full.copy(), []
    for r in range(g.num_nodes):
        resid -= np.outer(vecs[:, r] * np.exp(-lam[r]), vecs[:, r])
        errs.append(np.linalg.norm(resid))
    results.append(CheckResult("expansion at full rank", float(np.max(np.abs(resid))), 1e-8))
    results.append(CheckResult("expansion error nonincreasing in rank",
                               float(np.max(np.diff(errs), initial=0.0)), 1e-12))

    rng = np.random.default_rng([seed, 302])
    x0 = rng.standard_normal((g.num_nodes, 3))
    results.append(
        CheckResult("SGC/Euler propagation identity", sgc_euler_equivalence(g, x0, 3), 1e-12)
    )
    return results


def kernel_checks(seed: int, n: int = 16, d: int = 5) -> list[CheckResult]:
    """Identity checks for the three differentiable kernel instantiations."""
    rng = np.random.default_rng([seed, 303])
    h = T.Tensor(rng.standard_normal((n, d)))
    results = []

    gauss, sigmoid = KernelSpec(kind="gauss", t=0.5), KernelSpec(kind="sigmoid")
    kg = kernel_matrix(gauss, h).values
    results.append(CheckResult("gauss diagonal = 1", float(np.max(np.abs(np.diag(kg) - 1.0))), 0.0))
    results.append(CheckResult("gauss PSD (negated min eig)", max(0.0, -_min_eig(kg)), 1e-10))

    ks = kernel_matrix(sigmoid, h).values
    results.append(CheckResult("sigmoid symmetry", float(np.max(np.abs(ks - ks.T))), 1e-12))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    ks_rot = kernel_matrix(sigmoid, T.Tensor(h.values @ q)).values
    results.append(
        CheckResult("sigmoid rotation invariance", float(np.max(np.abs(ks - ks_rot))), 1e-12)
    )

    spec = KernelSpec(kind="randomized", t=1.0, m=3, seed=seed)
    # an independent draw: build_projections returns the memoized array
    fresh = _projections.__wrapped__(spec.seed, spec.m, spec.width(d), d)
    repro = float(np.max(np.abs(build_projections(spec, d) - fresh)))
    results.append(CheckResult("randomized projections reproducible", repro, 0.0))
    kr = kernel_matrix(spec, h).values
    results.append(CheckResult("randomized PSD (negated min eig)", max(0.0, -_min_eig(kr)), 1e-10))

    ix = np.arange(0, n, 2)
    h_sub = T.Tensor(h.values[ix])
    for name, kernel, full in (("gauss", gauss, kg), ("sigmoid", sigmoid, ks),
                               ("randomized", spec, kr)):
        dev = float(np.max(np.abs(full[np.ix_(ix, ix)] - kernel_matrix(kernel, h_sub).values)))
        results.append(CheckResult(f"{name} restriction commutes", dev, 1e-12))
    return results


def _grad_case(name, f, params, tol=1e-4) -> CheckResult:
    return CheckResult(name, T.grad_check(f, params), tol)


def gradient_suite(seed: int = 0) -> list[CheckResult]:
    """Analytic vs central finite-difference gradients for every op and loss."""
    rng = np.random.default_rng([seed, 304])

    def rand(*shape, lo=-1.0, hi=1.0):
        return T.parameter(rng.uniform(lo, hi, size=shape))

    results = []

    a, b = rand(3, 4), rand(4, 2)
    results.append(_grad_case("matmul", lambda: T.sum_all(T.matmul(a, b)), [a, b]))

    g_small = sbm_generate([3, 3], 0.8, 0.3, 3, 0.4, seed)
    a_hat = normalize_adjacency(g_small)
    x6 = rand(6, 3)
    results.append(_grad_case("spmm", lambda: T.sum_all(T.spmm(a_hat, x6)), [x6]))

    # shift relu inputs away from the kink so finite differences stay clean
    xr = T.parameter(rng.uniform(0.2, 1.0, size=(3, 3)) * rng.choice([-1.0, 1.0], size=(3, 3)))
    results.append(_grad_case("relu", lambda: T.sum_all(T.relu(xr)), [xr]))
    xt = rand(3, 3)
    results.append(_grad_case("tanh", lambda: T.sum_all(T.tanh(xt)), [xt]))
    xe = rand(3, 3)
    results.append(_grad_case("exp", lambda: T.sum_all(T.exp(xe)), [xe]))

    u, v = rand(2, 3), rand(2, 3)
    results.append(_grad_case("add", lambda: T.sum_all(T.add(u, v)), [u, v]))
    results.append(_grad_case("sub", lambda: T.sum_all(T.sub(u, v)), [u, v]))
    results.append(_grad_case("scale", lambda: T.sum_all(T.scale(u, -2.5)), [u]))
    results.append(_grad_case("mul_elem", lambda: T.sum_all(T.mul_elem(u, v)), [u, v]))

    xg = rand(4, 3)
    cw = T.constant(rng.uniform(-1, 1, size=(4, 4)))
    results.append(
        _grad_case("pairwise_sqdist", lambda: T.sum_all(T.mul_elem(T.pairwise_sqdist(xg), cw)), [xg])
    )
    results.append(_grad_case("gram", lambda: T.sum_all(T.mul_elem(T.gram(xg), cw)), [xg]))
    spec = KernelSpec(kind="randomized", m=2, seed=seed)
    results.append(_grad_case("randomized stacked kernel", lambda: T.sum_all(T.mul_elem(
        kernel_matrix(spec, xg), cw)), [xg]))
    results.append(
        _grad_case("take_rows", lambda: T.sum_all(T.take_rows(xg, [0, 2, 2])), [xg])
    )
    results.append(
        _grad_case("log_softmax", lambda: T.sum_all(T.mul_elem(T.log_softmax(xg), T.constant(cw.values[:, :3]))), [xg])
    )

    logits = rand(3, 4)
    labels = np.array([0, 2, 1])
    results.append(
        _grad_case("cross_entropy", lambda: T.cross_entropy(logits, labels, [0, 1, 2]),
                   [logits], tol=1e-5)
    )

    s_logits = rand(4, 3)
    t_logits = rng.uniform(-1, 1, size=(4, 3))
    results.append(
        _grad_case("kd_soft_label", lambda: kd_soft_label_loss(t_logits, s_logits, 2.0, [0, 2]),
                   [s_logits])
    )

    # full model and distillation losses on a small seeded graph
    g = sbm_generate([4, 4], 0.7, 0.2, 4, 0.5, seed)
    gcn = GnnModel("gcn", [4, 5, 3])
    init_xavier(gcn, seed)
    gcn.set_trainable(True)

    def gcn_loss():
        logits_g, _ = forward(gcn, g)
        return T.cross_entropy(logits_g, g.labels, g.train_mask)

    results.append(_grad_case("gcn supervised loss", gcn_loss, gcn.parameters()))

    teacher = GnnModel("gcn", [4, 5, 3])
    init_xavier(teacher, seed + 1)
    _, t_trace = forward(teacher, g)
    t_feats = [h.values for h in t_trace]
    w = weight_matrix(g, 0.4, np.arange(g.num_nodes))
    cfg = DistillConfig(alpha=2.0, delta=0.4)

    def gkd_loss(kind, s=None):
        spec = KernelSpec(kind=kind, t=0.8, a=1.3, b=-0.2, m=2, s=s, seed=seed)

        def f():
            _, s_trace = forward(gcn, g)
            return layer_avg_distill(teacher_kernels(t_feats, gcn.dims, spec, adjacency(g),
                                                     cfg.delta), s_trace, spec, cfg.alpha)

        return f

    results.append(_grad_case("gauss distill loss", gkd_loss("gauss"), gcn.parameters()))
    results.append(_grad_case("sigmoid distill loss", gkd_loss("sigmoid"), gcn.parameters()))
    # on 8 nodes, factors of width r = 3s with s = 2d = 8 and 10 walk row
    # blocks; at s = 1, n >= 2r and kernel_alignment sums r x r Grams
    results.append(_grad_case("randomized distill loss, row blocks", gkd_loss("randomized"),
                              gcn.parameters()))
    results.append(_grad_case("randomized distill loss, r x r Grams",
                              gkd_loss("randomized", s=1), gcn.parameters()))
    # the alignment op on a batch with a repeated id and a teacher of another
    # width (for randomized, 6 rows of factors of width 3 and 2: r x r Grams)
    batch = [0, 3, 3, 5, 7, 1]
    adj = adjacency(g, batch)
    hb, tb = rand(6, 3), T.constant(rng.uniform(-1, 1, size=(6, 2)))
    for kind in ("gauss", "sigmoid", "randomized"):
        spec = KernelSpec(kind=kind, t=0.6, a=1.4, b=0.3)
        results.append(_grad_case(f"kernel_alignment {kind}", lambda t=T.TeacherKernel(
            tb.values, spec, adj, 0.4): T.kernel_alignment(hb, t), [hb]))

    mapper = InverseNhkMapper(5, 10)
    mapper.init(seed)

    def rec_loss():
        _, s_trace = forward(gcn, g)
        h_late = T.constant(s_trace[1].values)
        k_dag = inverse_nhk_gram(mapper, h_late)
        return reconstruction_loss(k_dag, h_late, T.constant(s_trace[1].values * 0.5))

    results.append(_grad_case("pgkd reconstruction loss", rec_loss, mapper.parameters()))

    t_late = t_trace[1].values

    def pgkd_align_loss():
        _, s_trace = forward(gcn, g)
        k_t = inverse_nhk_gram(mapper, T.constant(t_late))
        k_s = inverse_nhk_gram(mapper, s_trace[1])
        return distill_loss(k_t, k_s, w)

    results.append(_grad_case("pgkd alignment loss", pgkd_align_loss, gcn.parameters()))

    def factored_rec_loss():
        _, s_trace = forward(gcn, g)
        h_late = T.constant(s_trace[1].values)
        return factored_reconstruction_loss(
            mapper.apply(h_late), h_late, T.constant(s_trace[1].values * 0.5))

    results.append(
        _grad_case("pgkd factored reconstruction loss", factored_rec_loss, mapper.parameters())
    )

    def factored_align_loss():
        _, s_trace = forward(gcn, g)
        return T.kernel_alignment(mapper.apply(s_trace[1]), T.TeacherKernel(mapper.apply(
            T.constant(t_late)).values, KernelSpec(kind="parametric"), adjacency(g), 0.4))

    results.append(
        _grad_case("pgkd factored alignment loss", factored_align_loss, gcn.parameters())
    )
    return results
