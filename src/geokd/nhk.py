"""Neural heat kernel instantiations and exact heat-kernel oracles.

Three differentiable kernels over layer features: Gauss-Weierstrass
exp(-||h_i - h_j||^2 / 4T), sigmoid tanh(a <h_i, h_j> + b), and a randomized
kernel averaging w_k sigma(W_k h_i)^T sigma(W_k h_j) over fixed Gaussian
projections; ``kernel_matrix`` is their one dense constructor. The exact
kernels e^{-tL}, from one eigendecomposition per graph, back the semigroup
and expansion checks.

The randomized kernel is a random-feature map (Rahimi & Recht, 2007): with
the memoized projections stacked as P = [W_0^T ... W_m^T], Phi = sigma(H P)
with column block k scaled by sqrt(w_k / (m+1)) gives K = Phi Phi^T, so a
loss can work on the n x (m+1)s factor Phi instead of the n x n K.
``kernel_rows`` is the one place that decides what an alignment reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import GraphParseError, ValidationError
from .tensor import SparseMatrix, Tensor


@dataclass
class KernelSpec:
    """Selects and parameterizes one kernel instantiation."""

    kind: str = "gauss"           # gauss | sigmoid | randomized | parametric
    t: float = 1.0                # accumulated time (gauss, randomized)
    a: float = 1.0                # sigmoid slope
    b: float = 0.0                # sigmoid offset
    m: int = 4                    # randomized: projection count (terms 0..m)
    s: int | None = None          # randomized/parametric output dim; default 2d
    seed: int = 0                 # shared projection seed

    def __post_init__(self):
        if self.kind not in ("gauss", "sigmoid", "randomized", "parametric"):
            raise GraphParseError("kind", f"unknown kernel kind {self.kind!r}")
        if self.kind in ("gauss", "randomized") and self.t <= 0:
            raise GraphParseError("t", f"expected a number > 0, got {self.t}")
        for name, value in (("m", self.m), ("s", self.s)):  # projection count and width
            if value is not None and value < 1:
                raise GraphParseError(name, f"expected an integer >= 1, got {value}")

    def width(self, dim: int) -> int:
        """Randomized projection or parametric mapper output width for inputs
        of width dim: s, else 2 * dim."""
        return self.s if self.s is not None else 2 * dim

    def weights(self) -> np.ndarray:
        """The randomized kernel's decay weights w_k = exp(-t k / m), k = 0..m."""
        k = np.arange(self.m + 1)
        return np.exp(-self.t * k / self.m)


def build_projections(spec: KernelSpec, dim: int, s: int | None = None) -> np.ndarray:
    """P = [W_0^T ... W_m^T], the d x (m+1)s stack of m+1 fixed s x d
    standard-normal W_k for inputs of width d = dim; s defaults to spec.s,
    else 2 * dim. Memoized on (seed, m, s, dim) and read-only."""
    if s is None:
        s = spec.width(dim)
    return _projections(int(spec.seed), int(spec.m), int(s), int(dim))


@lru_cache(maxsize=64)
def _projections(seed: int, m: int, s: int, d: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 301])
    # the same stream as m+1 draws of s rows
    stacked = rng.standard_normal(((m + 1) * s, d)).T
    stacked.flags.writeable = False
    return stacked


def randomized_features(h: Tensor, spec: KernelSpec, s: int | None = None) -> Tensor:
    """Phi = tanh(H P) for P = ``build_projections(spec, d, s)``, column block k
    scaled by sqrt(w_k / (m+1)) with w = ``spec.weights()``.

    The alignment loss is homogeneous, so the 1/(m+1) is free; with it the
    kernel is the decay-weighted mean of the m+1 Gram matrices.
    """
    proj, weights = build_projections(spec, h.shape[1], s), spec.weights()
    phi = T.tanh(T.matmul(h, T.constant(proj)), inplace=True)
    cols = np.repeat(np.sqrt(weights / len(weights)), proj.shape[1] // len(weights))
    return T.mul_elem(phi, T.constant(np.broadcast_to(cols, phi.shape)))


def kernel_rows(spec: KernelSpec, h: Tensor, s: int | None = None) -> Tensor:
    """The rows ``T.kernel_alignment`` reads for spec's kernel over h: h itself
    for gauss and sigmoid, and for randomized the factor Phi of
    K = Phi Phi^T, projected to width s (default ``spec.width``)."""
    if spec.kind == "randomized":
        return randomized_features(h, spec, s)
    if spec.kind == "parametric":
        raise ValidationError("parametric kernels are trained: only pgkd aligns them")
    return h


def kernel_matrix(spec: KernelSpec, h: Tensor, s: int | None = None) -> Tensor:
    """The dense kernel of spec over the rows of h (s: the randomized
    projection width), the reference the alignment op is tested against."""
    rows = kernel_rows(spec, h, s)
    if spec.kind == "gauss":
        return T.exp(T.scale(T.pairwise_sqdist(rows), -1.0 / (4.0 * spec.t)))
    if spec.kind == "sigmoid":
        return T.tanh(T.scale(T.gram(rows), spec.a, spec.b))
    return T.gram(rows)


# ---------------------------------------------------------------------------
# Exact oracles


def heat_spectrum(lap: SparseMatrix):
    """The eigenpairs (ascending eigenvalues, eigenvectors) of the symmetric
    operator lap, from one dense ``eigh``; ``heat_kernel`` reads them."""
    return np.linalg.eigh(lap.densify())


def heat_kernel(spectrum, t: float) -> np.ndarray:
    """e^{-tL} = V diag(e^{-t lambda}) V^T from ``heat_spectrum``'s eigenpairs."""
    lam, vecs = spectrum
    if t < 0:
        raise ValidationError("time must be >= 0")
    return (vecs * np.exp(-t * lam)) @ vecs.T
