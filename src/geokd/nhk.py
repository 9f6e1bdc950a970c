"""Neural heat kernel instantiations and exact heat-kernel oracles.

Three differentiable kernels over layer features: Gauss-Weierstrass
exp(-||h_i - h_j||^2 / 4T), sigmoid tanh(a <h_i, h_j> + b), and a randomized
kernel averaging w_k sigma(W_k h_i)^T sigma(W_k h_j) over fixed Gaussian
projections. Exact kernels e^{-tL} and their spectral truncations, all from
one eigendecomposition per graph, back the semigroup and expansion checks.

The randomized kernel is a random-feature map (Rahimi & Recht, 2007): with
the projections stacked as P = [W_0^T ... W_m^T], Phi = sigma(H P) with column
block k scaled by sqrt(w_k / (m+1)) gives K = Phi Phi^T, so a loss can work
on the n x (m+1)s factor Phi instead of the n x n K. ``kernel_rows`` is the
one place that decides what an alignment reads for each kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import DimensionError, ValidationError
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
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("gauss", "randomized") and self.t <= 0:
            raise ValidationError("kernel time must be > 0")
        if self.m < 1:
            raise ValidationError("projection count m must be >= 1")
        if self.s is not None and self.s < 1:
            raise ValidationError("s must be >= 1")

    def width(self, dim: int) -> int:
        """Randomized projection or parametric mapper output width for inputs
        of width dim: s, else 2 * dim."""
        return self.s if self.s is not None else 2 * dim

    def weights(self) -> np.ndarray:
        """The randomized kernel's decay weights w_k = exp(-t k / m), k = 0..m."""
        k = np.arange(self.m + 1)
        return np.exp(-self.t * k / self.m)


class RandomProjections:
    """m+1 fixed s x d standard-normal matrices W_k, reproducible from the seed,
    held as one d x (m+1)s matrix ``stacked`` = [W_0^T ... W_m^T]."""

    def __init__(self, seed: int, m: int, s: int, d: int):
        self.seed, self.m, self.s, self.d = int(seed), int(m), int(s), int(d)
        rng = np.random.default_rng([self.seed, 301])
        # the same stream as m+1 draws of s rows
        self.stacked = rng.standard_normal(((self.m + 1) * self.s, self.d)).T


def build_projections(spec: KernelSpec, dim: int, s: int | None = None) -> RandomProjections:
    """The projections for inputs of width dim; s defaults to spec.s, else 2 * dim.

    Memoized on (seed, m, s, dim): every caller shares one read-only set.
    """
    if s is None:
        s = spec.width(dim)
    return _projections(int(spec.seed), int(spec.m), int(s), int(dim))


@lru_cache(maxsize=64)
def _projections(seed: int, m: int, s: int, d: int) -> RandomProjections:
    return RandomProjections(seed, m, s, d)


def nhk_gauss(h: Tensor, t: float) -> Tensor:
    """exp(-||h_i - h_j||^2 / 4t): unit diagonal, entries in (0, 1], PSD."""
    if t <= 0:
        raise ValidationError("gauss kernel time must be > 0")
    return T.exp(T.scale(T.pairwise_sqdist(h), -1.0 / (4.0 * t)))


def nhk_sigmoid(h: Tensor, a: float = 1.0, b: float = 0.0) -> Tensor:
    """tanh(a <h_i, h_j> + b): symmetric, rotation-invariant in feature space."""
    return T.tanh(T.scale(T.gram(h), a, b))


def randomized_features(h: Tensor, proj: RandomProjections, weights) -> Tensor:
    """Phi = tanh(H P), column block k scaled by sqrt(w_k / (m+1)).

    The alignment loss is homogeneous, so the 1/(m+1) is free; with it the
    kernel is the decay-weighted mean of the m+1 Gram matrices.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != proj.m + 1:
        raise ValidationError("need one weight per projection matrix")
    if h.shape[1] != proj.d:
        raise DimensionError(f"projection dim {proj.d} != feature dim {h.shape[1]}")
    phi = T.tanh(T.matmul(h, T.constant(proj.stacked)))
    cols = np.repeat(np.sqrt(weights / len(weights)), proj.s)
    return T.mul_elem(phi, T.constant(np.broadcast_to(cols, phi.shape)))


def nhk_randomized(h: Tensor, proj: RandomProjections, weights) -> Tensor:
    """Decay-weighted average of tanh(H W_k^T) Gram matrices, k = 0..m."""
    return T.gram(randomized_features(h, proj, weights))


def kernel_rows(spec: KernelSpec, h: Tensor, s: int | None = None) -> Tensor:
    """The rows ``T.kernel_alignment`` reads for spec's kernel over h: h itself
    for gauss and sigmoid, and for randomized the factor Phi of
    K = Phi Phi^T, projected to width s (default ``spec.width``)."""
    if spec.kind == "randomized":
        return randomized_features(h, build_projections(spec, h.shape[1], s), spec.weights())
    if spec.kind == "parametric":
        raise ValidationError("parametric kernels are trained: only pgkd aligns them")
    return h


def kernel_matrix(spec: KernelSpec, h: Tensor, s: int | None = None) -> Tensor:
    """The kernel of spec over the rows of h; s is the randomized projection width."""
    rows = kernel_rows(spec, h, s)
    if spec.kind == "gauss":
        return nhk_gauss(rows, spec.t)
    if spec.kind == "sigmoid":
        return nhk_sigmoid(rows, spec.a, spec.b)
    return T.gram(rows)


def nhk_compose(k_a: Tensor, k_b: Tensor, mu) -> Tensor:
    """Semigroup composition K_a diag(mu) K_b for positive node weights mu."""
    mu = np.asarray(mu, dtype=np.float64)
    if k_a.shape != k_b.shape or k_a.shape[0] != k_a.shape[1]:
        raise DimensionError(f"compose needs equal square shapes, got {k_a.shape}, {k_b.shape}")
    if len(mu) != k_a.shape[0]:
        raise DimensionError("measure length != kernel size")
    if np.any(mu <= 0):
        raise ValidationError("measure values must be positive")
    return T.matmul(T.matmul(k_a, T.constant(np.diag(mu))), k_b)


# ---------------------------------------------------------------------------
# Exact oracles


def heat_spectrum(lap: SparseMatrix):
    """The eigenpairs (ascending eigenvalues, eigenvectors) of the symmetric
    operator lap, from one dense ``eigh``; ``heat_kernel`` reads them."""
    dense = lap.densify()
    if np.max(np.abs(dense - dense.T)) > 1e-12:
        raise ValidationError("operator must be symmetric")
    return np.linalg.eigh(0.5 * (dense + dense.T))


def heat_kernel(spectrum, t: float, r: int | None = None) -> np.ndarray:
    """e^{-tL} from the eigenpairs of L (``heat_spectrum``); with r, its rank-r
    spectral truncation keeping the r slowest-decaying eigenpairs."""
    lam, vecs = spectrum
    if t < 0:
        raise ValidationError("time must be >= 0")
    r = len(lam) if r is None else r
    if not 1 <= r <= len(lam):
        raise ValidationError(f"truncation rank {r} out of [1, {len(lam)}]")
    keep = slice(0, r)  # ascending eigenvalues: largest e^{-lambda t} first
    return (vecs[:, keep] * np.exp(-t * lam[keep])) @ vecs[:, keep].T
