"""Neural heat kernel instantiations and exact heat-kernel oracles.

Three differentiable kernels over layer features: Gauss-Weierstrass
exp(-||h_i - h_j||^2 / 4T), sigmoid tanh(a <h_i, h_j> + b), and a randomized
kernel averaging w_k sigma(W_k h_i)^T sigma(W_k h_j) over fixed Gaussian
projections. Exact kernels e^{-tL} from a full eigendecomposition back the
semigroup and expansion checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import DimensionError, ValidationError
from .graphs import Measure
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
    decay_weights: tuple | None = None  # randomized: w_0..w_m; default exp(-t*k/m)

    def __post_init__(self):
        if self.kind not in ("gauss", "sigmoid", "randomized", "parametric"):
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("gauss", "randomized") and self.t <= 0:
            raise ValidationError("kernel time must be > 0")
        if self.m < 1:
            raise ValidationError("projection count m must be >= 1")
        if self.decay_weights is not None:
            w = np.asarray(self.decay_weights, dtype=np.float64)
            if len(w) != self.m + 1:
                raise ValidationError("need m+1 decay weights")
            if np.any(w <= 0) or np.any(np.diff(w) > 0):
                raise ValidationError("decay weights must be positive and nonincreasing")

    def weights(self) -> np.ndarray:
        if self.decay_weights is not None:
            return np.asarray(self.decay_weights, dtype=np.float64)
        k = np.arange(self.m + 1)
        return np.exp(-self.t * k / self.m)


class RandomProjections:
    """m+1 fixed s x d standard-normal matrices, reproducible from the seed."""

    def __init__(self, seed: int, m: int, s: int, d: int):
        self.seed, self.m, self.s, self.d = int(seed), int(m), int(s), int(d)
        rng = np.random.default_rng([self.seed, 301])
        self.matrices = [rng.standard_normal((self.s, self.d)) for _ in range(self.m + 1)]


def build_projections(spec: KernelSpec, dim: int, s: int | None = None) -> RandomProjections:
    """The projections for inputs of width dim; s defaults to spec.s, else 2 * dim.

    Memoized on (seed, m, s, dim): every caller shares one read-only set.
    """
    if s is None:
        s = spec.s if spec.s is not None else 2 * dim
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
    g = T.gram(h)
    if b != 0.0:
        g = T.add(g, T.constant(np.full(g.shape, float(b))))
    return T.tanh(T.scale(g, a))


def nhk_randomized(h: Tensor, proj: RandomProjections, weights,
                   activation: str = "tanh") -> Tensor:
    """Decay-weighted average of sigma(H W_k^T) Gram matrices, k = 0..m.

    The alignment loss is homogeneous, so the constant prefactor is free;
    averaging over the m+1 terms makes a single identity projection with
    unit weight reduce exactly to the plain Gram matrix.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != len(proj.matrices):
        raise ValidationError("need one weight per projection matrix")
    if h.shape[1] != proj.d:
        raise DimensionError(f"projection dim {proj.d} != feature dim {h.shape[1]}")
    if activation not in ("tanh", "identity"):
        raise ValidationError(f"unknown activation {activation!r}")
    out = None
    for w_k, mat in zip(weights, proj.matrices):
        phi = T.matmul(h, T.constant(mat.T))
        if activation == "tanh":
            phi = T.tanh(phi)
        term = T.scale(T.gram(phi), w_k / len(proj.matrices))
        out = term if out is None else T.add(out, term)
    return out


def kernel_matrix(spec: KernelSpec, h: Tensor, s: int | None = None) -> Tensor:
    """The kernel of spec over the rows of h; s is the randomized projection width."""
    if spec.kind == "gauss":
        return nhk_gauss(h, spec.t)
    if spec.kind == "sigmoid":
        return nhk_sigmoid(h, spec.a, spec.b)
    if spec.kind == "randomized":
        return nhk_randomized(h, build_projections(spec, h.shape[1], s), spec.weights())
    raise ValidationError("parametric kernels are trained, not evaluated directly")


def nhk_compose(k_a: Tensor, k_b: Tensor, mu: Measure) -> Tensor:
    """Semigroup composition K_a diag(mu) K_b."""
    if k_a.shape != k_b.shape or k_a.shape[0] != k_a.shape[1]:
        raise DimensionError(f"compose needs equal square shapes, got {k_a.shape}, {k_b.shape}")
    if len(mu.values) != k_a.shape[0]:
        raise DimensionError("measure length != kernel size")
    return T.matmul(T.matmul(k_a, T.constant(np.diag(mu.values))), k_b)


# ---------------------------------------------------------------------------
# Exact oracles


def _dense_symmetric(mat: SparseMatrix) -> np.ndarray:
    dense = mat.densify()
    if np.max(np.abs(dense - dense.T)) > 1e-12:
        raise ValidationError("operator must be symmetric")
    return 0.5 * (dense + dense.T)


def exact_heat_kernel(lap: SparseMatrix, t: float) -> np.ndarray:
    """e^{-tL} via full symmetric eigendecomposition."""
    if t < 0:
        raise ValidationError("time must be >= 0")
    dense = _dense_symmetric(lap)
    lam, vecs = np.linalg.eigh(dense)
    return (vecs * np.exp(-t * lam)) @ vecs.T


def heat_kernel_expansion(lap: SparseMatrix, t: float, r: int) -> np.ndarray:
    """Rank-r spectral truncation keeping the r slowest-decaying eigenpairs."""
    dense = _dense_symmetric(lap)
    n = dense.shape[0]
    if not 1 <= r <= n:
        raise ValidationError(f"truncation rank {r} out of [1, {n}]")
    lam, vecs = np.linalg.eigh(dense)
    keep = slice(0, r)  # ascending eigenvalues: largest e^{-lambda t} first
    return (vecs[:, keep] * np.exp(-t * lam[keep])) @ vecs[:, keep].T

