import numpy as np
import pytest

from geokd import tensor as T
from geokd.errors import DimensionError, ValidationError
from geokd.graphs import Measure, laplacian_sym, sbm_generate
from geokd.nhk import (
    KernelSpec,
    RandomProjections,
    build_projections,
    exact_heat_kernel,
    heat_kernel_expansion,
    kernel_matrix,
    nhk_compose,
    nhk_gauss,
    nhk_randomized,
    nhk_sigmoid,
)


def feats(n=8, d=3, seed=0):
    return T.Tensor(np.random.default_rng(seed).normal(size=(n, d)))


@pytest.fixture
def lap():
    return laplacian_sym(sbm_generate([10, 10], 0.4, 0.15, 4, 0.5, 3))


# --------------------------------------------------------------------------
# kernel spec


def test_spec_validation():
    with pytest.raises(ValidationError):
        KernelSpec(kind="gauss", t=0.0)
    with pytest.raises(ValidationError):
        KernelSpec(kind="unknown")
    with pytest.raises(ValidationError):
        KernelSpec(kind="randomized", m=0)
    with pytest.raises(ValidationError):
        KernelSpec(kind="randomized", m=2, decay_weights=(1.0, 2.0, 3.0))


def test_default_decay_weights_nonincreasing():
    w = KernelSpec(kind="randomized", t=2.0, m=5).weights()
    assert len(w) == 6
    assert np.all(w > 0)
    assert np.all(np.diff(w) <= 0)


# --------------------------------------------------------------------------
# gauss


def test_gauss_identical_rows_all_ones():
    h = T.Tensor(np.tile([1.0, 2.0], (4, 1)))
    np.testing.assert_array_equal(nhk_gauss(h, 0.7).values, np.ones((4, 4)))


def test_gauss_formula_value():
    h = T.Tensor([[1.0, 0.0], [0.0, 0.0]])
    k = nhk_gauss(h, 0.25).values
    assert k[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_gauss_unit_diagonal_and_range():
    k = nhk_gauss(feats(), 0.5).values
    np.testing.assert_array_equal(np.diag(k), np.ones(8))
    assert np.all(k > 0.0) and np.all(k <= 1.0)


def test_gauss_psd():
    k = nhk_gauss(feats(8, 3, 1), 0.5).values
    assert np.linalg.eigvalsh(0.5 * (k + k.T)).min() >= -1e-10


def test_gauss_rejects_nonpositive_time():
    with pytest.raises(ValidationError):
        nhk_gauss(feats(), 0.0)


# --------------------------------------------------------------------------
# sigmoid


def test_sigmoid_orthogonal_rows_zero():
    h = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    assert nhk_sigmoid(h, 1.0, 0.0).values[0, 1] == 0.0


def test_sigmoid_unit_norm_diagonal():
    h = T.Tensor([[1.0, 0.0]])
    assert nhk_sigmoid(h, 1.0, 0.0).values[0, 0] == pytest.approx(np.tanh(1.0))


def test_sigmoid_offset():
    h = T.Tensor([[0.0, 0.0]])
    assert nhk_sigmoid(h, 1.0, 0.3).values[0, 0] == pytest.approx(np.tanh(0.3))


def test_sigmoid_rotation_invariance():
    h = feats(6, 4, 2)
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
    k1 = nhk_sigmoid(h, 1.0, 0.0).values
    k2 = nhk_sigmoid(T.Tensor(h.values @ q), 1.0, 0.0).values
    assert np.max(np.abs(k1 - k2)) < 1e-12


# --------------------------------------------------------------------------
# randomized


def test_randomized_reduces_to_gram():
    h = feats(5, 3, 4)
    proj = RandomProjections(0, 1, 3, 3)
    proj.matrices = [np.eye(3), np.eye(3)]
    k = nhk_randomized(h, proj, [1.0, 1.0], activation="identity").values
    np.testing.assert_allclose(k, h.values @ h.values.T, atol=1e-12)


def test_randomized_psd_and_symmetric():
    h = feats(7, 4, 5)
    spec = KernelSpec(kind="randomized", t=1.0, m=3, seed=2)
    k = nhk_randomized(h, build_projections(spec, 4), spec.weights()).values
    assert np.max(np.abs(k - k.T)) < 1e-10
    assert np.linalg.eigvalsh(0.5 * (k + k.T)).min() >= -1e-10


def test_randomized_shared_projections_reproduce():
    # two independent draws: build_projections would return one object twice
    spec = KernelSpec(kind="randomized", t=1.0, m=2, seed=9)
    h = feats(6, 5, 6)
    p1, p2 = (RandomProjections(spec.seed, spec.m, 10, 5) for _ in range(2))
    assert p1 is not p2
    k1 = nhk_randomized(h, p1, spec.weights()).values
    k2 = nhk_randomized(h, p2, spec.weights()).values
    np.testing.assert_array_equal(k1, k2)
    np.testing.assert_array_equal(
        k1, nhk_randomized(h, build_projections(spec, 5), spec.weights()).values)


def test_build_projections_memoized_on_seed_m_s_d():
    spec = KernelSpec(kind="randomized", m=2, seed=3)
    proj = build_projections(spec, 5)
    # t plays no part in the projections; s defaults to twice the width
    assert build_projections(KernelSpec(kind="randomized", m=2, seed=3, t=7.0), 5, 10) is proj
    for other in (build_projections(KernelSpec(kind="randomized", m=2, seed=4), 5),
                  build_projections(KernelSpec(kind="randomized", m=3, seed=3), 5),
                  build_projections(spec, 5, 6),
                  build_projections(spec, 6, 10)):
        assert other is not proj
        assert (other.seed, other.m, other.s, other.d) != (3, 2, 10, 5)


def test_kernel_checks_compare_an_independent_draw(monkeypatch):
    from geokd import checks

    built = []

    class Recording(RandomProjections):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(checks, "RandomProjections", Recording)
    results = {r.name: r for r in checks.kernel_checks(0)}
    memoized = build_projections(KernelSpec(kind="randomized", t=1.0, m=3, seed=0), 5)
    assert len(built) == 1 and built[0] is not memoized
    assert results["randomized projections reproducible"].passed


def test_kernel_matrix_randomized_width():
    h = feats(6, 4, 8)
    spec = KernelSpec(kind="randomized", m=2, seed=1)
    np.testing.assert_array_equal(
        kernel_matrix(spec, h, 5).values,
        nhk_randomized(h, RandomProjections(1, 2, 5, 4), spec.weights()).values,
    )


def test_randomized_dimension_mismatch():
    spec = KernelSpec(kind="randomized", m=2, seed=0)
    with pytest.raises(DimensionError):
        nhk_randomized(feats(4, 3), build_projections(spec, 5), spec.weights())


def test_projection_default_output_dim():
    proj = build_projections(KernelSpec(kind="randomized", m=2, seed=0), 7)
    assert proj.s == 14 and proj.d == 7 and len(proj.matrices) == 3


def test_kernel_matrix_dispatch():
    h = feats(5, 3, 7)
    np.testing.assert_array_equal(
        kernel_matrix(KernelSpec(kind="gauss", t=0.5), h).values,
        nhk_gauss(h, 0.5).values,
    )
    with pytest.raises(ValidationError):
        kernel_matrix(KernelSpec(kind="parametric"), h)


# --------------------------------------------------------------------------
# composition and exact kernels


def test_compose_identity():
    eye = T.Tensor(np.eye(4))
    out = nhk_compose(eye, eye, Measure.uniform(4))
    np.testing.assert_array_equal(out.values, np.eye(4))


def test_compose_semigroup_oracle(lap):
    k_half = T.Tensor(exact_heat_kernel(lap, 0.5))
    composed = nhk_compose(k_half, k_half, Measure.uniform(k_half.shape[0])).values
    assert np.linalg.norm(composed - exact_heat_kernel(lap, 1.0)) < 1e-8


def test_compose_associative(lap):
    n = lap.rows
    mu = Measure.uniform(n)
    rng = np.random.default_rng(8)
    a, b, c = (T.Tensor(rng.normal(size=(n, n))) for _ in range(3))
    left = nhk_compose(nhk_compose(a, b, mu), c, mu).values
    right = nhk_compose(a, nhk_compose(b, c, mu), mu).values
    assert np.max(np.abs(left - right)) < 1e-10


def test_compose_shape_checks():
    with pytest.raises(DimensionError):
        nhk_compose(T.Tensor(np.eye(3)), T.Tensor(np.eye(4)), Measure.uniform(3))


def test_exact_heat_kernel_time_zero(lap):
    np.testing.assert_allclose(exact_heat_kernel(lap, 0.0), np.eye(lap.rows), atol=1e-12)


def test_exact_heat_kernel_semigroup(lap):
    k_half = exact_heat_kernel(lap, 0.5)
    assert np.linalg.norm(k_half @ k_half - exact_heat_kernel(lap, 1.0)) < 1e-8


def test_exact_heat_kernel_spectral_properties(lap):
    k = exact_heat_kernel(lap, 0.7)
    assert np.max(np.abs(k - k.T)) < 1e-10
    lam = np.linalg.eigvalsh(0.5 * (k + k.T))
    assert lam.min() >= -1e-10
    assert lam.max() <= 1.0 + 1e-10


def test_exact_heat_kernel_rejects_asymmetric():
    from geokd.tensor import SparseMatrix

    s = SparseMatrix.from_coo(2, 2, [0], [1], [1.0])
    with pytest.raises(ValidationError):
        exact_heat_kernel(s, 1.0)


def test_expansion_full_rank_matches(lap):
    full = heat_kernel_expansion(lap, 1.0, lap.rows)
    assert np.max(np.abs(full - exact_heat_kernel(lap, 1.0))) < 1e-8


def test_expansion_error_monotone(lap):
    k = exact_heat_kernel(lap, 1.0)
    errs = [np.linalg.norm(heat_kernel_expansion(lap, 1.0, r) - k)
            for r in range(1, lap.rows + 1)]
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))


def test_expansion_rank_one_dominates_at_large_time(lap):
    t = 100.0
    k = exact_heat_kernel(lap, t)
    k1 = heat_kernel_expansion(lap, t, 1)
    assert np.linalg.norm(k - k1) < 1e-3 * np.linalg.norm(k1)


def test_expansion_rank_bounds(lap):
    with pytest.raises(ValidationError):
        heat_kernel_expansion(lap, 1.0, 0)
    with pytest.raises(ValidationError):
        heat_kernel_expansion(lap, 1.0, lap.rows + 1)


# --------------------------------------------------------------------------
# restriction commutes with kernels


def test_restriction_commutes_for_all_kernels():
    h = feats(10, 4, 9)
    ix = np.array([0, 2, 3, 7, 9])
    h_sub = T.Tensor(h.values[ix])
    spec = KernelSpec(kind="randomized", t=1.0, m=2, seed=4)
    proj = build_projections(spec, 4)
    for full, sub in (
        (nhk_gauss(h, 0.5), nhk_gauss(h_sub, 0.5)),
        (nhk_sigmoid(h, 1.0, 0.0), nhk_sigmoid(h_sub, 1.0, 0.0)),
        (nhk_randomized(h, proj, spec.weights()),
         nhk_randomized(h_sub, proj, spec.weights())),
    ):
        assert np.max(np.abs(full.values[np.ix_(ix, ix)] - sub.values)) < 1e-12
