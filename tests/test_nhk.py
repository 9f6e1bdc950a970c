import numpy as np
import pytest

from geokd import tensor as T
from geokd.checks import theorem_checks
from geokd.errors import ValidationError
from geokd.graphs import laplacian_sym, sbm_generate
from geokd.nhk import (
    KernelSpec,
    _projections,
    build_projections,
    heat_kernel,
    heat_spectrum,
    kernel_matrix,
    kernel_rows,
    randomized_features,
)


def feats(n=8, d=3, seed=0):
    return T.Tensor(np.random.default_rng(seed).normal(size=(n, d)))


def gauss(h, t):
    return kernel_matrix(KernelSpec(kind="gauss", t=t), h)


def sigmoid(h, a, b):
    return kernel_matrix(KernelSpec(kind="sigmoid", a=a, b=b), h)


@pytest.fixture
def spectrum():
    return heat_spectrum(laplacian_sym(sbm_generate([10, 10], 0.4, 0.15, 4, 0.5, 3)))


# --------------------------------------------------------------------------
# kernel spec


def test_spec_validation():
    with pytest.raises(ValidationError):
        KernelSpec(kind="gauss", t=0.0)
    with pytest.raises(ValidationError):
        KernelSpec(kind="unknown")
    with pytest.raises(ValidationError):
        KernelSpec(kind="randomized", m=0)


def test_default_decay_weights_nonincreasing():
    w = KernelSpec(kind="randomized", t=2.0, m=5).weights()
    assert len(w) == 6
    assert np.all(w > 0)
    assert np.all(np.diff(w) <= 0)


# --------------------------------------------------------------------------
# gauss


def test_gauss_identical_rows_all_ones():
    h = T.Tensor(np.tile([1.0, 2.0], (4, 1)))
    np.testing.assert_array_equal(gauss(h, 0.7).values, np.ones((4, 4)))


def test_gauss_formula_value():
    h = T.Tensor([[1.0, 0.0], [0.0, 0.0]])
    k = gauss(h, 0.25).values
    assert k[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_gauss_unit_diagonal_and_range():
    k = gauss(feats(), 0.5).values
    np.testing.assert_array_equal(np.diag(k), np.ones(8))
    assert np.all(k > 0.0) and np.all(k <= 1.0)


def test_gauss_psd():
    k = gauss(feats(8, 3, 1), 0.5).values
    assert np.linalg.eigvalsh(0.5 * (k + k.T)).min() >= -1e-10


def test_gauss_rejects_nonpositive_time():
    with pytest.raises(ValidationError):
        kernel_matrix(KernelSpec(kind="gauss", t=0.0), feats())


# --------------------------------------------------------------------------
# sigmoid


def test_sigmoid_orthogonal_rows_zero():
    h = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    assert sigmoid(h, 1.0, 0.0).values[0, 1] == 0.0


def test_sigmoid_unit_norm_diagonal():
    h = T.Tensor([[1.0, 0.0]])
    assert sigmoid(h, 1.0, 0.0).values[0, 0] == pytest.approx(np.tanh(1.0))


def test_sigmoid_offset():
    h = T.Tensor([[0.0, 0.0]])
    assert sigmoid(h, 1.0, 0.3).values[0, 0] == pytest.approx(np.tanh(0.3))


def test_sigmoid_offset_is_not_scaled_by_the_slope():
    # tanh(a <h_i, h_j> + b), not tanh(a (<h_i, h_j> + b))
    h = T.Tensor([[1.0, 0.0], [0.6, 0.8]])
    k = sigmoid(h, 2.0, 0.3).values
    assert k[0, 1] == pytest.approx(np.tanh(1.5))  # 0.9051, where a (G + b) gives 0.9468
    assert k[1, 1] == pytest.approx(np.tanh(2.3))


def test_sigmoid_rotation_invariance():
    h = feats(6, 4, 2)
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
    k1 = sigmoid(h, 1.0, 0.0).values
    k2 = sigmoid(T.Tensor(h.values @ q), 1.0, 0.0).values
    assert np.max(np.abs(k1 - k2)) < 1e-12


# --------------------------------------------------------------------------
# randomized


def looped_randomized(h, spec, s=None):
    """The per-projection loop the stacked kernel replaced, kept as its reference."""
    proj, weights = build_projections(spec, h.shape[1], s), spec.weights()
    s = proj.shape[1] // len(weights)
    out = None
    for k, w_k in enumerate(weights):
        phi = T.tanh(T.matmul(h, T.constant(proj[:, k * s:(k + 1) * s])))  # W_k^T, d x s
        term = T.scale(T.gram(phi), w_k / len(weights))
        out = term if out is None else T.add(out, term)
    return out


def test_stacked_projections_equal_the_separate_draws():
    seed, m, s, d = 7, 4, 6, 5
    rng = np.random.default_rng([seed, 301])
    separate = [rng.standard_normal((s, d)) for _ in range(m + 1)]
    spec = KernelSpec(kind="randomized", m=m, seed=seed)
    np.testing.assert_array_equal(build_projections(spec, d, s),
                                  np.concatenate([w.T for w in separate], axis=1))


def kernel_and_grad(kernel, h, upstream):
    h.zero_grad()
    k = kernel(h)
    T.sum_all(T.mul_elem(k, T.constant(upstream))).backward()
    return k.values, h.grad.copy()


def assert_rel(got, want, rtol=1e-12):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
def test_stacked_matches_looped_kernel(n, m):
    rng = np.random.default_rng([n, m])
    h = T.parameter(rng.normal(size=(n, 5)))
    upstream = rng.normal(size=(n, n))
    spec = KernelSpec(kind="randomized", t=1.0, m=m, seed=n)
    got = kernel_and_grad(lambda x: kernel_matrix(spec, x), h, upstream)
    want = kernel_and_grad(lambda x: looped_randomized(x, spec), h, upstream)
    for a, b in zip(got, want):
        assert_rel(a, b)


@pytest.mark.parametrize("variant", ["s"])
def test_stacked_matches_looped_variants(variant):
    rng = np.random.default_rng(31)
    h = T.parameter(rng.normal(size=(9, 4)))
    upstream = rng.normal(size=(9, 9))
    spec = KernelSpec(kind="randomized", t=0.7, m=3, seed=2)
    got = kernel_and_grad(lambda x: kernel_matrix(spec, x, 3), h, upstream)
    want = kernel_and_grad(lambda x: looped_randomized(x, spec, 3), h, upstream)
    for a, b in zip(got, want):
        assert_rel(a, b)


def test_randomized_features_tanh_overwrites_its_product():
    h = T.parameter(np.random.default_rng(2).standard_normal((6, 3)))
    before = h.values.copy()
    phi = randomized_features(h, KernelSpec(kind="randomized", m=2), 4)
    tanh_out = phi._parents[0]  # phi = mul_elem(tanh(matmul(h, P)), scale)
    assert tanh_out._parents[0].values is tanh_out.values
    assert h.values.tobytes() == before.tobytes()


def test_randomized_features_column_blocks():
    h = feats(6, 3, 12)
    spec = KernelSpec(kind="randomized", m=2, t=1.5, seed=4)
    proj, weights = build_projections(spec, 3, 5), spec.weights()
    phi = randomized_features(h, spec, 5).values
    assert phi.shape == (6, 15)
    for k in range(3):
        np.testing.assert_allclose(
            phi[:, 5 * k:5 * (k + 1)],
            np.tanh(h.values @ proj[:, 5 * k:5 * (k + 1)]) * np.sqrt(weights[k] / 3),
            rtol=1e-15)


def test_randomized_psd_and_symmetric():
    h = feats(7, 4, 5)
    k = kernel_matrix(KernelSpec(kind="randomized", t=1.0, m=3, seed=2), h).values
    assert np.max(np.abs(k - k.T)) < 1e-10
    assert np.linalg.eigvalsh(0.5 * (k + k.T)).min() >= -1e-10


def test_randomized_shared_projections_reproduce():
    # two independent draws: build_projections would return one array twice
    spec = KernelSpec(kind="randomized", t=1.0, m=2, seed=9)
    p1, p2 = (_projections.__wrapped__(spec.seed, spec.m, 10, 5) for _ in range(2))
    assert p1 is not p2
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(p1, build_projections(spec, 5))


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
        assert other.shape != proj.shape or not np.array_equal(other, proj)


def test_memoized_projections_are_read_only():
    spec = KernelSpec(kind="randomized", m=2, seed=5)
    proj = build_projections(spec, 4)
    before = proj.copy()
    with pytest.raises(ValueError, match="read-only"):
        proj[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        proj *= 2.0
    np.testing.assert_array_equal(build_projections(spec, 4), before)


def test_kernel_checks_compare_an_independent_draw(monkeypatch):
    from geokd import checks

    built, draw = [], _projections.__wrapped__

    def recording(*args):
        built.append(draw(*args))
        return built[-1]

    monkeypatch.setattr(checks._projections, "__wrapped__", recording)
    results = {r.name: r for r in checks.kernel_checks(0)}
    memoized = build_projections(KernelSpec(kind="randomized", t=1.0, m=3, seed=0), 5)
    assert len(built) == 1 and built[0] is not memoized
    assert results["randomized projections reproducible"].passed


def test_kernel_matrix_randomized_width():
    h = feats(6, 4, 8)
    spec = KernelSpec(kind="randomized", m=2, seed=1)
    phi = randomized_features(h, spec, 5)
    assert phi.shape == (6, 3 * 5)
    np.testing.assert_array_equal(kernel_matrix(spec, h, 5).values, T.gram(phi).values)


def test_projection_default_output_dim():
    proj = build_projections(KernelSpec(kind="randomized", m=2, seed=0), 7)
    assert proj.shape == (7, 3 * 14)


def test_kernel_matrix_dispatch():
    h = feats(5, 3, 7)
    x = h.values
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    np.testing.assert_allclose(gauss(h, 0.5).values, np.exp(-sq / 2.0), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(sigmoid(h, 0.7, -0.2).values, np.tanh(0.7 * x @ x.T - 0.2),
                               rtol=1e-12, atol=1e-14)
    with pytest.raises(ValidationError):
        kernel_matrix(KernelSpec(kind="parametric"), h)


def test_kernel_rows_are_what_the_alignment_reads():
    h = feats(6, 4, 9)
    for spec in (KernelSpec(kind="gauss", t=0.5), KernelSpec(kind="sigmoid", a=0.3)):
        assert kernel_rows(spec, h) is h
    spec = KernelSpec(kind="randomized", m=3, t=0.7, seed=2)
    for s in (None, 5):
        width = s or 8
        cols = np.repeat(np.sqrt(spec.weights() / 4), width)
        want = np.tanh(h.values @ _projections.__wrapped__(2, 3, width, 4)) * cols
        np.testing.assert_array_equal(kernel_rows(spec, h, s).values, want)
    with pytest.raises(ValidationError, match="only pgkd aligns them"):
        kernel_rows(KernelSpec(kind="parametric"), h)


# --------------------------------------------------------------------------
# exact kernels


def test_exact_heat_kernel_time_zero(spectrum):
    np.testing.assert_allclose(heat_kernel(spectrum, 0.0), np.eye(len(spectrum[0])), atol=1e-12)


def test_exact_heat_kernel_semigroup(spectrum):
    k_half = heat_kernel(spectrum, 0.5)
    assert np.linalg.norm(k_half @ k_half - heat_kernel(spectrum, 1.0)) < 1e-8


def test_exact_heat_kernel_spectral_properties(spectrum):
    k = heat_kernel(spectrum, 0.7)
    assert np.max(np.abs(k - k.T)) < 1e-10
    lam = np.linalg.eigvalsh(0.5 * (k + k.T))
    assert lam.min() >= -1e-10
    assert lam.max() <= 1.0 + 1e-10


def test_exact_heat_kernel_rejects_negative_time(spectrum):
    with pytest.raises(ValidationError, match="time"):
        heat_kernel(spectrum, -0.1)


def test_expansion_full_rank_matches(spectrum):
    # e^{-L} is the sum of its n eigen-terms e^{-lambda_k} v_k v_k^T
    lam, vecs = spectrum
    terms = sum(np.exp(-lam[k]) * np.outer(vecs[:, k], vecs[:, k]) for k in range(len(lam)))
    np.testing.assert_allclose(heat_kernel(spectrum, 1.0), terms, rtol=0, atol=1e-12)


def test_expansion_error_monotone():
    # theorem_checks builds every rank-r truncation by a rank-1 downdate
    for seed in range(3):
        results = {r.name: r for r in theorem_checks(seed, 20)}
        for name in ("expansion at full rank", "expansion error nonincreasing in rank"):
            assert results[name].passed, (seed, name, results[name].deviation)


def test_expansion_rank_one_dominates_at_large_time(spectrum):
    # heat_spectrum lists the slowest-decaying eigenpair first
    t = 100.0
    lam, vecs = spectrum
    k1 = np.exp(-t * lam[0]) * np.outer(vecs[:, 0], vecs[:, 0])
    k = heat_kernel(spectrum, t)
    assert np.linalg.norm(k - k1) < 1e-3 * np.linalg.norm(k1)


# --------------------------------------------------------------------------
# restriction commutes with kernels


def test_restriction_commutes_for_all_kernels():
    h = feats(10, 4, 9)
    ix = np.array([0, 2, 3, 7, 9])
    h_sub = T.Tensor(h.values[ix])
    for spec in (KernelSpec(kind="gauss", t=0.5), KernelSpec(kind="sigmoid"),
                 KernelSpec(kind="randomized", t=1.0, m=2, seed=4)):
        full, sub = kernel_matrix(spec, h).values, kernel_matrix(spec, h_sub).values
        assert np.max(np.abs(full[np.ix_(ix, ix)] - sub)) < 1e-12
