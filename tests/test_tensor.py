import tracemalloc

import numpy as np
import pytest

from geokd import tensor as T
from geokd.distill import distill_loss
from geokd.errors import DimensionError, NumericError, ValidationError
from geokd.tensor import SparseMatrix, Tensor, grad_check


def rand(shape, seed=0, lo=-1.0, hi=1.0, grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)


# --------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(Tensor(np.eye(2)), x)
    np.testing.assert_array_equal(out.values, x.values)


def test_matmul_hand_case():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.values, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.matmul(rand((2, 3)), rand((2, 3)))


def test_matmul_gradient():
    a, b = rand((3, 4), 1), rand((4, 2), 2)
    err = grad_check(lambda: T.sum_all(T.matmul(a, b)), [a, b])
    assert err < 1e-6


# --------------------------------------------------------------------------
# sparse


def symmetric(n, pairs, seed=0, diag=False):
    """The matrix with a random value at each pair, in both orientations, and
    with a random diagonal when diag is True."""
    rng = np.random.default_rng(seed)
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return SparseMatrix.from_edges(n, pairs[:, 0], pairs[:, 1], rng.uniform(-1, 1, len(pairs)),
                                   rng.uniform(-1, 1, n) if diag else None)


def test_spmm_identity():
    x = rand((4, 3), 3, grad=False)
    eye = SparseMatrix.from_edges(4, [], [], [], np.ones(4))
    out = T.spmm(eye, x)
    np.testing.assert_array_equal(out.values, x.values)
    with pytest.raises(DimensionError, match="spmm"):
        T.spmm(eye, rand((3, 3), 3))


def test_spmm_empty_matrix_annihilates():
    s = SparseMatrix.from_edges(3, [], [], [])
    out = T.spmm(s, rand((3, 2), 4))
    np.testing.assert_array_equal(out.values, np.zeros((3, 2)))
    empty = SparseMatrix.from_edges(0, [], [], [])
    assert empty.shape == (0, 0) and empty.matmul_dense(np.zeros((0, 2))).shape == (0, 2)


def test_spmm_matches_dense_oracle():
    rng = np.random.default_rng(5)
    dense = np.triu(rng.uniform(-1, 1, size=(5, 5)) * (rng.random((5, 5)) < 0.4), 1)
    dense += dense.T
    np.fill_diagonal(dense, rng.uniform(-1, 1, size=5))
    u, v = np.nonzero(np.triu(dense, 1))
    s = SparseMatrix.from_edges(5, u, v, dense[u, v], np.diag(dense))
    x = rng.uniform(-1, 1, size=(5, 3))
    assert np.max(np.abs(s.matmul_dense(x) - dense @ x)) < 1e-12
    np.testing.assert_allclose(s.densify(), dense, atol=0)


def test_spmm_handles_empty_rows():
    # rows 0 and 3 empty: they belong to no degree bucket and must stay zero
    s = SparseMatrix.from_edges(5, [1, 4], [2, 1], [2.0, -1.0])
    x = np.arange(10.0).reshape(5, 2)
    got = s.matmul_dense(x)
    np.testing.assert_allclose(got, s.densify() @ x, atol=0)
    assert not got[[0, 3]].any()


def stored_rows(s):
    """The row of each stored entry, in the stored order, from the bucket views."""
    rows_of = np.empty(s.nnz, dtype=np.int64)
    for rows, lo, idx, _ in s._buckets:
        rows_of[lo:lo + idx.size] = np.tile(rows, len(idx))
    return rows_of


def row_sequential(s, x, data=None):
    """Reference spmm: each row adds its entries one at a time in column order,
    with data, when given, in place of the stored values."""
    data, rows_of = s.data if data is None else data, stored_rows(s)
    out = np.zeros((s.shape[0], x.shape[1]))
    for r in range(s.shape[0]):
        seg = np.flatnonzero(rows_of == r)
        seg = seg[np.argsort(s.indices[seg])]
        terms = data[seg, None] * x[s.indices[seg]]
        if len(terms):
            acc = terms[0].copy()
            for t in terms[1:]:
                acc += t
            out[r] = acc
    return out


def skewed_pairs():
    """Pairs of 40 nodes with skewed degrees, in ten buckets: node i < 8
    links to the next 2 ** i nodes, up to node 39."""
    return [(i, j) for i in range(8) for j in range(i + 1, min(40, i + 1 + 2 ** i))]


def star_pairs(n, centre):
    """Every node linked to centre, whose row is then dense, plus a path among
    the first few others."""
    others = [i for i in range(n) if i != centre]
    return [(centre, i) for i in others] + list(zip(others[:4], others[1:5]))


def random_pairs(n, seed):
    """Distinct pairs drawn at a density from 0 to 0.12."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < rng.uniform(0, 0.12), 1)
    return np.argwhere(upper)


@pytest.mark.parametrize("d", [1, 16, 32])
@pytest.mark.parametrize("n, pairs, diag", [
    (4, [], False),                         # nnz = 0
    (1, [], True),                          # n = 1
    (1, [], False),                         # a single empty row
    (6, [(0, 2), (2, 4), (0, 4)], False),   # empty rows between full ones
    (30, star_pairs(30, 1), True),          # one dense row, a star's centre
    (40, skewed_pairs(), False),            # skewed degrees, many buckets
    (200, random_pairs(200, 9), True),      # seeded random degrees
])
def test_spmm_bucket_plan_matches_dense(n, pairs, diag, d):
    seed = n * 100 + d
    s = symmetric(n, pairs, seed, diag)
    x = np.random.default_rng(seed + 1).uniform(-1, 1, size=(n, d))
    got = s.matmul_dense(x)
    assert got.shape == (n, d)
    dense = s.densify()
    np.testing.assert_array_equal(dense, dense.T)
    assert np.max(np.abs(got - dense @ x), initial=0.0) < 1e-12
    if d > 1:
        np.testing.assert_array_equal(got, row_sequential(s, x))
    np.testing.assert_array_equal(s.matmul_dense(x), got)  # stored buckets reused
    # values given per entry run on the same buckets, as if they were stored;
    # like the gauss edge slopes, they need not be symmetric
    other = np.random.default_rng(seed + 2).uniform(-1, 1, size=s.nnz)
    other_dense = np.zeros(s.shape)
    other_dense[stored_rows(s), s.indices] = other
    got = s.matmul_dense(x, other)
    assert np.max(np.abs(got - other_dense @ x), initial=0.0) < 1e-12
    if d > 1:
        np.testing.assert_array_equal(got, row_sequential(s, x, other))


def test_buckets_are_views_of_the_stored_entries():
    s = symmetric(40, skewed_pairs(), 7)
    degrees = np.bincount(np.array(skewed_pairs()).ravel(), minlength=40)
    assert len(s._buckets) == len(set(degrees) - {0}) == 10
    dense, end = s.densify(), 0
    for rows, lo, idx, vals in s._buckets:
        assert idx.shape == vals.shape == (degrees[rows[0]], len(rows))
        assert idx.base is s.indices and vals.base is s.data
        assert lo == end  # the buckets tile the stored arrays in order
        end += idx.size
        np.testing.assert_array_equal(s.indices[lo:end], idx.ravel())
        np.testing.assert_array_equal(s.data[lo:end], vals.ravel())
        np.testing.assert_array_equal(dense[rows, idx], vals)
        assert np.all(np.diff(rows) > 0) and np.all(np.diff(idx, axis=0) > 0)
    assert end == s.nnz and np.count_nonzero(dense) == s.nnz


def test_stored_entries_do_not_depend_on_pair_order_or_orientation():
    pairs = random_pairs(60, 4)
    rng = np.random.default_rng(5)
    w, diag = rng.uniform(-1, 1, len(pairs)), rng.uniform(-1, 1, 60)
    s = SparseMatrix.from_edges(60, pairs[:, 0], pairs[:, 1], w, diag)
    order, flip = rng.permutation(len(pairs)), rng.random(len(pairs)) < 0.5
    u = np.where(flip, pairs[:, 1], pairs[:, 0])[order]
    v = np.where(flip, pairs[:, 0], pairs[:, 1])[order]
    again = SparseMatrix.from_edges(60, u, v, w[order], diag)
    for a in ("indices", "data"):
        assert getattr(again, a).tobytes() == getattr(s, a).tobytes()
    for (r1, lo1, i1, v1), (r2, lo2, i2, v2) in zip(s._buckets, again._buckets, strict=True):
        assert lo1 == lo2 and r1.tobytes() == r2.tobytes() and i1.tobytes() == i2.tobytes()


def test_spmm_single_entry_rows_round_like_einsum():
    # rows storing one entry skip einsum; the result must keep einsum's bits,
    # which turn a -0.0 product into +0.0
    special = [0.0, -0.0, 1.5, -2.0, 1e-300, -1e-300, 3.0]
    x = np.array([special, special[::-1], [-0.0] * 7, [-v for v in special], [-0.0] * 7])
    for vals in ([1.0, 1.0], [-0.5, 0.0], [2.0, -0.0]):
        s = SparseMatrix.from_edges(5, [0, 3], [2, 1], vals)  # row 4 empty
        got = s.matmul_dense(x)
        want = np.zeros((5, 7))
        for r, c, v in zip([0, 2, 3, 1], [2, 0, 1, 3], np.repeat(vals, 2)):
            want[r] = np.einsum("krd,kr->rd", x[[[c]]], np.array([[v]]))[0]
        assert got.tobytes() == want.tobytes()
    swap = SparseMatrix.from_edges(5, [0, 2], [1, 3], np.ones(2))
    got = swap.matmul_dense(x)
    assert got[:4].tobytes() == (x[[1, 0, 3, 2]] + 0.0).tobytes()
    assert not np.any(np.signbit(got[got == 0.0]))  # row 3 takes x's -0.0 row


def chunk_rows(monkeypatch):
    """Spy on matmul_dense's chunks: the row count of each _bucket_product call."""
    sizes, product = [], T._bucket_product

    def spy(x, idx, vals):
        sizes.append(idx.shape[1])
        return product(x, idx, vals)

    monkeypatch.setattr(T, "_bucket_product", spy)
    return sizes


def bucketed_pairs(seed):
    """Pairs of 87 nodes, numbered at random, in buckets of 17, 33, 33 and 1
    rows of degrees 4, 2, 1 and 7, and three empty rows: a circulant of
    offsets +-1 and +-2, a cycle, a hub's 7 leaves and 13 linked pairs."""
    ids = iter(np.random.default_rng(seed).permutation(87))
    four, two, one = ([next(ids) for _ in range(k)] for k in (17, 33, 33))
    hub = next(ids)
    return ([(four[i], four[(i + o) % 17]) for i in range(17) for o in (1, 2)]
            + [(two[i], two[(i + 1) % 33]) for i in range(33)]
            + [(hub, leaf) for leaf in one[:7]] + list(zip(one[7::2], one[8::2])))


@pytest.mark.parametrize("d", [1, 3, 32])
@pytest.mark.parametrize("block", [1, 64, 4096])
def test_chunked_spmm_matches_the_unchunked_bits(monkeypatch, d, block):
    # chunks of 2 rows (block 1), or of 16 and 32 rows (block 64, d 1), leave
    # one-row tails, which join the chunk before them
    n = 87
    s = symmetric(n, bucketed_pairs(d + block), d * 10 + block)
    assert sorted(len(rows) for rows, *_ in s._buckets) == [1, 17, 33, 33]
    rng = np.random.default_rng(block + d)
    x, other = rng.uniform(-1, 1, size=(n, d)), rng.uniform(-1, 1, size=s.nnz)
    monkeypatch.setattr(T, "_BLOCK_FLOATS", 1 << 60)
    want, want_data = s.matmul_dense(x), s.matmul_dense(x, other)
    monkeypatch.setattr(T, "_BLOCK_FLOATS", block)
    sizes = chunk_rows(monkeypatch)
    assert s.matmul_dense(x).tobytes() == want.tobytes()
    assert s.matmul_dense(x, other).tobytes() == want_data.tobytes()
    assert sum(sizes) == 2 * (n - 3)  # every stored row once per call
    assert sizes.count(1) == 2  # the one-row bucket, never a tail
    if block == 1:
        assert max(sizes) == 3  # chunks of two rows, a tail joining the last
    # integer values sum exactly, so every order gives densify's product
    pairs = np.array(bucketed_pairs(d + block))
    ints = SparseMatrix.from_edges(n, pairs[:, 0], pairs[:, 1],
                                   rng.integers(-3, 4, size=len(pairs)))
    xi = rng.integers(-5, 6, size=(n, d)).astype(float)
    assert ints.matmul_dense(xi).tobytes() == (ints.densify() @ xi).tobytes()


@pytest.mark.parametrize("extra", [0, 1_000])
def test_chunked_spmm_holds_at_most_the_output_and_two_blocks(extra):
    # a +-1 circulant of 20,480 rows is one bucket, then beside a second
    # bucket of linked pairs: the gathered rows of the 20k-row bucket at width
    # 32 would take 10 MiB
    big = np.arange(20_480)
    pair = 20_480 + np.arange(0, extra, 2)
    u, v = np.concatenate([big, pair]), np.concatenate([(big + 1) % len(big), pair + 1])
    n = len(big) + extra
    s = SparseMatrix.from_edges(n, u, v, np.full(len(u), 0.5))
    assert len(s._buckets) == 1 + (extra > 0)
    x = np.random.default_rng(0).uniform(-1, 1, size=(n, 32))
    other = np.full(s.nnz, 0.25)
    for data in (None, other):
        tracemalloc.start()
        try:
            out = s.matmul_dense(x, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * T._BLOCK_FLOATS * 8


def test_spmm_gradient_flows_to_dense_only():
    s = SparseMatrix.from_edges(3, [0, 1, 2], [1, 2, 0], [1.0, -2.0, 0.5], [3.0, 0.0, -1.0])
    x, weights = rand((3, 2), 6), T.constant(np.arange(6.0).reshape(3, 2))
    err = grad_check(lambda: T.sum_all(T.mul_elem(T.spmm(s, x), weights)), [x])
    assert err < 1e-6


def test_sparse_validation():
    for u, v in (([0, 1], [1, 5]), ([0, -1], [1, 2]), ([3], [0])):
        with pytest.raises(ValidationError, match=r"pair id outside \[0, 3\)"):
            SparseMatrix.from_edges(3, u, v, np.ones(len(u)))
    with pytest.raises(ValidationError, match=r"pair \(1, 1\) is on the diagonal"):
        SparseMatrix.from_edges(3, [0, 1], [2, 1], [1.0, 1.0])
    with pytest.raises(ValidationError, match=r"pair \(1, 1\) is on the diagonal"):
        SparseMatrix.from_edges(3, [1], [1], [1.0], np.ones(3))
    for u, v in (([0, 1, 2], [2, 2, 0]), ([0, 1, 0], [2, 2, 2])):  # other, then same orientation
        with pytest.raises(ValidationError, match=r"pair \(0, 2\) is given twice"):
            SparseMatrix.from_edges(3, u, v, np.ones(3))
    with pytest.raises(ValidationError, match="differ in shape"):
        SparseMatrix.from_edges(3, [0, 1], [1, 2], [1.0])


# --------------------------------------------------------------------------
# elementwise


def test_relu_sign_cases():
    out = T.relu(Tensor([[-1.0, 2.0]]))
    np.testing.assert_array_equal(out.values, [[0.0, 2.0]])


def test_relu_gradient_zero_at_zero():
    x = Tensor([[0.0, -1.0, 1.0]], requires_grad=True)
    T.sum_all(T.relu(x)).backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


SPECIAL = [np.nan, -0.0, 0.0, -1e-300, 1e-300, -5e-324, 5e-324, -2.5, 3.0, np.inf, -np.inf]


@pytest.mark.parametrize("op, ref", [(T.relu, lambda x: np.where(x > 0, x, 0.0)),
                                     (T.tanh, np.tanh)])
@pytest.mark.parametrize("cols", [1, 3, 7, 11, 64])  # vector loops and their tails
def test_inplace_activation_matches_out_of_place(op, ref, cols):
    x = np.resize(SPECIAL, (5, cols))
    a, b = Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)
    want = op(a)
    got = op(b, inplace=True)
    assert want.values.tobytes() == got.values.tobytes() == ref(x).tobytes()
    assert got.values is b.values and a.values.tobytes() == x.tobytes()
    g = np.random.default_rng(0).uniform(-1, 1, size=x.shape)
    want._backward(g.copy())
    got._backward(g.copy())
    assert b.grad.tobytes() == a.grad.tobytes()


@pytest.mark.parametrize("op", [T.relu, T.tanh])
def test_inplace_activation_over_a_product_keeps_its_gradients(op):
    def loss(inplace):
        h = rand((5, 4), 11)
        w = rand((4, 3), 12)
        out = op(T.matmul(h, w), inplace=inplace)
        T.sum_all(T.mul_elem(out, out)).backward()
        return out.values, h.grad, w.grad

    for want, got in zip(loss(False), loss(True)):
        assert got.tobytes() == want.tobytes()


def test_tanh_odd():
    assert T.tanh(Tensor([[0.0]])).item() == 0.0


def test_exp_gradient():
    x = rand((3, 3), 7)
    assert grad_check(lambda: T.sum_all(T.exp(x)), [x]) < 1e-6


def test_binary_shape_mismatch():
    with pytest.raises(DimensionError):
        T.add(rand((2, 2)), rand((2, 3)))


def test_add_sub_scale_mul_gradients():
    a, b = rand((2, 3), 8), rand((2, 3), 9)
    for f in (
        lambda: T.sum_all(T.add(a, b)),
        lambda: T.sum_all(T.sub(a, b)),
        lambda: T.sum_all(T.scale(a, -0.7)),
        lambda: T.sum_all(T.mul_elem(a, b)),
    ):
        assert grad_check(f, [a, b]) < 1e-6


# --------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_confident_correct():
    logits = Tensor([[1e6, 0.0, 0.0], [0.0, 1e6, 0.0]])
    loss = T.cross_entropy(logits, [0, 1], [0, 1])
    assert abs(loss.item()) < 1e-12


def test_cross_entropy_uniform_is_log_c():
    logits = Tensor(np.zeros((4, 5)))
    loss = T.cross_entropy(logits, [0, 1, 2, 3], [0, 1, 2, 3])
    assert abs(loss.item() - np.log(5)) < 1e-12


def test_cross_entropy_empty_mask_errors():
    with pytest.raises(ValidationError):
        T.cross_entropy(rand((2, 2)), [0, 1], [])


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValidationError):
        T.cross_entropy(rand((2, 2)), [0, 5], [0, 1])


def test_cross_entropy_gradient():
    logits = rand((3, 4), 10)
    err = grad_check(lambda: T.cross_entropy(logits, [0, 2, 1], [0, 1, 2]), [logits])
    assert err < 1e-5


# --------------------------------------------------------------------------
# pairwise distances and gram


def test_pairwise_identical_rows_zero():
    h = Tensor(np.ones((3, 4)))
    np.testing.assert_array_equal(T.pairwise_sqdist(h).values, np.zeros((3, 3)))


def test_pairwise_hand_case():
    out = T.pairwise_sqdist(Tensor([[0.0], [1.0]]))
    np.testing.assert_array_equal(out.values, [[0.0, 1.0], [1.0, 0.0]])


def test_pairwise_gram_identity():
    h = rand((6, 3), 11, grad=False)
    d = T.pairwise_sqdist(h).values
    gm = h.values @ h.values.T
    ref = np.diag(gm)[:, None] + np.diag(gm)[None, :] - 2 * gm
    assert np.max(np.abs(d - ref)) < 1e-12
    assert np.max(np.abs(d - d.T)) == 0.0
    assert np.max(np.abs(np.diag(d))) == 0.0


def test_pairwise_gradient():
    h = rand((4, 3), 12)
    c = Tensor(np.random.default_rng(13).uniform(-1, 1, size=(4, 4)))
    err = grad_check(lambda: T.sum_all(T.mul_elem(T.pairwise_sqdist(h), c)), [h])
    assert err < 1e-6


def test_gram_zero_and_orthonormal():
    assert np.all(T.gram(Tensor(np.zeros((3, 2)))).values == 0.0)
    q, _ = np.linalg.qr(np.random.default_rng(14).normal(size=(5, 5)))
    np.testing.assert_allclose(T.gram(Tensor(q)).values, np.eye(5), atol=1e-12)


def test_gram_psd():
    g = T.gram(rand((6, 3), 15, grad=False)).values
    assert np.linalg.eigvalsh(0.5 * (g + g.T)).min() >= -1e-10


# --------------------------------------------------------------------------
# weighted Frobenius distance: distill_loss(b, a, w) = sum of W^2 (A - B)^2,
# a chain of sub, mul_elem and sum_all


def test_frobenius_identical_and_hand_value():
    a = Tensor([[0.1, 0.2], [0.2, 0.3]])
    zero = Tensor(np.zeros((2, 2)))
    ones = Tensor(np.ones((2, 2)))
    assert distill_loss(a, a, ones).item() == 0.0
    assert abs(distill_loss(zero, a, ones).item() - 0.18) < 1e-12


def test_frobenius_zero_weights_annihilate():
    a, b = rand((3, 3), 16), rand((3, 3), 17)
    assert distill_loss(b, a, Tensor(np.zeros((3, 3)))).item() == 0.0


def test_frobenius_gradient():
    a, b = rand((3, 3), 18), rand((3, 3), 19)
    w = rand((3, 3), 20, lo=0.0)
    assert grad_check(lambda: distill_loss(b, a, w), [a, w]) < 1e-6


# --------------------------------------------------------------------------
# engine behavior


def test_grad_check_linear_function():
    x = rand((3, 2), 21)
    assert grad_check(lambda: T.sum_all(x), [x]) < 1e-9


@pytest.mark.filterwarnings("ignore:overflow")
def test_grad_check_rejects_nonfinite():
    x = Tensor([[800.0]], requires_grad=True)
    with pytest.raises(NumericError):
        grad_check(lambda: T.exp(T.exp(x)), [x])


def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        rand((2, 2)).backward()


def test_gradients_accumulate_through_shared_use():
    x = Tensor([[2.0]], requires_grad=True)
    T.sum_all(T.mul_elem(x, x)).backward()  # d(x^2)/dx = 2x
    assert x.grad[0, 0] == pytest.approx(4.0)


def test_forward_deterministic():
    a, b = rand((5, 5), 22, grad=False), rand((5, 5), 23, grad=False)
    first = T.matmul(a, b).values
    second = T.matmul(a, b).values
    np.testing.assert_array_equal(first, second)


def test_detach_blocks_gradient():
    x = rand((2, 2), 24)
    y = x.detach()
    assert not y.requires_grad
    out = T.sum_all(y)
    assert not out.requires_grad
