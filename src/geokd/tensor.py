"""Dense tensors with reverse-mode differentiation, plus fixed sparse operators.

Tensors are strictly rank-2 float64. Each differentiable op records its
parents and a backward closure; ``backward()`` on a scalar walks the tape
in reverse topological order and frees each node as it passes. Sparse
matrices are constants: gradients flow only through their dense operands.

Every gradient buffer has one holder: ``_accumulate`` keeps the buffer it is
handed, so a closure hands each buffer to at most one parent and never writes
it afterwards. relu, scale and exp write their node's spent g in place, and
transpose hands on a view of it; the walk drops g right after. ``_make``
records a closure only when a parent takes a gradient, so only two-parent
closures check which parent does.

A sparse matrix is square and symmetric by construction: its builder takes
each off-diagonal pair once, in either orientation, and stores its value at
both positions, so spmm's backward runs the forward product again. Each entry
is held once, in the order the sparse-dense product reads them: rows are
grouped by how many entries they store, each group is one entry-major block,
and the groups' column ids and values are views of the stored arrays, made
once, with int32 ids. Each group runs in chunks of rows, one gather and one
``einsum`` per chunk, as does the alignment's edge kernel. A chunk gathers
about ``_BLOCK_FLOATS`` floats at most (two rows at least), so a product
takes O(``_BLOCK_FLOATS``) memory beyond its output at any n. Every output
row sums its entries one after another in column order, so results do not
depend on how rows are grouped or chunked (``matmul_dense`` has one exception).

The fused op ``kernel_alignment`` gives the weighted distance between two
kernels (gauss, sigmoid, or a Gram of factors) as one tape node with no n x n
matrix. Its pair weight splits as W2 = delta^2 + (1 - delta^2) A: a sum over
the adjacency entries, O(|E| d), plus for delta > 0 only a sum over all
pairs, O(n^2 d) by row blocks over K's upper triangle, or O(n r^2) from
r x r Grams for a Gram of n >= 2r factor rows of width r. Its teacher side
is one ``TeacherKernel``, built once from constant rows: the kernel at the
adjacency entries and, for delta > 0 only, what the all-pairs sum reads. The
chains over ``pairwise_sqdist`` and ``gram`` are its reference.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError, ValidationError

# kernel_alignment's row blocks are at most b x n, b = max(64, 65536 // n): 512 KiB
# up to n = 1024, never so few rows that gemms slow down; matmul_dense's chunks,
# and the edge kernel's, gather 65536 floats
_BLOCK_FLOATS, _BLOCK_ROWS = 65536, 64


class Tensor:
    """A (rows, cols) float64 matrix participating in the autodiff tape."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if arr.ndim != 2:
            raise DimensionError(f"tensors are rank-2, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"empty tensor shape {arr.shape}")
        self.values = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise DimensionError(f"item() on shape {self.shape}")
        return float(self.values[0, 0])

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        """Take g as the grad, or add it into the grad held: g is ours from here."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def backward(self):
        """Reverse pass from this scalar; populates .grad on reachable tensors.
        Right after its closure runs (or is skipped, unreached), a node drops its
        parents, closure and spent grad and leaves the walk, so what only spent
        closures held goes once its last reader has run. Leaves keep their grads."""
        if self.values.size != 1:
            raise DimensionError("backward() requires a scalar loss")
        order = _toposort(self)
        self._accumulate(np.ones((1, 1)))
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._parents, node._backward = None, (), None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor):
    """The tape reachable from root, each node after its parents: root last."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _make(values: np.ndarray, parents, backward) -> Tensor:
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def constant(values) -> Tensor:
    return Tensor(values)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


# ---------------------------------------------------------------------------
# Sparse operators (fixed coefficients; never differentiated through)


class SparseMatrix:
    """Symmetric n x n sparse matrix, built by ``from_edges`` from one
    orientation of each pair, holding each entry once in ``matmul_dense``'s order.

    Rows are grouped into buckets by how many entries they store, the buckets
    by ascending count. A bucket of m rows storing k entries each holds its
    entries as one entry-major (k, m) block: rows ascending along m, each
    row's entries in column order along k. ``indices`` (int32) and ``data``
    hold the entries in that order, and each bucket's (k, m) column ids and
    values are views of them, made once, beside its int32 row list, a view of
    one n-long array: the matrix holds 12 bytes an entry and 4 a row.
    """

    @classmethod
    def from_edges(cls, n: int, u, v, w, diag=None) -> "SparseMatrix":
        """The n x n matrix with value w[p] at (u[p], v[p]) and (v[p], u[p]) and,
        when diag is given, diag[i] at (i, i). Pairs come in any order and
        orientation; ids outside [0, n), u == v and a pair given twice are
        refused. Ids are stored as int32: ``Graph`` refuses n >= 2^31."""
        u, v, w = np.asarray(u), np.asarray(v), np.asarray(w, dtype=np.float64)
        if u.ndim != 1 or not u.shape == v.shape == w.shape:
            raise ValidationError("pair ids and values differ in shape")
        if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise ValidationError(f"pair id outside [0, {n})")
        rr, cc, vv = [u, v], [v, u], [w, w]  # both orientations of each pair
        if diag is not None:
            rr, cc, vv = rr + [np.arange(n)], cc + [np.arange(n)], vv + [np.asarray(diag, float)]
        rr, cc = (np.concatenate(a, dtype=np.int32, casting="unsafe") for a in (rr, cc))
        vv = np.concatenate(vv)
        key = rr.astype(np.int64) * n + cc  # row-major, unique unless a pair repeats or u == v
        order = np.argsort(key, kind="stable")
        key = key[order]
        dup = np.flatnonzero(key[1:] == key[:-1])
        if len(dup):
            r, c = divmod(int(key[dup[0]]), n)
            what = "on the diagonal" if r == c else "given twice"
            raise ValidationError(f"pair ({r}, {c}) is {what}")
        counts = np.bincount(rr, minlength=n)
        by_count = np.argsort(counts, kind="stable").astype(np.int32)  # ties keep row order
        ks, sizes = np.unique(counts[by_count], return_counts=True)
        first = np.cumsum(counts) - counts  # each row's first entry in order
        del key  # from here the build holds one nnz-long index (order) beside its input and output
        self = cls.__new__(cls)
        self.shape, self._buckets = (int(n), int(n)), []
        self.indices, self.data = np.empty(len(cc), np.int32), np.empty(len(vv))
        lo = 0
        for k, ids in zip(ks, np.split(by_count, np.cumsum(sizes)[:-1])):
            if k:  # the bucket's entries, entry-major, taken into views of the stored arrays
                at = order[first[ids] + np.arange(k)[:, None]]
                idx, vals = (np.take(a, at, out=s[lo:lo + at.size].reshape(at.shape))
                             for a, s in zip((cc, vv), (self.indices, self.data)))
                self._buckets.append((ids, lo, idx, vals))  # rows, first entry, (k, rows)
                lo += at.size
        return self

    @property
    def nnz(self) -> int:
        return len(self.data)

    def densify(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for rows, _, idx, vals in self._buckets:
            out[rows, idx] = vals
        return out

    def matmul_dense(self, x: np.ndarray, data=None) -> np.ndarray:
        """self @ x, one gather and one einsum per chunk of a degree bucket;
        ``data``, when given, replaces the stored values entry for entry, in
        the stored order, as the same views.

        A bucket of rows storing k entries each is held as (k, rows) arrays of
        column ids and values, so there are at most sqrt(2 * nnz) buckets.
        A bucket runs in chunks of c = max(2, _BLOCK_FLOATS // (k d)) rows for
        x of width d, and a one-row tail joins the chunk before it: a chunk
        gathers at most _BLOCK_FLOATS + k d floats when 2 k d <= _BLOCK_FLOATS,
        and its product holds a k-th of that, whatever the row count.

        With the entry axis outermost, einsum adds entry j + 1 to the partial
        sum of entries 0..j: each row sums in column order, one entry after
        another. The exception is a chunk of one row times a one-column x,
        which einsum reduces as a dot product that may pair terms; chunking
        makes one only of a bucket of one row. Empty rows stay zero.

        Rows storing one entry skip einsum and compute 0.0 + value * x in
        place on the gathered rows, the same rounding einsum applies (a -0.0
        product becomes +0.0 in both).
        """
        if self.shape[1] != x.shape[0]:
            raise DimensionError(f"spmm: {self.shape} @ {x.shape}")
        out = np.zeros((self.shape[0], x.shape[1]))
        for rows, lo, idx, vals in self._buckets:
            if data is not None:
                vals = data[lo:lo + idx.size].reshape(idx.shape)
            for c in _chunks(len(rows), len(idx) * x.shape[1]):
                out[rows[c]] = _bucket_product(x, idx[:, c], vals[:, c])
        return out


def _chunks(rows: int, floats: int):
    """A bucket's row chunks: max(2, _BLOCK_FLOATS // floats) rows, no one-row tail."""
    step = max(2, _BLOCK_FLOATS // (floats or 1))
    bounds = [*range(0, max(rows - 1, 1), step), rows]
    return map(slice, bounds, bounds[1:])


def _bucket_product(x: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Rows of one degree bucket: sum over k of vals[k, r] * x[idx[k, r]]."""
    if len(idx) > 1:
        return np.einsum("krd,kr->rd", np.take(x, idx, axis=0), vals)
    out = np.take(x, idx[0], axis=0)
    with np.errstate(all="ignore"):  # as silent as einsum on non-finite input
        out *= vals[0][:, None]
    out += 0.0
    return out


# ---------------------------------------------------------------------------
# Primitive operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: {a.shape} @ {b.shape}")
    out_vals = a.values @ b.values

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.values.T)
        if b.requires_grad:
            b._accumulate(a.values.T @ g)

    return _make(out_vals, (a, b), backward)


def spmm(s: SparseMatrix, x: Tensor) -> Tensor:
    out_vals = s.matmul_dense(x.values)

    def backward(g):
        x._accumulate(s.matmul_dense(g))  # s is symmetric: s^T g = s g

    return _make(out_vals, (x,), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g.T)

    return _make(a.values.T.copy(), (a,), backward)


# relu and tanh ``inplace`` overwrite a's values with their output, for a fresh
# op output no other node reads: relu's backward reads only its mask, tanh's
# only its output, and a matmul's or spmm's only its inputs
def relu(a: Tensor, inplace: bool = False) -> Tensor:
    mask = a.values > 0  # subgradient 0 at exactly 0

    def backward(g):
        a._accumulate(np.multiply(g, mask, out=g))

    # np.where(mask, a, 0.0)'s bits without its branch per entry: fmax maps NaN
    # and every value <= 0 to 0.0 (or -0.0, on some paths), and + 0.0 gives +0.0
    out_vals = np.fmax(a.values, 0.0, out=a.values if inplace else None)
    out_vals += 0.0
    return _make(out_vals, (a,), backward)


def tanh(a: Tensor, inplace: bool = False) -> Tensor:
    out_vals = np.tanh(a.values, out=a.values if inplace else None)

    def backward(g):
        a._accumulate(g * (1.0 - out_vals * out_vals))

    return _make(out_vals, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_vals = np.exp(a.values)

    def backward(g):
        a._accumulate(np.multiply(g, out_vals, out=g))

    return _make(out_vals, (a,), backward)


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise DimensionError(f"{op}: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:  # a copy only when a holds g: np.array keeps g's layout
            b._accumulate(np.array(g) if a.requires_grad else g)

    return _make(a.values + b.values, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _make(a.values - b.values, (a, b), backward)


def scale(a: Tensor, c: float, shift: float = 0.0) -> Tensor:
    """c * a + shift."""
    c = float(c)
    out_vals = a.values * c
    if shift:
        out_vals += shift

    def backward(g):
        a._accumulate(np.multiply(g, c, out=g))

    return _make(out_vals, (a,), backward)


def mul_elem(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul_elem")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.values)
        if b.requires_grad:
            b._accumulate(g * a.values)

    return _make(a.values * b.values, (a, b), backward)


def take_rows(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    if len(idx) == 0:
        raise ValidationError("take_rows: empty index set")
    if idx.min() < 0 or idx.max() >= a.shape[0]:
        raise ValidationError("take_rows: index out of range")

    def backward(g):
        buf = np.zeros_like(a.values)
        np.add.at(buf, idx, g)
        a._accumulate(buf)

    return _make(a.values[idx], (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(np.full_like(a.values, g[0, 0]))

    return _make(np.array([[a.values.sum()]]), (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    z = a.values - a.values.max(axis=1, keepdims=True)
    out_vals = z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def backward(g):
        soft = np.exp(out_vals)
        a._accumulate(g - soft * g.sum(axis=1, keepdims=True))

    return _make(out_vals, (a,), backward)


def pairwise_sqdist(h: Tensor) -> Tensor:
    """n x n matrix of squared Euclidean row distances; exact zero diagonal.

    Uses the Gram identity D_ij = G_ii + G_jj - G_ij - G_ji, exactly
    symmetric by construction; rounding can leave tiny negatives at coincident
    rows, which are clamped (their true derivative is zero, matching the
    backward rule: diagonal and coincident-row contributions cancel in
    s.sum(1)*h - s@h).
    """
    # numpy's matmul computes X @ X.T of a contiguous X as BLAS syrk and
    # mirrors the triangle, so gm is exactly symmetric and gm_ij + gm_ji is
    # gm_ij + gm_ij: doubled in place, with no strided transpose. r_i + r_j
    # is symmetric too (a commutative addition)
    hv = np.ascontiguousarray(h.values)
    gm = hv @ hv.T
    r = np.diag(gm).copy()
    gm += gm
    out = r[:, None] + r[None, :]
    out -= gm
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, 0.0)

    def backward(g):
        s = g + g.T
        h._accumulate(2.0 * (s.sum(axis=1, keepdims=True) * h.values - s @ h.values))

    return _make(out, (h,), backward)


# ---------------------------------------------------------------------------
# Composite operations


def gram(h: Tensor) -> Tensor:
    """H @ H^T; symmetric positive semidefinite."""
    return matmul(h, transpose(h))


_GRAM_KINDS = ("randomized", "parametric")  # kernels K = Phi Phi^T of factor rows


class TeacherKernel:
    """The teacher's side of ``kernel_alignment``, computed once from constant
    rows: spec's kernel at the stored entries of adj (``edge_kernel``) and,
    for delta > 0 only, the rows' ``_kernel_operands``, which the all-pairs
    sum reads (for a Gram kind, operand 0 is the rows themselves). It is no
    Tensor, so no gradient ever reaches it."""

    def __init__(self, rows: np.ndarray, spec, adj: SparseMatrix, delta: float):
        n = len(rows)
        if adj.shape != (n, n):
            raise DimensionError(f"TeacherKernel: rows {n}, adjacency {adj.shape}")
        self.spec, self.adj, self.delta = spec, adj, float(delta)
        operands = _kernel_operands(spec, np.ascontiguousarray(rows))
        self.edge_kernel = _edge_kernel(spec, operands, adj)
        self.operands = operands if self.delta else None


def kernel_alignment(h_s: Tensor, teacher: TeacherKernel) -> Tensor:
    """sum of W2_ij (K_s - K_t)_ij^2 over the rows of h_s, one tape node, with
    spec, adj, delta and K_t read from ``teacher``.

    K is spec's gauss exp(-D / 4t) or sigmoid tanh(a G + b) kernel of each
    side's rows, or for a randomized or parametric spec the Gram Phi Phi^T of
    rows that are the factors Phi. As W2 = delta^2 + (1 - delta^2) A for a
    binary symmetric adjacency A with a zero diagonal, the loss is
    (1 - delta^2) times the sum over the entries of A (``_edge_alignment``)
    plus, for delta > 0 only, delta^2 times the sum over all pairs: r x r
    Grams for a Gram kernel with n >= 2 max(r_s, r_t) rows
    (``_gram_alignment``), else row blocks over the upper triangle
    (``_blocked_alignment``), from ``_alignment_parts``. Each part gives its
    loss and Q u; their weighted sum maps once to the gradient.
    """
    n = h_s.shape[0]
    if teacher.adj.shape != (n, n):
        raise DimensionError(f"kernel_alignment: rows {n}, teacher adjacency {teacher.adj.shape}")
    spec, hs, want_grad = teacher.spec, np.ascontiguousarray(h_s.values), h_s.requires_grad
    parts = _alignment_parts(hs, teacher, want_grad)
    qu = 0.0
    for w, (_, q) in parts if want_grad else ():  # sum(w q), in the parts' own buffers
        qu = np.add(qu, np.multiply(q, w, out=q), out=q)
    grad = _gradient(spec, qu, hs) if want_grad else None

    def backward(g):
        h_s._accumulate(np.multiply(grad, g[0, 0], out=grad))

    return _make(np.array([[sum(w * part for w, (part, _) in parts)]]), (h_s,), backward)


def _alignment_parts(hs: np.ndarray, teacher: TeacherKernel, want_grad: bool):
    """kernel_alignment's [(weight, (loss, Q u))]: the edge sum, then for
    delta > 0 the all-pairs sum. The student's ``_kernel_operands`` are built
    once; the all-pairs sum runs first, so that the edge sum's Q u holds only
    u_s, and u_s goes on return, before the gradient is mapped: the peak
    stays one n x (d + 2) operand above the rows."""
    spec, adj, d2, ops_t = teacher.spec, teacher.adj, teacher.delta ** 2, teacher.operands
    ops_s = _kernel_operands(spec, hs)
    k_s = _edge_kernel(spec, ops_s, adj)
    all_pairs = []
    if d2:
        grams = spec.kind in _GRAM_KINDS and len(hs) >= 2 * max(hs.shape[1], ops_t[0].shape[1])
        all_pairs.append((d2, _gram_alignment(hs, ops_t[0], want_grad) if grams
                          else _blocked_alignment(ops_s, ops_t, spec, want_grad)))
    u_s, ops_s = ops_s[0], None
    edge = _edge_alignment(u_s, k_s, teacher.edge_kernel, adj, spec, want_grad)
    return [(1.0 - d2, edge)] + all_pairs


def _kernel_operands(spec, h: np.ndarray):
    """(u, v) with spec's kernel a map of <u_i, v_j>: for gauss of -D_ij / 2 =
    <h_i, h_j> + c_i + c_j with u = [h, 1, c], v = [h, c, 1], c = -|h|^2 / 2;
    else of <h_i, h_j>, u = v = h."""
    if spec.kind != "gauss":
        return h, h
    c, ones = np.einsum("ij,ij->i", h, h) * -0.5, np.ones(len(h))
    return np.column_stack([h, ones, c]), np.column_stack([h, c, ones])


def _kernel_of_dots(spec, dots: np.ndarray) -> np.ndarray:
    """spec's kernel, in place on dots = <u_i, v_j> (``_kernel_operands``):
    gauss exp(min(dots, 0) / 2t), sigmoid tanh(a dots + b), a Gram kind dots."""
    if spec.kind == "gauss":
        np.minimum(dots, 0.0, out=dots)  # a distance is never negative
        dots *= 0.5 / spec.t
        return np.exp(dots, out=dots)
    if spec.kind == "sigmoid":
        dots *= spec.a
        dots += spec.b
        return np.tanh(dots, out=dots)
    return dots


def _slope(spec, res: np.ndarray, k_s: np.ndarray) -> np.ndarray:
    """Q, symmetric, in place on residuals res = K_s - K_t: res K_s for gauss,
    res (1 - K_s^2) for sigmoid (overwriting k_s), res for a Gram."""
    if spec.kind == "gauss":
        res *= k_s
    elif spec.kind == "sigmoid":
        res *= np.subtract(1.0, np.multiply(k_s, k_s, out=k_s), out=k_s)
    return res


def _gradient(spec, qu: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d(sum of res^2)/dH over symmetric pairs from qu = Q u (``_slope``): for
    gauss, as dL/dD = -Q / 2t, (2 / t) (Q H - diag(Q 1) H) in one new buffer;
    else c Q H as dL/dG = c Q / 2, c = 4a (sigmoid) or 4 (Gram), overwriting qu."""
    if spec.kind == "gauss":
        d = h.shape[1]
        out = np.multiply(qu[:, d:d + 1], h)
        return np.multiply(np.subtract(qu[:, :d], out, out=out), 2.0 / spec.t, out=out)
    qu *= 4.0 * spec.a if spec.kind == "sigmoid" else 4.0
    return qu


def _edge_kernel(spec, operands, adj: SparseMatrix) -> np.ndarray:
    """spec's kernel at adj's stored entries, in order, from one side's
    ``_kernel_operands`` (u, v): per ``matmul_dense`` chunk, u at its rows against
    v at its (k, c) ids, into a new block (einsum into out's slice took more memory)."""
    (u, v), out = operands, np.empty(adj.nnz)
    for rows, lo, idx, _ in adj._buckets:
        block = out[lo:lo + idx.size].reshape(idx.shape)
        for c in _chunks(len(rows), len(idx) * u.shape[1]):
            block[:, c] = _kernel_of_dots(spec, np.einsum(
                "cw,kcw->kc", np.take(u, rows[c], axis=0), np.take(v, idx[:, c], axis=0)))
    return out


def _edge_alignment(u_s: np.ndarray, k_s: np.ndarray, k_t: np.ndarray, adj: SparseMatrix,
                    spec, want_grad):
    """The sum of (K_s - K_t)^2 over the stored entries of the symmetric adj,
    given both kernels there (``_edge_kernel``), and Q u =
    ``adj.matmul_dense(u_s, Q)`` for the student's first ``_kernel_operands``
    u_s (None unless want_grad), in O(|E| d) time."""
    res = k_s - k_t
    return float(np.dot(res, res)), (
        adj.matmul_dense(u_s, _slope(spec, res, k_s)) if want_grad else None)


def _blocked_alignment(ops_s, ops_t, spec, want_grad: bool):
    """The sum of (K_s - K_t)^2 over all pairs, from each side's
    ``_kernel_operands`` (u, v), and Q u (None unless want_grad), over the
    upper triangle in O(n^2 d): a block B of b = max(64, 65536 // n) rows from
    r0 fills two b x (n - r0) buffers with K_s and K_t on the columns from r0,
    n (n + b) / 2 entries in all. The b x b diagonal block counts once and the
    rest twice, and as Q is symmetric, Q_B u adds to the rows B of Q u and
    Q_B^T u_B to its later rows."""
    u_s = ops_s[0]
    n = len(u_s)
    step = max(_BLOCK_ROWS, _BLOCK_FLOATS // n)
    w, b0 = u_s.shape[1], min(step, n)  # K_s's spent buffer then holds Q_B^T u_B
    bufs = np.empty((2, max(b0 * n, (n - b0) * w)))
    loss, qu = 0.0, (np.zeros(u_s.shape) if want_grad else None)
    for r0 in range(0, n, step):
        r1, b = min(r0 + step, n), min(step, n - r0)
        k_s, k_t = (buf[:b * (n - r0)].reshape(b, -1) for buf in bufs)  # contiguous
        for (u, v), out in zip((ops_s, ops_t), (k_s, k_t)):
            _kernel_of_dots(spec, np.matmul(u[r0:r1], v[r0:].T, out=out))
            if spec.kind == "gauss":
                np.fill_diagonal(out, 1.0)  # exact zero self-distance
        res = np.subtract(k_s, k_t, out=k_t)
        loss += 2.0 * np.vdot(res, res) - np.vdot(res[:, :b], res[:, :b])  # copies b x b
        if qu is not None:
            q = _slope(spec, res, k_s)
            qu[r0:r1] += q @ u_s[r0:]
            qu[r1:] += np.matmul(q[:, b:].T, u_s[r0:r1], out=bufs[0, :(n - r1) * w].reshape(-1, w))
    return float(loss), qu


def _gram_alignment(phi_s: np.ndarray, phi_t: np.ndarray, want_grad: bool):
    """The sum of (K_s - K_t)^2 over all pairs of the Grams K = Phi Phi^T, and
    Q u = Phi_s G_ss - Phi_t G_ts (None unless want_grad), from the r x r
    Grams: ||G_ss||^2 - 2 ||G_ts||^2 + ||G_tt||^2 with G_ts = Phi_t^T Phi_s,
    in O(n r^2) time and O(n r) memory."""
    g_ss, g_ts, g_tt = phi_s.T @ phi_s, phi_t.T @ phi_s, phi_t.T @ phi_t
    loss = np.vdot(g_ss, g_ss) - 2.0 * np.vdot(g_ts, g_ts) + np.vdot(g_tt, g_tt)
    return float(loss), (phi_s @ g_ss - phi_t @ g_ts if want_grad else None)


def cross_entropy(logits: Tensor, labels, mask) -> Tensor:
    """Mean negative log-softmax at the true class over masked rows."""
    mask = np.asarray(mask, dtype=np.int64)
    if len(mask) == 0:
        raise ValidationError("cross_entropy: empty mask")
    labels = np.asarray(labels, dtype=np.int64)
    picked_labels = labels[mask]
    if picked_labels.min() < 0 or picked_labels.max() >= logits.shape[1]:
        raise ValidationError("cross_entropy: label out of range")
    ls = log_softmax(take_rows(logits, mask))
    onehot = np.zeros((len(mask), logits.shape[1]))
    onehot[np.arange(len(mask)), picked_labels] = 1.0
    return scale(sum_all(mul_elem(ls, constant(onehot))), -1.0 / len(mask))


# ---------------------------------------------------------------------------
# Gradient checking


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error of analytic vs central finite-difference gradients.

    ``f`` is a zero-argument callable that rebuilds the forward computation
    and returns a scalar tensor; it must read parameter values live so that
    in-place perturbations take effect.
    """
    for p in params:
        p.zero_grad()
    loss = f()
    if not np.isfinite(loss.values).all():
        raise NumericError("loss is not finite")
    loss.backward()
    analytic = []
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.values)
        analytic.append(p.grad.copy())

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.values.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            v0 = flat[i]
            flat[i] = v0 + eps
            f_plus = f().item()
            flat[i] = v0 - eps
            f_minus = f().item()
            flat[i] = v0
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("finite-difference evaluation not finite")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
