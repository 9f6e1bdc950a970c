"""The dense reference chains, bit for bit, and the fused alignment op in training.

``kernel_matrix``'s gauss chain, ``pairwise_sqdist`` and ``distill_loss`` are
primitive tape chains: the dense reference that ``T.kernel_alignment`` is
tested against in test_alignment.py. Here their values and gradients are
pinned to numpy statements of the same operations with ``assert_array_equal``,
never a tolerance, so the reference cannot drift. The last tests run the fused
op itself in training and bound its memory.
"""

import json
import tracemalloc

import numpy as np
import pytest

from geokd import tensor as T
from geokd.cli import main
from geokd.distill import distill_loss, weight_matrix
from geokd.graphs import adjacency, sbm_generate, save_graph
from geokd.nhk import KernelSpec, kernel_matrix
from geokd.tensor import Tensor


def features(n, d, seed, coincident=False):
    h = np.random.default_rng(seed).standard_normal((n, d))
    if coincident:
        h[n // 2:] = h[0]  # zero distances, where rounding needs the clamp
    return h


def old_sqdist(hv):
    # the distance forward with the explicit strided gm + gm.T
    gm = hv @ hv.T
    r = np.diag(gm).copy()
    out = r[:, None] + r[None, :]
    out -= gm + gm.T
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def np_gauss(hv, t, upstream):
    """The gauss kernel_matrix in numpy: the kernel and the gradient of sum(upstream * K)."""
    c = -1.0 / (4.0 * t)
    k = np.exp(old_sqdist(hv) * c)
    s = upstream * k * c
    s = s + s.T
    return k, 2.0 * (s.sum(axis=1, keepdims=True) * hv - s @ hv)


def gauss_pass(hv, t, upstream):
    """Kernel values and the gradient of sum(upstream * K) wrt h, on the tape."""
    h = Tensor(hv.copy(), requires_grad=True)
    k = kernel_matrix(KernelSpec(kind="gauss", t=t), h)
    T.sum_all(T.mul_elem(k, T.constant(upstream))).backward()
    return k.values, h.grad


@pytest.mark.parametrize("n,coincident", [(1, False), (2, True), (7, False), (9, True),
                                          (40, False), (40, True)])
@pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
def test_gauss_kernel_bits_match_tape_chain(n, coincident, t):
    hv = features(n, 5, n, coincident)
    # non-symmetric upstream, so the backward's g + g.T is exercised
    upstream = np.random.default_rng(n + 100).uniform(-1, 1, size=(n, n))
    k_ref, g_ref = np_gauss(hv, t, upstream)
    k_new, g_new = gauss_pass(hv, t, upstream)
    np.testing.assert_array_equal(k_new, k_ref)
    np.testing.assert_array_equal(g_new, g_ref)


@pytest.mark.parametrize("grads", ["a", "b", "ab", "abw", "w"])
@pytest.mark.parametrize("n", [1, 6, 33])
def test_frobenius_sq_bits_match_tape_chain(grads, n):
    # distill_loss(b, a, w) plus a second use of a and b, whose gradients
    # accumulate on the tape; the teacher kernel b gets only the second use's
    rng = np.random.default_rng(n)
    av, bv = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    wv = rng.uniform(0, 1, size=(n, n))  # not symmetric
    a, b, w = (Tensor(v.copy(), requires_grad=name in grads)
               for name, v in (("a", av), ("b", bv), ("w", wv)))
    loss = T.add(distill_loss(b, a, w), T.sum_all(T.mul_elem(a, b)))
    loss.backward()

    x = (av - bv) * wv
    np.testing.assert_array_equal(loss.values, [[(x * x).sum() + (av * bv).sum()]])
    want = {"a": (x + x) * wv + bv, "b": av, "w": (x + x) * (av - bv)}
    for name, tensor in (("a", a), ("b", b), ("w", w)):
        if name in grads:
            np.testing.assert_array_equal(tensor.grad, want[name])
        else:
            assert tensor.grad is None


@pytest.mark.parametrize("delta", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
def test_gauss_alignment_bits_match_tape_chain(delta, t):
    g = sbm_generate([12, 12], 0.4, 0.1, 4, 0.5, 3)
    # a batch with repeated ids gives W repeated rows and coincident features
    ids = np.array([0, 5, 5, 13, 2, 23, 0, 7, 19, 19, 11])
    w = weight_matrix(g, delta, ids)
    hv_s, hv_t = features(24, 6, 1)[ids], features(24, 6, 2)[ids]
    h_s = Tensor(hv_s.copy(), requires_grad=True)
    spec = KernelSpec(kind="gauss", t=t)
    loss = distill_loss(kernel_matrix(spec, Tensor(hv_t)), kernel_matrix(spec, h_s), w)
    loss.backward()

    k_t = np_gauss(hv_t, t, np.zeros((11, 11)))[0]
    k_s = np_gauss(hv_s, t, np.zeros((11, 11)))[0]
    x = (k_s - k_t) * w.values
    np.testing.assert_array_equal(loss.values, [[(x * x).sum()]])
    np.testing.assert_array_equal(h_s.grad, np_gauss(hv_s, t, (x + x) * w.values)[1])


def test_gkd_offline_metrics_match_tape_chain(tmp_path, monkeypatch):
    # randomized batches run the fused op; with it replaced by the dense chain
    # distill_loss(gram(Phi_t), gram(Phi_s), W) the run agrees to 1e-12
    graph = tmp_path / "g.json"
    save_graph(sbm_generate([15, 15], 0.4, 0.05, 6, 0.5, 0), graph)
    calls = []

    class RowsKept(T.TeacherKernel):  # a teacher side that keeps its factors
        def __init__(self, rows, *args):
            super().__init__(rows, *args)
            self.rows = rows

    def dense_chain(phi_s, teacher):
        calls.append(teacher.spec.kind)
        w = T.constant(teacher.delta + (1.0 - teacher.delta) * teacher.adj.densify())
        return distill_loss(T.gram(T.constant(teacher.rows)), T.gram(phi_s), w)

    def run(name):
        doc = {"mode": "teacher", "complete_graph": str(graph),
               "split": {"kind": "edges", "pir": 0.5},
               "teacher": {"depth": 3, "hidden": 8}, "student": {"depth": 3, "hidden": 8},
               "kernel": {"kind": "randomized", "m": 2},
               "distill": {"alpha": 2.0, "delta": 0.4, "batch_size": 16},
               "optimizer": {"lr": 0.05, "epochs": 3}, "out_dir": str(tmp_path / name)}
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train-teacher", "--config", str(cfg)]) == 0
        doc.update(mode="gkd_offline", out_dir=str(tmp_path / name / "student"))
        doc["teacher"]["checkpoint"] = str(tmp_path / name / "teacher.json")
        cfg.write_text(json.dumps(doc))
        assert main(["distill", "--config", str(cfg)]) == 0
        out = tmp_path / name / "student"
        metrics = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        return (out / "summary.json").read_bytes(), metrics

    summary, metrics = run("fused")
    monkeypatch.setattr(T, "TeacherKernel", RowsKept)
    monkeypatch.setattr(T, "kernel_alignment", dense_chain)
    summary_ref, metrics_ref = run("tape")
    assert calls == ["randomized"] * 2 * 3  # trace entries 1 and 2, three epochs
    assert summary == summary_ref
    assert len(metrics) == len(metrics_ref) == 3
    # the two alignments' gradients differ in the last bits, so from the
    # second epoch on the weights do too, and so do both losses
    losses = ("loss_dis", "loss_pre")
    for got, want in zip(metrics, metrics_ref):
        for key in losses:
            assert got[key] > 0.0
            assert abs(got[key] - want[key]) <= 1e-12 * want[key]
        assert {k: v for k, v in got.items() if k not in losses} == \
            {k: v for k, v in want.items() if k not in losses}


def test_gauss_alignment_peak_memory():
    # one full-batch gauss layer, forward and backward, past the 64-row floor:
    # three 64 x n blocks and a few n x d arrays, far below one n x n buffer
    n, d = 3000, 32
    g = sbm_generate([n // 2, n - n // 2], 0.004, 0.0005, 4, 0.5, 1)
    adj = adjacency(g)
    h_t = T.constant(features(n, d, 1))
    h = Tensor(features(n, d, 3), requires_grad=True)
    tracemalloc.start()
    try:
        T.kernel_alignment(h, T.TeacherKernel(h_t.values, KernelSpec(kind="gauss"), adj,
                                              0.4)).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.grad is not None
    assert peak <= 4 * 64 * n * 8 + 4 * n * d * 8


@pytest.mark.parametrize("layout", ["c", "fortran", "column_slice", "row_step"])
@pytest.mark.parametrize("n,d", [(1, 3), (2, 1), (17, 5), (300, 32), (700, 3)])
def test_sqdist_doubling_matches_explicit_transpose(layout, n, d):
    base = features(2 * n, 2 * d, n + d, coincident=True)
    hv = {"c": base[:n, :d].copy(), "fortran": np.asfortranarray(base[:n, :d]),
          "column_slice": base[:n, ::2], "row_step": base[::2, :d]}[layout]
    dist = T.pairwise_sqdist(Tensor(hv)).values
    np.testing.assert_array_equal(dist, dist.T)
    # a strided view is made contiguous first; matmul of the view itself
    # need not be symmetric, so the old formula is compared on the copy
    expect = old_sqdist(hv if layout in ("c", "fortran") else np.ascontiguousarray(hv))
    np.testing.assert_array_equal(dist, expect)
