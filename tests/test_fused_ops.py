"""The one-node gauss kernel and alignment loss against their tape chains.

``gauss_kernel`` and ``frobenius_sq`` promise the bits of the primitive
chains they replace, so every comparison here is exact: loss, kernel values
and every gradient with ``assert_array_equal``, never a tolerance.
"""

import json
import tracemalloc

import numpy as np
import pytest

from geokd import tensor as T
from geokd.cli import main
from geokd.distill import distill_loss, weight_matrix
from geokd.graphs import sbm_generate, save_graph
from geokd.nhk import nhk_gauss
from geokd.tensor import Tensor


def ref_gauss_kernel(h, t):
    return T.exp(T.scale(T.pairwise_sqdist(h), -1.0 / (4.0 * t)))


def ref_frobenius_sq(a, b, w):
    weighted = T.mul_elem(T.sub(a, b), w)
    return T.sum_all(T.mul_elem(weighted, weighted))


def features(n, d, seed, coincident=False):
    h = np.random.default_rng(seed).standard_normal((n, d))
    if coincident:
        h[n // 2:] = h[0]  # zero distances, where rounding needs the clamp
    return h


def gauss_pass(kernel, hv, t, upstream):
    """Kernel values and the gradient of sum(upstream * K) wrt h."""
    h = Tensor(hv.copy(), requires_grad=True)
    k = kernel(h, t)
    T.sum_all(T.mul_elem(k, T.constant(upstream))).backward()
    return k.values, h.grad


@pytest.mark.parametrize("n,coincident", [(1, False), (2, True), (7, False), (9, True),
                                          (40, False), (40, True)])
@pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
def test_gauss_kernel_bits_match_tape_chain(n, coincident, t):
    hv = features(n, 5, n, coincident)
    # non-symmetric upstream, so the backward's g + g.T is exercised
    upstream = np.random.default_rng(n + 100).uniform(-1, 1, size=(n, n))
    k_ref, g_ref = gauss_pass(ref_gauss_kernel, hv, t, upstream)
    k_new, g_new = gauss_pass(T.gauss_kernel, hv, t, upstream)
    np.testing.assert_array_equal(k_new, k_ref)
    np.testing.assert_array_equal(g_new, g_ref)
    assert np.array_equal(nhk_gauss(Tensor(hv), t).values, k_ref)


def frobenius_pass(loss_fn, av, bv, wv, grads):
    a, b, w = (Tensor(v.copy(), requires_grad=name in grads)
               for name, v in (("a", av), ("b", bv), ("w", wv)))
    # a second use of a and b checks that gradients accumulate in tape order
    loss = T.add(loss_fn(a, b, w), T.sum_all(T.mul_elem(a, b)))
    loss.backward()
    return loss.values, [t.grad for t in (a, b, w)]


@pytest.mark.parametrize("grads", ["a", "b", "ab", "abw", "w"])
@pytest.mark.parametrize("n", [1, 6, 33])
def test_frobenius_sq_bits_match_tape_chain(grads, n):
    rng = np.random.default_rng(n)
    av, bv = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    wv = rng.uniform(0, 1, size=(n, n))  # not symmetric
    loss_ref, grads_ref = frobenius_pass(ref_frobenius_sq, av, bv, wv, grads)
    loss_new, grads_new = frobenius_pass(T.frobenius_sq, av, bv, wv, grads)
    np.testing.assert_array_equal(loss_new, loss_ref)
    for new, ref in zip(grads_new, grads_ref):
        assert (new is None) == (ref is None)
        if ref is not None:
            np.testing.assert_array_equal(new, ref)


@pytest.mark.parametrize("delta", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
def test_gauss_alignment_bits_match_tape_chain(monkeypatch, delta, t):
    g = sbm_generate([12, 12], 0.4, 0.1, 4, 0.5, 3)
    # a batch with repeated ids gives W repeated rows and coincident features
    ids = np.array([0, 5, 5, 13, 2, 23, 0, 7, 19, 19, 11])
    w = weight_matrix(g, delta, ids)
    hv_s, hv_t = features(24, 6, 1)[ids], features(24, 6, 2)[ids]

    def align():
        h_s = Tensor(hv_s.copy(), requires_grad=True)
        k_t = nhk_gauss(Tensor(hv_t), t)
        loss = distill_loss(k_t, nhk_gauss(h_s, t), w)
        loss.backward()
        return loss.values, h_s.grad

    loss_new, grad_new = align()
    monkeypatch.setattr(T, "gauss_kernel", ref_gauss_kernel)
    monkeypatch.setattr(T, "frobenius_sq", ref_frobenius_sq)
    loss_ref, grad_ref = align()
    np.testing.assert_array_equal(loss_new, loss_ref)
    np.testing.assert_array_equal(grad_new, grad_ref)


def test_gkd_offline_metrics_match_tape_chain(tmp_path, monkeypatch):
    graph = tmp_path / "g.json"
    save_graph(sbm_generate([15, 15], 0.4, 0.05, 6, 0.5, 0), graph)

    def run(name):
        doc = {"mode": "teacher", "complete_graph": str(graph),
               "split": {"kind": "edges", "pir": 0.5},
               "teacher": {"depth": 3, "hidden": 8}, "student": {"depth": 3, "hidden": 8},
               "kernel": {"kind": "gauss", "t": 0.5}, "distill": {"alpha": 2.0, "delta": 0.4},
               "optimizer": {"lr": 0.05, "epochs": 3}, "out_dir": str(tmp_path / name)}
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train-teacher", "--config", str(cfg)]) == 0
        doc.update(mode="gkd_offline", out_dir=str(tmp_path / name / "student"))
        doc["teacher"]["checkpoint"] = str(tmp_path / name / "teacher.json")
        cfg.write_text(json.dumps(doc))
        assert main(["distill", "--config", str(cfg)]) == 0
        return (tmp_path / name / "student" / "metrics.jsonl").read_bytes()

    fused = run("fused")
    monkeypatch.setattr(T, "gauss_kernel", ref_gauss_kernel)
    monkeypatch.setattr(T, "frobenius_sq", ref_frobenius_sq)
    assert run("tape") == fused


def test_gauss_alignment_peak_memory():
    # one full-batch layer: student kernel, alignment and both backward passes
    n = 600
    k_t = nhk_gauss(Tensor(features(n, 32, 1)), 1.0).detach()
    w = T.constant(np.random.default_rng(2).uniform(0, 1, size=(n, n)))
    h = Tensor(features(n, 32, 3), requires_grad=True)
    tracemalloc.start()
    try:
        distill_loss(k_t, nhk_gauss(h, 1.0), w).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.grad is not None
    assert peak <= 6 * n * n * 8


def old_sqdist(hv):
    # the distance forward with the explicit strided gm + gm.T
    gm = hv @ hv.T
    r = np.diag(gm).copy()
    out = r[:, None] + r[None, :]
    out -= gm + gm.T
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, 0.0)
    return out


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
