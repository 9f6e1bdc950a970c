"""Acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (run with -s to see them). The distillation-efficacy
criteria share one experimental protocol: five repetitions, each drawing its
own 4x100 block-model graph (p_in 0.1, p_out 0.01, 16 features, noise 1.0),
splitting at PIR 0.5 with the repetition seed, and training 3-layer GCNs of
hidden size 32 with Adam at lr 0.1 for 200 epochs.
"""

import json
import time

import numpy as np
import pytest

from geokd import tensor as T
from geokd.checks import gradient_suite, kernel_checks, theorem_checks
from geokd.cli import main as cli_main
from geokd.distill import (
    DistillConfig,
    InverseNhkMapper,
    inverse_nhk_gram,
    reconstruction_loss,
)
from geokd.graphs import sbm_generate, save_graph, split_edges, split_nodes
from geokd.models import accuracy, build_model, forward, init_xavier
from geokd.nhk import KernelSpec
from geokd.training import (
    Adam,
    TrainPlan,
    grid_search,
    train_student,
    train_supervised,
)

SEEDS = (0, 1, 2, 3, 4)
LR = 0.1
EPOCHS = 200
BLOCKS = [100, 100, 100, 100]
SBM = dict(p_in=0.1, p_out=0.01, feature_dim=16, noise_sigma=1.0)


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def protocol_plan(mode, seed, **kw):
    base = dict(mode=mode, epochs=EPOCHS, seed=seed, lr=LR)
    base.update(kw)
    return TrainPlan(**base)


def new_gcn():
    return build_model("gcn", 16, 32, 3, 4)


@pytest.fixture(scope="session")
def edge_protocol():
    """Per-seed complete/partial graphs, trained teacher, baseline accuracies."""
    runs = []
    for seed in SEEDS:
        g_c = sbm_generate(BLOCKS, SBM["p_in"], SBM["p_out"], SBM["feature_dim"],
                           SBM["noise_sigma"], seed)
        g = split_edges(g_c, 0.5, seed)
        teacher = new_gcn()
        res_oracle = train_supervised(g_c, teacher, protocol_plan("teacher", seed))
        logits, _ = forward(teacher, g)
        teacher_partial_test = accuracy(logits.values, g.labels, g.test_mask)
        student = new_gcn()
        res_student = train_supervised(g, student, protocol_plan("teacher", seed))
        runs.append({
            "seed": seed,
            "g_complete": g_c,
            "g_partial": g,
            "teacher": teacher,
            "oracle_test": res_oracle.best_test_acc,
            "teacher_partial_test": teacher_partial_test,
            "student_test": res_student.best_test_acc,
        })
    return runs


def _tuned_distill_means(edge_protocol, mode, space, **plan_kw):
    """Tune alpha/delta by validation on the first repetition, then evaluate."""
    first = edge_protocol[0]
    plan = protocol_plan(mode, first["seed"], **plan_kw)
    best, _ = grid_search(space, plan, first["g_partial"], first["g_complete"],
                          first["teacher"], model_builder=new_gcn)
    accs = []
    for run in edge_protocol:
        plan = protocol_plan(mode, run["seed"], **plan_kw)
        from geokd.training import apply_grid_overrides

        plan = apply_grid_overrides(plan, best)
        res = train_student(plan, run["g_partial"], run["g_complete"],
                            run["teacher"], new_gcn())
        accs.append(res.best_test_acc)
    return best, float(np.mean(accs))


# --------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_1_gradient_suite():
    tic = time.perf_counter()
    results = gradient_suite(0)
    elapsed = time.perf_counter() - tic
    worst = max(results, key=lambda r: r.deviation)
    ok = all(r.passed for r in results) and elapsed < 30.0
    _report(1, ok, f"{len(results)} gradient cases, worst {worst.deviation:.2e} "
                   f"({worst.name}), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. theorem oracles


def test_criterion_2_theorem_oracles():
    tic = time.perf_counter()
    results = []
    for seed in range(5):
        results.extend(theorem_checks(seed, n=20))
    elapsed = time.perf_counter() - tic
    ok = all(r.passed for r in results) and elapsed < 10.0
    worst = max(results, key=lambda r: r.deviation / max(r.tolerance, 1e-300))
    _report(2, ok, f"{len(results)} checks over 5 graphs, tightest margin at "
                   f"'{worst.name}' dev {worst.deviation:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. kernel identities


def test_criterion_3_kernel_identities():
    results = []
    for seed in range(5):
        results.extend(kernel_checks(seed))
    ok = all(r.passed for r in results)
    _report(3, ok, f"{len(results)} identity checks over 5 seeds")


# --------------------------------------------------------------------------
# 4. zero-weight reductions


def test_criterion_4_reductions():
    worst = 0.0
    for seed in (0, 1):
        g_c = sbm_generate([30, 30], 0.3, 0.05, 6, 0.5, seed)
        g = split_edges(g_c, 0.5, seed)
        teacher = build_model("gcn", 6, 8, 3, 2)
        train_supervised(g_c, teacher, TrainPlan(mode="teacher", epochs=40,
                                                 seed=seed, lr=0.05))
        plain = build_model("gcn", 6, 8, 3, 2)
        train_supervised(g, plain, TrainPlan(mode="teacher", epochs=40,
                                             seed=seed, lr=0.05))
        cfg = DistillConfig(alpha=0.0, alpha_kd=0.0)
        for mode in ("gkd_offline", "pgkd", "online"):
            kernel = KernelSpec(kind="parametric") if mode == "pgkd" else KernelSpec()
            plan = TrainPlan(mode=mode, epochs=40, seed=seed, lr=0.05,
                             lr_mapper=0.01, kernel=kernel, distill=cfg)
            student = build_model("gcn", 6, 8, 3, 2)
            if mode == "online":
                train_student(plan, g, g_c, build_model("gcn", 6, 8, 3, 2), student)
            else:
                train_student(plan, g, g_c, teacher, student)
            for wp, ws in zip(plain.weights, student.weights):
                worst = max(worst, float(np.max(np.abs(wp.values - ws.values))))
    _report(4, worst <= 1e-12,
            f"max weight deviation from plain training {worst:.2e} "
            f"across gkd/pgkd/online x 2 seeds")


# --------------------------------------------------------------------------
# 5. edge-aware distillation efficacy


def test_criterion_5_edge_aware_efficacy(edge_protocol):
    tic = time.perf_counter()
    space = {"alpha": [1.0, 10.0, 100.0], "delta": [0.0, 0.4]}
    best, gkd_mean = _tuned_distill_means(
        edge_protocol, "gkd_offline", space, kernel=KernelSpec(kind="gauss", t=1.0)
    )
    oracle = float(np.mean([r["oracle_test"] for r in edge_protocol]))
    teacher = float(np.mean([r["teacher_partial_test"] for r in edge_protocol]))
    student = float(np.mean([r["student_test"] for r in edge_protocol]))
    elapsed = time.perf_counter() - tic
    ok = (gkd_mean >= student + 0.01
          and oracle >= teacher >= student - 0.01
          and elapsed < 300.0)
    _report(5, ok, f"oracle {oracle:.3f} >= teacher {teacher:.3f} >= "
                   f"student-0.01 {student - 0.01:.3f}; gkd-g {gkd_mean:.3f} >= "
                   f"student+0.01 {student + 0.01:.3f} (grid pick {best}), {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 6. node-aware analog


def test_criterion_6_node_aware():
    tic = time.perf_counter()
    student_accs, gkd_accs = [], []
    for seed in SEEDS:
        g_c = sbm_generate(BLOCKS, SBM["p_in"], SBM["p_out"], SBM["feature_dim"],
                           SBM["noise_sigma"], seed)
        g, node_map = split_nodes(g_c, 0.5, seed)
        teacher = new_gcn()
        train_supervised(g_c, teacher, protocol_plan("teacher", seed))
        student = new_gcn()
        res_s = train_supervised(g, student, protocol_plan("teacher", seed))
        student_accs.append(res_s.best_test_acc)
        plan = protocol_plan("gkd_offline", seed,
                             kernel=KernelSpec(kind="gauss", t=1.0),
                             distill=DistillConfig(alpha=10.0, delta=0.4))
        res_g = train_student(plan, g, g_c, teacher, new_gcn(), node_map)
        gkd_accs.append(res_g.best_test_acc)
    student_mean = float(np.mean(student_accs))
    gkd_mean = float(np.mean(gkd_accs))
    elapsed = time.perf_counter() - tic
    ok = gkd_mean >= student_mean and elapsed < 300.0
    _report(6, ok, f"node-aware gkd {gkd_mean:.3f} >= student {student_mean:.3f}, "
                   f"{elapsed:.0f}s")


# --------------------------------------------------------------------------
# 7. parametric distillation


def test_criterion_7a_reconstruction_descent():
    g = sbm_generate([10, 10], 0.35, 0.15, 4, 0.5, 7)
    model = build_model("gcn", 4, 8, 3, 2)
    init_xavier(model, 7)
    _, trace = forward(model, g)
    h_late = T.constant(trace[2].values)
    h_early = T.constant(trace[1].values)
    mapper = InverseNhkMapper(8, 16)
    mapper.init(7)
    opt = Adam(mapper.parameters(), 0.01)
    losses = []
    for _ in range(50):
        rec = reconstruction_loss(inverse_nhk_gram(mapper, h_late), h_late, h_early)
        losses.append(rec.item())
        opt.zero_grad()
        rec.backward()
        opt.step()
    diffs = np.diff(losses)
    worst = float(diffs[1:].max()) if len(diffs) > 1 else 0.0
    ok = worst <= 1e-9
    _report("7a", ok, f"reconstruction loss {losses[0]:.2f} -> {losses[-1]:.2f} "
                      f"over 50 E-steps, worst step increase {worst:.2e}")


def test_criterion_7b_pgkd_ordering(edge_protocol):
    tic = time.perf_counter()
    space = {"alpha": [1.0, 10.0], "delta": [0.0, 0.4]}
    best, pgkd_mean = _tuned_distill_means(
        edge_protocol, "pgkd", space, lr_mapper=0.001, kernel=KernelSpec(kind="parametric")
    )
    oracle = float(np.mean([r["oracle_test"] for r in edge_protocol]))
    teacher = float(np.mean([r["teacher_partial_test"] for r in edge_protocol]))
    student = float(np.mean([r["student_test"] for r in edge_protocol]))
    elapsed = time.perf_counter() - tic
    ok = (pgkd_mean >= student + 0.01 and oracle >= teacher >= student - 0.01)
    _report("7b", ok, f"pgkd {pgkd_mean:.3f} >= student+0.01 {student + 0.01:.3f}; "
                      f"oracle {oracle:.3f} >= teacher {teacher:.3f} >= "
                      f"{student - 0.01:.3f} (grid pick {best}), {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 8. determinism


def test_criterion_8_byte_identical_reruns(tmp_path):
    graph_file = tmp_path / "g.json"
    save_graph(sbm_generate([15, 15], 0.4, 0.05, 6, 0.5, 0), graph_file)
    teacher_cfg = {
        "mode": "teacher",
        "complete_graph": str(graph_file),
        "teacher": {"kind": "gcn", "depth": 2, "hidden": 8},
        "optimizer": {"lr": 0.05, "epochs": 10},
        "seed": 0,
        "out_dir": str(tmp_path / "teacher_run"),
    }
    cfg_path = tmp_path / "teacher.json"
    cfg_path.write_text(json.dumps(teacher_cfg))
    assert cli_main(["train-teacher", "--config", str(cfg_path)]) == 0

    mismatches = []
    for out in ("run1", "run2"):
        doc = {
            "mode": "gkd_offline",
            "complete_graph": str(graph_file),
            "split": {"kind": "edges", "pir": 0.5},
            "teacher": {"kind": "gcn", "depth": 2, "hidden": 8,
                        "checkpoint": str(tmp_path / "teacher_run" / "teacher.json")},
            "student": {"kind": "gcn", "depth": 2, "hidden": 8},
            "kernel": {"kind": "gauss", "t": 1.0},
            "distill": {"alpha": 2.0, "delta": 0.4},
            "optimizer": {"lr": 0.05, "epochs": 10},
            "seed": 0,
            "out_dir": str(tmp_path / out),
        }
        p = tmp_path / f"{out}.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["distill", "--config", str(p)]) == 0
    for name in ("metrics.jsonl", "summary.json", "student.json"):
        if (tmp_path / "run1" / name).read_bytes() != (tmp_path / "run2" / name).read_bytes():
            mismatches.append(name)
    _report(8, not mismatches, f"re-run outputs byte-identical "
                               f"(mismatches: {mismatches or 'none'})")
