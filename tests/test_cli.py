import csv
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geokd import cli
from geokd.cli import RunConfig, SweepSection, main
from geokd.distill import DistillConfig
from geokd.errors import GraphParseError
from geokd.graphs import sbm_generate, save_graph
from geokd.nhk import KernelSpec
from geokd.training import TrainPlan


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "g.json"
    save_graph(sbm_generate([15, 15], 0.4, 0.05, 6, 0.5, 0), path)
    return path


def write_config(tmp_path, graph_file, **overrides):
    doc = {
        "mode": "gkd_offline",
        "complete_graph": str(graph_file),
        "split": {"kind": "edges", "pir": 0.5},
        "teacher": {"kind": "gcn", "depth": 2, "hidden": 8},
        "student": {"kind": "gcn", "depth": 2, "hidden": 8},
        "kernel": {"kind": "gauss", "t": 1.0},
        "distill": {"alpha": 2.0, "delta": 0.4},
        "optimizer": {"lr": 0.05, "epochs": 15},
        "seed": 0,
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# --------------------------------------------------------------------------
# gen-synthetic


def test_gen_synthetic_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-synthetic", "--blocks", "10,10", "--p-in", "0.5", "--p-out", "0.1",
            "--feature-dim", "4", "--noise-sigma", "0.5", "--seed", "3"]
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_synthetic_declares_counts(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("gen-synthetic", "--blocks", "100,100,100,100", "--p-in", "0.05",
                   "--p-out", "0.01", "--feature-dim", "8", "--seed", "1",
                   "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["num_nodes"] == 400


def test_gen_synthetic_zero_probability_edgeless(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("gen-synthetic", "--blocks", "5,5", "--p-in", "0", "--p-out", "0",
                   "--feature-dim", "4", "--seed", "0", "--out", out) == 0
    assert json.loads(out.read_text())["edges"] == []


@pytest.mark.parametrize("blocks", ["x,2", "3,,y", "", "0,4", "5,-1"])
def test_gen_synthetic_bad_blocks_exit_1_naming_the_flag(tmp_path, capsys, blocks):
    out = tmp_path / "g.json"
    assert run_cli("gen-synthetic", "--blocks", blocks, "--p-in", "0.5", "--p-out", "0.1",
                   "--out", out) == 1
    assert "error: --blocks: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--feature-dim", "2"), ("--p-in", "1.5"), ("--p-in", "nan"), ("--p-out", "-0.1"),
    ("--noise-sigma", "nan"), ("--noise-sigma", "-1"), ("--noise-sigma", "inf")])
def test_gen_synthetic_bad_values_exit_1_naming_the_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "g.json"
    args = {"--blocks": "4,4,4", "--p-in": "0.5", "--p-out": "0.1", "--feature-dim": "3",
            "--noise-sigma": "0.5", flag: value}
    assert run_cli("gen-synthetic", *(x for kv in args.items() for x in kv), "--out", out) == 1
    assert f"error: {flag}: " in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# train-teacher / eval


def test_train_teacher_then_eval_reproduces_metrics(tmp_path, graph_file, capsys):
    cfg = write_config(tmp_path, graph_file, mode="teacher")
    assert run_cli("train-teacher", "--config", cfg) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert run_cli("eval", "--checkpoint", out / "teacher.json",
                   "--graph", graph_file, "--out", out) == 0
    eval_doc = json.loads((out / "eval.json").read_text())
    assert eval_doc["val_acc"] == pytest.approx(summary["best_val_acc"], abs=1e-12)
    assert eval_doc["test_acc"] == pytest.approx(summary["best_test_acc"], abs=1e-12)


def test_train_teacher_rejects_non_finite_features(tmp_path, graph_file, capsys):
    doc = json.loads(graph_file.read_text())
    doc["features"][3][0] = float("nan")
    bad_graph = tmp_path / "nan.json"
    bad_graph.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, bad_graph, mode="teacher")
    assert run_cli("train-teacher", "--config", cfg) == 1
    assert "features" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.jsonl").exists()


def test_non_finite_loss_exits_2_before_any_output(tmp_path, capsys):
    graph = tmp_path / "g40.json"
    save_graph(sbm_generate([20, 20], 0.3, 0.05, 6, 0.5, 0), graph)
    cfg = write_config(tmp_path, graph, mode="teacher",
                       teacher={"kind": "gcn", "depth": 3, "hidden": 8},
                       optimizer={"lr": 1e150, "epochs": 6})
    with np.errstate(all="ignore"):
        assert run_cli("train-teacher", "--config", cfg) == 2
    assert "epoch 1: loss_pre" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_gradient_exits_2_before_any_output(tmp_path, capsys):
    # every loss stays finite, but the sigmoid slope overflows the gradient
    graph = tmp_path / "g20.json"
    save_graph(sbm_generate([10, 10], 0.4, 0.05, 4, 0.5, 0), graph)
    model = {"kind": "gcn", "depth": 2, "hidden": 4}
    cfg = write_config(tmp_path, graph, mode="teacher", teacher=model,
                       optimizer={"lr": 0.05, "epochs": 3},
                       out_dir=str(tmp_path / "teacher_run"))
    assert run_cli("train-teacher", "--config", cfg) == 0
    cfg = write_config(tmp_path, graph, student=model,
                       teacher={**model,
                                "checkpoint": str(tmp_path / "teacher_run" / "teacher.json")},
                       kernel={"kind": "sigmoid", "a": 1e308}, distill={"alpha": 1.0, "delta": 0.4},
                       optimizer={"lr": 0.05, "epochs": 3})
    with np.errstate(all="ignore"):
        assert run_cli("distill", "--config", cfg) == 2
    assert "epoch 0: gradient of student weight[0] is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_metrics_records_are_valid(tmp_path, graph_file):
    cfg = write_config(tmp_path, graph_file, mode="teacher")
    assert run_cli("train-teacher", "--config", cfg) == 0
    lines = (tmp_path / "out" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 15
    epochs = []
    for line in lines:
        rec = json.loads(line)
        assert 0.0 <= rec["val_acc"] <= 1.0
        assert "wall_ms" not in rec
        epochs.append(rec["epoch"])
    assert epochs == sorted(epochs)
    timing = json.loads((tmp_path / "out" / "timing.json").read_text())
    assert len(timing["wall_ms_per_epoch"]) == 15


# --------------------------------------------------------------------------
# distill


def make_teacher(tmp_path, graph_file):
    cfg = write_config(tmp_path, graph_file, mode="teacher",
                       out_dir=str(tmp_path / "teacher_run"))
    assert run_cli("train-teacher", "--config", cfg) == 0
    return tmp_path / "teacher_run" / "teacher.json"


def test_distill_offline_runs(tmp_path, graph_file):
    ckpt = make_teacher(tmp_path, graph_file)
    cfg = write_config(
        tmp_path, graph_file,
        teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)},
    )
    assert run_cli("distill", "--config", cfg) == 0
    out = tmp_path / "out"
    assert (out / "student.json").exists()
    assert (out / "metrics.jsonl").exists()


def test_distill_missing_checkpoint_is_validation_error(tmp_path, graph_file, capsys):
    cfg = write_config(tmp_path, graph_file)
    assert run_cli("distill", "--config", cfg) == 1
    assert "teacher.checkpoint" in capsys.readouterr().err


def test_distill_alpha_zero_matches_plain_student(tmp_path, graph_file):
    ckpt = make_teacher(tmp_path, graph_file)
    # plain student baseline: supervised training on the pre-split graph file
    partial_file = tmp_path / "partial.json"
    from geokd.graphs import load_graph, split_edges

    save_graph(split_edges(load_graph(graph_file), 0.5, 0), partial_file)
    cfg_plain = write_config(tmp_path, partial_file, mode="teacher",
                             split=None, out_dir=str(tmp_path / "plain"))
    assert run_cli("train-teacher", "--config", cfg_plain) == 0

    cfg_zero = write_config(
        tmp_path, graph_file,
        teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)},
        distill={"alpha": 0.0, "delta": 0.4},
        split={"kind": "edges", "pir": 0.5, "seed": 0},
        out_dir=str(tmp_path / "zero"),
    )
    assert run_cli("distill", "--config", cfg_zero) == 0
    plain_summary = json.loads((tmp_path / "plain" / "summary.json").read_text())
    zero_summary = json.loads((tmp_path / "zero" / "summary.json").read_text())
    assert zero_summary["best_val_acc"] == plain_summary["best_val_acc"]
    assert zero_summary["best_test_acc"] == plain_summary["best_test_acc"]


def test_distill_online_writes_both_checkpoints(tmp_path, graph_file):
    cfg = write_config(tmp_path, graph_file, mode="online",
                       optimizer={"lr": 0.05, "epochs": 8})
    assert run_cli("distill", "--config", cfg) == 0
    out = tmp_path / "out"
    assert (out / "student.json").exists()
    assert (out / "teacher_online.json").exists()


def test_distill_pgkd_runs(tmp_path, graph_file):
    ckpt = make_teacher(tmp_path, graph_file)
    cfg = write_config(
        tmp_path, graph_file, mode="pgkd", kernel={"kind": "parametric"},
        teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)},
        optimizer={"lr": 0.05, "lr_mapper": 0.01, "epochs": 6},
    )
    assert run_cli("distill", "--config", cfg) == 0
    rec = json.loads((tmp_path / "out" / "metrics.jsonl").read_text().splitlines()[0])
    assert "loss_rec" in rec


def test_wrongly_sized_checkpoint_weights_exit_1(tmp_path, graph_file, capsys):
    ckpt = make_teacher(tmp_path, graph_file)
    doc = json.loads(ckpt.read_text())
    doc["weights"][1] = doc["weights"][1][:-1]
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("eval", "--checkpoint", bad, "--graph", graph_file) == 1
    assert "weights[1]" in capsys.readouterr().err
    cfg = write_config(
        tmp_path, graph_file,
        teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(bad)},
    )
    assert run_cli("distill", "--config", cfg) == 1
    assert "weights[1]" in capsys.readouterr().err
    doc["weights"][1] = [True] + doc["weights"][1][1:]  # numpy would read true as 1.0
    for text, field in (('{"kind": "gcn", "dims": [6, "x"], "weights": []}', "dims"),
                        ('{"kind": "gcn", "dims": [6, 8, 2], "weights": 5}', "weights"),
                        ('{"kind": ["gcn"], "dims": [6, 8, 2], "weights": []}', "kind"),
                        (json.dumps(doc), "weights[1]"),
                        ("not json", "checkpoint")):
        bad.write_text(text)
        assert run_cli("eval", "--checkpoint", bad, "--graph", graph_file) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("dims", [[6, 0, 2], [6, 2.5, 2], [6, True, 2], [6, -3, 2], "6,8,2"])
def test_checkpoint_dims_not_positive_integers_exit_1_naming_dims(tmp_path, graph_file, capsys,
                                                                  dims):
    ckpt = make_teacher(tmp_path, graph_file)
    doc = json.loads(ckpt.read_text())
    doc["dims"] = dims
    bad = tmp_path / "dims.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("eval", "--checkpoint", bad, "--graph", graph_file) == 1
    assert capsys.readouterr().err.startswith("error: dims: ")
    cfg = write_config(
        tmp_path, graph_file,
        teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(bad)},
    )
    assert run_cli("distill", "--config", cfg) == 1
    assert capsys.readouterr().err.startswith("error: dims: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [
    ("edges", [[0.7, 1], [2, 3.9]]),
    ("edges", [[0, 1], [2, "3"]]),
    ("masks.train", [0, 1.5]),
    ("masks.test", [2.0]),
    ("labels", [0, 1.6] + [0] * 28),
    ("num_nodes", 29.9),
    ("num_nodes", True),
    ("masks.train", 3),  # numpy would read it as the one-node mask [3]
    ("features", [[0.5] * 6] * 29 + [[0.5] * 5]),  # ragged rows
    ("features", [[0.5] * 6] * 29 + [["x"] + [0.5] * 5]),
    ("features", [[0.5] * 6] * 29 + [["0.5"] + [0.5] * 5]),  # numpy would convert it
])
def test_graph_with_non_integer_ids_exits_1_naming_the_field(tmp_path, graph_file, capsys,
                                                             field, value):
    assert_bad_graph_exits_1_naming(tmp_path, graph_file, capsys, field, value)


@pytest.mark.parametrize("edges", [
    [[0, 1, 2], [3, 4, 5]],  # numpy would regroup these ids as three pairs
    [0, 1, 2, 3],            # and these as two
    [[0, 1], [2]],           # ragged rows
    [[[0, 1]]],
])
def test_graph_whose_edges_are_not_pairs_exits_1_naming_edges(tmp_path, graph_file, capsys,
                                                              edges):
    assert_bad_graph_exits_1_naming(tmp_path, graph_file, capsys, "edges", edges)


@pytest.mark.parametrize("field", ["edges", "labels", "masks.train", "masks.val", "masks.test",
                                   "features"])
def test_graph_with_a_json_boolean_exits_1_naming_the_field(tmp_path, graph_file, capsys,
                                                            field):
    # numpy reads true as 1, which would pass for an id or a feature
    doc = json.loads(graph_file.read_text())
    value = doc["masks"][field[6:]] if field.startswith("masks.") else doc[field]
    row = value[0] if isinstance(value[0], list) else value
    row[0] = True
    assert_bad_graph_exits_1_naming(tmp_path, graph_file, capsys, field, value)


def assert_bad_graph_exits_1_naming(tmp_path, graph_file, capsys, field, value):
    doc = json.loads(graph_file.read_text())
    if field.startswith("masks."):
        doc["masks"][field.split(".")[1]] = value
    else:
        doc[field] = value
    bad = tmp_path / "bad_graph.json"
    bad.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, bad, mode="teacher")
    assert run_cli("train-teacher", "--config", cfg) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, bad", [
    ("edges", lambda doc: [[0, doc["num_nodes"]]]),
    ("edges", lambda doc: [[4, 4]]),
    ("labels", lambda doc: doc["labels"][:-1]),
    ("masks.val", lambda doc: doc["masks"]["val"] + doc["masks"]["train"][:1]),
    ("masks.test", lambda doc: [doc["num_nodes"] + 3]),
    ("masks.train", lambda doc: doc["masks"]["train"] + doc["masks"]["train"][:1]),
    ("features", lambda doc: doc["features"][:-1]),
])
def test_graph_with_a_structural_error_exits_1_naming_the_field(tmp_path, graph_file, capsys,
                                                                field, bad):
    doc = json.loads(graph_file.read_text())
    assert_bad_graph_exits_1_naming(tmp_path, graph_file, capsys, field, bad(doc))
    ckpt = make_teacher(tmp_path, graph_file)
    assert run_cli("eval", "--checkpoint", ckpt, "--graph", tmp_path / "bad_graph.json") == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_missing_file_exits_1_naming_its_flag(tmp_path, graph_file, capsys):
    ckpt, missing = make_teacher(tmp_path, graph_file), tmp_path / "missing.json"
    for argv, name in ((("eval", "--checkpoint", ckpt, "--graph", missing), "--graph"),
                       (("eval", "--checkpoint", missing, "--graph", graph_file), "checkpoint"),
                       (("train-teacher", "--config", missing), "--config"),
                       (("distill", "--config", missing), "--config"),
                       (("sweep-pir", "--config", missing), "--config")):
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: {name}: file not found: {missing}\n"


def test_non_finite_checkpoint_weights_exit_1(tmp_path, graph_file, capsys):
    ckpt = make_teacher(tmp_path, graph_file)
    doc = json.loads(ckpt.read_text())
    last = len(doc["weights"]) - 1
    bad = tmp_path / "nan.json"
    cfg = write_config(
        tmp_path, graph_file,
        teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(bad)},
    )
    doc["weights"][0][0] = float("nan")
    doc["weights"][last][-1] = float("inf")
    for field in ("weights[0]", f"weights[{last}]"):
        bad.write_text(json.dumps(doc))  # NaN and Infinity, as json.load accepts them
        assert run_cli("eval", "--checkpoint", bad, "--graph", graph_file) == 1
        assert field in capsys.readouterr().err
        assert run_cli("distill", "--config", cfg) == 1
        assert field in capsys.readouterr().err
        doc["weights"][0][0] = 0.0


def test_node_split_without_training_nodes_exit_1(tmp_path, graph_file, capsys):
    ckpt = make_teacher(tmp_path, graph_file)
    cfg = write_config(
        tmp_path, graph_file, mode="pgkd", kernel={"kind": "parametric"},
        teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)},
        split={"kind": "nodes", "pir": 1.0},
    )
    assert run_cli("distill", "--config", cfg) == 1
    assert "split.pir" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.jsonl").exists()


def graph_without(tmp_path, graph_file, mask):
    doc = json.loads(graph_file.read_text())
    doc["masks"][mask] = []
    path = tmp_path / f"no_{mask}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("mask,name", [("val", "validation"), ("test", "test")])
def test_graph_without_validation_or_test_nodes_exit_1(tmp_path, graph_file, capsys,
                                                       mask, name):
    cfg = write_config(tmp_path, graph_without(tmp_path, graph_file, mask))
    assert run_cli("train-teacher", "--config", cfg) == 1
    assert f"error: graph has no {name} nodes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_node_split_without_validation_nodes_exit_1(tmp_path, graph_file, capsys):
    ckpt = make_teacher(tmp_path, graph_file)
    cfg = write_config(
        tmp_path, graph_without(tmp_path, graph_file, "val"),
        teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)},
        split={"kind": "nodes", "pir": 0.5},
    )
    assert run_cli("distill", "--config", cfg) == 1
    assert "error: split.pir: 0.5 leaves the student no validation nodes" in \
        capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.jsonl").exists()


SGC = {"kind": "sgc", "depth": 2, "hidden": 8}
NO_HIDDEN_ENTRY = [  # (command, mode, kernel kind, student): no aligned entry holds a weight
    ("distill", "gkd_offline", "gauss", SGC),
    ("distill", "online", "randomized", SGC),
    ("distill", "compression", "sigmoid", SGC),
    ("distill", "pgkd", "parametric", SGC),
    ("distill", "gkd_offline", "gauss", {"kind": "gcn", "depth": 1, "hidden": 8}),
    ("sweep-pir", "gkd_offline", "gauss", SGC),
    ("sweep-pir", "teacher", "gauss", SGC),  # the sweep distills by gkd_offline
]


@pytest.mark.parametrize("command,mode,kernel,student", NO_HIDDEN_ENTRY,
                         ids=[f"{c}-{m}-{s['kind']}{s['depth']}" for c, m, _, s in NO_HIDDEN_ENTRY])
def test_alignment_of_a_student_without_hidden_entries_exits_1_before_any_read(
        tmp_path, graph_file, capsys, monkeypatch, command, mode, kernel, student):
    monkeypatch.setattr(cli, "load_graph", lambda path: pytest.fail(f"read {path}"))
    cfg = write_config(tmp_path, graph_file, mode=mode, kernel={"kind": kernel},
                       student=student, sweep={"pirs": [0.5], "seeds": [0]},
                       teacher={"kind": "gcn", "depth": 2, "hidden": 8,
                                "checkpoint": str(tmp_path / "unread.json")})
    assert run_cli(command, "--config", cfg) == 1
    assert "error: distill.alpha: needs a gcn of depth >= 2, got " \
        f"{student['kind']} of depth {student['depth']}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sgc_student_trains_on_soft_labels_at_alpha_zero(tmp_path, graph_file):
    ckpt = make_teacher(tmp_path, graph_file)
    cfg = write_config(tmp_path, graph_file, student=SGC,
                       teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)},
                       distill={"alpha": 0.0, "alpha_kd": 0.5})
    assert run_cli("distill", "--config", cfg) == 0
    assert (tmp_path / "out" / "student.json").exists()


@pytest.mark.parametrize("name", ["teacher", "student"])
def test_pgkd_depth_one_gcn_exits_1_naming_its_depth(tmp_path, graph_file, capsys, name):
    models = {"teacher": {"kind": "gcn", "depth": 2, "hidden": 8,
                          "checkpoint": str(tmp_path / "unread.json")},
              "student": {"kind": "gcn", "depth": 2, "hidden": 8}}
    models[name]["depth"] = 1
    cfg = write_config(tmp_path, graph_file, mode="pgkd", kernel={"kind": "parametric"},
                       distill={"alpha": 0.0}, **models)
    assert run_cli("distill", "--config", cfg) == 1
    assert f"error: {name}.depth: needs a gcn of depth >= 2, got gcn of depth 1" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,mode,aligned", [
    ("distill", "online", "online"), ("distill", "gkd_offline", "gkd_offline"),
    ("distill", "self_distill", "self_distill"),
    ("sweep-pir", "teacher", "gkd_offline"),  # the sweep distills by gkd_offline
])
def test_depths_that_differ_exit_1_naming_the_student_before_any_read(
        tmp_path, graph_file, capsys, monkeypatch, command, mode, aligned):
    # gkd aligns the teacher's trace entry l with the student's entry l
    monkeypatch.setattr(cli, "load_graph", lambda path: pytest.fail(f"read {path}"))
    cfg = write_config(tmp_path, graph_file, mode=mode, sweep={"pirs": [0.5], "seeds": [0]},
                       teacher={"kind": "gcn", "depth": 3, "hidden": 8,
                                "checkpoint": str(tmp_path / "unread.json")},
                       student={"kind": "gcn", "depth": 2, "hidden": 8})
    assert run_cli(command, "--config", cfg) == 1
    assert f"error: student.depth: mode '{aligned}' aligns trace entries one to one: " \
        "teacher.depth is 3, got 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["distill", "sweep-pir"])
def test_online_teacher_checkpoint_exits_1_before_any_read(tmp_path, graph_file, capsys,
                                                           monkeypatch, command):
    # online trains its teacher from scratch: a checkpoint would go unread
    monkeypatch.setattr(cli, "load_graph", lambda path: pytest.fail(f"read {path}"))
    cfg = write_config(tmp_path, graph_file, mode="online", sweep={"pirs": [0.5], "seeds": [0]},
                       teacher={"kind": "gcn", "depth": 2, "hidden": 8,
                                "checkpoint": str(tmp_path / "missing.json")})
    assert run_cli(command, "--config", cfg) == 1
    assert "error: teacher.checkpoint: mode 'online' trains its teacher from scratch" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["gkd_offline", "teacher"])
@pytest.mark.parametrize("key", ["teacher.checkpoint", "partial_graph"])
def test_sweep_pir_file_it_does_not_read_exits_1_before_any_read(tmp_path, graph_file, capsys,
                                                                 monkeypatch, mode, key):
    # the sweep trains a teacher per seed and splits complete_graph itself
    monkeypatch.setattr(cli, "load_graph", lambda path: pytest.fail(f"read {path}"))
    overrides = ({"partial_graph": str(graph_file)} if key == "partial_graph" else
                 {"teacher": {"kind": "gcn", "depth": 2, "hidden": 8,
                              "checkpoint": str(tmp_path / "unread.json")}})
    cfg = write_config(tmp_path, graph_file, mode=mode, sweep={"pirs": [0.5], "seeds": [0]},
                       **overrides)
    assert run_cli("sweep-pir", "--config", cfg) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["self_distill", "compression"])
def test_sweep_pir_refuses_a_mode_that_trains_on_the_complete_graph(tmp_path, graph_file, capsys,
                                                                    monkeypatch, mode):
    # its students would train on the split graph, which these modes never read
    monkeypatch.setattr(cli, "load_graph", lambda path: pytest.fail(f"read {path}"))
    cfg = write_config(tmp_path, graph_file, mode=mode, split=None,
                       sweep={"pirs": [0.5], "seeds": [0]})
    assert run_cli("sweep-pir", "--config", cfg) == 1
    err = capsys.readouterr().err
    assert err == f"error: mode: mode '{mode}' trains on complete_graph, unsplit\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["gkd_offline", "pgkd"])
@pytest.mark.parametrize("field,teacher", [
    ("kind", {"kind": "sgc", "depth": 2, "hidden": 8}),
    ("depth", {"kind": "gcn", "depth": 3, "hidden": 8}),
    ("hidden", {"kind": "gcn", "depth": 2, "hidden": 16}),
])
def test_teacher_section_unlike_its_checkpoint_exits_1_naming_the_field(
        tmp_path, graph_file, capsys, mode, field, teacher):
    ckpt = make_teacher(tmp_path, graph_file)  # a gcn of depth 2 and width 8
    cfg = write_config(tmp_path, graph_file, mode=mode,
                       kernel={"kind": "parametric" if mode == "pgkd" else "gauss"},
                       teacher={**teacher, "checkpoint": str(ckpt)},
                       student={"kind": "gcn", "depth": teacher["depth"], "hidden": 8})
    assert run_cli("distill", "--config", cfg) == 1
    want = {"kind": "'gcn', the section's 'sgc'", "depth": "2, the section's 3",
            "hidden": "8, the section's 16"}[field]
    assert f"error: teacher.{field}: the checkpoint's is {want}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def graph_of(tmp_path, name, blocks, feature_dim):
    path = tmp_path / name
    save_graph(sbm_generate(blocks, 0.4, 0.05, feature_dim, 0.5, 0), path)
    return path


def test_eval_of_a_checkpoint_of_other_width_exits_1_naming_checkpoint(tmp_path, graph_file,
                                                                       capsys):
    ckpt = make_teacher(tmp_path, graph_file)  # 6 features wide
    capsys.readouterr()
    wide = graph_of(tmp_path, "wide.json", [15, 15], 9)
    assert run_cli("eval", "--checkpoint", ckpt, "--graph", wide) == 1
    assert capsys.readouterr().err == ("error: checkpoint: input width 6, but the graph's "
                                       "feature width is 9\n")


@pytest.mark.parametrize("blocks", [[8, 8, 8, 8], [30]])
def test_eval_of_a_checkpoint_narrower_than_the_classes_exits_1_naming_checkpoint(
        tmp_path, graph_file, capsys, blocks):
    ckpt = make_teacher(tmp_path, graph_file)  # two classes
    capsys.readouterr()
    graph = graph_of(tmp_path, "other.json", blocks, 6)
    if len(blocks) == 1:  # a wider output may meet a graph that labels fewer classes
        assert run_cli("eval", "--checkpoint", ckpt, "--graph", graph) == 0
        return
    assert run_cli("eval", "--checkpoint", ckpt, "--graph", graph) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: checkpoint: output width 2, but the graph's class count is 4\n"
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["gkd_offline", "pgkd", "self_distill"])
def test_distill_from_a_teacher_of_other_input_width_exits_1_before_training(
        tmp_path, graph_file, capsys, mode):
    ckpt = make_teacher(tmp_path, graph_file)
    capsys.readouterr()
    cfg = write_config(tmp_path, graph_of(tmp_path, "wide.json", [15, 15], 9), mode=mode,
                       kernel={"kind": "parametric" if mode == "pgkd" else "gauss"},
                       teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)},
                       **({"split": None} if mode == "self_distill" else {}))
    assert run_cli("distill", "--config", cfg) == 1
    assert capsys.readouterr().err == ("error: teacher.checkpoint: input width 6, but the "
                                       "graph's feature width is 9\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha_kd", [0.0, 0.5])
def test_teacher_output_width_is_checked_where_soft_labels_read_it(tmp_path, graph_file, capsys,
                                                                   alpha_kd):
    ckpt = make_teacher(tmp_path, graph_file)  # two classes
    capsys.readouterr()
    cfg = write_config(tmp_path, graph_of(tmp_path, "three.json", [10, 10, 10], 6),
                       teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)},
                       distill={"alpha": 2.0, "delta": 0.4, "alpha_kd": alpha_kd},
                       optimizer={"lr": 0.05, "epochs": 2})
    if alpha_kd == 0.0:  # the alignment reads no logits' width
        assert run_cli("distill", "--config", cfg) == 0
        return
    assert run_cli("distill", "--config", cfg) == 1
    assert capsys.readouterr().err == ("error: teacher.checkpoint: output width 2, but the "
                                       "graph's class count is 3\n")
    assert not (tmp_path / "out").exists()


def test_partial_graph_with_other_features_exits_1(tmp_path, graph_file, capsys):
    ckpt = make_teacher(tmp_path, graph_file)
    doc = json.loads(graph_file.read_text())
    doc["features"][4][1] += 0.5
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, graph_file, split=None, partial_graph=str(partial),
                       teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)})
    assert run_cli("distill", "--config", cfg) == 1
    assert "error: partial_graph: features differ from complete_graph's" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    partial.write_text(graph_file.read_text())  # the same features run
    assert run_cli("distill", "--config", cfg) == 0


@pytest.mark.parametrize("mode", ["self_distill", "compression"])
@pytest.mark.parametrize("key", ["split", "partial_graph"])
def test_complete_graph_mode_with_a_partial_view_exits_1_before_any_read(
        tmp_path, graph_file, capsys, monkeypatch, mode, key):
    # these modes train the student on complete_graph: a split or file would go unread
    monkeypatch.setattr(cli, "load_graph", lambda path: pytest.fail(f"read {path}"))
    view = {"split": None, "partial_graph": str(graph_file)} if key == "partial_graph" else {}
    cfg = write_config(tmp_path, graph_file, mode=mode, **view)
    assert run_cli("distill", "--config", cfg) == 1
    assert f"error: {key}: mode '{mode}' trains its student on complete_graph" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------------------
# paths of the wrong kind: each refused naming its field, before any training


@pytest.fixture
def wrong_kind(tmp_path, graph_file, monkeypatch):
    """A directory and a file to misuse, with training made to fail the test."""
    for name in ("train_supervised", "train_student"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("trained"))
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    return tmp_path / "adir", tmp_path / "afile"


def assert_refused(capsys, argv, field):
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("case,field", [
    ("config_dir", "--config"), ("complete_dir", "complete_graph"),
    ("out_file", "out_dir"), ("out_under_file", "out_dir"), ("flag_out_file", "--out")])
def test_train_teacher_refuses_a_path_of_the_wrong_kind(tmp_path, graph_file, capsys,
                                                         wrong_kind, case, field):
    adir, afile = wrong_kind
    cfg = write_config(tmp_path, graph_file, mode="teacher", **{
        "complete_dir": {"complete_graph": str(adir)}, "out_file": {"out_dir": str(afile)},
        "out_under_file": {"out_dir": str(afile / "run")}}.get(case, {}))
    argv = ["train-teacher", "--config", adir if case == "config_dir" else cfg]
    assert_refused(capsys, argv + (["--out", afile] if case == "flag_out_file" else []), field)


@pytest.mark.parametrize("field", ["partial_graph", "teacher.checkpoint", "out_dir"])
def test_distill_refuses_a_path_of_the_wrong_kind(tmp_path, graph_file, capsys, wrong_kind,
                                                  field):
    adir, afile = wrong_kind
    teacher = {"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(graph_file)}
    cfg = write_config(tmp_path, graph_file, **{"teacher": teacher, **{
        "partial_graph": {"partial_graph": str(adir), "split": None},
        "teacher.checkpoint": {"teacher": {**teacher, "checkpoint": str(adir)}},
        "out_dir": {"out_dir": str(afile)}}[field]})
    assert_refused(capsys, ["distill", "--config", cfg], field)


def test_eval_refuses_a_path_of_the_wrong_kind(tmp_path, graph_file, capsys, wrong_kind):
    adir, afile = wrong_kind
    ckpt = graph_file  # a file, refused or not before anything reads it
    assert_refused(capsys, ["eval", "--checkpoint", adir, "--graph", graph_file], "checkpoint")
    assert_refused(capsys, ["eval", "--checkpoint", ckpt, "--graph", adir], "--graph")
    assert_refused(capsys, ["eval", "--checkpoint", ckpt, "--graph", graph_file,
                            "--out", afile / "run"], "--out")


def test_sweep_pir_refuses_a_path_of_the_wrong_kind(tmp_path, graph_file, capsys, wrong_kind):
    adir, afile = wrong_kind
    assert_refused(capsys, ["sweep-pir", "--config", adir], "--config")
    cfg = write_config(tmp_path, graph_file, out_dir=str(afile),
                       sweep={"pirs": [0.5], "seeds": [0]})
    assert_refused(capsys, ["sweep-pir", "--config", cfg], "out_dir")


@pytest.mark.parametrize("out", ["afile/g.json", "adir"])
def test_gen_synthetic_refuses_an_out_of_the_wrong_kind(tmp_path, capsys, wrong_kind, out):
    assert_refused(capsys, ["gen-synthetic", "--blocks", "4,4", "--p-in", "0.5", "--p-out",
                            "0.1", "--out", tmp_path / out], "--out")


# --------------------------------------------------------------------------
# determinism (config -> bytes)


def test_rerun_produces_byte_identical_outputs(tmp_path, graph_file):
    ckpt = make_teacher(tmp_path, graph_file)
    for out in ("run1", "run2"):
        cfg = write_config(
            tmp_path, graph_file,
            teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)},
            out_dir=str(tmp_path / out),
        )
        assert run_cli("distill", "--config", cfg) == 0
    for name in ("metrics.jsonl", "summary.json", "student.json"):
        assert (tmp_path / "run1" / name).read_bytes() == \
            (tmp_path / "run2" / name).read_bytes()


# --------------------------------------------------------------------------
# sweep


def test_sweep_pir_tables(tmp_path, graph_file):
    cfg = write_config(
        tmp_path, graph_file,
        sweep={"pirs": [0.0, 0.5], "seeds": [0, 1]},
        optimizer={"lr": 0.05, "epochs": 6},
        teacher={"kind": "gcn", "depth": 2, "hidden": 8},
    )
    assert run_cli("sweep-pir", "--config", cfg) == 0
    out = tmp_path / "out"
    with open(out / "results.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2 * 2 * 4  # pirs x seeds x methods
    assert set(r["method"] for r in rows) == {"oracle", "teacher", "student", "gkd_offline"}
    with open(out / "summary.csv") as f:
        agg = list(csv.DictReader(f))
    assert len(agg) == 2 * 4  # pirs x methods
    # oracle metrics identical across pir values
    oracle = [r for r in agg if r["method"] == "oracle"]
    assert oracle[0]["mean_test_acc"] == oracle[1]["mean_test_acc"]


def test_sweep_teacher_rows_do_not_depend_on_the_method(tmp_path, graph_file):
    # online trains a teacher of its own, so every pir's teacher row still
    # scores the supervised teacher the other methods distill
    rows = {}
    for mode in ("gkd_offline", "online"):
        cfg = write_config(tmp_path, graph_file, mode=mode, out_dir=str(tmp_path / mode),
                           sweep={"pirs": [0.0, 0.5, 0.9], "seeds": [0]},
                           optimizer={"lr": 0.05, "epochs": 6})
        assert run_cli("sweep-pir", "--config", cfg) == 0
        with open(tmp_path / mode / "results.csv") as f:
            rows[mode] = [r for r in csv.DictReader(f) if r["method"] in ("oracle", "teacher")]
    assert len(rows["online"]) == 3 * 2
    assert rows["online"] == rows["gkd_offline"]


@pytest.mark.parametrize("sweep,argv,field", [
    ({"pirs": [0.5], "seeds": ["x"]}, [], "sweep.seeds[0]"),
    ({"pirs": "0.5", "seeds": [0]}, [], "sweep.pirs"),
    ({"pirs": "0", "seeds": [0]}, [], "sweep.pirs"),
    ({"pirs": [0.5, 1.5], "seeds": [0]}, [], "sweep.pirs"),
    ({"pirs": [], "seeds": [0]}, [], "sweep.pirs"),
    ({"pirs": [0.5], "seeds": [0]}, ["--pirs", "a,b"], "--pirs"),
    ({"pirs": [0.5], "seeds": [0]}, ["--pirs", "0.5,2"], "--pirs"),
    # a repeat would write its summary rows twice and count them twice in each mean
    ({"pirs": [0.25, 0.5, 0.5], "seeds": [0]}, [], "sweep.pirs[2]"),
    ({"pirs": [0.5], "seeds": [0, 1, 0]}, [], "sweep.seeds[2]"),
    ({"pirs": [0.5], "seeds": [0]}, ["--pirs", "0.5,0.25,0.5"], "--pirs"),
])
def test_sweep_config_errors_exit_1_naming_the_field(tmp_path, graph_file, capsys,
                                                     sweep, argv, field):
    cfg = write_config(tmp_path, graph_file, sweep=sweep)
    assert run_cli("sweep-pir", "--config", cfg, *argv) == 1
    assert f"error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_checks_its_distillation_kernel_before_training(tmp_path, graph_file, capsys,
                                                              monkeypatch):
    # a teacher-mode config sweeps gkd_offline, which aligns no parametric kernel
    monkeypatch.setattr(cli, "train_supervised", lambda *args: pytest.fail("trained first"))
    cfg = write_config(tmp_path, graph_file, mode="teacher", kernel={"kind": "parametric"},
                       sweep={"pirs": [0.5], "seeds": [0]})
    assert run_cli("sweep-pir", "--config", cfg) == 1
    assert "error: kernel.kind: mode 'gkd_offline'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_section_defaults_live_in_the_dataclass(tmp_path, graph_file):
    sweep = RunConfig.from_file(write_config(tmp_path, graph_file)).sweep
    assert sweep == SweepSection()
    assert (sweep.pirs, sweep.seeds, sweep.split_kind) == ([0.0, 0.25, 0.5, 0.75],
                                                           [0, 1, 2, 3, 4], None)
    parsed = RunConfig.from_file(write_config(
        tmp_path, graph_file, sweep={"pirs": [0, 1], "seeds": [3], "split_kind": "nodes"})).sweep
    assert parsed == SweepSection([0.0, 1.0], [3], "nodes")
    assert all(isinstance(p, float) for p in parsed.pirs)


# --------------------------------------------------------------------------
# validation commands


def test_validate_kernels_passes(capsys):
    assert run_cli("validate-kernels", "--seeds", "2", "--nodes", "12") == 0
    out = capsys.readouterr().out
    assert "semigroup" in out and "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("argv,flag", [(["--seeds", "0"], "--seeds"),
                                       (["--seeds", "-2"], "--seeds"),
                                       (["--nodes", "1"], "--nodes"),
                                       (["--nodes", "-5"], "--nodes")])
def test_validate_kernels_bad_counts_exit_1_naming_the_flag(capsys, argv, flag):
    assert run_cli("validate-kernels", *argv) == 1
    captured = capsys.readouterr()
    assert f"error: {flag}: " in captured.err
    assert captured.out == ""


def test_validate_kernels_smallest_graph_passes(capsys):
    assert run_cli("validate-kernels", "--seeds", "1", "--nodes", "2") == 0
    assert "FAIL" not in capsys.readouterr().out


def test_validate_kernels_refuses_nodes_over_the_budget_before_allocating(
        capsys, monkeypatch):
    from geokd import checks

    def unreachable(*args, **kwargs):
        raise AssertionError("the graph was built before the budget check")

    monkeypatch.setattr(checks, "sbm_generate", unreachable)
    n = 10_000
    assert checks.theorem_bytes(n) > checks.ORACLE_BUDGET
    assert run_cli("validate-kernels", "--seeds", "1", "--nodes", n) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --nodes: ")
    assert f"{checks.theorem_bytes(n):,} bytes" in captured.err
    assert captured.out == ""


def test_oracle_prediction_bounds_the_measured_peak():
    import tracemalloc

    from geokd import checks

    # the default --nodes 20 and the 800 that ROADMAP times fit the budget
    assert checks.theorem_bytes(800) <= checks.ORACLE_BUDGET
    tracemalloc.start()
    try:
        checks.theorem_checks(0, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= checks.theorem_bytes(200)


def test_sweep_pir_has_no_seed_flag(tmp_path, graph_file, capsys):
    # every sweep run takes its seed from sweep.seeds, so --seed is refused
    cfg = write_config(tmp_path, graph_file, sweep={"pirs": [0.5], "seeds": [0]})
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep-pir", "--config", cfg, "--seed", "3")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gradcheck_passes():
    assert run_cli("gradcheck") == 0


def test_injected_fault_fails_symmetry_check():
    from geokd.checks import CheckResult
    from geokd.cli import _print_checks

    skewed = CheckResult("heat kernel symmetry", 0.5, 1e-10)
    assert _print_checks([skewed]) == 2


# --------------------------------------------------------------------------
# config validation names fields


def test_config_reports_missing_graph(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mode": "teacher"}))
    with pytest.raises(GraphParseError) as exc:
        RunConfig.from_file(path)
    assert "complete_graph" in str(exc.value)


def test_config_reports_bad_mode(tmp_path, graph_file):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mode": "bogus", "complete_graph": str(graph_file)}))
    with pytest.raises(GraphParseError) as exc:
        RunConfig.from_file(path)
    assert "mode" in str(exc.value)


def test_config_reports_bad_split_field(tmp_path, graph_file):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "mode": "teacher",
        "complete_graph": str(graph_file),
        "split": {"kind": "edges", "pir": 1.5},
    }))
    with pytest.raises(GraphParseError) as exc:
        RunConfig.from_file(path)
    assert "split.pir" in str(exc.value)


def test_config_reports_bad_kernel(tmp_path, graph_file):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "mode": "teacher",
        "complete_graph": str(graph_file),
        "kernel": {"kind": "gauss", "t": -1.0},
    }))
    with pytest.raises(GraphParseError) as exc:
        RunConfig.from_file(path)
    assert "kernel" in str(exc.value)


@pytest.mark.parametrize("s", [0, -2])
@pytest.mark.parametrize("mode,kind", [("gkd_offline", "randomized"), ("pgkd", "parametric")])
def test_kernel_width_below_one_exits_1_naming_it(tmp_path, graph_file, capsys, mode, kind, s):
    ckpt = make_teacher(tmp_path, graph_file)
    cfg = write_config(tmp_path, graph_file, mode=mode, kernel={"kind": kind, "s": s},
                       teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)})
    assert run_cli("distill", "--config", cfg) == 1
    assert f"error: kernel.s: expected an integer >= 1, got {s}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode,kernel,distill,field", [
    ("gkd_offline", {"kind": "parametric"}, {}, "kernel.kind"),
    ("self_distill", {"kind": "parametric", "s": 4}, {}, "kernel.kind"),
    ("pgkd", {"kind": "gauss", "t": 0.5}, {}, "kernel.kind"),
    ("pgkd", {"kind": "sigmoid"}, {}, "kernel.kind"),
    ("pgkd", {"kind": "parametric"}, {"batch_size": 8}, "distill.batch_size"),
])
def test_kernel_a_mode_does_not_align_exits_1_at_parse_time(tmp_path, graph_file, capsys,
                                                            mode, kernel, distill, field):
    # the checkpoint does not exist: the config is refused before it is read
    cfg = write_config(tmp_path, graph_file, mode=mode, kernel=kernel, distill=distill,
                       teacher={"kind": "gcn", "depth": 2, "hidden": 8,
                                "checkpoint": str(tmp_path / "missing.json")})
    assert run_cli("distill", "--config", cfg) == 1
    assert f"error: {field}: mode '{mode}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key", [("kernel", "tt"), ("distill", "alhpa"),
                                         ("distill", "layer_span"),
                                         ("optimizer", "learning_rate")])
def test_unknown_config_key_exits_1_naming_it(tmp_path, graph_file, capsys, section, key):
    doc = json.loads(write_config(tmp_path, graph_file).read_text())
    doc[section][key] = 1
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert run_cli("distill", "--config", path) == 1
    assert f"{section}.{key}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,section,key", [
    ("distill", None, "optimiser"), ("distill", "teacher", "hiden"),
    ("distill", "student", "hiden"), ("distill", "split", "sed"),
    ("sweep-pir", "sweep", "seed"),
])
def test_unknown_key_in_any_section_exits_1_naming_it(tmp_path, graph_file, capsys,
                                                      command, section, key):
    doc = json.loads(write_config(tmp_path, graph_file,
                                  sweep={"pirs": [0.5], "seeds": [0]}).read_text())
    (doc if section is None else doc[section])[key] = {"epochs": 5}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert run_cli(command, "--config", path) == 1
    name = key if section is None else f"{section}.{key}"
    assert f"error: {name}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_VALUES = [
    ({"optimizer": {"epochs": True}}, "optimizer.epochs: expected int, got bool"),
    ({"split": {"kind": "edges", "pir": True}}, "split.pir: expected float, got bool"),
    ({"distill": {"batch_size": True}}, "distill.batch_size: expected int, got bool"),
    ({"seed": True}, "seed: expected int, got bool"),
    ({"sweep": {"pirs": [True]}}, "sweep.pirs[0]: expected float, got bool"),
    ({"teacher": {"hidden": 0}}, "teacher.hidden: expected an integer >= 1, got 0"),
    ({"student": {"kind": "gcn", "hidden": -3}}, "student.hidden: expected an integer >= 1"),
    ({"student": {"depth": 0}}, "student.depth: expected an integer >= 1, got 0"),
    ({"split": {"pir": 0.5}}, "split.kind: missing required field"),
    ({"student": {"kind": "gcn", "depth": 2, "hidden": 8,
                  "checkpoint": "student.json"}},  # no command reads it
     "student.checkpoint: no command reads a student checkpoint"),
]


@pytest.mark.parametrize("overrides,message", BAD_VALUES,
                         ids=[message.split(":")[0] for _, message in BAD_VALUES])
def test_bad_config_value_exits_1_naming_the_field(tmp_path, graph_file, capsys,
                                                   overrides, message):
    cfg = write_config(tmp_path, graph_file, **overrides)
    assert run_cli("distill", "--config", cfg) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_NUMBERS = {  # json.dumps writes nan and inf as NaN and Infinity, which json.load reads
    "lr_negative": ({"optimizer": {"lr": -0.5}}, "optimizer.lr: expected a number > 0, got -0.5"),
    "lr_nan": ({"optimizer": {"lr": float("nan")}}, "optimizer.lr: expected a finite number"),
    "lr_beyond_float": ({"optimizer": {"lr": 10 ** 400}},
                        "optimizer.lr: expected a finite number, got inf"),
    "lr_mapper_zero": ({"optimizer": {"lr_mapper": 0}},
                       "optimizer.lr_mapper: expected a number > 0, got 0.0"),
    "kernel_t_nan": ({"kernel": {"kind": "gauss", "t": float("nan")}},
                     "kernel.t: expected a finite number, got nan"),
    "alpha_inf": ({"distill": {"alpha": float("inf")}},
                  "distill.alpha: expected a finite number, got inf"),
    "delta_nan": ({"distill": {"delta": float("nan")}}, "distill.delta: expected a finite number"),
    "tau_kd_nan": ({"distill": {"tau_kd": float("nan")}},
                   "distill.tau_kd: expected a finite number"),
    "split_empty": ({"split": {}}, "split.kind: missing required field"),
    "patience_negative": ({"optimizer": {"patience": -3}},
                          "optimizer.patience: expected an integer >= 0, got -3"),
}


@pytest.mark.parametrize("overrides,message", BAD_NUMBERS.values(), ids=BAD_NUMBERS)
def test_bad_number_or_empty_split_exits_1_naming_the_field(tmp_path, graph_file, capsys,
                                                            overrides, message):
    cfg = write_config(tmp_path, graph_file, **overrides)
    assert run_cli("distill", "--config", cfg) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,overrides,flags,name", [
    ("train-teacher", {"seed": -1}, [], "seed"),
    ("distill", {"split": {"kind": "nodes", "pir": 0.5, "seed": -1}}, [], "split.seed"),
    ("distill", {"kernel": {"kind": "randomized", "seed": -2}}, [], "kernel.seed"),
    ("sweep-pir", {"sweep": {"seeds": [0, -1]}}, [], "sweep.seeds[1]"),
    ("train-teacher", {}, ["--seed", "-1"], "--seed"),
    ("distill", {}, ["--seed", "-1"], "--seed"),
    ("gradcheck", None, ["--seed", "-1"], "--seed"),
    ("gen-synthetic", None, ["--blocks", "5,5", "--p-in", "0.5", "--p-out", "0.1",
                             "--seed", "-1"], "--seed"),
])
def test_negative_seed_exits_1_naming_it(tmp_path, graph_file, capsys, command, overrides,
                                         flags, name):
    argv = [command, *flags]
    if overrides is not None:
        argv += ["--config", write_config(tmp_path, graph_file, **overrides)]
    if command == "gen-synthetic":
        argv += ["--out", tmp_path / "out"]
    assert run_cli(*argv) == 1
    assert f"error: {name}: expected an integer >= 0, got -" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_sections_fill_dataclass_defaults(tmp_path, graph_file):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mode": "online", "complete_graph": str(graph_file),
                                "kernel": {"kind": "randomized", "s": None, "m": 2},
                                "distill": {"alpha": 3, "batch_size": 8},
                                "optimizer": {"epochs": 7}}))
    plan = RunConfig.from_file(path).plan
    assert plan == TrainPlan(mode="online", epochs=7,
                             kernel=KernelSpec(kind="randomized", m=2),
                             distill=DistillConfig(alpha=3.0, batch_size=8))
    assert isinstance(plan.distill.alpha, float)


def test_cli_exit_code_on_bad_config(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert run_cli("train-teacher", "--config", path) == 1
    assert "error" in capsys.readouterr().err


# --------------------------------------------------------------------------
# the allocator step main takes before parsing


FAULT_PROBE = """
import resource, sys
import numpy as np
from geokd import cli
if sys.argv[1] == "step":
    cli._retain_freed_buffers()

def churn():  # eight fresh 1 MiB buffers, freed again on return
    bufs = [np.ones(1 << 17) for _ in range(8)]

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
def test_allocator_step_reuses_freed_buffers_without_page_faults():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def faults(arg):  # a fresh interpreter, so no earlier step is in force
        run = subprocess.run([sys.executable, "-c", FAULT_PROBE, arg], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        return int(run.stdout)

    # 5 x 8 MiB re-faulted is about 10,000 faults of 4 KiB pages
    assert faults("step") < 256
    assert faults("none") >= 2000  # the probe sees the faults the step removes
