import csv
import json

import numpy as np
import pytest

from geokd.cli import RunConfig, main
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
        tmp_path, graph_file, mode="pgkd",
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
    for text, field in (('{"kind": "gcn", "dims": [6, "x"], "weights": []}', "dims"),
                        ("not json", "checkpoint")):
        bad.write_text(text)
        assert run_cli("eval", "--checkpoint", bad, "--graph", graph_file) == 1
        assert field in capsys.readouterr().err


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
        tmp_path, graph_file, mode="pgkd",
        teacher={"kind": "gcn", "depth": 2, "hidden": 8, "checkpoint": str(ckpt)},
        split={"kind": "nodes", "pir": 1.0},
    )
    assert run_cli("distill", "--config", cfg) == 1
    assert "split.pir" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.jsonl").exists()


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


# --------------------------------------------------------------------------
# validation commands


def test_validate_kernels_passes(capsys):
    assert run_cli("validate-kernels", "--seeds", "2", "--nodes", "12") == 0
    out = capsys.readouterr().out
    assert "semigroup" in out and "PASS" in out and "FAIL" not in out


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


def test_config_sections_fill_dataclass_defaults(tmp_path, graph_file):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mode": "pgkd", "complete_graph": str(graph_file),
                                "kernel": {"kind": "randomized", "s": None, "m": 2},
                                "distill": {"alpha": 3, "batch_size": 8},
                                "optimizer": {"epochs": 7}}))
    plan = RunConfig.from_file(path).plan
    assert plan == TrainPlan(mode="pgkd", epochs=7,
                             kernel=KernelSpec(kind="randomized", m=2),
                             distill=DistillConfig(alpha=3.0, batch_size=8))
    assert isinstance(plan.distill.alpha, float)


def test_cli_exit_code_on_bad_config(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert run_cli("train-teacher", "--config", path) == 1
    assert "error" in capsys.readouterr().err
