"""Command-line surface: synthetic data, training runs, sweeps and validation.

Subcommands: gen-synthetic, train-teacher, distill, eval, sweep-pir,
validate-kernels, gradcheck. Exit codes: 0 success, 1 validation error,
2 numerical failure (a failed check or a non-finite training loss).

Runs are pure functions of (config, seed): metrics.jsonl and summary.json are
byte-identical across re-runs. Wall-clock numbers go to timing.json, which is
the one deliberately non-deterministic output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .checks import gradient_suite, kernel_checks, theorem_checks
from .distill import DistillConfig
from .errors import DimensionError, GeokdError, GraphParseError, NumericError, ValidationError
from .graphs import (
    Graph,
    load_graph,
    save_graph,
    sbm_generate,
    split_edges,
    split_nodes,
    write_atomic,
    write_json,
)
from .models import GnnModel, accuracies, build_model, forward
from .nhk import KernelSpec
from .training import STUDENT_MODES, TrainPlan, TrainResult, train_student, train_supervised

_MISSING = object()


def _get(doc: dict, key: str, expect=None, default=_MISSING, prefix: str = ""):
    name = prefix + key
    if key not in doc or doc[key] is None:
        if default is _MISSING:
            raise GraphParseError(name, "missing required field")
        return default
    val = doc[key]
    if expect is not None and not isinstance(val, expect):
        raise GraphParseError(name, f"expected {expect}, got {type(val).__name__}")
    return val


_NUM = (int, float)
# (accepted JSON types, conversion) per scalar field annotation; a field of
# another type, such as KernelSpec.decay_weights, is not a config key
_SCALARS = {"float": (_NUM, float), "int": (int, int), "str": (str, str)}
_OPTIMIZER_KEYS = ("epochs", "patience", "lr", "lr_mapper")


def _section(doc: dict, name: str, cls, keys=None, **given):
    """cls built from the scalar fields in config section ``name``.

    Absent or null keys keep the dataclass default; an unknown key, a
    mistyped value or a value cls rejects is an error naming its field.
    """
    sub = doc.get(name) or {}
    if not isinstance(sub, dict):
        raise GraphParseError(name, "expected a JSON object")
    types = {f.name: _SCALARS[f.type.split(" | ")[0]] for f in fields(cls)
             if f.type.split(" | ")[0] in _SCALARS and (keys is None or f.name in keys)}
    unknown = sorted(set(sub) - set(types))
    if unknown:
        raise GraphParseError(f"{name}.{unknown[0]}", "unknown key")
    kwargs = dict(given)
    for key, (expect, convert) in types.items():
        if sub.get(key) is not None:
            kwargs[key] = convert(_get(sub, key, expect, prefix=name + "."))
    try:
        return cls(**kwargs)
    except ValidationError as e:
        raise GraphParseError(name, str(e)) from e


@dataclass
class ModelSection:
    kind: str = "gcn"
    depth: int = 3
    hidden: int = 32
    checkpoint: str | None = None

    @classmethod
    def from_dict(cls, doc: dict, prefix: str) -> "ModelSection":
        kind = _get(doc, "kind", str, "gcn", prefix)
        if kind not in ("gcn", "sgc"):
            raise GraphParseError(prefix + "kind", f"unknown model kind {kind!r}")
        depth = int(_get(doc, "depth", int, 3, prefix))
        hidden = int(_get(doc, "hidden", int, 32, prefix))
        if depth < 1 or hidden < 1:
            raise GraphParseError(prefix + "depth", "depth and hidden must be >= 1")
        ckpt = _get(doc, "checkpoint", str, None, prefix)
        return cls(kind, depth, hidden, ckpt)


@dataclass
class SplitSection:
    kind: str
    pir: float
    seed: int | None = None  # defaults to the run seed

    @classmethod
    def from_dict(cls, doc: dict, prefix: str) -> "SplitSection":
        kind = _get(doc, "kind", str, prefix=prefix)
        if kind not in ("edges", "nodes"):
            raise GraphParseError(prefix + "kind", f"unknown split kind {kind!r}")
        pir = float(_get(doc, "pir", _NUM, prefix=prefix))
        if not 0.0 <= pir <= 1.0:
            raise GraphParseError(prefix + "pir", f"{pir} outside [0, 1]")
        seed = _get(doc, "seed", int, None, prefix)
        return cls(kind, pir, seed)


@dataclass
class RunConfig:
    complete_graph: str
    plan: TrainPlan
    partial_graph: str | None = None
    split: SplitSection | None = None
    teacher: ModelSection = None
    student: ModelSection = None
    out_dir: str = "runs/out"
    sweep: dict | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        mode = _get(doc, "mode", str, "gkd_offline")
        if mode not in ("teacher",) + STUDENT_MODES:
            raise GraphParseError("mode", f"unknown mode {mode!r}")
        complete = _get(doc, "complete_graph", str)
        if not Path(complete).exists():
            raise GraphParseError("complete_graph", f"file not found: {complete}")
        partial = _get(doc, "partial_graph", str, None)
        if partial is not None and not Path(partial).exists():
            raise GraphParseError("partial_graph", f"file not found: {partial}")
        split = doc.get("split")
        split = SplitSection.from_dict(split, "split.") if split else None
        plan = _section(doc, "optimizer", TrainPlan, _OPTIMIZER_KEYS, mode=mode,
                        seed=int(_get(doc, "seed", int, 0)),
                        kernel=_section(doc, "kernel", KernelSpec),
                        distill=_section(doc, "distill", DistillConfig))
        return cls(
            complete_graph=complete,
            plan=plan,
            partial_graph=partial,
            split=split,
            teacher=ModelSection.from_dict(doc.get("teacher") or {}, "teacher."),
            student=ModelSection.from_dict(doc.get("student") or {}, "student."),
            out_dir=_get(doc, "out_dir", str, "runs/out"),
            sweep=doc.get("sweep"),
        )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise GraphParseError("<config>", f"invalid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise GraphParseError("<config>", "expected a JSON object")
        return cls.from_dict(doc)


def resolve_graphs(cfg: RunConfig):
    """Load the complete graph and derive the student's view of it."""
    g_complete = load_graph(cfg.complete_graph)
    node_map = None
    if cfg.plan.mode in ("self_distill", "compression"):
        g = g_complete
    elif cfg.partial_graph is not None:
        g = load_graph(cfg.partial_graph)
        if g.num_nodes != g_complete.num_nodes:
            raise ValidationError(
                "partial_graph: node count differs from complete graph; "
                "node-aware setups must use split.kind='nodes'"
            )
    elif cfg.split is not None:
        split_seed = cfg.split.seed if cfg.split.seed is not None else cfg.plan.seed
        if cfg.split.kind == "edges":
            g = split_edges(g_complete, cfg.split.pir, split_seed)
        else:
            g, node_map = split_nodes(g_complete, cfg.split.pir, split_seed)
            _require_train_nodes(g, "split.pir", cfg.split.pir)
    else:
        g = g_complete
    return g_complete, g, node_map


def _require_train_nodes(g: Graph, field: str, pir: float):
    """A node split that removes every training node leaves nothing to fit."""
    if len(g.train_mask) == 0:
        raise ValidationError(
            f"{field}: {pir} removes every training node of the complete graph; "
            "the student needs at least one"
        )


def _build_from_section(section: ModelSection, g: Graph, num_classes: int) -> GnnModel:
    return build_model(section.kind, g.features.shape[1], section.hidden,
                       section.depth, num_classes)


# ---------------------------------------------------------------------------
# Output writers


def _write_metrics(out: Path, result: TrainResult):
    write_atomic(out / "metrics.jsonl", lambda f: f.writelines(
        json.dumps(rec.public_dict()) + "\n" for rec in result.metrics))
    walls = [rec.wall_ms for rec in result.metrics]
    write_json(out / "timing.json", {"wall_ms_per_epoch": walls, "wall_ms_total": sum(walls)})


def _summary_doc(cfg: RunConfig, result: TrainResult, mode: str) -> dict:
    return {
        "mode": mode,
        "seed": cfg.plan.seed,
        "epochs_run": len(result.metrics),
        "best_epoch": result.best_epoch,
        "best_val_acc": result.best_val_acc,
        "best_test_acc": result.best_test_acc,
    }


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_synthetic(args) -> int:
    blocks = [int(b) for b in str(args.blocks).split(",") if b != ""]
    g = sbm_generate(blocks, args.p_in, args.p_out, args.feature_dim,
                     args.noise_sigma, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_graph(g, out)
    print(f"wrote {out}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{g.num_classes} classes")
    return 0


def _load_cfg(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config)
    if args.seed is not None:
        cfg.plan.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def cmd_train_teacher(args) -> int:
    cfg = _load_cfg(args)
    g_complete = load_graph(cfg.complete_graph)
    model = _build_from_section(cfg.teacher, g_complete, g_complete.num_classes)
    result = train_supervised(g_complete, model, replace(cfg.plan, mode="teacher"))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "teacher.json")
    _write_metrics(out, result)
    write_json(out / "summary.json", _summary_doc(cfg, result, "teacher"), indent=2)
    print(f"teacher: best val {result.best_val_acc:.4f} "
          f"test {result.best_test_acc:.4f} (epoch {result.best_epoch})")
    return 0


def cmd_distill(args) -> int:
    cfg = _load_cfg(args)
    mode = cfg.plan.mode
    if mode == "teacher":
        raise ValidationError("mode: distill expects a student mode")
    g_complete, g, node_map = resolve_graphs(cfg)
    num_classes = g_complete.num_classes
    student = _build_from_section(cfg.student, g, num_classes)
    if mode == "online":
        teacher = _build_from_section(cfg.teacher, g_complete, num_classes)
    else:
        if cfg.teacher.checkpoint is None:
            raise ValidationError(
                f"teacher.checkpoint: required for offline mode {mode!r}"
            )
        if not Path(cfg.teacher.checkpoint).exists():
            raise ValidationError(
                f"teacher.checkpoint: file not found: {cfg.teacher.checkpoint}"
            )
        teacher = GnnModel.load(cfg.teacher.checkpoint)
    result = train_student(cfg.plan, g, g_complete, teacher, student, node_map)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.model.save(out / "student.json")
    if result.teacher_model is not None:
        result.teacher_model.save(out / "teacher_online.json")
    _write_metrics(out, result)
    write_json(out / "summary.json", _summary_doc(cfg, result, mode), indent=2)
    print(f"{mode}: best val {result.best_val_acc:.4f} "
          f"test {result.best_test_acc:.4f} (epoch {result.best_epoch})")
    return 0


def cmd_eval(args) -> int:
    if not Path(args.checkpoint).exists():
        raise ValidationError(f"checkpoint: file not found: {args.checkpoint}")
    model = GnnModel.load(args.checkpoint)
    g = load_graph(args.graph)
    logits, _ = forward(model, g)
    doc = {"checkpoint": str(args.checkpoint), "graph": str(args.graph)}
    doc.update(zip(("train_acc", "val_acc", "test_acc"), accuracies(logits.values, g)))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "eval.json", doc, indent=2)
    print(f"eval: train {doc['train_acc']:.4f} val {doc['val_acc']:.4f} "
          f"test {doc['test_acc']:.4f}")
    return 0


def cmd_sweep_pir(args) -> int:
    cfg = _load_cfg(args)
    sweep = cfg.sweep or {}
    pirs = [float(p) for p in str(args.pirs).split(",")] if args.pirs \
        else [float(p) for p in sweep.get("pirs", [0.0, 0.25, 0.5, 0.75])]
    for p in pirs:
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"sweep.pirs: {p} outside [0, 1]")
    seeds = [int(s) for s in sweep.get("seeds", [0, 1, 2, 3, 4])]
    split_kind = sweep.get("split_kind", cfg.split.kind if cfg.split else "edges")
    if split_kind not in ("edges", "nodes"):
        raise ValidationError(f"sweep.split_kind: unknown kind {split_kind!r}")
    method = cfg.plan.mode if cfg.plan.mode != "teacher" else "gkd_offline"

    g_complete = load_graph(cfg.complete_graph)
    num_classes = g_complete.num_classes
    rows = []
    trained = {}  # seed -> (teacher model, oracle val/test)
    for seed in seeds:
        teacher = _build_from_section(cfg.teacher, g_complete, num_classes)
        res = train_supervised(g_complete, teacher, replace(cfg.plan, mode="teacher", seed=seed))
        trained[seed] = (teacher, res.best_val_acc, res.best_test_acc)

    for pir in pirs:
        for seed in seeds:
            teacher, oracle_val, oracle_test = trained[seed]
            if split_kind == "edges":
                g, node_map = split_edges(g_complete, pir, seed), None
            else:
                g, node_map = split_nodes(g_complete, pir, seed)
                _require_train_nodes(g, "sweep.pirs", pir)
            rows.append((pir, "oracle", seed, oracle_val, oracle_test))
            _, t_val, t_test = accuracies(forward(teacher, g)[0].values, g)
            rows.append((pir, "teacher", seed, t_val, t_test))

            student_plain = _build_from_section(cfg.student, g, num_classes)
            res_plain = train_supervised(g, student_plain,
                                         replace(cfg.plan, mode="teacher", seed=seed))
            rows.append((pir, "student", seed, res_plain.best_val_acc,
                         res_plain.best_test_acc))

            student = _build_from_section(cfg.student, g, num_classes)
            res_gkd = train_student(replace(cfg.plan, mode=method, seed=seed),
                                    g, g_complete, teacher, student, node_map)
            rows.append((pir, method, seed, res_gkd.best_val_acc,
                         res_gkd.best_test_acc))

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = [["pir", "method", "seed", "val_acc", "test_acc"]]
    results += [[repr(pir), meth, seed, repr(val), repr(test)]
                for pir, meth, seed, val, test in rows]
    summary = [["pir", "method", "mean_test_acc", "std_test_acc"]]
    for pir in pirs:
        for meth in ("oracle", "teacher", "student", method):
            accs = [r[4] for r in rows if r[0] == pir and r[1] == meth]
            summary.append([repr(pir), meth, repr(float(np.mean(accs))),
                            repr(float(np.std(accs)))])
    for name, table in (("results.csv", results), ("summary.csv", summary)):
        write_atomic(out / name, lambda f, table=table: csv.writer(f).writerows(table))
    print(f"sweep: {len(rows)} runs over pir={pirs} -> {out / 'results.csv'}")
    return 0


def _print_checks(results) -> int:
    worst = {}
    for r in results:
        cur = worst.get(r.name)
        if cur is None or r.deviation > cur.deviation:
            worst[r.name] = r
    failed = 0
    for name, r in worst.items():
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {name:45s} max dev {r.deviation:.3e}  tol {r.tolerance:.1e}")
        failed += 0 if r.passed else 1
    if failed:
        print(f"{failed} check(s) failed")
        return 2
    return 0


def cmd_validate_kernels(args) -> int:
    results = []
    for seed in range(args.seeds):
        results.extend(theorem_checks(seed, args.nodes))
        results.extend(kernel_checks(seed))
    return _print_checks(results)


def cmd_gradcheck(args) -> int:
    return _print_checks(gradient_suite(args.seed if args.seed is not None else 0))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geokd")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a stochastic block model graph file")
    p.add_argument("--blocks", required=True, help="comma-separated block sizes")
    p.add_argument("--p-in", type=float, required=True, dest="p_in")
    p.add_argument("--p-out", type=float, required=True, dest="p_out")
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--noise-sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output graph file")
    p.set_defaults(func=cmd_gen_synthetic)

    for name, func in (("train-teacher", cmd_train_teacher),
                       ("distill", cmd_distill)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config out_dir")
        p.set_defaults(func=func)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on a graph file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-pir")
    p.add_argument("--config", required=True)
    p.add_argument("--pirs", default=None, help="comma-separated PIR values")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep_pir)

    p = sub.add_parser("validate-kernels")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--nodes", type=int, default=20)
    p.set_defaults(func=cmd_validate_kernels)

    p = sub.add_parser("gradcheck")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, GraphParseError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename}", file=sys.stderr)
        return 1
    except GeokdError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
