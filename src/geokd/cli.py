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
import ctypes
import json
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .checks import ORACLE_BUDGET, gradient_suite, kernel_checks, theorem_bytes, theorem_checks
from .config import REQUIRED, config_fields, read_document, read_field, reject_unknown, typed
from .distill import DistillConfig, require_hidden_layers
from .errors import GeokdError, GraphParseError, NumericError, ValidationError
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
from .training import TrainPlan, TrainResult, train_student, train_supervised

_TOP_KEYS = ("mode", "seed", "complete_graph", "partial_graph", "split", "teacher",
             "student", "kernel", "distill", "optimizer", "out_dir", "sweep")


def _section(doc: dict, name: str, cls, **given):
    """cls built from config section ``name`` and the fields ``given``.

    The section sets cls's scalar and scalar-list fields (``config_fields``)
    that are not given. An absent or null key keeps the dataclass default,
    and is an error for a field without one. An unknown key, a mistyped value
    or a value cls rejects is an error naming its field: cls raises
    GraphParseError naming a field of the section or a given field.
    """
    kinds = {k: t for k, t in config_fields(cls).items() if k not in given}
    sub = read_field(doc, name, "object", {})
    reject_unknown(sub, kinds, name + ".")
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    kwargs = dict(given)
    for key, kind in kinds.items():
        default = REQUIRED if key in required else None
        value = read_field(sub, key, kind, default, f"{name}.{key}")
        if value is not None:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except GraphParseError as e:
        if e.field.split(".")[0] in given:
            raise
        raise GraphParseError(f"{name}.{e.field}", e.message) from e


@dataclass
class ModelSection:
    kind: str = "gcn"
    depth: int = 3
    hidden: int = 32
    checkpoint: str | None = None

    def __post_init__(self):
        if self.kind not in ("gcn", "sgc"):
            raise GraphParseError("kind", f"unknown model kind {self.kind!r}")
        for name, value in (("depth", self.depth), ("hidden", self.hidden)):
            if value < 1:
                raise GraphParseError(name, f"expected an integer >= 1, got {value}")


@dataclass
class SplitSection:
    kind: str
    pir: float
    seed: int | None = None  # defaults to the run seed

    def __post_init__(self):
        if self.kind not in ("edges", "nodes"):
            raise GraphParseError("kind", f"unknown split kind {self.kind!r}")
        if not 0.0 <= self.pir <= 1.0:
            raise GraphParseError("pir", f"{self.pir} outside [0, 1]")


@dataclass
class SweepSection:
    pirs: list[float] = field(default_factory=lambda: [0.0, 0.25, 0.5, 0.75])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    split_kind: str | None = None  # defaults to split.kind, else edges

    def __post_init__(self):
        for p in self.pirs:
            if not 0.0 <= p <= 1.0:
                raise GraphParseError("pirs", f"{p} outside [0, 1]")
        for name in ("pirs", "seeds"):  # a repeat would count its runs twice in each mean
            values = getattr(self, name)
            for i, x in enumerate(values):
                if x in values[:i]:
                    raise GraphParseError(f"{name}[{i}]", f"{x} repeats entry {values.index(x)}")
        if self.split_kind not in (None, "edges", "nodes"):
            raise GraphParseError("split_kind", f"unknown kind {self.split_kind!r}")


@dataclass
class RunConfig:
    complete_graph: str
    plan: TrainPlan
    partial_graph: str | None = None
    split: SplitSection | None = None
    teacher: ModelSection = None
    student: ModelSection = None
    out_dir: str = "runs/out"
    sweep: SweepSection = field(default_factory=SweepSection)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Parse a config document; every section rejects keys it does not know."""
        reject_unknown(doc, _TOP_KEYS)
        mode = read_field(doc, "mode", "str", "gkd_offline")
        complete = read_field(doc, "complete_graph", "str")
        if not Path(complete).exists():
            raise GraphParseError("complete_graph", f"file not found: {complete}")
        partial = read_field(doc, "partial_graph", "str", None)
        if partial is not None and not Path(partial).exists():
            raise GraphParseError("partial_graph", f"file not found: {partial}")
        split = None if doc.get("split") is None else _section(doc, "split", SplitSection)
        plan = _section(doc, "optimizer", TrainPlan, mode=mode,
                        seed=read_field(doc, "seed", "int", 0),
                        kernel=_section(doc, "kernel", KernelSpec),
                        distill=_section(doc, "distill", DistillConfig))
        models = {name: _section(doc, name, ModelSection) for name in ("teacher", "student")}
        for name, model in models.items():  # pgkd's span reads a gcn's entries 1 and L-1
            if mode == "pgkd" and model.kind == "gcn":
                require_hidden_layers(model.kind, model.depth, f"{name}.depth")
        student, teacher = models["student"], models["teacher"]
        plan.require_alignable(student.kind, student.depth, teacher.depth)
        if mode == "online" and teacher.checkpoint is not None:
            raise GraphParseError("teacher.checkpoint", "mode 'online' trains its teacher "
                                  "from scratch and reads no checkpoint")
        if student.checkpoint is not None:
            raise GraphParseError("student.checkpoint", "no command reads a student checkpoint")
        for name, value in (("split", split), ("partial_graph", partial)):
            if mode in ("self_distill", "compression") and value is not None:
                raise GraphParseError(name, f"mode '{mode}' trains its student on "
                                      "complete_graph and reads no partial view")
        return cls(
            complete_graph=complete,
            plan=plan,
            partial_graph=partial,
            split=split,
            out_dir=read_field(doc, "out_dir", "str", "runs/out"),
            sweep=_section(doc, "sweep", SweepSection),
            **models,
        )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(read_document(path, "<config>")[0])


def resolve_graphs(cfg: RunConfig):
    """Load the complete graph and derive the student's view of it."""
    g_complete = load_graph(cfg.complete_graph)
    node_map = None
    if cfg.plan.mode in ("self_distill", "compression"):
        g = g_complete
    elif cfg.partial_graph is not None:
        g = load_graph(cfg.partial_graph)
        if g.num_nodes != g_complete.num_nodes:
            raise ValidationError("partial_graph: node count differs from complete graph; "
                                  "node-aware setups must use split.kind='nodes'")
        if not np.array_equal(g.features.values, g_complete.features.values):
            # trace entry 0 is X on both sides, which the alignment skips
            raise ValidationError("partial_graph: features differ from complete_graph's")
    elif cfg.split is not None:
        split_seed = cfg.split.seed if cfg.split.seed is not None else cfg.plan.seed
        g, node_map = _split(g_complete, cfg.split.kind, cfg.split.pir, split_seed, "split.pir")
    else:
        g = g_complete
    return g_complete, g, node_map


def _split(g_complete: Graph, kind: str, pir: float, seed: int, field: str):
    """The student's graph and node map (None for an edge split) at ``pir``;
    a node split that leaves the student no training, validation or test
    nodes is an error naming ``field``."""
    if kind == "edges":
        return split_edges(g_complete, pir, seed), None
    g, node_map = split_nodes(g_complete, pir, seed)
    empty = g.empty_split()
    if empty is not None:
        raise ValidationError(f"{field}: {pir} leaves the student no {empty} nodes")
    return g, node_map


def _build_from_section(section: ModelSection, g: Graph, num_classes: int) -> GnnModel:
    return build_model(section.kind, g.features.shape[1], section.hidden,
                       section.depth, num_classes)


# ---------------------------------------------------------------------------
# Output writers


def _write_run(cfg: RunConfig, result: TrainResult, mode: str, checkpoints: dict):
    """The checkpoints {file name: model}, metrics.jsonl, timing.json and
    summary.json of a training run in cfg.out_dir, then its one-line report."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, model in checkpoints.items():
        model.save(out / name)
    write_atomic(out / "metrics.jsonl", lambda f: f.writelines(
        json.dumps(rec.public_dict()) + "\n" for rec in result.metrics))
    walls = [rec.wall_ms for rec in result.metrics]
    write_json(out / "timing.json", {"wall_ms_per_epoch": walls, "wall_ms_total": sum(walls)})
    write_json(out / "summary.json", {
        "mode": mode,
        "seed": cfg.plan.seed,
        "epochs_run": len(result.metrics),
        "best_epoch": result.best_epoch,
        "best_val_acc": result.best_val_acc,
        "best_test_acc": result.best_test_acc,
    }, indent=2)
    print(f"{mode}: best val {result.best_val_acc:.4f} "
          f"test {result.best_test_acc:.4f} (epoch {result.best_epoch})")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_synthetic(args) -> int:
    try:
        blocks = [int(b) for b in str(args.blocks).split(",") if b != ""]
    except ValueError:
        blocks = []
    if not blocks or min(blocks) < 1:
        raise GraphParseError(
            "--blocks", f"expected comma-separated sizes >= 1, got {args.blocks!r}")
    for flag, value, ok, want in (
            ("--feature-dim", args.feature_dim, args.feature_dim >= len(blocks),
             f">= {len(blocks)}, one per block"),
            ("--p-in", args.p_in, 0.0 <= args.p_in <= 1.0, "a probability in [0, 1]"),
            ("--p-out", args.p_out, 0.0 <= args.p_out <= 1.0, "a probability in [0, 1]"),
            ("--noise-sigma", args.noise_sigma, 0.0 <= args.noise_sigma < np.inf, "finite >= 0")):
        if not ok:
            raise GraphParseError(flag, f"expected {want}, got {value!r}")
    g = sbm_generate(blocks, args.p_in, args.p_out, args.feature_dim,
                     args.noise_sigma, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_graph(g, out)
    print(f"wrote {out}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{g.num_classes} classes")
    return 0


def _require_file(path, flag: str):
    if not Path(path).exists():
        raise GraphParseError(flag, f"file not found: {path}")


def _load_cfg(args) -> RunConfig:
    _require_file(args.config, "--config")
    cfg = RunConfig.from_file(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.plan.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def cmd_train_teacher(args) -> int:
    cfg = _load_cfg(args)
    g_complete = load_graph(cfg.complete_graph)
    model = _build_from_section(cfg.teacher, g_complete, g_complete.num_classes)
    result = train_supervised(g_complete, model, replace(cfg.plan, mode="teacher"))
    _write_run(cfg, result, "teacher", {"teacher.json": model})
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
            raise ValidationError(f"teacher.checkpoint: required for offline mode {mode!r}")
        if not Path(cfg.teacher.checkpoint).exists():
            raise ValidationError(f"teacher.checkpoint: file not found: {cfg.teacher.checkpoint}")
        teacher, section = GnnModel.load(cfg.teacher.checkpoint), cfg.teacher
        hidden = teacher.dims[1] if teacher.kind == "gcn" and teacher.num_layers > 1 else None
        for key, got in (("kind", teacher.kind), ("depth", teacher.num_layers), ("hidden", hidden)):
            if got not in (None, getattr(section, key)):  # the section describes its checkpoint
                raise GraphParseError(f"teacher.{key}", f"the checkpoint's is {got!r}, "
                                      f"the section's {getattr(section, key)!r}")
        _check_widths(teacher, g_complete, "teacher.checkpoint",
                      num_classes if cfg.plan.distill.alpha_kd > 0 else None)
    result = train_student(cfg.plan, g, g_complete, teacher, student, node_map)
    checkpoints = {"student.json": result.model}
    if result.teacher_model is not None:
        checkpoints["teacher_online.json"] = result.teacher_model
    _write_run(cfg, result, mode, checkpoints)
    return 0


def _check_widths(model: GnnModel, g: Graph, field: str, num_classes: int | None = None):
    """Refuse, naming field, a checkpoint whose input width is not g's feature
    width, or whose output width is not num_classes when that is given."""
    for end, got, want, of in (("input", model.dims[0], g.features.shape[1], "feature width"),
                               ("output", model.dims[-1], num_classes, "class count")):
        if want not in (None, got):
            raise GraphParseError(field, f"{end} width {got}, but the graph's {of} is {want}")


def cmd_eval(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.graph, "--graph")
    model = GnnModel.load(args.checkpoint)
    g = load_graph(args.graph)
    # a wider output passes: an eval graph may leave its top classes unlabeled
    _check_widths(model, g, "checkpoint", max(model.dims[-1], g.num_classes))
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
    pirs, seeds = cfg.sweep.pirs, cfg.sweep.seeds
    if args.pirs is not None:
        try:
            pirs = SweepSection(pirs=[float(p) for p in args.pirs.split(",")]).pirs
        except (ValueError, GraphParseError) as e:
            raise GraphParseError(
                "--pirs", f"expected distinct numbers in [0, 1], got {args.pirs!r}") from e
    split_kind = cfg.sweep.split_kind or (cfg.split.kind if cfg.split else "edges")
    method = cfg.plan.mode if cfg.plan.mode != "teacher" else "gkd_offline"
    if method in ("self_distill", "compression"):
        raise GraphParseError("mode", f"mode '{method}' trains on complete_graph, unsplit")
    method_plan = replace(cfg.plan, mode=method)  # checks its kernel before any training
    method_plan.require_alignable(cfg.student.kind, cfg.student.depth, cfg.teacher.depth)
    for name, value in (("teacher.checkpoint", cfg.teacher.checkpoint),
                        ("partial_graph", cfg.partial_graph)):
        if value is not None:  # the sweep trains its teachers and splits complete_graph
            raise GraphParseError(name, "sweep-pir trains its own teachers and splits "
                                  "complete_graph itself, so it reads no such file")

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
            g, node_map = _split(g_complete, split_kind, pir, seed, "sweep.pirs")
            rows.append((pir, "oracle", seed, oracle_val, oracle_test))
            _, t_val, t_test = accuracies(forward(teacher, g)[0].values, g)
            rows.append((pir, "teacher", seed, t_val, t_test))

            student_plain = _build_from_section(cfg.student, g, num_classes)
            res_plain = train_supervised(g, student_plain,
                                         replace(cfg.plan, mode="teacher", seed=seed))
            rows.append((pir, "student", seed, res_plain.best_val_acc,
                         res_plain.best_test_acc))

            student = _build_from_section(cfg.student, g, num_classes)
            if method == "online":  # trains a teacher of its own, not the shared one
                teacher = _build_from_section(cfg.teacher, g_complete, num_classes)
            res_gkd = train_student(replace(method_plan, seed=seed),
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
    for flag, value, least in (("--seeds", args.seeds, 1), ("--nodes", args.nodes, 2)):
        if value < least:
            raise GraphParseError(flag, f"expected an integer >= {least}, got {value}")
    need = theorem_bytes(args.nodes)
    if need > ORACLE_BUDGET:
        raise GraphParseError("--nodes", f"the exact oracles would need about {need:,} bytes "
                              f"at {args.nodes} nodes, over the {ORACLE_BUDGET:,}-byte budget")
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


def _retain_freed_buffers() -> None:
    """Let glibc's malloc keep freed buffers of up to 32 MiB for reuse.

    glibc maps larger buffers afresh and trims its heap once twice its mmap
    threshold is free, so every epoch page-faulted the same kernel blocks and
    gradients again. With both thresholds set, faults inside training fell
    36,013 -> 1,483 on the benchmark's gkd-gauss and 92,740 -> 3,897 on
    pgkd-nodes (2-CPU VM, numpy 2.4.6). M_MMAP_THRESHOLD alone turns glibc's
    dynamic thresholds off, leaves the trim threshold at 128 KiB and raised
    gkd-gauss's to 84,366. A no-op without mallopt (macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, from glibc's malloc.h
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _retain_freed_buffers()
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            typed(args.seed, "int", "--seed")
        return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except (GeokdError, FileNotFoundError) as e:
        msg = f"file not found: {e.filename}" if isinstance(e, FileNotFoundError) else e
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
