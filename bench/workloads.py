"""The benchmark's workloads: input sizes, run configs and teacher preparation.

Every workload uses a 4-block SBM with mean degree 16 and feature dim 16, and
a GCN of depth 3 and width 32 for teacher and student, trained by Adam at lr
0.05 (at 0.01, test accuracy after 30 epochs still varied widely by seed).
``toy`` shrinks a workload to 48 nodes and two epochs for the self-test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

GCN = {"kind": "gcn", "depth": 3, "hidden": 32}
LR = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # geokd subcommand: train-teacher or distill
    num_nodes: int
    epochs: int
    mode: str = "teacher"
    split: dict | None = None
    kernel: dict = field(default_factory=lambda: {"kind": "gauss", "t": 1.0})
    distill: dict = field(default_factory=dict)
    teacher_epochs: int = 2      # untimed teacher run: checkpoint and warm-up
    mean_degree: float = 16.0

    @property
    def offline(self) -> bool:
        """Distills from the teacher checkpoint built before timing."""
        return self.command == "distill"


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="teacher-prop",
        command="train-teacher", num_nodes=3200, epochs=30,
    ),
    Workload(
        name="gkd-gauss",
        command="distill", num_nodes=800, epochs=30, mode="gkd_offline",
        split={"kind": "edges", "pir": 0.5},
        kernel={"kind": "gauss", "t": 1.0},
        distill={"alpha": 10.0, "delta": 0.4, "batch_size": None},
        teacher_epochs=20,
    ),
    Workload(
        name="gkd-randomized-batch",
        command="distill", num_nodes=3200, epochs=30, mode="gkd_offline",
        split={"kind": "edges", "pir": 0.5},
        kernel={"kind": "randomized", "m": 4, "t": 1.0},
        distill={"alpha": 10.0, "delta": 0.4, "batch_size": 256},
        teacher_epochs=20,
    ),
    Workload(
        name="pgkd-nodes",
        command="distill", num_nodes=1600, epochs=40, mode="pgkd",
        split={"kind": "nodes", "pir": 0.5},
        kernel={"kind": "parametric"},
        # The unnormalized alignment sum is ~1e5 here: at alpha 10 it swamps
        # the cross-entropy and test accuracy varied from 0.76 to 0.99 by seed.
        distill={"alpha": 1e-5, "delta": 0.4},
        teacher_epochs=20,
    ),
)}

TOY_NODES = 48
TOY_EPOCHS = 2


def toy(w: Workload) -> Workload:
    """The same workload at self-test size."""
    distill = dict(w.distill)
    if distill.get("batch_size"):
        distill["batch_size"] = 16
    return replace(w, num_nodes=TOY_NODES, epochs=TOY_EPOCHS, mean_degree=4.0,
                   teacher_epochs=TOY_EPOCHS, distill=distill)


def config(w: Workload, graph: Path, out_dir: Path, seed: int, *,
           teacher: bool = False, checkpoint: Path | None = None) -> dict:
    """Run config for the timed command, or for the teacher (``teacher=True``)."""
    doc = {
        "mode": "teacher" if teacher else w.mode,
        "complete_graph": str(graph),
        "teacher": dict(GCN),
        "student": dict(GCN),
        "optimizer": {"lr": LR, "lr_mapper": 0.01, "patience": 0,
                      "epochs": w.teacher_epochs if teacher else w.epochs},
        "seed": int(seed),
        "out_dir": str(out_dir),
    }
    if not teacher and w.offline:
        doc["teacher"]["checkpoint"] = str(checkpoint)
        doc["split"] = dict(w.split)
        doc["kernel"] = dict(w.kernel)
        doc["distill"] = dict(w.distill)
    return doc


def write_config(path: Path, doc: dict) -> Path:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return path
