"""geokd benchmark: one workload, measured end to end or traced per layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from the root of a checkout that holds ``src/geokd``. The benchmark

1. writes the workload's graph from ``--seed`` with its own SBM writer and
   trains the teacher checkpoint (untimed preparation, which also warms up);
2. runs the geokd command once per fresh interpreter (``child.py``), one at a
   time from this single process, until ``--seconds`` have passed;
3. checks every run: exit code 0, finite losses, the configured epoch count,
   and outputs byte-identical to the first run of the same seed;
4. prints every metric with its unit and sample count, then one JSON line.

``--trace 0`` reports the end-to-end metrics of untraced runs. ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics, the
tracing overhead, and fails any traced run whose outputs differ from the
untraced ones. BLAS and OpenMP run on one thread. ``--toy`` shrinks every
workload for the self-test. Work files go to ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402  (after the thread pins)

import sbm  # noqa: E402
import workloads as W  # noqa: E402
from tracer import TENSOR_OPS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3          # untraced runs per invocation, at least
MIN_PAIRS = 2         # (untraced, traced) pairs per traced invocation, at least
SETUP_PROBES = 8      # extra set-up-only runs per untraced invocation
TIME_LIMIT_S = 150.0  # start no run that would end past this
CHILD_TIMEOUT_S = 120.0
COVERAGE_FLAG = 0.9   # top-level spans must cover this share of training.train_s

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("epochs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"), ("test_acc", "share"),
)


def per_layer_units() -> dict:
    units = {}
    for op in TENSOR_OPS:
        units.update({f"tensor.{op}.fwd_s": "s", f"tensor.{op}.bwd_s": "s",
                      f"tensor.{op}.calls": "count"})
    units.update({
        "tensor.backward_s": "s", "tensor.pairwise_bytes": "B",
        "nhk.kernel_matrix_s": "s", "nhk.kernel_matrix_calls": "count",
        "distill.weight_matrix_s": "s", "distill.weight_matrix_calls": "count",
        "distill.layer_avg_distill_s": "s", "distill.inverse_nhk_gram_s": "s",
        "distill.reconstruction_loss_s": "s",
        "models.forward_s": "s", "models.forward_per_epoch": "1/epoch",
        "training.train_s": "s", "training.adam_step_s": "s",
        "graphs.load_graph_s": "s", "graphs.split_s": "s",
        "graphs.normalize_adjacency_s": "s", "cli.write_s": "s",
        "trace.overhead_s": "s", "trace.coverage": "share",
    })
    return units


PER_LAYER = per_layer_units()


class Bench:
    """One invocation: a workload, a seed and a work directory."""

    def __init__(self, workload: W.Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.src = str(ROOT / "src")
        self.count = 0
        self.reference = None   # output bytes of the first clean run
        self.problems = []      # (run label, reason) of every failed run
        self.started = time.perf_counter()
        # Bytecode is cached inside the work directory, whatever the caller's
        # environment says, so every run after the first loads compiled code.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    # -- preparation (untimed) ---------------------------------------------

    def prepare(self) -> dict:
        graph = self.work / "complete.json"
        shape = sbm.write_sbm(graph, self.w.num_nodes, self.seed, self.w.mean_degree)
        teacher_dir = self.work / "teacher"
        teacher_cfg = W.write_config(
            self.work / "teacher.cfg.json",
            W.config(self.w, graph, teacher_dir, self.seed, teacher=True))
        code, report, err = self.child(["train-teacher", "--config", str(teacher_cfg)], False)
        if code != 0 or report is None:
            raise RuntimeError(f"teacher preparation failed (exit {code}): {err}")
        self.run_cfg = W.write_config(
            self.work / "run.cfg.json",
            W.config(self.w, graph, self.work / "out", self.seed,
                     checkpoint=teacher_dir / "teacher.json"))
        return shape

    # -- one run -------------------------------------------------------------

    def child(self, argv, trace: bool, setup_only: bool = False):
        """Run ``argv`` in a fresh interpreter; (exit code, report, stderr tail)."""
        self.count += 1
        job = self.work / f"job{self.count}.json"
        report_path = self.work / f"report{self.count}.json"
        with open(job, "w") as f:
            json.dump({"src": self.src, "argv": argv, "trace": trace,
                       "setup_only": setup_only, "report": str(report_path)}, f)
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job)],
                                  capture_output=True, text=True, cwd=str(self.work),
                                  env=self.env, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, None, f"timed out after {CHILD_TIMEOUT_S:.0f} s"
        report = None
        if report_path.exists():
            with open(report_path) as f:
                report = json.load(f)
        return proc.returncode, report, proc.stderr.strip()[-400:]

    def setup_probe(self):
        """Set-up time of one run stopped where training would start, or None."""
        code, report, err = self.child([self.w.command, "--config", str(self.run_cfg)],
                                       False, setup_only=True)
        if code != 0 or report is None or report["setup_s"] is None:
            self.problems.append((f"set-up probe {self.count}", f"exit code {code}: {err}"))
            return None
        return report["setup_s"]

    def run(self, trace: bool):
        """One timed run of the workload's command; its report, or None if it failed."""
        label = f"run {self.count + 1}{' (traced)' if trace else ''}"
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        code, report, err = self.child([self.w.command, "--config", str(self.run_cfg)], trace)
        problem = self.check(code, report, err, out)
        if problem:
            self.problems.append((label, problem))
            return None
        return report

    def check(self, code, report, err, out: Path):
        """Reason the run failed, or None when every check holds."""
        if code != 0 or report is None:
            return f"exit code {code}: {err}"
        ckpt = "teacher.json" if self.w.command == "train-teacher" else "student.json"
        files = {}
        for name in ("metrics.jsonl", "summary.json", ckpt):
            path = out / name
            if not path.exists():
                return f"missing output {name}"
            files[name] = path.read_bytes()
        try:
            records = [json.loads(line) for line in files["metrics.jsonl"].splitlines()]
            summary = json.loads(files["summary.json"])
            for rec in records:
                for key, value in rec.items():
                    if key.startswith("loss") and not math.isfinite(value):
                        return f"epoch {rec.get('epoch')}: {key} is {value}"
        except (ValueError, TypeError, AttributeError) as e:
            return f"unreadable metrics.jsonl or summary.json: {e}"
        if len(records) != self.w.epochs or summary.get("epochs_run") != self.w.epochs:
            return f"ran {len(records)} epochs, expected {self.w.epochs}"
        if report["setup_s"] is None or report["train_s"] <= 0:
            return "the training call was not observed"
        if self.reference is None:
            self.reference = files
        else:
            for name, data in files.items():
                if data != self.reference[name]:
                    return f"{name} differs from the first run of this seed"
        report["epochs"] = len(records)
        report["test_acc"] = summary["best_test_acc"]
        return None

    def room_for_another(self, last_run_s: float) -> bool:
        return self.elapsed() + 1.5 * last_run_s < TIME_LIMIT_S


# ---------------------------------------------------------------------------
# Measurement


def measure(bench: Bench, seconds: float, trace: bool):
    """Runs until ``seconds`` have passed; (untraced reports, traced reports, set-ups).

    Untraced invocations first run ``SETUP_PROBES`` set-up-only probes, so
    that ``setup_s`` is a median over many set-ups; they also warm up.
    """
    plain, traced = [], []
    setups = [] if trace else [bench.setup_probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    attempts, min_attempts = 0, MIN_PAIRS if trace else MIN_RUNS
    while True:
        tic = time.perf_counter()
        for tracing in ((False, True) if trace else (False,)):
            report = bench.run(tracing)
            if report is not None:
                (traced if tracing else plain).append(report)
        attempts += 1
        last = time.perf_counter() - tic
        if attempts >= min_attempts and time.perf_counter() - start >= seconds:
            break
        if not bench.room_for_another(last):
            break
    return plain, traced, [s for s in setups if s is not None]


def end_to_end(plain, setups) -> dict:
    return {
        "setup_s": setups + [r["setup_s"] for r in plain],
        "run_s": [r["run_s"] for r in plain],
        "epochs_per_s": [r["epochs"] / r["train_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "test_acc": [r["test_acc"] for r in plain],
    }


def layer_values(report) -> dict:
    spans = report["spans"]

    def secs(name):
        return spans.get(name, [0.0, 0])[0]

    def calls(name):
        return spans.get(name, [0.0, 0])[1]

    vals = {}
    for op in TENSOR_OPS:
        vals[f"tensor.{op}.fwd_s"] = secs(f"tensor.{op}.fwd")
        vals[f"tensor.{op}.bwd_s"] = secs(f"tensor.{op}.bwd")
        vals[f"tensor.{op}.calls"] = calls(f"tensor.{op}.fwd")
    vals.update({
        "tensor.backward_s": secs("tensor.Tensor.backward"),
        "tensor.pairwise_bytes": report["pairwise_bytes"],
        "nhk.kernel_matrix_s": secs("nhk.kernel_matrix"),
        "nhk.kernel_matrix_calls": calls("nhk.kernel_matrix"),
        "distill.weight_matrix_s": secs("distill.weight_matrix"),
        "distill.weight_matrix_calls": calls("distill.weight_matrix"),
        "distill.layer_avg_distill_s": secs("distill.layer_avg_distill"),
        "distill.inverse_nhk_gram_s": secs("distill.inverse_nhk_gram"),
        "distill.reconstruction_loss_s": secs("distill.reconstruction_loss"),
        "models.forward_s": secs("models.forward"),
        "models.forward_per_epoch": calls("models.forward") / report["epochs"],
        "training.train_s": report["train_s"],
        "training.adam_step_s": secs("training.Adam.step"),
        "graphs.load_graph_s": secs("graphs.load_graph"),
        "graphs.split_s": secs("graphs.split_edges") + secs("graphs.split_nodes"),
        "graphs.normalize_adjacency_s": secs("graphs.normalize_adjacency"),
        "cli.write_s": report["run_s"] - report["setup_s"] - report["train_s"],
        "trace.coverage": report["coverage"],
    })
    return vals


def per_layer(plain, traced) -> dict:
    samples = {name: [] for name in PER_LAYER}
    for report in traced:
        for name, value in layer_values(report).items():
            samples[name].append(value)
    overhead = statistics.median(r["run_s"] for r in traced) - \
        statistics.median(r["run_s"] for r in plain)
    samples["trace.overhead_s"] = [overhead]
    return samples


# ---------------------------------------------------------------------------
# Reporting


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": THREADS,
        "nproc": os.cpu_count(),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(args, bench: Bench, shape, samples, units, attempted, failed, setups):
    env = environment()
    print(f"geokd benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}{', toy' if args.toy else ''}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"{env['threads']} BLAS/OpenMP thread(s) of {env['nproc']} CPUs, "
          f"one run at a time")
    print(f"input complete graph: n={shape['num_nodes']} |E|={shape['num_edges']} "
          f"feature_dim={shape['feature_dim']} classes={shape['num_classes']}; "
          f"epochs {bench.w.epochs}")
    print(f"runs: attempted {attempted} ({setups} of them set-up only), failed {failed}, "
          f"failed_share {failed / attempted:.6g} (count/count)")
    if args.trace:
        print("traced outputs byte-identical to the untraced run: "
              f"{'yes' if not bench.problems else 'see failures'}")
    for label, reason in bench.problems:
        print(f"  FAILED {label}: {reason}")
    for name, unit in units.items():
        values = samples[name]
        print(f"  {name:34s} median {_fmt(statistics.median(values)):>12s} {unit:8s} "
              f"(min {_fmt(min(values))}, max {_fmt(max(values))}, n={len(values)})")
    if "trace.coverage" in samples and min(samples["trace.coverage"]) < COVERAGE_FLAG:
        print(f"  FLAG: layer spans cover less than {COVERAGE_FLAG:.0%} of training.train_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="self-test size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "geokd" / "cli.py").is_file():
        print(f"error: no geokd sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = W.WORKLOADS[args.workload]
    if args.toy:
        workload = W.toy(workload)
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, work)
        try:
            shape = bench.prepare()
        except (RuntimeError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        plain, traced, setups = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it

    attempted = len(plain) + len(traced) + len(setups) + len(bench.problems)
    failed = len(bench.problems)
    if not plain or (args.trace and not traced):
        for label, reason in bench.problems:
            print(f"FAILED {label}: {reason}", file=sys.stderr)
        print("error: no run succeeded, so no metric can be reported", file=sys.stderr)
        return 1
    if args.trace:
        samples, units = per_layer(plain, traced), PER_LAYER
    else:
        samples, units = end_to_end(plain, setups), dict(END_TO_END)
    print_report(args, bench, shape, samples, units, attempted, failed, len(setups))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(samples[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
