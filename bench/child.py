"""Run one geokd command in this fresh interpreter and report its timings.

Usage: python3 bench/child.py JOB.json

JOB.json holds ``src`` (the directory that contains the ``geokd`` package),
``argv`` (the geokd command line), ``trace`` (true for a traced run),
``setup_only`` (true to stop where training would start) and ``report``
(where to write the result). The command runs in-process through
``geokd.cli.main``, so the clock starts before geokd and numpy are imported.
The report holds the exit code, ``run_s``, ``setup_s`` (until the training
call is entered), ``train_s``, this process's own peak RSS and, for a traced
run, the per-span totals. The process exits with the command's exit code.
"""

import json
import resource
import sys
import time

import tracer

START = time.perf_counter()


def main(job_path: str) -> int:
    with open(job_path) as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    from geokd import cli

    if not cli.__file__.startswith(job["src"]):
        raise SystemExit(f"geokd imported from {cli.__file__}, not from {job['src']}")
    spans = tracer.Tracer()
    spans.install_train_probe(cli, job["setup_only"])
    if job["trace"]:
        spans.install_layers()
    try:
        code = cli.main(job["argv"])
    except tracer.SetupDone:
        code = 0
    end = time.perf_counter()
    train_start, train_s = spans.train_window()
    report = {
        "exit_code": code,
        "run_s": end - START,
        "setup_s": None if train_start is None else train_start - START,
        "train_s": train_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if job["trace"]:
        report["spans"] = spans.totals()
        report["coverage"] = spans.train_coverage()
        report["pairwise_bytes"] = spans.pairwise_bytes
    with open(job["report"], "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
