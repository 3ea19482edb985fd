#!/usr/bin/env python3
"""Benchmark command for the GBABS reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload table2-grid --seed 1 --seconds 12 --trace 0

It starts Spark through ``repro.harness.session.get_session`` with the
master pinned to ``local[N]`` (N = min(4, usable cores)) and ``src`` on
the workers' ``PYTHONPATH``, sets the workload up several times, times warm
iterations for ``--seconds``, checks the outputs, and prints one JSON
object as its last line. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics. The exit code is
0 only when the output check passed. Spark's scratch files, and the spans
of a traced run, go to ``.perfbench_out/`` under the working directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import time
import traceback

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench_out")
CORES = max(1, min(4, len(os.sched_getaffinity(0))))
# Set-up (session, inputs, warm-up call) runs this often. Only the first
# launches the JVM and the Python workers; the second finds them running
# and warms the JIT further. setup_s is everything from the start of this
# script to the first timed iteration, the cold start included.
SETUPS = 2
# Timed iterations run for --seconds, but never fewer than this many, so that
# a grid whose iteration takes half the window still reports a median of three.
MIN_ITERATIONS = 3


def make_workload(name: str):
    from repro.classifiers import CLASSIFIER_NAMES
    from workloads import GridWorkload, SparkGbabsWorkload

    if name == "table2-grid":
        return GridWorkload(name, dict(
            datasets=None, noises=[0.0], methods=["GBABS", "GGBS", "SRS", "none"],
            classifiers=["DT"], n_splits=2),
            warmup={"datasets": ["S1", "S2", "S3"]}, checked_tasks=2)
    if name == "table4-grid":
        return GridWorkload(name, dict(
            datasets=["S1", "S2"], noises=[0.1, 0.2, 0.3, 0.4], methods=["GBABS"],
            classifiers=list(CLASSIFIER_NAMES), n_splits=2),
            warmup={"noises": [0.1, 0.2], "classifiers": ["DT"]}, checked_tasks=1)
    if name == "spark-gbabs":
        return SparkGbabsWorkload(rows=6000, features=8, classes=2, clusters=6, slice_rows=1000,
                                  warmups=2, traced_calls=3)
    raise SystemExit(f"unknown workload {name!r}")


def configure_environment() -> None:
    """Pin the master and worker PYTHONPATH; keep every scratch file in ``OUT``.

    Spark's local dirs, Python's and the JVM's temporary directories move
    under the working directory, and ``-XX:-UsePerfData`` stops the JVM from
    writing its ``hsperfdata`` file to ``/tmp``, so that a run writes nothing
    outside the working directory. No Spark configuration value changes.
    """
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    src = os.path.join(ROOT, "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["TMPDIR"] = tmp
    java_opts = shlex.quote(f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-java-options {java_opts} pyspark-shell")
    sys.path[:0] = [src, HERE]


def log(msg: str) -> None:
    print(f"perfbench: [{time.perf_counter() - T0:6.1f} s] {msg}", file=sys.stderr, flush=True)


def start_session():
    from repro.harness.session import get_session

    return get_session("perfbench")


def stop_everything(spark) -> None:
    """Stop Spark and the JVM, then wait until no descendant process is left."""
    from procstat import tree_pids
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    spark.stop()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    # The JVM's Python daemon and workers are not our children, so they are
    # polled for rather than waited on; stragglers are killed after 30 s.
    deadline = time.monotonic() + 30
    while left := [p for p in tree_pids() if p != os.getpid()]:
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:  # it ended meanwhile
                    pass
        time.sleep(0.2)


def measure(workload, seconds: float):
    """Untraced warm iterations until ``seconds`` have passed and at least
    ``MIN_ITERATIONS`` have run."""
    from procstat import cpu_seconds

    results, cpu, failed_ops = [], [], 0
    start = time.perf_counter()
    i = 0
    while True:
        c0 = cpu_seconds()
        try:
            results.append(workload.iteration(f"iteration-{i}"))
            cpu.append(cpu_seconds() - c0)
        except Exception:  # a failed iteration is counted, and the run goes on
            traceback.print_exc()
            failed_ops += workload.ops
        i += 1
        if i >= MIN_ITERATIONS and time.perf_counter() - start >= seconds:
            return results, cpu, failed_ops, i


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or not os.path.isfile(spec_path):
        print("perfbench: run from the repository root (src/repro and BENCHMARK.json "
              "are missing here)", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)

    configure_environment()
    from procstat import peak_rss_mb

    workload = make_workload(args.workload)
    setups, spark = [], None
    try:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            spark = start_session()
            workload.prepare(spark, args.seed, CORES)
            setups.append(time.perf_counter() - t0)
        setup_s = time.perf_counter() - T0

        log(f"setup_s {setup_s:.2f}, of which set-ups: {[round(t, 2) for t in setups]}")
        results, cpu, failed_ops, iterations = measure(workload, args.seconds)
        rss = peak_rss_mb()
        log(f"iteration wall_s: {[round(r.wall, 3) for r in results]}")
        log(f"iteration spark counts: {[r.spark for r in results]}")
        t0 = time.perf_counter()
        errors = workload.check(results) if results else ["no iteration succeeded"]
        log(f"check took {time.perf_counter() - t0:.1f} s")
        wall = statistics.median(r.wall for r in results) if results else float("nan")
        spark_tasks = sum(r.spark["tasks"] for r in results)
        spark_failed = sum(r.spark["failed"] for r in results)
        attempted = iterations * workload.ops + spark_tasks
        failed = failed_ops + spark_failed

        if args.trace:
            values, tracer, trace_errors = workload.traced(results, wall)
            errors += trace_errors
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
            wanted = spec["per_layer"]
        else:
            values = {
                "wall_s": (wall, "s"),
                "cpu_s": (statistics.median(cpu), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss, "MB"),
                "ok_share": (1.0 - failed / attempted, "share"),
                **workload.metrics(results, wall),
            }
            wanted = spec["end_to_end"]
    finally:
        if spark is not None:
            stop_everything(spark)
        log("stopped")

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        # Layers a workload never calls report 0 (e.g. classifiers on spark-gbabs).
        value, unit = values.get(m["name"], (0, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
