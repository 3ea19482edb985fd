#!/usr/bin/env python3
"""Repeatability check: two sets of benchmark runs of the same checkout.

Run from the repository root::

    python3 perfbench/repeatability.py              # 2 sets x 10 runs, every workload
    python3 perfbench/repeatability.py --workloads table2-grid --runs 5

It makes two sets of ``--runs`` runs per workload: the first with seeds
1..runs, the second with seeds runs+1..2*runs. Each run is ``BENCHMARK.json``'s command; runs go one after another. For every workload and end-to-end metric it prints,
per set, the median and the spread (Q3 - Q1 of the runs, as a share of
their median) next to the metric's bound, and the shift of the second
set's median against the first in the metric's worse direction. A spread
above a third of the bound, or a shift above the bound, is flagged.
``setup_s`` is exempt from the spread rule but not from the shift rule.
The raw results go to ``.perfbench_out/repeatability.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    # run.py logs each run's iteration times on stderr; keep them for diagnosis.
    result["iterations"] = [l.split("wall_s:", 1)[1].strip() for l in proc.stderr.replace("\r", "\n").splitlines()
                            if l.startswith("perfbench: ") and "iteration wall_s:" in l]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    raw: dict = {}
    ok = True
    for w in workloads:
        sets = []
        for s in range(2):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            runs = []
            for seed in seeds:
                t0 = time.monotonic()
                runs.append(run_once(spec, w, seed, spec["run_seconds"]))
                print(f"{w} set {s + 1} seed {seed} ({time.monotonic() - t0:.0f} s): "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items())
                      + f" iterations={runs[-1]['iterations']}", flush=True)
            sets.append(runs)
        raw[w] = sets
        print(f"\n{w}: spread = (Q3-Q1)/median per set; shift = set 2 median vs set 1, worse direction")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, medians = [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                sp = spread(vals) if len(vals) >= 2 else 0.0
                medians.append(statistics.median(vals))
                flag = "" if name == "setup_s" or sp <= bound / 3 else " !"
                ok &= not flag
                cells.append(f"median {medians[-1]:<10.5g} spread {sp:6.2%}{flag}")
            line = f"  {name:<14} bound {bound:5.0%} | " + " | ".join(cells)
            shift = (medians[1] - medians[0]) / medians[0]
            shift = shift if m["better"] == "lower" else -shift
            flag = " !" if shift > bound else ""
            ok &= not flag
            print(line + f" | shift {shift:+6.2%}{flag}")
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", "repeatability.json"), "w") as f:
        json.dump(raw, f)
    print("\nall spreads and shifts within bounds" if ok else "\nsome metric is outside its bound (!)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
