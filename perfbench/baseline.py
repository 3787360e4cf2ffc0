"""Measure the benchmark's baseline and its seed-to-seed spread.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json --label "commit abc123"

For every workload in BENCHMARK.json it makes `--runs` untraced runs of
run.py, with seeds 1..runs, and one traced run with seed 1. For each
end-to-end metric it records the values, their median and quartiles
(statistics.quantiles(values, n=4)) and the spread: the quartile
distance as a share of the median, which should stay below a third of
the metric's bound. It records the traced run's per-layer metrics,
whether the workload keeps the property it was chosen for, and the
machine. Run it from the root of a flowscore checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))

    report = {
        "label": args.label,
        "measured_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        results = [bench_run(name, seed, seconds, 0) for seed in seeds]
        traced = bench_run(name, 1, seconds, 1)
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            end_to_end[m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "values": values,
            }
            print(f"{name} {m['name']}: median {median:.4g} {m['unit']}, spread {spread:.3f} "
                  f"(bound {m['bound']})", flush=True)
        per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
        keeps = workloads.WORKLOADS[name].holds(per_layer)
        correct = all(r["correct"] for r in results) and traced["correct"]
        ok = ok and keeps and correct
        print(f"{name}: correct {correct}, keeps its property {keeps}", flush=True)
        report["workloads"][name] = {
            "why": workloads.WORKLOADS[name].why,
            "keeps": workloads.WORKLOADS[name].keeps,
            "keeps_holds": keeps,
            "correct": correct,
            "end_to_end": end_to_end,
            "per_layer_seed_1": {k: {"value": v["value"], "unit": v["unit"]}
                                 for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
