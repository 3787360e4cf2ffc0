"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that the input generator is deterministic for a seed and that
another seed changes the trips, and that run.py, on the tiny generated
scenario, emits exactly the metrics BENCHMARK.json names, each with its
unit, under --trace 0 and --trace 1. Exits 0 when every check passes;
takes about fifteen seconds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check_generator(work: Path) -> list[str]:
    problems = []
    for name in ("tiny", *workloads.BENCHMARK_WORKLOADS):
        first = files(workloads.write_scenario(name, 7, work / f"{name}-a").parent)
        again = files(workloads.write_scenario(name, 7, work / f"{name}-b").parent)
        other = files(workloads.write_scenario(name, 8, work / f"{name}-c").parent)
        if first != again:
            problems.append(f"{name}: seed 7 generated different files twice")
        if first["trips.csv"] == other["trips.csv"]:
            problems.append(f"{name}: seeds 7 and 8 generated the same trips")
    return problems


def check_metrics(spec: dict, trace: int) -> list[str]:
    section = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tiny", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    label = f"run.py --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: run reported failures:\n{proc.stdout}")
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"{label}: metrics missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result.get("metrics", {}).items():
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{label}: {name} has non-numeric value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [f"BENCHMARK.json names unknown workload {w['name']}"
                for w in spec["workloads"] if w["name"] not in workloads.BENCHMARK_WORKLOADS]
    work = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    try:
        problems += check_generator(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no benchmark run is using it
        except OSError:
            pass
    problems += check_metrics(spec, 0)
    problems += check_metrics(spec, 1)
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest failed" if problems else "selftest ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
