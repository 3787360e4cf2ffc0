"""Benchmark of `flowscore run`, end to end and per layer.

    python3 perfbench/run.py --workload desk_light --seed 1 --seconds 30 --trace 0

Run it from the root of a flowscore checkout; it imports the package
from `src/`. It writes the workload's inputs for the seed (see
workloads.py) under `.perfbench-work/`, then:

- runs `python3 -m flowscore.cli run` with `workers` = 1, one
  subprocess at a time, for --seconds and at least MIN_RUNS times, and
  reports the median CPU time `run_cpu_s` and the median peak resident
  memory `peak_rss_mb`, both from the child's own rusage, plus the
  median wall time `run_s` as information;
- before each run, times a fresh process that imports flowscore and
  loads and validates the six inputs (setup_probe.py), and reports the
  median CPU time as `setup_s`;
- checks every run: exit code 0, every trip id once in each
  trips_<obj>.csv, 15 rows in each indicators_<obj>.csv, and outputs
  byte-identical across runs of the seed;
- with --trace 1, adds one traced run (tracer.py), checks that its
  outputs match the untraced ones byte for byte, and reports the
  per-layer metrics instead of the end-to-end ones.

Every metric is printed as `name value unit`, failed checks as
`FAILED ...`; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

The gated times are CPU times (user + system). On a small shared virtual
machine the host takes the CPU away for stretches, so the wall time of
one run swings by a fifth or more; CPU time leaves that out and swings
only with the speed the host gives while the run is on the CPU. The
program runs one process (`workers` = 1), so the two agree on a quiet
machine.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_RUNS = 3  # at least three samples for each median; outputs of two runs must agree
TOTAL_BUDGET_S = 170.0  # the whole invocation must end within 180 s
N_INDICATORS = 15

END_TO_END = {"run_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# End-to-end in meaning, but without a regression bound: wall time swings
# with the host's load, and the outcome counts are 0, or pinned at the gap
# tolerance, on some workloads or vary from seed to seed by more than any
# bound allows. They are reported with the per-layer metrics and printed
# as information otherwise.
RUN_SUMMARY = {
    "run_s": "s",
    "unconverged_intervals": "count",
    "worst_gap": "ratio",
    "failed_trip_share": "ratio",
    "run_error_rate": "ratio",
}

PER_LAYER = {
    **RUN_SUMMARY,
    "qdta.shortest_paths_s": "s",
    "qdta.shortest_paths_calls": "count",
    "qdta.shortest_paths_sources": "count",
    "qdta.shortest_paths_calls_in_walk": "count",
    "qdta.assign_interval_s": "s",
    "qdta.assign_interval_calls": "count",
    "qdta.fw_self_s": "s",
    "qdta.fw_iterations": "count",
    "costs.evals_in_fw": "count",
    "costs.fw_eval_s": "s",
    "qdta.advance_trips_s": "s",
    "qdta.walk_self_s": "s",
    "qdta.trips_walked": "count",
    "qdta.trips_spilled": "count",
    "qdta.forced_trips": "count",
    "qdta.run_day_s": "s",
    "qdta.run_day_self_s": "s",
    "qdta.unreachable_demand": "trips",
    "qdta.vmt_mismatch_pct": "%",
    "typology.classify_network_s": "s",
    "indicators.link_tract_ids_s": "s",
    "geo.build_link_index_s": "s",
    "geo.validate_tracts_s": "s",
    "network.load_network_s": "s",
    "qdta.load_trips_s": "s",
    "typology.load_parcels_s": "s",
    "geo.load_tracts_s": "s",
    "indicators.load_schools_s": "s",
    "indicators.build_report_s": "s",
    "indicators.school_exposure_s": "s",
    "indicators.school_exposure_calls": "count",
    "indicators.daily_stats_calls": "count",
    "cli.write_flows_csv_s": "s",
    "cli.write_trips_csv_s": "s",
    "cli.write_outputs_s": "s",
    "cli.output_bytes": "bytes",
    "trace.run_s": "s",
    "trace.run_cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_s": "s",
    "trace.unattributed_s": "s",
    "trace.missing_layers": "count",
}


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_process(args, cwd: Path, log: Path, deadline: float) -> Proc:
    """Run `python3 args...` to its end; wall time from launch to exit, CPU
    time and peak RSS from the child's rusage. Killed at the deadline
    (a perf_counter value)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *map(str, args)], cwd=cwd, env=env,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def digest(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out_dir: Path, objectives, trip_ids: list[int]) -> list[str]:
    failures = []
    for obj in objectives:
        trips = out_dir / f"trips_{obj}.csv"
        if not trips.is_file() or sorted(int(r["trip_id"]) for r in read_rows(trips)) != trip_ids:
            failures.append(f"trips_{obj}.csv does not list every trip id exactly once")
        indicators = out_dir / f"indicators_{obj}.csv"
        if not indicators.is_file() or len(read_rows(indicators)) != N_INDICATORS:
            failures.append(f"indicators_{obj}.csv does not have {N_INDICATORS} rows")
    return failures


def run_summary(out_dir: Path, config: dict) -> dict[str, float]:
    """Outcome metrics of one checked run (all runs of a seed are identical)."""
    unconverged, worst, failed, trips = 0, 0.0, 0, 0
    for obj in config["objectives"]:
        for row in read_rows(out_dir / f"convergence_{obj}.csv"):
            unconverged += row["converged"] == "0"
            worst = max(worst, float(row["relative_gap"]))
        statuses = [r["status"] for r in read_rows(out_dir / f"trips_{obj}.csv")]
        failed += statuses.count("failed")
        trips += len(statuses)
    return {
        "unconverged_intervals": unconverged,
        "worst_gap": max(worst, config["relative_gap"]),
        "failed_trip_share": failed / trips,
    }


def vmt_mismatch_pct(scenario: Path, out_dir: Path, config: dict) -> float:
    """Largest gap, over objectives, between flow-based and trip-based VMT."""
    length = {int(r["link_id"]): float(r["length_miles"]) for r in read_rows(scenario / "links.csv")}
    interval_h = config["interval_s"] / 3600.0
    worst = 0.0
    for obj in config["objectives"]:
        flow_vmt = sum(float(r["flow_vph"]) * interval_h * length[int(r["link_id"])]
                       for r in read_rows(out_dir / f"flows_{obj}.csv"))
        trip_vmt = sum(float(r["distance_miles"]) for r in read_rows(out_dir / f"trips_{obj}.csv"))
        worst = max(worst, 100.0 * abs(flow_vmt - trip_vmt) / trip_vmt)
    return worst


def benchmark(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = time.perf_counter() + TOTAL_BUDGET_S
    scenario = work / "scenario"
    config_path = workloads.write_scenario(workload, seed, scenario)
    config = json.loads(config_path.read_text())
    trip_ids = sorted(int(r["trip_id"]) for r in read_rows(scenario / "trips.csv"))
    failures: list[str] = []
    attempted = failed = 0

    setups: list[Proc] = []
    runs: list[Proc] = []
    run_errors = 0
    reference: dict[str, str] | None = None
    ref_dir = work / "out-1"
    loop_start = time.perf_counter()
    while True:
        k = len(runs) + 1
        if not trace:
            # one set-up per run, interleaved, so both sample the same stretch of machine time
            setup = run_process([BENCH / "setup_probe.py", config_path], work, work / "setup.log",
                                deadline)
            attempted += 1
            setups.append(setup)
            if setup.code != 0:
                failed += 1
                failures.append(f"setup {k}: exit code {setup.code}")
        out_dir = work / f"out-{k}"
        run = run_process(["-m", "flowscore.cli", "run", "--config", config_path, "--out", out_dir],
                          work, work / f"run-{k}.log", deadline)
        runs.append(run)
        run_failures = [] if run.code == 0 else [f"run {k}: exit code {run.code}"]
        if run.code == 0 and reference is None:
            run_failures += [f"run {k}: {f}"
                             for f in check_outputs(out_dir, config["objectives"], trip_ids)]
            if not run_failures:
                reference, ref_dir = digest(out_dir), out_dir
        elif run.code == 0 and digest(out_dir) != reference:
            run_failures.append(f"run {k}: outputs differ from the first run of this seed")
        if out_dir != ref_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        failures += run_failures
        run_errors += bool(run_failures)
        next_cost = run.wall_s * (2.5 if trace else 1.5)  # a traced run must still fit
        timed_out = time.perf_counter() - loop_start >= seconds and k >= MIN_RUNS
        if timed_out or deadline - time.perf_counter() < next_cost:
            break
    attempted += len(runs)
    failed += run_errors
    if len(runs) < MIN_RUNS:
        failures.append(f"only {len(runs)} run(s) fit in the time budget")

    summary = dict.fromkeys(RUN_SUMMARY, 0.0)
    if reference is not None:
        summary.update(run_summary(ref_dir, config))

    summary["run_s"] = statistics.median(r.wall_s for r in runs)
    run_cpu_s = statistics.median(r.cpu_s for r in runs)
    for label, procs in (("untraced runs", runs), ("set-ups", setups)):
        if procs:
            print(f"{len(procs)} {label}, CPU s:", " ".join(f"{p.cpu_s:.3f}" for p in procs),
                  "wall s:", " ".join(f"{p.wall_s:.3f}" for p in procs))
    if not trace:
        summary["run_error_rate"] = run_errors / len(runs)
        metrics = {
            "run_cpu_s": run_cpu_s,
            "setup_s": statistics.median(p.cpu_s for p in setups),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        }
        return {"failures": failures, "attempted": attempted, "failed": failed,
                "metrics": metrics, "info": summary}

    traced_dir, spans_path = work / "out-traced", work / "spans.json"
    traced_run = run_process([BENCH / "tracer.py", config_path, traced_dir, spans_path],
                             work, work / "traced.log", deadline)
    attempted += 1
    traced_failures = [] if traced_run.code == 0 else [f"traced run: exit code {traced_run.code}"]
    if traced_run.code == 0 and reference is not None and digest(traced_dir) != reference:
        traced_failures.append("traced run: outputs differ from the untraced runs")
    failures += traced_failures
    failed += bool(traced_failures)
    summary["run_error_rate"] = (run_errors + bool(traced_failures)) / (len(runs) + 1)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(summary)
    missing = []
    if spans_path.is_file():
        traced = json.loads(spans_path.read_text())
        missing = traced["missing"]
        metrics.update(tracer.summarize(traced["spans"]))
    if traced_run.code == 0 and reference is not None:
        metrics["qdta.vmt_mismatch_pct"] = vmt_mismatch_pct(scenario, traced_dir, config)
        metrics["cli.output_bytes"] = sum(f.stat().st_size for f in traced_dir.iterdir())
    metrics["trace.run_s"] = traced_run.wall_s
    metrics["trace.run_cpu_s"] = traced_run.cpu_s
    metrics["trace.overhead_s"] = traced_run.cpu_s - run_cpu_s
    metrics["trace.unattributed_s"] = traced_run.cpu_s - metrics["trace.top_level_s"]
    metrics["trace.missing_layers"] = len(missing)
    for name in missing:
        print(f"missing layer: {name} (its metrics read 0)")
    return {"failures": failures, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowscore" / "cli.py").is_file():
        print(f"no flowscore sources under {ROOT / 'src'}; run from a flowscore checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other invocation is using it
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    for name, value in result["metrics"].items():
        print(f"{name} {value} {units[name]}")
    for name, value in result["info"].items():
        print(f"{name} {value} {RUN_SUMMARY[name]} (information)")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
