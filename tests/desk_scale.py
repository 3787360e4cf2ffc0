"""Time one objective's day at criterion 10's desk scale, or at four times it.

    PYTHONPATH=src:tests python3 tests/desk_scale.py --scale 4 --objective uet --repeat 1
    PYTHONPATH=src:tests python3 tests/desk_scale.py --scale 1 --congested --objective uet

Scale 1 is criterion 10's case: `fixtures.perf_network()` (10,000 links)
and `fixtures.perf_trips()` (100,000 trips between 64 zones). Scale 4 is a
100 x 100 grid (39,600 links) with 400,000 trips between 289 zones, each
to an adjacent zone. --congested divides every capacity by 8 and lets
Frank-Wolfe run up to 100 iterations per interval, so that FW, not
Dijkstra, has the work. It runs --repeat days in one process. For each
day it prints the day's CPU seconds; the CPU seconds spent inside scipy's
Dijkstra, its runs and sources, and the nodes settled (finite distances
Dijkstra returned); and the FW pricing kernel's evaluations and the CPU
seconds spent in them. It then writes the day's flows and trips CSVs, as
`flowscore run` does, into a temporary directory, and prints each
writer's CPU seconds and the bytes it wrote. It also prints the rows of
the day's flow table, the CPU seconds of scoring's flow inputs
(`indicators.daily_stats`, the morning and school windows' `window_vmt`
and `congested_miles`), and the CPU seconds of `cli.read_flows_csv` and
of `cli.read_trips_csv` on the files written (`read_flows_csv_cpu_s`
and `read_trips_csv_cpu_s`), and of `cli.read_trips_csv` on a copy of the
trips file whose last row's `start_s` is `abc`
(`read_trips_csv_error_cpu_s`), checking that the LoadError names that row.
Then it prints the median day CPU seconds and the process's peak resident
memory, and the CPU seconds and peak resident memory of a fresh
`python -c "import flowscore.cli"`, which every command pays before it
starts (`import_cli_cpu_s` and `import_cli_peak_rss_mb`). It is not part
of the test suite, since scale 4 and --congested run for many seconds.
"""
from __future__ import annotations

import argparse
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# flowscore first, so its one-thread BLAS setting is in place before numpy loads
from flowscore import cli, indicators, qdta
from flowscore.network import LoadError
from fixtures import (counts, grid_network, links_of, network, nodes_of, perf_network,
                      perf_trips)

import numpy as np


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=int, choices=(1, 4), default=4)
    parser.add_argument("--objective", choices=[o.value for o in qdta.Objective], default="uet")
    parser.add_argument("--repeat", type=int, default=1, help="days to run (default 1)")
    parser.add_argument("--congested", action="store_true",
                        help="capacities / 8 and max_iterations 100")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.scale == 1:
        net, trips = perf_network(), perf_trips()
    else:
        net, trips = grid_network(100, 100), perf_trips(400_000, rows=100, cols=100)
    config = qdta.SolverConfig()
    if args.congested:
        net = network(nodes_of(net), [link._replace(capacity_vph=link.capacity_vph / 8.0)
                                      for link in links_of(net)])
        config = qdta.SolverConfig(max_iterations=100)

    real = qdta._csgraph_dijkstra

    def counted(*a, **kw):
        start = time.process_time()
        dist, pred = real(*a, **kw)
        stop = time.process_time()
        dijkstra["cpu_s"] += stop - start
        dijkstra["runs"] += 1
        dijkstra["sources"] += np.atleast_1d(kw["indices"]).size
        dijkstra["settled"] += int(np.count_nonzero(np.isfinite(dist)))
        dijkstra["counting_s"] += time.process_time() - stop
        return dist, pred

    def counted_pricing(*a, **kw):
        start = time.process_time()
        out = real_price(*a, **kw)
        stop = time.process_time()
        pricing["cpu_s"] += stop - start
        pricing["evals"] += 1
        pricing["counting_s"] += time.process_time() - stop
        return out

    qdta._load_scipy()  # routing's import, which the first day would otherwise pay
    qdta._csgraph_dijkstra = counted
    real_price, qdta._Pricing._price = qdta._Pricing._price, counted_pricing
    days = []
    for k in range(args.repeat):
        dijkstra = dict.fromkeys(("runs", "sources", "settled", "cpu_s", "counting_s"), 0)
        pricing = dict.fromkeys(("evals", "cpu_s", "counting_s"), 0)
        start = time.process_time()
        result = qdta.run_day(net, trips, qdta.Objective(args.objective), config)
        days.append(time.process_time() - start - dijkstra["counting_s"] - pricing["counting_s"])
        if k == 0:
            print(f"scale {args.scale}{' congested' if args.congested else ''} {args.objective}: "
                  f"{net.n_links} links, {trips.trip_id.size} trips, {counts(result)}")
        print(f"day {k + 1}: day_cpu_s {days[-1]:.2f} dijkstra_cpu_s {dijkstra['cpu_s']:.2f} "
              f"dijkstra_runs {dijkstra['runs']} dijkstra_sources {dijkstra['sources']} "
              f"settled_nodes {dijkstra['settled']} pricing_cpu_s {pricing['cpu_s']:.2f} "
              f"pricing_evals {pricing['evals']}")
        start = time.process_time()
        stats = indicators.daily_stats(result)
        for window in (indicators.MORNING_PEAK_S, indicators.SCHOOL_MORNING_S):
            stats.window_vmt(window)
        indicators.congested_miles(stats, indicators.MORNING_PEAK_S)
        print(f"  flow_rows {result.flows.links.size} "
              f"link_stats_cpu_s {time.process_time() - start:.4f}")
        with tempfile.TemporaryDirectory() as out:
            for name, write in (("flows", cli.write_flows_csv), ("trips", cli.write_trips_csv)):
                path = Path(out) / f"{name}_{args.objective}.csv"
                start = time.process_time()
                write(path, result)
                print(f"  write_{name}_csv_cpu_s {time.process_time() - start:.3f} "
                      f"{name}_bytes {path.stat().st_size}")
            start = time.process_time()
            cli.read_flows_csv(Path(out) / f"flows_{args.objective}.csv", net, config)
            print(f"  read_flows_csv_cpu_s {time.process_time() - start:.3f}")
            start = time.process_time()
            cli.read_trips_csv(Path(out) / f"trips_{args.objective}.csv")
            print(f"  read_trips_csv_cpu_s {time.process_time() - start:.3f}")
            bad = Path(out) / "trips_bad.csv"
            text = (Path(out) / f"trips_{args.objective}.csv").read_bytes()
            head, last = text.removesuffix(b"\r\n").rsplit(b"\r\n", 1)
            cells = last.split(b",")
            cells[cli.TRIP_COLUMNS.index("start_s")] = b"abc"
            bad.write_bytes(head + b"\r\n" + b",".join(cells) + b"\r\n")
            error, start = None, time.process_time()
            try:
                cli.read_trips_csv(bad)
            except LoadError as exc:
                error = str(exc)
            print(f"  read_trips_csv_error_cpu_s {time.process_time() - start:.3f}")
            assert error == (f"start_s 'abc' is not a finite number in {bad}, "
                             f"row {result.trips.trip_id.size + 1}"), error
    print(f"median_day_cpu_s {statistics.median(days):.3f} over {args.repeat} days "
          f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f}")
    print(subprocess.run([sys.executable, "-c", _IMPORT_CLI], capture_output=True, text=True,
                         check=True).stdout, end="")


# A child's peak RSS counts the memory of the process it was forked from, so a
# bare interpreter, not this one, starts the process that imports the CLI.
_IMPORT_CLI = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", "import flowscore.cli"], os.environ)
_, status, usage = os.wait4(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print(f"import_cli_cpu_s {usage.ru_utime + usage.ru_stime:.3f} "
      f"import_cli_peak_rss_mb {usage.ru_maxrss / 1024:.1f}")
"""


if __name__ == "__main__":
    main()
