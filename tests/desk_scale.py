"""Time one objective's day at criterion 10's desk scale, or at four times it.

    PYTHONPATH=src:tests python3 tests/desk_scale.py --scale 4 --objective uet

Scale 1 is criterion 10's case: `fixtures.perf_network()` (10,000 links)
and `fixtures.perf_trips()` (100,000 trips between 64 zones). Scale 4 is a
100 x 100 grid (39,600 links) with 400,000 trips between 289 zones, each
to an adjacent zone. It prints the day's CPU seconds, the CPU seconds
spent inside scipy's Dijkstra, the Dijkstra runs and sources, and the
process's peak resident memory. It is
not part of the test suite, since scale 4 runs for many seconds.
"""
from __future__ import annotations

import argparse
import resource
import time

import numpy as np

from flowscore import qdta
from fixtures import grid_network, perf_network, perf_trips


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=int, choices=(1, 4), default=4)
    parser.add_argument("--objective", choices=[o.value for o in qdta.Objective], default="uet")
    args = parser.parse_args()
    if args.scale == 1:
        net, trips = perf_network(), perf_trips()
    else:
        net, trips = grid_network(100, 100), perf_trips(400_000, rows=100, cols=100)

    dijkstra = {"runs": 0, "sources": 0, "cpu_s": 0.0}
    real = qdta._csgraph_dijkstra

    def counted(*a, **kw):
        start = time.process_time()
        try:
            return real(*a, **kw)
        finally:
            dijkstra["cpu_s"] += time.process_time() - start
            dijkstra["runs"] += 1
            dijkstra["sources"] += np.atleast_1d(kw["indices"]).size

    qdta._csgraph_dijkstra = counted
    start = time.process_time()
    result = qdta.run_day(net, trips, qdta.Objective(args.objective))
    day_s = time.process_time() - start
    print(f"scale {args.scale} {args.objective}: {net.n_links} links, {trips.trip_id.size} trips, "
          f"{result.counts()}")
    print(f"day_cpu_s {day_s:.2f} dijkstra_cpu_s {dijkstra['cpu_s']:.2f} "
          f"dijkstra_runs {dijkstra['runs']} dijkstra_sources {dijkstra['sources']} "
          f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f}")


if __name__ == "__main__":
    main()
