"""Seeded city scenarios for the flowscore benchmark.

Each workload writes the six input files that `flowscore run` reads
(nodes, links, trips, parcels, schools, tracts) plus a config.json.
The same (workload, seed) always produces byte-identical files. The
street grid is fixed per workload; the seed draws the trips, the parcel
sizes and land uses, tract attributes and school sites, so every seed
keeps the property its workload is chosen for.

This module writes the interchange formats itself rather than reusing
the package's test builders, so test edits cannot move the benchmark.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

import numpy as np

METERS_PER_MILE = 1609.344
LAND_USES = ("R", "C", "I", "P", "O")
LAND_USE_WEIGHTS = (0.45, 0.2, 0.1, 0.1, 0.15)
PEAK_WINDOW_S = (6.5 * 3600.0, 9.5 * 3600.0)
DAY_WINDOW_S = (0.0, 86_399.0)  # departures stay inside the day
LAST_INTERVAL_S = (85_500.0, 86_399.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # why the workload is in the benchmark
    keeps: str  # the property every seed must keep
    holds: Callable[[dict], bool]  # tests `keeps` on a traced run's per-layer metrics
    grid: int  # nodes per side of the square street grid
    spacing_miles: float
    diagonal_every: int  # one diagonal shortcut pair per this many rows and columns
    capacity_scale: float
    zones_per_side: int
    zone_step: int  # grid steps between adjacent zone centroids
    n_trips: int
    long_share: float  # share of trips that haul three zones instead of one
    peak_share: float  # share of departures in 06:30-09:30, the rest spread over the day
    late_trips: int  # extra long hauls leaving in the last interval, so the day ends with forced trips
    objectives: tuple[str, ...]
    max_iterations: int
    parcels_per_side: int
    tracts_per_side: int
    n_schools: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_light",
            why="The acceptance-criterion-10 city, scaled down: light zone-to-zone demand under "
            "all three objectives. It times Dijkstra from 64 zone sources, the per-trip walk "
            "and CSV writing, and bypasses the line search and the geometry joins.",
            keeps="Every interval converges in one Frank-Wolfe iteration "
            "(qdta.fw_iterations == qdta.assign_interval_calls) and no trip spills "
            "(qdta.trips_spilled == 0).",
            holds=lambda m: m["qdta.fw_iterations"] == m["qdta.assign_interval_calls"]
            and m["qdta.trips_spilled"] == 0,
            grid=17,
            spacing_miles=1.5,
            diagonal_every=5,
            capacity_scale=1.0,
            zones_per_side=8,
            zone_step=2,
            n_trips=6_000,
            long_share=0.0,
            peak_share=0.6,
            late_trips=0,
            objectives=("uet", "sot", "sof"),
            max_iterations=100,
            parcels_per_side=20,
            tracts_per_side=8,
            n_schools=30,
        ),
        Workload(
            name="desk_congested",
            why="Capacities divided by 8, demand on 16 zones with 30% three-zone hauls and a "
            "sharp morning peak, so peak intervals hit the Frank-Wolfe cap: iterations, the "
            "line search and cost evaluations dominate, long hauls spill across intervals and "
            "restart from mid-route nodes, and late departures end in forced completion.",
            keeps="Some (objective, interval) pairs stop above the gap tolerance "
            "(unconverged_intervals > 0), trips spill (qdta.trips_spilled > 0) and some are "
            "forced at the end of the day (qdta.forced_trips > 0).",
            holds=lambda m: m["unconverged_intervals"] > 0 and m["qdta.trips_spilled"] > 0
            and m["qdta.forced_trips"] > 0,
            grid=22,
            spacing_miles=0.5,
            diagonal_every=5,
            capacity_scale=1.0 / 8.0,
            zones_per_side=4,
            zone_step=6,
            n_trips=4_000,
            long_share=0.3,
            peak_share=0.85,
            late_trips=40,
            objectives=("uet", "sot", "sof"),
            max_iterations=4,
            parcels_per_side=16,
            tracts_per_side=6,
            n_schools=20,
        ),
        Workload(
            name="geometry_heavy",
            why="Many parcels and tracts on a large grid with light demand and one objective, so "
            "street classification, the link-to-tract join and tract validation, which scale "
            "with links times parcels or tracts squared, outweigh assignment.",
            keeps="typology.classify_network_s + indicators.link_tract_ids_s + "
            "geo.build_link_index_s + geo.validate_tracts_s exceeds qdta.run_day_s.",
            holds=lambda m: m["typology.classify_network_s"] + m["indicators.link_tract_ids_s"]
            + m["geo.build_link_index_s"] + m["geo.validate_tracts_s"] > m["qdta.run_day_s"],
            grid=34,
            spacing_miles=0.5,
            diagonal_every=5,
            capacity_scale=1.0,
            zones_per_side=6,
            zone_step=6,
            n_trips=2_000,
            long_share=0.0,
            peak_share=0.6,
            late_trips=0,
            objectives=("uet",),
            max_iterations=100,
            parcels_per_side=60,
            tracts_per_side=30,
            n_schools=200,
        ),
        Workload(
            name="tiny",
            why="Seconds-long scenario for the benchmark's self-test; not a benchmark workload.",
            keeps="Runs end to end and emits every metric.",
            holds=lambda m: True,
            grid=8,
            spacing_miles=0.5,
            diagonal_every=3,
            capacity_scale=1.0,
            zones_per_side=4,
            zone_step=2,
            n_trips=300,
            long_share=0.2,
            peak_share=0.6,
            late_trips=5,
            objectives=("uet", "sot", "sof"),
            max_iterations=20,
            parcels_per_side=6,
            tracts_per_side=3,
            n_schools=4,
        ),
    )
}

BENCHMARK_WORKLOADS = ("desk_light", "desk_congested", "geometry_heavy")


def _node_id(r, c, grid):
    return r * grid + c + 1


def _wkt(points) -> str:
    return "LINESTRING (" + ", ".join(f"{x!r} {y!r}" for x, y in points) + ")"


def _write_network(w: Workload, out: Path) -> None:
    g = w.grid
    step_m = w.spacing_miles * METERS_PER_MILE
    xy = {(r, c): (c * step_m, r * step_m) for r in range(g) for c in range(g)}
    links = []

    def add(a, b, length, speed, capacity, fclass):
        links.append((_node_id(*a, g), _node_id(*b, g), length, speed, capacity * w.capacity_scale,
                      fclass, 2, _wkt((xy[a], xy[b]))))

    for r in range(g):
        for c in range(g):
            for a, b in (((r, c), (r, c + 1)), ((r, c), (r + 1, c))):
                if b in xy:
                    add(a, b, w.spacing_miles, 30.0, 800.0, 5)
                    add(b, a, w.spacing_miles, 30.0, 800.0, 5)
    diag = w.spacing_miles * math.sqrt(2.0)
    for r in range(1, g - 1, w.diagonal_every):
        for c in range(1, g - 1, w.diagonal_every):
            add((r, c), (r + 1, c + 1), diag, 45.0, 1200.0, 3)
            add((r + 1, c + 1), (r, c), diag, 45.0, 1200.0, 3)

    with open(out / "nodes.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "x", "y"])
        for (r, c), (x, y) in xy.items():
            writer.writerow([_node_id(r, c, g), repr(x), repr(y)])
    with open(out / "links.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["link_id", "from", "to", "length_miles", "speed_mph", "capacity_vph",
                         "fclass", "lanes", "wkt_geometry"])
        for link_id, (u, v, length, speed, cap, fclass, lanes, wkt) in enumerate(links, start=1):
            writer.writerow([link_id, u, v, repr(length), repr(speed), repr(cap), fclass, lanes, wkt])


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n times in [lo, hi), one drawn in each of n equal slots."""
    return lo + (np.arange(n) + rng.random(n)) * ((hi - lo) / max(n, 1))


def _write_trips(w: Workload, rng: np.random.Generator, out: Path) -> None:
    z = w.zones_per_side
    first = w.zone_step // 2
    if first + w.zone_step * (z - 1) >= w.grid:
        raise ValueError(f"{w.name}: zones do not fit on the grid")
    zones = [(r, c) for r in range(z) for c in range(z)]
    zone_node = [(first + w.zone_step * r) * w.grid + first + w.zone_step * c + 1 for r, c in zones]
    # destination zones at Manhattan distance 1 (adjacent) or 3 (long haul)
    within = {
        hops: [[k for k, (r2, c2) in enumerate(zones) if abs(r2 - r) + abs(c2 - c) == hops]
               for r, c in zones]
        for hops in (1, 3)
    }
    # Every marginal is fixed: trips per origin zone, the long-haul share,
    # departures per interval. The seed only decides which trips go
    # together, so the work in a run differs little from seed to seed.
    n, late = w.n_trips, w.late_trips
    n_peak = round(w.peak_share * n)
    src = np.concatenate((rng.permutation(np.arange(n) % len(zones)),
                          rng.permutation(np.arange(late) % len(zones))))
    long_haul = np.concatenate((rng.permutation(np.arange(n) < round(w.long_share * n)),
                                np.ones(late, dtype=bool)))
    pick = rng.permutation((np.arange(n + late) + 0.5) / (n + late))
    depart = np.concatenate((
        _stratified(rng, n_peak, *PEAK_WINDOW_S),
        _stratified(rng, n - n_peak, *DAY_WINDOW_S),
        _stratified(rng, late, *LAST_INTERVAL_S),
    ))
    with open(out / "trips.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trip_id", "origin", "destination", "depart_s"])
        for i in range(n + late):
            options = within[3 if long_haul[i] else 1][src[i]]
            dest = zone_node[options[int(pick[i] * len(options))]]
            writer.writerow([i + 1, zone_node[src[i]], dest, repr(float(depart[i]))])


def _extent(w: Workload) -> tuple[float, float]:
    """Square [lo, hi] around the street grid, shared by parcels and tracts."""
    span = (w.grid - 1) * w.spacing_miles * METERS_PER_MILE
    pad = 0.25 * w.spacing_miles * METERS_PER_MILE
    return -pad, span + pad


def _feature_collection(path: Path, features) -> None:
    with open(path, "w") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)


def _square_feature(props, x0, y0, x1, y1):
    ring = [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]
    return {"type": "Feature", "properties": props,
            "geometry": {"type": "Polygon", "coordinates": [ring]}}


def _write_parcels(w: Workload, rng: np.random.Generator, out: Path) -> None:
    lo, hi = _extent(w)
    n = w.parcels_per_side
    cell = (hi - lo) / n
    inset = rng.uniform(0.05, 0.3, size=(n * n, 4)) * cell
    uses = rng.choice(len(LAND_USES), size=n * n, p=LAND_USE_WEIGHTS)
    features = []
    for k in range(n * n):
        i, j = divmod(k, n)
        x0, y0 = lo + j * cell, lo + i * cell
        a, b, c, d = (float(v) for v in inset[k])
        props = {"parcel_id": k + 1, "land_use": LAND_USES[uses[k]]}
        features.append(_square_feature(props, x0 + a, y0 + b, x0 + cell - c, y0 + cell - d))
    _feature_collection(out / "parcels.geojson", features)


def _write_tracts(w: Workload, rng: np.random.Generator, out: Path) -> None:
    lo, hi = _extent(w)
    m = w.tracts_per_side
    edges = [lo + (hi - lo) * i / m for i in range(m + 1)]  # shared edges: tiles touch, never overlap
    population = rng.integers(500, 5000, size=m * m)
    coc = rng.random(m * m) < 0.25
    features = []
    for k in range(m * m):
        i, j = divmod(k, m)
        props = {"tract_id": k + 1, "population": int(population[k]), "is_coc": int(coc[k])}
        features.append(_square_feature(props, edges[j], edges[i], edges[j + 1], edges[i + 1]))
    _feature_collection(out / "tracts.geojson", features)


def _write_schools(w: Workload, rng: np.random.Generator, out: Path) -> None:
    lo, hi = _extent(w)
    xy = rng.uniform(lo, hi, size=(w.n_schools, 2))
    pct = np.round(rng.uniform(0.0, 100.0, size=w.n_schools), 1)
    with open(out / "schools.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["school_id", "x", "y", "pct_minority"])
        for k in range(w.n_schools):
            writer.writerow([k + 1, repr(float(xy[k, 0])), repr(float(xy[k, 1])), repr(float(pct[k]))])


def write_scenario(name: str, seed: int, out: Path) -> Path:
    """Write the workload's inputs and config into `out`; return the config path."""
    w = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(name.encode())])
    _write_network(w, out)
    _write_trips(w, rng, out)
    _write_parcels(w, rng, out)
    _write_tracts(w, rng, out)
    _write_schools(w, rng, out)
    config = {
        "nodes": "nodes.csv",
        "links": "links.csv",
        "trips": "trips.csv",
        "parcels": "parcels.geojson",
        "schools": "schools.csv",
        "tracts": "tracts.geojson",
        "out_dir": "out",
        "objectives": list(w.objectives),
        "interval_s": 900.0,
        "relative_gap": 1e-4,
        "max_iterations": w.max_iterations,
        "workers": 1,
    }
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path
