"""Shared builders: small analytic networks, grids, parcels, and the
scenario files the CLI consumes."""
from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from flowscore import costs, qdta
from flowscore.indicators import congested_miles, daily_stats
from flowscore.network import METERS_PER_MILE, Link, Network, Node, save_network
from flowscore.qdta import AssignmentResult, Departures, FlowState, IntervalRecord, SolverConfig

M = METERS_PER_MILE


def straight_link(link_id, a: Node, b: Node, speed_mph, capacity_vph, fclass, lanes,
                  length_miles=None) -> Link:
    if length_miles is None:
        length_miles = math.hypot(b.x - a.x, b.y - a.y) / M
    return Link(
        link_id, a.id, b.id, length_miles, speed_mph, capacity_vph, fclass, lanes,
        ((a.x, a.y), (b.x, b.y)),
    )


def detour_geometry(a: Node, b: Node, length_miles: float):
    """Two-segment polyline from a to b whose length matches length_miles."""
    want_m = length_miles * M
    dx, dy = b.x - a.x, b.y - a.y
    chord = math.hypot(dx, dy)
    if want_m <= chord:
        return ((a.x, a.y), (b.x, b.y))
    half = want_m / 2.0
    bulge = math.sqrt(half * half - (chord / 2.0) ** 2)
    # unit normal to the chord
    nx, ny = -dy / chord, dx / chord
    mid = ((a.x + b.x) / 2.0 + nx * bulge, (a.y + b.y) / 2.0 + ny * bulge)
    return ((a.x, a.y), mid, (b.x, b.y))


def pigou_network() -> Network:
    """One OD pair, two parallel routes; the wide route never congests.

    wide:   10 mi at 10 mph, effectively infinite capacity (1.0 h always)
    narrow: 10 mi at 20 mph, capacity 1000 veh/h (0.5 h empty)
    """
    a = Node(1, 0.0, 0.0)
    b = Node(2, 10.0 * M, 0.0)
    wide = Link(1, 1, 2, 10.0, 10.0, 1e6, 1, 2, ((a.x, a.y), (b.x, b.y)))
    narrow = Link(2, 1, 2, 10.0, 20.0, 1000.0, 3, 2, detour_geometry(a, b, 10.0))
    return Network([a, b], [wide, narrow])


PIGOU_DEMAND_VPH = 3000.0


def corridor_network(capacity_vph=900.0, rows=5, cols=17, spacing_miles=0.25,
                     overlay_miles=0.30) -> Network:
    """Residential lattice with a 65 mph highway overlaid on the middle row.

    Every lattice street is 30 mph fclass 5.  The corridor links run
    between the same middle-row nodes at 65 mph fclass 1 but sweep a
    gentle arc, so the highway route is longer than the straight grid.
    """
    nodes = []
    for r in range(rows):
        for c in range(cols):
            nodes.append(Node(r * cols + c + 1, c * spacing_miles * M, r * spacing_miles * M))
    by_id = {n.id: n for n in nodes}
    links: list[Link] = []

    def add(a_id, b_id, speed, fclass, lanes, cap, length=None):
        a, b = by_id[a_id], by_id[b_id]
        if length is None:
            links.append(straight_link(len(links) + 1, a, b, speed, cap, fclass, lanes))
        else:
            links.append(Link(len(links) + 1, a_id, b_id, length, speed, cap,
                              fclass, lanes, detour_geometry(a, b, length)))

    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c + 1
            if c + 1 < cols:
                add(nid, nid + 1, 30.0, 5, 2, 600.0)
                add(nid + 1, nid, 30.0, 5, 2, 600.0)
            if r + 1 < rows:
                add(nid, nid + cols, 30.0, 5, 2, 600.0)
                add(nid + cols, nid, 30.0, 5, 2, 600.0)
    mid = rows // 2
    for c in range(cols - 1):
        nid = mid * cols + c + 1
        add(nid, nid + 1, 65.0, 1, 4, capacity_vph, length=overlay_miles)
        add(nid + 1, nid, 65.0, 1, 4, capacity_vph, length=overlay_miles)
    return Network(nodes, links)


def corridor_od(network_rows=5, network_cols=17):
    mid = network_rows // 2
    return mid * network_cols + 1, mid * network_cols + network_cols


def two_route_network() -> Network:
    """Two routes from node 1 to node 4, all speeds at or below 35 mph.

    Route A (links 1, 2): 2.0 mi at 35 mph, capacity 700.
    Route B (links 3, 4): 2.6 mi at 30 mph, capacity 1400.
    Below the fuel-optimal speed every objective's marginal cost rises
    with flow, so the assignments separate cleanly and converge fast.
    """
    n1 = Node(1, 0.0, 0.0)
    n2 = Node(2, M, 0.0)
    n3 = Node(3, 1.3 * M, -0.6 * M)
    n4 = Node(4, 2.0 * M, 0.0)
    links = [
        straight_link(1, n1, n2, 35.0, 700.0, 4, 2),
        straight_link(2, n2, n4, 35.0, 700.0, 4, 2),
        Link(3, 1, 3, 1.3, 30.0, 1400.0, 5, 2, detour_geometry(n1, n3, 1.3)),
        Link(4, 3, 4, 1.3, 30.0, 1400.0, 5, 2, detour_geometry(n3, n4, 1.3)),
    ]
    return Network([n1, n2, n3, n4], links)


def blanket_parcel(network: Network, land_use="R", parcel_id=1):
    """One parcel covering the whole network bbox, so every street that
    consults land use sees it."""
    from flowscore.typology import LandUse, Parcel

    xs = [p[0] for link in network.links for p in link.geometry]
    ys = [p[1] for link in network.links for p in link.geometry]
    pad = 50.0
    poly = (
        (min(xs) - pad, min(ys) - pad),
        (max(xs) + pad, min(ys) - pad),
        (max(xs) + pad, max(ys) + pad),
        (min(xs) - pad, max(ys) + pad),
    )
    return Parcel(parcel_id, poly, LandUse(land_use))


def grid_network(rows, cols, spacing_miles=0.5, speed_mph=30.0, capacity_vph=800.0,
                 fclass=5, lanes=2) -> Network:
    nodes = []
    for r in range(rows):
        for c in range(cols):
            nodes.append(Node(r * cols + c + 1, c * spacing_miles * M, r * spacing_miles * M))
    by_id = {n.id: n for n in nodes}
    links: list[Link] = []

    def add(a_id, b_id):
        links.append(straight_link(len(links) + 1, by_id[a_id], by_id[b_id],
                                   speed_mph, capacity_vph, fclass, lanes))

    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c + 1
            if c + 1 < cols:
                add(nid, nid + 1)
                add(nid + 1, nid)
            if r + 1 < rows:
                add(nid, nid + cols)
                add(nid + cols, nid)
    return Network(nodes, links)


def perf_network() -> Network:
    """50x50 grid plus 100 diagonal shortcut pairs: exactly 10,000 links."""
    rows = cols = 50
    net = grid_network(rows, cols, spacing_miles=0.5)
    nodes = list(net.nodes)
    links = list(net.links)
    by_id = net.node_by_id
    diag_len = 0.5 * math.sqrt(2.0)
    for a in range(10):
        for b in range(10):
            r, c = 5 * a + 1, 5 * b + 1
            nid = r * cols + c + 1
            other = (r + 1) * cols + (c + 1) + 1
            for u, v in ((nid, other), (other, nid)):
                links.append(
                    straight_link(len(links) + 1, by_id[u], by_id[v], 45.0, 1200.0, 3, 2,
                                  length_miles=diag_len)
                )
    assert len(links) == 10_000
    return Network(nodes, links)


def perf_trips(n_trips=100_000, seed=42, rows=50, cols=50) -> Departures:
    """Morning-heavy demand between 64 zone centroids.

    Destinations are adjacent zones only (3 mi hauls) so congestion, not
    distance, decides whether a trip spills into the next interval.
    """
    rng = np.random.default_rng(seed)
    zone_rc = 3 + 6 * np.arange(8)
    origins = rng.integers(0, zone_rc.size ** 2, size=n_trips)
    offsets = np.array(((-1, 0), (1, 0), (0, -1), (0, 1)))
    pick = rng.integers(0, len(offsets), size=n_trips)
    peak = rng.random(n_trips) < 0.6
    depart_peak = rng.uniform(6.5 * 3600, 9.5 * 3600, size=n_trips)
    depart_flat = rng.uniform(0.0, 86_400.0 - 1.0, size=n_trips)
    zr, zc = zone_rc[origins // zone_rc.size], zone_rc[origins % zone_rc.size]
    dr, dc = offsets[pick].T
    tr, tc = zr + 6 * dr, zc + 6 * dc
    inside = (zone_rc[0] <= tr) & (tr <= zone_rc[-1]) & (zone_rc[0] <= tc) & (tc <= zone_rc[-1])
    tr, tc = np.where(inside, tr, zr - 6 * dr), np.where(inside, tc, zc - 6 * dc)
    return Departures(np.arange(1, n_trips + 1), zr * cols + zc + 1, tr * cols + tc + 1,
                      np.where(peak, depart_peak, depart_flat))


def uniform_trips(origin, destination, count, start_s, spacing_s=1.0, first_id=1) -> Departures:
    return Departures(np.arange(first_id, first_id + count), np.full(count, origin),
                      np.full(count, destination), start_s + np.arange(count) * spacing_s)


def departures(*rows) -> Departures:
    """A Departures table of (trip_id, origin, destination, depart_s) rows."""
    return Departures(*map(list, zip(*rows)))


def joined(*tables) -> Departures:
    """The rows of each Departures table, one table after the other."""
    return Departures(*(np.concatenate([getattr(t, f.name) for t in tables])
                        for f in dataclasses.fields(Departures)))


def square(cx, cy, half):
    return ((cx - half, cy - half), (cx + half, cy - half),
            (cx + half, cy + half), (cx - half, cy + half))


def write_parcels_geojson(path, parcels) -> None:
    features = []
    for p in parcels:
        ring = [[float(x), float(y)] for x, y in p.polygon]
        ring.append(ring[0])
        features.append(
            {
                "type": "Feature",
                "properties": {"parcel_id": p.id, "land_use": p.land_use.value},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        )
    with open(path, "w") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)


def write_tracts_geojson(path, tracts) -> None:
    features = []
    for t in tracts:
        ring = [[float(x), float(y)] for x, y in t.polygon]
        ring.append(ring[0])
        features.append(
            {
                "type": "Feature",
                "properties": {
                    "tract_id": t.id,
                    "population": t.population,
                    "is_coc": int(t.is_coc),
                },
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        )
    with open(path, "w") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)


def write_schools_csv(path, schools) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["school_id", "x", "y", "pct_minority"])
        for s in schools:
            writer.writerow([s.id, repr(float(s.x)), repr(float(s.y)),
                             repr(float(s.pct_minority))])


def write_trips_csv(path, trips) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trip_id", "origin", "destination", "depart_s"])
        writer.writerows(zip(trips.trip_id.tolist(), trips.origin.tolist(),
                             trips.destination.tolist(), map(repr, trips.depart_s.tolist())))


def write_scenario(dirpath, network, trips, parcels=(), schools=(), tracts=(),
                   config_overrides=None) -> str:
    """Lay out a complete scenario directory; returns the config path."""
    dirpath.mkdir(parents=True, exist_ok=True)
    save_network(network, str(dirpath / "nodes.csv"), str(dirpath / "links.csv"))
    write_trips_csv(dirpath / "trips.csv", trips)
    write_parcels_geojson(dirpath / "parcels.geojson", parcels)
    write_schools_csv(dirpath / "schools.csv", schools)
    write_tracts_geojson(dirpath / "tracts.geojson", tracts)
    config = {
        "nodes": "nodes.csv",
        "links": "links.csv",
        "trips": "trips.csv",
        "parcels": "parcels.geojson",
        "schools": "schools.csv",
        "tracts": "tracts.geojson",
        "out_dir": "out",
    }
    if config_overrides:
        config.update(config_overrides)
    config_path = dirpath / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return str(config_path)


def assignment_of(network, states, trips, interval_s=900.0) -> AssignmentResult:
    """A day of hand-made FlowStates as `run_day` keeps one: an interval
    record per state, and no link entered where a state sets none."""
    no_entries = np.zeros(network.n_links, dtype=np.int64)
    intervals = [IntervalRecord.of(dataclasses.replace(
        fs, entered=no_entries if fs.entered is None else fs.entered)) for fs in states]
    return AssignmentResult(states[0].objective, SolverConfig(interval_s=interval_s), intervals,
                            trips, no_entries, network)


def assigned_day(network, trips, objective, config):
    """`run_day`'s result, and the FlowStates its `assign_interval` calls
    returned, with `entered` as `run_day` set it."""
    states, assign = [], qdta.assign_interval

    def keep(*args, **kwargs):
        states.append(assign(*args, **kwargs))
        return states[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qdta, "assign_interval", keep)
        result = qdta.run_day(network, trips, objective, config)
    return result, states


def assert_same_states(got, want) -> None:
    """FlowStates equal field by field, arrays in dtype and bytes."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(FlowState):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
            else:
                assert x == y, f.name


def assert_dense_figures(result, states, window_s=(25_200.0, 32_400.0)) -> None:
    """daily_stats, the two flow totals and conservation() of a day equal,
    with ==, the formulas over whole link rows of its dense states."""
    net, config = result.network, result.config
    stats = daily_stats(result)
    flows = np.stack([fs.flow_vph for fs in states])
    veh = flows * result.interval_h
    adt, vhd = np.zeros(net.n_links), np.zeros(net.n_links)
    for veh_row, fs in zip(veh, states):
        adt += veh_row
        vhd += veh_row * (fs.time_h - net.free_flow_h)
    k = np.arange(len(states))
    sel = (k * result.interval_s < window_s[1]) & ((k + 1) * result.interval_s > window_s[0])
    want = {
        "adt": adt,
        "vhd": vhd,
        "vmt": adt * net.length_miles,
        "window_vmt": (flows[sel].sum(axis=0) * result.interval_h) * net.length_miles,
    }
    got = {"adt": stats.adt, "vhd": stats.vhd, "vmt": stats.vmt,
           "window_vmt": stats.window_vmt(window_s)}
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    congested = ((flows[sel] / net.capacity_vph) >= 1.0).any(axis=0)
    assert congested_miles(stats, window_s) == float(net.length_miles[congested].sum())

    assert result.total_system_time_h() == float(
        sum((fs.flow_vph * fs.time_h).sum() for fs in states) * result.interval_h)
    fuel = 0.0
    for fs in states:
        v = np.clip(fs.speed_mph, config.speed_floor_mph, config.speed_cap_mph)
        per_mile = np.asarray(costs.fuel_per_mile(v, config.fuel))
        fuel += float((fs.flow_vph * net.length_miles * per_mile).sum())
    assert result.total_fuel_from_flows() == fuel * result.interval_h

    trip_miles = sum(result.trips.distance_miles.tolist())
    entry_total = result.forced_entered.astype(float).copy()
    for fs in states:
        entry_total += fs.entered
    link_miles = float((entry_total * net.length_miles).sum())
    scale = max(abs(trip_miles), abs(link_miles), 1e-12)
    assert result.conservation() == (trip_miles, link_miles,
                                     abs(trip_miles - link_miles) / scale)
