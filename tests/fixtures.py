"""Shared builders: small analytic networks, grids, parcels, and the
scenario files the CLI consumes."""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from typing import NamedTuple

import numpy as np
import pytest

from flowscore import costs, geo, qdta
from flowscore.costs import DEFAULT_BPR, DEFAULT_FUEL
from flowscore.geo import Tracts, links_within_radii
from flowscore.indicators import INDICATOR_NAMES, Schools, congested_miles, daily_stats
from flowscore.network import LINK_COLUMNS, METERS_PER_MILE, NODE_COLUMNS, Network, write_csv
from flowscore.qdta import (AssignmentResult, DayFlows, Departures, FlowState, IntervalRecord,
                            Objective, SolverConfig)
from flowscore.typology import LandUse, Parcels

from geo_reference import polygon_area, polylines_of
from qdta_reference import conservation

M = METERS_PER_MILE


class Node(NamedTuple):
    """One row of a nodes table."""

    id: int
    x: float
    y: float


class Link(NamedTuple):
    """One row of a links table: one directed road segment."""

    id: int
    from_node: int
    to_node: int
    length_miles: float
    speed_mph: float
    capacity_vph: float
    fclass: int
    lanes: int
    geometry: tuple[tuple[float, float], ...]


def network(nodes, links) -> Network:
    """The Network of these Node and Link rows, in order."""
    def columns(names, rows):
        return {name: [row[k] for row in rows] for k, name in enumerate(names)}

    links = columns(LINK_COLUMNS, links)
    links["wkt_geometry"] = flat(links["wkt_geometry"])
    return Network(columns(NODE_COLUMNS, nodes), links)


def flat(shapes):
    """Every point of these point sequences as one (N, 2) array, and each
    sequence's point count: the form the vertex tables are built from."""
    shapes = list(shapes)
    points = [point for shape in shapes for point in shape]
    return np.array(points, dtype=float).reshape(-1, 2), [len(shape) for shape in shapes]


def vertex_table(shapes, closed: bool) -> geo._Shapes:
    """The vertex table of these point sequences, rings if closed."""
    return geo._Shapes(*flat(shapes), closed)


def nodes_of(net: Network) -> list[Node]:
    """The network's nodes as rows, in row order."""
    return list(map(Node, net.node_ids.tolist(), net.node_x.tolist(), net.node_y.tolist()))


def links_of(net: Network) -> list[Link]:
    """The network's links as rows, in row order."""
    return list(map(Link, net.link_ids.tolist(), net.node_ids[net.link_from].tolist(),
                    net.node_ids[net.link_to].tolist(), net.length_miles.tolist(),
                    net.speed_mph.tolist(), net.capacity_vph.tolist(), net.fclass.tolist(),
                    net.lanes.tolist(), polylines_of(net.lines)))


class Parcel(NamedTuple):
    """One row of a parcels table: a land parcel polygon with a coarse use code."""

    id: int
    polygon: tuple[tuple[float, float], ...]
    land_use: LandUse

    @property
    def area(self) -> float:
        return polygon_area(self.polygon)


class Tract(NamedTuple):
    """One row of a tracts table."""

    id: int
    polygon: tuple[tuple[float, float], ...]
    population: float
    is_coc: bool


class School(NamedTuple):
    """One row of a schools table."""

    id: int
    x: float
    y: float
    pct_minority: float


def _columns(row_type, rows):
    return ([getattr(row, name) for row in rows] for name in row_type._fields)


def parcel_table(rows) -> Parcels:
    """The Parcels table of these Parcel rows, in order."""
    ids, polygons, land_use = _columns(Parcel, rows)
    return Parcels(ids, *flat(polygons), land_use)


def tract_table(rows) -> Tracts:
    """The Tracts table of these Tract rows, in order."""
    ids, polygons, population, is_coc = _columns(Tract, rows)
    return Tracts(ids, *flat(polygons), population, is_coc)


def school_table(rows) -> Schools:
    """The Schools table of these School rows, in order."""
    return Schools(*_columns(School, rows))


def polygons_of(rings) -> list[tuple[tuple[float, float], ...]]:
    """Each ring of a closed vertex table as a polygon, without the closing point."""
    return [tuple(zip(rings.x[a:a + n].tolist(), rings.y[a:a + n].tolist()))
            for a, n in zip(rings.first.tolist(), rings.n_segments.tolist())]


def parcels_of(parcels: Parcels) -> list[Parcel]:
    """The table's parcels as rows, in row order."""
    return list(map(Parcel, parcels.ids.tolist(), polygons_of(parcels.rings),
                    parcels.land_use.tolist()))


def tracts_of(tracts: Tracts) -> list[Tract]:
    """The table's tracts as rows, in row order."""
    return list(map(Tract, tracts.ids.tolist(), polygons_of(tracts.rings),
                    tracts.population.tolist(), tracts.is_coc.tolist()))


def schools_of(schools: Schools) -> list[School]:
    """The table's schools as rows, in row order."""
    return list(map(School, schools.ids.tolist(), schools.x.tolist(), schools.y.tolist(),
                    schools.pct_minority.tolist()))


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
    return network([a, b], [wide, narrow])


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
    return network(nodes, links)


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
    return network([n1, n2, n3, n4], links)


def blanket_parcel(net: Network, land_use="R", parcel_id=1) -> Parcel:
    """One parcel covering the whole network bbox, so every street that
    consults land use sees it."""
    xs, ys = net.lines.x.tolist(), net.lines.y.tolist()
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
    return network(nodes, links)


def perf_network() -> Network:
    """50x50 grid plus 100 diagonal shortcut pairs: exactly 10,000 links."""
    rows = cols = 50
    net = grid_network(rows, cols, spacing_miles=0.5)
    nodes = nodes_of(net)
    links = links_of(net)
    by_id = {n.id: n for n in nodes}
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
    return network(nodes, links)


def perf_trips(n_trips=100_000, seed=42, rows=50, cols=50) -> Departures:
    """Morning-heavy demand between zone centroids on a square grid of
    rows x cols nodes: every sixth row and column from the fourth, so 64
    zones on the 50 x 50 grid.

    Destinations are adjacent zones only (3 mi hauls) so congestion, not
    distance, decides whether a trip spills into the next interval.
    """
    rng = np.random.default_rng(seed)
    zone_rc = np.arange(3, min(rows, cols), 6)
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


def school_buffers(network: Network, schools: Schools, radius_m=250.0) -> list[np.ndarray]:
    """Each school's buffer, its link rows in link-id order, joined as the
    command line joins it; 250 m is the default config's school_radius_m."""
    return links_within_radii(np.column_stack([schools.x, schools.y]), radius_m, network)


def buffer_ids(network: Network, buffers) -> list[list[int]]:
    """Each buffer's link rows as the links' ids, in the buffer's order."""
    return [network.link_ids[rows].tolist() for rows in buffers]


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


def format_wkt_linestring(points) -> str:
    inner = ", ".join(f"{repr(float(x))} {repr(float(y))}" for x, y in points)
    return f"LINESTRING ({inner})"


def save_network(net: Network, nodes_path: str, links_path: str) -> None:
    """Write the network back out; load_network(save_network(n)) == n."""
    write_csv(nodes_path, NODE_COLUMNS,
              ([node.id, repr(float(node.x)), repr(float(node.y))] for node in nodes_of(net)))
    write_csv(links_path, LINK_COLUMNS, (
        [
            link.id,
            link.from_node,
            link.to_node,
            repr(float(link.length_miles)),
            repr(float(link.speed_mph)),
            repr(float(link.capacity_vph)),
            link.fclass,
            link.lanes,
            format_wkt_linestring(link.geometry),
        ]
        for link in links_of(net)
    ))


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


def assignment_of(network, states, trips, interval_s=900.0, objective=Objective.UET,
                  entered=None) -> AssignmentResult:
    """A day of hand-made FlowStates as `run_day` keeps one: an interval
    record per state, with entered[k] the entry counts of state k, and no
    link entered when entered is None, and the states' flow table, which
    holds a link when its flow is not zero by its bits."""
    no_entries = np.zeros(network.n_links, dtype=np.int64)
    intervals = [IntervalRecord.of(fs, no_entries if entered is None else entered[k])
                 for k, fs in enumerate(states)]
    flows = np.stack([fs.flow_vph for fs in states])
    day = flow_table(flows, np.stack([fs.time_h for fs in states]), flows.view(np.int64) != 0)
    return AssignmentResult(objective, SolverConfig(interval_s=interval_s), intervals, day, trips,
                            no_entries, network)


def flow_table(flows, times, keep=None) -> DayFlows:
    """The DayFlows of dense (interval x link) flows and times that holds
    the links keep marks in each interval, every link when keep is None."""
    keep = np.ones(flows.shape, dtype=bool) if keep is None else keep
    return DayFlows(np.concatenate(([0], np.cumsum(keep.sum(axis=1)))),
                    np.nonzero(keep)[1].astype(np.int32), flows[keep], times[keep])


def assigned_day(network, trips, objective, config):
    """`run_day`'s result, the FlowStates its `assign_interval` calls
    returned, and the entry counts its `advance_trips` calls returned."""
    states, entered = [], []
    assign, advance = qdta.assign_interval, qdta.advance_trips

    def keep_state(*args, **kwargs):
        states.append(assign(*args, **kwargs))
        return states[-1]

    def keep_entered(*args, **kwargs):
        walked = advance(*args, **kwargs)
        entered.append(walked[2])
        return walked

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qdta, "assign_interval", keep_state)
        mp.setattr(qdta, "advance_trips", keep_entered)
        result = qdta.run_day(network, trips, objective, config)
    return result, states, entered


def path_table(network, trips, active, link_costs):
    """The paths at link_costs of the (current node, destination) pairs of
    the `_Trips` at positions active, as an all-or-nothing load traces them."""
    od = np.unique(np.column_stack((trips.node[active], trips.dest[active])), axis=0)
    batch = qdta._DemandBatch(network, *network.node_ids[od.T], np.ones(len(od)), 1.0)
    return qdta._load_all_or_nothing(qdta.RoutingGraph(network), batch, link_costs)[2]


def marginal_fuel(length, speed, flow, capacity, floor_mph=5.0, cap_mph=90.0, fuel=DEFAULT_FUEL):
    """The `sof` link cost at flow, from the `costs` formula helpers as
    `qdta._Pricing` calls them, on links of free-flow time length / speed
    whose speed is clamped to [floor_mph, cap_mph]."""
    free_flow_h = np.divide(length, speed)
    time_h = costs._bpr(free_flow_h, flow, capacity, DEFAULT_BPR)[1]
    return costs._fuel_marginal(length, flow, time_h,
                                *costs._chain_constants(free_flow_h, capacity, DEFAULT_BPR),
                                DEFAULT_BPR, fuel, floor_mph, cap_mph)[0]


# the needs of a `RoutingGraph.shortest_paths` call that names no destination
NO_NEEDS = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))


def shortest_rows(graph, *args):
    """`graph.shortest_paths(*args)` as (pred, chosen), with one pred row
    per source, in the order asked for."""
    row, pred, chosen = graph.shortest_paths(*args)
    return pred[row], chosen


def assert_same_states(got, want) -> None:
    """FlowStates equal field by field, arrays in dtype and bytes, over the
    fields that take part in equality."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in [f for f in dataclasses.fields(FlowState) if f.compare]:
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
            else:
                assert x == y, f.name


def assert_dense_figures(result, states, entered, window_s=(25_200.0, 32_400.0)) -> None:
    """daily_stats and the conservation check of a day equal, with ==, the
    formulas over whole link rows of its dense states and each interval's
    entry counts."""
    net, config = result.network, result.config
    stats = daily_stats(result)
    flows = np.stack([fs.flow_vph for fs in states])
    veh = flows * config.interval_h
    adt, vhd = np.zeros(net.n_links), np.zeros(net.n_links)
    for veh_row, fs in zip(veh, states):
        adt += veh_row
        vhd += veh_row * (fs.time_h - net.free_flow_h)
    k = np.arange(len(states))
    sel = (k * config.interval_s < window_s[1]) & ((k + 1) * config.interval_s > window_s[0])
    want = {
        "adt": adt,
        "vhd": vhd,
        "vmt": adt * net.length_miles,
        "window_vmt": (flows[sel].sum(axis=0) * config.interval_h) * net.length_miles,
    }
    got = {"adt": stats.adt, "vhd": stats.vhd, "vmt": stats.vmt,
           "window_vmt": stats.window_vmt(window_s)}
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    congested = ((flows[sel] / net.capacity_vph) >= 1.0).any(axis=0)
    assert congested_miles(stats, window_s) == float(net.length_miles[congested].sum())

    trip_miles = sum(result.trips.distance_miles.tolist())
    entry_total = result.forced_entered.astype(float).copy()
    for row in entered:
        entry_total += row
    link_miles = float((entry_total * net.length_miles).sum())
    scale = max(abs(trip_miles), abs(link_miles), 1e-12)
    assert conservation(result) == (trip_miles, link_miles, abs(trip_miles - link_miles) / scale)


def counts(result) -> dict[str, int]:
    """How many of a day's trips completed, were forced to finish, or failed."""
    return {s: int(np.count_nonzero(result.trips.status == s))
            for s in ("completed", "forced", "failed")}


def by_name(report, name: str) -> float | None:
    """The report's value of the indicator called name."""
    return report.values[INDICATOR_NAMES.index(name)]
