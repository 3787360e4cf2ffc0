"""References that tests compare the solver against.

The link pricing that `qdta._Pricing` replaced, built from the closed
forms in `costs_reference` and priced over whole vectors: `cost_vector`,
`objective_value` and the bisection `line_search`. And a day's dense
per-interval states, rebuilt from the flow table and the interval
records that `run_day` keeps: time and speed come from `bpr_time` on the same
flows, and cost from `cost_vector`, so a rebuilt state has the bits of
the state `assign_interval` returned. And `conservation`, the day's trip
miles against the miles its link entries add up to. And
`shortest_distances`, a heapq Dijkstra over the network's own links that
shares no code with `qdta.RoutingGraph` or scipy.
"""
import heapq
import math

import numpy as np

from flowscore import qdta
from flowscore.qdta import FlowState, Objective

from costs_reference import (bpr_integral, bpr_time, eco_assignment_cost, link_fuel,
                             marginal_time_cost)


def cost_vector(network, objective, flows, config) -> np.ndarray:
    """Link costs per objective."""
    if objective is Objective.UET:
        out = bpr_time(network.free_flow_h, flows, network.capacity_vph, config.bpr)
    elif objective is Objective.SOT:
        out = marginal_time_cost(network.free_flow_h, flows, network.capacity_vph, config.bpr)
    else:
        out = eco_assignment_cost(
            network.length_miles,
            network.speed_mph,
            flows,
            network.capacity_vph,
            config.bpr,
            config.fuel,
            config.speed_floor_mph,
            config.speed_cap_mph,
        )
    return np.asarray(out, dtype=float)


def objective_value(network, objective, flows, config) -> float:
    if objective is Objective.UET:
        return float(np.sum(bpr_integral(network.free_flow_h, flows, network.capacity_vph, config.bpr)))
    if objective is Objective.SOT:
        return float(np.sum(flows * bpr_time(network.free_flow_h, flows, network.capacity_vph, config.bpr)))
    t = np.asarray(bpr_time(network.free_flow_h, flows, network.capacity_vph, config.bpr))
    v = np.clip(network.length_miles / t, config.speed_floor_mph, config.speed_cap_mph)
    return float(np.sum(flows * link_fuel(network.length_miles, v, config.fuel)))


def line_search(network, objective, config, f, d) -> float:
    """Bisection on the slope d @ cost_vector(max(f + sigma * d, 0))."""
    def slope(sigma: float) -> float:
        x = np.maximum(f + sigma * d, 0.0)
        return float(d @ cost_vector(network, objective, x, config))

    if slope(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(qdta._LINE_SEARCH_MAX_ITER):
        if hi - lo <= config.line_search_tol:
            break
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dense_states(result) -> list[FlowState]:
    """One dense FlowState per interval of an AssignmentResult."""
    net, config, day = result.network, result.config, result.flows
    bounds = day.offsets.tolist()
    states = []
    for rec, a, b in zip(result.intervals, bounds[:-1], bounds[1:], strict=True):
        flows = np.zeros(net.n_links)
        flows[day.links[a:b]] = day.flow_vph[a:b]
        time_h = np.asarray(bpr_time(net.free_flow_h, flows, net.capacity_vph, config.bpr))
        states.append(FlowState(
            flows, time_h, net.length_miles / time_h,
            cost_vector(net, result.objective, flows, config), rec.converged, rec.gap,
            rec.iterations, list(rec.log), list(rec.unreachable)))
    return states


def dense_entered(result) -> list[np.ndarray]:
    """Per interval, how many times trips entered each link, as an int64 row."""
    rows = []
    for rec in result.intervals:
        row = np.zeros(result.network.n_links, dtype=np.int64)
        row[rec.entered_links] = rec.entered_count
        rows.append(row)
    return rows


def conservation(result) -> tuple[float, float, float]:
    """(trip miles, tallied link miles, relative error) of an AssignmentResult:
    the miles its trips drove against the miles of every link entry."""
    trip_miles = sum(result.trips.distance_miles.tolist())
    entry_total = result.forced_entered.astype(float).copy()
    for rec in result.intervals:
        entry_total[rec.entered_links] += rec.entered_count
    link_miles = float((entry_total * result.network.length_miles).sum())
    scale = max(abs(trip_miles), abs(link_miles), 1e-12)
    return trip_miles, link_miles, abs(trip_miles - link_miles) / scale


def shortest_distances(network, link_costs, sources) -> np.ndarray:
    """The least cost at link_costs from each node index of sources to
    every node index, one row per source, inf where no path leads: Dijkstra
    with a heap over every link, parallel ones included, each cost floored
    at `qdta._MIN_EDGE_COST` as the solver floors its edge costs."""
    out = []
    leaving = [[] for _ in range(network.n_nodes)]
    for u, v, cost in zip(network.link_from.tolist(), network.link_to.tolist(),
                          np.asarray(link_costs, dtype=float).tolist()):
        leaving[u].append((v, max(cost, qdta._MIN_EDGE_COST)))
    for source in np.asarray(sources).tolist():
        dist = [math.inf] * network.n_nodes
        dist[source], heap = 0.0, [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, cost in leaving[u]:
                if d + cost < dist[v]:
                    dist[v] = d + cost
                    heapq.heappush(heap, (dist[v], v))
        out.append(dist)
    return np.array(out, dtype=float).reshape(-1, network.n_nodes)
