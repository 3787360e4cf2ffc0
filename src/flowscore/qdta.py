"""Quasi-dynamic traffic assignment.

The day splits into fixed intervals. Each interval's demand (new
departures plus carried-over trips) is assigned with Frank-Wolfe under
one of three link cost objectives, then every trip walks its least-cost
path until the interval's time budget runs out; unfinished trips re-enter
the next interval's demand from wherever they stopped.

Costs per objective: travel time (user equilibrium), marginal travel
time, or marginal fuel with congested speeds clamped to the fuel model's
working range.
"""
from __future__ import annotations

import csv
import enum
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from . import costs
from .costs import BprParams, FuelParams, DEFAULT_BPR, DEFAULT_FUEL
from .network import Network, _require_columns

logger = logging.getLogger(__name__)

DAY_SECONDS = 86400.0
# Caps the step-size bisection, which otherwise never ends when
# line_search_tol is below 2**-60.
_LINE_SEARCH_MAX_ITER = 60
# Cost vectors whose shortest-path rows RoutingGraph keeps: each interval's
# zero-flow costs and the latest Frank-Wolfe costs, whose tree the walk reuses.
_KEPT_COST_VECTORS = 2


class Objective(enum.Enum):
    UET = "uet"
    SOT = "sot"
    SOF = "sof"

    @classmethod
    def parse(cls, name: str) -> "Objective":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown objective {name!r} (want uet, sot or sof)") from None


@dataclass(frozen=True)
class TripRequest:
    trip_id: int
    origin: int
    destination: int
    depart_s: float

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise ValueError(f"trip {self.trip_id}: origin equals destination")
        if not 0 <= self.depart_s < DAY_SECONDS:
            raise ValueError(f"trip {self.trip_id}: departure {self.depart_s} outside [0, 86400)")


@dataclass(frozen=True)
class SolverConfig:
    interval_s: float = 900.0
    max_iterations: int = 100
    relative_gap: float = 1e-4
    line_search_tol: float = 1e-6
    speed_floor_mph: float = 5.0
    speed_cap_mph: float = 90.0
    bpr: BprParams = DEFAULT_BPR
    fuel: FuelParams = DEFAULT_FUEL

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.relative_gap < 1:
            raise ValueError("relative_gap must be in (0, 1)")
        if not 0 < self.line_search_tol < 1:
            raise ValueError("line_search_tol must be in (0, 1)")
        if not 0 < self.speed_floor_mph < self.speed_cap_mph:
            raise ValueError("need 0 < speed floor < speed cap")

    @property
    def interval_h(self) -> float:
        return self.interval_s / 3600.0

    @property
    def n_intervals(self) -> int:
        return math.ceil(DAY_SECONDS / self.interval_s)


@dataclass
class FlowState:
    """Converged link flows for one interval plus derived quantities."""

    objective: Objective
    flow_vph: np.ndarray
    time_h: np.ndarray
    speed_mph: np.ndarray
    cost: np.ndarray
    converged: bool
    gap: float
    iterations: int
    log: list[tuple[float, float]] = field(default_factory=list)
    unreachable: list[tuple[int, int, float]] = field(default_factory=list)
    entered: np.ndarray | None = None


@dataclass(frozen=True)
class TripRecord:
    trip_id: int
    status: str  # completed | forced | failed
    links: tuple[int, ...]
    start_s: float
    end_s: float
    distance_miles: float
    time_h: float
    free_flow_h: float
    fuel_l: float

    @property
    def delay_h(self) -> float:
        return self.time_h - self.free_flow_h


@dataclass
class _TripState:
    request: TripRequest
    current_node: int
    links: list[int] = field(default_factory=list)
    time_h: float = 0.0
    distance_miles: float = 0.0
    free_flow_h: float = 0.0
    fuel_l: float = 0.0

    def to_record(self, status: str) -> TripRecord:
        start = self.request.depart_s
        return TripRecord(
            trip_id=self.request.trip_id,
            status=status,
            links=tuple(self.links),
            start_s=start,
            end_s=start + self.time_h * 3600.0,
            distance_miles=self.distance_miles,
            time_h=self.time_h,
            free_flow_h=self.free_flow_h,
            fuel_l=self.fuel_l,
        )


class RoutingGraph:
    """Collapsed edge view of a Network for repeated shortest-path runs.

    Parallel links between the same node pair collapse to the cheapest
    one at each cost evaluation (cost ties go to the smaller link id).
    """

    def __init__(self, network: Network):
        self.net = network
        n = network.n_nodes
        self.n_nodes = n
        u = network.link_from
        v = network.link_to
        perm = np.lexsort((network.link_ids, v, u))
        self.perm = perm
        key = u[perm].astype(np.int64) * n + v[perm]
        is_first = np.ones(len(key), dtype=bool)
        if len(key) > 1:
            is_first[1:] = key[1:] != key[:-1]
        self.group_start = np.nonzero(is_first)[0]
        self.edge_key = key[self.group_start]
        self.edge_u = u[perm][self.group_start]
        self.edge_v = v[perm][self.group_start].astype(np.int32)
        group_end = np.append(self.group_start[1:], len(key))
        self.multi_groups = [
            (gi, int(s), int(e))
            for gi, (s, e) in enumerate(zip(self.group_start, group_end))
            if e - s > 1
        ]
        self.indptr = np.searchsorted(self.edge_u, np.arange(n + 1)).astype(np.int32)
        self._trees: list[_SolvedRows] = []  # most recently used first

    def collapse(self, link_costs: np.ndarray):
        cs = link_costs[self.perm]
        edge_cost = np.minimum.reduceat(cs, self.group_start)
        chosen = self.perm[self.group_start].copy()
        for gi, s, e in self.multi_groups:
            chosen[gi] = self.perm[s + int(np.argmin(cs[s:e]))]
        return edge_cost, chosen

    def shortest_paths(self, source_idx: np.ndarray, link_costs: np.ndarray):
        """(dist, pred, chosen) at link_costs: one dist and pred row per
        source, in the order asked for, and the link chosen per edge.

        Rows solved for the two most recently used cost vectors are kept,
        so Dijkstra runs only for sources without a row at these costs.
        scipy solves each source on its own, so a row is the same whichever
        batch solved it.
        """
        tree = next((t for t in self._trees if np.array_equal(t.costs, link_costs)), None)
        if tree is None:
            tree = _SolvedRows(self, link_costs)
        self._trees = [tree] + [t for t in self._trees if t is not tree][:_KEPT_COST_VECTORS - 1]
        return tree.rows(source_idx)

    def edge_slot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.edge_key, u.astype(np.int64) * self.n_nodes + v)


class _SolvedRows:
    """Shortest-path rows solved so far at one cost vector."""

    def __init__(self, graph: RoutingGraph, link_costs: np.ndarray):
        # a copy, so a cost vector edited in place misses
        self.costs = np.array(link_costs)
        edge_cost, self.chosen = graph.collapse(link_costs)
        self.chosen.flags.writeable = False  # every caller shares it
        # Dijkstra needs strictly positive weights; the cost models are
        # positive for sane parameters, this only guards float dust.
        edge_cost = np.maximum(edge_cost, 1e-12)
        n = graph.n_nodes
        self.graph = csr_matrix((edge_cost, graph.edge_v, graph.indptr), shape=(n, n))
        self.row_of: dict[int, int] = {}
        self.dist = np.empty((0, n), dtype=float)
        self.pred = np.empty((0, n), dtype=np.int32)

    def rows(self, source_idx: np.ndarray):
        sources = np.asarray(source_idx).tolist()
        missing = [s for s in dict.fromkeys(sources) if s not in self.row_of]
        if missing:
            dist, pred = _csgraph_dijkstra(
                self.graph, directed=True, indices=np.array(missing, dtype=np.int64),
                return_predecessors=True,
            )
            self.row_of.update(zip(missing, range(len(self.row_of), len(self.row_of) + len(missing))))
            self.dist = np.concatenate((self.dist, dist))
            self.pred = np.concatenate((self.pred, pred))
        rows = [self.row_of[s] for s in sources]
        return self.dist[rows], self.pred[rows], self.chosen


def _routing(network: Network) -> RoutingGraph:
    if network._routing_cache is None:
        network._routing_cache = RoutingGraph(network)
    return network._routing_cache


def _cost_vector(network: Network, objective: Objective, flows, config: SolverConfig) -> np.ndarray:
    """Link costs per objective."""
    if objective is Objective.UET:
        out = costs.bpr_time(network.free_flow_h, flows, network.capacity_vph, config.bpr)
    elif objective is Objective.SOT:
        out = costs.marginal_time_cost(network.free_flow_h, flows, network.capacity_vph, config.bpr)
    else:
        out = costs.eco_assignment_cost(
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


def _objective_value(network: Network, objective: Objective, flows, config: SolverConfig) -> float:
    if objective is Objective.UET:
        return float(np.sum(costs.bpr_integral(network.free_flow_h, flows, network.capacity_vph, config.bpr)))
    if objective is Objective.SOT:
        return float(np.sum(flows * costs.bpr_time(network.free_flow_h, flows, network.capacity_vph, config.bpr)))
    t = np.asarray(costs.bpr_time(network.free_flow_h, flows, network.capacity_vph, config.bpr))
    v = np.clip(network.length_miles / t, config.speed_floor_mph, config.speed_cap_mph)
    per_veh = network.length_miles * np.asarray(costs.fuel_per_mile(v, config.fuel))
    return float(np.sum(flows * per_veh))


class _DemandBatch:
    """Sorted OD demand with node indices resolved once."""

    def __init__(self, network: Network, od_demand):
        if any(q < 0 for q in od_demand.values()):
            raise ValueError("demand must be nonnegative")
        items = sorted((od, float(q)) for od, q in od_demand.items() if q > 0)
        for (o, d), _ in items:
            if o not in network.node_index:
                raise ValueError(f"unknown origin node {o}")
            if d not in network.node_index:
                raise ValueError(f"unknown destination node {d}")
            if o == d:
                raise ValueError(f"origin equals destination for node {o}")
        self.items = items
        origins = sorted({od[0] for od, _ in items})
        self.source_idx = np.array([network.node_index[o] for o in origins], dtype=np.int64)
        row_of = {o: i for i, o in enumerate(origins)}
        self.od_row = np.array([row_of[od[0]] for od, _ in items], dtype=np.int64)
        self.od_dest = np.array([network.node_index[od[1]] for od, _ in items], dtype=np.int64)
        self.od_rate = np.array([q for _, q in items], dtype=float)

    @property
    def empty(self) -> bool:
        return not self.items


def _backward_steps(graph: RoutingGraph, pred, chosen, row, dest, origin):
    """Trace least-cost paths from their destinations back to their origins.

    Path i runs origin[i] -> dest[i] in pred's row row[i]. Step s yields
    (positions of the paths that have an s-th link counted from the
    destination end, those links' indices).
    """
    cur = dest
    pos = np.arange(dest.size)
    while cur.size:
        prev = pred[row, cur].astype(np.int64)
        yield pos, chosen[graph.edge_slot(prev, cur)]
        cur = prev
        keep = cur != origin
        if not keep.all():
            cur, row, origin, pos = cur[keep], row[keep], origin[keep], pos[keep]


def _load_all_or_nothing(graph: RoutingGraph, batch: _DemandBatch, link_costs: np.ndarray):
    """Put each OD's whole demand on its least-cost path at link_costs."""
    dist, pred, chosen = graph.shortest_paths(batch.source_idx, link_costs)
    flows = np.zeros(graph.net.n_links, dtype=float)
    reachable = np.isfinite(dist[batch.od_row, batch.od_dest])
    unreachable = [
        (batch.items[i][0][0], batch.items[i][0][1], batch.items[i][1])
        for i in np.nonzero(~reachable)[0]
    ]
    row = batch.od_row[reachable]
    rate = batch.od_rate[reachable]
    steps = _backward_steps(graph, pred, chosen, row, batch.od_dest[reachable],
                            batch.source_idx[row])
    for pos, links in steps:
        np.add.at(flows, links, rate[pos])
    return flows, unreachable


def all_or_nothing(network: Network, od_demand, link_costs):
    """Assign every OD's demand to its least-cost path at fixed costs.

    Returns (per-link flow vector, list of unreachable (o, d, demand)).
    """
    graph = _routing(network)
    batch = _DemandBatch(network, od_demand)
    if batch.empty:
        return np.zeros(network.n_links, dtype=float), []
    link_costs = np.asarray(link_costs, dtype=float)
    return _load_all_or_nothing(graph, batch, link_costs)


def _line_search(network, objective, config, f, d) -> float:
    def slope(sigma: float) -> float:
        x = np.maximum(f + sigma * d, 0.0)
        return float(d @ _cost_vector(network, objective, x, config))

    if slope(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(_LINE_SEARCH_MAX_ITER):
        if hi - lo <= config.line_search_tol:
            break
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def assign_interval(
    network: Network,
    od_demand,
    objective: Objective,
    config: SolverConfig | None = None,
) -> FlowState:
    """Frank-Wolfe assignment of one interval's demand.

    od_demand maps (origin, destination) to trip counts for the
    interval; counts become hourly rates via the interval length.
    """
    config = config or SolverConfig()
    graph = _routing(network)
    rates = {od: q / config.interval_h for od, q in od_demand.items()}
    batch = _DemandBatch(network, rates)

    def finish(flows, cost, converged, gap, log, unreachable):
        time_h = np.asarray(
            costs.bpr_time(network.free_flow_h, flows, network.capacity_vph, config.bpr)
        )
        return FlowState(
            objective=objective,
            flow_vph=flows,
            time_h=time_h,
            speed_mph=network.length_miles / time_h,
            cost=cost,
            converged=converged,
            gap=gap,
            iterations=len(log),
            log=log,
            unreachable=[(o, d, r * config.interval_h) for o, d, r in unreachable],
        )

    if batch.empty:
        zeros = np.zeros(network.n_links, dtype=float)
        return finish(zeros, _cost_vector(network, objective, zeros, config), True, 0.0,
                      [(0.0, 0.0)], [])

    cost0 = _cost_vector(network, objective, np.zeros(network.n_links), config)
    f, unreachable = _load_all_or_nothing(graph, batch, cost0)

    best_lower_bound = -math.inf
    log: list[tuple[float, float]] = []
    converged = False
    gap = math.inf
    for it in range(1, config.max_iterations + 1):
        cost = _cost_vector(network, objective, f, config)
        y, unreachable = _load_all_or_nothing(graph, batch, cost)
        value = _objective_value(network, objective, f, config)
        if objective is Objective.UET:
            lb = value + float(cost @ (y - f))
            best_lower_bound = max(best_lower_bound, lb)
            gap = (value - best_lower_bound) / abs(value) if value != 0.0 else 0.0
        else:
            den = float(cost @ f)
            gap = float(cost @ (f - y)) / den if den > 0.0 else 0.0
        gap = max(gap, 0.0)
        log.append((gap, value))
        if gap <= config.relative_gap:
            converged = True
            break
        if it == config.max_iterations:
            break
        sigma = _line_search(network, objective, config, f, y - f)
        f = np.maximum(f + sigma * (y - f), 0.0)

    if not converged:
        logger.warning(
            "%s assignment stopped at max_iterations=%d with relative gap %.3g",
            objective.value,
            config.max_iterations,
            gap,
        )
    # f moves only after the stopping tests, so cost is still cost(f)
    return finish(f, cost, converged, gap, log, unreachable)


def _walk(network: Network, trips: list[_TripState], link_costs, time_h, speed_mph,
          budget_h: float, fuel: FuelParams | None, speed_floor_mph, speed_cap_mph, finished: str):
    """Walk each trip along its least-cost path at link_costs until it
    arrives (recorded with status `finished`) or budget_h runs out.

    Every trip fully traverses at least one link; a link is started
    whenever budget remains, so the last link may overdraw the budget
    (the overdraft simply shows up in the recorded travel time).

    All trips walk at once: one padded matrix holds the path of every
    distinct (current node, destination) pair, and each trip's sums run
    over its row with the same numpy reductions as over a 1-D path.

    Returns (finished records, still-active states, per-link entry counts).
    """
    graph = _routing(network)
    records: list[TripRecord] = []
    residual: list[_TripState] = []
    if not trips:
        return records, residual, np.zeros(network.n_links, dtype=np.int64)

    pair_of: dict[tuple[int, int], int] = {}
    trip_pair = np.array(
        [pair_of.setdefault((t.current_node, t.request.destination), len(pair_of)) for t in trips]
    )
    pair_origin = np.array([network.node_index[o] for o, _ in pair_of], dtype=np.int64)
    pair_dest = np.array([network.node_index[d] for _, d in pair_of], dtype=np.int64)
    sources, pair_row = np.unique(pair_origin, return_inverse=True)
    dist, pred, chosen = graph.shortest_paths(sources, link_costs)

    # paths[p, :length[p]] holds pair p's link indices, origin first
    reached = np.nonzero(np.isfinite(dist[pair_row, pair_dest]))[0]
    steps = list(_backward_steps(graph, pred, chosen, pair_row[reached], pair_dest[reached],
                                 pair_origin[reached]))
    length = np.zeros(len(pair_of), dtype=np.int64)
    for pos, _ in steps:
        length[reached[pos]] += 1
    paths = np.zeros((len(pair_of), len(steps)), dtype=np.int64)
    for s, (pos, links) in enumerate(steps):
        p = reached[pos]
        paths[p, length[p] - 1 - s] = links

    walking = np.nonzero(length[trip_pair] > 0)[0]
    path = paths[trip_pair[walking]]
    path_len = length[trip_pair[walking]]
    times = time_h[path]
    elapsed_before = np.zeros_like(times)
    elapsed_before[:, 1:] = np.cumsum(times, axis=1)[:, :-1]
    column = np.arange(path.shape[1])
    n_take = np.count_nonzero((elapsed_before < budget_h) & (column < path_len[:, None]), axis=1)
    n_take = np.clip(n_take, 1, path_len)

    speeds = np.clip(speed_mph, speed_floor_mph, speed_cap_mph)
    link_fuel_l = network.length_miles * np.asarray(costs.fuel_per_mile(speeds, fuel))
    time_sum, dist_sum, free_flow_sum, fuel_sum = (np.empty(walking.size) for _ in range(4))
    for n in np.unique(n_take):
        sel = np.nonzero(n_take == n)[0]
        taken = path[sel, :n]
        time_sum[sel] = times[sel, :n].sum(axis=1)
        dist_sum[sel] = network.length_miles[taken].sum(axis=1)
        free_flow_sum[sel] = network.free_flow_h[taken].sum(axis=1)
        fuel_sum[sel] = link_fuel_l[taken].sum(axis=1)
    taken = path[column < n_take[:, None]]  # row by row
    entered = np.bincount(taken, minlength=network.n_links).astype(np.int64)

    # records and residual states, in the order the trips came
    taken_ids = network.link_ids[taken].tolist()
    ends = np.cumsum(n_take).tolist()
    n_take, arrived = n_take.tolist(), (n_take == path_len).tolist()
    time_sum, dist_sum = time_sum.tolist(), dist_sum.tolist()
    free_flow_sum, fuel_sum = free_flow_sum.tolist(), fuel_sum.tolist()
    walk_row = np.full(len(trips), -1)
    walk_row[walking] = np.arange(walking.size)
    for trip, j in zip(trips, walk_row.tolist()):
        if j < 0:
            records.append(trip.to_record("failed"))
            continue
        trip.time_h += time_sum[j]
        trip.distance_miles += dist_sum[j]
        trip.free_flow_h += free_flow_sum[j]
        trip.fuel_l += fuel_sum[j]
        trip.links.extend(taken_ids[ends[j] - n_take[j]:ends[j]])
        if arrived[j]:
            records.append(trip.to_record(finished))
        else:
            trip.current_node = network.links[int(taken[ends[j] - 1])].to_node
            residual.append(trip)
    return records, residual, entered


def advance_trips(
    network: Network,
    flow_state: FlowState,
    active_trips: list[_TripState],
    interval_s: float,
    fuel: FuelParams | None = None,
    speed_floor_mph: float = 5.0,
    speed_cap_mph: float = 90.0,
):
    """Walk each active trip along its least-cost path for one interval.

    Returns (finished records, still-active states, per-link entry counts).
    """
    if interval_s <= 0:
        raise ValueError("interval_s must be positive")
    return _walk(network, active_trips, flow_state.cost, flow_state.time_h, flow_state.speed_mph,
                 interval_s / 3600.0, fuel, speed_floor_mph, speed_cap_mph, "completed")


@dataclass
class AssignmentResult:
    """A day of interval flow states plus every trip's itinerary."""

    objective: Objective
    interval_s: float
    flow_states: list[FlowState]
    records: list[TripRecord]
    forced_entered: np.ndarray
    network: Network

    @property
    def interval_h(self) -> float:
        return self.interval_s / 3600.0

    def counts(self) -> dict[str, int]:
        out = {"completed": 0, "forced": 0, "failed": 0}
        for rec in self.records:
            out[rec.status] += 1
        return out

    def total_system_time_h(self) -> float:
        """Vehicle-hours implied by the converged interval flows."""
        return float(
            sum((fs.flow_vph * fs.time_h).sum() for fs in self.flow_states) * self.interval_h
        )

    def total_fuel_from_flows(self, config: SolverConfig | None = None) -> float:
        """Liters implied by the converged interval flows."""
        config = config or SolverConfig(interval_s=self.interval_s)
        total = 0.0
        for fs in self.flow_states:
            v = np.clip(fs.speed_mph, config.speed_floor_mph, config.speed_cap_mph)
            per_mile = np.asarray(costs.fuel_per_mile(v, config.fuel))
            total += float((fs.flow_vph * self.network.length_miles * per_mile).sum())
        return total * self.interval_h

    def conservation(self) -> tuple[float, float, float]:
        """(trip miles, tallied link miles, relative error)."""
        trip_miles = sum(rec.distance_miles for rec in self.records)
        entry_total = self.forced_entered.astype(float).copy()
        for fs in self.flow_states:
            if fs.entered is not None:
                entry_total += fs.entered
        link_miles = float((entry_total * self.network.length_miles).sum())
        scale = max(abs(trip_miles), abs(link_miles), 1e-12)
        return trip_miles, link_miles, abs(trip_miles - link_miles) / scale


def run_day(
    network: Network,
    trips,
    objective: Objective,
    config: SolverConfig | None = None,
) -> AssignmentResult:
    """Assign and advance a whole day of trips for one objective."""
    config = config or SolverConfig()
    for trip in trips:
        if trip.origin not in network.node_index:
            raise ValueError(f"trip {trip.trip_id}: unknown origin {trip.origin}")
        if trip.destination not in network.node_index:
            raise ValueError(f"trip {trip.trip_id}: unknown destination {trip.destination}")
    by_interval: list[list[TripRequest]] = [[] for _ in range(config.n_intervals)]
    for trip in trips:
        by_interval[int(trip.depart_s // config.interval_s)].append(trip)

    residual: list[_TripState] = []
    records: list[TripRecord] = []
    flow_states: list[FlowState] = []
    for k in range(config.n_intervals):
        fresh = [_TripState(req, req.origin) for req in by_interval[k]]
        active = residual + fresh
        active.sort(key=lambda t: t.request.trip_id)
        demand = Counter((t.current_node, t.request.destination) for t in active)
        state = assign_interval(network, demand, objective, config)
        done, residual, entered = advance_trips(
            network,
            state,
            active,
            config.interval_s,
            fuel=config.fuel,
            speed_floor_mph=config.speed_floor_mph,
            speed_cap_mph=config.speed_cap_mph,
        )
        state.entered = entered
        flow_states.append(state)
        records.extend(done)

    # day over: finish leftovers on free-flow paths and flag them, at speed_mph
    # (length / free_flow_h can differ in the last bit, and so the fuel)
    cost0 = _cost_vector(network, objective, np.zeros(network.n_links), config)
    forced, _, forced_entered = _walk(network, residual, cost0, network.free_flow_h,
                                      network.speed_mph, math.inf, config.fuel,
                                      config.speed_floor_mph, config.speed_cap_mph, "forced")
    records.extend(forced)

    records.sort(key=lambda r: r.trip_id)
    return AssignmentResult(
        objective=objective,
        interval_s=config.interval_s,
        flow_states=flow_states,
        records=records,
        forced_entered=forced_entered,
        network=network,
    )


def load_trips(path: str) -> list[TripRequest]:
    """Read trips.csv (trip_id, origin, destination, depart_s)."""
    trips: list[TripRequest] = []
    seen: set[int] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader.fieldnames, ("trip_id", "origin", "destination", "depart_s"), path,
                         "trips")
        for row_no, row in enumerate(reader, start=2):
            try:
                trip_id = int(row["trip_id"])
                origin = int(row["origin"])
                destination = int(row["destination"])
                depart_s = float(row["depart_s"])
            except (TypeError, ValueError):
                raise ValueError(f"non-numeric trip field, row {row_no}") from None
            if trip_id in seen:
                raise ValueError(f"duplicate trip_id {trip_id}, row {row_no}")
            seen.add(trip_id)
            try:
                trips.append(TripRequest(trip_id, origin, destination, depart_s))
            except ValueError as exc:
                raise ValueError(f"{exc}, row {row_no}") from None
    return trips
