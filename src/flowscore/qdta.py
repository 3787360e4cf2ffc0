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

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from . import costs
from .costs import BprParams, FuelParams, DEFAULT_BPR, DEFAULT_FUEL
from .network import INT64, NUMBER, Network, check_rows, naming_rows, read_columns, repeats

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


@dataclass(eq=False)
class Departures:
    """A day's trip requests as columns, one row per trip: trip_id, the
    origin and destination node ids, and depart_s.

    Trip ids are unique, no trip ends where it starts, and 0 <= depart_s
    < 86400 (so never NaN); the error names the first row that breaks one.
    """

    trip_id: np.ndarray
    origin: np.ndarray
    destination: np.ndarray
    depart_s: np.ndarray

    def __post_init__(self) -> None:
        ids = [np.asarray(c) for c in (self.trip_id, self.origin, self.destination)]
        if any(c.size and c.dtype.kind not in "iu" for c in ids):
            raise ValueError("trip_id, origin and destination must hold integers")
        self.trip_id, self.origin, self.destination = (c.astype(np.int64) for c in ids)
        self.depart_s = np.asarray(self.depart_s, dtype=float)
        if {c.shape for c in (*ids, self.depart_s)} != {(self.trip_id.size,)}:
            raise ValueError("departure columns must be 1-D and of one length")
        check_rows(vars(self), {
            "duplicate trip_id {trip_id}": repeats(self.trip_id),
            "trip {trip_id}: origin equals destination": self.origin == self.destination,
            "trip {trip_id}: departure {depart_s} outside [0, 86400)":
                ~((0 <= self.depart_s) & (self.depart_s < DAY_SECONDS))})


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
        for name in ("interval_s", "relative_gap", "line_search_tol", "speed_floor_mph",
                     "speed_cap_mph"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


@dataclass(eq=False)
class IntervalRecord:
    """One interval of a day as `run_day` keeps it.

    Only the links whose flow is not zero are held: their positions, in
    ascending order, and their flow and time. A link is kept by the bits
    of its flow, so a -0.0 flow stays. Every other link has zero flow and,
    since bpr_time(t0, 0) is t0, its free-flow time. Trips entered link
    entered_links[j] entered_count[j] times.
    """

    links: np.ndarray
    flow_vph: np.ndarray
    time_h: np.ndarray
    entered_links: np.ndarray
    entered_count: np.ndarray
    converged: bool
    gap: float
    iterations: int
    log: list[tuple[float, float]]
    unreachable: list[tuple[int, int, float]]

    @classmethod
    def of(cls, state: FlowState) -> "IntervalRecord":
        """The record of a state whose `entered` is set."""
        links = np.flatnonzero(state.flow_vph.view(np.int64)).astype(np.int32)
        entered = np.flatnonzero(state.entered).astype(np.int32)
        return cls(links, state.flow_vph[links], state.time_h[links], entered,
                   state.entered[entered], state.converged, state.gap, state.iterations,
                   state.log, state.unreachable)


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


@dataclass(eq=False)
class TripTable:
    """A day of trips as columns, one row per trip, in trip-id order from
    `run_day` and in file order from `cli.read_trips_csv`.

    Trip i drove the link ids links[offsets[i]:offsets[i + 1]], in order.
    Trip ids are unique, and no distance, time or fuel is negative; the
    error names the first row that breaks one.
    """

    trip_id: np.ndarray
    status: np.ndarray  # completed | forced | failed
    start_s: np.ndarray
    end_s: np.ndarray
    distance_miles: np.ndarray
    time_h: np.ndarray
    free_flow_h: np.ndarray
    fuel_l: np.ndarray
    offsets: np.ndarray
    links: np.ndarray

    def __post_init__(self) -> None:
        check_rows(vars(self), {
            **{f"negative {name}": getattr(self, name) < 0
               for name in ("distance_miles", "time_h", "free_flow_h", "fuel_l")},
            "duplicate trip_id {trip_id}": repeats(self.trip_id)})

    def link_lists(self):
        """Each trip's link ids as a list, in row order."""
        bounds = self.offsets.tolist()
        return (self.links[a:b].tolist() for a, b in zip(bounds, bounds[1:]))


class _Trips:
    """One objective's day of trips as columns, in trip-id order.

    Node columns hold node indices. Each walk appends one leg, (trip
    positions, link indices) row by row, so a trip's links are its legs'
    entries in walk order.
    """

    def __init__(self, network: Network, departures: Departures):
        order = np.argsort(departures.trip_id, kind="stable")
        self.trip_id = departures.trip_id[order]
        self.depart_s = departures.depart_s[order]
        known = np.fromiter(network.node_index, dtype=np.int64, count=network.n_nodes)
        sorter = np.argsort(known)
        for end, column in (("origin", "node"), ("destination", "dest")):
            ids = getattr(departures, end)[order]
            at = sorter[np.searchsorted(known, ids, sorter=sorter).clip(max=known.size - 1)]
            unknown = np.flatnonzero(known[at] != ids)
            if unknown.size:
                raise ValueError(f"trip {self.trip_id[unknown[0]]}: unknown {end} {ids[unknown[0]]}")
            setattr(self, column, at)
        n = self.trip_id.size
        self.time_h, self.distance_miles, self.free_flow_h, self.fuel_l = (
            np.zeros(n) for _ in range(4))
        self.status = np.full(n, None, dtype=object)
        self.legs: list[tuple[np.ndarray, np.ndarray]] = []

    def table(self, network: Network) -> TripTable:
        """The walked trips, each trip's legs gathered in walk order."""
        pos = np.concatenate([p for p, _ in self.legs] or [np.empty(0, np.int32)])
        links = np.concatenate([l for _, l in self.legs] or [np.empty(0, np.int32)])
        offsets = np.concatenate(([0], np.cumsum(np.bincount(pos, minlength=self.trip_id.size))))
        return TripTable(
            self.trip_id, self.status, self.depart_s, self.depart_s + self.time_h * 3600.0,
            self.distance_miles, self.time_h, self.free_flow_h, self.fuel_l, offsets,
            network.link_ids[links[np.argsort(pos, kind="stable")]])


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
        for (o, d), q in od_demand.items():
            if not 0 <= q < math.inf:
                raise ValueError(f"demand for ({o}, {d}) must be finite and nonnegative")
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
    if not batch.items:
        return np.zeros(network.n_links, dtype=float), []
    link_costs = np.asarray(link_costs, dtype=float)
    return _load_all_or_nothing(graph, batch, link_costs)


def _flow_state(network: Network, objective: Objective, config: SolverConfig, flows, cost,
                converged, gap, iterations, log, unreachable, entered=None) -> FlowState:
    """A FlowState at flows, with time and speed from the whole link vector."""
    time_h = np.asarray(costs.bpr_time(network.free_flow_h, flows, network.capacity_vph, config.bpr))
    return FlowState(objective, flows, time_h, network.length_miles / time_h, cost, converged, gap,
                     iterations, log, unreachable, entered)


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
        return _flow_state(network, objective, config, flows, cost, converged, gap, len(log), log,
                           [(o, d, r * config.interval_h) for o, d, r in unreachable])

    if not batch.items:
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


def _walk(network: Network, trips: _Trips, active: np.ndarray, link_costs, time_h, speed_mph,
          budget_h: float, fuel: FuelParams | None, speed_floor_mph, speed_cap_mph, finished: str):
    """Walk the trips at positions `active` along their least-cost paths at
    link_costs until they arrive (status `finished`) or budget_h runs out.

    Every trip fully traverses at least one link; a link is started
    whenever budget remains, so the last link may overdraw the budget
    (the overdraft simply shows up in the recorded travel time). A trip
    with no path gets status "failed".

    All trips walk at once: one padded matrix holds the path of every
    distinct (current node, destination) pair, and each trip's sums run
    over its row with the same numpy reductions as over a 1-D path.

    Returns (positions that arrived, positions still walking, per-link
    entry counts).
    """
    graph = _routing(network)
    if not active.size:
        return active, active, np.zeros(network.n_links, dtype=np.int64)

    n_nodes = network.n_nodes
    pair_key, trip_pair = np.unique(trips.node[active] * n_nodes + trips.dest[active],
                                    return_inverse=True)
    pair_origin, pair_dest = np.divmod(pair_key, n_nodes)
    sources, pair_row = np.unique(pair_origin, return_inverse=True)
    dist, pred, chosen = graph.shortest_paths(sources, link_costs)

    # paths[p, :length[p]] holds pair p's link indices, origin first
    reached = np.nonzero(np.isfinite(dist[pair_row, pair_dest]))[0]
    steps = list(_backward_steps(graph, pred, chosen, pair_row[reached], pair_dest[reached],
                                 pair_origin[reached]))
    length = np.zeros(pair_key.size, dtype=np.int64)
    for pos, _ in steps:
        length[reached[pos]] += 1
    paths = np.zeros((pair_key.size, len(steps)), dtype=np.int64)
    for s, (pos, links) in enumerate(steps):
        p = reached[pos]
        paths[p, length[p] - 1 - s] = links

    walking = length[trip_pair] > 0
    trips.status[active[~walking]] = "failed"
    moved = active[walking]
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
    for n in np.unique(n_take):
        sel = np.nonzero(n_take == n)[0]
        taken, at = path[sel, :n], moved[sel]
        trips.time_h[at] += times[sel, :n].sum(axis=1)
        trips.distance_miles[at] += network.length_miles[taken].sum(axis=1)
        trips.free_flow_h[at] += network.free_flow_h[taken].sum(axis=1)
        trips.fuel_l[at] += link_fuel_l[taken].sum(axis=1)
    taken = path[column < n_take[:, None]]  # row by row
    trips.legs.append((np.repeat(moved, n_take).astype(np.int32), taken.astype(np.int32)))
    entered = np.bincount(taken, minlength=network.n_links).astype(np.int64)

    trips.node[moved] = network.link_to[path[np.arange(moved.size), n_take - 1]]
    arrived = n_take == path_len
    trips.status[moved[arrived]] = finished
    return moved[arrived], moved[~arrived], entered


def advance_trips(
    network: Network,
    flow_state: FlowState,
    trips: _Trips,
    active_trips: np.ndarray,
    interval_s: float,
    fuel: FuelParams | None = None,
    speed_floor_mph: float = 5.0,
    speed_cap_mph: float = 90.0,
):
    """Walk the trips at positions active_trips along their least-cost
    paths for one interval.

    Returns (positions that arrived, positions still walking, per-link
    entry counts).
    """
    if interval_s <= 0:
        raise ValueError("interval_s must be positive")
    return _walk(network, trips, active_trips, flow_state.cost, flow_state.time_h,
                 flow_state.speed_mph, interval_s / 3600.0, fuel, speed_floor_mph, speed_cap_mph,
                 "completed")


@dataclass
class AssignmentResult:
    """A day of interval records plus every trip's itinerary."""

    objective: Objective
    config: SolverConfig
    intervals: list[IntervalRecord]
    trips: TripTable
    forced_entered: np.ndarray
    network: Network

    @property
    def interval_s(self) -> float:
        return self.config.interval_s

    @property
    def interval_h(self) -> float:
        return self.config.interval_h

    @property
    def flow_states(self) -> list[FlowState]:
        """One dense FlowState per interval, rebuilt anew on each access.

        Time, speed and cost come from the same whole-vector calls on the
        same flows as in `assign_interval`, so they are the same bits.
        """
        net = self.network
        states = []
        for rec in self.intervals:
            flows = np.zeros(net.n_links)
            flows[rec.links] = rec.flow_vph
            entered = np.zeros(net.n_links, dtype=np.int64)
            entered[rec.entered_links] = rec.entered_count
            states.append(_flow_state(
                net, self.objective, self.config, flows,
                _cost_vector(net, self.objective, flows, self.config), rec.converged, rec.gap,
                rec.iterations, list(rec.log), list(rec.unreachable), entered))
        return states

    @property
    def records(self) -> list[TripRecord]:
        """One TripRecord per row of `trips`, built anew on each access."""
        t = self.trips
        return list(map(TripRecord, t.trip_id.tolist(), t.status.tolist(),
                        map(tuple, t.link_lists()),
                        *(c.tolist() for c in (t.start_s, t.end_s, t.distance_miles, t.time_h,
                                               t.free_flow_h, t.fuel_l))))

    def counts(self) -> dict[str, int]:
        return {s: int(np.count_nonzero(self.trips.status == s))
                for s in ("completed", "forced", "failed")}

    def total_system_time_h(self) -> float:
        """Vehicle-hours implied by the converged interval flows."""
        return float(sum((fs.flow_vph * fs.time_h).sum() for fs in self.flow_states)
                     * self.interval_h)

    def total_fuel_from_flows(self) -> float:
        """Liters implied by the converged interval flows."""
        length, config = self.network.length_miles, self.config
        total = 0.0
        for fs in self.flow_states:
            v = np.clip(fs.speed_mph, config.speed_floor_mph, config.speed_cap_mph)
            per_mile = np.asarray(costs.fuel_per_mile(v, config.fuel))
            total += float((fs.flow_vph * length * per_mile).sum())
        return total * self.interval_h

    def conservation(self) -> tuple[float, float, float]:
        """(trip miles, tallied link miles, relative error)."""
        trip_miles = sum(self.trips.distance_miles.tolist())
        entry_total = self.forced_entered.astype(float).copy()
        for rec in self.intervals:
            entry_total[rec.entered_links] += rec.entered_count
        link_miles = float((entry_total * self.network.length_miles).sum())
        scale = max(abs(trip_miles), abs(link_miles), 1e-12)
        return trip_miles, link_miles, abs(trip_miles - link_miles) / scale


def run_day(network: Network, trips: Departures, objective: Objective,
            config: SolverConfig | None = None) -> AssignmentResult:
    """Assign and advance a whole day of trips for one objective."""
    config = config or SolverConfig()
    day = _Trips(network, trips)
    bucket = day.depart_s // config.interval_s
    node_ids = [node.id for node in network.nodes]
    n_nodes = network.n_nodes

    residual = np.empty(0, dtype=np.int64)
    intervals: list[IntervalRecord] = []
    for k in range(config.n_intervals):
        active = np.union1d(residual, np.flatnonzero(bucket == k))  # in trip-id order
        od_key, count = np.unique(day.node[active] * n_nodes + day.dest[active],
                                  return_counts=True)
        demand = {(node_ids[o], node_ids[d]): q for o, d, q in
                  zip((od_key // n_nodes).tolist(), (od_key % n_nodes).tolist(), count.tolist())}
        state = assign_interval(network, demand, objective, config)
        _, residual, state.entered = advance_trips(
            network, state, day, active, config.interval_s, fuel=config.fuel,
            speed_floor_mph=config.speed_floor_mph, speed_cap_mph=config.speed_cap_mph)
        intervals.append(IntervalRecord.of(state))

    # day over: finish leftovers on free-flow paths and flag them, at speed_mph
    # (length / free_flow_h can differ in the last bit, and so the fuel)
    cost0 = _cost_vector(network, objective, np.zeros(network.n_links), config)
    _, _, forced_entered = _walk(network, day, residual, cost0, network.free_flow_h,
                                 network.speed_mph, math.inf, config.fuel,
                                 config.speed_floor_mph, config.speed_cap_mph, "forced")
    return AssignmentResult(objective, config, intervals, day.table(network), forced_entered,
                            network)


def load_trips(path: str) -> Departures:
    """Read trips.csv (trip_id, origin, destination, depart_s) into one
    `Departures` table, in file order."""
    columns = read_columns(path, "trips", {"trip_id": INT64, "origin": INT64,
                                           "destination": INT64, "depart_s": NUMBER})
    with naming_rows(path):
        return Departures(**columns)
