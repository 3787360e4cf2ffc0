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

import copy
import enum
import functools
import gc
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import costs
from .costs import BprParams, FuelParams, DEFAULT_BPR, DEFAULT_FUEL
from .network import INT64, NUMBER, Network, check_rows, naming_rows, read_columns, repeats

logger = logging.getLogger(__name__)

DAY_SECONDS = 86400.0
# Caps the step-size bisection, which otherwise never ends when
# line_search_tol is below 2**-60.
_LINE_SEARCH_MAX_ITER = 60
# Sources whose search limits lie within this ratio of the smallest among
# them share one Dijkstra run, stopped at the largest of their limits.
_LIMIT_RATIO = 1.5
# Dijkstra needs strictly positive weights; the cost models are positive
# for sane parameters, this floor only guards float dust.
_MIN_EDGE_COST = 1e-12


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


def _columns(table: str, names: str, ids, name: str, values):
    """ids as int64 columns and values, column name, as a float64 one, all 1-D and of one length."""
    ids, values = [np.asarray(c) for c in ids], np.asarray(values)
    if any(c.size and c.dtype.kind not in "iu" for c in ids):
        raise ValueError(f"{names} must hold integers")
    if values.size and values.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers")
    if {c.shape for c in (*ids, values)} != {(ids[0].size,)}:
        raise ValueError(f"{table} columns must be 1-D and of one length")
    return (*(c.astype(np.int64) for c in ids), values.astype(float))


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
        self.trip_id, self.origin, self.destination, self.depart_s = _columns(
            "departure", "trip_id, origin and destination",
            (self.trip_id, self.origin, self.destination), "depart_s", self.depart_s)
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
        # the clamped speeds must lie where the fuel curve is fitted
        if self.speed_floor_mph < costs.FUEL_SPEED_MIN:
            raise ValueError(f"speed_floor_mph must be at least {costs.FUEL_SPEED_MIN} mph")
        if self.speed_cap_mph > costs.FUEL_SPEED_MAX:
            raise ValueError(f"speed_cap_mph must be at most {costs.FUEL_SPEED_MAX} mph")
        if not self.speed_floor_mph < self.speed_cap_mph:
            raise ValueError("need speed floor < speed cap")
        costs._check_burn_positive(self.fuel, self.speed_floor_mph, self.speed_cap_mph)

    @property
    def interval_h(self) -> float:
        return self.interval_s / 3600.0

    @property
    def n_intervals(self) -> int:
        return math.ceil(DAY_SECONDS / self.interval_s)


@dataclass
class FlowState:
    """Converged link flows for one interval plus derived quantities;
    paths, which equality leaves out, are the last all-or-nothing load's
    paths at `cost`, which the trip walk follows, and unreachable holds the
    (origin id, destination id, trips) of each OD that load found no path for."""

    flow_vph: np.ndarray
    time_h: np.ndarray
    speed_mph: np.ndarray
    cost: np.ndarray
    converged: bool
    gap: float
    iterations: int
    log: list[tuple[float, float]] = field(default_factory=list)
    unreachable: list[tuple[int, int, float]] = field(default_factory=list)
    paths: _Paths | None = field(default=None, compare=False, repr=False)


@dataclass(eq=False)
class IntervalRecord:
    """One interval of a day as `run_day` keeps it, less its flows (see `DayFlows`): trips
    entered link entered_links[j] entered_count[j] times, and the solver's outcome."""

    entered_links: np.ndarray
    entered_count: np.ndarray
    converged: bool
    gap: float
    iterations: int
    log: list[tuple[float, float]]
    unreachable: list[tuple[int, int, float]]

    @classmethod
    def of(cls, state: FlowState, entered: np.ndarray) -> "IntervalRecord":
        """The record of a state whose trips entered link i entered[i] times."""
        entered_links = np.flatnonzero(entered).astype(np.int32)
        return cls(entered_links, entered[entered_links], state.converged, state.gap,
                   state.iterations, state.log, state.unreachable)


class DayFlows(NamedTuple):
    """A day's link flows as columns. Interval k's rows are
    offsets[k]:offsets[k + 1], each a link position (int32), at most once per
    interval, with its flow and time. A link is held when its flow is not zero
    by its bits, so a -0.0 flow stays and each interval's dense state is
    rebuilt exactly: every other link has zero flow and, since the BPR time
    at zero flow is t0, its free-flow time. `run_day` holds an interval's
    links in ascending order, `cli.read_flows_csv` in file order."""

    offsets: np.ndarray
    links: np.ndarray
    flow_vph: np.ndarray
    time_h: np.ndarray

    def intervals(self) -> np.ndarray:
        """Each row's interval."""
        return np.repeat(np.arange(self.offsets.size - 1), np.diff(self.offsets))


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
        for end, column in (("origin", "node"), ("destination", "dest")):
            ids = getattr(departures, end)[order]
            at = network.node_positions(ids)
            unknown = np.flatnonzero(at < 0)
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


@functools.cache
def _load_scipy():
    """scipy's csr_matrix and dijkstra, imported at the first call: of
    flowscore, only routing needs scipy, so no other command pays for it.
    A process that froze its heap before (`cli.main` without argv does)
    freezes it again, so that no collection walks scipy's import-time
    objects."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    if gc.get_freeze_count():
        gc.freeze()
    return csr_matrix, dijkstra


def _csgraph_dijkstra(*args, **kwargs):
    """scipy.sparse.csgraph.dijkstra."""
    return _load_scipy()[1](*args, **kwargs)


class RoutingGraph:
    """Collapsed edge view of a Network for repeated shortest-path runs.

    Parallel links between the same node pair collapse to the cheapest
    one at each cost evaluation (cost ties go to the smaller link id).
    """

    def __init__(self, network: Network):
        n = network.n_nodes
        self.n_nodes = n
        u = network.link_from
        v = network.link_to
        perm = np.lexsort((network.link_ids, v, u))
        self.perm = perm
        key = u[perm].astype(np.int64) * n + v[perm]
        is_first = np.ones(len(key), dtype=bool)
        is_first[1:] = key[1:] != key[:-1]  # empty for fewer than two links
        self.group_start = np.nonzero(is_first)[0]
        self.edge_key = key[self.group_start]
        edge_u = u[perm][self.group_start]
        edge_v = v[perm][self.group_start].astype(np.int32)
        group_end = np.append(self.group_start[1:], len(key))
        self.multi_groups = [
            (gi, int(s), int(e))
            for gi, (s, e) in enumerate(zip(self.group_start, group_end))
            if e - s > 1
        ]
        indptr = np.searchsorted(edge_u, np.arange(n + 1)).astype(np.int32)
        csr_matrix = _load_scipy()[0]
        # the edge matrix's structure; each cost vector's copy takes its own edge costs
        self.matrix = csr_matrix((np.ones(edge_v.size), edge_v, indptr), shape=(n, n))
        self._kept: _SolvedRows | None = None

    def collapse(self, link_costs: np.ndarray):
        cs = link_costs[self.perm]
        edge_cost = np.minimum.reduceat(cs, self.group_start)
        chosen = self.perm[self.group_start].copy()
        for gi, s, e in self.multi_groups:
            chosen[gi] = self.perm[s + int(np.argmin(cs[s:e]))]
        return edge_cost, chosen

    def shortest_paths(self, source_idx: np.ndarray, link_costs: np.ndarray, needs, limit=None):
        """(row, pred, chosen) at link_costs: pred[row[i]] is the row of
        source_idx[i], -9999 at the source and at each node it does not
        reach, and chosen is the link chosen per edge. pred and chosen are
        shared and read-only, so no row is copied.

        needs is (entries, dests): the row of source_idx[entries[i]] must
        settle node dests[i], which is not that source. limit, if given, is
        a distance per entry of source_idx at which a search not yet run at
        these costs may stop. A row from a stopped search holds pred -9999
        past its limit, so it answers only a request whose needed nodes it
        settled; any other source is solved again without a limit. So only
        a full search calls a node unreachable.

        The graph keeps the rows of one cost vector: the last one asked for
        without a limit, which in `run_day` is the zero-flow costs that
        every interval's first load and the forced walk ask for. Dijkstra
        runs only for sources without a kept row that answers. Rows at any
        other cost vector serve the one call that solved them. scipy
        solves each source on its own, and a row gives the nodes it settles
        the same pred whichever batch solved it and at whichever limit
        (tests check this on heavily tied weights).
        """
        key = np.asarray(link_costs, dtype=float).tobytes()  # so a vector edited in place misses
        tree = self._kept
        if tree is None or tree.key != key:
            tree = _SolvedRows(self, link_costs, key)
        if limit is None:
            self._kept = tree
        row = tree.rows(source_idx, needs, limit)
        return row, tree.pred, tree.chosen

    def edge_slot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.edge_key, u.astype(np.int64) * self.n_nodes + v)


class _SolvedRows:
    """Shortest-path predecessor rows solved so far at one cost vector,
    each with the limit its search stopped at (inf for a full search). A
    source solved again gets a new row."""

    def __init__(self, graph: RoutingGraph, link_costs: np.ndarray, key: bytes):
        self.key = key  # the bytes of the float64 cost vector
        edge_cost, self.chosen = graph.collapse(link_costs)
        self.chosen.flags.writeable = False  # every caller shares it
        self.graph = copy.copy(graph.matrix)  # shares the structure, checked once
        self.graph.data = np.maximum(edge_cost, _MIN_EDGE_COST)
        n = graph.n_nodes
        self.row_at = np.full(n, -1, dtype=np.intp)  # each node's latest row
        self.limit = np.empty(0, dtype=float)
        self.pred = np.empty((0, n), dtype=np.int32)

    def rows(self, source_idx: np.ndarray, needs, limit):
        """Each source's row, after solving the sources no row answers."""
        sources = np.asarray(source_idx, dtype=np.intp)
        row = self.row_at[sources]
        missing = row < 0
        if np.count_nonzero(missing):
            self._solve(sources[missing], None if limit is None else np.asarray(limit)[missing])
            row = self.row_at[sources]
        short = self._short(row, needs)
        if np.count_nonzero(short):
            self._solve(sources[short], None)
            row = self.row_at[sources]
        return row

    def _short(self, row: np.ndarray, needs) -> np.ndarray:
        """Per entry, whether its row stopped short of a node it needs."""
        stopped = self.limit[row] < math.inf
        if not np.count_nonzero(stopped):
            return stopped
        entries, dests = needs
        short = np.zeros(row.size, dtype=bool)
        short[entries[self.pred[row[entries], dests] < 0]] = True
        return short & stopped

    def _solve(self, sources: np.ndarray, limits) -> None:
        """Solve each source once, into a new row. Sources whose limits lie
        within _LIMIT_RATIO of the smallest among them share a run, in order
        of first appearance; no limits means one full run. The rows of a
        tree that one run fills are Dijkstra's own predecessor array."""
        first = np.sort(np.unique(sources, return_index=True)[1])
        sources = sources[first]
        limits = np.full(first.size, math.inf) if limits is None else limits[first]
        by_limit = np.argsort(limits, kind="stable")
        sources, limits = sources[by_limit], limits[by_limit]
        self.row_at[sources] = np.arange(self.limit.size, self.limit.size + sources.size)
        runs = [self.pred] if self.limit.size else []
        start = 0
        while start < sources.size:
            end = max(start + 1, int(np.searchsorted(limits, limits[start] * _LIMIT_RATIO, "right")))
            limits[start:end] = limits[end - 1]
            runs.append(_csgraph_dijkstra(self.graph, directed=True, indices=sources[start:end],
                                          return_predecessors=True, limit=limits[end - 1])[1])
            start = end
        self.limit = np.concatenate((self.limit, limits))
        self.pred = runs[0] if len(runs) == 1 else np.concatenate(runs)
        self.pred.flags.writeable = False  # every caller shares it


class _Pricing:
    """One objective's link costs on one network, its per-link constants
    computed once.

    `at(flow)` gives the cost vector, the objective value and the BPR time
    from one (flow / capacity)**beta, through the formula helpers of
    `costs`, the one home of each cost formula. Flows are not checked
    here: `_load_all_or_nothing` checks each load, and every FW iterate
    lies between two checked loads. `free_cost`, the zero-flow costs that
    every interval's first load and the forced walk route on, is priced
    once, by `at`.
    """

    def __init__(self, network: Network, objective: Objective, config: SolverConfig):
        self.objective, self.config, self.link_ids = objective, config, network.link_ids
        self.free_flow_h, self.capacity_vph = network.free_flow_h, network.capacity_vph
        self.per_link = ("free_flow_h", "capacity_vph")
        if objective is Objective.SOF:
            self.length_miles = network.length_miles
            self.slope_scale, self.capacity_pow = costs._chain_constants(
                network.free_flow_h, network.capacity_vph, config.bpr)
            self.per_link += ("length_miles", "slope_scale", "capacity_pow")
        self.free_cost = self.at(np.zeros(network.n_links))[0]

    def _price(self, flow: np.ndarray):
        """(cost, BPR time, (flow / capacity)**beta, per-link fuel or None) at flow."""
        config = self.config
        ratio_pow, time_h = costs._bpr(self.free_flow_h, flow, self.capacity_vph, config.bpr)
        if self.objective is Objective.UET:
            return time_h, time_h, ratio_pow, None
        if self.objective is Objective.SOT:
            return (costs._marginal_time(self.free_flow_h, ratio_pow, config.bpr), time_h,
                    ratio_pow, None)
        cost, burn = costs._fuel_marginal(
            self.length_miles, flow, time_h, self.slope_scale, self.capacity_pow, config.bpr,
            config.fuel, config.speed_floor_mph, config.speed_cap_mph)
        return cost, time_h, ratio_pow, burn

    def take(self, links: np.ndarray) -> _Pricing:
        """The pricing of the links at positions `links` alone."""
        part = copy.copy(self)
        for name in self.per_link:
            setattr(part, name, getattr(self, name)[links])
        return part

    def cost(self, flow: np.ndarray) -> np.ndarray:
        return self._price(flow)[0]

    def at(self, flow: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """(cost, objective value, BPR time) at flow. A link whose cost or
        time is not finite, say because (flow / capacity)**beta overflows,
        raises a ValueError that names it."""
        cost, time_h, ratio_pow, burn = self._price(flow)
        if not (np.isfinite(cost).all() and np.isfinite(time_h).all()):
            i = int(np.argmin(np.isfinite(cost) & np.isfinite(time_h)))
            raise ValueError(
                f"link {self.link_ids[i]}: cost not finite at flow {flow[i]} vph and capacity "
                f"{self.capacity_vph[i]} vph ({self.objective.value} cost {cost[i]}, "
                f"time {time_h[i]} h)")
        if self.objective is Objective.UET:  # the integral of the time
            terms = costs._time_integral(self.free_flow_h, flow, ratio_pow, self.config.bpr)
        else:  # vehicle-hours or liters
            terms = flow * (time_h if burn is None else burn)
        return cost, float(terms.sum()), time_h

    def slope_along(self, f: np.ndarray, d: np.ndarray, cost: np.ndarray):
        """sigma -> d @ cost(max(f + sigma * d, 0)), where cost is cost(f).

        Only the links where d is not zero move, so only they are priced,
        into a copy of cost: the slope stays one dot product over every
        link, with the bits of one over a vector priced whole.
        """
        moving = np.flatnonzero(d)
        part, f_moving, d_moving, c = self.take(moving), f[moving], d[moving], cost.copy()

        def slope(sigma: float) -> float:
            c[moving] = part.cost(np.maximum(f_moving + sigma * d_moving, 0.0))
            return float(d @ c)

        return slope

    def line_search(self, f: np.ndarray, d: np.ndarray, cost: np.ndarray) -> float:
        """The step in [0, 1] along d from f that bisection on
        `slope_along(f, d, cost)` finds."""
        slope = self.slope_along(f, d, cost)
        if slope(1.0) <= 0.0:
            return 1.0
        lo, hi = 0.0, 1.0
        for _ in range(_LINE_SEARCH_MAX_ITER):
            if hi - lo <= self.config.line_search_tol:
                break
            mid = 0.5 * (lo + hi)
            if slope(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


class _DemandBatch:
    """The demand rows that carry trips, sorted by (origin id, destination
    id), each at rate count / hours, with node indices resolved once.

    OD i runs from node o_id[i] to node d_id[i], at node indices
    source_idx[od_row[i]] and od_dest[i] (key[i] is the first * n_nodes +
    the second), and carries count[i] trips; source s starts at OD
    source_start[s]. Every row needs a finite, nonnegative rate, a known
    origin and destination that differ, and an (origin, destination) pair
    no earlier row holds; a ValueError names the first row that breaks one.
    """

    def __init__(self, network: Network, origin, destination, count, hours: float):
        o_id, d_id, count = _columns("demand", "origin and destination", (origin, destination),
                                     "count", count)
        rate, n = count / hours, count.size
        at = network.node_positions(np.concatenate((o_id, d_id)))
        order = np.lexsort((d_id, o_id))  # stable: a repeated pair's first row leads
        pairs, repeated = np.stack((o_id, d_id))[:, order], np.zeros(n, dtype=bool)
        repeated[order[1:]] = (pairs[:, 1:] == pairs[:, :-1]).all(axis=0)
        check_rows({"o": o_id, "d": d_id}, {
            "demand for ({o}, {d}) must be finite and nonnegative":
                ~((0 <= rate) & (rate < math.inf)),
            "unknown origin node {o}": at[:n] < 0, "unknown destination node {d}": at[n:] < 0,
            "origin equals destination for node {o}": o_id == d_id,
            "repeated OD ({o}, {d})": repeated})
        order = order[rate[order] > 0]
        self.o_id, self.d_id, self.od_rate = o_id[order], d_id[order], rate[order]
        self.count, o_at, self.od_dest = count[order], at[order], at[n + order]
        first = np.ones(order.size, dtype=bool)  # rows run by origin
        first[1:] = self.o_id[1:] != self.o_id[:-1]
        self.source_idx, self.od_row = o_at[first], np.cumsum(first) - 1
        self.source_start, self.key = np.flatnonzero(first), o_at * network.n_nodes + self.od_dest


class _Paths(NamedTuple):
    """The least-cost path of each OD of a `_DemandBatch`, as one load
    traced them, in batch order. OD i runs from node index key[i] //
    n_nodes to key[i] % n_nodes over the link indices links[i, :length[i]],
    origin first; length 0 means it has no path. Other entries are 0."""

    key: np.ndarray
    length: np.ndarray
    links: np.ndarray


def _path_limits(batch: _DemandBatch, paths: _Paths, link_costs: np.ndarray) -> np.ndarray:
    """Per source of batch, a distance at link_costs that every one of its
    destinations lies within: the largest cost at link_costs of its ODs'
    paths in `paths`, padded for summation order, or inf when one of its
    ODs has no path there."""
    on_path = np.arange(paths.links.shape[1]) < paths.length[:, None]
    cost = np.where(on_path, np.maximum(link_costs[paths.links], _MIN_EDGE_COST), 0.0).sum(axis=1)
    cost[paths.length == 0] = math.inf
    return np.maximum.reduceat(cost, batch.source_start) * (1.0 + 1e-9)


def _load_all_or_nothing(graph: RoutingGraph, batch: _DemandBatch, link_costs: np.ndarray,
                         paths: _Paths | None = None):
    """Put each OD's whole demand on its least-cost path at link_costs.

    Returns (flows, whether each OD has a path, the `_Paths` traced).
    Given an earlier load's paths, each source's search stops at the cost
    its known paths have at link_costs (see `_path_limits`). A flow that
    is not finite, say because a link's summed rates overflow, raises a
    ValueError.
    """
    limit = None if paths is None else _path_limits(batch, paths, link_costs)
    row, pred, chosen = graph.shortest_paths(batch.source_idx, link_costs,
                                             (batch.od_row, batch.od_dest), limit)
    od_row = row[batch.od_row]  # each OD's row of pred
    reachable = pred[od_row, batch.od_dest] >= 0
    # trace every reachable OD from its destination back to its origin, one
    # link per step; steps[s] holds the ODs that have an s-th link from the end
    od = np.flatnonzero(reachable)
    row, node, source = od_row[od], batch.od_dest[od], batch.source_idx[batch.od_row[od]]
    steps, heads, tails = [], [], []
    while od.size:
        prev = pred[row, node]
        steps.append(od)
        heads.append(prev)
        tails.append(node)
        keep = prev != source
        od, row, node, source = od[keep], row[keep], prev[keep], source[keep]
    step_od, head, tail = (np.concatenate([np.empty(0, np.intp), *parts])
                           for parts in (steps, heads, tails))
    links = chosen[graph.edge_slot(head, tail)]
    # added step-major, a fixed order; with no link loaded, bincount's zeros are ints
    flows = np.bincount(links, batch.od_rate[step_od], link_costs.size).astype(float)
    if not np.all((flows >= 0) & (flows < math.inf)):
        raise ValueError("flow must be finite and nonnegative")
    length = np.bincount(step_od, minlength=batch.od_dest.size)
    table = np.zeros((batch.od_dest.size, len(steps)), dtype=np.intp)
    step = np.repeat(np.arange(len(steps)), [s.size for s in steps])
    table[step_od, length[step_od] - 1 - step] = links
    return flows, reachable, _Paths(batch.key, length, table)


def assign_interval(network: Network, origin, destination, count, objective: Objective,
                    config: SolverConfig | None = None, *, graph: RoutingGraph | None = None,
                    pricing: _Pricing | None = None) -> FlowState:
    """Frank-Wolfe assignment of one interval's demand.

    Row i of the equal-length columns origin, destination (node ids) and
    count puts count[i] trips on that OD (`_DemandBatch` gives the rules of
    a row); counts become hourly rates via the interval length. graph,
    a RoutingGraph of network, lets calls share its kept zero-flow rows,
    and pricing, a `_Pricing` of network, objective and config, its
    per-link constants; without them fresh ones are built.
    """
    config = config or SolverConfig()
    graph = RoutingGraph(network) if graph is None else graph
    pricing = _Pricing(network, objective, config) if pricing is None else pricing
    batch = _DemandBatch(network, origin, destination, count, config.interval_h)

    f, _, paths = _load_all_or_nothing(graph, batch, pricing.free_cost)

    best_lower_bound = -math.inf
    log: list[tuple[float, float]] = []
    converged = False
    gap = math.inf
    for it in range(1, config.max_iterations + 1):
        cost, value, time_h = pricing.at(f)
        y, reachable, paths = _load_all_or_nothing(graph, batch, cost, paths)
        d = y - f
        if objective is Objective.UET:
            lb = value + float(cost @ d)
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
        sigma = pricing.line_search(f, d, cost)
        f = np.maximum(f + sigma * d, 0.0)

    if not converged:
        logger.warning(
            "%s assignment stopped at max_iterations=%d with relative gap %.3g",
            objective.value,
            config.max_iterations,
            gap,
        )
    # f moves only after the stopping tests, so cost and time_h are still
    # at f, and cost is the costs of the last load's paths
    unreachable = zip(*(c[~reachable].tolist() for c in (batch.o_id, batch.d_id, batch.count)))
    return FlowState(f, time_h, network.length_miles / time_h, cost, converged, gap, len(log), log,
                     list(unreachable), paths)


def _walk(network: Network, trips: _Trips, active: np.ndarray, paths: _Paths, time_h,
          speed_mph, budget_h: float, config: SolverConfig, finished: str):
    """Walk the trips at positions `active` along their paths in `paths`,
    which must hold every trip's (current node, destination) pair, until
    they arrive (status `finished`) or budget_h runs out. Fuel is burnt at
    speed_mph clamped to the config's speed range.

    Every trip fully traverses at least one link; a link is started
    whenever budget remains, so the last link may overdraw the budget
    (the overdraft simply shows up in the recorded travel time). A trip
    with no path gets status "failed".

    All trips walk at once: each trip's row of the padded path matrix
    holds its path, and its sums run over that row with the same numpy
    reductions as over a 1-D path.

    Returns (positions that arrived, positions still walking, per-link
    entry counts).
    """
    want = trips.node[active] * network.n_nodes + trips.dest[active]
    order = np.argsort(paths.key)
    at = np.searchsorted(paths.key, want, sorter=order)
    if np.count_nonzero(at == order.size) or not np.array_equal(paths.key[order[at]], want):
        raise ValueError("the path table lacks a walking trip's (node, destination) pair")
    od = order[at]
    path_len = paths.length[od]
    walking = path_len > 0
    trips.status[active[~walking]] = "failed"
    moved = active[walking]
    path, path_len = paths.links[od[walking]], path_len[walking]
    times = time_h[path]
    elapsed_before = np.zeros_like(times)
    elapsed_before[:, 1:] = np.cumsum(times, axis=1)[:, :-1]
    column = np.arange(path.shape[1])
    n_take = np.count_nonzero((elapsed_before < budget_h) & (column < path_len[:, None]), axis=1)
    n_take = np.clip(n_take, 1, path_len)

    speeds = np.clip(speed_mph, config.speed_floor_mph, config.speed_cap_mph)
    link_fuel_l = costs._burn(network.length_miles, speeds, config.fuel)
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
    config: SolverConfig,
):
    """Walk the trips at positions active_trips for one interval of
    `config`, along the paths that flow_state's last all-or-nothing load
    traced at its costs; flow_state must be the interval's state from
    `assign_interval` over these trips' (current node, destination) pairs.
    No shortest path is solved here.

    Returns (positions that arrived, positions still walking, per-link
    entry counts).
    """
    return _walk(network, trips, active_trips, flow_state.paths, flow_state.time_h,
                 flow_state.speed_mph, config.interval_h, config, "completed")


@dataclass
class AssignmentResult:
    """A day of interval records and flows plus every trip's itinerary."""

    objective: Objective
    config: SolverConfig
    intervals: list[IntervalRecord]
    flows: DayFlows
    trips: TripTable
    forced_entered: np.ndarray
    network: Network

    @property
    def records(self) -> list[TripRecord]:
        """One TripRecord per row of `trips`, built anew on each access."""
        t = self.trips
        return list(map(TripRecord, t.trip_id.tolist(), t.status.tolist(),
                        map(tuple, t.link_lists()),
                        *(c.tolist() for c in (t.start_s, t.end_s, t.distance_miles, t.time_h,
                                               t.free_flow_h, t.fuel_l))))


def run_day(network: Network, trips: Departures, objective: Objective,
            config: SolverConfig | None = None) -> AssignmentResult:
    """Assign and advance a whole day of trips for one objective, on one
    RoutingGraph of its own: the network keeps no routing state."""
    config = config or SolverConfig()
    day = _Trips(network, trips)
    bucket = day.depart_s // config.interval_s
    n_nodes = network.n_nodes
    graph, pricing = RoutingGraph(network), _Pricing(network, objective, config)

    def demand(at: np.ndarray):
        """(origin ids, destination ids, trips) of the ODs over positions at."""
        od_key, count = np.unique(day.node[at] * n_nodes + day.dest[at], return_counts=True)
        o, d = np.divmod(od_key, n_nodes)
        return network.node_ids[o], network.node_ids[d], count

    residual = np.empty(0, dtype=np.int64)
    intervals, kept = [], []  # IntervalRecords, and each interval's (links, flow_vph, time_h)
    for k in range(config.n_intervals):
        active = np.union1d(residual, np.flatnonzero(bucket == k))  # in trip-id order
        state = assign_interval(network, *demand(active), objective, config, graph=graph,
                                pricing=pricing)
        _, residual, entered = advance_trips(network, state, day, active, config)
        intervals.append(IntervalRecord.of(state, entered))
        links = np.flatnonzero(state.flow_vph.view(np.int64)).astype(np.int32)  # -0.0 stays
        kept.append((links, state.flow_vph[links], state.time_h[links]))

    # day over: finish leftovers on their zero-flow paths and flag them, at
    # speed_mph (length / free_flow_h can differ in the last bit, and so the fuel)
    _, _, paths = _load_all_or_nothing(graph, _DemandBatch(network, *demand(residual), 1.0),
                                       pricing.free_cost)
    _, _, forced_entered = _walk(network, day, residual, paths, network.free_flow_h,
                                 network.speed_mph, math.inf, config, "forced")
    flows = DayFlows(np.cumsum([0, *(r[0].size for r in kept)]), *map(np.concatenate, zip(*kept)))
    return AssignmentResult(objective, config, intervals, flows, day.table(network),
                            forced_entered, network)


def load_trips(path: str) -> Departures:
    """Read trips.csv (trip_id, origin, destination, depart_s) into one
    `Departures` table, in file order."""
    columns = read_columns(path, "trips", {"trip_id": INT64, "origin": INT64,
                                           "destination": INT64, "depart_s": NUMBER})
    with naming_rows(path):
        return Departures(**columns)
