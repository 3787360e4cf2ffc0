"""The array trip walk and the whole day against scalar references.

The reference walks one trip at a time, on plain per-trip state copied
from a `_Trips` snapshot: it traces each trip's path through pred, then
takes links while budget remains, with the 1-D numpy sums the array walk
must reproduce bit for bit. The reference day drives it the way a day of
intervals runs. Random grids come from hypothesis-drawn seeds,
derandomized, so every run checks the same cases.
"""
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings, strategies as st

from flowscore import costs, qdta
from flowscore.network import Link, Network, Node
from flowscore.qdta import TripRecord

from fixtures import assert_dense_figures, assert_same_states, departures

cases = settings(max_examples=40, deadline=None, derandomize=True)


@dataclass
class RefTrip:
    trip_id: int
    depart_s: float
    node: int  # node index
    dest: int
    time_h: float
    distance_miles: float
    free_flow_h: float
    fuel_l: float
    links: list  # link indices, in the order taken
    status: str | None

    def record(self, network) -> TripRecord:
        start = self.depart_s
        return TripRecord(self.trip_id, self.status,
                          tuple(int(network.link_ids[i]) for i in self.links), start,
                          start + self.time_h * 3600.0, self.distance_miles, self.time_h,
                          self.free_flow_h, self.fuel_l)


def snapshot(trips) -> list[RefTrip]:
    """Each trip's columns and legs copied into its own RefTrip."""
    links = [[] for _ in trips.trip_id]
    for pos, idx in trips.legs:
        for p, i in zip(pos.tolist(), idx.tolist()):
            links[p].append(i)
    return [RefTrip(int(trips.trip_id[i]), float(trips.depart_s[i]), int(trips.node[i]),
                    int(trips.dest[i]), float(trips.time_h[i]), float(trips.distance_miles[i]),
                    float(trips.free_flow_h[i]), float(trips.fuel_l[i]), links[i],
                    trips.status[i])
            for i in range(trips.trip_id.size)]


def reference_walk(network, trips, link_costs, time_h, speed_mph, budget_h, fuel,
                   speed_floor_mph, speed_cap_mph, finished):
    """Walk the RefTrips one at a time along their own traced paths, in
    place; returns the per-link entry counts."""
    graph = qdta._routing(network)
    entered = np.zeros(network.n_links, dtype=np.int64)
    if not trips:
        return entered
    sources = sorted({t.node for t in trips})
    row_of = {s: i for i, s in enumerate(sources)}
    dist, pred, chosen = graph.shortest_paths(np.array(sources, dtype=np.int64), link_costs)

    def path_links(row, origin_idx, dest_idx):
        if not math.isfinite(dist[row, dest_idx]):
            return None
        seq = [dest_idx]
        node = dest_idx
        while node != origin_idx:
            node = int(pred[row, node])
            seq.append(node)
        seq.reverse()
        heads = np.array(seq[:-1], dtype=np.int64)
        tails = np.array(seq[1:], dtype=np.int64)
        return chosen[graph.edge_slot(heads, tails)]

    speeds = np.clip(speed_mph, speed_floor_mph, speed_cap_mph)
    link_fuel_l = network.length_miles * np.asarray(costs.fuel_per_mile(speeds, fuel))
    for trip in trips:
        path = path_links(row_of[trip.node], trip.node, trip.dest)
        if path is None:
            trip.status = "failed"
            continue
        times = time_h[path]
        elapsed_before = np.concatenate(([0.0], np.cumsum(times)[:-1]))
        n_take = int(np.count_nonzero(elapsed_before < budget_h))
        n_take = max(1, min(n_take, len(path)))
        taken = path[:n_take]
        np.add.at(entered, taken, 1)
        trip.time_h += float(times[:n_take].sum())
        trip.distance_miles += float(network.length_miles[taken].sum())
        trip.free_flow_h += float(network.free_flow_h[taken].sum())
        trip.fuel_l += float(link_fuel_l[taken].sum())
        trip.links.extend(int(i) for i in taken)
        trip.node = network.node_index[network.links[int(taken[-1])].to_node]
        if n_take == len(path):
            trip.status = finished
    return entered


def random_grid(rng):
    """A rows x cols grid with shuffled node ids, one- and two-way streets,
    parallel links, lengths whose length / free_flow_h differs from the
    speed, and an isolated node."""
    rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    ids = rng.permutation(rows * cols + 1) + 1
    nodes = [Node(int(ids[k]), 1000.0 * (k % cols), 1000.0 * (k // cols))
             for k in range(rows * cols)]
    nodes.append(Node(int(ids[-1]), -5000.0, -5000.0))
    links = []

    def add(a, b):
        for _ in range(1 + int(rng.random() < 0.2)):
            length = float(rng.uniform(0.05, 3.0))
            speed = float(rng.choice([49.0, float(rng.uniform(15.0, 70.0))]))
            links.append(Link(len(links) + 1, a.id, b.id, length, speed, 900.0, 5, 2,
                              ((a.x, a.y), (b.x, b.y))))

    for k in range(rows * cols):
        r, c = divmod(k, cols)
        for nb in ([k + 1] if c + 1 < cols else []) + ([k + cols] if r + 1 < rows else []):
            way = rng.random()
            if way < 0.8:
                add(nodes[k], nodes[nb])
            if way > 0.2:
                add(nodes[nb], nodes[k])
    order = rng.permutation(len(links))
    return Network(nodes, [links[i] for i in order])


def random_trips(rng, network):
    """Trips with shuffled ids that share a few ODs, some of them
    unreachable, half of them with walked distance and links already on
    the clock."""
    node_ids = [n.id for n in network.nodes]
    ods = []
    while len(ods) < 6:
        o, d = (int(x) for x in rng.choice(node_ids, 2))
        if o != d:
            ods.append((o, d))
    n = int(rng.integers(1, 30))
    ids = rng.permutation(n) * 3 + 1
    rows = []
    for k in range(n):
        o, d = ods[int(rng.integers(len(ods)))]
        rows.append((int(ids[k]), o, d, float(rng.uniform(0, 80000))))
    trips = qdta._Trips(network, departures(*rows))
    preset = np.flatnonzero(rng.random(n) < 0.5)
    for column, hi in ((trips.time_h, 2), (trips.distance_miles, 9), (trips.free_flow_h, 2),
                       (trips.fuel_l, 3)):
        column[preset] = rng.uniform(0, hi, preset.size)
    trips.legs.append((np.repeat(preset, 3).astype(np.int32),
                       rng.integers(0, network.n_links, 3 * preset.size).astype(np.int32)))
    return trips


def walk_both(net, trips, active, *walk):
    """One array walk checked against the reference walk from the same
    snapshot; returns the positions still walking."""
    want = snapshot(trips)
    want_entered = reference_walk(net, [want[i] for i in active.tolist()], *walk)
    arrived, residual, entered = qdta._walk(net, trips, active, *walk)
    got = snapshot(trips)
    for g, w in zip(got, want):
        assert (g.status, g.node, g.time_h, g.distance_miles, g.free_flow_h, g.fuel_l) == (
            w.status, w.node, w.time_h, w.distance_miles, w.free_flow_h, w.fuel_l)
    assert [tuple(links) for links in trips.table(net).link_lists()] == [
        w.record(net).links for w in want]
    assert all(c.dtype == np.float64 for c in (trips.time_h, trips.distance_miles,
                                               trips.free_flow_h, trips.fuel_l))
    assert entered.dtype == want_entered.dtype and np.array_equal(entered, want_entered)
    finished = walk[-1]
    assert arrived.tolist() == [i for i in active.tolist() if want[i].status == finished]
    assert residual.tolist() == [i for i in active.tolist() if want[i].status is None]
    return residual


@cases
@given(seed=st.integers(0, 2**32 - 1))
def test_walk_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    net = random_grid(rng)
    time_h = net.free_flow_h * rng.uniform(1.0, 3.0, net.n_links)
    link_costs = time_h * rng.uniform(0.5, 2.0, net.n_links)
    trips = random_trips(rng, net)
    budget_h = float(rng.choice([0.0, 0.02, 0.1, 0.25, 1.0]))
    walk = (link_costs, time_h, net.length_miles / time_h, budget_h, None, 5.0, 90.0, "completed")
    active = np.arange(trips.trip_id.size)
    for _ in range(4):  # residual trips restart mid-route
        active = walk_both(net, trips, active, *walk)
    # the forced completion: free-flow costs, no budget, at the links' speeds
    cost0 = qdta._cost_vector(net, qdta.Objective.SOF, np.zeros(net.n_links), qdta.SolverConfig())
    forced = (cost0, net.free_flow_h, net.speed_mph, math.inf, None, 5.0, 90.0, "forced")
    assert walk_both(net, trips, active, *forced).size == 0


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_walk_matches_scalar_reference_on_long_paths(seed):
    # paths of up to 300 links: numpy sums rows of 8 or more, and of more
    # than 128, in other orders than short ones
    rng = np.random.default_rng(seed)
    n = 300
    nodes = [Node(k + 1, 1000.0 * k, 0.0) for k in range(n + 1)]
    links = [Link(k + 1, k + 1, k + 2, float(rng.uniform(0.05, 3.0)),
                  float(rng.uniform(15.0, 70.0)), 900.0, 5, 2,
                  ((1000.0 * k, 0.0), (1000.0 * (k + 1), 0.0)))
             for k in range(n)]
    net = Network(nodes, links)
    time_h = net.free_flow_h * rng.uniform(1.0, 3.0, n)
    rows = []
    for k in range(20):
        o = int(rng.integers(1, n))
        d = int(rng.integers(o + 1, n + 2))
        rows.append((k + 1, o, d, 0.0))
    trips = qdta._Trips(net, departures(*rows))
    budget_h = float(rng.uniform(0.5, 30.0))
    walk = (time_h, time_h, net.length_miles / time_h, budget_h, None, 5.0, 90.0, "completed")
    active = np.arange(len(rows))
    while active.size:
        active = walk_both(net, trips, active, *walk)


def reference_day(network, trips, objective, config):
    """A day walked one trip at a time: each interval's Counter demand over
    its active trips in trip-id order, assign_interval, the reference walk;
    then the forced walk of the leftovers. Returns (records, each
    interval's FlowState with its entries set, forced entries)."""
    index = network.node_index
    rows = zip(trips.trip_id.tolist(), trips.depart_s.tolist(), trips.origin.tolist(),
               trips.destination.tolist())
    states = sorted((RefTrip(trip_id, depart_s, index[o], index[d], 0.0, 0.0, 0.0, 0.0, [], None)
                     for trip_id, depart_s, o, d in rows), key=lambda t: t.trip_id)
    node_ids = [n.id for n in network.nodes]
    residual, flow_states = [], []
    for k in range(config.n_intervals):
        fresh = [t for t in states if int(t.depart_s // config.interval_s) == k]
        active = sorted(residual + fresh, key=lambda t: t.trip_id)
        demand = Counter((node_ids[t.node], node_ids[t.dest]) for t in active)
        state = qdta.assign_interval(network, demand, objective, config)
        state.entered = reference_walk(network, active, state.cost, state.time_h,
                                       state.speed_mph, config.interval_h, config.fuel,
                                       config.speed_floor_mph, config.speed_cap_mph, "completed")
        flow_states.append(state)
        residual = [t for t in active if t.status is None]
    cost0 = qdta._cost_vector(network, objective, np.zeros(network.n_links), config)
    forced_entered = reference_walk(network, residual, cost0, network.free_flow_h,
                                    network.speed_mph, math.inf, config.fuel,
                                    config.speed_floor_mph, config.speed_cap_mph, "forced")
    return [t.record(network) for t in states], flow_states, forced_entered


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_run_day_matches_reference_day(seed):
    # departures in the day's last half hour, so trips spill from interval
    # to interval and the last ones are forced at midnight
    rng = np.random.default_rng(seed)
    net = random_grid(rng)
    node_ids = [n.id for n in net.nodes]
    rows = []
    for trip_id in rng.permutation(int(rng.integers(1, 80))) + 1:
        o, d = (int(x) for x in rng.choice(node_ids, 2, replace=False))
        rows.append((int(trip_id), o, d, float(rng.uniform(84_600.0, 86_400.0))))
    trips = departures(*rows)
    objective = qdta.Objective(str(rng.choice(["uet", "sot", "sof"])))
    config = qdta.SolverConfig(interval_s=float(rng.choice([600.0, 900.0])), max_iterations=4)
    result = qdta.run_day(net, trips, objective, config)
    records, flow_states, forced_entered = reference_day(net, trips, objective, config)
    assert result.records == records
    # the dense states rebuilt from run_day's interval records are the bytes
    # of the ones assign_interval returned
    assert_same_states(result.flow_states, flow_states)
    assert np.array_equal(result.forced_entered, forced_entered)
    assert_dense_figures(result, flow_states, window_s=(84_600.0, 86_400.0))
