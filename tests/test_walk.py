"""The array trip walk against a scalar reference walker.

The reference walks one trip at a time: it traces each trip's path
through pred, then takes links while budget remains, with the 1-D numpy
sums the array walk must reproduce bit for bit. Random grids come from
hypothesis-drawn seeds, derandomized, so every run checks the same cases.
"""
import copy
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from flowscore import costs, qdta
from flowscore.network import Link, Network, Node
from flowscore.qdta import TripRecord, TripRequest

cases = settings(max_examples=40, deadline=None, derandomize=True)


def reference_walk(network, trips, link_costs, time_h, speed_mph, budget_h, fuel,
                   speed_floor_mph, speed_cap_mph, finished):
    """One trip at a time along its own traced path."""
    graph = qdta._routing(network)
    entered = np.zeros(network.n_links, dtype=np.int64)
    records: list[TripRecord] = []
    residual = []
    if not trips:
        return records, residual, entered
    sources = sorted({t.current_node for t in trips})
    source_idx = np.array([network.node_index[s] for s in sources], dtype=np.int64)
    row_of = {s: i for i, s in enumerate(sources)}
    dist, pred, chosen = graph.shortest_paths(source_idx, link_costs)

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
        row = row_of[trip.current_node]
        path = path_links(row, int(source_idx[row]), network.node_index[trip.request.destination])
        if path is None:
            records.append(trip.to_record("failed"))
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
        trip.links.extend(int(network.link_ids[i]) for i in taken)
        if n_take == len(path):
            records.append(trip.to_record(finished))
        else:
            trip.current_node = network.links[taken[-1]].to_node
            residual.append(trip)
    return records, residual, entered


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
    """Trips that share a few ODs, some of them unreachable, with walked
    distance already on the clock."""
    node_ids = [n.id for n in network.nodes]
    ods = []
    while len(ods) < 6:
        o, d = (int(x) for x in rng.choice(node_ids, 2))
        if o != d:
            ods.append((o, d))
    trips = []
    for k in range(int(rng.integers(1, 30))):
        o, d = ods[int(rng.integers(len(ods)))]
        state = qdta._TripState(TripRequest(k + 1, o, d, float(rng.uniform(0, 80000))), o)
        if rng.random() < 0.5:
            state.time_h, state.distance_miles = float(rng.uniform(0, 2)), float(rng.uniform(0, 9))
            state.free_flow_h, state.fuel_l = float(rng.uniform(0, 2)), float(rng.uniform(0, 3))
            state.links = [int(x) for x in rng.integers(1, 99, 3)]
        trips.append(state)
    return trips


def assert_same_walk(got, want):
    (records, residual, entered), (ref_records, ref_residual, ref_entered) = got, want
    assert records == ref_records
    assert [t.request for t in residual] == [t.request for t in ref_residual]
    for t, r in zip(residual, ref_residual):
        assert (t.current_node, t.time_h, t.distance_miles, t.free_flow_h, t.fuel_l, t.links) == (
            r.current_node, r.time_h, r.distance_miles, r.free_flow_h, r.fuel_l, r.links)
        assert all(type(v) is float for v in (t.time_h, t.distance_miles, t.free_flow_h, t.fuel_l))
    assert entered.dtype == ref_entered.dtype and np.array_equal(entered, ref_entered)


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
    for _ in range(4):  # residual trips restart mid-route
        want = reference_walk(net, copy.deepcopy(trips), *walk)
        got = qdta._walk(net, trips, *walk)
        assert_same_walk(got, want)
        trips = got[1]
    # the forced completion: free-flow costs, no budget, at the links' speeds
    cost0 = qdta._cost_vector(net, qdta.Objective.SOF, np.zeros(net.n_links), qdta.SolverConfig())
    forced = (cost0, net.free_flow_h, net.speed_mph, math.inf, None, 5.0, 90.0, "forced")
    want = reference_walk(net, copy.deepcopy(trips), *forced)
    got = qdta._walk(net, trips, *forced)
    assert_same_walk(got, want)
    assert got[1] == []


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
    trips = []
    for k in range(20):
        o = int(rng.integers(1, n))
        d = int(rng.integers(o + 1, n + 2))
        trips.append(qdta._TripState(TripRequest(k + 1, o, d, 0.0), o))
    budget_h = float(rng.uniform(0.5, 30.0))
    walk = (time_h, time_h, net.length_miles / time_h, budget_h, None, 5.0, 90.0, "completed")
    while trips:
        want = reference_walk(net, copy.deepcopy(trips), *walk)
        got = qdta._walk(net, trips, *walk)
        assert_same_walk(got, want)
        trips = got[1]
