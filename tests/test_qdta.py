import math

import numpy as np
import pytest

from flowscore import costs, qdta
from flowscore.costs import fuel_per_mile
from flowscore.indicators import daily_stats
from flowscore.network import Link, Network, Node
from flowscore.qdta import (
    FlowState,
    IntervalRecord,
    Objective,
    SolverConfig,
    all_or_nothing,
    assign_interval,
    run_day,
)

from fixtures import (
    PIGOU_DEMAND_VPH,
    assert_same_states,
    assignment_of,
    corridor_network,
    corridor_od,
    departures,
    detour_geometry,
    grid_network,
    joined,
    pigou_network,
    uniform_trips,
)

TIGHT = SolverConfig(relative_gap=1e-6)


def diamond_network() -> Network:
    """Two two-link routes 1->4 with different speeds and capacities."""
    nodes = [Node(1, 0.0, 0.0), Node(2, 8046.72, 3000.0), Node(3, 8046.72, -3000.0),
             Node(4, 16093.44, 0.0)]
    by_id = {n.id: n for n in nodes}

    def link(lid, a, b, length, speed, cap):
        geom = detour_geometry(by_id[a], by_id[b], length)
        return Link(lid, a, b, length, speed, cap, 3, 2, geom)

    links = [
        link(1, 1, 2, 5.5, 50.0, 800.0),
        link(2, 2, 4, 5.5, 50.0, 800.0),
        link(3, 1, 3, 6.0, 40.0, 1200.0),
        link(4, 3, 4, 6.0, 40.0, 1200.0),
    ]
    return Network(nodes, links)


def chain_network(capacity_vph=1e6) -> Network:
    """1->2->3->4 with free-flow times 20, 15 and 5 minutes."""
    nodes = [Node(1, 0.0, 0.0), Node(2, 16093.44, 0.0), Node(3, 28163.52, 0.0),
             Node(4, 32186.88, 0.0)]
    by_id = {n.id: n for n in nodes}
    spec = [(1, 1, 2, 10.0), (2, 2, 3, 7.5), (3, 3, 4, 2.5)]
    links = [
        Link(lid, a, b, length, 30.0, capacity_vph, 5, 2,
             detour_geometry(by_id[a], by_id[b], length))
        for lid, a, b, length in spec
    ]
    return Network(nodes, links)


def free_flow_state(network, objective=Objective.UET) -> FlowState:
    t = network.free_flow_h.copy()
    return FlowState(
        objective=objective,
        flow_vph=np.zeros(network.n_links),
        time_h=t,
        speed_mph=network.length_miles / t,
        cost=t.copy(),
        converged=True,
        gap=0.0,
        iterations=1,
    )


# demand bucketing and input parsing


def test_bucket_demand_interval_boundaries():
    # 1 mi each way at 30 mph: every trip finishes in the interval it leaves in,
    # so each interval's flow is its departures at 4 veh/h per trip
    a, b = Node(1, 0.0, 0.0), Node(2, 1609.344, 0.0)
    net = Network([a, b], [Link(1, 1, 2, 1.0, 30.0, 1e6, 5, 2, ((a.x, a.y), (b.x, b.y))),
                           Link(2, 2, 1, 1.0, 30.0, 1e6, 5, 2, ((b.x, b.y), (a.x, a.y)))])
    trips = departures(
        (1, 1, 2, 0.0),
        (2, 1, 2, 899.9),
        (3, 1, 2, 900.0),
        (4, 1, 2, 25_800.0),  # 07:10
        (5, 1, 2, 86_399.0),
        (6, 2, 1, 25_800.0),
    )
    result = run_day(net, trips, Objective.UET, SolverConfig(interval_s=900.0))
    flows = np.stack([fs.flow_vph for fs in result.flow_states])
    want = np.zeros((96, 2))
    want[0] = [8.0, 0.0]
    want[1] = [4.0, 0.0]
    want[28] = [4.0, 4.0]
    want[95] = [4.0, 0.0]
    assert np.array_equal(flows, want)
    assert result.counts() == {"completed": 6, "forced": 0, "failed": 0}


def test_trip_request_validation():
    with pytest.raises(ValueError, match="^trip 1: origin equals destination$"):
        departures((1, 5, 5, 0.0))
    with pytest.raises(ValueError, match=r"^trip 1: departure -1.0 outside \[0, 86400\)$"):
        departures((1, 1, 2, -1.0))
    with pytest.raises(ValueError, match="outside"):
        departures((1, 1, 2, 86_400.0))
    with pytest.raises(ValueError, match="^trip 3: departure nan outside"):
        departures((2, 1, 2, 0.0), (3, 1, 2, math.nan))
    # the first row that breaks a rule is named
    with pytest.raises(ValueError, match="^trip 4: origin equals destination$"):
        departures((2, 1, 2, 0.0), (4, 2, 2, 0.0), (2, 1, 2, -5.0))
    with pytest.raises(ValueError, match="must hold integers"):
        departures((1.5, 1, 2, 0.0))
    with pytest.raises(ValueError, match="one length"):
        qdta.Departures([1, 2], [1, 1], [2, 2], [0.0])


def test_solver_config_validation():
    assert SolverConfig().n_intervals == 96
    assert SolverConfig(interval_s=1000.0).n_intervals == 87
    with pytest.raises(ValueError):
        SolverConfig(interval_s=0.0)
    with pytest.raises(ValueError):
        SolverConfig(relative_gap=0.0)
    with pytest.raises(ValueError):
        SolverConfig(speed_floor_mph=50.0, speed_cap_mph=40.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


def test_objective_parse():
    assert Objective.parse(" SOT ") is Objective.SOT
    with pytest.raises(ValueError, match="unknown objective"):
        Objective.parse("fuel")


# all-or-nothing loading


@pytest.mark.parametrize("demand", [math.nan, math.inf, -math.inf, -1.0],
                         ids=["nan", "inf", "-inf", "negative"])
def test_bad_demand_is_rejected_naming_its_od(demand):
    net = diamond_network()
    od_demand = {(1, 4): 10.0, (2, 4): demand}
    named = r"^demand for \(2, 4\) must be finite and nonnegative$"
    with pytest.raises(ValueError, match=named):
        assign_interval(net, od_demand, Objective.UET)
    with pytest.raises(ValueError, match=named):
        all_or_nothing(net, od_demand, net.free_flow_h)


def test_aon_tie_breaks_to_smaller_link_id():
    nodes = [Node(1, 0.0, 0.0), Node(2, 16093.44, 0.0)]
    geom = ((0.0, 0.0), (16093.44, 0.0))
    # input order deliberately lists 9 before 7
    links = [
        Link(9, 1, 2, 10.0, 30.0, 1000.0, 5, 2, geom),
        Link(7, 1, 2, 10.0, 30.0, 1000.0, 5, 2, geom),
    ]
    net = Network(nodes, links)
    flows, unreachable = all_or_nothing(net, {(1, 2): 600.0}, net.free_flow_h.copy())
    assert unreachable == []
    assert flows[net.link_index[7]] == 600.0
    assert flows[net.link_index[9]] == 0.0


def test_aon_takes_cheapest_path_and_reports_unreachable():
    net = diamond_network()
    cost = net.free_flow_h.copy()  # route via 1-2-4: 0.22 h, via 1-3-4: 0.30 h
    flows, unreachable = all_or_nothing(net, {(1, 4): 100.0, (4, 1): 50.0}, cost)
    assert unreachable == [(4, 1, 50.0)]
    assert flows[net.link_index[1]] == 100.0
    assert flows[net.link_index[2]] == 100.0
    assert flows[net.link_index[3]] == 0.0

    # make the other route cheaper and the flow must move
    cost2 = cost.copy()
    cost2[net.link_index[1]] = 10.0
    flows2, _ = all_or_nothing(net, {(1, 4): 100.0}, cost2)
    assert flows2[net.link_index[3]] == 100.0
    assert flows2[net.link_index[1]] == 0.0


def test_aon_demand_validation():
    net = diamond_network()
    with pytest.raises(ValueError):
        all_or_nothing(net, {(1, 99): 10.0}, net.free_flow_h.copy())
    with pytest.raises(ValueError):
        all_or_nothing(net, {(1, 4): -5.0}, net.free_flow_h.copy())


# Frank-Wolfe equilibria against brute-force grid searches


def pigou_grid(objective: Objective, step=0.1):
    """Brute-force the narrow-link flow on the Pigou fixture."""
    net = pigou_network()
    wide, narrow = net.links[0], net.links[1]
    f_narrow = np.arange(0.0, PIGOU_DEMAND_VPH + step / 2, step)
    f_wide = PIGOU_DEMAND_VPH - f_narrow
    t0w, t0n = 1.0, 0.5
    if objective is Objective.UET:
        z = costs.bpr_integral(t0w, f_wide, wide.capacity_vph) + costs.bpr_integral(
            t0n, f_narrow, narrow.capacity_vph
        )
    elif objective is Objective.SOT:
        z = f_wide * costs.bpr_time(t0w, f_wide, wide.capacity_vph) + f_narrow * costs.bpr_time(
            t0n, f_narrow, narrow.capacity_vph
        )
    else:
        vw = np.clip(costs.bpr_speed(10.0, f_wide, wide.capacity_vph), 5.0, 90.0)
        vn = np.clip(costs.bpr_speed(20.0, f_narrow, narrow.capacity_vph), 5.0, 90.0)
        z = f_wide * 10.0 * fuel_per_mile(vw) + f_narrow * 10.0 * fuel_per_mile(vn)
    best = int(np.argmin(z))
    return float(f_narrow[best]), float(z[best])


def test_uet_matches_beckmann_grid_search():
    net = pigou_network()
    state = assign_interval(net, {(1, 2): 750}, Objective.UET, TIGHT)
    assert state.converged
    f_star, _ = pigou_grid(Objective.UET)
    got = state.flow_vph[net.link_index[2]]
    assert abs(got - f_star) / f_star <= 0.005
    # used-path times equalize
    t = state.time_h
    assert abs(t[0] - t[1]) / max(t[0], t[1]) <= 0.01


def test_sot_matches_total_time_grid_search():
    net = pigou_network()
    state = assign_interval(net, {(1, 2): 750}, Objective.SOT, TIGHT)
    f_star, z_star = pigou_grid(Objective.SOT)
    got = state.flow_vph[net.link_index[2]]
    assert abs(got - f_star) / f_star <= 0.01
    z_solver = float(np.sum(state.flow_vph * state.time_h))
    assert z_solver <= z_star * (1 + 1e-6)
    assert z_solver >= z_star * (1 - 1e-4)


def test_sof_matches_total_fuel_grid_search():
    net = pigou_network()
    state = assign_interval(net, {(1, 2): 750}, Objective.SOF, TIGHT)
    f_star, z_star = pigou_grid(Objective.SOF)
    got = state.flow_vph[net.link_index[2]]
    assert abs(got - f_star) / max(f_star, 1.0) <= 0.02 * PIGOU_DEMAND_VPH
    v = np.clip(state.speed_mph, 5.0, 90.0)
    z_solver = float(np.sum(state.flow_vph * net.length_miles * fuel_per_mile(v)))
    assert z_solver <= z_star * (1 + 1e-6)
    assert z_solver >= z_star * (1 - 1e-4)


def test_zero_demand_interval():
    net = pigou_network()
    state = assign_interval(net, {}, Objective.UET)
    assert state.converged and state.gap == 0.0 and state.iterations == 1
    assert not state.flow_vph.any()
    assert np.array_equal(state.time_h, net.free_flow_h)


def test_objective_value_never_increases_along_iterations():
    net = diamond_network()
    for objective in Objective:
        state = assign_interval(net, {(1, 4): 625}, objective, TIGHT)
        values = [v for _, v in state.log]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 1e-12)


def test_wardrop_on_diamond():
    net = diamond_network()
    state = assign_interval(net, {(1, 4): 625}, Objective.UET, TIGHT)  # 2500 vph
    assert state.converged
    idx = net.link_index
    f = state.flow_vph
    assert f[idx[1]] > 0 and f[idx[3]] > 0  # both routes in use
    assert f[idx[1]] == pytest.approx(f[idx[2]], rel=1e-9)
    t_fast = state.time_h[idx[1]] + state.time_h[idx[2]]
    t_slow = state.time_h[idx[3]] + state.time_h[idx[4]]
    assert abs(t_fast - t_slow) / max(t_fast, t_slow) <= 0.01


def test_unreachable_demand_reported_in_counts():
    net = diamond_network()
    state = assign_interval(net, {(1, 4): 10, (4, 1): 7}, Objective.UET, TIGHT)
    assert state.unreachable == [(4, 1, pytest.approx(7.0))]


def test_assignment_cost_scalar_helper():
    # the objective -> cost mapping, read off the narrow Pigou link
    net = pigou_network()

    def narrow_cost(objective, flow):
        flows = np.array([0.0, flow])
        return qdta._cost_vector(net, objective, flows, SolverConfig())[1]

    assert narrow_cost(Objective.UET, 1000.0) == pytest.approx(
        costs.bpr_time(0.5, 1000.0, 1000.0)
    )
    assert narrow_cost(Objective.SOT, 1000.0) == pytest.approx(
        costs.marginal_time_cost(0.5, 1000.0, 1000.0)
    )
    assert narrow_cost(Objective.SOF, 0.0) == pytest.approx(
        costs.eco_assignment_cost(10.0, 20.0, 0.0, 1000.0)
    )


def test_non_convergence_warns_and_flags(caplog):
    net = diamond_network()
    cfg = SolverConfig(max_iterations=2, relative_gap=1e-12)
    with caplog.at_level("WARNING"):
        state = assign_interval(net, {(1, 4): 625}, Objective.UET, cfg)
    assert not state.converged
    assert state.iterations == 2
    assert any("max_iterations" in r.message for r in caplog.records)


# trip advancement


def test_advance_trips_budget_walk():
    net = chain_network()
    state = free_flow_state(net)
    trips = qdta._Trips(net, departures((1, 1, 4, 0.0)))
    arrived, residual, entered = qdta.advance_trips(net, state, trips, np.arange(1), 900.0)
    # 20 min first link overruns the 15 min budget but is still taken whole
    assert arrived.size == 0 and residual.tolist() == [0]
    assert net.nodes[trips.node[0]].id == 2
    assert trips.time_h[0] == pytest.approx(10.0 / 30.0)
    assert entered.tolist() == [1, 0, 0]

    arrived, residual, entered = qdta.advance_trips(net, state, trips, residual, 900.0)
    # second link ends exactly at the budget boundary; the third must wait
    assert arrived.size == 0 and residual.tolist() == [0]
    assert net.nodes[trips.node[0]].id == 3
    assert entered.tolist() == [0, 1, 0]

    arrived, residual, entered = qdta.advance_trips(net, state, trips, residual, 900.0)
    assert residual.size == 0 and arrived.tolist() == [0]
    table = trips.table(net)
    assert table.status.tolist() == ["completed"]
    assert list(table.link_lists()) == [[1, 2, 3]]
    assert table.time_h[0] == pytest.approx(40.0 / 60.0)
    assert table.end_s[0] == pytest.approx(2400.0)
    assert table.distance_miles[0] == pytest.approx(20.0)
    assert table.time_h[0] - table.free_flow_h[0] == pytest.approx(0.0, abs=1e-12)
    assert entered.tolist() == [0, 0, 1]


def test_advance_trips_completes_inside_budget():
    net = chain_network()
    state = free_flow_state(net)
    # start at node 3: 5 minutes of path in a 15 minute budget
    trips = qdta._Trips(net, departures((2, 3, 4, 0.0)))
    arrived, residual, entered = qdta.advance_trips(net, state, trips, np.arange(1), 900.0)
    assert residual.size == 0
    table = trips.table(net)
    assert table.status.tolist() == ["completed"]
    assert list(table.link_lists()) == [[3]]
    assert entered.tolist() == [0, 0, 1]


def test_advance_trips_unreachable_fails():
    net = diamond_network()
    state = free_flow_state(net)
    trips = qdta._Trips(net, departures((3, 4, 1, 0.0)))
    arrived, residual, entered = qdta.advance_trips(net, state, trips, np.arange(1), 900.0)
    assert residual.size == 0 and not entered.any()
    table = trips.table(net)
    assert table.status.tolist() == ["failed"]
    assert list(table.link_lists()) == [[]]
    assert table.end_s[0] == table.start_s[0]


def test_advance_trips_fuel_uses_congested_speeds():
    net = chain_network()
    state = free_flow_state(net)
    trips = qdta._Trips(net, departures((4, 1, 4, 0.0)))
    active = np.arange(1)
    for _ in range(3):
        arrived, active, _ = qdta.advance_trips(net, state, trips, active, 900.0)
        if arrived.size:
            break
    want = 20.0 * fuel_per_mile(30.0)
    assert trips.table(net).fuel_l[0] == pytest.approx(want, rel=1e-12)


# whole-day runs


def test_run_day_pigou_matches_single_interval():
    net = pigou_network()
    trips = uniform_trips(1, 2, 750, start_s=8 * 3600.0)
    cfg = SolverConfig(relative_gap=1e-6)
    result = run_day(net, trips, Objective.UET, cfg)
    single = assign_interval(net, {(1, 2): 750}, Objective.UET, cfg)
    k = int(8 * 3600 // 900)
    assert np.array_equal(result.flow_states[k].flow_vph, single.flow_vph)
    for j, fs in enumerate(result.flow_states):
        if j != k:
            assert not fs.flow_vph.any()
            assert fs.converged and fs.gap == 0.0
    # every pigou trip is one link long, so all complete in their interval
    assert result.counts() == {"completed": 750, "forced": 0, "failed": 0}
    trip_miles, link_miles, rel = result.conservation()
    assert trip_miles == pytest.approx(7500.0)
    assert rel <= 1e-12


def test_run_day_residuals_reenter_next_interval():
    net = chain_network()
    result = run_day(net, departures((1, 1, 4, 0.0)), Objective.UET)
    # interval 0 assigns the whole path, the trip only clears link 1
    assert result.flow_states[0].entered.tolist() == [1, 0, 0]
    assert result.flow_states[1].entered.tolist() == [0, 1, 0]
    assert result.flow_states[2].entered.tolist() == [0, 0, 1]
    # carried-over demand shows up as interval-1 flow on the tail links
    assert result.flow_states[1].flow_vph[net.link_index[2]] > 0
    assert result.flow_states[1].flow_vph[net.link_index[1]] == 0.0
    rec = result.records[0]
    assert rec.status == "completed"
    assert rec.time_h == pytest.approx(40.0 / 60.0)
    _, _, rel = result.conservation()
    assert rel <= 1e-12


def test_run_day_forces_leftovers_at_midnight():
    net = chain_network()
    # departs 23:53:20; only one link fits before the day ends
    result = run_day(net, departures((1, 1, 4, 86_000.0)), Objective.UET)
    rec = result.records[0]
    assert rec.status == "forced"
    assert rec.links == (1, 2, 3)
    assert rec.distance_miles == pytest.approx(20.0)
    assert result.forced_entered.tolist() == [0, 1, 1]
    assert result.flow_states[95].entered.tolist() == [1, 0, 0]
    _, _, rel = result.conservation()
    assert rel <= 1e-12
    assert result.counts()["forced"] == 1


def count_dijkstra(monkeypatch) -> list:
    calls = []
    real = qdta._csgraph_dijkstra

    def counted(*args, **kwargs):
        calls.append(np.atleast_1d(kwargs["indices"]).tolist())
        return real(*args, **kwargs)

    monkeypatch.setattr(qdta, "_csgraph_dijkstra", counted)
    return calls


@pytest.mark.parametrize("objective", list(Objective))
def test_run_day_walk_reuses_final_frank_wolfe_tree(monkeypatch, objective):
    calls = count_dijkstra(monkeypatch)
    # capacity low enough that one trip moves the costs off free flow
    net = chain_network(capacity_vph=10.0)
    # three 5-minute trips in three intervals, one forced at midnight
    trips = departures(*[(i + 1, 3, 4, 3600.0 * i) for i in range(3)], (4, 1, 4, 86_000.0))
    result = run_day(net, trips, objective)
    busy = [fs for fs in result.flow_states if fs.flow_vph.any()]
    assert len(busy) == 4 and all(fs.iterations == 1 for fs in busy)
    assert result.counts() == {"completed": 3, "forced": 1, "failed": 0}
    # Rows are kept per source for the last two cost vectors. Node 3's first
    # interval solves free-flow costs and cost(f), whose tree the walk reuses;
    # its next two intervals have the same costs and source and solve nothing.
    # Node 1's interval solves a new source at free-flow costs and a new
    # cost(f), and the forced walk from node 2 at free-flow costs one more.
    assert len(calls) == 2 + 0 + 0 + 2 + 1


def test_shortest_paths_recomputes_after_in_place_cost_change(monkeypatch):
    calls = count_dijkstra(monkeypatch)
    net = diamond_network()
    graph = qdta._routing(net)
    source = np.array([net.node_index[1]])
    cost = net.free_flow_h.copy()
    dist, pred, _ = graph.shortest_paths(source, cost)
    assert pred[0, net.node_index[4]] == net.node_index[2]
    again = graph.shortest_paths(source.copy(), cost.copy())
    assert np.array_equal(again[0], dist) and len(calls) == 1
    cost[net.link_index[1]] = 100.0
    dist, pred, _ = graph.shortest_paths(source, cost)
    assert len(calls) == 2
    assert pred[0, net.node_index[4]] == net.node_index[3]
    assert dist[0, net.node_index[4]] == pytest.approx(0.3)


def test_shortest_paths_solves_each_source_once_per_cost_vector(monkeypatch):
    calls = count_dijkstra(monkeypatch)
    net = diamond_network()
    graph = qdta._routing(net)
    a, b, c = (net.node_index[n] for n in (1, 2, 3))
    cost = net.free_flow_h.copy()
    first = graph.shortest_paths(np.array([b, a]), cost)
    second = graph.shortest_paths(np.array([a, c, b, a]), cost.copy())
    assert calls == [[b, a], [c]]
    # rows come back in the order asked for, as a batch of their own solves them
    fresh = qdta.RoutingGraph(net).shortest_paths(np.array([a, c, b, a]), cost)
    for got, want in zip(second, fresh):
        assert np.array_equal(got, want)
    assert np.array_equal(second[0][[2, 0]], first[0])
    assert np.array_equal(second[1][[2, 0]], first[1])


def test_shortest_paths_subset_of_solved_sources_runs_no_dijkstra(monkeypatch):
    calls = count_dijkstra(monkeypatch)
    net = diamond_network()
    graph = qdta._routing(net)
    sources = np.array([net.node_index[n] for n in (1, 2, 3)])
    dist, pred, _ = graph.shortest_paths(sources, net.free_flow_h)
    sub = graph.shortest_paths(sources[[2, 0]], net.free_flow_h.copy())
    assert len(calls) == 1
    assert np.array_equal(sub[0], dist[[2, 0]]) and np.array_equal(sub[1], pred[[2, 0]])


def test_shortest_paths_in_place_edit_misses_beside_a_kept_vector(monkeypatch):
    calls = count_dijkstra(monkeypatch)
    net = diamond_network()
    graph = qdta._routing(net)
    source = np.array([net.node_index[1]])
    other = net.free_flow_h * 2.0
    cost = net.free_flow_h.copy()
    graph.shortest_paths(source, cost)
    graph.shortest_paths(source, other)
    cost[net.link_index[1]] = 100.0
    dist, pred, _ = graph.shortest_paths(source, cost)
    assert len(calls) == 3
    assert pred[0, net.node_index[4]] == net.node_index[3]
    graph.shortest_paths(source, other)
    assert len(calls) == 3


def test_shortest_paths_third_cost_vector_evicts_least_recently_used(monkeypatch):
    calls = count_dijkstra(monkeypatch)
    net = diamond_network()
    graph = qdta._routing(net)
    source = np.array([net.node_index[1]])
    first, second, third = (net.free_flow_h * k for k in (1.0, 2.0, 3.0))
    graph.shortest_paths(source, first)
    graph.shortest_paths(source, second)
    graph.shortest_paths(source, first)  # a hit makes first the most recent
    assert len(calls) == 2
    graph.shortest_paths(source, third)  # evicts second
    assert len(calls) == 3
    graph.shortest_paths(source, first)
    graph.shortest_paths(source, third)
    assert len(calls) == 3
    graph.shortest_paths(source, second)
    assert len(calls) == 4


def test_forced_completion_fuel_uses_link_speeds():
    # length / (length / speed) != speed for 1.0 and 0.5 mi at 49 mph
    nodes = [Node(1, 0.0, 0.0), Node(2, 16093.44, 0.0), Node(3, 17093.44, 0.0),
             Node(4, 17593.44, 0.0)]
    by_id = {n.id: n for n in nodes}
    spec = [(1, 1, 2, 10.0, 30.0), (2, 2, 3, 1.0, 49.0), (3, 3, 4, 0.5, 49.0)]
    links = [Link(lid, a, b, length, speed, 1e6, 5, 2,
                  detour_geometry(by_id[a], by_id[b], length))
             for lid, a, b, length, speed in spec]
    net = Network(nodes, links)
    derived = net.length_miles / net.free_flow_h
    assert not np.array_equal(derived, net.speed_mph)

    result = run_day(net, departures((1, 1, 4, 86_000.0)), Objective.UET)
    rec = result.records[0]
    assert rec.status == "forced" and result.forced_entered.tolist() == [0, 1, 1]
    cfg = SolverConfig()

    def link_fuel(speeds):
        speeds = np.clip(speeds, cfg.speed_floor_mph, cfg.speed_cap_mph)
        return net.length_miles * fuel_per_mile(speeds, cfg.fuel)

    walked = float(link_fuel(result.flow_states[95].speed_mph)[[0]].sum())
    assert rec.fuel_l == walked + float(link_fuel(net.speed_mph)[[1, 2]].sum())
    assert rec.fuel_l != walked + float(link_fuel(derived)[[1, 2]].sum())


def test_run_day_failed_trip():
    nodes = [Node(1, 0.0, 0.0), Node(2, 16093.44, 0.0), Node(3, 0.0, 16093.44)]
    links = [Link(1, 1, 2, 10.0, 30.0, 1000.0, 5, 2, ((0.0, 0.0), (16093.44, 0.0)))]
    net = Network(nodes, links)
    result = run_day(net, departures((1, 1, 3, 100.0)), Objective.UET)
    assert result.counts()["failed"] == 1
    assert result.records[0].distance_miles == 0.0
    state = result.flow_states[0]
    assert state.unreachable == [(1, 3, pytest.approx(1.0))]


def test_run_day_rejects_unknown_nodes():
    net = chain_network()
    with pytest.raises(ValueError, match="unknown origin"):
        run_day(net, departures((1, 99, 4, 0.0)), Objective.UET)
    with pytest.raises(ValueError, match="unknown destination"):
        run_day(net, departures((1, 1, 99, 0.0)), Objective.UET)


def test_run_day_rejects_repeated_trip_ids():
    net = chain_network()
    with pytest.raises(ValueError, match="duplicate trip_id 2$"):
        run_day(net, departures((2, 1, 4, 0.0), (7, 1, 4, 10.0), (2, 3, 4, 5000.0)),
                Objective.UET)


def test_run_day_is_deterministic():
    net = corridor_network()
    o, d = corridor_od()
    trips = joined(uniform_trips(o, d, 300, start_s=7 * 3600.0, spacing_s=2.0),
                   uniform_trips(d, o, 200, start_s=7.5 * 3600.0, spacing_s=2.0, first_id=1001))
    a = run_day(net, trips, Objective.SOT)
    b = run_day(net, trips, Objective.SOT)
    for fa, fb in zip(a.flow_states, b.flow_states):
        assert np.array_equal(fa.flow_vph, fb.flow_vph)
        assert np.array_equal(fa.entered, fb.entered)
    assert a.records == b.records


def test_total_system_time_and_fuel_accessors():
    net = pigou_network()
    trips = uniform_trips(1, 2, 750, start_s=0.0)
    result = run_day(net, trips, Objective.UET, SolverConfig(relative_gap=1e-6))
    # one interval at 3000 vph, both routes at 1.0 h: 750 veh-hours
    assert result.total_system_time_h() == pytest.approx(750.0, rel=2e-3)
    assert result.total_fuel_from_flows() > 0


def test_interval_record_keeps_a_negative_zero_flow():
    net = chain_network()
    flows = np.array([-0.0, 0.0, 250.0])
    config = SolverConfig()
    state = qdta._flow_state(net, Objective.SOF, config, flows,
                             qdta._cost_vector(net, Objective.SOF, flows, config), True, 0.0, 1,
                             [(0.0, 1.0)], [], np.array([0, 0, 3], dtype=np.int64))
    record = IntervalRecord.of(state)
    assert record.links.tolist() == [0, 2]
    assert (record.entered_links.tolist(), record.entered_count.tolist()) == ([2], [3])
    result = assignment_of(net, [state], trips=None)
    assert_same_states(result.flow_states, [state])
    # the stats read the record's own arrays, the -0.0 flow included
    record = result.intervals[0]
    links, flow_vph, time_h = daily_stats(result).rows[0]
    assert links is record.links and flow_vph is record.flow_vph and time_h is record.time_h
    assert flow_vph.tobytes() == flows[[0, 2]].tobytes()


def test_interval_records_grow_with_loaded_links_not_with_the_day():
    net = grid_network(12, 12)  # 528 links
    trips = uniform_trips(1, 144, 40, start_s=8 * 3600.0)
    result = run_day(net, trips, Objective.UET)
    loaded = sum(rec.links.size for rec in result.intervals)
    entered = sum(rec.entered_links.size for rec in result.intervals)
    nbytes = sum(a.nbytes for rec in result.intervals
                 for a in (rec.links, rec.flow_vph, rec.time_h, rec.entered_links,
                           rec.entered_count))
    # a link position, its flow and its time; a link position and its count
    assert nbytes == 20 * loaded + 12 * entered
    assert 0 < loaded == sum(np.count_nonzero(fs.flow_vph) for fs in result.flow_states)
    assert nbytes * 100 < 96 * net.n_links * 5 * 8  # five dense link arrays per interval
