import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowscore import costs, qdta
from flowscore.indicators import daily_stats
from flowscore.network import Network
from flowscore.qdta import (
    FlowState,
    IntervalRecord,
    Objective,
    SolverConfig,
    assign_interval,
    run_day,
)

from costs_reference import bpr_integral, bpr_speed, bpr_time, fuel_per_mile, link_fuel
from qdta_reference import (conservation, cost_vector, dense_entered, dense_states, objective_value,
                            shortest_distances)

import fixtures
from fixtures import (
    PIGOU_DEMAND_VPH,
    Link,
    NO_NEEDS,
    Node,
    assert_same_states,
    assigned_day,
    assignment_of,
    corridor_network,
    corridor_od,
    counts,
    departures,
    detour_geometry,
    grid_network,
    joined,
    links_of,
    nodes_of,
    pigou_network,
    shortest_rows,
    uniform_trips,
)

TIGHT = SolverConfig(relative_gap=1e-6)
CONFIG = SolverConfig()  # 900 s intervals


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
    return fixtures.network(nodes, links)


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
    return fixtures.network(nodes, links)


def node_at(network, node_id) -> int:
    return int(network.node_positions([node_id])[0])


def free_flow_state(network, trips, active) -> FlowState:
    """A zero-flow state whose paths, at free-flow times, are those of the
    trips at positions active from where they stand."""
    t = network.free_flow_h.copy()
    return FlowState(
        flow_vph=np.zeros(network.n_links),
        time_h=t,
        speed_mph=network.length_miles / t,
        cost=t.copy(),
        converged=True,
        gap=0.0,
        iterations=1,
        paths=fixtures.path_table(network, trips, active, t),
    )


# demand bucketing and input parsing


def test_bucket_demand_interval_boundaries():
    # 1 mi each way at 30 mph: every trip finishes in the interval it leaves in,
    # so each interval's flow is its departures at 4 veh/h per trip
    a, b = Node(1, 0.0, 0.0), Node(2, 1609.344, 0.0)
    net = fixtures.network([a, b], [Link(1, 1, 2, 1.0, 30.0, 1e6, 5, 2, ((a.x, a.y), (b.x, b.y))),
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
    flows = np.stack([fs.flow_vph for fs in dense_states(result)])
    want = np.zeros((96, 2))
    want[0] = [8.0, 0.0]
    want[1] = [4.0, 0.0]
    want[28] = [4.0, 4.0]
    want[95] = [4.0, 0.0]
    assert np.array_equal(flows, want)
    assert counts(result) == {"completed": 6, "forced": 0, "failed": 0}


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
    for depart_s in (["5"], [True]):
        with pytest.raises(ValueError, match="^depart_s must hold numbers$"):
            qdta.Departures(trip_id=[1], origin=[1], destination=[2], depart_s=depart_s)


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
    for tol in (0.0, 1.0):
        with pytest.raises(ValueError, match="^line_search_tol must be in \\(0, 1\\)$"):
            SolverConfig(line_search_tol=tol)


def test_solver_config_keeps_the_speed_clamp_inside_the_fuel_model():
    SolverConfig(speed_floor_mph=costs.FUEL_SPEED_MIN, speed_cap_mph=costs.FUEL_SPEED_MAX)
    with pytest.raises(ValueError, match="speed_floor_mph must be at least 1.0 mph"):
        SolverConfig(speed_floor_mph=0.5)
    with pytest.raises(ValueError, match="speed_cap_mph must be at most 120.0 mph"):
        SolverConfig(speed_cap_mph=150.0)


def test_solver_config_needs_a_fuel_curve_positive_inside_the_speed_clamp():
    # the clamp may reach 1 and 120 mph
    least_at_cap = costs.FuelParams(-0.0175, 1.9, 1e-9)  # -0.00165 L/mile at 120 mph
    SolverConfig(fuel=least_at_cap)
    with pytest.raises(ValueError, match=r"fuel curve nonpositive at 120\.0 mph"):
        SolverConfig(fuel=least_at_cap, speed_cap_mph=120.0)
    dip = costs.FuelParams(-0.6, 1.0, 1.0 / 54.0)  # least at 3 mph, -0.1 L/mile
    SolverConfig(fuel=dip)
    with pytest.raises(ValueError, match=r"fuel curve nonpositive at 3\.0\d* mph"):
        SolverConfig(fuel=dip, speed_floor_mph=1.0)
    # the check agrees with a dense scan of the clamp wherever the scan is clear
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        floor, cap = np.sort(rng.uniform(costs.FUEL_SPEED_MIN, costs.FUEL_SPEED_MAX, 2))
        b, c = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-6.0, -1.0)
        a = -rng.uniform(0.0, 1.2) * 3.0 * (b / 2.0) ** (2.0 / 3.0) * c ** (1.0 / 3.0)
        fuel = costs.FuelParams(float(a), float(b), float(c))
        v = np.linspace(floor, cap, 20_001)
        least = float(np.min(a + b / v + c * v**2))
        if abs(least) < 1e-9:
            continue
        checked += 1
        if least > 0:
            SolverConfig(speed_floor_mph=float(floor), speed_cap_mph=float(cap), fuel=fuel)
        else:
            with pytest.raises(ValueError, match="fuel curve nonpositive"):
                SolverConfig(speed_floor_mph=float(floor), speed_cap_mph=float(cap), fuel=fuel)
    assert checked > 100


def test_objective_parse():
    assert Objective.parse(" SOT ") is Objective.SOT
    with pytest.raises(ValueError, match="unknown objective"):
        Objective.parse("fuel")


# all-or-nothing loading


def all_or_nothing(net, origin, destination, count, link_costs):
    """Each OD's whole demand on its least-cost path at link_costs: (flows,
    the (origin, destination, count) of each OD with no path, the paths)."""
    batch = qdta._DemandBatch(net, origin, destination, count, 1.0)
    flows, reachable, paths = qdta._load_all_or_nothing(qdta.RoutingGraph(net), batch, link_costs)
    lost = ~reachable
    return flows, list(zip(batch.o_id[lost].tolist(), batch.d_id[lost].tolist(),
                           batch.count[lost].tolist())), paths


@pytest.mark.parametrize("demand", [math.nan, math.inf, -math.inf, -1.0],
                         ids=["nan", "inf", "-inf", "negative"])
def test_bad_demand_is_rejected_naming_its_od(demand):
    net = diamond_network()
    od_demand = ([1, 2], [4, 4], [10.0, demand])
    named = r"^demand for \(2, 4\) must be finite and nonnegative$"
    with pytest.raises(ValueError, match=named):
        assign_interval(net, *od_demand, Objective.UET)
    with pytest.raises(ValueError, match=named):
        all_or_nothing(net, *od_demand, net.free_flow_h)


@pytest.mark.parametrize("od_demand, named", [
    (([1.0], [4.0], [10.0]), r"^origin and destination must hold integers$"),
    ((["1"], ["4"], [10.0]), r"^origin and destination must hold integers$"),
    (([1, 2], [4], [10.0, 5.0]), r"^demand columns must be 1-D and of one length$"),
    (([1], [4], [10.0, 5.0]), r"^demand columns must be 1-D and of one length$"),
    (([[1, 2]], [[4, 4]], [[10.0, 5.0]]), r"^demand columns must be 1-D and of one length$"),
    (([1], [4], ["10"]), r"^count must hold numbers$"),
    (([1], [4], [True]), r"^count must hold numbers$"),
], ids=["float", "text", "unequal_ids", "unequal_count", "2d", "text_count", "bool_count"])
def test_bad_od_keys_are_rejected(od_demand, named):
    net = diamond_network()
    with pytest.raises(ValueError, match=named):
        assign_interval(net, *od_demand, Objective.UET)
    with pytest.raises(ValueError, match=named):
        all_or_nothing(net, *od_demand, net.free_flow_h)


@pytest.mark.parametrize("od_demand, named", [
    (([1, 1, 4], [4, 999, 4], [10.0, 0.0, 0.0]), r"^unknown destination node 999$"),
    (([1, 4, 1], [4, 4, 999], [10.0, 0.0, 0.0]), r"^origin equals destination for node 4$"),
    (([7, 1], [4, 4], [0.0, 10.0]), r"^unknown origin node 7$"),
    (([1, 2, 1], [4, 4, 4], [10.0, 5.0, 0.0]), r"^repeated OD \(1, 4\)$"),
    (([1, 2, 1], [4, 4, 4], [0.0, 5.0, 10.0]), r"^repeated OD \(1, 4\)$"),
], ids=["unknown_node_at_zero", "equal_ends_at_zero", "unknown_origin", "repeat_at_zero",
        "repeat_of_a_zero_row"])
def test_every_demand_row_is_checked_even_at_zero_trips(od_demand, named):
    # the first bad row in input order is named, whatever its count
    net = fixtures.two_route_network()
    with pytest.raises(ValueError, match=named):
        assign_interval(net, *od_demand, Objective.UET)
    with pytest.raises(ValueError, match=named):
        all_or_nothing(net, *od_demand, net.free_flow_h)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_order_of_the_demand_rows_does_not_matter(seed):
    """A permutation of the demand rows gives the bits of the rows in their
    own order. On a grid whose node rows run by descending id and that lacks
    some links, a batch runs by ascending (origin id, destination id): the
    order in which np.add.at sums the loads."""
    rng = np.random.default_rng(seed)
    grid = grid_network(int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                        capacity_vph=float(rng.uniform(20.0, 800.0)))
    links = [link for link in links_of(grid) if rng.random() < 0.85]
    net = fixtures.network(nodes_of(grid)[::-1], links)
    ids = net.node_ids.tolist()
    pairs = np.array([(o, d) for o in ids for d in ids if o != d])
    od = pairs[rng.choice(len(pairs), size=int(rng.integers(1, 13)), replace=False)]
    count = np.where(rng.random(len(od)) < 0.25, 0.0, rng.uniform(0.1, 60.0, len(od)))
    objective = Objective(str(rng.choice(["uet", "sot", "sof"])))
    config = SolverConfig(max_iterations=int(rng.integers(1, 6)))
    perm = rng.permutation(len(od))
    states = [assign_interval(net, rows[:, 0], rows[:, 1], c, objective, config)
              for rows, c in ((od, count), (od[perm], count[perm]))]
    assert_same_states(states[1:], states[:1])
    for name in ("key", "length", "links"):
        got, want = getattr(states[1].paths, name), getattr(states[0].paths, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    batch = qdta._DemandBatch(net, od[perm, 0], od[perm, 1], count[perm], 1.0)
    kept = sorted(map(tuple, od[count > 0].tolist()))
    assert list(zip(batch.o_id.tolist(), batch.d_id.tolist())) == kept


def test_aon_tie_breaks_to_smaller_link_id():
    nodes = [Node(1, 0.0, 0.0), Node(2, 16093.44, 0.0)]
    geom = ((0.0, 0.0), (16093.44, 0.0))
    # input order deliberately lists 9 before 7
    links = [
        Link(9, 1, 2, 10.0, 30.0, 1000.0, 5, 2, geom),
        Link(7, 1, 2, 10.0, 30.0, 1000.0, 5, 2, geom),
    ]
    net = fixtures.network(nodes, links)
    flows, unreachable, _ = all_or_nothing(net, [1], [2], [600.0], net.free_flow_h.copy())
    assert unreachable == []
    assert flows[net.link_positions(7)] == 600.0
    assert flows[net.link_positions(9)] == 0.0


def test_aon_takes_cheapest_path_and_reports_unreachable():
    net = diamond_network()
    cost = net.free_flow_h.copy()  # route via 1-2-4: 0.22 h, via 1-3-4: 0.30 h
    flows, unreachable, _ = all_or_nothing(net, [1, 4], [4, 1], [100.0, 50.0], cost)
    assert unreachable == [(4, 1, 50.0)]
    assert flows[net.link_positions(1)] == 100.0
    assert flows[net.link_positions(2)] == 100.0
    assert flows[net.link_positions(3)] == 0.0

    # make the other route cheaper and the flow must move
    cost2 = cost.copy()
    cost2[net.link_positions(1)] = 10.0
    flows2, _, _ = all_or_nothing(net, [1], [4], [100.0], cost2)
    assert flows2[net.link_positions(3)] == 100.0
    assert flows2[net.link_positions(1)] == 0.0


def test_aon_demand_validation():
    net = diamond_network()
    with pytest.raises(ValueError):
        all_or_nothing(net, [1], [99], [10.0], net.free_flow_h.copy())
    with pytest.raises(ValueError):
        all_or_nothing(net, [1], [4], [-5.0], net.free_flow_h.copy())


# Frank-Wolfe equilibria against brute-force grid searches


def pigou_grid(objective: Objective, step=0.1):
    """Brute-force the narrow-link flow on the Pigou fixture."""
    net = pigou_network()
    wide, narrow = links_of(net)[:2]
    f_narrow = np.arange(0.0, PIGOU_DEMAND_VPH + step / 2, step)
    f_wide = PIGOU_DEMAND_VPH - f_narrow
    t0w, t0n = 1.0, 0.5
    if objective is Objective.UET:
        z = bpr_integral(t0w, f_wide, wide.capacity_vph) + bpr_integral(
            t0n, f_narrow, narrow.capacity_vph
        )
    elif objective is Objective.SOT:
        z = f_wide * bpr_time(t0w, f_wide, wide.capacity_vph) + f_narrow * bpr_time(
            t0n, f_narrow, narrow.capacity_vph
        )
    else:
        vw = np.clip(bpr_speed(10.0, f_wide, wide.capacity_vph), 5.0, 90.0)
        vn = np.clip(bpr_speed(20.0, f_narrow, narrow.capacity_vph), 5.0, 90.0)
        z = f_wide * 10.0 * fuel_per_mile(vw) + f_narrow * 10.0 * fuel_per_mile(vn)
    best = int(np.argmin(z))
    return float(f_narrow[best]), float(z[best])


def test_uet_matches_beckmann_grid_search():
    net = pigou_network()
    state = assign_interval(net, [1], [2], [750], Objective.UET, TIGHT)
    assert state.converged
    f_star, _ = pigou_grid(Objective.UET)
    got = state.flow_vph[net.link_positions(2)]
    assert abs(got - f_star) / f_star <= 0.005
    # used-path times equalize
    t = state.time_h
    assert abs(t[0] - t[1]) / max(t[0], t[1]) <= 0.01


def test_sot_matches_total_time_grid_search():
    net = pigou_network()
    state = assign_interval(net, [1], [2], [750], Objective.SOT, TIGHT)
    f_star, z_star = pigou_grid(Objective.SOT)
    got = state.flow_vph[net.link_positions(2)]
    assert abs(got - f_star) / f_star <= 0.01
    z_solver = float(np.sum(state.flow_vph * state.time_h))
    assert z_solver <= z_star * (1 + 1e-6)
    assert z_solver >= z_star * (1 - 1e-4)


def test_sof_matches_total_fuel_grid_search():
    net = pigou_network()
    state = assign_interval(net, [1], [2], [750], Objective.SOF, TIGHT)
    f_star, z_star = pigou_grid(Objective.SOF)
    got = state.flow_vph[net.link_positions(2)]
    assert abs(got - f_star) / max(f_star, 1.0) <= 0.02 * PIGOU_DEMAND_VPH
    v = np.clip(state.speed_mph, 5.0, 90.0)
    z_solver = float(np.sum(state.flow_vph * net.length_miles * fuel_per_mile(v)))
    assert z_solver <= z_star * (1 + 1e-6)
    assert z_solver >= z_star * (1 - 1e-4)


def test_zero_demand_interval():
    net = pigou_network()
    config = SolverConfig()
    zeros = np.zeros(net.n_links)
    for objective in Objective:
        for demand in (([], [], []), ([1], [2], [0.0])):
            state = assign_interval(net, *demand, objective, config)
            assert state.converged and state.gap == 0.0 and state.iterations == 1
            assert state.log == [(0.0, 0.0)] and state.unreachable == []
            assert not state.flow_vph.any()
            assert np.array_equal(state.time_h, net.free_flow_h)
            assert np.array_equal(state.cost, cost_vector(net, objective, zeros, config))


def test_objective_value_never_increases_along_iterations():
    net = diamond_network()
    for objective in Objective:
        state = assign_interval(net, [1], [4], [625], objective, TIGHT)
        values = [v for _, v in state.log]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 1e-12)


def test_wardrop_on_diamond():
    net = diamond_network()
    state = assign_interval(net, [1], [4], [625], Objective.UET, TIGHT)  # 2500 vph
    assert state.converged
    idx = net.link_positions
    f = state.flow_vph
    assert f[idx(1)] > 0 and f[idx(3)] > 0  # both routes in use
    assert f[idx(1)] == pytest.approx(f[idx(2)], rel=1e-9)
    t_fast = state.time_h[idx(1)] + state.time_h[idx(2)]
    t_slow = state.time_h[idx(3)] + state.time_h[idx(4)]
    assert abs(t_fast - t_slow) / max(t_fast, t_slow) <= 0.01


@pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
def test_reported_gap_is_the_gap_at_the_returned_flow(objective):
    # each interval's gap again, from the reference costs at the returned
    # flow and a fresh all-or-nothing load at them: sot's and sof's relative
    # gap is the reported one, and uet's gap from the latest lower bound is
    # at least the reported one, taken from the best bound
    net = corridor_network()
    o, d = corridor_od()
    config = SolverConfig(max_iterations=12)  # the gap holds at a stop short of convergence too
    iterations = []
    for rate in (1200.0, 2000.0, 2800.0):  # vph out, and half of it back
        demand = ([o, d], [d, o], [rate * config.interval_h, rate / 2 * config.interval_h])
        state = assign_interval(net, *demand, objective, config)
        f = state.flow_vph
        cost = cost_vector(net, objective, f, config)
        y = all_or_nothing(net, *demand[:2], [rate, rate / 2], cost)[0]
        if objective is Objective.UET:
            latest = float(cost @ (f - y)) / objective_value(net, objective, f, config)
            assert state.gap <= latest * (1 + 1e-9)
        else:
            assert state.gap == pytest.approx(float(cost @ (f - y)) / float(cost @ f), rel=1e-9)
        iterations.append(state.iterations)
    assert max(iterations) > 1, iterations


def test_uet_gap_is_taken_from_the_best_lower_bound_when_the_latest_falls():
    # the corridor at 2800 vph out and 1400 back, stopped at 4 iterations:
    # the 4th iterate's lower bound, value + cost @ (y - f), falls below
    # the 3rd's. Each logged gap again, from the reference costs at each
    # iterate and a fresh all-or-nothing load at them, must use the best
    # bound so far, not the latest
    net = corridor_network()
    o, d = corridor_od()
    config = SolverConfig(max_iterations=4)
    rates = [2800.0, 1400.0]
    demand = ([o, d], [d, o], [r * config.interval_h for r in rates])
    pricing = qdta._Pricing(net, Objective.UET, config)
    iterates, at = [], pricing.at

    def keep_iterate(f):
        iterates.append(f.copy())
        return at(f)

    pricing.at = keep_iterate
    state = assign_interval(net, *demand, Objective.UET, config, pricing=pricing)

    bounds, gaps = [], []
    for f in iterates:
        cost = cost_vector(net, Objective.UET, f, config)
        value = objective_value(net, Objective.UET, f, config)
        y = all_or_nothing(net, *demand[:2], rates, cost)[0]
        bounds.append(value + float(cost @ (y - f)))
        gaps.append(max((value - max(bounds)) / value, 0.0))
    assert len(bounds) == state.iterations == 4 and not state.converged
    assert bounds[-1] < max(bounds)  # so the latest bound's gap would differ
    assert [g for g, _ in state.log] == pytest.approx(gaps, rel=1e-9)
    assert state.gap == pytest.approx(gaps[-1], rel=1e-9)


def test_unreachable_demand_reported_in_counts():
    net = diamond_network()
    state = assign_interval(net, [1, 4], [4, 1], [10, 7], Objective.UET, TIGHT)
    assert state.unreachable == [(4, 1, pytest.approx(7.0))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow
@pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
def test_link_costs_that_overflow_name_the_link(objective):
    # (flow / capacity)**4 overflows on every loaded link; sof's clamped
    # speed keeps its cost finite, but not its time
    net = diamond_network()
    demand = ([1, 2, 3], [4, 4, 4], [1e307, 1e307, 1e307])
    with pytest.raises(ValueError, match=r"^link 1: cost not finite at flow 4e\+307 vph and "
                                         r"capacity 800.0 vph \(" + objective.value):
        assign_interval(net, *demand, objective, CONFIG)


def test_a_load_that_overflows_to_inf_raises_the_flow_error():
    # every OD's rate is finite, 8e307 trips/h, but all three share link 3,
    # where the first all-or-nothing load sums them to inf
    net, demand = chain_network(), ([1, 2, 3], [4, 4, 4], [2e307] * 3)
    assert CONFIG.interval_h == 0.25
    with pytest.raises(ValueError, match=r"^flow must be finite and nonnegative$"):
        assign_interval(net, *demand, Objective.UET, CONFIG)


def test_assignment_cost_scalar_helper():
    # the objective -> cost mapping, read off the narrow Pigou link: 10
    # miles at 20 mph and 1000 vph
    net = pigou_network()

    def narrow_cost(objective, flow):
        flows = np.array([0.0, flow])
        return qdta._Pricing(net, objective, SolverConfig()).at(flows)[0][1]

    assert narrow_cost(Objective.UET, 1000.0) == pytest.approx(0.5 * 1.15, rel=1e-12)
    assert narrow_cost(Objective.SOT, 1000.0) == pytest.approx(0.5 * 1.75, rel=1e-12)
    assert narrow_cost(Objective.SOF, 0.0) == pytest.approx(link_fuel(10.0, 20.0), rel=1e-12)


def test_non_convergence_warns_and_flags(caplog):
    net = diamond_network()
    cfg = SolverConfig(max_iterations=2, relative_gap=1e-12)
    with caplog.at_level("WARNING"):
        state = assign_interval(net, [1], [4], [625], Objective.UET, cfg)
    assert not state.converged
    assert state.iterations == 2
    assert any("max_iterations" in r.message for r in caplog.records)


# trip advancement


def advance(net, trips, active):
    """advance_trips for one 15-minute interval at free-flow times."""
    return qdta.advance_trips(net, free_flow_state(net, trips, active), trips, active, CONFIG)


def test_advance_trips_budget_walk():
    net = chain_network()
    trips = qdta._Trips(net, departures((1, 1, 4, 0.0)))
    arrived, residual, entered = advance(net, trips, np.arange(1))
    # 20 min first link overruns the 15 min budget but is still taken whole
    assert arrived.size == 0 and residual.tolist() == [0]
    assert net.node_ids[trips.node[0]] == 2
    assert trips.time_h[0] == pytest.approx(10.0 / 30.0)
    assert entered.tolist() == [1, 0, 0]

    arrived, residual, entered = advance(net, trips, residual)
    # second link ends exactly at the budget boundary; the third must wait
    assert arrived.size == 0 and residual.tolist() == [0]
    assert net.node_ids[trips.node[0]] == 3
    assert entered.tolist() == [0, 1, 0]

    arrived, residual, entered = advance(net, trips, residual)
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
    # start at node 3: 5 minutes of path in a 15 minute budget
    trips = qdta._Trips(net, departures((2, 3, 4, 0.0)))
    arrived, residual, entered = advance(net, trips, np.arange(1))
    assert residual.size == 0
    table = trips.table(net)
    assert table.status.tolist() == ["completed"]
    assert list(table.link_lists()) == [[3]]
    assert entered.tolist() == [0, 0, 1]


def test_advance_trips_unreachable_fails():
    net = diamond_network()
    trips = qdta._Trips(net, departures((3, 4, 1, 0.0)))
    arrived, residual, entered = advance(net, trips, np.arange(1))
    assert residual.size == 0 and not entered.any()
    table = trips.table(net)
    assert table.status.tolist() == ["failed"]
    assert list(table.link_lists()) == [[]]
    assert table.end_s[0] == table.start_s[0]


def test_advance_trips_fuel_uses_congested_speeds():
    net = chain_network()
    trips = qdta._Trips(net, departures((4, 1, 4, 0.0)))
    active = np.arange(1)
    for _ in range(3):
        arrived, active, _ = advance(net, trips, active)
        if arrived.size:
            break
    want = 20.0 * fuel_per_mile(30.0)
    assert trips.table(net).fuel_l[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("paths_of", [[0], [1], []])
def test_advance_trips_rejects_a_path_table_without_a_walking_trip(paths_of):
    net = chain_network()
    trips = qdta._Trips(net, departures((1, 1, 4, 0.0), (2, 2, 4, 0.0)))
    state = free_flow_state(net, trips, np.array(paths_of, dtype=np.intp))
    with pytest.raises(ValueError, match="lacks a walking trip"):
        qdta.advance_trips(net, state, trips, np.arange(2), CONFIG)


# whole-day runs


def test_run_day_pigou_matches_single_interval():
    net = pigou_network()
    trips = uniform_trips(1, 2, 750, start_s=8 * 3600.0)
    cfg = SolverConfig(relative_gap=1e-6)
    result = run_day(net, trips, Objective.UET, cfg)
    single = assign_interval(net, [1], [2], [750], Objective.UET, cfg)
    k = int(8 * 3600 // 900)
    states = dense_states(result)
    assert np.array_equal(states[k].flow_vph, single.flow_vph)
    for j, fs in enumerate(states):
        if j != k:
            assert not fs.flow_vph.any()
            assert fs.converged and fs.gap == 0.0
    # every pigou trip is one link long, so all complete in their interval
    assert counts(result) == {"completed": 750, "forced": 0, "failed": 0}
    trip_miles, link_miles, rel = conservation(result)
    assert trip_miles == pytest.approx(7500.0)
    assert rel <= 1e-12


def test_run_day_residuals_reenter_next_interval():
    net = chain_network()
    result = run_day(net, departures((1, 1, 4, 0.0)), Objective.UET)
    # interval 0 assigns the whole path, the trip only clears link 1
    entered, states = dense_entered(result), dense_states(result)
    assert entered[0].tolist() == [1, 0, 0]
    assert entered[1].tolist() == [0, 1, 0]
    assert entered[2].tolist() == [0, 0, 1]
    # carried-over demand shows up as interval-1 flow on the tail links
    assert states[1].flow_vph[net.link_positions(2)] > 0
    assert states[1].flow_vph[net.link_positions(1)] == 0.0
    rec = result.records[0]
    assert rec.status == "completed"
    assert rec.time_h == pytest.approx(40.0 / 60.0)
    _, _, rel = conservation(result)
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
    assert dense_entered(result)[95].tolist() == [1, 0, 0]
    _, _, rel = conservation(result)
    assert rel <= 1e-12
    assert counts(result)["forced"] == 1


def count_dijkstra(monkeypatch, limits=None) -> list:
    """The sources of each Dijkstra run, in order; each run's limit is
    appended to `limits` when given."""
    calls = []
    real = qdta._csgraph_dijkstra

    def counted(*args, **kwargs):
        calls.append(np.atleast_1d(kwargs["indices"]).tolist())
        if limits is not None:
            limits.append(kwargs.get("limit", math.inf))
        return real(*args, **kwargs)

    monkeypatch.setattr(qdta, "_csgraph_dijkstra", counted)
    return calls


@pytest.mark.parametrize("objective", list(Objective))
def test_run_day_walk_reuses_final_frank_wolfe_tree(
        monkeypatch, objective):
    calls = count_dijkstra(monkeypatch)
    in_walk, advance = [], qdta.advance_trips

    def walk(*args, **kwargs):
        before = len(calls)
        walked = advance(*args, **kwargs)
        in_walk.append(len(calls) - before)
        return walked

    monkeypatch.setattr(qdta, "advance_trips", walk)
    # capacity low enough that one trip moves the costs off free flow
    net = chain_network(capacity_vph=10.0)
    # three 5-minute trips from node 3 in three intervals; a trip from node 2
    # that spills at node 3; a trip from node 1 that stops at node 2 and is
    # forced at midnight
    trips = departures(*[(i + 1, 3, 4, 3600.0 * i) for i in range(3)], (4, 2, 4, 10_800.0),
                       (5, 1, 4, 86_000.0))
    result = run_day(net, trips, objective)
    busy = [fs for fs in dense_states(result) if fs.flow_vph.any()]
    assert len(busy) == 6 and all(fs.iterations == 1 for fs in busy)
    assert counts(result) == {"completed": 4, "forced": 1, "failed": 0}
    assert len(in_walk) == 96 and not any(in_walk)
    # Each busy interval's one iteration solves its source at its own cost(f).
    # The zero-flow rows of nodes 3, 2 and 1 are solved once each and kept
    # for the day, so the forced walk's load from node 2 solves nothing.
    assert len(calls) == 6 + 3


def test_shortest_paths_recomputes_after_in_place_cost_change(monkeypatch):
    calls = count_dijkstra(monkeypatch)
    net = diamond_network()
    graph = qdta.RoutingGraph(net)
    source = np.array([node_at(net, 1)])
    cost = net.free_flow_h.copy()
    pred, _ = shortest_rows(graph, source, cost, NO_NEEDS)
    assert pred[0, node_at(net, 4)] == node_at(net, 2)
    again = shortest_rows(graph, source.copy(), cost.copy(), NO_NEEDS)
    assert np.array_equal(again[0], pred) and len(calls) == 1
    cost[net.link_positions(1)] = 100.0
    pred, _ = shortest_rows(graph, source, cost, NO_NEEDS)
    assert len(calls) == 2
    assert pred[0, node_at(net, 4)] == node_at(net, 3)
    assert shortest_distances(net, cost, source)[0, node_at(net, 4)] == pytest.approx(0.3)


def test_shortest_paths_solves_each_source_once_per_cost_vector(monkeypatch):
    calls = count_dijkstra(monkeypatch)
    net = diamond_network()
    graph = qdta.RoutingGraph(net)
    a, b, c = (node_at(net, n) for n in (1, 2, 3))
    cost = net.free_flow_h.copy()
    first = shortest_rows(graph, np.array([b, a]), cost, NO_NEEDS)
    second = shortest_rows(graph, np.array([a, c, b, a]), cost.copy(), NO_NEEDS)
    assert calls == [[b, a], [c]]
    # rows come back in the order asked for, as a batch of their own solves them
    fresh = shortest_rows(qdta.RoutingGraph(net), np.array([a, c, b, a]), cost, NO_NEEDS)
    for got, want in zip(second, fresh):
        assert np.array_equal(got, want)
    assert np.array_equal(second[0][[2, 0]], first[0])


def test_shortest_paths_subset_of_solved_sources_runs_no_dijkstra(monkeypatch):
    calls = count_dijkstra(monkeypatch)
    net = diamond_network()
    graph = qdta.RoutingGraph(net)
    sources = np.array([node_at(net, n) for n in (1, 2, 3)])
    pred, _ = shortest_rows(graph, sources, net.free_flow_h, NO_NEEDS)
    sub = shortest_rows(graph, sources[[2, 0]], net.free_flow_h.copy(), NO_NEEDS)
    assert len(calls) == 1
    assert np.array_equal(sub[0], pred[[2, 0]])


def test_shortest_paths_keeps_only_the_last_cost_vector_asked_without_a_limit(monkeypatch):
    calls = count_dijkstra(monkeypatch)
    net = diamond_network()
    graph = qdta.RoutingGraph(net)
    source = np.array([node_at(net, 1)])
    first, second = net.free_flow_h.copy(), net.free_flow_h * 2.0
    graph.shortest_paths(source, first, NO_NEEDS)
    graph.shortest_paths(source, first.copy(), NO_NEEDS)
    assert len(calls) == 1
    graph.shortest_paths(source, second, NO_NEEDS)  # replaces first's rows
    graph.shortest_paths(source, second.copy(), NO_NEEDS)
    assert len(calls) == 2
    pred, _ = shortest_rows(graph, source, first, NO_NEEDS)
    assert len(calls) == 3 and pred[0, node_at(net, 4)] == node_at(net, 2)


def test_shortest_paths_rows_solved_with_a_limit_serve_only_their_call(monkeypatch):
    limits = []
    calls = count_dijkstra(monkeypatch, limits)
    net = chain_network()
    graph = qdta.RoutingGraph(net)
    source = np.array([node_at(net, 1)])
    zero_flow, loaded = net.free_flow_h.copy(), net.free_flow_h * 2.0
    graph.shortest_paths(source, zero_flow, NO_NEEDS)
    for _ in range(2):  # a limit at other costs: solved each time, kept never
        graph.shortest_paths(source, loaded, NO_NEEDS, np.array([5.0]))
    assert limits == [math.inf, 5.0, 5.0]
    # and the zero-flow rows are still kept
    graph.shortest_paths(source, zero_flow.copy(), NO_NEEDS, np.array([5.0]))
    assert len(calls) == 3


def test_shortest_paths_a_stopped_row_at_the_kept_costs_answers_only_what_it_settled(
        monkeypatch):
    limits = []
    calls = count_dijkstra(monkeypatch, limits)
    net = chain_network()  # 1 -> 2 -> 3 -> 4 at 20, 15 and 5 minutes
    graph = qdta.RoutingGraph(net)
    source = np.array([node_at(net, 1)])
    two, four = node_at(net, 2), node_at(net, 4)
    cost = net.free_flow_h.copy()
    graph.shortest_paths(np.empty(0, dtype=np.intp), cost, NO_NEEDS)  # cost's rows are kept
    pred, _ = shortest_rows(graph, source, cost.copy(), (np.array([0]), np.array([two])),
                            np.array([0.5]))
    assert limits == [0.5]
    # node 2 lies 1/3 h out, node 3 7/12 h: only node 2 has a predecessor
    assert pred[0].tolist() == [-9999, node_at(net, 1), -9999, -9999]
    # the kept row settled node 2, so it answers a request for node 2 alone
    graph.shortest_paths(source, cost.copy(), (np.array([0]), np.array([two])), np.array([9.0]))
    assert len(calls) == 1
    # node 4 lies past the row's limit: solved again, without one
    pred, _ = shortest_rows(graph, source, cost.copy(), (np.array([0]), np.array([four])),
                            np.array([0.5]))
    assert limits == [0.5, math.inf]
    assert pred[0, four] == node_at(net, 3)


def test_aon_reports_an_od_unreachable_only_after_a_full_search(monkeypatch):
    limits = []
    calls = count_dijkstra(monkeypatch, limits)
    net = diamond_network()  # one way: 4 reaches no node
    graph = qdta.RoutingGraph(net)
    batch = qdta._DemandBatch(net, [1, 4], [4, 1], [100.0, 50.0], 1.0)
    cost = net.free_flow_h.copy()
    _, reachable, paths = qdta._load_all_or_nothing(graph, batch, cost)
    assert reachable.tolist() == [True, False] and limits == [math.inf]
    assert paths.length.tolist() == [2, 0]  # OD (4, 1) has no path
    # a path table that gives OD (4, 1) a path bounds node 4's search; that
    # search settles only node 4, so node 4 is solved again, in full
    links = paths.links.copy()
    links[1, 0] = net.link_positions(1)
    forged = paths._replace(length=np.array([2, 1]), links=links)
    y, reachable, _ = qdta._load_all_or_nothing(graph, batch, cost * 2.0, forged)
    assert reachable.tolist() == [True, False]
    assert y[net.link_positions(1)] == 100.0
    four = node_at(net, 4)
    assert calls[1:] == [[four], [node_at(net, 1)], [four]]  # by limit: the forged one is shorter
    assert limits[1] < limits[2] < math.inf and limits[3] == math.inf


def test_frank_wolfe_bounds_every_search_after_the_first(monkeypatch):
    limits = []
    calls = count_dijkstra(monkeypatch, limits)
    net = diamond_network()
    state = assign_interval(net, [1], [4], [625], Objective.UET, TIGHT)
    assert state.iterations >= 2
    # the zero-flow load runs in full; each iteration's load stops at the
    # cost its source's last path has at the new costs
    assert len(calls) == state.iterations + 1
    assert limits[0] == math.inf and all(math.isfinite(x) for x in limits[1:])


def test_path_limits_bound_each_source_by_its_farthest_known_path():
    net = chain_network()
    batch = qdta._DemandBatch(net, [1, 1, 2, 3], [2, 4, 3, 1], [1.0, 1.0, 1.0, 1.0], 1.0)
    cost = net.free_flow_h * 2.0
    # OD (1, 2) drove link 1; OD (1, 4) links 1, 2 and 3; OD (2, 3) link 2;
    # OD (3, 1) is unreachable
    paths = qdta._Paths(np.zeros(4, dtype=np.int64), np.array([1, 3, 1, 0]),
                        np.array([[0, 0, 0], [0, 1, 2], [1, 0, 0], [0, 0, 0]]))
    got = qdta._path_limits(batch, paths, cost)
    want = [cost.sum(), cost[1], math.inf]
    assert got.tolist() == [w * (1 + 1e-9) for w in want]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 10), cols=st.integers(2, 10))
def test_a_stopped_search_settles_its_nodes_as_a_full_search_does(seed, rows, cols):
    """Heavily tied weights: a search stopped at a limit must give every node
    it settles the full search's pred, whatever the heap's tie order, and
    leave unsettled only nodes beyond its limit."""
    rng = np.random.default_rng(seed)
    net = grid_network(rows, cols)
    cost = rng.integers(1, 4, size=net.n_links).astype(float)
    sources = np.arange(net.n_nodes)
    full_pred, _ = shortest_rows(qdta.RoutingGraph(net), sources, cost, NO_NEEDS)
    full_dist = shortest_distances(net, cost, sources)
    for _ in range(3):
        # limits on the distances of random nodes, so ties sit at the limit too
        limit = full_dist[sources, rng.integers(0, net.n_nodes, size=sources.size)]
        pred, _ = shortest_rows(qdta.RoutingGraph(net), sources, cost, NO_NEEDS, limit)
        settled = pred >= 0  # a source has no predecessor
        assert np.array_equal(pred[settled], full_pred[settled])
        settled[sources, sources] = True
        beyond = full_dist > limit[:, None]
        assert beyond[~settled].all()


def test_forced_completion_fuel_uses_link_speeds():
    # length / (length / speed) != speed for 1.0 and 0.5 mi at 49 mph
    nodes = [Node(1, 0.0, 0.0), Node(2, 16093.44, 0.0), Node(3, 17093.44, 0.0),
             Node(4, 17593.44, 0.0)]
    by_id = {n.id: n for n in nodes}
    spec = [(1, 1, 2, 10.0, 30.0), (2, 2, 3, 1.0, 49.0), (3, 3, 4, 0.5, 49.0)]
    links = [Link(lid, a, b, length, speed, 1e6, 5, 2,
                  detour_geometry(by_id[a], by_id[b], length))
             for lid, a, b, length, speed in spec]
    net = fixtures.network(nodes, links)
    derived = net.length_miles / net.free_flow_h
    assert not np.array_equal(derived, net.speed_mph)

    result = run_day(net, departures((1, 1, 4, 86_000.0)), Objective.UET)
    rec = result.records[0]
    assert rec.status == "forced" and result.forced_entered.tolist() == [0, 1, 1]
    cfg = SolverConfig()

    def link_fuel(speeds):
        speeds = np.clip(speeds, cfg.speed_floor_mph, cfg.speed_cap_mph)
        return net.length_miles * fuel_per_mile(speeds, cfg.fuel)

    walked = float(link_fuel(dense_states(result)[95].speed_mph)[[0]].sum())
    assert rec.fuel_l == walked + float(link_fuel(net.speed_mph)[[1, 2]].sum())
    assert rec.fuel_l != walked + float(link_fuel(derived)[[1, 2]].sum())


def test_run_day_failed_trip():
    nodes = [Node(1, 0.0, 0.0), Node(2, 16093.44, 0.0), Node(3, 0.0, 16093.44)]
    links = [Link(1, 1, 2, 10.0, 30.0, 1000.0, 5, 2, ((0.0, 0.0), (16093.44, 0.0)))]
    net = fixtures.network(nodes, links)
    result = run_day(net, departures((1, 1, 3, 100.0)), Objective.UET)
    assert counts(result)["failed"] == 1
    assert result.records[0].distance_miles == 0.0
    state = dense_states(result)[0]
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
    for fa, fb in zip(dense_states(a), dense_states(b)):
        assert np.array_equal(fa.flow_vph, fb.flow_vph)
    for ea, eb in zip(dense_entered(a), dense_entered(b)):
        assert np.array_equal(ea, eb)
    assert a.records == b.records


def test_total_system_time_and_fuel_accessors():
    net = pigou_network()
    trips = uniform_trips(1, 2, 750, start_s=0.0)
    config = SolverConfig(relative_gap=1e-6)
    states = dense_states(run_day(net, trips, Objective.UET, config))

    def day_total(objective):
        """Vehicle-hours (SOT) or liters (SOF) of the day's interval flows."""
        return sum(objective_value(net, objective, fs.flow_vph, config)
                   for fs in states) * config.interval_h

    # one interval at 3000 vph, both routes at 1.0 h: 750 veh-hours
    assert day_total(Objective.SOT) == pytest.approx(750.0, rel=2e-3)
    assert day_total(Objective.SOF) > 0


def test_interval_record_keeps_a_negative_zero_flow(monkeypatch):
    net = chain_network()
    flows = np.array([-0.0, 0.0, 250.0])
    config = SolverConfig()
    time_h = np.asarray(bpr_time(net.free_flow_h, flows, net.capacity_vph, config.bpr))
    state = FlowState(flows, time_h, net.length_miles / time_h,
                      cost_vector(net, Objective.SOF, flows, config), True, 0.0, 1,
                      [(0.0, 1.0)], [])
    entered = np.array([0, 0, 3], dtype=np.int64)
    record = IntervalRecord.of(state, entered)
    assert (record.entered_links.tolist(), record.entered_count.tolist()) == ([2], [3])
    result = assignment_of(net, [state], trips=None, objective=Objective.SOF, entered=[entered])
    assert_same_states(dense_states(result), [state])
    # run_day holds a link by the bits of its flow, so every -0.0 flow stays,
    # and the stats read the day's own table
    assign = qdta.assign_interval

    def signed_zeros(*args, **kwargs):
        state = assign(*args, **kwargs)
        state.flow_vph[state.flow_vph == 0.0] = -0.0
        return state

    monkeypatch.setattr(qdta, "assign_interval", signed_zeros)
    result, states, _ = assigned_day(net, departures((1, 1, 4, 0.0)), Objective.SOF, config)
    day = result.flows
    assert (day.offsets.tolist(), day.links.dtype) == (list(range(0, 3 * 97, 3)), np.int32)
    assert day.flow_vph.tobytes() == np.concatenate([fs.flow_vph for fs in states]).tobytes()
    assert np.signbit(day.flow_vph).any() and (day.flow_vph > 0).any()
    assert_same_states(dense_states(result), states)
    assert daily_stats(result).flows is day


def test_interval_records_grow_with_loaded_links_not_with_the_day():
    net = grid_network(12, 12)  # 528 links
    trips = uniform_trips(1, 144, 40, start_s=8 * 3600.0)
    result = run_day(net, trips, Objective.UET)
    day = result.flows
    loaded = day.links.size
    entered = sum(rec.entered_links.size for rec in result.intervals)
    nbytes = sum(a.nbytes for a in day[1:]) + sum(
        a.nbytes for rec in result.intervals for a in (rec.entered_links, rec.entered_count))
    # a link position, its flow and its time; a link position and its count
    assert nbytes == 20 * loaded + 12 * entered
    assert day.offsets.size == 97
    assert 0 < loaded == sum(np.count_nonzero(fs.flow_vph) for fs in dense_states(result))
    # five dense link arrays per interval
    assert (nbytes + day.offsets.nbytes) * 100 < 96 * net.n_links * 5 * 8
