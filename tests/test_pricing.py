"""Frank-Wolfe's pricing kernel, `qdta._Pricing`, against the whole-vector
pricing it replaced (`qdta_reference`): the bits of every objective's
cost, objective value and BPR time, of a subset of links priced alone,
and of the line search's step.

Cases come from hypothesis-drawn seeds, derandomized. They have 1 to 40
links, since numpy's SIMD loops treat the last elements of an array
apart; flows of 0 and -0.0; and flows that clamp the fuel model's speed
at its floor and at its cap.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from flowscore import costs, qdta
from flowscore.costs import BprParams
from flowscore.qdta import Objective, SolverConfig

import fixtures
from fixtures import Link, Node
from costs_reference import bpr_time
from qdta_reference import cost_vector, line_search, objective_value

SEEDS = st.integers(0, 2**32 - 1)


def random_case(seed, max_links=40):
    """(network, config, flows): a chain of 1 to max_links links with random
    lengths, speeds and capacities, a random BPR curve and speed clamp,
    and per link a flow that is 0, -0.0, light, near capacity or heavy."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_links + 1))
    nodes = [Node(k + 1, 1000.0 * k, 0.0) for k in range(n + 1)]
    length = rng.uniform(0.05, 3.0, n)
    speed = rng.uniform(5.0, 120.0, n)
    capacity = rng.uniform(50.0, 2000.0, n)
    links = [Link(k + 1, k + 1, k + 2, float(length[k]), float(speed[k]), float(capacity[k]), 5, 2,
                  ((1000.0 * k, 0.0), (1000.0 * (k + 1), 0.0)))
             for k in range(n)]
    floor = float(rng.uniform(costs.FUEL_SPEED_MIN, 10.0))
    config = SolverConfig(
        speed_floor_mph=floor, speed_cap_mph=float(rng.uniform(30.0, costs.FUEL_SPEED_MAX)),
        line_search_tol=float(rng.choice([1e-3, 1e-6, 1e-12, 1e-15])),
        bpr=BprParams(float(rng.uniform(0.05, 1.0)), float(rng.choice([1.0, 2.0, 4.0, 5.5]))))
    ratio = np.choose(rng.integers(0, 5, n), [np.zeros(n), np.full(n, -0.0),
                                              rng.uniform(0.0, 0.3, n), rng.uniform(0.5, 2.0, n),
                                              rng.uniform(3.0, 8.0, n)])
    return fixtures.network(nodes, links), config, ratio * capacity


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_pricing_has_the_bits_of_the_whole_vector_reference(seed):
    net, config, flows = random_case(seed)
    time_h = np.asarray(bpr_time(net.free_flow_h, flows, net.capacity_vph, config.bpr))
    for objective in Objective:
        pricing = qdta._Pricing(net, objective, config)
        cost, value, time = pricing.at(flows)
        assert cost.tobytes() == cost_vector(net, objective, flows, config).tobytes()
        assert value.hex() == objective_value(net, objective, flows, config).hex()
        assert time.tobytes() == time_h.tobytes()
        zero = np.zeros(net.n_links)
        assert pricing.free_cost.tobytes() == cost_vector(net, objective, zero, config).tobytes()


def test_random_cases_clamp_the_speed_at_both_ends():
    seen = set()
    for seed in range(40):
        net, config, flows = random_case(seed)
        time_h = np.asarray(bpr_time(net.free_flow_h, flows, net.capacity_vph, config.bpr))
        speed = net.length_miles / time_h
        seen |= {"floor"} if np.any(speed < config.speed_floor_mph) else set()
        seen |= {"cap"} if np.any(speed > config.speed_cap_mph) else set()
        seen |= {"-0.0"} if np.any(np.signbit(flows) & (flows == 0)) else set()
    assert seen == {"floor", "cap", "-0.0"}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_a_subset_of_links_priced_alone_keeps_its_bits(seed):
    net, config, flows = random_case(seed)
    rng = np.random.default_rng(seed)
    links = np.flatnonzero(rng.random(net.n_links) < rng.uniform(0.1, 1.0))
    for objective in Objective:
        pricing = qdta._Pricing(net, objective, config)
        got = pricing.take(links).cost(flows[links])
        assert got.tobytes() == pricing.cost(flows)[links].tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_line_search_on_moving_links_takes_the_whole_vector_step(seed):
    # up to 2,000 links, so that BLAS sums the slope in blocks: a slope
    # summed over the moving links alone would differ in its last bits
    net, config, f = random_case(seed, max_links=2000)
    rng = np.random.default_rng(seed)
    # a load that leaves some links where they are and empties others
    y = np.choose(rng.integers(0, 3, net.n_links),
                  [f, np.zeros(net.n_links), rng.uniform(0.0, 3.0, net.n_links) * net.capacity_vph])
    d = y - f
    for objective in Objective:
        pricing = qdta._Pricing(net, objective, config)
        cost = pricing.at(f)[0]
        slope = pricing.slope_along(f, d, cost)
        for sigma in (1.0, 0.5, float(rng.random())):
            want = float(d @ cost_vector(net, objective, np.maximum(f + sigma * d, 0.0), config))
            assert slope(sigma).hex() == want.hex()
        assert pricing.line_search(f, d, cost) == line_search(net, objective, config, f, d)
