import math

import numpy as np
import pytest

from flowscore.costs import (
    DEFAULT_FUEL,
    BprParams,
    FuelParams,
    SpfParams,
    bpr_integral,
    bpr_speed,
    bpr_time,
    bpr_time_gradient,
    eco_assignment_cost,
    fuel_per_mile,
    link_fuel,
    marginal_fuel_cost,
    marginal_time_cost,
    spf_accidents,
)


def simpson(fn, a, b, n=2000):
    # n must be even
    xs = np.linspace(a, b, n + 1)
    ys = fn(xs)
    h = (b - a) / n
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


# hand values


def test_bpr_time_hand_values():
    c0 = 1.0 / 60.0
    assert bpr_time(c0, 800.0, 800.0) == pytest.approx(c0 * 1.15, rel=1e-12)
    assert bpr_time(c0, 800.0, 800.0) == pytest.approx(0.0191667, abs=5e-8)
    assert bpr_time(c0, 1600.0, 800.0) == pytest.approx(0.0566667, abs=5e-8)
    assert bpr_time(c0, 0.0, 800.0) == c0


def test_bpr_speed_inverts_time():
    v = bpr_speed(30.0, 900.0, 600.0)
    t = bpr_time(1.0 / 30.0, 900.0, 600.0)
    assert v == pytest.approx(1.0 / t, rel=1e-12)


def test_marginal_time_hand_value():
    assert marginal_time_cost(1.0 / 60.0, 700.0, 700.0) == pytest.approx(0.0291667, abs=5e-8)


def test_fuel_hand_values():
    assert fuel_per_mile(30.0) == pytest.approx(0.0711553, abs=1e-7)
    assert fuel_per_mile(65.0) == pytest.approx(0.0898151, abs=1e-7)
    assert link_fuel(1.0, 30.0) == pytest.approx(0.0711553, abs=1e-7)
    assert link_fuel(2.5, 30.0) == pytest.approx(2.5 * 0.0711553, rel=1e-9)


def test_fuel_curve_minimum_inside_city_speed_band():
    # analytic minimum of a + b/v + c v^2 is at v = (b / (2c))^(1/3)
    v_star = (DEFAULT_FUEL.b / (2.0 * DEFAULT_FUEL.c)) ** (1.0 / 3.0)
    assert 20.0 < v_star < 60.0
    assert v_star == pytest.approx(39.1, abs=0.05)
    grid = np.linspace(1.0, 120.0, 1191)
    vals = fuel_per_mile(grid)
    assert grid[np.argmin(vals)] == pytest.approx(v_star, abs=0.1)


def test_spf_hand_values():
    assert spf_accidents(4, 1.0, 10_000.0) == pytest.approx(5.886, abs=1e-3)
    assert spf_accidents(2, 2.0, 50_000.0) == pytest.approx(67.1, abs=0.1)
    assert spf_accidents(4, 1.0, 0.0) == 0.0


def test_spf_lane_groups_share_coefficients():
    for lanes in (1, 2, 3):
        assert spf_accidents(lanes, 1.0, 5000.0) == spf_accidents(1, 1.0, 5000.0)
    for lanes in (5, 6, 7):
        assert spf_accidents(lanes, 1.0, 5000.0) == spf_accidents(5, 1.0, 5000.0)
    assert spf_accidents(8, 1.0, 5000.0) == pytest.approx(
        math.exp(-10.75) * 5000.0**1.24, rel=1e-12
    )


# quadrature and finite-difference oracles


def test_bpr_integral_matches_simpson():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c0 = rng.uniform(0.005, 0.2)
        cap = rng.uniform(300.0, 3000.0)
        f = rng.uniform(0.0, 2.5) * cap
        want = simpson(lambda s: np.asarray(bpr_time(c0, s, cap)), 0.0, f)
        got = bpr_integral(c0, f, cap)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_bpr_gradient_matches_finite_difference():
    rng = np.random.default_rng(8)
    for _ in range(200):
        c0 = rng.uniform(0.005, 0.2)
        cap = rng.uniform(300.0, 3000.0)
        f = rng.uniform(0.05, 2.5) * cap
        h = 1e-4 * cap
        want = central_diff(lambda s: bpr_time(c0, s, cap), f, h)
        assert bpr_time_gradient(c0, f, cap) == pytest.approx(want, rel=1e-6)


def test_marginal_time_matches_finite_difference():
    rng = np.random.default_rng(9)
    for _ in range(200):
        c0 = rng.uniform(0.005, 0.2)
        cap = rng.uniform(300.0, 3000.0)
        f = rng.uniform(0.05, 2.5) * cap
        h = 1e-4 * cap
        want = central_diff(lambda s: s * bpr_time(c0, s, cap), f, h)
        assert marginal_time_cost(c0, f, cap) == pytest.approx(want, rel=1e-6)


def test_marginal_fuel_matches_finite_difference():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 200:
        length = rng.uniform(0.1, 5.0)
        speed = rng.uniform(20.0, 70.0)
        cap = rng.uniform(400.0, 2500.0)
        f = rng.uniform(0.05, 1.6) * cap
        h = 1e-4 * cap
        # keep the whole FD stencil inside the fuel speed domain
        v_hi = bpr_speed(speed, f + h, cap)
        if not (1.0 + 1e-6 < v_hi <= 120.0):
            continue
        want = central_diff(lambda s: s * length * fuel_per_mile(bpr_speed(speed, s, cap)), f, h)
        got = marginal_fuel_cost(length, speed, f, cap)
        assert got == pytest.approx(want, rel=1e-6)
        checked += 1


def test_marginal_fuel_zero_flow_equals_link_fuel():
    assert marginal_fuel_cost(1.0, 65.0, 0.0, 1e6) == pytest.approx(0.0898151, abs=1e-7)


# clamped solver cost


def test_eco_cost_matches_unclamped_marginal_inside_band():
    got = eco_assignment_cost(2.0, 60.0, 900.0, 1000.0)
    want = marginal_fuel_cost(2.0, 60.0, 900.0, 1000.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_eco_cost_clamps_slow_links_to_plain_fuel():
    # f = 3C drives the BPR speed to 30/13.15 ~ 2.3 mph, below the floor
    got = eco_assignment_cost(1.0, 30.0, 3000.0, 1000.0)
    assert bpr_speed(30.0, 3000.0, 1000.0) < 5.0
    assert got == pytest.approx(link_fuel(1.0, 5.0), rel=1e-12)


def test_eco_cost_clamps_fast_links():
    got = eco_assignment_cost(1.0, 100.0, 0.0, 1000.0)
    assert got == pytest.approx(link_fuel(1.0, 90.0), rel=1e-12)


def test_eco_cost_positive_over_operating_range():
    rng = np.random.default_rng(11)
    lengths = rng.uniform(0.05, 10.0, size=1000)
    speeds = rng.uniform(15.0, 75.0, size=1000)
    caps = rng.uniform(300.0, 4000.0, size=1000)
    flows = rng.uniform(0.0, 3.0, size=1000) * caps
    vals = eco_assignment_cost(lengths, speeds, flows, caps)
    assert np.all(vals > 0)


# parameter and domain validation


def test_arrays_broadcast_and_scalars_stay_scalar():
    flows = np.array([0.0, 500.0, 1000.0])
    out = bpr_time(0.02, flows, 1000.0)
    assert isinstance(out, np.ndarray) and out.shape == (3,)
    assert isinstance(bpr_time(0.02, 500.0, 1000.0), float)
    assert isinstance(fuel_per_mile(np.array([30.0, 40.0])), np.ndarray)
    assert isinstance(fuel_per_mile(30.0), float)


def test_negative_flow_rejected():
    with pytest.raises(ValueError):
        bpr_time(0.02, -1.0, 1000.0)
    with pytest.raises(ValueError):
        marginal_time_cost(0.02, np.array([5.0, -2.0]), 1000.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_flow_must_be_finite_and_nonnegative(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        bpr_time(1.0, bad, 100.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        marginal_time_cost(0.02, np.array([5.0, bad]), 1000.0)


def test_speed_domain_enforced():
    with pytest.raises(ValueError):
        fuel_per_mile(0.5)
    with pytest.raises(ValueError):
        fuel_per_mile(121.0)
    assert fuel_per_mile(1.0) > 0
    assert fuel_per_mile(120.0) > 0


def test_spf_rejects_unknown_lanes_and_negatives():
    with pytest.raises(ValueError):
        spf_accidents(9, 1.0, 100.0)
    with pytest.raises(ValueError):
        spf_accidents(0, 1.0, 100.0)
    with pytest.raises(ValueError):
        spf_accidents(4, -1.0, 100.0)
    with pytest.raises(ValueError):
        spf_accidents(4, 1.0, -100.0)


def test_param_validation():
    with pytest.raises(ValueError):
        BprParams(alpha=-0.1)
    with pytest.raises(ValueError):
        BprParams(beta=0.5)
    with pytest.raises(ValueError):
        FuelParams(a=-0.5, b=1.0, c=1e-5)  # nonpositive burn at city speeds
    with pytest.raises(ValueError):
        FuelParams(b=-1.0)
    with pytest.raises(ValueError):
        SpfParams(by_lanes={1: (-7.0, 0.9)})
