"""Closed forms of the link costs, written out apart from flowscore.costs,
as oracles: the pricing kernel and the trip walk share `costs`' formula
helpers, so only an independent copy can tell when a helper is wrong.

`bpr_time`, `bpr_time_gradient`, `marginal_time_cost`, `fuel_per_mile`,
`link_fuel` and `eco_assignment_cost` are the formulas as `costs` once
wrote them as public functions, each with its own order of operations;
`bpr_speed` and `bpr_integral` are closed forms `costs` never needed.
Each takes scalars or numpy arrays and broadcasts; scalar inputs come
back as plain floats.
"""
import numpy as np

from flowscore.costs import DEFAULT_BPR, DEFAULT_FUEL, FUEL_SPEED_MAX, FUEL_SPEED_MIN


def _ret(out):
    arr = np.asarray(out, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    return arr


def _check_flow(flow):
    arr = np.asarray(flow, dtype=float)
    if not np.all((arr >= 0) & (arr < np.inf)):
        raise ValueError("flow must be finite and nonnegative")
    return arr


def bpr_time(free_flow_h, flow_vph, capacity_vph, params=None):
    """Congested travel time, free_flow_h * (1 + alpha*(f/C)^beta)."""
    p = params or DEFAULT_BPR
    flow = _check_flow(flow_vph)
    ratio = flow / np.asarray(capacity_vph, dtype=float)
    return _ret(np.asarray(free_flow_h, dtype=float) * (1.0 + p.alpha * ratio**p.beta))


def bpr_time_gradient(free_flow_h, flow_vph, capacity_vph, params=None):
    """d bpr_time / d flow."""
    p = params or DEFAULT_BPR
    flow = _check_flow(flow_vph)
    cap = np.asarray(capacity_vph, dtype=float)
    return _ret(
        np.asarray(free_flow_h, dtype=float)
        * p.alpha
        * p.beta
        * flow ** (p.beta - 1.0)
        / cap**p.beta
    )


def marginal_time_cost(free_flow_h, flow_vph, capacity_vph, params=None):
    """d(f * time(f))/df, the system-time price of one more vehicle."""
    p = params or DEFAULT_BPR
    flow = _check_flow(flow_vph)
    ratio = flow / np.asarray(capacity_vph, dtype=float)
    return _ret(
        np.asarray(free_flow_h, dtype=float)
        * (1.0 + p.alpha * (1.0 + p.beta) * ratio**p.beta)
    )


def fuel_per_mile(speed_mph, params=None):
    """Liters per mile at a steady speed, a + b/v + c*v^2, on the fitted range."""
    p = params or DEFAULT_FUEL
    speed = np.asarray(speed_mph, dtype=float)
    if np.any(speed < FUEL_SPEED_MIN) or np.any(speed > FUEL_SPEED_MAX):
        raise ValueError(
            f"speed outside fuel model domain [{FUEL_SPEED_MIN}, {FUEL_SPEED_MAX}] mph"
        )
    return _ret(p.a + p.b / speed + p.c * speed**2)


def link_fuel(length_miles, speed_mph, params=None):
    """Liters to traverse length_miles at a steady speed."""
    length = np.asarray(length_miles, dtype=float)
    if np.any(length < 0):
        raise ValueError("length must be nonnegative")
    return _ret(length * fuel_per_mile(speed_mph, params))


def eco_assignment_cost(length_miles, free_speed_mph, flow_vph, capacity_vph, bpr=None,
                        fuel=None, speed_floor_mph=5.0, speed_cap_mph=90.0):
    """Fuel marginal with the speed clamped to [floor, cap]; where the clamp
    binds, the chain term drops."""
    fp = fuel or DEFAULT_FUEL
    length = np.asarray(length_miles, dtype=float)
    free_speed = np.asarray(free_speed_mph, dtype=float)
    flow = _check_flow(flow_vph)
    fft = length / free_speed
    t = np.asarray(bpr_time(fft, flow, capacity_vph, bpr), dtype=float)
    v_raw = length / t
    v = np.clip(v_raw, speed_floor_mph, speed_cap_mph)
    m = length * (fp.a + fp.b / v + fp.c * v**2)
    dm_dv = length * (-fp.b / v**2 + 2.0 * fp.c * v)
    c_prime = np.asarray(bpr_time_gradient(fft, flow, capacity_vph, bpr), dtype=float)
    dv_df = -length * c_prime / t**2
    unclamped = (v_raw >= speed_floor_mph) & (v_raw <= speed_cap_mph)
    return _ret(m + np.where(unclamped, flow * dm_dv * dv_df, 0.0))


def bpr_speed(free_speed_mph, flow_vph, capacity_vph, params=DEFAULT_BPR):
    """Congested speed, free speed / (1 + alpha*(f/C)^beta); the free
    speed at zero flow."""
    ratio = np.asarray(flow_vph, dtype=float) / capacity_vph
    return free_speed_mph / (1.0 + params.alpha * ratio**params.beta)


def bpr_integral(free_flow_h, flow_vph, capacity_vph, params=DEFAULT_BPR):
    """Closed-form integral of bpr_time from 0 to the given flow."""
    flow = _check_flow(flow_vph)
    ratio = flow / np.asarray(capacity_vph, dtype=float)
    factor = 1.0 + (params.alpha / (params.beta + 1.0)) * ratio**params.beta
    return _ret(np.asarray(free_flow_h, dtype=float) * flow * factor)
