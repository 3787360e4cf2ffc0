"""Link cost functions: BPR delay, fuel burn, marginal costs, accidents.

All flow/time functions accept scalars or numpy arrays and broadcast;
scalar inputs come back as plain floats. Units: hours, miles, mph,
veh/h, liters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# valid speed range for the fuel consumption fit, mph
FUEL_SPEED_MIN = 1.0
FUEL_SPEED_MAX = 120.0


@dataclass(frozen=True)
class BprParams:
    alpha: float = 0.15
    beta: float = 4.0

    def __post_init__(self) -> None:
        # a finite alpha and beta >= 1 keep bpr_time(t0, 0) == t0
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 1 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 1")


@dataclass(frozen=True)
class FuelParams:
    """Coefficients of the per-mile burn curve a + b/v + c*v^2 (liters)."""

    a: float = -0.00654170
    b: float = 1.902150
    c: float = 0.00001588

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"fuel curve coefficient {name} must be finite")
        if self.b <= 0 or self.c <= 0:
            raise ValueError("fuel curve needs b > 0 and c > 0")
        speeds = np.arange(5.0, 90.0 + 1e-9, 0.5)
        per_mile = self.a + self.b / speeds + self.c * speeds**2
        if np.any(per_mile <= 0):
            bad = float(speeds[np.argmin(per_mile)])
            raise ValueError(f"fuel curve nonpositive near {bad} mph")


_SPF_TABLE = {
    1: (-7.09, 0.98),
    2: (-7.09, 0.98),
    3: (-7.09, 0.98),
    4: (-5.78, 0.82),
    5: (-6.49, 0.89),
    6: (-6.49, 0.89),
    7: (-6.49, 0.89),
    8: (-10.75, 1.24),
}


@dataclass(frozen=True)
class SpfParams:
    """Per-lane-count (intercept, ADT exponent) of the crash frequency fit."""

    by_lanes: dict[int, tuple[float, float]] = field(
        default_factory=lambda: dict(_SPF_TABLE)
    )

    def __post_init__(self) -> None:
        if set(self.by_lanes) != set(range(1, 9)):
            raise ValueError("SPF table must cover lane counts 1..8 exactly")


DEFAULT_BPR = BprParams()
DEFAULT_FUEL = FuelParams()
DEFAULT_SPF = SpfParams()


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


def bpr_time(free_flow_h, flow_vph, capacity_vph, params: BprParams | None = None):
    """Congested travel time, free_flow_h * (1 + alpha*(f/C)^beta)."""
    p = params or DEFAULT_BPR
    flow = _check_flow(flow_vph)
    ratio = flow / np.asarray(capacity_vph, dtype=float)
    return _ret(np.asarray(free_flow_h, dtype=float) * (1.0 + p.alpha * ratio**p.beta))


def bpr_speed(free_speed_mph, flow_vph, capacity_vph, params: BprParams | None = None):
    """Congested speed; equals the free speed at zero flow."""
    p = params or DEFAULT_BPR
    flow = _check_flow(flow_vph)
    ratio = flow / np.asarray(capacity_vph, dtype=float)
    return _ret(np.asarray(free_speed_mph, dtype=float) / (1.0 + p.alpha * ratio**p.beta))


def bpr_integral(free_flow_h, flow_vph, capacity_vph, params: BprParams | None = None):
    """Closed-form integral of bpr_time from 0 to the given flow."""
    p = params or DEFAULT_BPR
    flow = _check_flow(flow_vph)
    ratio = flow / np.asarray(capacity_vph, dtype=float)
    factor = 1.0 + (p.alpha / (p.beta + 1.0)) * ratio**p.beta
    return _ret(np.asarray(free_flow_h, dtype=float) * flow * factor)


def bpr_time_gradient(free_flow_h, flow_vph, capacity_vph, params: BprParams | None = None):
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


def marginal_time_cost(free_flow_h, flow_vph, capacity_vph, params: BprParams | None = None):
    """d(f * time(f))/df, the system-time price of one more vehicle."""
    p = params or DEFAULT_BPR
    flow = _check_flow(flow_vph)
    ratio = flow / np.asarray(capacity_vph, dtype=float)
    return _ret(
        np.asarray(free_flow_h, dtype=float)
        * (1.0 + p.alpha * (1.0 + p.beta) * ratio**p.beta)
    )


def _check_speed(speed_mph):
    speed = np.asarray(speed_mph, dtype=float)
    if np.any(speed < FUEL_SPEED_MIN) or np.any(speed > FUEL_SPEED_MAX):
        raise ValueError(
            f"speed outside fuel model domain [{FUEL_SPEED_MIN}, {FUEL_SPEED_MAX}] mph"
        )
    return speed


def fuel_per_mile(speed_mph, params: FuelParams | None = None):
    p = params or DEFAULT_FUEL
    speed = _check_speed(speed_mph)
    return _ret(p.a + p.b / speed + p.c * speed**2)


def link_fuel(length_miles, speed_mph, params: FuelParams | None = None):
    """Liters to traverse length_miles at a steady speed."""
    length = np.asarray(length_miles, dtype=float)
    if np.any(length < 0):
        raise ValueError("length must be nonnegative")
    return _ret(length * fuel_per_mile(speed_mph, params))


def marginal_fuel_cost(
    length_miles,
    free_speed_mph,
    flow_vph,
    capacity_vph,
    bpr: BprParams | None = None,
    fuel: FuelParams | None = None,
):
    """d(f * fuel(v(f)))/df with v(f) the BPR congested speed.

    The congested speed must stay inside the fuel model domain; inside
    it, this is eco_assignment_cost clamped to the domain's bounds, where
    the clamp never binds.
    """
    length = np.asarray(length_miles, dtype=float)
    fft = length / np.asarray(free_speed_mph, dtype=float)
    t = bpr_time(fft, _check_flow(flow_vph), capacity_vph, bpr)
    _check_speed(length / np.asarray(t, dtype=float))
    return eco_assignment_cost(length_miles, free_speed_mph, flow_vph, capacity_vph, bpr, fuel,
                               FUEL_SPEED_MIN, FUEL_SPEED_MAX)


def eco_assignment_cost(
    length_miles,
    free_speed_mph,
    flow_vph,
    capacity_vph,
    bpr: BprParams | None = None,
    fuel: FuelParams | None = None,
    speed_floor_mph: float = 5.0,
    speed_cap_mph: float = 90.0,
):
    """Fuel marginal with the speed clamped to [floor, cap].

    Where the clamp binds, speed no longer responds to flow, so the
    chain term drops and the cost is just the fuel at the clamped speed.
    Stays the exact derivative of f * fuel(clamped v(f)) off the kinks.
    """
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


def spf_accidents(lanes: int, length_miles: float, adt: float, params: SpfParams | None = None) -> float:
    """Expected crashes per year: exp(alpha) * length * ADT^beta.

    Zero ADT means no exposure, hence zero crashes (the log-linear fit
    is only defined for positive traffic).
    """
    p = params or DEFAULT_SPF
    if lanes not in p.by_lanes:
        raise ValueError(f"no SPF coefficients for lanes={lanes}")
    if length_miles < 0:
        raise ValueError("length must be nonnegative")
    if adt < 0:
        raise ValueError("ADT must be nonnegative")
    if adt == 0:
        return 0.0
    alpha, beta = p.by_lanes[lanes]
    return math.exp(alpha) * length_miles * adt**beta
