"""Link cost curves: BPR delay, fuel burn, marginal costs, accidents.

Every expression that reads a BPR or fuel coefficient lives here once, in
a private helper that fixes its order of operations and so its bits:
Frank-Wolfe's pricing kernel (`qdta._Pricing`) and the trip walk's fuel
both call them. Units: hours, miles, mph, veh/h, liters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# valid speed range for the fuel consumption fit, mph
FUEL_SPEED_MIN = 1.0
FUEL_SPEED_MAX = 120.0


@dataclass(frozen=True)
class BprParams:
    alpha: float = 0.15
    beta: float = 4.0

    def __post_init__(self) -> None:
        # a finite alpha and beta >= 1 keep the BPR time at zero flow t0
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 1 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 1")


@dataclass(frozen=True)
class FuelParams:
    """Coefficients of the per-mile burn curve a + b/v + c*v^2 (liters).
    Whether it burns fuel at every speed depends on the speed clamp, so
    `SolverConfig` checks that on its own."""

    a: float = -0.00654170
    b: float = 1.902150
    c: float = 0.00001588

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"fuel curve coefficient {name} must be finite")
        if self.b <= 0 or self.c <= 0:
            raise ValueError("fuel curve needs b > 0 and c > 0")


# per lane count, (intercept, ADT exponent) of the crash frequency fit
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


DEFAULT_BPR = BprParams()
DEFAULT_FUEL = FuelParams()


def _bpr(free_flow_h, flow, capacity, bpr: BprParams):
    """((flow / capacity)**beta, the BPR time free_flow_h * (1 + alpha * that))."""
    ratio_pow = (flow / capacity) ** bpr.beta
    return ratio_pow, free_flow_h * (1.0 + bpr.alpha * ratio_pow)


def _marginal_time(free_flow_h, ratio_pow, bpr: BprParams):
    """d(f * time(f))/df, from ratio_pow = (f / capacity)**beta."""
    return free_flow_h * (1.0 + bpr.alpha * (1.0 + bpr.beta) * ratio_pow)


def _time_integral(free_flow_h, flow, ratio_pow, bpr: BprParams):
    """The BPR time integrated from 0 to flow, from ratio_pow = (flow / capacity)**beta."""
    return free_flow_h * flow * (1.0 + (bpr.alpha / (bpr.beta + 1.0)) * ratio_pow)


def _chain_constants(free_flow_h, capacity, bpr: BprParams):
    """(free_flow_h * alpha * beta, capacity**beta), the per-link constants of
    d time / d flow = free_flow_h * alpha * beta * flow**(beta - 1) / capacity**beta."""
    return free_flow_h * bpr.alpha * bpr.beta, capacity**bpr.beta


def _burn(length, speed, fuel: FuelParams):
    """Liters to cover length miles at a steady speed, length * (a + b/v + c*v^2)."""
    return length * (fuel.a + fuel.b / speed + fuel.c * speed**2)


def _fuel_marginal(length, flow, time_h, slope_scale, capacity_pow, bpr: BprParams,
                   fuel: FuelParams, speed_floor_mph, speed_cap_mph):
    """(fuel marginal, burn at the clamped speed) at flow and its BPR time_h,
    with the chain constants of `_chain_constants`.

    Where the clamp binds, speed no longer responds to flow, so the
    chain term drops and the cost is just the fuel at the clamped speed.
    Stays the exact derivative of f * fuel(clamped v(f)) off the kinks.
    """
    v_raw = length / time_h
    v = np.clip(v_raw, speed_floor_mph, speed_cap_mph)
    burn = _burn(length, v, fuel)
    dm_dv = length * (-fuel.b / v**2 + 2.0 * fuel.c * v)
    dv_df = -length * (slope_scale * flow ** (bpr.beta - 1.0) / capacity_pow) / time_h**2
    unclamped = (v_raw >= speed_floor_mph) & (v_raw <= speed_cap_mph)
    return burn + np.where(unclamped, flow * dm_dv * dv_df, 0.0), burn


def _check_burn_positive(fuel: FuelParams, speed_floor_mph, speed_cap_mph) -> None:
    """Raise unless the per-mile burn is positive at every speed in [floor,
    cap]. For b, c > 0 the curve is convex, so its least value there is at
    its minimum, (b / 2c)**(1/3) mph, clipped to the range."""
    speed = min(max((fuel.b / (2.0 * fuel.c)) ** (1.0 / 3.0), speed_floor_mph), speed_cap_mph)
    if not _burn(1.0, speed, fuel) > 0:
        raise ValueError(f"fuel curve nonpositive at {speed} mph, inside the speed clamp "
                         f"[{speed_floor_mph}, {speed_cap_mph}] mph")


def spf_accidents(lanes: int, length_miles: float, adt: float) -> float:
    """Expected crashes per year: exp(alpha) * length * ADT^beta.

    Zero ADT means no exposure, hence zero crashes (the log-linear fit
    is only defined for positive traffic).
    """
    if lanes not in _SPF_TABLE:
        raise ValueError(f"no SPF coefficients for lanes={lanes}")
    if length_miles < 0:
        raise ValueError("length must be nonnegative")
    if adt < 0:
        raise ValueError("ADT must be nonnegative")
    if adt == 0:
        return 0.0
    alpha, beta = _SPF_TABLE[lanes]
    return math.exp(alpha) * length_miles * adt**beta
