"""Closed forms that flowscore.costs does not need but tests check
against: the BPR congested speed and the integral of the BPR time."""
import numpy as np

from flowscore.costs import DEFAULT_BPR, _check_flow, _ret


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
