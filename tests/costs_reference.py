"""Closed forms that flowscore.costs does not need but tests check
against: the BPR congested speed."""
import numpy as np

from flowscore.costs import DEFAULT_BPR


def bpr_speed(free_speed_mph, flow_vph, capacity_vph, params=DEFAULT_BPR):
    """Congested speed, free speed / (1 + alpha*(f/C)^beta); the free
    speed at zero flow."""
    ratio = np.asarray(flow_vph, dtype=float) / capacity_vph
    return free_speed_mph / (1.0 + params.alpha * ratio**params.beta)
