"""A day's dense per-interval states, rebuilt from the sparse interval
records that `run_day` keeps: the reference that tests compare the
records against.

Time and speed come from the same whole-vector calls on the same flows
as in `assign_interval`, and cost from `_cost_vector`, so a rebuilt
state has the bits of the state `assign_interval` returned.
"""
import numpy as np

from flowscore import costs, qdta
from flowscore.qdta import FlowState


def dense_states(result) -> list[FlowState]:
    """One dense FlowState per interval of an AssignmentResult."""
    net, config = result.network, result.config
    states = []
    for rec in result.intervals:
        flows = np.zeros(net.n_links)
        flows[rec.links] = rec.flow_vph
        time_h = np.asarray(costs.bpr_time(net.free_flow_h, flows, net.capacity_vph, config.bpr))
        states.append(FlowState(
            flows, time_h, net.length_miles / time_h,
            qdta._cost_vector(net, result.objective, flows, config), rec.converged, rec.gap,
            rec.iterations, list(rec.log), list(rec.unreachable)))
    return states


def dense_entered(result) -> list[np.ndarray]:
    """Per interval, how many times trips entered each link, as an int64 row."""
    rows = []
    for rec in result.intervals:
        row = np.zeros(result.network.n_links, dtype=np.int64)
        row[rec.entered_links] = rec.entered_count
        rows.append(row)
    return rows
