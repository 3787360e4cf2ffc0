"""City indicators computed from a day of assigned flows.

Fifteen indicators across five themes (neighborhood, safety, mobility,
equity, environment), plus the per-school traffic exposure table that
feeds two of them. Averages that have no population (no completed
trips, no exposed schools) are reported as None, never as zero.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import costs, geo
from .network import INT64, NUMBER, check_rows, naming_rows, read_columns, repeats
from .typology import StreetType

MORNING_PEAK_S = (25200.0, 32400.0)  # 07:00-09:00
SCHOOL_MORNING_S = (25200.0, 28800.0)  # 07:00-08:00
ADT_HIGH = 50000.0
ADT_MEDIUM = 25000.0
MINORITY_PCT = 75.0


class Schools:
    """Schools as columns, in input order: `ids`, `x`, `y` and `pct_minority`.
    Coordinates are finite and pct_minority in [0, 100], then ids are
    unique; the error names the first bad row, from 0."""

    def __init__(self, ids, x, y, pct_minority):
        self.ids = np.array(ids, dtype=np.int64)
        self.x, self.y, self.pct_minority = (np.array(c, dtype=float) for c in (x, y, pct_minority))
        check_rows({"id": self.ids}, {
            "school {id}: non-finite coordinate": ~(np.isfinite(self.x) & np.isfinite(self.y)),
            "school {id}: pct_minority outside [0, 100]":
                ~((0.0 <= self.pct_minority) & (self.pct_minority <= 100.0))})
        check_rows({"id": self.ids}, {"duplicate school_id {id}": repeats(self.ids)})


def load_schools(path: str) -> Schools:
    """Schools in file order, as `Schools` checks them; errors name the row."""
    columns = read_columns(path, "schools", {"school_id": INT64, "x": NUMBER, "y": NUMBER,
                                             "pct_minority": NUMBER})
    with naming_rows(path):
        return Schools(*columns.values())


class LinkDailyStats:
    """Per-link daily aggregates of a `qdta.DayFlows`, kept as given.

    Each link's sums add its rows in row order onto zero, as `.sum(axis=0)`
    of the dense (interval x link) matrix does on two or more links.
    """

    def __init__(self, network, flows, interval_s: float):
        self.network = network
        self.flows = flows
        self.interval_s = interval_s
        self.interval_h = interval_s / 3600.0
        veh = flows.flow_vph * self.interval_h
        delay_h = flows.time_h - network.free_flow_h[flows.links]
        self.adt = np.bincount(flows.links, veh, network.n_links)
        self.vhd = np.bincount(flows.links, veh * delay_h, network.n_links)
        self.vmt = self.adt * network.length_miles
        self._window_vmt: dict[tuple, np.ndarray] = {}

    @property
    def n_intervals(self) -> int:
        return self.flows.offsets.size - 1

    def intervals_overlapping(self, window_s) -> np.ndarray:
        start, end = window_s
        k = np.arange(self.n_intervals)
        return (k * self.interval_s < end) & ((k + 1) * self.interval_s > start)

    def window_slice(self, window_s) -> slice:
        """The rows of the intervals overlapping window_s, which are contiguous."""
        k = np.flatnonzero(self.intervals_overlapping(window_s))
        return slice(*self.flows.offsets[[k[0], k[-1] + 1]]) if k.size else slice(0)

    def window_vmt(self, window_s) -> np.ndarray:
        """Per-link VMT over the intervals overlapping window_s, computed
        once per window; the array is read-only, since callers share it."""
        key = tuple(window_s)
        if key not in self._window_vmt:
            rows = self.window_slice(window_s)
            flow = np.bincount(self.flows.links[rows], self.flows.flow_vph[rows],
                               self.network.n_links)
            vmt = (flow * self.interval_h) * self.network.length_miles
            vmt.flags.writeable = False
            self._window_vmt[key] = vmt
        return self._window_vmt[key]


def daily_stats(assignment) -> LinkDailyStats:
    """The link stats of a `qdta.AssignmentResult`'s flows."""
    return LinkDailyStats(assignment.network, assignment.flows, assignment.config.interval_s)


def filtered_vmt_vhd(stats: LinkDailyStats, link_mask) -> tuple[float, float]:
    """Daily VMT and VHD summed over the masked links."""
    mask = np.asarray(link_mask, dtype=bool)
    return float(stats.vmt[mask].sum()), float(stats.vhd[mask].sum())


def congested_miles(stats: LinkDailyStats, window_s=MORNING_PEAK_S) -> float:
    """Miles of links hitting v/c >= 1 in any interval of the window."""
    network, rows = stats.network, stats.window_slice(window_s)
    links = stats.flows.links[rows]
    congested = links[stats.flows.flow_vph[rows] / network.capacity_vph[links] >= 1.0]
    return float(network.length_miles[np.unique(congested)].sum())


class ExposureLevel(enum.Enum):
    HIGH = "High"
    MEDIUM = "Medium"
    NONE = "None"


@dataclass(frozen=True)
class SchoolExposure:
    """Per school row: its ExposureLevel, in an object array, and its buffer's morning VMT."""

    level: np.ndarray
    buffer_vmt_morning: np.ndarray


def school_exposure(stats: LinkDailyStats, schools: Schools, buffers,
                    morning_s=SCHOOL_MORNING_S) -> SchoolExposure:
    """Traffic exposure of each school from the links in its buffer: per
    school row, the link rows that `geo.links_within_radii` gives, in the
    link-id order that each buffer's VMT adds in.

    High needs one buffered link with ADT above 50,000; Medium needs one
    in the 25,000..50,000 band (inclusive); anything less is None.
    """
    if len(schools.ids) != len(buffers):
        raise ValueError(f"{len(schools.ids)} schools but {len(buffers)} buffers")
    morning_vmt = stats.window_vmt(morning_s)
    level = np.full(len(buffers), ExposureLevel.NONE, dtype=object)
    vmt = np.zeros(len(buffers))
    for k, rows in enumerate(buffers):
        adts = stats.adt[rows]
        if float(adts.max(initial=0.0)) > ADT_HIGH:
            level[k] = ExposureLevel.HIGH
        elif bool(((adts >= ADT_MEDIUM) & (adts <= ADT_HIGH)).any()):
            level[k] = ExposureLevel.MEDIUM
        vmt[k] = morning_vmt[rows].sum()
    return SchoolExposure(level, vmt)


def minority_exposure_share(exposures: SchoolExposure, schools: Schools):
    """Percent of exposed schools that are minority schools; None if no school is exposed."""
    exposed = exposures.level != ExposureLevel.NONE
    if not exposed.any():
        return None
    minority = exposed & (schools.pct_minority >= MINORITY_PCT)
    return 100.0 * np.count_nonzero(minority) / np.count_nonzero(exposed)


@dataclass(frozen=True)
class EquityShares:
    coc_vmt: float
    coc_vhd: float


def link_tract_ids(network, tracts: geo.Tracts) -> np.ndarray:
    """Each link's tract row, -1 for none: `geo.link_tracts` of the network."""
    return geo.link_tracts(network.lines, tracts)


def equity_shares(stats: LinkDailyStats, tracts: geo.Tracts, tract_of_link) -> EquityShares:
    """Daily VMT and VHD on links in communities of concern; tract_of_link
    holds each link's tract row, and its -1, no tract, reads the False appended."""
    mask = np.append(tracts.is_coc, False)[np.asarray(tract_of_link, dtype=np.int64)]
    return EquityShares(*filtered_vmt_vhd(stats, mask))


def highway_accidents(stats: LinkDailyStats, street_types: np.ndarray) -> float:
    """Expected yearly crashes summed over highway links at their ADT, in row order."""
    network = stats.network
    rows = np.flatnonzero(street_types == StreetType.HIGHWAY)
    total = 0.0
    for lanes, length, adt in zip(network.lanes[rows].tolist(),
                                  network.length_miles[rows].tolist(), stats.adt[rows].tolist()):
        total += costs.spf_accidents(lanes, length, adt)
    return total


# fixed report order: (theme, name, unit)
INDICATOR_META = (
    ("Neighborhood", "VMT on neighborhood residential streets", "miles"),
    ("Neighborhood", "VHD on neighborhood residential streets", "hours"),
    ("Neighborhood", "Schools near high and medium traffic streets", "number"),
    ("Neighborhood", "VMT near schools in morning hours", "miles"),
    ("Safety", "Estimated highway accidents per year", "number"),
    ("Mobility", "VMT", "miles"),
    ("Mobility", "VHD", "hours"),
    ("Mobility", "Congested network miles in morning", "miles"),
    ("Mobility", "Average trip length", "miles"),
    ("Mobility", "Average trip delay", "minutes"),
    ("Equity", "Minority schools near high and medium traffic streets", "percent"),
    ("Equity", "VMT in communities of concern", "miles"),
    ("Equity", "VHD in communities of concern", "hours"),
    ("Environment", "Total fuel consumption", "liters"),
    ("Environment", "Average trip fuel consumption", "liters"),
)

INDICATOR_NAMES = tuple(meta[1] for meta in INDICATOR_META)


@dataclass(frozen=True)
class IndicatorReport:
    """The 15 indicator values, each a number or None, in INDICATOR_META order."""

    values: tuple[float | None, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(INDICATOR_META):
            raise ValueError(f"{len(self.values)} indicator values, not {len(INDICATOR_META)}")
        for name, value in zip(INDICATOR_NAMES, self.values):
            if value is not None and (not np.isfinite(value) or value < 0):
                raise ValueError(f"indicator {name!r} has bad value {value}")


def build_report(
    stats: LinkDailyStats,
    exposures: SchoolExposure,
    buffers,
    trips,
    street_types: np.ndarray,
    schools: Schools,
    tracts: geo.Tracts,
    tract_of_link,
    morning_window_s=MORNING_PEAK_S,
    school_morning_s=SCHOOL_MORNING_S,
) -> IndicatorReport:
    """Assemble the 15-indicator report for one objective's day from its
    link stats, its school exposures and their buffers, and its trips.

    trips has the columns of `qdta.TripTable` (status, distance_miles,
    time_h, free_flow_h, fuel_l). The trip averages are over completed
    trips, None when there is none; total fuel counts every trip. The
    trip sums and the highway accidents add left to right in row order.
    The link totals (VMT and VHD on neighborhood residential streets, in
    all and in communities of concern, and the congested miles) are
    numpy's pairwise `.sum()` over the links in row order, and the VMT
    near schools is one over the union of the buffers in link-id order.
    """
    network = stats.network

    nr_vmt, nr_vhd = filtered_vmt_vhd(stats, street_types == StreetType.NEIGHBORHOOD_RESIDENTIAL)

    n_exposed = np.count_nonzero(exposures.level != ExposureLevel.NONE)
    buffered = np.zeros(network.n_links, dtype=bool)
    for rows in buffers:
        buffered[rows] = True
    by_id = np.argsort(network.link_ids)
    school_vmt = float(stats.window_vmt(school_morning_s)[by_id[buffered[by_id]]].sum())

    accidents = highway_accidents(stats, street_types)
    total_vmt, total_vhd = filtered_vmt_vhd(stats, np.ones(network.n_links, dtype=bool))
    congested = congested_miles(stats, morning_window_s)

    done = trips.status == "completed"
    n_done = int(np.count_nonzero(done))
    avg_len = avg_delay = avg_fuel = None
    if n_done:
        avg_len = sum(trips.distance_miles[done].tolist()) / n_done
        delay_h = trips.time_h[done] - trips.free_flow_h[done]
        avg_delay = max(sum(delay_h.tolist()) * 60.0 / n_done, 0.0)
        avg_fuel = sum(trips.fuel_l[done].tolist()) / n_done
    total_fuel = sum(trips.fuel_l.tolist())

    minority = minority_exposure_share(exposures, schools)
    equity = equity_shares(stats, tracts, tract_of_link)

    return IndicatorReport((
        nr_vmt, nr_vhd, float(n_exposed), school_vmt,  # Neighborhood
        accidents,  # Safety
        total_vmt, total_vhd, congested, avg_len, avg_delay,  # Mobility
        minority, equity.coc_vmt, equity.coc_vhd,  # Equity
        total_fuel, avg_fuel,  # Environment
    ))
