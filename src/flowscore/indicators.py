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
from .costs import SpfParams
from .network import INT64, NUMBER, check_rows, naming_rows, read_rows, repeats
from .typology import StreetType

MORNING_PEAK_S = (25200.0, 32400.0)  # 07:00-09:00
SCHOOL_MORNING_S = (25200.0, 28800.0)  # 07:00-08:00
SCHOOL_RADIUS_M = 250.0
ADT_HIGH = 50000.0
ADT_MEDIUM = 25000.0
MINORITY_PCT = 75.0


@dataclass(frozen=True)
class School:
    id: int
    x: float
    y: float
    pct_minority: float

    def __post_init__(self) -> None:
        if not np.isfinite([self.x, self.y]).all():
            raise ValueError(f"school {self.id}: non-finite coordinate")
        if not 0.0 <= self.pct_minority <= 100.0:
            raise ValueError(f"school {self.id}: pct_minority outside [0, 100]")


def load_schools(path: str) -> list[School]:
    """Schools in file order; ids must be unique and coordinates finite."""
    schools = read_rows(path, "schools", {"school_id": INT64, "x": NUMBER, "y": NUMBER,
                                          "pct_minority": NUMBER}, School)
    ids = [s.id for s in schools]
    with naming_rows(path):
        check_rows({"id": ids}, {"duplicate school_id {id}": repeats(ids)})
    return schools


class LinkDailyStats:
    """Per-link daily aggregates of a day's sparse interval rows, kept as given.

    Each row is one interval's (links, flow_vph, time_h): link positions,
    each at most once, and their flow and time; other links carry no flow.
    The sums add the rows in order onto zero, as `.sum(axis=0)` of the
    dense (interval x link) matrix does on two or more links.
    """

    def __init__(self, network, rows, interval_s: float):
        self.network = network
        self.rows = list(rows)
        self.interval_s = interval_s
        self.interval_h = interval_s / 3600.0
        self.adt = np.zeros(network.n_links)
        self.vhd = np.zeros(network.n_links)
        for links, flow, time_h in self.rows:
            veh = flow * self.interval_h
            self.adt[links] += veh
            self.vhd[links] += veh * (time_h - network.free_flow_h[links])
        self.vmt = self.adt * network.length_miles
        self._window_vmt: dict[tuple, np.ndarray] = {}

    @property
    def n_intervals(self) -> int:
        return len(self.rows)

    def intervals_overlapping(self, window_s) -> np.ndarray:
        start, end = window_s
        k = np.arange(self.n_intervals)
        return (k * self.interval_s < end) & ((k + 1) * self.interval_s > start)

    def window_rows(self, window_s):
        """The rows of the intervals overlapping window_s, in order."""
        return (row for row, hit in zip(self.rows, self.intervals_overlapping(window_s)) if hit)

    def window_vmt(self, window_s) -> np.ndarray:
        """Per-link VMT over the intervals overlapping window_s, computed
        once per window; the array is read-only, since callers share it."""
        key = tuple(window_s)
        if key not in self._window_vmt:
            flow = np.zeros(self.network.n_links)
            for links, flow_vph, _ in self.window_rows(window_s):
                flow[links] += flow_vph
            vmt = (flow * self.interval_h) * self.network.length_miles
            vmt.flags.writeable = False
            self._window_vmt[key] = vmt
        return self._window_vmt[key]


def daily_stats(assignment) -> LinkDailyStats:
    """The link stats of a `qdta.AssignmentResult`'s interval records."""
    return LinkDailyStats(assignment.network,
                          ((rec.links, rec.flow_vph, rec.time_h) for rec in assignment.intervals),
                          assignment.interval_s)


def filtered_vmt_vhd(stats: LinkDailyStats, link_mask) -> tuple[float, float]:
    """Daily VMT and VHD summed over the masked links."""
    mask = np.asarray(link_mask, dtype=bool)
    return float(stats.vmt[mask].sum()), float(stats.vhd[mask].sum())


def street_type_mask(network, street_types: dict[int, StreetType], wanted: StreetType) -> np.ndarray:
    return np.array([street_types[link.id] is wanted for link in network.links], dtype=bool)


def congested_miles(stats: LinkDailyStats, window_s=MORNING_PEAK_S) -> float:
    """Miles of links hitting v/c >= 1 in any interval of the window."""
    network = stats.network
    congested = np.zeros(network.n_links, dtype=bool)
    for links, flow_vph, _ in stats.window_rows(window_s):
        congested[links] |= flow_vph / network.capacity_vph[links] >= 1.0
    return float(network.length_miles[congested].sum())


class ExposureLevel(enum.Enum):
    HIGH = "High"
    MEDIUM = "Medium"
    NONE = "None"


@dataclass(frozen=True)
class SchoolExposure:
    school_id: int
    level: ExposureLevel
    buffer_vmt_morning: float
    link_ids: tuple[int, ...]


def school_exposure(
    stats: LinkDailyStats,
    schools,
    radius_m: float = SCHOOL_RADIUS_M,
    morning_s=SCHOOL_MORNING_S,
) -> dict[int, SchoolExposure]:
    """Traffic exposure of each school from links within the buffer.

    High needs one buffered link with ADT above 50,000; Medium needs one
    in the 25,000..50,000 band (inclusive); anything less is None.
    """
    network = stats.network
    morning_vmt = stats.window_vmt(morning_s)
    buffers = geo.links_within_radii([(s.x, s.y) for s in schools], radius_m, network)
    out: dict[int, SchoolExposure] = {}
    for school, ids in zip(schools, buffers):
        idx = np.array([network.link_index[i] for i in ids], dtype=np.int64)
        adts = stats.adt[idx]
        if float(adts.max(initial=0.0)) > ADT_HIGH:
            level = ExposureLevel.HIGH
        elif bool(((adts >= ADT_MEDIUM) & (adts <= ADT_HIGH)).any()):
            level = ExposureLevel.MEDIUM
        else:
            level = ExposureLevel.NONE
        vmt = float(morning_vmt[idx].sum())
        out[school.id] = SchoolExposure(school.id, level, vmt, tuple(ids))
    return out


def minority_exposure_share(exposures: dict[int, SchoolExposure], schools, threshold: float = MINORITY_PCT):
    """Percent of exposed schools that are minority schools; None if no school is exposed."""
    by_id = {s.id: s for s in schools}
    exposed = [e for e in exposures.values() if e.level is not ExposureLevel.NONE]
    if not exposed:
        return None
    minority = sum(1 for e in exposed if by_id[e.school_id].pct_minority >= threshold)
    return 100.0 * minority / len(exposed)


@dataclass(frozen=True)
class EquityShares:
    coc_vmt: float
    coc_vhd: float


def link_tract_ids(network, tracts) -> list:
    return geo.link_tracts(network.links, tracts)


def equity_shares(stats: LinkDailyStats, tracts, tract_of_link: list) -> EquityShares:
    """Daily VMT and VHD on links in communities of concern."""
    coc_ids = {t.id for t in tracts if t.is_coc}
    mask = np.array([tid in coc_ids for tid in tract_of_link], dtype=bool)
    return EquityShares(*filtered_vmt_vhd(stats, mask))


def highway_accidents(
    stats: LinkDailyStats,
    street_types: dict[int, StreetType],
    spf: SpfParams | None = None,
) -> float:
    """Expected yearly crashes summed over highway links at their ADT."""
    network = stats.network
    total = 0.0
    for pos, link in enumerate(network.links):
        if street_types[link.id] is StreetType.HIGHWAY:
            total += costs.spf_accidents(link.lanes, link.length_miles, float(stats.adt[pos]), spf)
    return total


@dataclass(frozen=True)
class IndicatorValue:
    theme: str
    name: str
    unit: str
    value: float | None


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
    values: tuple[IndicatorValue, ...]

    def __post_init__(self) -> None:
        names = tuple(v.name for v in self.values)
        if names != INDICATOR_NAMES:
            raise ValueError("indicator report rows out of order")
        for v in self.values:
            if v.value is not None and (not np.isfinite(v.value) or v.value < 0):
                raise ValueError(f"indicator {v.name!r} has bad value {v.value}")

    def by_name(self, name: str) -> float | None:
        for v in self.values:
            if v.name == name:
                return v.value
        raise KeyError(name)


def build_report(
    stats: LinkDailyStats,
    exposures: dict[int, SchoolExposure],
    trips,
    street_types: dict[int, StreetType],
    schools,
    tracts,
    tract_of_link: list,
    spf: SpfParams | None = None,
    morning_window_s=MORNING_PEAK_S,
    school_morning_s=SCHOOL_MORNING_S,
) -> IndicatorReport:
    """Assemble the 15-indicator report for one objective's day from its
    link stats, its school exposures and its trips.

    trips has the columns of `qdta.TripTable` (status, distance_miles,
    time_h, free_flow_h, fuel_l). The trip averages are over completed
    trips, None when there is none; total fuel counts every trip. Each
    sum runs left to right in row order.
    """
    network = stats.network

    nr_mask = street_type_mask(network, street_types, StreetType.NEIGHBORHOOD_RESIDENTIAL)
    nr_vmt, nr_vhd = filtered_vmt_vhd(stats, nr_mask)

    exposed = [e for e in exposures.values() if e.level is not ExposureLevel.NONE]
    buffered_links = sorted({lid for e in exposures.values() for lid in e.link_ids})
    buffered_idx = np.array([network.link_index[i] for i in buffered_links], dtype=np.int64)
    school_vmt = float(stats.window_vmt(school_morning_s)[buffered_idx].sum())

    accidents = highway_accidents(stats, street_types, spf)
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

    numbers = (
        nr_vmt, nr_vhd, float(len(exposed)), school_vmt,  # Neighborhood
        accidents,  # Safety
        total_vmt, total_vhd, congested, avg_len, avg_delay,  # Mobility
        minority, equity.coc_vmt, equity.coc_vhd,  # Equity
        total_fuel, avg_fuel,  # Environment
    )
    return IndicatorReport(tuple(IndicatorValue(*meta, value)
                                 for meta, value in zip(INDICATOR_META, numbers)))
