"""City indicators computed from a day of assigned flows.

Fifteen indicators across five themes (neighborhood, safety, mobility,
equity, environment), plus the per-school traffic exposure table that
feeds two of them. Averages that have no population (no completed
trips, no exposed schools) are reported as None, never as zero.
"""
from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np

from . import costs, geo
from .costs import SpfParams
from .network import _require_columns
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
    schools = []
    seen: set[int] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader.fieldnames, ("school_id", "x", "y", "pct_minority"), path, "schools")
        for row_no, row in enumerate(reader, start=2):
            try:
                schools.append(
                    School(
                        id=int(row["school_id"]),
                        x=float(row["x"]),
                        y=float(row["y"]),
                        pct_minority=float(row["pct_minority"]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{exc}, row {row_no}") from None
            if schools[-1].id in seen:
                raise ValueError(f"duplicate school_id {schools[-1].id}, row {row_no}")
            seen.add(schools[-1].id)
    return schools


class LinkDailyStats:
    """Per-link daily aggregates plus the interval flow matrix."""

    def __init__(self, network, flows_vph: np.ndarray, times_h: np.ndarray, interval_s: float):
        self.network = network
        self.flows_vph = flows_vph  # (n_intervals, n_links)
        self.times_h = times_h
        self.interval_s = interval_s
        self.interval_h = interval_s / 3600.0
        veh = flows_vph * self.interval_h
        self.adt = veh.sum(axis=0)
        self.vmt = self.adt * network.length_miles
        self.vhd = (veh * (times_h - network.free_flow_h)).sum(axis=0)
        self._window_vmt: dict[tuple, np.ndarray] = {}

    @property
    def n_intervals(self) -> int:
        return self.flows_vph.shape[0]

    def intervals_overlapping(self, window_s) -> np.ndarray:
        start, end = window_s
        k = np.arange(self.n_intervals)
        return (k * self.interval_s < end) & ((k + 1) * self.interval_s > start)

    def window_vmt(self, window_s) -> np.ndarray:
        """Per-link VMT over the intervals overlapping window_s, computed
        once per window; the array is read-only, since callers share it."""
        key = tuple(window_s)
        if key not in self._window_vmt:
            sel = self.intervals_overlapping(window_s)
            vmt = (self.flows_vph[sel].sum(axis=0) * self.interval_h) * self.network.length_miles
            vmt.flags.writeable = False
            self._window_vmt[key] = vmt
        return self._window_vmt[key]


def daily_stats(assignment) -> LinkDailyStats:
    flows = np.stack([fs.flow_vph for fs in assignment.flow_states])
    times = np.stack([fs.time_h for fs in assignment.flow_states])
    return LinkDailyStats(assignment.network, flows, times, assignment.interval_s)


def filtered_vmt_vhd(stats: LinkDailyStats, link_mask) -> tuple[float, float]:
    """Daily VMT and VHD summed over the masked links."""
    mask = np.asarray(link_mask, dtype=bool)
    return float(stats.vmt[mask].sum()), float(stats.vhd[mask].sum())


def street_type_mask(network, street_types: dict[int, StreetType], wanted: StreetType) -> np.ndarray:
    return np.array([street_types[link.id] is wanted for link in network.links], dtype=bool)


def congested_miles(stats: LinkDailyStats, window_s=MORNING_PEAK_S) -> float:
    """Miles of links hitting v/c >= 1 in any interval of the window."""
    sel = stats.intervals_overlapping(window_s)
    if not sel.any():
        return 0.0
    vc = stats.flows_vph[sel] / stats.network.capacity_vph
    congested = (vc >= 1.0).any(axis=0)
    return float(stats.network.length_miles[congested].sum())


@dataclass(frozen=True)
class TripStats:
    n_completed: int
    n_forced: int
    n_failed: int
    avg_distance_miles: float
    avg_delay_min: float
    avg_fuel_l: float
    total_fuel_l: float


def trip_stats(records) -> TripStats:
    """Means over completed trips; totals include forced completions."""
    completed = [r for r in records if r.status == "completed"]
    forced = [r for r in records if r.status == "forced"]
    failed = [r for r in records if r.status == "failed"]
    if not completed:
        raise ValueError("no completed trips to average over")
    n = len(completed)
    return TripStats(
        n_completed=n,
        n_forced=len(forced),
        n_failed=len(failed),
        avg_distance_miles=sum(r.distance_miles for r in completed) / n,
        avg_delay_min=sum(r.delay_h for r in completed) * 60.0 / n,
        avg_fuel_l=sum(r.fuel_l for r in completed) / n,
        total_fuel_l=sum(r.fuel_l for r in records),
    )


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
    link_index: geo.SpatialIndex | None = None,
    radius_m: float = SCHOOL_RADIUS_M,
    morning_s=SCHOOL_MORNING_S,
) -> dict[int, SchoolExposure]:
    """Traffic exposure of each school from links within the buffer.

    High needs one buffered link with ADT above 50,000; Medium needs one
    in the 25,000..50,000 band (inclusive); anything less is None.
    """
    network = stats.network
    if link_index is None:
        link_index = geo.build_link_index(network)
    morning_vmt = stats.window_vmt(morning_s)
    buffers = geo.links_within_radii([(s.x, s.y) for s in schools], radius_m, network, link_index)
    out: dict[int, SchoolExposure] = {}
    for school, ids in zip(schools, buffers):
        idx = np.array([network.link_index[i] for i in ids], dtype=np.int64)
        adts = stats.adt[idx] if len(idx) else np.empty(0)
        if len(idx) and float(adts.max(initial=0.0)) > ADT_HIGH:
            level = ExposureLevel.HIGH
        elif len(idx) and bool(((adts >= ADT_MEDIUM) & (adts <= ADT_HIGH)).any()):
            level = ExposureLevel.MEDIUM
        else:
            level = ExposureLevel.NONE
        vmt = float(morning_vmt[idx].sum()) if len(idx) else 0.0
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
    return geo.link_tracts(network.links, tracts, geo.build_tract_index(tracts))


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
    records,
    street_types: dict[int, StreetType],
    schools,
    tracts,
    tract_of_link: list,
    spf: SpfParams | None = None,
    morning_window_s=MORNING_PEAK_S,
    school_morning_s=SCHOOL_MORNING_S,
) -> IndicatorReport:
    """Assemble the 15-indicator report for one objective's day from its
    link stats, its school exposures and its trip records."""
    network = stats.network

    nr_mask = street_type_mask(network, street_types, StreetType.NEIGHBORHOOD_RESIDENTIAL)
    nr_vmt, nr_vhd = filtered_vmt_vhd(stats, nr_mask)

    exposed = [e for e in exposures.values() if e.level is not ExposureLevel.NONE]
    buffered_links = sorted({lid for e in exposures.values() for lid in e.link_ids})
    buffered_idx = np.array([network.link_index[i] for i in buffered_links], dtype=np.int64)
    school_vmt = float(
        stats.window_vmt(school_morning_s)[buffered_idx].sum()
    ) if len(buffered_idx) else 0.0

    accidents = highway_accidents(stats, street_types, spf)
    all_mask = np.ones(network.n_links, dtype=bool)
    total_vmt, total_vhd = filtered_vmt_vhd(stats, all_mask)
    congested = congested_miles(stats, morning_window_s)

    try:
        tstats = trip_stats(records)
        avg_len: float | None = tstats.avg_distance_miles
        avg_delay: float | None = max(tstats.avg_delay_min, 0.0)
        avg_fuel: float | None = tstats.avg_fuel_l
        total_fuel = tstats.total_fuel_l
    except ValueError:
        avg_len = avg_delay = avg_fuel = None
        total_fuel = sum(r.fuel_l for r in records)

    minority = minority_exposure_share(exposures, schools)
    equity = equity_shares(stats, tracts, tract_of_link)

    numbers = (
        nr_vmt,
        nr_vhd,
        float(len(exposed)),
        school_vmt,
        accidents,
        total_vmt,
        total_vhd,
        congested,
        avg_len,
        avg_delay,
        minority,
        equity.coc_vmt,
        equity.coc_vhd,
        total_fuel,
        avg_fuel,
    )
    values = tuple(
        IndicatorValue(theme, name, unit, value)
        for (theme, name, unit), value in zip(INDICATOR_META, numbers)
    )
    return IndicatorReport(values)
