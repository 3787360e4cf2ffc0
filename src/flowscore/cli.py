"""Command line pipeline: classify streets, assign a day of trips,
score indicators, chart and compare the results.

Configs are flat JSON; every artifact this writes is deterministic, so
re-running a scenario reproduces byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import charts, geo, indicators, qdta, typology
from .charts import ComparisonRow, ComparisonTable, _fmt_value
from .costs import BprParams, FuelParams
from .network import LoadError, load_network
from .qdta import AssignmentResult, Objective, SolverConfig, TripRecord, load_trips, run_day

logger = logging.getLogger(__name__)

DEFAULT_CONFIG = {
    "nodes": "nodes.csv",
    "links": "links.csv",
    "trips": "trips.csv",
    "parcels": "parcels.geojson",
    "schools": "schools.csv",
    "tracts": "tracts.geojson",
    "out_dir": "out",
    "objectives": ["uet", "sot", "sof"],
    "interval_s": 900.0,
    "max_iterations": 100,
    "relative_gap": 1e-4,
    "line_search_tol": 1e-6,
    "speed_floor_mph": 5.0,
    "speed_cap_mph": 90.0,
    "bpr_alpha": 0.15,
    "bpr_beta": 4.0,
    "fuel_a": -0.0065417,
    "fuel_b": 1.90215,
    "fuel_c": 1.588e-05,
    "adjacency_buffer_m": 20.0,
    "school_radius_m": 250.0,
    "morning_window_s": [25200.0, 32400.0],
    "school_morning_s": [25200.0, 28800.0],
    "workers": 1,
}


class ConfigError(ValueError):
    """Scenario configuration problem; maps to exit code 2."""


@dataclass
class Scenario:
    nodes: Path
    links: Path
    trips: Path
    parcels: Path
    schools: Path
    tracts: Path
    out_dir: Path
    objectives: list[Objective]
    solver: SolverConfig
    adjacency_buffer_m: float
    school_radius_m: float
    morning_window_s: tuple[float, float]
    school_morning_s: tuple[float, float]
    workers: int


def load_scenario(path) -> Scenario:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON in {p}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of flat keys")
    unknown = sorted(set(raw) - set(DEFAULT_CONFIG))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    cfg = {**DEFAULT_CONFIG, **raw}
    base = p.parent

    def input_path(key: str) -> Path:
        q = Path(cfg[key])
        if not q.is_absolute():
            q = base / q
        if not q.exists():
            raise ConfigError(f"missing input file for '{key}': {q}")
        return q

    try:
        objectives = [Objective.parse(str(o)) for o in cfg["objectives"]]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not objectives:
        raise ConfigError("objectives must name at least one of uet, sot, sof")
    if len(set(objectives)) != len(objectives):
        raise ConfigError("duplicate objectives in config")

    try:
        solver = SolverConfig(
            interval_s=float(cfg["interval_s"]),
            max_iterations=int(cfg["max_iterations"]),
            relative_gap=float(cfg["relative_gap"]),
            line_search_tol=float(cfg["line_search_tol"]),
            speed_floor_mph=float(cfg["speed_floor_mph"]),
            speed_cap_mph=float(cfg["speed_cap_mph"]),
            bpr=BprParams(float(cfg["bpr_alpha"]), float(cfg["bpr_beta"])),
            fuel=FuelParams(float(cfg["fuel_a"]), float(cfg["fuel_b"]), float(cfg["fuel_c"])),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver settings: {exc}") from None

    def window(key: str) -> tuple[float, float]:
        value = cfg[key]
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{key} must be [start_s, end_s]")
        lo, hi = float(value[0]), float(value[1])
        if not 0 <= lo < hi <= qdta.DAY_SECONDS:
            raise ConfigError(f"{key} must satisfy 0 <= start < end <= 86400")
        return lo, hi

    buffer_m = float(cfg["adjacency_buffer_m"])
    radius_m = float(cfg["school_radius_m"])
    if buffer_m < 0 or radius_m < 0:
        raise ConfigError("buffers must be nonnegative")
    workers = int(cfg["workers"])
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    out_dir = Path(cfg["out_dir"])
    if not out_dir.is_absolute():
        out_dir = base / out_dir
    return Scenario(
        nodes=input_path("nodes"),
        links=input_path("links"),
        trips=input_path("trips"),
        parcels=input_path("parcels"),
        schools=input_path("schools"),
        tracts=input_path("tracts"),
        out_dir=out_dir,
        objectives=objectives,
        solver=solver,
        adjacency_buffer_m=buffer_m,
        school_radius_m=radius_m,
        morning_window_s=window("morning_window_s"),
        school_morning_s=window("school_morning_s"),
        workers=workers,
    )


def _reprs(values) -> map:
    """Each value as _fmt_value writes a float, for a whole column at once."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def write_flows_csv(path, result: AssignmentResult) -> None:
    """One row per (interval, link) with nonzero assigned flow."""
    network = result.network
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["interval", "link_id", "flow_vph", "time_h", "speed_mph"])
        for k, fs in enumerate(result.flow_states):
            i = np.nonzero(fs.flow_vph > 0)[0]
            writer.writerows(zip(
                itertools.repeat(k),
                network.link_ids[i].tolist(),
                _reprs(fs.flow_vph[i]),
                _reprs(fs.time_h[i]),
                _reprs(fs.speed_mph[i]),
            ))


def write_trips_csv(path, result: AssignmentResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "trip_id",
                "status",
                "start_s",
                "end_s",
                "distance_miles",
                "time_h",
                "free_flow_h",
                "delay_h",
                "fuel_l",
                "links",
            ]
        )
        # row by row: whole-day columns would hold every record's text at once
        writer.writerows(
            (
                rec.trip_id,
                rec.status,
                *map(repr, map(float, (rec.start_s, rec.end_s, rec.distance_miles, rec.time_h,
                                       rec.free_flow_h, rec.delay_h, rec.fuel_l))),
                "|".join(map(str, rec.links)),
            )
            for rec in result.records
        )


def write_convergence_csv(path, result: AssignmentResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["interval", "iterations", "relative_gap", "converged"])
        for k, fs in enumerate(result.flow_states):
            writer.writerow([k, fs.iterations, _fmt_value(fs.gap), int(fs.converged)])


def write_indicators_csv(path, report: indicators.IndicatorReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theme", "indicator", "unit", "value"])
        for v in report.values:
            writer.writerow([v.theme, v.name, v.unit, _fmt_value(v.value)])


def write_exposure_csv(path, exposures: dict[int, indicators.SchoolExposure]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["school_id", "exposure", "buffer_vmt_7_8am"])
        for school_id in sorted(exposures):
            e = exposures[school_id]
            writer.writerow([school_id, e.level.value, _fmt_value(e.buffer_vmt_morning)])


def read_flows_csv(path, network, config: SolverConfig) -> indicators.LinkDailyStats:
    """The day's link stats from a flows CSV; absent rows are zero flow at free-flow time."""
    n = config.n_intervals
    flows = np.zeros((n, network.n_links))
    times = np.tile(network.free_flow_h, (n, 1))
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.DictReader(fh), start=2):
            k, link_id = int(row["interval"]), int(row["link_id"])
            if not 0 <= k < n:
                raise ValueError(f"interval {k} outside the day's {n} intervals in {path}, row {row_no}")
            if link_id not in network.link_index:
                raise ValueError(f"unknown link_id {link_id} in {path}, row {row_no}")
            i = network.link_index[link_id]
            flows[k, i] = float(row["flow_vph"])
            times[k, i] = float(row["time_h"])
    return indicators.LinkDailyStats(network, flows, times, config.interval_s)


def read_trips_csv(path) -> list[TripRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            links = tuple(int(x) for x in row["links"].split("|")) if row["links"] else ()
            records.append(
                TripRecord(
                    trip_id=int(row["trip_id"]),
                    status=row["status"],
                    links=links,
                    start_s=float(row["start_s"]),
                    end_s=float(row["end_s"]),
                    distance_miles=float(row["distance_miles"]),
                    time_h=float(row["time_h"]),
                    free_flow_h=float(row["free_flow_h"]),
                    fuel_l=float(row["fuel_l"]),
                )
            )
    return records


def _load_city_network(scenario: Scenario):
    network = load_network(str(scenario.nodes), str(scenario.links))
    for warning in network.validation.warnings:
        logger.warning("network: %s", warning)
    return network


def _load_schools_and_tracts(scenario: Scenario):
    schools = indicators.load_schools(str(scenario.schools))
    tracts = geo.load_tracts(str(scenario.tracts))
    for warning in geo.validate_tracts(tracts):
        logger.warning("tracts: %s", warning)
    return schools, tracts


def _run_one(args) -> AssignmentResult:
    network, trips, objective, config = args
    return run_day(network, trips, objective, config)


def _assign_all(network, trips, scenario: Scenario) -> list[AssignmentResult]:
    tasks = [(network, trips, obj, scenario.solver) for obj in scenario.objectives]
    if scenario.workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(scenario.workers, len(tasks))) as pool:
            return list(pool.map(_run_one, tasks))
    return [_run_one(t) for t in tasks]


def _classify_streets(scenario: Scenario, network):
    """Classify every link from the parcels and write link_types.csv."""
    parcels = typology.load_parcels(str(scenario.parcels))
    street_types = typology.classify_network(network, parcels, scenario.adjacency_buffer_m)
    scenario.out_dir.mkdir(parents=True, exist_ok=True)
    typology.write_link_types(scenario.out_dir / "link_types.csv", street_types, network)
    return street_types


def _write_assignment(out: Path, result: AssignmentResult) -> bool:
    """Write one objective's flows, trips and convergence; True if some
    interval stopped above the gap tolerance."""
    tag = result.objective.value
    out.mkdir(parents=True, exist_ok=True)
    write_flows_csv(out / f"flows_{tag}.csv", result)
    write_trips_csv(out / f"trips_{tag}.csv", result)
    write_convergence_csv(out / f"convergence_{tag}.csv", result)
    unconverged = [k for k, fs in enumerate(result.flow_states) if not fs.converged]
    if unconverged:
        logger.warning(
            "%s: %d interval(s) stopped above the gap tolerance: %s",
            tag,
            len(unconverged),
            unconverged[:10],
        )
    return bool(unconverged)


def _score(scenario: Scenario, tag: str, stats, records, street_types, schools, tracts,
           link_index, tract_of_link) -> indicators.IndicatorReport:
    """Score one objective's day and write its indicator and exposure tables."""
    exposures = indicators.school_exposure(
        stats, schools, link_index, scenario.school_radius_m, scenario.school_morning_s
    )
    report = indicators.build_report(
        stats,
        exposures,
        records,
        street_types,
        schools,
        tracts,
        tract_of_link,
        morning_window_s=scenario.morning_window_s,
        school_morning_s=scenario.school_morning_s,
    )
    write_indicators_csv(scenario.out_dir / f"indicators_{tag}.csv", report)
    write_exposure_csv(scenario.out_dir / f"school_exposure_{tag}.csv", exposures)
    return report


def run_scenario(scenario: Scenario) -> int:
    """Full pipeline: classify, assign every objective, score, compare."""
    network = _load_city_network(scenario)
    schools, tracts = _load_schools_and_tracts(scenario)
    trips = load_trips(str(scenario.trips))
    out = scenario.out_dir
    street_types = _classify_streets(scenario, network)
    link_index = geo.build_link_index(network)
    tract_of_link = indicators.link_tract_ids(network, tracts)

    results = _assign_all(network, trips, scenario)
    reports = []
    any_unconverged = False
    for result in results:
        any_unconverged |= _write_assignment(out, result)
        reports.append(_score(scenario, result.objective.value, indicators.daily_stats(result),
                              result.records, street_types, schools, tracts, link_index,
                              tract_of_link))

    table = ComparisonTable(
        objectives=tuple(o.value for o in scenario.objectives),
        rows=tuple(
            ComparisonRow(
                theme=meta[0],
                name=meta[1],
                unit=meta[2],
                values=tuple(report.values[i].value for report in reports),
            )
            for i, meta in enumerate(indicators.INDICATOR_META)
        ),
    )
    charts.write_comparison(out / "comparison.csv", table)
    charts.emit_chart(table, out / "chart.svg")
    if any_unconverged:
        logger.warning("some intervals did not reach the gap tolerance; results written anyway")
    return 0


def compare_cities(paths, names=None):
    """Merge per-city comparison tables into one wide table.

    Returns (header, rows); every file must carry exactly the standard
    indicator rows.
    """
    paths = [Path(p) for p in paths]
    if len(paths) < 2:
        raise ValueError("need at least two comparison files")
    tables = [charts.load_comparison(p) for p in paths]
    if names is None:
        names = [p.stem for p in paths]
    if len(names) != len(paths):
        raise ValueError("number of names must match number of files")
    if len(set(names)) != len(names):
        raise ValueError("duplicate city names; disambiguate with --names")
    want = set(indicators.INDICATOR_NAMES)
    for path, table in zip(paths, tables):
        got = {r.name for r in table.rows}
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            raise ValueError(
                f"{path}: indicator rows differ from the standard set"
                f" (missing: {missing}, extra: {extra})"
            )
    header = ["theme", "indicator", "unit"]
    for name, table in zip(names, tables):
        header.extend(f"{name}_{obj}" for obj in table.objectives)
    by_name = [{r.name: r for r in table.rows} for table in tables]
    rows = []
    for i, ind_name in enumerate(indicators.INDICATOR_NAMES):
        meta = indicators.INDICATOR_META[i]
        row = [meta[0], ind_name, meta[2]]
        for table_rows in by_name:
            row.extend(_fmt_value(v) for v in table_rows[ind_name].values)
        rows.append(row)
    return header, rows


def write_compare_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _with_out(scenario: Scenario, out) -> Scenario:
    if out is None:
        return scenario
    return dataclasses.replace(scenario, out_dir=Path(out))


def _cmd_run(args) -> int:
    return run_scenario(_with_out(load_scenario(args.config), args.out))


def _cmd_classify(args) -> int:
    scenario = _with_out(load_scenario(args.config), args.out)
    _classify_streets(scenario, _load_city_network(scenario))
    return 0


def _cmd_assign(args) -> int:
    scenario = _with_out(load_scenario(args.config), args.out)
    network = _load_city_network(scenario)
    trips = load_trips(str(scenario.trips))
    _write_assignment(scenario.out_dir,
                      run_day(network, trips, Objective.parse(args.objective), scenario.solver))
    return 0


def _cmd_indicators(args) -> int:
    scenario = _with_out(load_scenario(args.config), args.out)
    tag = Objective.parse(args.objective).value
    out = scenario.out_dir
    flows_path = out / f"flows_{tag}.csv"
    trips_path = out / f"trips_{tag}.csv"
    convergence_path = out / f"convergence_{tag}.csv"
    for required in (flows_path, trips_path, convergence_path):
        if not required.exists():
            raise ConfigError(f"missing assignment output: {required} (run `assign` first)")
    with open(convergence_path, newline="") as fh:
        n_rows = sum(1 for _ in csv.reader(fh)) - 1  # one row per interval
    if n_rows != scenario.solver.n_intervals:
        raise ValueError(f"{convergence_path} has {n_rows} intervals, but interval_s "
                         f"{scenario.solver.interval_s:g} makes {scenario.solver.n_intervals}")
    network = _load_city_network(scenario)
    schools, tracts = _load_schools_and_tracts(scenario)
    types_path = out / "link_types.csv"
    if types_path.exists():
        street_types = typology.read_link_types(types_path)
    else:
        street_types = _classify_streets(scenario, network)
    _score(scenario, tag, read_flows_csv(flows_path, network, scenario.solver),
           read_trips_csv(trips_path), street_types, schools, tracts,
           geo.build_link_index(network), indicators.link_tract_ids(network, tracts))
    return 0


def _cmd_chart(args) -> int:
    charts.emit_chart(args.comparison, args.out, title=args.title)
    return 0


def _cmd_compare(args) -> int:
    names = args.names.split(",") if args.names else None
    header, rows = compare_cities(args.files, names)
    write_compare_csv(args.out, header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowscore",
        description="Assign a day of trips under time- and fuel-oriented objectives "
        "and score the resulting flows against city indicators.",
    )
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the default scenario config as JSON and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("run", help="full pipeline: classify, assign, score, compare")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override out_dir from the config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("classify", help="write link_types.csv only")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("assign", help="run one objective's assignment")
    p.add_argument("--config", required=True)
    p.add_argument("--objective", required=True, choices=[o.value for o in Objective])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("indicators", help="score a finished assignment")
    p.add_argument("--config", required=True)
    p.add_argument("--objective", required=True, choices=[o.value for o in Objective])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_indicators)

    p = sub.add_parser("chart", help="render comparison.csv to SVG")
    p.add_argument("--comparison", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--title", default="Objective comparison")
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("compare", help="merge city comparison tables")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--names", help="comma-separated city names (default: file stems)")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        print(json.dumps(DEFAULT_CONFIG, indent=2))
        return 0
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
