"""Command line pipeline: classify streets, assign a day of trips,
score indicators, chart and compare the results.

Configs are flat JSON; every artifact this writes is deterministic, so
re-running a scenario reproduces byte-identical files.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import logging
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import charts, geo, indicators, qdta, typology
from .charts import ComparisonRow, ComparisonTable, _fmt_value
from .costs import BprParams, FuelParams
from .network import (FINITE, INT64, LINK_IDS, check_rows, load_network, naming_rows, one_of,
                      read_columns, repeats, write_csv)
from .qdta import AssignmentResult, Objective, SolverConfig, TripTable, load_trips, run_day

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
    # a dataclass's class attributes hold its fields' defaults
    **{key: getattr(SolverConfig, key) for key in (
        "interval_s", "max_iterations", "relative_gap", "line_search_tol", "speed_floor_mph",
        "speed_cap_mph")},
    **{f"bpr_{key}": value for key, value in dataclasses.asdict(SolverConfig.bpr).items()},
    **{f"fuel_{key}": value for key, value in dataclasses.asdict(SolverConfig.fuel).items()},
    "adjacency_buffer_m": typology.ADJACENCY_BUFFER_M,
    "school_radius_m": 250.0,
    "morning_window_s": list(indicators.MORNING_PEAK_S),
    "school_morning_s": list(indicators.SCHOOL_MORNING_S),
    "workers": 1,
}
FLOW_COLUMNS = ("interval", "link_id", "flow_vph", "time_h", "speed_mph")
TRIP_COLUMNS = ("trip_id", "status", "start_s", "end_s", "distance_miles", "time_h", "free_flow_h",
                "delay_h", "fuel_l", "links")
_ROW_BLOCK = 1 << 10  # rows formatted at a time, so a day's text is never held whole


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
    if not p.is_file():
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

    def path(key: str) -> Path:
        if not isinstance(cfg[key], str):
            raise ConfigError(f"{key}: {cfg[key]!r} is not a path")
        q = Path(cfg[key])
        return q if q.is_absolute() else base / q

    def input_path(key: str) -> Path:
        q = path(key)
        if not q.is_file():
            raise ConfigError(f"missing input file for '{key}': {q}")
        return q

    def number(key: str, value) -> float:
        try:
            if isinstance(value, (bool, str)):  # float(True) is 1.0, float("900") 900.0
                raise TypeError
            return float(value)
        except (TypeError, ValueError, OverflowError):  # a JSON int can outgrow a float
            raise ConfigError(f"{key}: {value!r} is not a number") from None

    def whole(key: str) -> int:
        value = number(key, cfg[key])
        if not value.is_integer():  # NaN and the infinities too
            raise ConfigError(f"{key}: cannot convert {cfg[key]!r} to integer")
        return int(value)

    if not isinstance(cfg["objectives"], list):
        raise ConfigError("objectives must be a list of uet, sot or sof")
    try:
        objectives = [Objective.parse(str(o)) for o in cfg["objectives"]]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not objectives:
        raise ConfigError("objectives must name at least one of uet, sot, sof")
    if len(set(objectives)) != len(objectives):
        raise ConfigError("duplicate objectives in config")

    try:
        num = {key: number(key, cfg[key]) for key in (
            "interval_s", "relative_gap", "line_search_tol", "speed_floor_mph", "speed_cap_mph",
            "bpr_alpha", "bpr_beta", "fuel_a", "fuel_b", "fuel_c")}
        solver = SolverConfig(
            max_iterations=whole("max_iterations"),
            bpr=BprParams(num.pop("bpr_alpha"), num.pop("bpr_beta")),
            fuel=FuelParams(num.pop("fuel_a"), num.pop("fuel_b"), num.pop("fuel_c")),
            **num,
        )
    except ValueError as exc:  # a ConfigError is a ValueError
        raise ConfigError(f"bad solver settings: {exc}") from None

    def window(key: str) -> tuple[float, float]:
        value = cfg[key]
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{key} must be [start_s, end_s]")
        lo, hi = number(key, value[0]), number(key, value[1])
        if not 0 <= lo < hi <= qdta.DAY_SECONDS:
            raise ConfigError(f"{key} must satisfy 0 <= start < end <= 86400")
        return lo, hi

    def buffer(key: str) -> float:
        value = number(key, cfg[key])
        if not 0 <= value < math.inf:  # NaN fails too
            raise ConfigError(f"{key}: {cfg[key]!r} is not finite and nonnegative")
        return value

    buffer_m, radius_m = buffer("adjacency_buffer_m"), buffer("school_radius_m")
    workers = whole("workers")
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    return Scenario(
        nodes=input_path("nodes"),
        links=input_path("links"),
        trips=input_path("trips"),
        parcels=input_path("parcels"),
        schools=input_path("schools"),
        tracts=input_path("tracts"),
        out_dir=path("out_dir"),
        objectives=objectives,
        solver=solver,
        adjacency_buffer_m=buffer_m,
        school_radius_m=radius_m,
        morning_window_s=window("morning_window_s"),
        school_morning_s=window("school_morning_s"),
        workers=workers,
    )


# One flows row and one trips row as csv.writer writes them, from their
# cell texts: an int, a float's repr, a status and a links cell ("|"-joined
# link ids) need no quoting, and the excel dialect ends each row with \r\n.
_FLOW_ROW = "{},{},{},{},{}\r\n".format
_TRIP_ROW = "{},{},{},{},{},{},{},{},{},{}\r\n".format


def _cell_texts(values: np.ndarray) -> list[str]:
    """Each value's cell text: repr of a float64, str of an int64. Each
    distinct value is formatted once; floats are keyed by their bits, so 0.0
    and -0.0 keep their own texts."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if distinct.size == values.size:  # no text to reuse
        return list(map(repr, values.tolist()))  # an int's repr is its str
    texts = map(repr, distinct.view(values.dtype).tolist())
    return np.array(list(texts), dtype=object)[inverse].tolist()


def write_flows_csv(path, result: AssignmentResult) -> None:
    """One row per (interval, link) with positive assigned flow, in the
    bytes csv.writer writes, from the day's `qdta.DayFlows`. Each row's text
    is joined here, a block of rows at a time; a block may span intervals."""
    net, f = result.network, result.flows
    kept = f.flow_vph > 0
    k, i, flow, time_h = (c[kept] for c in (f.intervals(), f.links, f.flow_vph, f.time_h))
    link_ids, speed = net.link_ids[i], net.length_miles[i] / time_h
    with open(path, "w", newline="") as fh:
        fh.write(",".join(FLOW_COLUMNS) + "\r\n")
        for a in range(0, k.size, _ROW_BLOCK):
            b = slice(a, a + _ROW_BLOCK)
            fh.writelines(map(_FLOW_ROW, k[b].tolist(), link_ids[b].tolist(),
                              *map(_cell_texts, (flow[b], time_h[b], speed[b]))))


def write_trips_csv(path, result: AssignmentResult) -> None:
    """One row per trip, in the bytes csv.writer writes; each row's text is
    joined here, a block of rows at a time, never a whole day's."""
    t = result.trips
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRIP_COLUMNS) + "\r\n")
        for a in range(0, t.trip_id.size, _ROW_BLOCK):
            b = slice(a, a + _ROW_BLOCK)
            bounds = t.offsets[a:a + _ROW_BLOCK + 1]
            link_texts = _cell_texts(t.links[bounds[0]:bounds[-1]])
            bounds = (bounds - bounds[0]).tolist()
            fh.writelines(map(_TRIP_ROW, t.trip_id[b].tolist(), t.status[b].tolist(),
                              *map(_cell_texts, (t.start_s[b], t.end_s[b], t.distance_miles[b],
                                                 t.time_h[b], t.free_flow_h[b],
                                                 t.time_h[b] - t.free_flow_h[b], t.fuel_l[b])),
                              ("|".join(link_texts[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))))


def write_convergence_csv(path, result: AssignmentResult) -> None:
    write_csv(path, ["interval", "iterations", "relative_gap", "converged"],
              ([k, rec.iterations, _fmt_value(rec.gap), int(rec.converged)]
               for k, rec in enumerate(result.intervals)))


def write_indicators_csv(path, report: indicators.IndicatorReport) -> None:
    write_csv(path, ["theme", "indicator", "unit", "value"],
              ([*meta, _fmt_value(v)] for meta, v in zip(indicators.INDICATOR_META, report.values)))


def write_exposure_csv(path, schools, exposures: indicators.SchoolExposure) -> None:
    order = np.argsort(schools.ids)  # a row per school, in school-id order
    write_csv(path, ["school_id", "exposure", "buffer_vmt_7_8am"],
              zip(schools.ids[order].tolist(), (level.value for level in exposures.level[order]),
                  map(_fmt_value, exposures.buffer_vmt_morning[order].tolist())))


def read_flows_csv(path, network, config: SolverConfig) -> qdta.DayFlows:
    """A flows CSV's rows as a `qdta.DayFlows`; absent rows are zero flow at free-flow time."""
    k, link_id, flow, time_h = read_columns(path, "flows", dict(zip(
        FLOW_COLUMNS, (INT64, INT64, FINITE, FINITE)))).values()
    pos = network.link_positions(link_id)
    free_flow_h = network.free_flow_h[pos]
    n = config.n_intervals
    with naming_rows(path):
        check_rows({"k": k, "link_id": link_id, "time_h": time_h, "free_flow_h": free_flow_h}, {
            "negative flow_vph": flow < 0, "negative time_h": time_h < 0,
            f"interval {{k}} outside the day's {n} intervals": (k < 0) | (k >= n),
            "unknown link_id {link_id}": pos < 0,
            "duplicate interval {k}, link_id {link_id}": repeats(k * network.n_links + pos),
            # a BPR time is free_flow_h * (1 + alpha * ratio_pow), never below it
            "time_h {time_h} below link_id {link_id}'s free-flow time {free_flow_h}":
                time_h < free_flow_h})
    order = np.argsort(k, kind="stable")  # an interval's rows stay in file order
    return qdta.DayFlows(np.searchsorted(k[order], np.arange(n + 1)), pos[order].astype(np.int32),
                         flow[order], time_h[order])


def read_trips_csv(path) -> TripTable:
    """A trips CSV's rows, in file order; delay_h is left out, as time_h - free_flow_h."""
    trip_id, status, *numbers, (counts, links) = read_columns(path, "trips", {
        "trip_id": INT64, "status": one_of({s: s for s in ("completed", "forced", "failed")}),
        **dict.fromkeys(("start_s", "end_s", "distance_miles", "time_h", "free_flow_h", "fuel_l"),
                        FINITE), "links": LINK_IDS}).values()
    with naming_rows(path):
        return TripTable(trip_id, np.array(status, dtype=object), *numbers,
                         np.concatenate([[0], np.cumsum(counts)]), links)


def _load_city_network(scenario: Scenario):
    network = load_network(str(scenario.nodes), str(scenario.links))
    for warning in network.warnings:
        logger.warning("network: %s", warning)
    return network


def _load_schools_and_tracts(scenario: Scenario, network):
    """The schools, the link rows in each school's buffer, the tracts, and
    each link's tract row: every join with the network is made once per run."""
    schools = indicators.load_schools(str(scenario.schools))
    tracts = geo.load_tracts(str(scenario.tracts))
    for warning in geo.validate_tracts(tracts):
        logger.warning("tracts: %s", warning)
    buffers = geo.links_within_radii(np.column_stack([schools.x, schools.y]),
                                     scenario.school_radius_m, network)
    return schools, buffers, tracts, indicators.link_tract_ids(network, tracts)


def _run_one(args) -> AssignmentResult:
    network, trips, objective, config = args
    return run_day(network, trips, objective, config)


def _assign_all(network, trips, scenario: Scenario) -> Iterator[AssignmentResult]:
    """Each objective's day, in objective order. With one worker, the next
    day is assigned only when the caller asks for it."""
    tasks = [(network, trips, obj, scenario.solver) for obj in scenario.objectives]
    if scenario.workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        qdta._load_scipy()  # once, before the workers fork, rather than in each of them
        with ProcessPoolExecutor(max_workers=min(scenario.workers, len(tasks))) as pool:
            yield from pool.map(_run_one, tasks)
    else:
        yield from map(_run_one, tasks)


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
    unconverged = [k for k, rec in enumerate(result.intervals) if not rec.converged]
    if unconverged:
        logger.warning(
            "%s: %d interval(s) stopped above the gap tolerance: %s",
            tag,
            len(unconverged),
            unconverged[:10],
        )
    return bool(unconverged)


def _score(scenario: Scenario, tag: str, stats, trips, street_types, schools, buffers, tracts,
           tract_of_link) -> indicators.IndicatorReport:
    """Score one objective's day and write its indicator and exposure tables."""
    exposures = indicators.school_exposure(stats, schools, buffers, scenario.school_morning_s)
    report = indicators.build_report(stats, exposures, buffers, trips, street_types, schools,
                                     tracts, tract_of_link, scenario.morning_window_s,
                                     scenario.school_morning_s)
    write_indicators_csv(scenario.out_dir / f"indicators_{tag}.csv", report)
    write_exposure_csv(scenario.out_dir / f"school_exposure_{tag}.csv", schools, exposures)
    return report


def run_scenario(scenario: Scenario) -> int:
    """Full pipeline: classify, assign every objective, score, compare."""
    network = _load_city_network(scenario)
    places = _load_schools_and_tracts(scenario, network)
    trips = load_trips(str(scenario.trips))
    out = scenario.out_dir
    street_types = _classify_streets(scenario, network)

    reports = []
    any_unconverged = False
    # each day is written and scored as it arrives, then dropped before
    # the next is assigned; only its report is kept. closing() shuts the
    # worker pool down when writing or scoring a day fails.
    with contextlib.closing(_assign_all(network, trips, scenario)) as days:
        for result in days:
            any_unconverged |= _write_assignment(out, result)
            reports.append(_score(scenario, result.objective.value,
                                  indicators.daily_stats(result), result.trips, street_types,
                                  *places))
            del result

    table = ComparisonTable(tuple(o.value for o in scenario.objectives), tuple(
        ComparisonRow(*meta, tuple(report.values[i] for report in reports))
        for i, meta in enumerate(indicators.INDICATOR_META)))
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
        listed = [r.name for r in table.rows]
        with naming_rows(path):
            check_rows({"name": listed}, {"repeated indicator {name!r}": repeats(listed)})
        got = set(listed)
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
    n_rows = len(read_columns(convergence_path, "convergence", {"interval": INT64})["interval"])
    if n_rows != scenario.solver.n_intervals:
        raise ValueError(f"{convergence_path} has {n_rows} intervals, but interval_s "
                         f"{scenario.solver.interval_s:g} makes {scenario.solver.n_intervals}")
    network = _load_city_network(scenario)
    places = _load_schools_and_tracts(scenario, network)
    types_path = out / "link_types.csv"
    if types_path.exists():
        street_types = typology.read_link_types(types_path, network)
    else:
        street_types = _classify_streets(scenario, network)
    stats = indicators.LinkDailyStats(network, read_flows_csv(flows_path, network, scenario.solver),
                                      scenario.solver.interval_s)
    _score(scenario, tag, stats, read_trips_csv(trips_path), street_types, *places)
    return 0


def _cmd_chart(args) -> int:
    charts.emit_chart(charts.load_comparison(args.comparison), args.out, title=args.title)
    return 0


def _cmd_compare(args) -> int:
    names = args.names.split(",") if args.names else None
    header, rows = compare_cities(args.files, names)
    write_csv(args.out, header, rows)
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
    """Run one command; returns its exit code.

    Without argv, main runs this process's own command line (`python -m
    flowscore.cli` and the `flowscore` script), and it first freezes every
    object alive since the imports: no collection, at exit or during the
    run, walks numpy's import-time objects again. scipy, which only routing
    imports, is frozen the same way when the first search loads it. A
    caller that passes argv (a test, a library user) keeps its heap as it is.
    """
    if argv is None:
        gc.freeze()
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
    except (ValueError, OSError) as exc:  # a LoadError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
