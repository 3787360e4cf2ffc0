import csv
import gc
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from flowscore.charts import load_comparison
from flowscore.cli import (
    DEFAULT_CONFIG,
    ConfigError,
    compare_cities,
    load_scenario,
    main,
    read_flows_csv,
    read_trips_csv,
)
from flowscore import cli, qdta
from flowscore.indicators import INDICATOR_NAMES, School, congested_miles, daily_stats
from flowscore.geo import Tract
from flowscore.network import LoadError, Network, Node, load_network
from flowscore.qdta import Objective, load_trips, run_day
from flowscore.typology import StreetType, read_link_types

from fixtures import (
    M,
    assert_dense_figures,
    assert_same_states,
    assigned_day,
    blanket_parcel,
    joined,
    square,
    straight_link,
    uniform_trips,
    write_scenario,
)

ROOT = Path(__file__).resolve().parents[1]


def town_network(scale=1.0) -> Network:
    """Two routes between nodes 1 and 4: a low-capacity residential pair and
    a faster diagonal pair, so congestion splits the flow. scale stretches
    every coordinate and so every link length."""
    n1 = Node(1, 0.0, 0.0)
    n2 = Node(2, scale * M, 0.0)
    n3 = Node(3, scale * M, scale * -M / 2.0)
    n4 = Node(4, scale * 2.0 * M, 0.0)
    links = [
        straight_link(1, n1, n2, 30.0, 400.0, 5, 2),
        straight_link(2, n2, n4, 30.0, 400.0, 5, 2),
        straight_link(3, n1, n3, 45.0, 1200.0, 4, 2),
        straight_link(4, n3, n4, 45.0, 1200.0, 4, 2),
    ]
    return Network([n1, n2, n3, n4], links)


def town_scenario(dirpath, config_overrides=None, scale=1.0, late_trips=0) -> str:
    net = town_network(scale)
    trips = joined(uniform_trips(1, 4, 600, start_s=25_200.0, spacing_s=0.5),
                   uniform_trips(1, 4, late_trips, start_s=86_000.0, first_id=601))
    parcels = [blanket_parcel(net, "R")]
    schools = [School(1, scale * M / 2.0, 10.0, 80.0)]
    tracts = [
        Tract(1, square(scale * M / 2.0, 0.0, scale * 1000.0), 1000.0, True),
        Tract(2, square(scale * 3000.0, 0.0, scale * 1090.0), 9000.0, False),
    ]
    return write_scenario(dirpath, net, trips, parcels, schools, tracts,
                          config_overrides)


def long_town_scenario(dirpath) -> str:
    """The town stretched twelvefold: every link takes more than one 15-minute
    interval, so each trip spills into the next interval, and the trips that
    leave in the last interval are forced to finish at the end of the day."""
    return town_scenario(dirpath, scale=12.0, late_trips=40)


@pytest.fixture(scope="module")
def town_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("town")
    cfg = town_scenario(base)
    assert main(["run", "--config", cfg]) == 0
    return cfg, base / "out"


@pytest.fixture(scope="module")
def long_town_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("long_town")
    cfg = long_town_scenario(base)
    assert main(["run", "--config", cfg]) == 0
    return cfg, base / "out"


def test_print_config(capsys):
    assert main(["--print-config"]) == 0
    assert json.loads(capsys.readouterr().out) == DEFAULT_CONFIG


def test_no_command_exits_2():
    assert main([]) == 2


def test_importing_the_cli_loads_no_xml_or_http_modules():
    # every command's process pays for what `import flowscore.cli` loads;
    # xml.sax.saxutils once pulled in urllib.request and http.client, ~40 ms
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, flowscore.cli; "
            "print(sorted({'xml.sax', 'urllib.request', 'http.client'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_every_public_name_resolves():
    import flowscore

    assert [name for name in flowscore.__all__ if not hasattr(flowscore, name)] == []
    namespace = {}
    exec("from flowscore import *", namespace)  # raises on a listed name that is gone
    assert set(flowscore.__all__) <= set(namespace)


def test_load_scenario_rejects_bad_configs(tmp_path):
    cfg = town_scenario(tmp_path)
    base_raw = json.loads((tmp_path / "config.json").read_text())

    def with_cfg(**changes):
        (tmp_path / "config.json").write_text(json.dumps({**base_raw, **changes}))
        return cfg

    with pytest.raises(ConfigError, match="config file not found"):
        load_scenario(tmp_path / "nope.json")

    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(ConfigError, match="bad JSON"):
        load_scenario(tmp_path / "broken.json")

    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_scenario(tmp_path / "list.json")

    with pytest.raises(ConfigError, match="unknown config keys.*typo_key"):
        load_scenario(with_cfg(typo_key=1))
    with pytest.raises(ConfigError, match="missing input file for 'trips'"):
        load_scenario(with_cfg(trips="absent.csv"))
    with pytest.raises(ConfigError, match="unknown objective"):
        load_scenario(with_cfg(objectives=["uet", "fastest"]))
    with pytest.raises(ConfigError, match="at least one"):
        load_scenario(with_cfg(objectives=[]))
    with pytest.raises(ConfigError, match="duplicate objectives"):
        load_scenario(with_cfg(objectives=["uet", "uet"]))
    with pytest.raises(ConfigError, match="workers"):
        load_scenario(with_cfg(workers=0))
    with pytest.raises(ConfigError, match="morning_window_s"):
        load_scenario(with_cfg(morning_window_s=[32400.0, 25200.0]))
    with pytest.raises(ConfigError, match="start_s, end_s"):
        load_scenario(with_cfg(morning_window_s=[25200.0]))
    with pytest.raises(ConfigError, match="bad solver settings"):
        load_scenario(with_cfg(interval_s=-900.0))
    with pytest.raises(ConfigError, match="nonnegative"):
        load_scenario(with_cfg(school_radius_m=-5.0))
    for key in ("school_radius_m", "adjacency_buffer_m"):
        for value in (math.nan, math.inf):  # written as NaN and Infinity
            with pytest.raises(ConfigError, match="finite"):
                load_scenario(with_cfg(**{key: value}))
    assert main(["run", "--config", with_cfg(school_radius_m=math.nan)]) == 2
    assert not (tmp_path / "out").exists()  # rejected before any file is written
    assert load_scenario(with_cfg()) is not None


def test_config_paths_resolve_relative_to_config_file(tmp_path):
    cfg = town_scenario(tmp_path / "scenario")
    scenario = load_scenario(cfg)
    assert scenario.nodes == tmp_path / "scenario" / "nodes.csv"
    assert scenario.out_dir == tmp_path / "scenario" / "out"
    assert [o.value for o in scenario.objectives] == ["uet", "sot", "sof"]


def test_main_maps_config_error_to_exit_2(tmp_path, capsys):
    cfg = town_scenario(tmp_path)
    (tmp_path / "trips.csv").unlink()
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_main_maps_load_error_to_exit_1(tmp_path, capsys):
    cfg = town_scenario(tmp_path)
    links = tmp_path / "links.csv"
    lines = links.read_text().splitlines()
    lines[1] = lines[1].replace("30.0", "not_a_number", 1)
    links.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_run_writes_every_artifact(town_run):
    _, out = town_run
    expected = {"link_types.csv", "comparison.csv", "chart.svg"}
    for tag in ("uet", "sot", "sof"):
        expected |= {
            f"flows_{tag}.csv",
            f"trips_{tag}.csv",
            f"convergence_{tag}.csv",
            f"indicators_{tag}.csv",
            f"school_exposure_{tag}.csv",
        }
    assert {p.name for p in out.iterdir()} == expected
    assert out.joinpath("chart.svg").read_text().startswith("<svg ")


def test_run_indicator_csvs_are_complete(town_run):
    _, out = town_run
    for tag in ("uet", "sot", "sof"):
        with open(out / f"indicators_{tag}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["indicator"] for r in rows] == list(INDICATOR_NAMES)
        for r in rows:
            if r["value"] != "NA":
                assert float(r["value"]) >= 0.0
        by_name = {r["indicator"]: r["value"] for r in rows}
        # all 600 travellers complete, so averages are present
        assert by_name["Average trip length"] != "NA"
        assert float(by_name["VMT"]) > 0.0


def test_run_flow_rows_are_sparse_and_positive(town_run):
    _, out = town_run
    with open(out / "flows_uet.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "assignment produced no flow at all"
    for r in rows:
        assert float(r["flow_vph"]) > 0.0
        assert int(r["link_id"]) in {1, 2, 3, 4}
    intervals = {int(r["interval"]) for r in rows}
    assert 28 in intervals


def test_run_trip_and_convergence_tables(town_run):
    _, out = town_run
    with open(out / "trips_sot.csv", newline="") as fh:
        trips = list(csv.DictReader(fh))
    assert len(trips) == 600
    assert {t["status"] for t in trips} == {"completed"}
    assert [int(t["trip_id"]) for t in trips] == sorted(int(t["trip_id"]) for t in trips)
    with open(out / "convergence_sot.csv", newline="") as fh:
        conv = list(csv.DictReader(fh))
    assert len(conv) == 96
    assert all(c["converged"] in {"0", "1"} for c in conv)
    assert all(int(c["iterations"]) >= 1 for c in conv)


def test_run_comparison_table(town_run):
    _, out = town_run
    table = load_comparison(out / "comparison.csv")
    assert table.objectives == ("uet", "sot", "sof")
    assert [r.name for r in table.rows] == list(INDICATOR_NAMES)
    by_name = {r.name: r.values for r in table.rows}
    assert all(v > 0.0 for v in by_name["VHD"])
    assert all(v > 0.0 for v in by_name["Total fuel consumption"])
    # no school sees medium or high ADT in this small town
    assert by_name["Minority schools near high and medium traffic streets"] == (None,) * 3


def test_rerun_and_parallel_run_are_byte_identical(tmp_path, town_run):
    cfg, first_out = town_run
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "again")]) == 0
    par_cfg = town_scenario(tmp_path / "par", config_overrides={"workers": 3})
    assert main(["run", "--config", par_cfg]) == 0

    names = sorted(p.name for p in first_out.iterdir())
    for other in (tmp_path / "again", tmp_path / "par" / "out"):
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            assert (other / name).read_bytes() == (first_out / name).read_bytes(), name


def test_classify_command(tmp_path):
    cfg = town_scenario(tmp_path)
    assert main(["classify", "--config", cfg, "--out", str(tmp_path / "cls")]) == 0
    types = read_link_types(tmp_path / "cls" / "link_types.csv")
    assert types[1] is StreetType.NEIGHBORHOOD_RESIDENTIAL
    assert types[2] is StreetType.NEIGHBORHOOD_RESIDENTIAL
    assert types[3] is StreetType.RESIDENTIAL_THROUGHWAY
    assert types[4] is StreetType.RESIDENTIAL_THROUGHWAY


def test_long_town_spills_and_forces_trips(long_town_run):
    _, out = long_town_run
    for tag in ("uet", "sot", "sof"):
        with open(out / f"trips_{tag}.csv", newline="") as fh:
            trips = list(csv.DictReader(fh))
        statuses = [t["status"] for t in trips]
        assert statuses.count("forced") >= 1
        # a completed trip that ends in a later interval than it left in spilled
        assert any(
            t["status"] == "completed" and float(t["end_s"]) // 900 > float(t["start_s"]) // 900
            for t in trips
        )


@pytest.mark.parametrize("objective", ["uet", "sot", "sof"])
@pytest.mark.parametrize("run", ["town_run", "long_town_run"], ids=["town", "long_town"])
def test_indicators_command_matches_full_run(tmp_path, request, run, objective):
    cfg, run_out = request.getfixturevalue(run)
    out = str(tmp_path / "steps")
    assert main(["assign", "--config", cfg, "--objective", objective, "--out", out]) == 0
    assert main(["indicators", "--config", cfg, "--objective", objective, "--out", out]) == 0
    for name in (f"flows_{objective}.csv", f"trips_{objective}.csv",
                 f"convergence_{objective}.csv", "link_types.csv",
                 f"indicators_{objective}.csv", f"school_exposure_{objective}.csv"):
        rebuilt = (tmp_path / "steps" / name).read_bytes()
        assert rebuilt == (run_out / name).read_bytes(), name


def test_read_flows_csv_equals_daily_stats_of_the_day(tmp_path, town_run):
    cfg, _ = town_run
    out = tmp_path / "steps"
    scenario = load_scenario(cfg)
    network = load_network(str(scenario.nodes), str(scenario.links))
    trips = load_trips(str(scenario.trips))
    windows = (scenario.morning_window_s, scenario.school_morning_s)
    for objective in Objective:
        tag = objective.value
        assert main(["assign", "--config", cfg, "--objective", tag, "--out", str(out)]) == 0
        want = daily_stats(run_day(network, trips, objective, scenario.solver))
        got = read_flows_csv(out / f"flows_{tag}.csv", network, scenario.solver)
        assert (got.interval_s, got.n_intervals) == (want.interval_s, want.n_intervals)
        for name in ("adt", "vmt", "vhd"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (tag, name)
        for window in windows:
            assert got.window_vmt(window).tobytes() == want.window_vmt(window).tobytes(), tag
        assert (np.float64(congested_miles(got, windows[0])).tobytes()
                == np.float64(congested_miles(want, windows[0])).tobytes()), tag


def test_run_ignores_the_row_order_of_trips_csv(tmp_path, town_run):
    cfg, run_out = town_run
    base = tmp_path / "shuffled"
    shutil.copytree(Path(cfg).parent, base, ignore=shutil.ignore_patterns("out"))
    lines = (base / "trips.csv").read_text().splitlines(keepends=True)
    rows = lines[1:]
    np.random.default_rng(11).shuffle(rows)
    assert rows != lines[1:]
    (base / "trips.csv").write_text("".join(lines[:1] + rows))
    assert main(["run", "--config", str(base / "config.json")]) == 0
    names = sorted(p.name for p in run_out.iterdir())
    assert sorted(p.name for p in (base / "out").iterdir()) == names
    for name in names:
        assert (base / "out" / name).read_bytes() == (run_out / name).read_bytes(), name


def test_trips_csv_bytes_do_not_depend_on_the_write_block(tmp_path, monkeypatch):
    # the long town's day: trips that spill, and trips forced at midnight
    trips = joined(uniform_trips(1, 4, 600, start_s=25_200.0, spacing_s=0.5),
                   uniform_trips(1, 4, 40, start_s=86_000.0, first_id=601))
    result = run_day(town_network(12.0), trips, Objective.SOT)
    cli.write_trips_csv(tmp_path / "whole.csv", result)
    monkeypatch.setattr(cli, "_TRIP_BLOCK", 7)  # 640 rows: 91 full blocks and one of 3
    cli.write_trips_csv(tmp_path / "blocks.csv", result)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert len(read_trips_csv(tmp_path / "blocks.csv").trip_id) == 640


def write_trips_rows(path, links_cells) -> None:
    """A trips CSV with one completed trip per links cell, ids from 1."""
    row = ",completed,0.0,60.0,1.0,0.1,0.1,0.0,0.5,"
    path.write_text("".join([",".join(cli.TRIP_COLUMNS) + "\n",
                             *(f"{i}{row}{cell}\n" for i, cell in enumerate(links_cells, start=1))]))


def test_read_trips_csv_reads_back_a_trip_of_30000_links(tmp_path):
    # its links cell is 179,999 characters, beyond the csv module's default field limit
    links = list(range(10_000, 40_000))
    write_trips_rows(tmp_path / "trips_uet.csv", ["|".join(map(str, links))])
    assert read_trips_csv(tmp_path / "trips_uet.csv").links.tolist() == links


def test_read_columns_names_the_row_the_csv_module_cannot_read(tmp_path):
    path = tmp_path / "trips_uet.csv"
    write_trips_rows(path, ["10000|10001", "|".join(map(str, range(10_000, 10_030)))])
    limit = csv.field_size_limit(100)  # the second trip's links cell has 179 characters
    try:
        with pytest.raises(LoadError) as caught:
            read_trips_csv(path)
    finally:
        csv.field_size_limit(limit)
    assert str(caught.value) == f"field larger than field limit (100) in {path}, row 3"


def test_run_releases_each_day_before_the_next(tmp_path, monkeypatch):
    days, alive = [], []

    def tracked_run_day(*args, **kwargs):
        gc.collect()
        alive.append(sum(day() is not None for day in days))
        result = run_day(*args, **kwargs)
        days.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "run_day", tracked_run_day)
    assert main(["run", "--config", town_scenario(tmp_path)]) == 0
    # no earlier objective's day is alive when the next one is assigned
    assert alive == [0, 0, 0]


def test_run_keeps_the_days_written_before_an_objective_fails(tmp_path, monkeypatch, capsys):
    def failing_run_day(network, trips, objective, config):
        if objective is Objective.SOF:
            raise ValueError("sof failed")
        return run_day(network, trips, objective, config)

    monkeypatch.setattr(cli, "run_day", failing_run_day)
    assert main(["run", "--config", town_scenario(tmp_path)]) == 1
    assert "sof failed" in capsys.readouterr().err
    written = {p.name for p in (tmp_path / "out").iterdir()}
    for tag in ("uet", "sot"):
        assert {f"flows_{tag}.csv", f"indicators_{tag}.csv"} <= written
    assert not written & {"flows_sof.csv", "comparison.csv", "chart.svg"}


def test_exposure_and_daily_stats_computed_once_per_report(tmp_path, monkeypatch, town_run):
    from flowscore import indicators

    calls = {"school_exposure": 0, "daily_stats": 0}
    for name in calls:
        real = getattr(indicators, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(indicators, name, counted)
    cfg, _ = town_run
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert calls == {"school_exposure": 3, "daily_stats": 3}
    calls.update(school_exposure=0, daily_stats=0)
    assert main(["indicators", "--config", cfg, "--objective", "uet",
                 "--out", str(tmp_path / "run")]) == 0
    # the stats come from flows_uet.csv
    assert calls == {"school_exposure": 1, "daily_stats": 0}


def traced_run(tmp_path, cfg, run_out):
    """Run the benchmark's tracer on cfg; check that it found every layer
    and wrote the same files as run_out. Returns (metrics, out dir)."""
    # the tracer patches the package's modules, so it runs in its own process
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    out, spans_path = tmp_path / "traced", tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), cfg, str(out), str(spans_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(spans_path.read_text())
    assert traced["missing"] == []
    seen = {span[0] for span in traced["spans"]}
    assert [name for _, _, name, _ in tracer.LAYERS if name not in seen] == []
    names = sorted(p.name for p in run_out.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (run_out / name).read_bytes(), name
    return tracer.summarize(traced["spans"]), out


def test_benchmark_tracer_finds_every_layer(tmp_path, town_run):
    metrics, _ = traced_run(tmp_path, *town_run)
    assert metrics["indicators.daily_stats_calls"] == 3
    assert metrics["indicators.school_exposure_calls"] == 3


def test_benchmark_tracer_counts_every_walked_trip_once(tmp_path, long_town_run):
    metrics, out = traced_run(tmp_path, *long_town_run)
    statuses = []
    for tag in ("uet", "sot", "sof"):
        with open(out / f"trips_{tag}.csv", newline="") as fh:
            statuses += [row["status"] for row in csv.DictReader(fh)]
    # a walked trip arrives, fails or spills into the next interval
    assert metrics["qdta.trips_walked"] == (
        metrics["qdta.trips_spilled"] + statuses.count("completed") + statuses.count("failed"))
    assert metrics["qdta.forced_trips"] == statuses.count("forced")
    assert (metrics["qdta.trips_walked"], metrics["qdta.trips_spilled"],
            metrics["qdta.forced_trips"]) == (3720, 1920, 120)


def test_pipeline_builds_no_trip_records(tmp_path, monkeypatch):
    def no_record(*args):
        raise RuntimeError("a TripRecord was built")

    monkeypatch.setattr(qdta, "TripRecord", no_record)
    with pytest.raises(RuntimeError):
        run_day(town_network(), uniform_trips(1, 4, 1, start_s=0.0), Objective.UET).records
    cfg = long_town_scenario(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    steps = str(tmp_path / "steps")
    assert main(["assign", "--config", cfg, "--objective", "sof", "--out", steps]) == 0
    assert main(["indicators", "--config", cfg, "--objective", "sof", "--out", steps]) == 0


@pytest.mark.parametrize("scenario", [town_scenario, long_town_scenario],
                         ids=["town", "long_town"])
def test_pipeline_builds_no_dense_day(tmp_path, monkeypatch, scenario):
    def no_dense_day(self):
        raise RuntimeError("a day of dense FlowStates was built")

    monkeypatch.setattr(qdta.AssignmentResult, "flow_states", property(no_dense_day))
    with pytest.raises(RuntimeError):
        run_day(town_network(), uniform_trips(1, 4, 1, start_s=0.0), Objective.UET).flow_states
    cfg = scenario(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    steps = str(tmp_path / "steps")
    assert main(["assign", "--config", cfg, "--objective", "sot", "--out", steps]) == 0
    assert main(["indicators", "--config", cfg, "--objective", "sot", "--out", steps]) == 0


@pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
@pytest.mark.parametrize("scenario", [town_scenario, long_town_scenario],
                         ids=["town", "long_town"])
def test_flow_states_rebuild_the_assigned_states(tmp_path, scenario, objective):
    scenario = load_scenario(scenario(tmp_path))
    network = load_network(str(scenario.nodes), str(scenario.links))
    result, states = assigned_day(network, load_trips(str(scenario.trips)), objective,
                                  scenario.solver)
    assert_same_states(result.flow_states, states)
    assert_dense_figures(result, states)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, named", [
    ("interval_s", "interval_s"), ("max_iterations", "to integer"),
    ("relative_gap", "relative_gap"), ("line_search_tol", "line_search_tol"),
    ("speed_floor_mph", "speed_floor_mph"), ("speed_cap_mph", "speed_cap_mph"),
    ("bpr_alpha", "alpha"), ("bpr_beta", "beta"),
    ("fuel_a", "coefficient a"), ("fuel_b", "coefficient b"), ("fuel_c", "coefficient c"),
])
def test_run_rejects_non_finite_solver_settings(tmp_path, capsys, key, named, value):
    cfg = town_scenario(tmp_path, config_overrides={key: value})
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad solver settings: ") and named in err
    assert not (tmp_path / "out").exists()


def test_long_town_flow_vmt_exceeds_trip_vmt(long_town_run):
    # Each interval loads a spilled trip's whole remaining path, but the
    # trip drives only part of it before the interval ends, so flow-based
    # VMT (the VMT indicators) exceeds trip-based VMT (the trip averages).
    cfg, out = long_town_run
    scenario = load_scenario(cfg)
    network = load_network(str(scenario.nodes), str(scenario.links))
    result = run_day(network, load_trips(str(scenario.trips)), Objective.UET, scenario.solver)
    trip_miles, link_miles, rel = result.conservation()
    assert trip_miles == sum(read_trips_csv(out / "trips_uet.csv").distance_miles.tolist())
    assert rel <= 1e-14
    assert trip_miles == pytest.approx(15473.312629199863, rel=1e-12)
    flow_miles = float(daily_stats(result).vmt.sum())
    assert flow_miles - trip_miles == pytest.approx(8532.854638061006, rel=1e-9)


def test_indicators_command_requires_assignment(tmp_path, capsys):
    cfg = town_scenario(tmp_path)
    rc = main(["indicators", "--config", cfg, "--objective", "uet"])
    assert rc == 2
    assert "run `assign` first" in capsys.readouterr().err


@pytest.mark.parametrize("column, value, message", [
    (0, "96", "interval 96 outside the day's 96 intervals"),
    (1, "99", "unknown link_id 99"),
])
def test_indicators_command_rejects_flows_of_another_scenario(tmp_path, capsys, column, value,
                                                              message):
    cfg = town_scenario(tmp_path)
    flows_path = tmp_path / "out" / "flows_uet.csv"
    assert main(["assign", "--config", cfg, "--objective", "uet"]) == 0
    rows = flows_path.read_text().splitlines()
    fields = rows[1].split(",")
    fields[column] = value
    rows[1] = ",".join(fields)
    flows_path.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["indicators", "--config", cfg, "--objective", "uet"]) == 1
    err = capsys.readouterr().err
    assert message in err and "row 2" in err


def test_indicators_command_rejects_flows_of_another_interval(tmp_path, capsys):
    cfg = town_scenario(tmp_path, {"interval_s": 900.0})
    assert main(["assign", "--config", cfg, "--objective", "uet"]) == 0
    cfg = town_scenario(tmp_path, {"interval_s": 1800.0})
    capsys.readouterr()
    assert main(["indicators", "--config", cfg, "--objective", "uet"]) == 1
    err = capsys.readouterr().err
    assert "convergence_uet.csv has 96 intervals" in err and "makes 48" in err


@pytest.fixture(scope="module")
def town_assigned(tmp_path_factory):
    """The town's uet assignment and link types, before scoring."""
    base = tmp_path_factory.mktemp("town_assigned")
    cfg = town_scenario(base)
    assert main(["assign", "--config", cfg, "--objective", "uet"]) == 0
    assert main(["classify", "--config", cfg]) == 0
    return base


def _edit_row(path, row_no, column, value):
    """Set one field of a CSV file; row_no counts the header as row 1.

    A value of None deletes the row, or the whole column when row_no is
    None. A row_no one past the last row first appends a copy of the last
    row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if row_no is None:
        at = rows[0].index(column)
        rows = [row[:at] + row[at + 1:] for row in rows]
    elif value is None:
        del rows[row_no - 1]
    else:
        if row_no == len(rows) + 1:
            rows.append(list(rows[-1]))
        rows[row_no - 1][rows[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


_STREET_TYPES = ", ".join(t.value for t in StreetType)
_STATUSES = "completed, forced, failed"


# Every loader error reads "<rule or cell> in <path>, row <n>", the header
# being row 1. Each case edits one file of the assigned town, then runs the
# command that reads it: `assign` reads trips.csv, `indicators` the rest.
@pytest.mark.parametrize("command, name, row_no, column, value, message", [
    ("indicators", "out/link_types.csv", 4, None, None,
     "{path} has no street type for link 3"),
    ("indicators", "out/link_types.csv", 2, "street_type", "Boulevard",
     f"street_type 'Boulevard' is not one of {_STREET_TYPES} in {{path}}, row 2"),
    ("indicators", "out/link_types.csv", 6, "link_id", "999", "unknown link_id 999 in {path}, row 6"),
    ("indicators", "out/link_types.csv", 6, "link_id", "2", "duplicate link_id 2 in {path}, row 6"),
    ("indicators", "out/trips_uet.csv", 3, "distance_miles", "abc",
     "distance_miles 'abc' is not a finite number in {path}, row 3"),
    ("indicators", "out/trips_uet.csv", 4, "fuel_l", "nan",
     "fuel_l 'nan' is not a finite number in {path}, row 4"),
    ("indicators", "out/trips_uet.csv", 5, "status", "parked",
     f"status 'parked' is not one of {_STATUSES} in {{path}}, row 5"),
    ("indicators", "out/trips_uet.csv", 602, "trip_id", "600", "duplicate trip_id 600 in {path}, row 602"),
    ("indicators", "out/trips_uet.csv", 6, "distance_miles", "-50.0",
     "negative distance_miles in {path}, row 6"),
    ("indicators", "out/trips_uet.csv", 7, "time_h", "-0.1", "negative time_h in {path}, row 7"),
    ("indicators", "out/trips_uet.csv", 8, "free_flow_h", "-0.1",
     "negative free_flow_h in {path}, row 8"),
    ("indicators", "out/trips_uet.csv", 9, "fuel_l", "-1.0", "negative fuel_l in {path}, row 9"),
    ("indicators", "out/flows_uet.csv", 3, "time_h", "abc",
     "time_h 'abc' is not a finite number in {path}, row 3"),
    ("indicators", "out/flows_uet.csv", 2, "flow_vph", "-5.0", "negative flow_vph in {path}, row 2"),
    ("indicators", "out/flows_uet.csv", 3, "flow_vph", "nan",
     "flow_vph 'nan' is not a finite number in {path}, row 3"),
    ("indicators", "out/flows_uet.csv", 4, "time_h", "-0.1", "negative time_h in {path}, row 4"),
    ("indicators", "out/flows_uet.csv", 5, "time_h", "inf",
     "time_h 'inf' is not a finite number in {path}, row 5"),
    ("indicators", "out/flows_uet.csv", 3, "link_id", "1",
     "duplicate interval 28, link_id 1 in {path}, row 3"),
    ("indicators", "out/flows_uet.csv", None, "time_h", None,
     "missing flows column 'time_h' in {path}, row 1"),
    ("indicators", "nodes.csv", None, "y", None, "missing nodes column 'y' in {path}, row 1"),
    ("indicators", "nodes.csv", 3, "x", "abc", "x 'abc' is not a finite number in {path}, row 3"),
    ("indicators", "nodes.csv", 2, "x", "nan", "x 'nan' is not a finite number in {path}, row 2"),
    ("indicators", "nodes.csv", 3, "node_id", "1", "duplicate node id 1 in {path}, row 3"),
    ("indicators", "links.csv", 3, "link_id", "1", "duplicate link id 1 in {path}, row 3"),
    ("indicators", "links.csv", 2, "to", "99", "unknown node 99 (to) on link 1 in {path}, row 2"),
    ("indicators", "links.csv", 2, "length_miles", "0.0",
     "nonpositive length_miles on link 1 in {path}, row 2"),
    ("indicators", "links.csv", 2, "speed_mph", "-5.0",
     "nonpositive speed_mph on link 1 in {path}, row 2"),
    ("indicators", "links.csv", 2, "capacity_vph", "0.0",
     "nonpositive capacity_vph on link 1 in {path}, row 2"),
    ("indicators", "links.csv", 2, "fclass", "6", "fclass 6 on link 1 not in 1..5 in {path}, row 2"),
    ("indicators", "links.csv", 2, "lanes", "9", "lanes 9 on link 1 not in 1..8 in {path}, row 2"),
    ("indicators", "links.csv", 2, "to", "1", "link 1 is a self loop in {path}, row 2"),
    ("indicators", "links.csv", 2, "wkt_geometry", "nonsense",
     "wkt_geometry 'nonsense' is not a WKT LINESTRING in {path}, row 2"),
    ("assign", "trips.csv", 3, "trip_id", "1", "duplicate trip_id 1 in {path}, row 3"),
    ("assign", "trips.csv", None, "depart_s", None, "missing trips column 'depart_s' in {path}, row 1"),
    ("assign", "trips.csv", 2, "destination", "x", "destination 'x' is not an int64 in {path}, row 2"),
    ("assign", "trips.csv", 2, "destination", "1",
     "trip 1: origin equals destination in {path}, row 2"),
    ("assign", "trips.csv", 2, "trip_id", "99999999999999999999",
     "trip_id '99999999999999999999' is not an int64 in {path}, row 2"),
    ("indicators", "schools.csv", None, "pct_minority", None,
     "missing schools column 'pct_minority' in {path}, row 1"),
    ("indicators", "schools.csv", 2, "pct_minority", "150",
     "school 1: pct_minority outside [0, 100] in {path}, row 2"),
    ("indicators", "schools.csv", 3, "x", "5000.0", "duplicate school_id 1 in {path}, row 3"),
    ("indicators", "schools.csv", 2, "x", "nan", "school 1: non-finite coordinate in {path}, row 2"),
    ("indicators", "schools.csv", 2, "y", "inf", "school 1: non-finite coordinate in {path}, row 2"),
    ("indicators", "schools.csv", 2, "x", "-inf", "school 1: non-finite coordinate in {path}, row 2"),
], ids=["missing_link_type", "unknown_street_type", "unknown_link_type", "repeated_link_type",
        "non_numeric_trip", "nan_trip", "unknown_status", "repeated_trip",
        "negative_trip_distance", "negative_trip_time", "negative_trip_free_flow",
        "negative_trip_fuel", "non_numeric_flow", "negative_flow", "nan_flow",
        "negative_flow_time", "infinite_flow_time", "repeated_flow", "missing_flow_column",
        "missing_node_column", "non_numeric_node", "nan_node", "repeated_node", "repeated_link",
        "unknown_node", "nonpositive_length", "nonpositive_speed", "nonpositive_capacity",
        "fclass_out_of_range", "lanes_out_of_range", "self_loop", "bad_geometry",
        "repeated_trip_request", "missing_departure_column", "non_numeric_trip_request",
        "trip_to_its_origin", "trip_id_beyond_int64", "missing_school_column",
        "school_minority_share_out_of_range", "repeated_school", "nan_school_x", "inf_school_y",
        "negative_inf_school_x"])
def test_indicators_command_names_bad_assignment_outputs(tmp_path, capsys, town_assigned, command,
                                                         name, row_no, column, value, message):
    shutil.copytree(town_assigned, tmp_path, dirs_exist_ok=True)
    path = tmp_path / name
    _edit_row(path, row_no, column, value)
    capsys.readouterr()
    assert main([command, "--config", str(tmp_path / "config.json"), "--objective", "uet"]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_assign_rejects_unknown_objective(tmp_path):
    cfg = town_scenario(tmp_path)
    with pytest.raises(SystemExit):
        main(["assign", "--config", cfg, "--objective", "shortest"])


def test_chart_command_reproduces_run_chart(tmp_path, town_run):
    _, out = town_run
    target = tmp_path / "again.svg"
    rc = main(["chart", "--comparison", str(out / "comparison.csv"), "--out", str(target)])
    assert rc == 0
    assert target.read_bytes() == (out / "chart.svg").read_bytes()


def test_compare_command_merges_cities(tmp_path, town_run):
    _, out = town_run
    a = tmp_path / "alpha.csv"
    b = tmp_path / "beta.csv"
    shutil.copy(out / "comparison.csv", a)
    shutil.copy(out / "comparison.csv", b)
    merged = tmp_path / "cities.csv"
    assert main(["compare", str(a), str(b), "--out", str(merged)]) == 0
    with open(merged, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theme", "indicator", "unit",
                       "alpha_uet", "alpha_sot", "alpha_sof",
                       "beta_uet", "beta_sot", "beta_sof"]
    assert len(rows) == 16
    assert [r[1] for r in rows[1:]] == list(INDICATOR_NAMES)
    # identical inputs produce identical per-city columns
    for r in rows[1:]:
        assert r[3:6] == r[6:9]

    named = tmp_path / "named.csv"
    assert main(["compare", str(a), str(b), "--out", str(named),
                 "--names", "north,south"]) == 0
    with open(named, newline="") as fh:
        head = next(csv.reader(fh))
    assert head[3:] == ["north_uet", "north_sot", "north_sof",
                        "south_uet", "south_sot", "south_sof"]


def _reject_comparison(tmp_path, capsys, good, edit, message):
    """`chart` and `compare` each exit 1 on the edited copy of a good
    comparison table, naming it, and `compare` writes nothing."""
    bad = tmp_path / "bad.csv"
    with open(good, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert main(["chart", "--comparison", str(bad), "--out", str(tmp_path / "bad.svg")]) == 1
    assert capsys.readouterr().err == f"error: {message} in {bad}, row 5\n"
    merged = tmp_path / "cities.csv"
    assert main(["compare", str(good), str(bad), "--out", str(merged)]) == 1
    assert capsys.readouterr().err == f"error: {message} in {bad}, row 5\n"
    assert not merged.exists()


def test_chart_and_compare_reject_a_comparison_row_missing_a_cell(tmp_path, capsys, town_run):
    _reject_comparison(tmp_path, capsys, town_run[1] / "comparison.csv",
                       lambda rows: rows[4].pop(), "5 cells under a 6-column header")


def test_chart_and_compare_reject_a_non_numeric_comparison_value(tmp_path, capsys, town_run):
    _reject_comparison(tmp_path, capsys, town_run[1] / "comparison.csv",
                       lambda rows: rows[4].__setitem__(4, "abc"),
                       "sot 'abc' is not a number or NA")


def test_compare_cities_input_validation(tmp_path, town_run):
    _, out = town_run
    good = out / "comparison.csv"
    with pytest.raises(ValueError, match="at least two"):
        compare_cities([good])
    with pytest.raises(ValueError, match="duplicate city names"):
        compare_cities([good, good])
    with pytest.raises(ValueError, match="number of names"):
        compare_cities([good, good], names=["only"])

    stub = tmp_path / "stub.csv"
    stub.write_text("theme,indicator,unit,uet\nMobility,VMT,miles,1.0\n")
    with pytest.raises(ValueError, match="indicator rows differ"):
        compare_cities([good, stub])
