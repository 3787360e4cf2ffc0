import csv
import importlib.util
import json
import os
import shutil
import subprocess
import sys
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
)
from flowscore.indicators import INDICATOR_NAMES, School, daily_stats
from flowscore.geo import Tract
from flowscore.network import Network, Node, load_network
from flowscore.qdta import Objective, load_trips, run_day
from flowscore.typology import StreetType, read_link_types

from fixtures import (
    M,
    blanket_parcel,
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
    trips = uniform_trips(1, 4, 600, start_s=25_200.0, spacing_s=0.5)
    trips += uniform_trips(1, 4, late_trips, start_s=86_000.0, first_id=601)
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
    assert main(["assign", "--config", cfg, "--objective", "sof", "--out", str(out)]) == 0
    scenario = load_scenario(cfg)
    network = load_network(str(scenario.nodes), str(scenario.links))
    trips = load_trips(str(scenario.trips))
    want = daily_stats(run_day(network, trips, Objective.SOF, scenario.solver))
    got = read_flows_csv(out / "flows_sof.csv", network, scenario.solver)
    assert got.interval_s == want.interval_s
    assert np.array_equal(got.flows_vph, want.flows_vph)
    assert np.array_equal(got.times_h, want.times_h)


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


def test_benchmark_tracer_finds_every_layer(tmp_path, town_run):
    # the tracer patches the package's modules, so it runs in its own process
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cfg, run_out = town_run
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
    metrics = tracer.summarize(traced["spans"])
    assert metrics["indicators.daily_stats_calls"] == 3
    assert metrics["indicators.school_exposure_calls"] == 3
    names = sorted(p.name for p in run_out.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (run_out / name).read_bytes(), name


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
