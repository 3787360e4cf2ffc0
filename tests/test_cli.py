import csv
import gc
import importlib.util
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from flowscore.indicators import INDICATOR_NAMES, LinkDailyStats, congested_miles, daily_stats
from flowscore.network import LoadError, Network, load_network
from flowscore.qdta import Objective, load_trips, run_day
from flowscore.typology import StreetType, read_link_types

import fixtures
from fixtures import (
    M,
    Node,
    School,
    Tract,
    assert_dense_figures,
    assert_same_states,
    assigned_day,
    blanket_parcel,
    flow_table,
    joined,
    square,
    straight_link,
    uniform_trips,
    write_scenario,
)

import geo_reference
import golden
from qdta_reference import conservation, dense_entered, dense_states

ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """This process's environment with the package's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


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
    return fixtures.network([n1, n2, n3, n4], links)


def town(scale=1.0, late_trips=0):
    """The town's network, trips, parcel rows, school rows and tract rows."""
    net = town_network(scale)
    trips = joined(uniform_trips(1, 4, 600, start_s=25_200.0, spacing_s=0.5),
                   uniform_trips(1, 4, late_trips, start_s=86_000.0, first_id=601))
    parcels = [blanket_parcel(net, "R")]
    schools = [School(1, scale * M / 2.0, 10.0, 80.0)]
    tracts = [
        Tract(1, square(scale * M / 2.0, 0.0, scale * 1000.0), 1000.0, True),
        Tract(2, square(scale * 3000.0, 0.0, scale * 1090.0), 9000.0, False),
    ]
    return net, trips, parcels, schools, tracts


def town_scenario(dirpath, config_overrides=None, scale=1.0, late_trips=0) -> str:
    return write_scenario(dirpath, *town(scale, late_trips), config_overrides=config_overrides)


def long_town_scenario(dirpath) -> str:
    """The town stretched twelvefold: every link takes more than one 15-minute
    interval, so each trip spills into the next interval, and the trips that
    leave in the last interval are forced to finish at the end of the day."""
    return town_scenario(dirpath, scale=12.0, late_trips=40)


def school_town_scenario(dirpath) -> str:
    """Three links out of node 1, in rows 30, 20, 10: the highway 30 to
    node 2, which all 66,000 trips take (ADT above 50,000), then the
    neighborhood street 10 to node 3 (36,000 trips, Medium ADT) and the
    throughway 20 to node 4 (8,000). School 7, a minority school, sees all
    three links and is High; school 3 shares link 10 with it and is
    Medium; school 5, a minority school too, sees only link 20 and school
    9 no link, so both are None. School 7's three morning VMTs add up to
    other bits in row order than in link-id order."""
    a, b = Node(1, 0.0, 0.0), Node(2, 1703.9, 41.3)
    c, d = Node(3, 3391.7, -17.9), Node(4, 1650.2, 1815.9)
    net = fixtures.network([a, b, c, d], [straight_link(30, a, b, 65.0, 20000.0, 1, 3),
                                          straight_link(20, b, d, 35.0, 10000.0, 4, 2),
                                          straight_link(10, b, c, 30.0, 10000.0, 5, 2)])
    trips = joined(uniform_trips(1, 2, 22_000, start_s=0.0, spacing_s=3.6),
                   uniform_trips(1, 3, 36_000, start_s=1.0, spacing_s=2.2, first_id=22_001),
                   uniform_trips(1, 4, 8_000, start_s=2.0, spacing_s=9.9, first_id=58_001))
    schools = [School(7, 1703.9, 191.3, 80.0), School(3, 2500.0, 160.0, 20.0),
               School(5, 1830.0, 1200.0, 90.0), School(9, 10 * M, 10 * M, 10.0)]
    tracts = [Tract(1, square(2500.0, 0.0, 1000.0), 1000.0, True)]
    return write_scenario(dirpath, net, trips, [blanket_parcel(net, "R")], schools, tracts)


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


def test_readme_library_use_runs_in_a_scenario_directory(tmp_path, monkeypatch):
    cfg = town_scenario(tmp_path)
    assert main(["classify", "--config", cfg]) == 0
    section = (ROOT / "README.md").read_text().split("\n## Library use\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 9
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:  # in order: each block reads the names the earlier ones set
        exec(compile(block, "README.md", "exec"), namespace)
    day, rows = namespace["day"], namespace["rows"]
    assert namespace["flows"][day.links[rows]].tolist() == day.flow_vph[rows].tolist()


def test_print_config(capsys):
    assert main(["--print-config"]) == 0
    assert json.loads(capsys.readouterr().out) == DEFAULT_CONFIG


def test_no_command_exits_2():
    assert main([]) == 2


def test_importing_the_cli_loads_no_xml_or_http_modules():
    # every command's process pays for what `import flowscore.cli` loads;
    # xml.sax.saxutils once pulled in urllib.request and http.client, ~40 ms
    code = ("import sys, flowscore.cli; "
            "print(sorted({'xml.sax', 'urllib.request', 'http.client'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def loaded_after(module: str, *commands, then: str = "") -> tuple[bool, list[int], bool]:
    """In a fresh process: whether `import flowscore.cli` loads module or
    one of its submodules, the exit codes of `main` on each of commands in
    turn, and whether one is loaded after them and the Python code then."""
    code = ("import json, sys\n"
            "def loaded(): return any(m == sys.argv[1] or m.startswith(sys.argv[1] + '.')\n"
            "                         for m in sys.modules)\n"
            "from flowscore.cli import main\n"
            "imported = loaded()\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[2])]\n"
            f"{then}\n"
            "print(json.dumps([imported, codes, loaded()]))")
    done = subprocess.run([sys.executable, "-c", code, module, json.dumps(commands)],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def test_only_routing_commands_load_scipy(tmp_path, town_run):
    # importing scipy costs about as much CPU as the rest of a scoring
    # command, and ~30 MB; only a search needs it
    scoring, cfg = scoring_commands(tmp_path, town_run), str(tmp_path / "config.json")
    assert loaded_after("scipy", ["--print-config"], *scoring) == (False, [0] * 7, False)
    assert loaded_after("scipy", ["assign", "--config", cfg, "--objective", "uet"]) == (
        False, [0], True)
    assert loaded_after("scipy", ["run", "--config", cfg]) == (False, [0], True)


def test_loading_and_scoring_leave_numpy_ma_unloaded(tmp_path, town_run):
    # numpy 2.4's np.unique, asked for no index, inverse or counts, imports
    # numpy.ma, about 20-40 ms of CPU; only routing, through scipy, needs it
    assert loaded_after("numpy.ma", *scoring_commands(tmp_path, town_run)) == (
        False, [0] * 6, False)
    load_inputs = (  # the six loaders that `run` calls before its first street is classified
        "from flowscore import cli, geo, indicators, network, qdta, typology\n"
        f"s = cli.load_scenario({str(tmp_path / 'config.json')!r})\n"
        "network.load_network(str(s.nodes), str(s.links))\n"
        "typology.load_parcels(str(s.parcels))\n"
        "indicators.load_schools(str(s.schools))\n"
        "geo.validate_tracts(geo.load_tracts(str(s.tracts)))\n"
        "qdta.load_trips(str(s.trips))")
    assert loaded_after("numpy.ma", then=load_inputs) == (False, [], False)


def scoring_commands(tmp_path, town_run) -> list[list[str]]:
    """`classify`, `indicators` for each objective, `chart` and `compare`
    on a copy of the town run in tmp_path."""
    shutil.copytree(Path(town_run[0]).parent, tmp_path, dirs_exist_ok=True)
    cfg, comparison = str(tmp_path / "config.json"), str(tmp_path / "out" / "comparison.csv")
    return [["classify", "--config", cfg],
            *(["indicators", "--config", cfg, "--objective", obj.value] for obj in Objective),
            ["chart", "--comparison", comparison, "--out", str(tmp_path / "c.svg")],
            ["compare", comparison, comparison, "--names", "a,b",
             "--out", str(tmp_path / "merged.csv")]]


def test_importing_the_cli_loads_no_process_pool():
    # only a run with more than one worker needs multiprocessing
    code = ("import sys, flowscore.cli; print(sorted({'multiprocessing', "
            "'concurrent.futures.process'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_main_with_argv_leaves_the_heap_unfrozen():
    frozen = gc.get_freeze_count()
    assert main(["--print-config"]) == 0
    assert gc.get_freeze_count() == frozen


def test_main_without_argv_freezes_the_heap():
    code = ("import gc, sys; from flowscore.cli import main; frozen = gc.get_freeze_count(); "
            "sys.argv = ['flowscore', '--print-config']; code = main(); "
            "print(code, frozen, gc.get_freeze_count() > 0)")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 0 True"


def test_main_without_argv_freezes_scipy_when_the_first_search_loads_it(tmp_path):
    # scipy loads after main's first freeze; freezing again keeps its
    # import-time objects out of every collection, as numpy's are
    cfg = town_scenario(tmp_path)
    code = ("import gc, sys\n"
            "from flowscore.cli import main\n"
            "freeze, counts = gc.freeze, []\n"
            "gc.freeze = lambda: (freeze(), counts.append(gc.get_freeze_count()))\n"
            "sys.argv = ['flowscore', 'run', '--config', sys.argv[1]]\n"
            "code = main()\n"
            "print(code, len(counts), counts[0] < gc.get_freeze_count())")
    done = subprocess.run([sys.executable, "-c", code, cfg], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 2 True"


def test_a_library_day_that_loads_scipy_leaves_the_heap_unfrozen(tmp_path):
    town_scenario(tmp_path)
    code = ("import gc, sys\n"
            "from flowscore import Objective, load_network, load_trips, run_day\n"
            "net = load_network('nodes.csv', 'links.csv')\n"
            "loaded = 'scipy' in sys.modules\n"
            "run_day(net, load_trips('trips.csv'), Objective.UET)\n"
            "print(loaded, 'scipy' in sys.modules, gc.get_freeze_count())")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False True 0"


@pytest.mark.parametrize("workers", [1, 3])
def test_the_entry_point_writes_what_main_writes(tmp_path, town_run, workers):
    _, main_out = town_run
    cfg = town_scenario(tmp_path, config_overrides={"workers": workers})
    done = subprocess.run([sys.executable, "-m", "flowscore.cli", "run", "--config", cfg],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, ""), done.stderr
    names = sorted(p.name for p in main_out.iterdir())
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == names
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (main_out / name).read_bytes(), name


@pytest.mark.parametrize("preset", [None, "2"])
def test_importing_flowscore_keeps_blas_to_one_thread(tmp_path, preset):
    # each OpenBLAS helper thread spins after every BLAS call, and a ddot over
    # 10,000+ elements rounds by the thread count; a user's own setting stays.
    # The search loads scipy, and with it scipy's own OpenBLAS.
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("thread count is read from /proc/self/task")
    town_scenario(tmp_path)
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import flowscore.cli, os, sys, numpy as np; np.ones(20_001) @ np.ones(20_001); "
            "net = flowscore.load_network('nodes.csv', 'links.csv'); "
            "flowscore.qdta.RoutingGraph(net).shortest_paths([0], net.free_flow_h, ([0], [3])); "
            "assert 'scipy' in sys.modules; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    value, threads = done.stdout.split()
    assert value == (preset or "1")
    if preset is None:
        assert threads == "1"


def test_every_public_name_resolves():
    import flowscore

    assert [name for name in flowscore.__all__ if not hasattr(flowscore, name)] == []
    namespace = {}
    exec("from flowscore import *", namespace)  # raises on a listed name that is gone
    assert set(flowscore.__all__) <= set(namespace)


def test_load_scenario_rejects_bad_configs(tmp_path, capsys):
    cfg = town_scenario(tmp_path)
    base_raw = json.loads((tmp_path / "config.json").read_text())

    def with_cfg(**changes):
        (tmp_path / "config.json").write_text(json.dumps({**base_raw, **changes}))
        return cfg

    with pytest.raises(ConfigError, match="config file not found"):
        load_scenario(tmp_path / "nope.json")
    with pytest.raises(ConfigError, match="config file not found"):
        load_scenario(tmp_path)  # a directory

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
    for key in ("school_radius_m", "adjacency_buffer_m"):
        for value in (-5.0, math.nan, math.inf):  # written as -5.0, NaN and Infinity
            with pytest.raises(ConfigError, match=f"^{key}: .* is not finite and nonnegative$"):
                load_scenario(with_cfg(**{key: value}))
    assert main(["run", "--config", with_cfg(school_radius_m=math.nan)]) == 2
    assert not (tmp_path / "out").exists()  # rejected before any file is written
    capsys.readouterr()
    for key, value in [("workers", math.inf), ("workers", "abc"), ("workers", math.nan),
                       ("workers", 2.7), ("max_iterations", 4.5), ("adjacency_buffer_m", "abc"),
                       ("morning_window_s", ["a", 1]), ("objectives", "uet"), ("nodes", 5),
                       ("tracts", None), ("out_dir", ["out"]), ("trips", {"path": "trips.csv"}),
                       ("interval_s", "900"), ("workers", "2"),
                       ("morning_window_s", ["25200", "32400"]), ("nodes", "")]:
        with pytest.raises(ConfigError, match=key):
            load_scenario(with_cfg(**{key: value}))
        assert main(["run", "--config", with_cfg(**{key: value})]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
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


@pytest.fixture(scope="module")
def school_town_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("school_town")
    cfg = school_town_scenario(base)
    assert main(["run", "--config", cfg]) == 0
    return cfg, base / "out"


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


@pytest.mark.parametrize("scenario", golden.SCENARIOS)
def test_outputs_keep_their_checked_in_digests(request, tmp_path, scenario):
    # see tests/golden.py for the scenarios, the files left out and the update rule
    if scenario in golden.TOWNS:
        out = request.getfixturevalue(f"{scenario}_run")[1]
    else:
        out = golden.run_workload(scenario, tmp_path)
    message = golden.mismatch(scenario, out)
    assert message is None, message


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
    types = read_link_types(tmp_path / "cls" / "link_types.csv", town_network())
    assert types.tolist() == [StreetType.NEIGHBORHOOD_RESIDENTIAL,  # links 1 to 4
                              StreetType.NEIGHBORHOOD_RESIDENTIAL,
                              StreetType.RESIDENTIAL_THROUGHWAY,
                              StreetType.RESIDENTIAL_THROUGHWAY]


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
        got = LinkDailyStats(network, read_flows_csv(out / f"flows_{tag}.csv", network,
                                                     scenario.solver), scenario.solver.interval_s)
        assert (got.interval_s, got.n_intervals) == (want.interval_s, want.n_intervals)
        for name in ("adt", "vmt", "vhd"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (tag, name)
        for window in windows:
            assert got.window_vmt(window).tobytes() == want.window_vmt(window).tobytes(), tag
        assert (np.float64(congested_miles(got, windows[0])).tobytes()
                == np.float64(congested_miles(want, windows[0])).tobytes()), tag


@pytest.mark.parametrize("objective", ["uet", "sot", "sof"])
def test_indicators_ignore_the_row_order_of_the_flows_csv(tmp_path, long_town_run, objective):
    # links carry flow in several intervals, so the reader must put the rows
    # back in interval order for each link's sums and each window's rows
    cfg, run_out = long_town_run
    out = tmp_path / "steps"
    shutil.copytree(run_out, out)
    lines = (out / f"flows_{objective}.csv").read_bytes().splitlines(keepends=True)
    rows = lines[1:]
    random.Random(3).shuffle(rows)
    assert rows != lines[1:]
    assert max(Counter(row.split(b",")[1] for row in rows).values()) > 1
    (out / f"flows_{objective}.csv").write_bytes(b"".join(lines[:1] + rows))
    scored = (f"indicators_{objective}.csv", f"school_exposure_{objective}.csv")
    for name in scored:
        (out / name).unlink()
    assert main(["indicators", "--config", cfg, "--objective", objective, "--out", str(out)]) == 0
    for name in scored:
        assert (out / name).read_bytes() == (run_out / name).read_bytes(), name


def assert_row_order_ignored(tmp_path, run, name, shuffle):
    """Run the scenario of `run` with the data rows of its input `name`
    put in place by shuffle(rows); every output file must keep its bytes."""
    cfg, run_out = run
    base = tmp_path / "shuffled"
    shutil.copytree(Path(cfg).parent, base, ignore=shutil.ignore_patterns("out"))
    lines = (base / name).read_text().splitlines(keepends=True)
    rows = lines[1:]
    shuffle(rows)
    assert rows != lines[1:]
    (base / name).write_text("".join(lines[:1] + rows))
    assert main(["run", "--config", str(base / "config.json")]) == 0
    names = sorted(p.name for p in run_out.iterdir())
    assert sorted(p.name for p in (base / "out").iterdir()) == names
    for name in names:
        assert (base / "out" / name).read_bytes() == (run_out / name).read_bytes(), name


def test_run_ignores_the_row_order_of_trips_csv(tmp_path, town_run):
    assert_row_order_ignored(tmp_path, town_run, "trips.csv", np.random.default_rng(11).shuffle)


def test_run_ignores_the_row_order_of_schools_csv(tmp_path, school_town_run):
    # every per-school result is written, and every buffer summed, in id order
    assert_row_order_ignored(tmp_path, school_town_run, "schools.csv", random.Random(7).shuffle)


def test_school_town_scores_every_exposure_level(school_town_run):
    cfg, out = school_town_run
    base = Path(cfg).parent
    network = load_network(str(base / "nodes.csv"), str(base / "links.csv"))
    with open(base / "schools.csv", newline="") as fh:
        buffers = {int(r["school_id"]): geo_reference.links_within_radius(
            (float(r["x"]), float(r["y"])), 250.0, network) for r in csv.DictReader(fh)}
    assert buffers == {7: [10, 20, 30], 3: [10], 5: [20], 9: []}
    length = dict(zip(network.link_ids.tolist(), network.length_miles.tolist()))
    for tag in ("uet", "sot", "sof"):
        flow = dict.fromkeys(length, 0.0)
        with open(out / f"flows_{tag}.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                if 28 <= int(r["interval"]) < 32:  # 07:00-08:00, added in interval order
                    flow[int(r["link_id"])] += float(r["flow_vph"])
        vmt = {i: (f * 0.25) * length[i] for i, f in flow.items()}

        def buffer_vmt(ids):
            total = 0.0
            for i in ids:
                total += vmt[i]
            return total

        with open(out / f"school_exposure_{tag}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["school_id"], r["exposure"]) for r in rows] == [
            ("3", "Medium"), ("5", "None"), ("7", "High"), ("9", "None")]
        for r in rows:  # each buffer adds in link-id order
            assert float(r["buffer_vmt_7_8am"]) == buffer_vmt(buffers[int(r["school_id"])]), tag
        assert buffer_vmt(network.link_ids.tolist()) != buffer_vmt(buffers[7])  # row order
        with open(out / f"indicators_{tag}.csv", newline="") as fh:
            value = {r["indicator"]: r["value"] for r in csv.DictReader(fh)}
        assert value["Schools near high and medium traffic streets"] == "2.0"
        assert value["Minority schools near high and medium traffic streets"] == "50.0"
        assert float(value["VMT near schools in morning hours"]) == buffer_vmt([10, 20, 30])
        assert float(value["Estimated highway accidents per year"]) > 0.0


def test_trips_csv_bytes_do_not_depend_on_the_write_block(tmp_path, monkeypatch):
    # the long town's day: trips that spill, and trips forced at midnight
    trips = joined(uniform_trips(1, 4, 600, start_s=25_200.0, spacing_s=0.5),
                   uniform_trips(1, 4, 40, start_s=86_000.0, first_id=601))
    result = run_day(town_network(12.0), trips, Objective.SOT)
    cli.write_trips_csv(tmp_path / "whole.csv", result)
    monkeypatch.setattr(cli, "_ROW_BLOCK", 7)  # 640 rows: 91 full blocks and one of 3
    cli.write_trips_csv(tmp_path / "blocks.csv", result)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert len(read_trips_csv(tmp_path / "blocks.csv").trip_id) == 640


def test_flows_csv_bytes_do_not_depend_on_the_write_block(tmp_path, monkeypatch):
    # the long town's sot day splits its flow over both routes, so some
    # intervals load all four links
    trips = joined(uniform_trips(1, 4, 600, start_s=25_200.0, spacing_s=0.5),
                   uniform_trips(1, 4, 40, start_s=86_000.0, first_id=601))
    result = run_day(town_network(12.0), trips, Objective.SOT)
    cli.write_flows_csv(tmp_path / "whole.csv", result)
    monkeypatch.setattr(cli, "_ROW_BLOCK", 3)  # blocks cross from one interval into the next
    cli.write_flows_csv(tmp_path / "blocks.csv", result)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    with open(tmp_path / "blocks.csv", newline="") as fh:
        intervals = [int(r["interval"]) for r in csv.DictReader(fh)]
    assert np.bincount(intervals).max() == 4
    # a block of 3 holds the end of one interval's rows and the start of the next's
    assert any(len(set(intervals[a:a + 3])) > 1 for a in range(0, len(intervals), 3))


def test_a_day_with_no_flow_and_no_trips_writes_only_the_headers(tmp_path):
    zero = qdta.IntervalRecord(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32), True,
                               0.0, 1, [], [])
    flows = flow_table(np.zeros((2, 4)), np.full((2, 4), 0.25))
    empty = np.empty(0)
    table = qdta.TripTable(np.empty(0, dtype=np.int64), np.empty(0, dtype=object),
                           *(empty for _ in range(6)), np.zeros(1, dtype=np.int64),
                           np.empty(0, dtype=np.int64))
    result = qdta.AssignmentResult(Objective.UET, qdta.SolverConfig(), [zero, zero], flows,
                                   table, np.zeros(4, dtype=np.int64), town_network())
    cli.write_flows_csv(tmp_path / "flows.csv", result)
    cli.write_trips_csv(tmp_path / "trips.csv", result)
    assert (tmp_path / "flows.csv").read_bytes() == (
        b"interval,link_id,flow_vph,time_h,speed_mph\r\n")
    assert (tmp_path / "trips.csv").read_bytes() == (
        b"trip_id,status,start_s,end_s,distance_miles,time_h,free_flow_h,delay_h,fuel_l,links\r\n")


def test_flows_csv_has_the_bytes_of_csv_writer(tmp_path):
    net = town_network()
    # the smallest subnormal, whole numbers, 1e16 (past 2**53), 0.1, and a
    # zero flow, which writes no row; then flows one ulp apart, and times of
    # 0.0 and -0.0 in one column (speeds inf and -inf)
    flows = [np.array([5e-324, 1e16, 0.1, 0.0]), np.array([3.0, 2.5e-8, 1e300, 7.0]),
             np.array([1.0, 1.0000000000000002, 1.0, 1.0000000000000002])]
    times = [np.array([0.1, 3.0, 1e16, 0.25]), np.array([0.125, 1.0, 0.1, 2.0]),
             np.array([0.0, -0.0, 0.0, 0.25])]
    none = np.empty(0, dtype=np.int32)
    intervals = [qdta.IntervalRecord(none, none, True, 0.0, 1, [], []) for _ in flows]
    result = qdta.AssignmentResult(Objective.UET, qdta.SolverConfig(), intervals,
                                   flow_table(np.stack(flows), np.stack(times)), None,
                                   np.zeros(4, dtype=np.int64), net)
    with np.errstate(divide="ignore"):
        cli.write_flows_csv(tmp_path / "flows.csv", result)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cli.FLOW_COLUMNS)
            for k, (f, t) in enumerate(zip(flows, times)):
                writer.writerows([k, int(net.link_ids[i]), float(f[i]), float(t[i]),
                                  float(net.length_miles[i] / t[i])]
                                 for i in range(4) if f[i] > 0)
    want = (tmp_path / "want.csv").read_bytes()
    assert b"5e-324" in want and b"1e+16" in want and b",3.0," in want
    assert b"\r\n2,1,1.0,0.0,inf\r\n2,2,1.0000000000000002,-0.0,-inf\r\n" in want
    assert (tmp_path / "flows.csv").read_bytes() == want


def test_trips_csv_has_the_bytes_of_csv_writer(tmp_path):
    # completed, forced and failed trips; a failed trip's empty link list;
    # links that several trips share; -0.0 beside 0.0 in one column, times
    # one ulp apart, 1e-05, the smallest subnormal and 1e16 (past 2**53)
    columns = {"trip_id": [3, 1, 5, 4, 2],
               "status": ["completed", "forced", "completed", "completed", "failed"],
               "start_s": [-0.0, 1e-05, 0.0, 0.0, 86_399.5],
               "end_s": [60.0, 1e16, 60.0, 1.0, 86_399.5],
               "distance_miles": [1.5, 0.1, 0.0, 1.5, -0.0],
               "time_h": [0.25, 5e-324, 1.0, 1.0000000000000002, 0.0],
               "free_flow_h": [0.125, 0.0, 1.0, 1.0, 0.0],
               "fuel_l": [1e-05, 2.5, -0.0, 1e-05, 0.0]}
    links = [[7, 8, 9], [4], [8, 7], [9, 8, 4], []]
    offsets = np.cumsum([0, *map(len, links)])
    table = qdta.TripTable(*(np.array(c) for c in columns.values()), offsets,
                           np.array(sum(links, []), dtype=np.int64))
    result = qdta.AssignmentResult(Objective.UET, qdta.SolverConfig(), [], None, table,
                                   np.zeros(4, dtype=np.int64), town_network())
    cli.write_trips_csv(tmp_path / "trips.csv", result)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.TRIP_COLUMNS)
        for i, cells in enumerate(zip(*columns.values())):
            trip_id, status, start, end, distance, time_h, free_flow_h, fuel = cells
            writer.writerow([trip_id, status, start, end, distance, time_h, free_flow_h,
                             time_h - free_flow_h, fuel, "|".join(map(str, links[i]))])
    want = (tmp_path / "want.csv").read_bytes()
    assert b",-0.0," in want and b",1e-05," in want and b",failed," in want
    assert b"\r\n5,completed,0.0,60.0,0.0,1.0,1.0,0.0,-0.0,8|7\r\n" in want
    assert b",1.0000000000000002,1.0,2.220446049250313e-16," in want
    assert want.endswith(b",0.0,\r\n")  # the failed trip's empty links cell
    assert (tmp_path / "trips.csv").read_bytes() == want


# float64 bit patterns the formatter must tell apart or treat alike: the
# zeros, the infinities, quiet and signalling NaNs with payloads of either
# sign, the smallest and largest subnormals, and neighbours one ulp apart
_SPECIAL_BITS = [int(b) for b in np.array([
    0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308, 1.0,
    1.0000000000000002, 0.9999999999999999, 0.1, 1e16, 1.7976931348623157e308]).view(np.int64)] + [
    0x7FF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF, -0x0008000000000001, -1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pool=st.lists(st.one_of(st.sampled_from(_SPECIAL_BITS),
                               st.integers(-2**63, 2**63 - 1)), min_size=1, max_size=8),
       picks=st.lists(st.integers(0, 7), max_size=40))
def test_cell_texts_are_repr_and_str_of_each_value(pool, picks):
    bits = np.array([pool[p % len(pool)] for p in picks], dtype=np.int64)
    floats = bits.view(np.float64)
    assert cli._cell_texts(floats) == list(map(repr, floats.tolist()))
    assert cli._cell_texts(bits) == list(map(str, bits.tolist()))


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


def test_read_columns_names_a_bad_cell_before_a_row_the_csv_module_cannot_read(tmp_path):
    # both rows are in the first chunk that the column passes parse
    path = tmp_path / "trips_uet.csv"
    write_trips_rows(path, ["10000|x", "|".join(map(str, range(10_000, 10_030)))])
    limit = csv.field_size_limit(100)
    try:
        with pytest.raises(LoadError) as caught:
            read_trips_csv(path)
    finally:
        csv.field_size_limit(limit)
    assert str(caught.value) == (f"links '10000|x' is not int64 link ids joined by '|' "
                                 f"in {path}, row 2")


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
    from flowscore import geo, indicators

    counted_names = ((indicators, "school_exposure"), (indicators, "daily_stats"),
                     (geo, "links_within_radii"), (indicators, "link_tract_ids"))
    calls = dict.fromkeys((name for _, name in counted_names), 0)
    for module, name in counted_names:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    cfg, _ = town_run
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    # the school buffers and the link tracts are joined once, not once per objective
    assert calls == {"school_exposure": 3, "daily_stats": 3, "links_within_radii": 1,
                     "link_tract_ids": 1}
    calls.update(dict.fromkeys(calls, 0))
    assert main(["indicators", "--config", cfg, "--objective", "uet",
                 "--out", str(tmp_path / "run")]) == 0
    # the stats come from flows_uet.csv
    assert calls == {"school_exposure": 1, "daily_stats": 0, "links_within_radii": 1,
                     "link_tract_ids": 1}


def test_run_builds_one_vertex_table_per_input(tmp_path, monkeypatch, town_run):
    # the links, the tracts and the parcels each build their vertex table
    # once, when they are loaded; every join reads the tables it is given
    from flowscore import geo

    built = []

    class CountedShapes(geo._Shapes):
        def __init__(self, xy, sizes, closed):
            built.append("rings" if closed else "lines")
            super().__init__(xy, sizes, closed)

    monkeypatch.setattr(geo, "_Shapes", CountedShapes)
    cfg, _ = town_run
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert built == ["lines", "rings", "rings"]  # links, tracts, parcels
    built.clear()
    assert main(["indicators", "--config", cfg, "--objective", "uet", "--out", str(out)]) == 0
    assert built == ["lines", "rings"]  # the street types come from link_types.csv
    built.clear()
    (out / "link_types.csv").unlink()
    assert main(["indicators", "--config", cfg, "--objective", "uet", "--out", str(out)]) == 0
    assert built == ["lines", "rings", "rings"]


def traced_run(tmp_path, cfg, run_out):
    """Run the benchmark's tracer on cfg; check that it found every layer
    and wrote the same files as run_out. Returns (metrics, out dir)."""
    # the tracer patches the package's modules, so it runs in its own process
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    out, spans_path = tmp_path / "traced", tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), cfg, str(out), str(spans_path)],
        env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(spans_path.read_text())
    # the public cost functions left `costs`; FW prices through `qdta._Pricing`
    gone = list(tracer.COST_FUNCTIONS)
    assert traced["missing"] == gone
    seen = {span[0] for span in traced["spans"]}
    assert [name for _, _, name, _ in tracer.LAYERS if name not in seen] == gone
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


@pytest.mark.parametrize("scale, late_trips", [(1.0, 0), (12.0, 40)], ids=["town", "long_town"])
def test_dijkstra_work_belongs_to_one_day(monkeypatch, scale, late_trips):
    """A day's Dijkstra runs and sources are the same whichever days ran
    before it on the same network, and a day leaves the network as it was."""
    work = []
    real = qdta._csgraph_dijkstra

    def counted(*args, **kwargs):
        work[-1][0] += 1
        work[-1][1] += np.atleast_1d(kwargs["indices"]).size
        return real(*args, **kwargs)

    monkeypatch.setattr(qdta, "_csgraph_dijkstra", counted)
    trips = town(scale, late_trips)[1]

    def day(network, objective):
        """(Dijkstra runs, sources) of one run_day."""
        work.append([0, 0])
        run_day(network, trips, objective)
        return tuple(work[-1])

    alone = {obj: day(town_network(scale), obj) for obj in Objective}
    for first in Objective:
        shared = town_network(scale)
        before = dict(vars(shared))
        day(shared, first)
        for obj in Objective:
            assert day(shared, obj) == alone[obj], (first, obj)
        assert vars(shared).keys() == before.keys()
        assert all(vars(shared)[name] is value for name, value in before.items())


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
    # the one dense FlowState of an interval is the one assign_interval returns
    built, assigned = [], []
    flow_state, assign = qdta.FlowState, qdta.assign_interval

    def counted_state(*args, **kwargs):
        built.append(1)
        return flow_state(*args, **kwargs)

    def counted_assign(*args, **kwargs):
        assigned.append(1)
        return assign(*args, **kwargs)

    monkeypatch.setattr(qdta, "FlowState", counted_state)
    monkeypatch.setattr(qdta, "assign_interval", counted_assign)
    cfg = scenario(tmp_path)
    steps = str(tmp_path / "steps")
    for argv, n_assigned in (
            (["run", "--config", cfg], 3 * 96),
            (["assign", "--config", cfg, "--objective", "sot", "--out", steps], 96),
            (["indicators", "--config", cfg, "--objective", "sot", "--out", steps], 0)):
        built.clear()
        assigned.clear()
        assert main(argv) == 0
        assert len(built) == len(assigned) == n_assigned, argv[0]


@pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
@pytest.mark.parametrize("scenario", [town_scenario, long_town_scenario],
                         ids=["town", "long_town"])
def test_flow_states_rebuild_the_assigned_states(tmp_path, scenario, objective):
    scenario = load_scenario(scenario(tmp_path))
    network = load_network(str(scenario.nodes), str(scenario.links))
    result, states, entered = assigned_day(network, load_trips(str(scenario.trips)), objective,
                                           scenario.solver)
    assert_same_states(dense_states(result), states)
    for got, want in zip(dense_entered(result), entered, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert_dense_figures(result, states, entered)


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


@pytest.mark.parametrize("key, value", [("speed_floor_mph", 0.5), ("speed_cap_mph", 150.0)])
def test_run_rejects_a_speed_clamp_outside_the_fuel_model(tmp_path, capsys, key, value):
    cfg = town_scenario(tmp_path, config_overrides={key: value})
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad solver settings: ") and key in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_fuel_curve_nonpositive_inside_the_speed_clamp(tmp_path, capsys):
    # the curve is positive from 5 to 90 mph; it burns -0.00165 L/mile at
    # the 120 mph cap
    cfg = town_scenario(tmp_path, config_overrides={
        "fuel_a": -0.0175, "fuel_b": 1.9, "fuel_c": 1e-9, "speed_cap_mph": 120.0})
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: bad solver settings: fuel curve nonpositive at 120.0 mph")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("max_iterations", True), ("workers", True),
                                        ("bpr_beta", True), ("morning_window_s", [True, 32400.0])])
def test_run_rejects_a_boolean_for_a_number(tmp_path, capsys, key, value):
    cfg = town_scenario(tmp_path, config_overrides={key: value})
    with pytest.raises(ConfigError, match=f"{key}: True is not a number"):
        load_scenario(cfg)
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow
def test_run_names_the_link_whose_cost_overflows(tmp_path, capsys):
    cfg = town_scenario(tmp_path)
    links = tmp_path / "links.csv"
    with links.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["capacity_vph"] = "1e-80"
    with links.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: link \d+: cost not finite at flow \S+ vph and capacity 1e-80 vph",
                     err, re.M), err


def test_long_town_flow_vmt_exceeds_trip_vmt(long_town_run):
    # Each interval loads a spilled trip's whole remaining path, but the
    # trip drives only part of it before the interval ends, so flow-based
    # VMT (the VMT indicators) exceeds trip-based VMT (the trip averages).
    cfg, out = long_town_run
    scenario = load_scenario(cfg)
    network = load_network(str(scenario.nodes), str(scenario.links))
    result = run_day(network, load_trips(str(scenario.trips)), Objective.UET, scenario.solver)
    trip_miles, link_miles, rel = conservation(result)
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
    ("indicators", "out/flows_uet.csv", 2, "time_h", "0.016666666666666666",
     "time_h 0.016666666666666666 below link_id 1's free-flow time 0.03333333333333333 in {path}, "
     "row 2"),
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
    ("indicators", "links.csv", 2, "wkt_geometry", "LINESTRING (0 0, 1 1) trailing",
     "wkt_geometry 'LINESTRING (0 0, 1 1) trailing' is not a WKT LINESTRING in {path}, row 2"),
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
        "flow_time_below_free_flow",
        "missing_node_column", "non_numeric_node", "nan_node", "repeated_node", "repeated_link",
        "unknown_node", "nonpositive_length", "nonpositive_speed", "nonpositive_capacity",
        "fclass_out_of_range", "lanes_out_of_range", "self_loop", "bad_geometry",
        "geometry_with_trailing_text",
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
                       "sot 'abc' is not NA or a finite, nonnegative number")


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

    # every name is there, so only the repeat can tell that VMT is 1.0 twice over
    repeated = tmp_path / "repeated.csv"
    lines = good.read_text().splitlines()
    assert len(lines) == 16
    repeated.write_text("\n".join([*lines, "Mobility,VMT,miles,1.0,1.0,1.0"]) + "\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"repeated indicator 'VMT' in {repeated}, row 17")):
        compare_cities([good, repeated])
