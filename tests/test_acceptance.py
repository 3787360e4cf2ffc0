"""End-to-end acceptance checks, one test per numbered requirement.

Each test prints one [acceptance] line when its assertions hold; a pytest
failure is the FAIL line.  Oracles here are built independently of the
library code under test: closed-form arithmetic, grid searches, finite
differences, and brute-force scans.
"""
import csv
import time

import numpy as np
import pytest

from flowscore import costs
from flowscore.costs import DEFAULT_BPR, DEFAULT_FUEL, FUEL_SPEED_MAX, FUEL_SPEED_MIN, spf_accidents
from flowscore.geo import _candidates, links_within_radii
from flowscore.indicators import (
    ExposureLevel,
    LinkDailyStats,
    daily_stats,
    filtered_vmt_vhd,
    school_exposure,
)
from flowscore.cli import main
from flowscore.qdta import Objective, SolverConfig, assign_interval, run_day
from flowscore.typology import StreetType, classify_network

import fixtures
import geo_reference
from costs_reference import fuel_per_mile, link_fuel
from fixtures import (
    M,
    Node,
    School,
    blanket_parcel,
    corridor_network,
    corridor_od,
    flow_table,
    marginal_fuel,
    pigou_network,
    perf_network,
    perf_trips,
    school_buffers,
    straight_link,
    two_route_network,
    uniform_trips,
)
from qdta_reference import conservation
from test_cli import town_scenario
from test_typology import hand_labeled_fixture


def ok(n, label):
    print(f"[acceptance] criterion {n} ({label}): PASS")


def system_time_vehh(fs):
    return float((fs.flow_vph * fs.time_h).sum())


def system_fuel_rate(net, fs, floor=5.0, cap=90.0):
    speeds = np.clip(fs.speed_mph, floor, cap)
    return float((link_fuel(net.length_miles, speeds) * fs.flow_vph).sum())


def test_criterion_01_equilibrium_matches_grid_search():
    t0 = time.perf_counter()
    net = pigou_network()
    cfg = SolverConfig(relative_gap=1e-6)
    demand_vph = 3000.0
    fs = assign_interval(net, [1], [2], [demand_vph * cfg.interval_h], Objective.UET, cfg)

    # independent oracle: scan the narrow-link flow at 0.1 veh/h and pick
    # the split minimizing the closed-form Beckmann sum
    c0_wide, cap_wide = 10.0 / 10.0, 1_000_000.0
    c0_narrow, cap_narrow = 10.0 / 20.0, 1_000.0

    def beckmann(f, c0, cap):
        return c0 * f * (1.0 + 0.03 * (f / cap) ** 4)

    f_narrow = np.arange(0.0, demand_vph + 0.05, 0.1)
    total = beckmann(demand_vph - f_narrow, c0_wide, cap_wide) + beckmann(
        f_narrow, c0_narrow, cap_narrow
    )
    best_narrow = float(f_narrow[np.argmin(total)])
    best_wide = demand_vph - best_narrow

    wide_idx, narrow_idx = net.link_positions([1, 2])
    assert fs.flow_vph[narrow_idx] == pytest.approx(best_narrow, rel=0.005)
    assert fs.flow_vph[wide_idx] == pytest.approx(best_wide, rel=0.005)

    t_wide_oracle = c0_wide * (1.0 + 0.15 * (best_wide / cap_wide) ** 4)
    t_narrow_oracle = c0_narrow * (1.0 + 0.15 * (best_narrow / cap_narrow) ** 4)
    assert fs.time_h[wide_idx] == pytest.approx(t_wide_oracle, rel=0.01)
    assert fs.time_h[narrow_idx] == pytest.approx(t_narrow_oracle, rel=0.01)
    # both paths carry flow, so their times must agree at equilibrium
    assert abs(fs.time_h[wide_idx] - fs.time_h[narrow_idx]) <= 0.01 * fs.time_h[wide_idx]

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    ok(1, "equilibrium matches 0.1 veh/h grid search")


def test_criterion_02_objective_orderings():
    # fixtures for this check stay at or below 35 mph: above the
    # fuel-optimal speed the fuel objective is non-convex and the solver
    # only guarantees a stationary point there
    tol = 1e-4
    cfg = SolverConfig(max_iterations=300)

    def solve_all(net, od, demand_vph):
        out = {}
        for obj in (Objective.UET, Objective.SOT, Objective.SOF):
            fs = assign_interval(net, [od[0]], [od[1]], [demand_vph * cfg.interval_h], obj, cfg)
            out[obj] = (system_time_vehh(fs), system_fuel_rate(net, fs))
        return out

    pigou = solve_all(pigou_network(), (1, 2), 3000.0)
    assert pigou[Objective.SOT][0] <= pigou[Objective.UET][0] * 0.99, "Pigou SOT >= 99% of UET time"
    assert pigou[Objective.SOF][1] <= min(v[1] for v in pigou.values()) * (1.0 + tol)

    tworoute = solve_all(two_route_network(), (1, 4), 2100.0)
    assert tworoute[Objective.SOT][0] <= tworoute[Objective.UET][0] * (1.0 + tol)
    assert tworoute[Objective.SOF][1] <= min(v[1] for v in tworoute.values()) * (1.0 + tol)
    ok(2, "SOT minimizes time, SOF minimizes fuel")


def test_criterion_03_residential_share_increases_toward_sof():
    t0 = time.perf_counter()
    net = corridor_network(900.0)
    o, d = corridor_od()
    cfg = SolverConfig(max_iterations=400)
    demand = ([o], [d], [2000.0 * cfg.interval_h])
    nr_mask = net.fclass == 5

    shares = {}
    for obj in (Objective.UET, Objective.SOT, Objective.SOF):
        fs = assign_interval(net, *demand, obj, cfg)
        vmt = fs.flow_vph * net.length_miles
        shares[obj] = float(vmt[nr_mask].sum() / vmt.sum())

    assert shares[Objective.UET] < shares[Objective.SOT] < shares[Objective.SOF], shares
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    ok(3, "neighborhood VMT share rises from UET to SOT to SOF")


def test_criterion_04_marginals_match_finite_differences():
    rng = np.random.default_rng(2024)
    n = 1000
    alpha, beta = 0.15, 4.0

    c0 = rng.uniform(0.005, 0.4, n)
    cap = rng.uniform(300.0, 3000.0, n)
    flow = rng.uniform(1.0, 2.2, n) * cap
    h = 1e-4 * cap

    def total_time(f):
        return f * c0 * (1.0 + alpha * (f / cap) ** beta)

    fd = (total_time(flow + h) - total_time(flow - h)) / (2.0 * h)
    got = costs._marginal_time(c0, costs._bpr(c0, flow, cap, DEFAULT_BPR)[0], DEFAULT_BPR)
    assert np.max(np.abs(got - fd) / np.abs(fd)) <= 1e-6

    length = rng.uniform(0.2, 5.0, n)
    v0 = rng.uniform(20.0, 65.0, n)
    cap = rng.uniform(300.0, 3000.0, n)
    flow = rng.uniform(0.0, 2.0, n) * cap
    h = 1e-4 * cap
    fp = DEFAULT_FUEL

    def total_fuel(f):
        v = v0 / (1.0 + alpha * (f / cap) ** beta)
        return f * length * (fp.a + fp.b / v + fp.c * v**2)

    fd = (total_fuel(flow + h) - total_fuel(flow - h)) / (2.0 * h)
    got = marginal_fuel(length, v0, flow, cap, FUEL_SPEED_MIN, FUEL_SPEED_MAX)
    assert np.max(np.abs(got - fd) / np.abs(fd)) <= 1e-6
    ok(4, "marginal costs match central differences on 1,000 samples")


def test_criterion_05_hand_values():
    c0 = 1.0 / 60.0
    assert costs._bpr(c0, 700.0, 700.0, DEFAULT_BPR)[1] == pytest.approx(1.15 * c0, rel=1e-12)
    assert costs._burn(1.0, 30.0, DEFAULT_FUEL) == pytest.approx(0.0711553, abs=1e-7)
    assert link_fuel(1.0, 30.0) == pytest.approx(0.0711553, abs=1e-7)
    assert fuel_per_mile(30.0) == pytest.approx(0.0711553, abs=1e-7)
    assert spf_accidents(4, 1.0, 10_000.0) == pytest.approx(5.886, abs=1e-3)
    ok(5, "hand-computed cost values")


def test_criterion_06_conservation_and_partition():
    runs = [
        (two_route_network(), uniform_trips(1, 4, 900, start_s=28_800.0), Objective.UET),
        (two_route_network(), uniform_trips(1, 4, 900, start_s=28_800.0), Objective.SOF),
        (corridor_network(900.0), uniform_trips(*corridor_od(), 400, start_s=27_000.0,
                                                spacing_s=2.0), Objective.SOT),
    ]
    cfg = SolverConfig()
    last = None
    for net, trips, obj in runs:
        result = run_day(net, trips, obj, cfg)
        trip_miles, link_miles, rel_err = conservation(result)
        assert trip_miles > 0.0
        assert rel_err <= 1e-6, (obj, rel_err)
        last = result

    # street-type VMT partition on the corridor run
    net = last.network
    types = classify_network(net, fixtures.parcel_table([blanket_parcel(net, "R")]))
    stats = daily_stats(last)
    total_vmt, total_vhd = filtered_vmt_vhd(stats, np.ones(net.n_links, dtype=bool))
    part_vmt = sum(filtered_vmt_vhd(stats, types == st)[0] for st in StreetType)
    part_vhd = sum(filtered_vmt_vhd(stats, types == st)[1] for st in StreetType)
    assert abs(part_vmt - total_vmt) <= 1e-9 * total_vmt
    assert abs(part_vhd - total_vhd) <= 1e-9 * max(total_vhd, 1.0)
    ok(6, "trip-flow conservation and VMT partition additivity")


def test_criterion_07_classification_and_index_oracles():
    network, parcels, expected = hand_labeled_fixture()
    got = classify_network(network, parcels)
    mismatches = {row: (label, want) for row, (label, want) in enumerate(zip(got, expected))
                  if label is not want}
    assert not mismatches, mismatches

    # 1,000 random boxes joined with 1,000 query boxes vs brute force
    rng = np.random.default_rng(77)
    items = []
    for _ in range(1000):
        x, y = rng.uniform(0.0, 10_000.0, 2)
        w, h = rng.uniform(1.0, 400.0, 2)
        items.append((x, y, x + w, y + h))
    boxes = []
    for _ in range(1000):
        x, y = rng.uniform(-200.0, 10_200.0, 2)
        w, h = rng.uniform(1.0, 800.0, 2)
        boxes.append((x, y, x + w, y + h))
    k, j = _candidates(boxes, items)
    brute = [(q, i) for q, box in enumerate(boxes) for i, b in enumerate(items)
             if geo_reference.bboxes_overlap(b, box)]
    assert list(zip(k.tolist(), j.tolist())) == brute

    # radius queries through the box join equal the scalar scan
    net = corridor_network(900.0)
    for _ in range(200):
        pt = (float(rng.uniform(-500.0, 7000.0)), float(rng.uniform(-500.0, 2500.0)))
        radius = float(rng.uniform(10.0, 800.0))
        want = geo_reference.links_within_radius(pt, radius, net)
        assert net.link_ids[links_within_radii([pt], radius, net)[0]].tolist() == want
    ok(7, "hand-labeled typology and index-vs-scan equality")


def test_criterion_08_school_exposure_boundaries():
    adts = [24_999.0, 25_000.0, 50_000.0, 50_001.0]
    nodes, links = [], []
    for i in range(len(adts)):
        a = Node(2 * i + 1, 0.0, 10_000.0 * i)
        b = Node(2 * i + 2, M, 10_000.0 * i)
        nodes.extend([a, b])
        links.append(straight_link(i + 1, a, b, 30.0, 600.0, 5, 2))
    net = fixtures.network(nodes, links)
    # one 3600 s interval makes each link's ADT equal its flow
    stats = LinkDailyStats(net, flow_table(np.array([adts]), net.free_flow_h[None, :]), 3600.0)
    schools = fixtures.school_table([School(i + 1, M / 2.0, 10_000.0 * i, 50.0)
                                     for i in range(len(adts))])
    exposures = school_exposure(stats, schools, school_buffers(net, schools))
    levels = exposures.level  # by school row: schools 1 to 4
    assert levels[0] is ExposureLevel.NONE     # 24,999
    assert levels[1] is ExposureLevel.MEDIUM   # 25,000
    assert levels[2] is ExposureLevel.MEDIUM   # 50,000
    assert levels[3] is ExposureLevel.HIGH     # 50,001
    ok(8, "exposure thresholds at 24,999 / 25,000 / 50,000 / 50,001")


def test_criterion_09_pipeline_determinism(tmp_path):
    cfg = town_scenario(tmp_path / "city")
    assert main(["run", "--config", cfg]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "rerun")]) == 0
    par = town_scenario(tmp_path / "city_par", config_overrides={"workers": 3})
    assert main(["run", "--config", par]) == 0

    first = tmp_path / "city" / "out"
    names = sorted(p.name for p in first.iterdir())
    assert any(n.endswith(".svg") for n in names)
    for other in (tmp_path / "rerun", tmp_path / "city_par" / "out"):
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            assert (other / name).read_bytes() == (first / name).read_bytes(), name
    ok(9, "byte-identical outputs across reruns and worker counts")


def test_criterion_10_desk_scale_performance():
    net = perf_network()
    trips = perf_trips()
    assert net.n_links == 10_000
    assert trips.trip_id.size == 100_000
    cfg = SolverConfig()
    assert cfg.n_intervals == 96

    t0 = time.perf_counter()
    for obj in (Objective.UET, Objective.SOT, Objective.SOF):
        result = run_day(net, trips, obj, cfg)
        counts = fixtures.counts(result)
        assert sum(counts.values()) == 100_000
        assert counts["failed"] == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f} s"
    ok(10, f"three objectives over the day in {elapsed:.0f} s")
