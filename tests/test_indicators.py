import math

import numpy as np
import pytest

from flowscore.costs import link_fuel, spf_accidents
from flowscore.geo import Tract
from flowscore.indicators import (
    INDICATOR_META,
    INDICATOR_NAMES,
    ExposureLevel,
    IndicatorReport,
    IndicatorValue,
    LinkDailyStats,
    School,
    SchoolExposure,
    build_report,
    congested_miles,
    daily_stats,
    equity_shares,
    filtered_vmt_vhd,
    highway_accidents,
    link_tract_ids,
    load_schools,
    minority_exposure_share,
    school_exposure,
    street_type_mask,
)
from flowscore.network import Network, Node
from flowscore.qdta import FlowState, Objective, TripTable
from flowscore.typology import StreetType

from fixtures import M, assignment_of, square, straight_link, write_schools_csv


def isolated_links_network(specs):
    """One horizontal link per spec row, rows 10 km apart so 250 m buffers
    never reach a neighbour.  specs: (link_id, length_miles, speed, cap,
    fclass, lanes)."""
    nodes = []
    links = []
    for row, (lid, length, speed, cap, fclass, lanes) in enumerate(specs):
        y = 10_000.0 * row
        a = Node(1000 + 2 * row, 0.0, y)
        b = Node(1001 + 2 * row, length * M, y)
        nodes.extend([a, b])
        links.append(straight_link(lid, a, b, speed, cap, fclass, lanes))
    return Network(nodes, links)


def dense_rows(flows, times):
    """One (links, flow_vph, time_h) row per interval that lists every link."""
    links = np.arange(flows.shape[1])
    return [(links, flow, time_h) for flow, time_h in zip(flows, times, strict=True)]


def sparse_rows(flows, times):
    """One row per interval that lists only the links whose flow is not zero by its bits."""
    rows = []
    for flow, time_h in zip(flows, times, strict=True):
        links = np.flatnonzero(flow.view(np.int64))
        rows.append((links, flow[links], time_h[links]))
    return rows


def make_stats(network, flows_vph, times_h=None, interval_s=900.0):
    flows = np.asarray(flows_vph, dtype=float)
    if times_h is None:
        times_h = np.broadcast_to(network.free_flow_h, flows.shape).copy()
    return LinkDailyStats(network, dense_rows(flows, np.asarray(times_h, dtype=float)),
                          interval_s)


def free_flow_state(network, flow_vph, entered=None):
    times = network.free_flow_h.copy()
    return FlowState(
        objective=Objective.UET,
        flow_vph=np.asarray(flow_vph, dtype=float),
        time_h=times,
        speed_mph=network.length_miles / times,
        cost=times.copy(),
        converged=True,
        gap=0.0,
        iterations=1,
        log=[(0.0, 0.0)],
        entered=entered,
    )


def test_adt_vmt_hand_arithmetic():
    net = isolated_links_network([(1, 2.0, 40.0, 800.0, 3, 2)])
    stats = make_stats(net, [[400.0]], interval_s=900.0)
    assert stats.adt[0] == pytest.approx(100.0)
    assert stats.vmt[0] == pytest.approx(200.0)
    assert stats.vhd[0] == pytest.approx(0.0)


def test_vhd_hand_arithmetic():
    # c0 = 0.05 h (2.5 mi at 50 mph); doubled travel time at 400 veh/h for
    # one 900 s interval puts 100 vehicles each losing 0.05 h.
    net = isolated_links_network([(1, 2.5, 50.0, 800.0, 3, 2)])
    assert net.free_flow_h[0] == pytest.approx(0.05)
    stats = make_stats(net, [[400.0]], times_h=[[0.10]], interval_s=900.0)
    assert stats.vhd[0] == pytest.approx(5.0)
    assert stats.adt[0] == pytest.approx(100.0)


def test_adt_is_interval_sum():
    rng = np.random.default_rng(5)
    net = isolated_links_network(
        [(i, 0.5 + 0.25 * i, 30.0, 600.0, 4, 2) for i in range(1, 6)]
    )
    flows = rng.uniform(0.0, 2000.0, size=(96, 5))
    stats = make_stats(net, flows)
    expect_adt = flows.sum(axis=0) * 0.25
    assert np.allclose(stats.adt, expect_adt, rtol=1e-12)
    assert np.allclose(stats.vmt, expect_adt * net.length_miles, rtol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_link_daily_stats_equal_the_stacked_sums(seed):
    # the stats add one interval at a time, from rows that list every link
    # or only the loaded ones; on two or more links that must give the
    # bytes of the stacked (interval x link) formulas
    rng = np.random.default_rng(seed)
    n_links = int(rng.integers(2, 40))
    net = isolated_links_network([(i + 1, float(rng.uniform(0.05, 3.0)),
                                   float(rng.uniform(20.0, 70.0)), 900.0, 4, 2)
                                  for i in range(n_links)])
    interval_s = float(rng.choice([900.0, 1800.0, 3600.0]))
    shape = (int(86_400 / interval_s), n_links)
    flows = rng.uniform(0.0, 3000.0, shape) * (rng.random(shape) < 0.7)
    flows[rng.random(shape[0]) < 0.3] = 0.0  # intervals without traffic
    flows[:, 0] = -0.0  # a link without traffic all day: the sums start from +0.0
    times = net.free_flow_h * (1.0 + rng.exponential(0.5, shape))
    veh = flows * (interval_s / 3600.0)
    adt = veh.sum(axis=0)
    window = (25_200.0, 32_400.0)
    k = np.arange(shape[0])
    sel = (k * interval_s < window[1]) & ((k + 1) * interval_s > window[0])
    want = {
        "adt": adt,
        "vmt": adt * net.length_miles,
        "vhd": (veh * (times - net.free_flow_h)).sum(axis=0),
        "window_vmt": (flows[sel].sum(axis=0) * (interval_s / 3600.0)) * net.length_miles,
    }
    for rows in (dense_rows(flows, times), iter(sparse_rows(flows, times))):
        stats = LinkDailyStats(net, rows, interval_s)
        got = {"adt": stats.adt, "vmt": stats.vmt, "vhd": stats.vhd,
               "window_vmt": stats.window_vmt(window)}
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        congested = (flows[sel] / net.capacity_vph >= 1.0).any(axis=0)
        assert congested_miles(stats, window) == float(net.length_miles[congested].sum())


def test_all_zero_flows_give_zero_stats():
    net = isolated_links_network([(1, 1.0, 30.0, 600.0, 5, 2), (2, 2.0, 30.0, 600.0, 5, 2)])
    stats = make_stats(net, np.zeros((96, 2)))
    assert stats.adt.sum() == 0.0
    assert stats.vmt.sum() == 0.0
    assert stats.vhd.sum() == 0.0
    assert congested_miles(stats) == 0.0


def test_intervals_overlapping_edges():
    net = isolated_links_network([(1, 1.0, 30.0, 600.0, 5, 2)])
    stats = make_stats(net, np.zeros((96, 1)))
    sel = stats.intervals_overlapping((25200.0, 32400.0))
    assert list(np.nonzero(sel)[0]) == list(range(28, 36))
    # window boundaries that coincide with interval edges exclude the
    # intervals that merely touch
    sel = stats.intervals_overlapping((900.0, 1800.0))
    assert list(np.nonzero(sel)[0]) == [1]
    sel = stats.intervals_overlapping((90000.0, 95000.0))
    assert not sel.any()


def test_partition_additivity_over_street_types():
    rng = np.random.default_rng(11)
    all_types = list(StreetType)
    specs = [(i, 0.3 + 0.1 * i, 35.0, 700.0, 3, 2) for i in range(1, 25)]
    net = isolated_links_network(specs)
    types = {lid: all_types[rng.integers(0, len(all_types))] for lid, *_ in specs}
    flows = rng.uniform(0.0, 1500.0, size=(96, 24))
    times = net.free_flow_h * rng.uniform(1.0, 3.0, size=(96, 24))
    stats = make_stats(net, flows, times)
    total_vmt, total_vhd = filtered_vmt_vhd(stats, np.ones(24, dtype=bool))
    part_vmt = 0.0
    part_vhd = 0.0
    for st in all_types:
        v, h = filtered_vmt_vhd(stats, street_type_mask(net, types, st))
        part_vmt += v
        part_vhd += h
    assert abs(part_vmt - total_vmt) <= 1e-9 * total_vmt
    assert abs(part_vhd - total_vhd) <= 1e-9 * max(total_vhd, 1.0)
    none_mask = street_type_mask(net, {lid: StreetType.OTHERS for lid, *_ in specs},
                                 StreetType.PSP)
    assert filtered_vmt_vhd(stats, none_mask) == (0.0, 0.0)


def test_congested_miles_window_and_threshold():
    specs = [
        (1, 1.0, 30.0, 600.0, 5, 2),   # v/c exactly 1.0 inside the window
        (2, 0.5, 30.0, 600.0, 5, 2),   # v/c 1.2 inside the window
        (3, 0.7, 30.0, 600.0, 5, 2),   # congested only at midday
        (4, 2.0, 30.0, 600.0, 5, 2),   # v/c 0.99 everywhere
    ]
    net = isolated_links_network(specs)
    flows = np.zeros((96, 4))
    flows[:, 3] = 0.99 * 600.0
    flows[28, 0] = 600.0
    flows[30, 1] = 720.0
    flows[50, 2] = 900.0
    stats = make_stats(net, flows)
    assert congested_miles(stats, (25200.0, 32400.0)) == pytest.approx(1.5)
    assert congested_miles(stats, (45000.0, 45900.0)) == pytest.approx(0.7)


def trip_table(*rows):
    """A TripTable of (trip_id, status, distance, time_h, free_flow_h, fuel)
    rows, each trip on link 1 from 07:00."""
    ids, status, distance, time_h, free_flow_h, fuel = (np.array(c) for c in zip(*rows))
    n = len(rows)
    return TripTable(ids, status.astype(object), np.full(n, 25200.0), 25200.0 + time_h * 3600.0,
                     distance, time_h, free_flow_h, fuel, np.arange(n + 1),
                     np.ones(n, dtype=np.int64))


def exposure_fixture(adts):
    """One link per requested ADT with a school at its midpoint; a single
    3600 s interval makes flow_vph equal ADT exactly."""
    specs = [(i + 1, 1.0, 30.0, 600.0, 5, 2) for i in range(len(adts))]
    net = isolated_links_network(specs)
    flows = np.array([list(adts)], dtype=float)
    stats = make_stats(net, flows, interval_s=3600.0)
    schools = [
        School(i + 1, M / 2.0, 10_000.0 * i, 50.0) for i in range(len(adts))
    ]
    return net, stats, schools


def test_school_exposure_threshold_boundaries():
    net, stats, schools = exposure_fixture([24_999.0, 25_000.0, 50_000.0, 50_001.0])
    out = school_exposure(stats, schools)
    assert out[1].level is ExposureLevel.NONE
    assert out[2].level is ExposureLevel.MEDIUM
    assert out[3].level is ExposureLevel.MEDIUM
    assert out[4].level is ExposureLevel.HIGH
    assert out[4].link_ids == (4,)


def test_school_exposure_outside_buffer_is_none():
    net, stats, _ = exposure_fixture([60_000.0])
    far = School(9, M / 2.0, 300.0, 90.0)
    out = school_exposure(stats, [far])
    assert out[9].level is ExposureLevel.NONE
    assert out[9].link_ids == ()
    assert out[9].buffer_vmt_morning == 0.0


def test_school_exposure_morning_vmt():
    net = isolated_links_network([(1, 1.0, 30.0, 600.0, 5, 2)])
    flows = np.full((96, 1), 40.0)
    flows[28:32, 0] = 1000.0  # 07:00-08:00
    stats = make_stats(net, flows)
    school = School(1, M / 2.0, 0.0, 50.0)
    out = school_exposure(stats, [school], morning_s=(25200.0, 28800.0))
    assert out[1].buffer_vmt_morning == pytest.approx(1000.0)


def test_window_vmt_computed_once_per_window():
    net = isolated_links_network([(1, 1.0, 30.0, 600.0, 5, 2), (2, 2.5, 30.0, 600.0, 5, 2)])
    flows = np.random.default_rng(3).uniform(0.0, 900.0, size=(96, 2))
    stats = make_stats(net, flows)
    window = (25200.0, 28800.0)
    vmt = stats.window_vmt(window)
    sel = stats.intervals_overlapping(window)
    assert np.array_equal(vmt, (flows[sel].sum(axis=0) * stats.interval_h) * net.length_miles)
    assert stats.window_vmt(list(window)) is vmt and not vmt.flags.writeable
    assert not np.array_equal(stats.window_vmt((0.0, 3600.0)), vmt)


def test_school_exposure_monotone_in_flow():
    rng = np.random.default_rng(7)
    specs = [(i, 1.0, 30.0, 600.0, 5, 2) for i in range(1, 7)]
    net = isolated_links_network(specs)
    schools = [School(i, M / 2.0, 10_000.0 * (i - 1), 50.0) for i in range(1, 7)]
    rank = {ExposureLevel.NONE: 0, ExposureLevel.MEDIUM: 1, ExposureLevel.HIGH: 2}
    for _ in range(50):
        flows = rng.uniform(0.0, 15_000.0, size=(24, 6))
        stats = make_stats(net, flows, interval_s=3600.0)
        before = school_exposure(stats, schools)
        bumped = flows.copy()
        j = int(rng.integers(0, 6))
        bumped[:, j] += rng.uniform(0.0, 30_000.0)
        after = school_exposure(make_stats(net, bumped, interval_s=3600.0), schools)
        for sid in before:
            assert rank[after[sid].level] >= rank[before[sid].level]


def test_minority_share_over_exposed_schools():
    schools = [School(1, 0, 0, 80.0), School(2, 0, 0, 10.0), School(3, 0, 0, 75.0)]

    def exp(sid, level):
        return SchoolExposure(sid, level, 0.0, ())

    two_exposed = {1: exp(1, ExposureLevel.HIGH), 2: exp(2, ExposureLevel.MEDIUM),
                   3: exp(3, ExposureLevel.NONE)}
    assert minority_exposure_share(two_exposed, schools) == pytest.approx(50.0)
    # pct_minority exactly at the 75 cutoff counts
    all_minority = {1: exp(1, ExposureLevel.HIGH), 3: exp(3, ExposureLevel.MEDIUM)}
    assert minority_exposure_share(all_minority, schools) == pytest.approx(100.0)
    nobody = {1: exp(1, ExposureLevel.NONE)}
    assert minority_exposure_share(nobody, schools) is None


def test_equity_shares_population_and_vmt():
    specs = [(1, 1.0, 30.0, 600.0, 5, 2), (2, 1.0, 30.0, 600.0, 5, 2),
             (3, 1.0, 30.0, 600.0, 5, 2)]
    net = isolated_links_network(specs)
    tracts = [
        Tract(1, square(0.0, 0.0, 50_000.0), 3200.0, True),
        Tract(2, square(200_000.0, 0.0, 50_000.0), 6800.0, False),
    ]
    # link 1 in the COC tract carries 400 of 1000 daily VMT
    flows = np.array([[400.0, 300.0, 300.0]])
    stats = make_stats(net, flows, interval_s=3600.0)
    shares = equity_shares(stats, tracts, tract_of_link=[1, 2, 2])
    assert shares.coc_vmt == pytest.approx(400.0)
    assert shares.coc_vhd == 0.0


def test_equity_shares_degenerate_cases():
    net = isolated_links_network([(1, 1.0, 30.0, 600.0, 5, 2)])
    stats = make_stats(net, np.zeros((4, 1)))
    no_coc = [Tract(1, square(0.0, 0.0, 5000.0), 100.0, False)]
    shares = equity_shares(stats, no_coc, tract_of_link=[1])
    assert (shares.coc_vmt, shares.coc_vhd) == (0.0, 0.0)

    all_coc = [Tract(1, square(0.0, 0.0, 5000.0), 100.0, True)]
    busy = make_stats(net, np.full((4, 1), 500.0))
    shares = equity_shares(busy, all_coc, tract_of_link=[1])
    assert shares.coc_vmt == pytest.approx(float(busy.vmt.sum()))


def test_equity_shares_resolves_tracts_geometrically():
    net = isolated_links_network([(1, 1.0, 30.0, 600.0, 5, 2),
                                  (2, 1.0, 30.0, 600.0, 5, 2)])
    # tract 1 encloses link 1's midpoint; link 2 (10 km north) is offshore
    tracts = [Tract(1, square(M / 2.0, 0.0, 2000.0), 1000.0, True)]
    stats = make_stats(net, np.array([[100.0, 100.0]]), interval_s=3600.0)
    shares = equity_shares(stats, tracts, link_tract_ids(net, tracts))
    assert shares.coc_vmt == pytest.approx(100.0)


def test_highway_accidents_sums_spf_over_highways():
    specs = [(1, 1.0, 65.0, 2000.0, 1, 4), (2, 1.0, 65.0, 2000.0, 1, 4),
             (3, 1.0, 30.0, 600.0, 5, 2)]
    net = isolated_links_network(specs)
    stats = make_stats(net, np.array([[10_000.0, 10_000.0, 10_000.0]]),
                       interval_s=3600.0)
    types = {1: StreetType.HIGHWAY, 2: StreetType.HIGHWAY,
             3: StreetType.NEIGHBORHOOD_RESIDENTIAL}
    total = highway_accidents(stats, types)
    one = spf_accidents(4, 1.0, 10_000.0)
    assert total == pytest.approx(2.0 * one, rel=1e-12)
    assert one == pytest.approx(5.886, abs=1e-3)
    no_highway = {1: StreetType.OTHERS, 2: StreetType.OTHERS,
                  3: StreetType.NEIGHBORHOOD_RESIDENTIAL}
    assert highway_accidents(stats, no_highway) == 0.0


def report_fixture():
    """Four-link town with two schools sharing a buffered link, one school
    out of reach, one COC tract, and a congested morning on link 1."""
    n1, n2 = Node(1, 0.0, 0.0), Node(2, M, 0.0)
    n3, n4 = Node(3, M + 100.0, 0.0), Node(4, M + 100.0 + 0.5 * M, 0.0)
    n5, n6 = Node(5, 0.0, 20_000.0), Node(6, M, 20_000.0)
    n7, n8 = Node(7, 0.0, 40_000.0), Node(8, 0.8 * M, 40_000.0)
    links = [
        straight_link(1, n1, n2, 30.0, 600.0, 5, 2),
        straight_link(2, n3, n4, 30.0, 600.0, 5, 2),
        straight_link(3, n5, n6, 65.0, 2000.0, 1, 4),
        straight_link(4, n7, n8, 45.0, 900.0, 4, 2),
    ]
    net = Network([n1, n2, n3, n4, n5, n6, n7, n8], links)
    types = {1: StreetType.NEIGHBORHOOD_RESIDENTIAL,
             2: StreetType.NEIGHBORHOOD_RESIDENTIAL,
             3: StreetType.HIGHWAY,
             4: StreetType.COMMERCIAL_THROUGHWAY}
    schools = [
        School(1, M / 2.0, 0.0, 80.0),          # buffers link 1
        School(2, M + 50.0, 10.0, 10.0),        # buffers links 1 and 2
        School(3, 0.0, 60_000.0, 90.0),         # nothing within 250 m
    ]
    tracts = [
        Tract(1, square(M / 2.0, 0.0, 3000.0), 3200.0, True),
        Tract(2, square(M / 2.0, 30_000.0, 15_000.0), 6800.0, False),
    ]
    rng = np.random.default_rng(23)
    flows = rng.uniform(50.0, 400.0, size=(40, 4))
    flows[:, 0] = 3000.0  # ADT 30,000 (medium band) and v/c > 1 all morning
    flows[28:32, 1] = 30_000.0  # lifts link 2's ADT into the medium band too
    times = net.free_flow_h * rng.uniform(1.0, 1.8, size=(40, 4))
    states = [
        FlowState(Objective.UET, flows[k], times[k],
                  net.length_miles / times[k], times[k].copy(),
                  True, 0.0, 1, [(0.0, 0.0)])
        for k in range(40)
    ]
    trips = trip_table(
        (1, "completed", 1.0, 1.0 / 30.0, 1.0 / 30.0, link_fuel(1.0, 30.0)),
        (2, "completed", 3.0, 0.15, 0.10, 0.25),
        (3, "forced", 5.0, 0.9, 0.4, 0.60),
        (4, "failed", 0.0, 0.0, 0.0, 0.0),
    )
    assignment = assignment_of(net, states, trips)
    return assignment, types, schools, tracts


def report_of(assignment, types, schools, tracts, trips=None):
    """build_report on the fixture's day, as the command line scores it."""
    stats = daily_stats(assignment)
    exposures = school_exposure(stats, schools)
    if trips is None:
        trips = assignment.trips
    return build_report(stats, exposures, trips, types, schools, tracts, [1, 2, 2, 2])


def test_build_report_rows_match_single_ops():
    assignment, types, schools, tracts = report_fixture()
    tract_of = [1, 2, 2, 2]
    stats = daily_stats(assignment)
    report = build_report(stats, school_exposure(stats, schools), assignment.trips,
                          types, schools, tracts, tract_of)
    net = assignment.network

    nr_vmt, nr_vhd = filtered_vmt_vhd(
        stats, street_type_mask(net, types, StreetType.NEIGHBORHOOD_RESIDENTIAL))
    assert report.by_name("VMT on neighborhood residential streets") == pytest.approx(nr_vmt)
    assert report.by_name("VHD on neighborhood residential streets") == pytest.approx(nr_vhd)

    exposures = school_exposure(stats, schools)
    assert exposures[1].link_ids == (1,)
    assert exposures[2].link_ids == (1, 2)
    assert exposures[3].link_ids == ()
    n_exposed = sum(1 for e in exposures.values() if e.level is not ExposureLevel.NONE)
    assert report.by_name("Schools near high and medium traffic streets") == float(n_exposed)
    assert n_exposed == 2

    # union of buffered links {1, 2}: shared link 1 is counted once
    sel = stats.intervals_overlapping((25200.0, 28800.0))
    flows = np.stack([fs.flow_vph for fs in assignment.flow_states])
    union_vmt = float(
        ((flows[sel].sum(axis=0) * stats.interval_h) * net.length_miles)[:2].sum()
    )
    assert report.by_name("VMT near schools in morning hours") == pytest.approx(union_vmt)
    per_school = exposures[1].buffer_vmt_morning + exposures[2].buffer_vmt_morning
    assert union_vmt < per_school

    assert report.by_name("Estimated highway accidents per year") == pytest.approx(
        highway_accidents(stats, types))
    total_vmt, total_vhd = filtered_vmt_vhd(stats, np.ones(4, dtype=bool))
    assert report.by_name("VMT") == pytest.approx(total_vmt)
    assert report.by_name("VHD") == pytest.approx(total_vhd)
    assert report.by_name("Congested network miles in morning") == pytest.approx(
        congested_miles(stats))

    # averages over the two completed trips; total fuel counts every trip
    assert report.by_name("Average trip length") == pytest.approx(2.0)
    assert report.by_name("Average trip delay") == pytest.approx(0.05 * 60.0 / 2)
    fuel = link_fuel(1.0, 30.0)
    assert report.by_name("Total fuel consumption") == pytest.approx(fuel + 0.25 + 0.60)
    assert report.by_name("Average trip fuel consumption") == pytest.approx((fuel + 0.25) / 2)

    # exposed schools are ids 1 (80% minority) and 2 (10%)
    assert report.by_name(
        "Minority schools near high and medium traffic streets") == pytest.approx(50.0)

    shares = equity_shares(stats, tracts, tract_of)
    assert report.by_name("VMT in communities of concern") == pytest.approx(shares.coc_vmt)
    assert report.by_name("VHD in communities of concern") == pytest.approx(shares.coc_vhd)

    assert tuple((v.theme, v.name, v.unit) for v in report.values) == INDICATOR_META


def test_build_report_is_deterministic():
    assignment, types, schools, tracts = report_fixture()
    assert report_of(assignment, types, schools, tracts) == report_of(
        assignment, types, schools, tracts)


def test_build_report_trip_means_and_totals():
    assignment, types, schools, tracts = report_fixture()
    trips = trip_table(
        (1, "completed", 4.0, 0.20, 0.15, 0.30),
        (2, "completed", 6.0, 0.30, 0.30, 0.42),
        (3, "forced", 9.0, 1.00, 0.50, 0.80),
        (4, "failed", 0.0, 0.0, 0.0, 0.0),
    )
    report = report_of(assignment, types, schools, tracts, trips)
    assert report.by_name("Average trip length") == pytest.approx(5.0)
    # delays: 0.05 h and 0 h over two completed trips
    assert report.by_name("Average trip delay") == pytest.approx(1.5)
    assert report.by_name("Average trip fuel consumption") == pytest.approx(0.36)
    assert report.by_name("Total fuel consumption") == pytest.approx(0.30 + 0.42 + 0.80)


def test_build_report_free_flow_trip_has_zero_delay():
    assignment, types, schools, tracts = report_fixture()
    trips = trip_table((1, "completed", 2.0, 0.08, 0.08, 0.1))
    assert report_of(assignment, types, schools, tracts, trips).by_name(
        "Average trip delay") == 0.0


def test_build_report_without_completed_trips():
    assignment, types, schools, tracts = report_fixture()
    trips = trip_table((1, "forced", 5.0, 0.9, 0.4, 2.5), (2, "failed", 0.0, 0.0, 0.0, 0.0))
    report = report_of(assignment, types, schools, tracts, trips)
    assert report.by_name("Average trip length") is None
    assert report.by_name("Average trip delay") is None
    assert report.by_name("Average trip fuel consumption") is None
    assert report.by_name("Total fuel consumption") == pytest.approx(2.5)


def test_trip_stats_requires_a_completed_trip():
    assignment, types, schools, tracts = report_fixture()
    forced = (1, "forced", 3.0, 0.5, 0.2, 0.4)
    report = report_of(assignment, types, schools, tracts, trip_table(forced))
    assert report.by_name("Average trip length") is None
    # one completed trip alone sets the averages; the forced trip adds only fuel
    trips = trip_table(forced, (2, "completed", 2.0, 0.1, 0.05, 0.3))
    report = report_of(assignment, types, schools, tracts, trips)
    assert report.by_name("Average trip length") == pytest.approx(2.0)
    assert report.by_name("Average trip delay") == pytest.approx(3.0)
    assert report.by_name("Average trip fuel consumption") == pytest.approx(0.3)
    assert report.by_name("Total fuel consumption") == pytest.approx(0.7)


def test_build_report_clamps_negative_average_delay():
    assignment, types, schools, tracts = report_fixture()
    trips = trip_table((1, "completed", 1.0, 0.0332, 1.0 / 30.0, 0.07))
    report = report_of(assignment, types, schools, tracts, trips)
    assert report.by_name("Average trip delay") == 0.0


def test_report_validation_rejects_bad_rows():
    assignment, types, schools, tracts = report_fixture()
    good = report_of(assignment, types, schools, tracts)
    rows = list(good.values)
    rows[0], rows[1] = rows[1], rows[0]
    with pytest.raises(ValueError, match="out of order"):
        IndicatorReport(tuple(rows))

    rows = list(good.values)
    rows[5] = IndicatorValue(rows[5].theme, rows[5].name, rows[5].unit, -1.0)
    with pytest.raises(ValueError, match="bad value"):
        IndicatorReport(tuple(rows))

    rows = list(good.values)
    rows[6] = IndicatorValue(rows[6].theme, rows[6].name, rows[6].unit, math.nan)
    with pytest.raises(ValueError, match="bad value"):
        IndicatorReport(tuple(rows))

    with pytest.raises(KeyError):
        good.by_name("not an indicator")


def test_indicator_meta_shape():
    assert len(INDICATOR_META) == 15
    assert len(set(INDICATOR_NAMES)) == 15
    themes = [theme for theme, _, _ in INDICATOR_META]
    assert set(themes) == {"Neighborhood", "Safety", "Mobility", "Equity", "Environment"}


def test_school_loader_round_trip(tmp_path):
    schools = [School(1, 100.0, 200.0, 0.0), School(2, -5.5, 3.25, 100.0)]
    path = tmp_path / "schools.csv"
    write_schools_csv(path, schools)
    assert load_schools(str(path)) == schools
    with pytest.raises(ValueError, match="pct_minority"):
        School(1, 0.0, 0.0, -1.0)
