"""Spatial joins, and the box join under them, against brute-force scans.

The reference scans in geo_reference visit every parcel, tract or link
with the scalar geometry functions. Random cities come from hypothesis-drawn seeds, derandomized,
so every run checks the same cases.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowscore import geo, indicators
from flowscore.geo import Tract
from flowscore.network import Link, Network, Node
from flowscore.typology import (
    LandUse,
    Parcel,
    StreetType,
    classify_network,
    classify_street,
    dominant_land_use,
    transport_context,
)

import geo_reference
from fixtures import square

BUFFER = 20.0
# on the buffer, and one ulp either side of it
EDGE_GAPS = (BUFFER, math.nextafter(BUFFER, 0.0), math.nextafter(BUFFER, math.inf))
USES = tuple(LandUse)

cases = settings(max_examples=25, deadline=None, derandomize=True)


def street_network(rng, n_links):
    """Neighborhood streets: straight horizontal ones on integer rows, and
    bent polylines in any direction."""
    nodes, links = [], []
    for k in range(n_links):
        x0, y0 = float(rng.integers(0, 500)), float(rng.integers(0, 500))
        if k % 2 == 0:
            geometry = ((x0, y0), (x0 + float(rng.integers(20, 200)), y0))
        else:
            pts = [(x0, y0)]
            for _ in range(int(rng.integers(1, 4))):
                angle, step = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(10.0, 150.0)
                x, y = pts[-1]
                pts.append((x + step * math.cos(angle), y + step * math.sin(angle)))
            geometry = tuple(pts)
        a = Node(2 * k + 1, *geometry[0])
        b = Node(2 * k + 2, *geometry[-1])
        nodes += [a, b]
        length = geo.polyline_length(geometry) / 1609.344
        links.append(Link(k + 1, a.id, b.id, length, 25.0, 800.0, 5, 2, geometry))
    return Network(nodes, links)


def integer_boxes(rng, n, lo, hi):
    """Boxes on integer corners, so many share edges and corners; about a
    third of them are points."""
    corner = rng.integers(lo, hi, (n, 2))
    size = rng.integers(0, 6, (n, 2)) * (rng.random((n, 1)) < 0.7)
    return np.hstack([corner, corner + size]).astype(float).tolist()


@cases
@given(seed=st.integers(0, 2**32 - 1), n_boxes=st.integers(0, 40), n_items=st.integers(0, 40))
def test_candidates_match_brute_force(seed, n_boxes, n_items):
    rng = np.random.default_rng(seed)
    items = integer_boxes(rng, n_items, 0, 20)
    # boxes reach beyond the items' extent on every side, and some lie far off
    boxes = integer_boxes(rng, n_boxes, -10, 30) + [(-1e6, -1e6, -1e6, -1e6), (-1e6, 5.0, 1e6, 5.0)]
    k, j = geo._candidates(boxes, items)
    brute = [(a, b) for a, box in enumerate(boxes) for b, item in enumerate(items)
             if geo_reference.bboxes_overlap(item, box)]
    assert list(zip(k.tolist(), j.tolist())) == brute


def regular_polygon(rng, cx, cy):
    n = int(rng.integers(3, 8))
    radius = rng.uniform(3.0, 40.0)
    turn = rng.uniform(0.0, 2.0 * math.pi)
    return tuple(
        (cx + radius * math.cos(turn + 2.0 * math.pi * i / n),
         cy + radius * math.sin(turn + 2.0 * math.pi * i / n))
        for i in range(n)
    )


def random_parcels(rng, network, n_random):
    """Scattered polygons, squares at exactly the buffer gap from straight
    streets, and copies with identical bboxes; ids unique, order shuffled."""
    polygons = [regular_polygon(rng, *rng.uniform(-50.0, 650.0, 2)) for _ in range(n_random)]
    for link in network.links[::2]:
        (x0, y), (x1, _) = link.geometry
        gap = EDGE_GAPS[int(rng.integers(len(EDGE_GAPS)))]
        half = float(rng.integers(5, 30))
        cx = float(rng.uniform(x0 - half, x1 + half))
        polygons.append(((cx - half, y - gap - 2 * half), (cx + half, y - gap - 2 * half),
                         (cx + half, y - gap), (cx - half, y - gap)))
    polygons += polygons[: len(polygons) // 4]  # same bbox and area as the original
    ids = rng.permutation(10 * len(polygons))[: len(polygons)] + 1
    parcels = [
        Parcel(int(pid), poly, USES[int(rng.integers(len(USES)))])
        for pid, poly in zip(ids, polygons)
    ]
    return [parcels[i] for i in rng.permutation(len(parcels))]


@cases
@given(seed=st.integers(0, 2**32 - 1), n_links=st.integers(1, 20), n_random=st.integers(0, 40))
def test_classify_network_matches_scans(seed, n_links, n_random):
    rng = np.random.default_rng(seed)
    network = street_network(rng, n_links)
    parcels = random_parcels(rng, network, n_random)
    got = classify_network(network, parcels, BUFFER)
    for link in network.links:
        use = dominant_land_use(link, parcels, BUFFER)
        assert geo_reference.dominant_land_use(link, parcels, BUFFER) is use
        assert got[link.id] is classify_street(transport_context(link), use)
    reordered = [parcels[i] for i in rng.permutation(len(parcels))]
    assert classify_network(network, reordered, BUFFER) == got


@cases
@given(seed=st.integers(0, 2**32 - 1), buffer_m=st.sampled_from((0.0, BUFFER, 35.5)))
def test_polygon_polyline_within_matches_scalar_distance(seed, buffer_m):
    rng = np.random.default_rng(seed)
    network = street_network(rng, 8)
    parcels = random_parcels(rng, network, 15)
    pairs = [(p.polygon, link.geometry) for p in parcels for link in network.links]
    # a closed ring and a one-point polyline exercise the edge cases of both shapes
    pairs.append((parcels[0].polygon + parcels[0].polygon[:1], network.links[0].geometry))
    pairs.append((parcels[0].polygon, network.links[0].geometry[:1]))
    got = geo.polygon_polyline_within([g for g, _ in pairs], [line for _, line in pairs], buffer_m)
    want = [geo_reference.polygon_polyline_distance(g, line) <= buffer_m for g, line in pairs]
    assert got.tolist() == want


def test_within_uses_the_scalar_distance_at_the_radius():
    # np.hypot rounds these components one ulp above math.hypot on common
    # libms; the nearest points are a triangle's apex at the origin and the
    # polyline's first vertex, so the distance is hypot(x, y) exactly
    x, y = 28.263393315194936, 13.220327407835743
    triangle = ((0.0, 0.0), (-1.0, -3.0), (-3.0, -1.0))
    line = ((x, y), (2.0 * x, 2.0 * y))
    d = geo_reference.polygon_polyline_distance(triangle, line)
    assert d == math.hypot(x, y)
    for radius in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
        got = geo.polygon_polyline_within([triangle], [line], radius)
        assert got.tolist() == [d <= radius]


# a point whose distance from the origin np.hypot rounds one ulp above
# math.hypot on common libms (see the test above), and that distance
PROBE = (28.263393315194936, 13.220327407835743)
PROBE_D = math.hypot(*PROBE)
RADII = (0.0, BUFFER, 35.5, PROBE_D, math.nextafter(PROBE_D, 0.0),
         math.nextafter(PROBE_D, math.inf))


def around(v):
    return (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))


def radius_points(rng, network, radius_m, n_random):
    """Scattered points, PROBE, and points at radius_m from the interior and
    from both ends of every straight link, each also one ulp either side."""
    points = [tuple(p) for p in rng.uniform(-80.0, 700.0, (n_random, 2)).tolist()]
    points.append(PROBE)
    for link in network.links:
        (x0, y0), (x1, y1) = link.geometry[0], link.geometry[-1]
        if len(link.geometry) != 2 or y0 != y1:
            continue
        inner = x0 + float(rng.integers(1, x1 - x0))
        for y in (y0 + radius_m, y0 - radius_m):
            points += [(inner, v) for v in around(y)]
        for x in (x0 - radius_m, x1 + radius_m):
            points += [(v, y0) for v in around(x)]
    return points


@cases
@given(seed=st.integers(0, 2**32 - 1), n_links=st.integers(1, 12), n_random=st.integers(0, 30))
@pytest.mark.parametrize("radius_m", RADII)
def test_links_within_radii_matches_scan(radius_m, seed, n_links, n_random):
    rng = np.random.default_rng(seed)
    streets = street_network(rng, n_links)
    # a straight link ending at the origin, so PROBE's nearest point is the origin
    ends = Node(10**6, -60.0, 0.0), Node(10**6 + 1, 0.0, 0.0)
    probe = Link(10**6, ends[0].id, ends[1].id, 60.0 / 1609.344, 25.0, 800.0, 5, 2,
                 ((-60.0, 0.0), (0.0, 0.0)))
    links = streets.links + [probe]
    network = Network(streets.nodes + list(ends), [links[i] for i in rng.permutation(len(links))])
    points = radius_points(rng, network, radius_m, n_random)
    want = [geo_reference.links_within_radius(p, radius_m, network) for p in points]
    assert geo.links_within_radii(points, radius_m, network) == want
    assert geo.links_within_radius(PROBE, radius_m, network) == want[n_random]
    assert geo.links_within_radii([], radius_m, network) == []


def test_parcels_sharing_an_id_still_join_by_position():
    near = Parcel(7, square(100.0, -30.0, 20.0), LandUse.COMMERCIAL)
    far = Parcel(7, square(5100.0, 5000.0, 20.0), LandUse.RESIDENTIAL)
    a, b = Node(1, 0.0, 0.0), Node(2, 200.0, 0.0)
    link = Link(1, 1, 2, 200.0 / 1609.344, 25.0, 800.0, 5, 2, ((0.0, 0.0), (200.0, 0.0)))
    network = Network([a, b], [link])
    for parcels in ([near, far], [far, near]):
        assert dominant_land_use(link, parcels, BUFFER) is LandUse.COMMERCIAL
        assert geo_reference.dominant_land_use(link, parcels, BUFFER) is LandUse.COMMERCIAL
        assert classify_network(network, parcels) == {1: StreetType.NEIGHBORHOOD_COMMERCIAL}


def test_index_keeps_parcels_that_rounding_would_drop():
    # x + 35.5 rounds below 6.0, yet the parcel's edge at x = 6 lies 35.5
    # from the link as the exact test computes it
    x = -29.500000000000004
    assert x + 35.5 < 6.0
    assert geo_reference.point_segment_distance((6.0, 50.0), (x, 0.0), (x, 100.0)) == 35.5
    link = Link(1, 1, 2, 100.0 / 1609.344, 25.0, 800.0, 5, 2, ((x, 0.0), (x, 100.0)))
    parcels = [Parcel(1, square(13.0, 50.0, 7.0), LandUse.COMMERCIAL)]
    assert dominant_land_use(link, parcels, 35.5) is LandUse.COMMERCIAL
    assert geo_reference.dominant_land_use(link, parcels, 35.5) is LandUse.COMMERCIAL


def tract_city(rng, n_side, n_random, closed):
    """A square tiling (shared edges and corners) plus scattered polygons
    that overlap it; ids unique, order shuffled."""
    side = 100.0
    polygons = [
        square(side * (c + 0.5), side * (r + 0.5), side / 2.0)
        for r in range(n_side) for c in range(n_side)
    ]
    polygons += [regular_polygon(rng, *rng.uniform(0.0, side * n_side, 2)) for _ in range(n_random)]
    polygons += polygons[:2]  # identical twins share every edge
    if closed:
        polygons = [g + g[:1] for g in polygons]
    ids = rng.permutation(10 * len(polygons))[: len(polygons)] + 1
    tracts = [
        Tract(int(tid), poly, 100.0, bool(rng.integers(2))) for tid, poly in zip(ids, polygons)
    ]
    return [tracts[i] for i in rng.permutation(len(tracts))], side


def edge_links(rng, n_side, side):
    """Links whose midpoints sit on shared tract edges and corners, plus
    random ones."""
    nodes, links = [], []
    span = side * n_side
    ends = []
    for k in range(n_side + 1):
        y = side * k
        ends.append(((0.0, y), (2.0 * side, y)))  # midpoint on a corner
        ends.append(((side * 0.25, y), (side * 0.75, y)))  # midpoint on a horizontal edge
        ends.append(((y, side * 0.25), (y, side * 0.75)))  # on a vertical edge
        ends.append(((y - 10.0, 40.0), (y + 10.0, 60.0)))  # crosses an edge at its midpoint
    for _ in range(10):
        ends.append((tuple(rng.uniform(-20.0, span + 20.0, 2)), tuple(rng.uniform(-20.0, span + 20.0, 2))))
    for k, (p, q) in enumerate(ends):
        a, b = Node(2 * k + 1, *p), Node(2 * k + 2, *q)
        nodes += [a, b]
        length = max(math.dist(p, q), 1.0) / 1609.344
        links.append(Link(k + 1, a.id, b.id, length, 25.0, 800.0, 5, 2, (p, q)))
    return Network(nodes, links)


@cases
@given(seed=st.integers(0, 2**32 - 1), n_side=st.integers(1, 4), n_random=st.integers(0, 12),
       closed=st.booleans())
def test_link_tract_matches_scan(seed, n_side, n_random, closed):
    rng = np.random.default_rng(seed)
    tracts, side = tract_city(rng, n_side, n_random, closed)
    network = edge_links(rng, n_side, side)
    got = indicators.link_tract_ids(network, tracts)
    for link, tract_id in zip(network.links, got):
        assert geo.link_tracts([link], tracts) == [tract_id]
        assert geo_reference.link_tract(link, tracts) == tract_id


def test_link_tracts_index_keeps_midpoints_within_the_edge_tolerance():
    # midpoints one ulp outside a tract's edge lie on it for the exact test,
    # so the box join must offer that tract too
    tracts = [Tract(1, square(50.0, 50.0, 50.0), 10.0, True)]
    for x in (math.nextafter(100.0, math.inf), math.nextafter(0.0, -math.inf)):
        link = Link(1, 1, 2, 20.0 / 1609.344, 25.0, 800.0, 5, 2, ((x, 40.0), (x, 60.0)))
        mid = geo.link_midpoint(link)
        assert mid == (x, 50.0) and geo_reference.point_in_polygon(mid, tracts[0].polygon)
        assert geo.link_tracts([link], tracts) == [geo_reference.link_tract(link, tracts)] == [1]


def scan_tract_overlaps(tracts):
    """Every pair, with the scalar predicates."""

    def interior(p, polygon):
        ring = geo._closed_ring(polygon)
        if any(geo_reference._on_segment(p, a, b) for a, b in zip(ring, ring[1:])):
            return False
        return geo_reference.point_in_polygon(p, polygon)

    def proper_crossing(polygon_a, polygon_b):
        ring_a, ring_b = geo._closed_ring(polygon_a), geo._closed_ring(polygon_b)
        for a0, a1 in zip(ring_a, ring_a[1:]):
            for b0, b1 in zip(ring_b, ring_b[1:]):
                o = (geo._orient(a0, a1, b0), geo._orient(a0, a1, b1),
                     geo._orient(b0, b1, a0), geo._orient(b0, b1, a1))
                if all(v != 0 for v in o) and (o[0] > 0) != (o[1] > 0) and (o[2] > 0) != (o[3] > 0):
                    return True
        return False

    warnings = []
    for i, ta in enumerate(tracts):
        for tb in tracts[i + 1 :]:
            if (
                any(interior(p, tb.polygon) for p in ta.polygon)
                or any(interior(p, ta.polygon) for p in tb.polygon)
                or proper_crossing(ta.polygon, tb.polygon)
            ):
                warnings.append(f"tracts {ta.id} and {tb.id} overlap")
    return warnings


@cases
@given(seed=st.integers(0, 2**32 - 1), n_side=st.integers(1, 4), n_random=st.integers(0, 12),
       closed=st.booleans())
def test_validate_tracts_matches_all_pairs_scan(seed, n_side, n_random, closed):
    rng = np.random.default_rng(seed)
    tracts, _ = tract_city(rng, n_side, n_random, closed)
    assert geo.validate_tracts(tracts) == scan_tract_overlaps(tracts)


class CountingList(list):
    """A list that counts whole-list passes: iterations and slices."""

    def __init__(self, items):
        super().__init__(items)
        self.scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.scans += 1
        return super().__getitem__(key)


def test_joins_scan_their_inputs_once():
    rng = np.random.default_rng(5)
    for n_links in (4, 40):
        network = street_network(rng, n_links)
        parcels = CountingList(random_parcels(rng, network, 30))
        classify_network(network, parcels, BUFFER)
        assert parcels.scans == 1  # taking their boxes
        tracts = CountingList(tract_city(rng, 3, 10, False)[0])
        indicators.link_tract_ids(network, tracts)
        assert tracts.scans == 1
        tracts.scans = 0
        geo.validate_tracts(tracts)
        assert tracts.scans == 1

