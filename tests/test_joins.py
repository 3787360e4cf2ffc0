"""Spatial joins, and the box join under them, against brute-force scans.

The reference scans in geo_reference visit every parcel, tract or link
with the scalar geometry functions. Random cities come from hypothesis-drawn seeds, derandomized,
so every run checks the same cases. The joins must also not change when a
whole city moves to projected-CRS coordinates.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowscore import geo, indicators
from flowscore.typology import (
    LandUse,
    StreetType,
    classify_network,
    _dominant_land_uses,
    classify_street,
    transport_context,
)

import fixtures
import geo_reference
from fixtures import (Link, Node, Parcel, School, Tract, links_of, nodes_of, parcel_table, square,
                      tract_table, vertex_table)
from test_cli import town

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
        length = geo_reference.polyline_length(geometry) / 1609.344
        links.append(Link(k + 1, a.id, b.id, length, 25.0, 800.0, 5, 2, geometry))
    return fixtures.network(nodes, links)


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


coordinate = st.floats(-1e6, 1e6)  # -0.0 and 0.0 among them
shape = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6)


@cases
@given(shapes=st.lists(st.tuples(shape, st.booleans()), max_size=6), closed=st.booleans())
def test_shape_boxes_match_polyline_bbox(shapes, closed):
    # each shape is given open or already closed; one-point shapes and no shapes at all included
    shapes = [s + s[:1] if close else s for s, close in shapes]
    boxes = vertex_table(shapes, closed).boxes()
    assert boxes.shape == (len(shapes), 4)
    assert list(map(tuple, boxes.tolist())) == [geo_reference.polyline_bbox(s) for s in shapes]
    assert vertex_table([], closed).boxes().shape == (0, 4)
    assert vertex_table([[(1.5, -2.0)]], closed).boxes().tolist() == [[1.5, -2.0, 1.5, -2.0]]


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
    for link in links_of(network)[::2]:
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
    table = parcel_table(parcels)
    got = classify_network(network, table, BUFFER)
    for row, link in enumerate(links_of(network)):
        use = _dominant_land_uses(network.lines, [row], table, BUFFER)[0]
        assert geo_reference.dominant_land_use(link, parcels, BUFFER) is use
        assert got[row] is classify_street(transport_context(link.fclass, link.speed_mph), use)
    reordered = [parcels[i] for i in rng.permutation(len(parcels))]
    assert classify_network(network, parcel_table(reordered), BUFFER).tolist() == got.tolist()


@cases
@given(seed=st.integers(0, 2**32 - 1), buffer_m=st.sampled_from((0.0, BUFFER, 35.5)))
def test_polygon_polyline_within_matches_scalar_distance(seed, buffer_m):
    rng = np.random.default_rng(seed)
    network = street_network(rng, 8)
    parcels = random_parcels(rng, network, 15)
    # a closed ring and a one-point polyline exercise the edge cases of both shapes
    polygons = [p.polygon for p in parcels] + [parcels[0].polygon + parcels[0].polygon[:1]]
    geometries = geo_reference.polylines_of(network.lines)
    lines = geometries + [geometries[0][:1]]
    pairs = [(g, k) for g in range(len(parcels)) for k in range(network.n_links)]
    pairs += [(len(parcels), 0), (0, network.n_links)]
    ring_of, line_of = np.array(pairs).T
    got = geo.polygon_polyline_within(vertex_table(polygons, True), ring_of,
                                      vertex_table(lines, False), line_of, buffer_m)
    want = [geo_reference.polygon_polyline_distance(polygons[g], lines[k]) <= buffer_m
            for g, k in pairs]
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
        first = np.zeros(1, dtype=np.int64)
        got = geo.polygon_polyline_within(vertex_table([triangle], True), first,
                                          vertex_table([line], False), first, radius)
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
    for geometry in geo_reference.polylines_of(network.lines):
        (x0, y0), (x1, y1) = geometry[0], geometry[-1]
        if len(geometry) != 2 or y0 != y1:
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
    links = links_of(streets) + [probe]
    network = fixtures.network(nodes_of(streets) + list(ends),
                               [links[i] for i in rng.permutation(len(links))])
    points = radius_points(rng, network, radius_m, n_random)
    want = [geo_reference.links_within_radius(p, radius_m, network) for p in points]
    assert fixtures.buffer_ids(network, geo.links_within_radii(points, radius_m, network)) == want
    assert fixtures.buffer_ids(network, geo.links_within_radii([PROBE], radius_m, network)) == [
        want[n_random]]
    assert geo.links_within_radii([], radius_m, network) == []


def test_parcels_sharing_an_id_still_join_by_position():
    near = Parcel(7, square(100.0, -30.0, 20.0), LandUse.COMMERCIAL)
    far = Parcel(7, square(5100.0, 5000.0, 20.0), LandUse.RESIDENTIAL)
    a, b = Node(1, 0.0, 0.0), Node(2, 200.0, 0.0)
    link = Link(1, 1, 2, 200.0 / 1609.344, 25.0, 800.0, 5, 2, ((0.0, 0.0), (200.0, 0.0)))
    network = fixtures.network([a, b], [link])
    for parcels in ([near, far], [far, near]):
        table = parcel_table(parcels)
        assert _dominant_land_uses(network.lines, [0], table, BUFFER)[0] is LandUse.COMMERCIAL
        assert geo_reference.dominant_land_use(link, parcels, BUFFER) is LandUse.COMMERCIAL
        assert classify_network(network, table).tolist() == [StreetType.NEIGHBORHOOD_COMMERCIAL]
    # one id and one area, both in the buffer: the earlier parcel wins, in either order
    left = Parcel(3, square(50.0, -30.0, 20.0), LandUse.INDUSTRIAL)
    right = Parcel(3, square(150.0, 30.0, 20.0), LandUse.PUBLIC)
    for parcels in ([left, right], [right, left]):
        want = parcels[0].land_use
        assert _dominant_land_uses(network.lines, [0], parcel_table(parcels), BUFFER)[0] is want
        assert geo_reference.dominant_land_use(link, parcels, BUFFER) is want


def test_index_keeps_parcels_that_rounding_would_drop():
    # x + 35.5 rounds below 6.0, yet the parcel's edge at x = 6 lies 35.5
    # from the link as the exact test computes it
    x = -29.500000000000004
    assert x + 35.5 < 6.0
    assert geo_reference.point_segment_distance((6.0, 50.0), (x, 0.0), (x, 100.0)) == 35.5
    link = Link(1, 1, 2, 100.0 / 1609.344, 25.0, 800.0, 5, 2, ((x, 0.0), (x, 100.0)))
    parcels = [Parcel(1, square(13.0, 50.0, 7.0), LandUse.COMMERCIAL)]
    lines = vertex_table([link.geometry], False)
    assert _dominant_land_uses(lines, [0], parcel_table(parcels), 35.5)[0] is LandUse.COMMERCIAL
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
    return fixtures.network(nodes, links)


@cases
@given(seed=st.integers(0, 2**32 - 1), n_side=st.integers(1, 4), n_random=st.integers(0, 12),
       closed=st.booleans())
def test_link_tract_matches_scan(seed, n_side, n_random, closed):
    rng = np.random.default_rng(seed)
    tracts, side = tract_city(rng, n_side, n_random, closed)
    network = edge_links(rng, n_side, side)
    table = tract_table(tracts)
    got = indicators.link_tract_ids(network, table)
    for link, row in zip(links_of(network), got.tolist()):
        assert geo.link_tracts(vertex_table([link.geometry], False), table).tolist() == [row]
        assert geo_reference.link_tract(link, tracts) == row


def test_link_tracts_index_keeps_midpoints_within_the_edge_tolerance():
    # midpoints one ulp outside a tract's edge lie on it for the exact test,
    # so the box join must offer that tract too
    tracts = [Tract(1, square(50.0, 50.0, 50.0), 10.0, True)]
    for x in (math.nextafter(100.0, math.inf), math.nextafter(0.0, -math.inf)):
        link = Link(1, 1, 2, 20.0 / 1609.344, 25.0, 800.0, 5, 2, ((x, 40.0), (x, 60.0)))
        mid = geo_reference.link_midpoint(link.geometry)
        assert mid == (x, 50.0) and geo_reference.point_in_polygon(mid, tracts[0].polygon)
        assert (geo.link_tracts(vertex_table([link.geometry], False), tract_table(tracts)).tolist()
                == [geo_reference.link_tract(link, tracts)] == [0])


def scan_tract_overlaps(tracts):
    """Every pair, with the scalar predicates."""

    def interior(p, polygon):
        ring = geo_reference._closed_ring(polygon)
        if any(geo_reference._on_segment(p, a, b) for a, b in zip(ring, ring[1:])):
            return False
        return geo_reference.point_in_polygon(p, polygon)

    def proper_crossing(polygon_a, polygon_b):
        ring_a, ring_b = geo_reference._closed_ring(polygon_a), geo_reference._closed_ring(polygon_b)
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
    assert geo.validate_tracts(tract_table(tracts)) == scan_tract_overlaps(tracts)


# a projected-CRS origin: UTM zone 10N, near the paper's Bay Area cities
OFFSET = (5e5, 4.2e6)


def moved(scene, dx, dy):
    """The scene's node, link, parcel, school and tract rows, every
    coordinate moved by (dx, dy)."""
    nodes, links, parcels, schools, tracts = scene

    def move(points):
        return tuple((x + dx, y + dy) for x, y in points)

    return ([node._replace(x=node.x + dx, y=node.y + dy) for node in nodes],
            [link._replace(geometry=move(link.geometry)) for link in links],
            [parcel._replace(polygon=move(parcel.polygon)) for parcel in parcels],
            [school._replace(x=school.x + dx, y=school.y + dy) for school in schools],
            [tract._replace(polygon=move(tract.polygon)) for tract in tracts])


def joins(nodes, links, parcels, schools, tracts):
    """Street types, each school's buffer, each link's tract and the
    tract-overlap warnings, as `flowscore run` joins them."""
    network, tracts = fixtures.network(nodes, links), tract_table(tracts)
    return (classify_network(network, parcel_table(parcels), BUFFER).tolist(),
            fixtures.buffer_ids(network, fixtures.school_buffers(
                network, fixtures.school_table(schools))),
            indicators.link_tract_ids(network, tracts).tolist(), geo.validate_tracts(tracts))


@pytest.mark.parametrize("scale, late_trips", [(1.0, 0), (12.0, 40)], ids=["town", "long_town"])
def test_town_joins_ignore_a_translation(scale, late_trips):
    network, _, parcels, schools, tracts = town(scale, late_trips)
    scene = (nodes_of(network), links_of(network), parcels, schools, tracts)
    assert joins(*moved(scene, *OFFSET)) == joins(*scene)


@pytest.mark.parametrize("chunk", [1, 7])
def test_town_joins_ignore_the_chunk_size(chunk):
    # with a few items per chunk, each join's pairs run in several chunks
    network, _, parcels, schools, tracts = town()
    scene = (nodes_of(network), links_of(network), parcels, schools, tracts)
    want = joins(*scene)
    with mock.patch.object(geo, "_CHUNK", chunk):
        assert joins(*scene) == want


def whole_meter_city(rng, n):
    """n straight links, parcels and schools, and 2n tracts, on whole-meter
    coordinates, which OFFSET moves exactly. The polygons are rectangles
    and right triangles, so their edges run in every direction."""
    def corner():
        return tuple(float(v) for v in rng.integers(0, 1500, 2))

    def polygon():
        x, y = corner()
        w, h = (float(v) for v in rng.choice([-1, 1], 2) * rng.integers(20, 300, 2))
        rectangle = ((x, y), (x + w, y), (x + w, y + h), (x, y + h))
        return rectangle[:3] if rng.random() < 0.5 else rectangle  # [:3], a right triangle

    nodes, links = [], []
    for k in range(n):
        p, q = corner(), corner()
        nodes += [Node(2 * k + 1, *p), Node(2 * k + 2, *q)]
        length = max(math.dist(p, q), 1.0) / 1609.344
        links.append(Link(k + 1, 2 * k + 1, 2 * k + 2, length, 25.0, 800.0, 5, 2, (p, q)))
    parcels = [Parcel(k + 1, polygon(), USES[int(rng.integers(len(USES)))]) for k in range(n)]
    schools = [School(k + 1, *corner(), 50.0) for k in range(n)]
    tracts = [Tract(k + 1, polygon(), 100.0, bool(rng.integers(2))) for k in range(2 * n)]
    return nodes, links, parcels, schools, tracts


@cases
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25))
def test_joins_ignore_a_translation(seed, n):
    scene = whole_meter_city(np.random.default_rng(seed), n)
    assert joins(*moved(scene, *OFFSET)) == joins(*scene)
