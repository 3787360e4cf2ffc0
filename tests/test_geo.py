import math

import numpy as np
import pytest

from flowscore import geo
from flowscore.geo import (
    Tract,
    _candidates,
    link_midpoint,
    link_tracts,
    links_within_radius,
    load_tracts,
    point_along_polyline,
    polygon_area,
    polyline_bbox,
    polyline_length,
    validate_tracts,
)

from fixtures import grid_network, square, write_tracts_geojson
import geo_reference
from geo_reference import (
    bboxes_overlap,
    point_in_polygon,
    point_polyline_distance,
    point_segment_distance,
    polygon_polyline_distance,
    segment_segment_distance,
    segments_intersect,
)


UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_point_segment_distance():
    assert point_segment_distance((0.0, 1.0), (0.0, 0.0), (2.0, 0.0)) == 1.0
    assert point_segment_distance((3.0, 0.0), (0.0, 0.0), (2.0, 0.0)) == 1.0
    assert point_segment_distance((1.0, 0.0), (0.0, 0.0), (2.0, 0.0)) == 0.0
    # degenerate segment is a point
    assert point_segment_distance((3.0, 4.0), (0.0, 0.0), (0.0, 0.0)) == 5.0


def test_point_in_polygon_interior_and_exterior():
    assert point_in_polygon((0.5, 0.5), UNIT_SQUARE)
    assert not point_in_polygon((1.5, 0.5), UNIT_SQUARE)
    assert not point_in_polygon((-0.001, 0.5), UNIT_SQUARE)


def test_point_in_polygon_boundary_is_inside():
    assert point_in_polygon((0.0, 0.0), UNIT_SQUARE)  # vertex
    assert point_in_polygon((0.5, 0.0), UNIT_SQUARE)  # edge midpoint
    assert point_in_polygon((1.0, 0.5), UNIT_SQUARE)
    assert point_in_polygon((0.5, 1.0), UNIT_SQUARE)  # horizontal top edge


def test_point_in_polygon_concave():
    # C-shape opening right
    poly = ((0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3))
    assert point_in_polygon((0.5, 1.5), poly)
    assert not point_in_polygon((2.0, 1.5), poly)  # inside the notch
    assert point_in_polygon((2.0, 0.5), poly)


def test_polygon_area():
    assert polygon_area(UNIT_SQUARE) == 1.0
    tri = ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    assert polygon_area(tri) == 6.0
    # orientation must not matter
    assert polygon_area(tuple(reversed(tri))) == 6.0


def test_segments_intersect():
    assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))
    assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))  # shared endpoint
    assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))  # collinear overlap
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))
    assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))  # collinear gap


def test_segment_segment_distance():
    assert segment_segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == 1.0
    assert segment_segment_distance((0, 0), (2, 2), (0, 2), (2, 0)) == 0.0
    assert segment_segment_distance((0, 0), (1, 0), (3, 0), (4, 0)) == 2.0


def test_polygon_polyline_distance():
    inside = ((0.2, 0.2), (0.8, 0.8))
    assert polygon_polyline_distance(UNIT_SQUARE, inside) == 0.0
    crossing = ((-1.0, 0.5), (2.0, 0.5))
    assert polygon_polyline_distance(UNIT_SQUARE, crossing) == 0.0
    outside = ((2.0, 0.0), (2.0, 1.0))
    assert polygon_polyline_distance(UNIT_SQUARE, outside) == 1.0
    touching = ((1.0, 0.5), (2.0, 0.5))
    assert polygon_polyline_distance(UNIT_SQUARE, touching) == 0.0


def test_polyline_length_and_point_along():
    line = ((0.0, 0.0), (3.0, 0.0), (3.0, 4.0))
    assert polyline_length(line) == 7.0
    assert point_along_polyline(line, 0.0) == (0.0, 0.0)
    assert point_along_polyline(line, 3.0) == (3.0, 0.0)
    assert point_along_polyline(line, 5.0) == (3.0, 2.0)
    assert point_along_polyline(line, 99.0) == (3.0, 4.0)
    assert point_along_polyline(line, -1.0) == (0.0, 0.0)


def test_bbox_helpers():
    assert polyline_bbox(((1.0, 5.0), (-2.0, 3.0), (0.0, 7.0))) == (-2.0, 3.0, 1.0, 7.0)
    assert bboxes_overlap((0, 0, 1, 1), (1, 1, 2, 2))  # edge touch counts
    assert not bboxes_overlap((0, 0, 1, 1), (1.01, 0, 2, 1))
    net = grid_network(2, 3)
    assert geo.build_link_index(net).tolist() == [list(polyline_bbox(link.geometry)) for link in net.links]


def test_spatial_index_matches_brute_force():
    rng = np.random.default_rng(21)
    n = 400
    boxes = []
    for _ in range(n):
        x0, y0 = rng.uniform(0, 1000, size=2)
        w, h = rng.uniform(0, 80, size=2)
        boxes.append((x0, y0, x0 + w, y0 + h))
    queries = []
    for _ in range(300):
        qx, qy = rng.uniform(-50, 1050, size=2)
        qw, qh = rng.uniform(0, 150, size=2)
        queries.append((qx, qy, qx + qw, qy + qh))
    k, j = _candidates(queries, boxes)
    brute = [(a, b) for a, q in enumerate(queries) for b, box in enumerate(boxes) if bboxes_overlap(box, q)]
    assert list(zip(k.tolist(), j.tolist())) == brute


def test_spatial_index_degenerate_inputs():
    def hits(boxes, items):
        k, j = _candidates(boxes, items)
        return [j[k == q].tolist() for q in range(len(boxes))]

    assert hits([(0, 0, 1, 1)], []) == [[]]
    assert hits([], [(0, 0, 1, 1)]) == []
    # all boxes are the same point
    same = [(5.0, 5.0, 5.0, 5.0), (5.0, 5.0, 5.0, 5.0)]
    assert hits([(4, 4, 6, 6), (5, 5, 5, 5), (6.1, 6.1, 7, 7)], same) == [[0, 1], [0, 1], []]


@pytest.mark.parametrize("items, occupied_cells", [
    ([], 0),
    ([(5.0, 5.0, 5.0, 5.0), (5.0, 5.0, 5.0, 5.0)], 1),
    ([(0.0, 0.0, 1.0, 1.0), (9.0, 9.0, 10.0, 10.0)], 4),
], ids=["empty", "one_point", "two_corners"])
def test_spatial_index_query_visits_only_occupied_cells(items, occupied_cells, monkeypatch):
    # items without extent have 1 m cells, so this box covers 40,000 of
    # them; the two corners' cells are 7.07 m wide
    looked = []
    cells = geo._cells

    def counting_cells(first, last, shape):
        owner, at = cells(first, last, shape)
        looked.append(len(at))
        return owner, at

    monkeypatch.setattr(geo, "_cells", counting_cells)
    k, j = _candidates([(-100.0, -100.0, 100.0, 100.0)], items)
    assert (k.tolist(), j.tolist()) == ([0] * len(items), list(range(len(items))))
    assert sum(looked[1:]) <= occupied_cells  # looked[0] places the items


def test_links_within_radius_inclusive_and_sorted():
    net = grid_network(2, 2, spacing_miles=1.0)
    spacing_m = geo.polyline_length(net.links[0].geometry)
    # query at a node: every incident link touches it, distance 0
    at_node = links_within_radius((0.0, 0.0), 0.0, net)
    assert at_node == sorted(at_node)
    assert len(at_node) == 4  # two outgoing, two incoming
    # exactly at the radius boundary
    mid = (spacing_m / 2.0, spacing_m / 2.0)
    d = spacing_m / 2.0
    hits = links_within_radius(mid, d, net)
    assert len(hits) == len(net.links)  # all edges of the unit cell touch
    just_inside = links_within_radius(mid, d * 0.999, net)
    assert just_inside == []


def test_links_within_radius_index_agrees_with_scan():
    net = grid_network(4, 5, spacing_miles=0.3)
    rng = np.random.default_rng(22)
    for _ in range(100):
        p = (float(rng.uniform(-500, 2500)), float(rng.uniform(-500, 2000)))
        r = float(rng.uniform(0, 600))
        assert links_within_radius(p, r, net) == geo_reference.links_within_radius(p, r, net)


def test_links_within_radius_rejects_negative():
    net = grid_network(2, 2)
    for radius_m in (-1.0, math.nan, math.inf):  # a non-finite radius has no cells to look in
        with pytest.raises(ValueError):
            links_within_radius((0.0, 0.0), radius_m, net)


def test_tract_validation():
    with pytest.raises(ValueError):
        Tract(1, ((0.0, 0.0), (1.0, 0.0)), 100.0, False)
    with pytest.raises(ValueError):
        Tract(1, UNIT_SQUARE, -5.0, False)


def test_link_midpoint_multi_segment():
    net = grid_network(1, 2, spacing_miles=1.0)
    link = net.links[0]
    mid = link_midpoint(link)
    length_m = polyline_length(link.geometry)
    assert mid == pytest.approx((length_m / 2.0, 0.0))


def test_link_tract_first_match_wins_on_overlap():
    net = grid_network(1, 2, spacing_miles=1.0)
    link = net.links[0]
    big = Tract(10, square(800.0, 0.0, 900.0), 1000.0, False)
    small = Tract(20, square(800.0, 0.0, 900.0), 500.0, True)
    assert link_tracts([link], [big, small]) == [10]
    assert link_tracts([link], [small, big]) == [20]
    far = Tract(30, square(1e6, 1e6, 10.0), 10.0, False)
    assert link_tracts([link], [far]) == [None]


def test_validate_tracts_flags_overlaps_only():
    a = Tract(1, square(0.0, 0.0, 10.0), 100.0, False)
    b = Tract(2, square(5.0, 3.0, 10.0), 100.0, False)  # corner inside a
    c = Tract(3, square(40.0, 0.0, 10.0), 100.0, False)  # disjoint
    d = Tract(4, square(55.0, 0.0, 5.0), 100.0, False)  # edge-tangent to c only
    warnings = validate_tracts([a, b, c, d])
    assert warnings == ["tracts 1 and 2 overlap"]
    # crossing boundaries with no vertex containment still count
    e = Tract(5, ((-20.0, -1.0), (20.0, -1.0), (20.0, 1.0), (-20.0, 1.0)), 50.0, False)
    f = Tract(6, ((-1.0, -20.0), (1.0, -20.0), (1.0, 20.0), (-1.0, 20.0)), 50.0, False)
    assert validate_tracts([e, f]) == ["tracts 5 and 6 overlap"]


def test_load_tracts_roundtrip(tmp_path):
    tracts = [
        Tract(7, square(100.0, 100.0, 50.0), 1200.0, True),
        Tract(8, square(300.0, 100.0, 50.0), 800.0, False),
    ]
    path = tmp_path / "tracts.geojson"
    write_tracts_geojson(path, tracts)
    loaded = load_tracts(str(path))
    assert [t.id for t in loaded] == [7, 8]
    assert loaded[0].is_coc and not loaded[1].is_coc
    assert loaded[0].population == 1200.0
    assert loaded[0].polygon == tracts[0].polygon


def test_load_tracts_rejects_non_polygon(tmp_path):
    path = tmp_path / "bad.geojson"
    path.write_text(
        '{"type": "FeatureCollection", "features": [{"type": "Feature",'
        '"properties": {"tract_id": 1}, "geometry": {"type": "Point", "coordinates": [0, 0]}}]}'
    )
    with pytest.raises(ValueError):
        load_tracts(str(path))


def test_load_tracts_requires_id(tmp_path):
    path = tmp_path / "noid.geojson"
    path.write_text(
        '{"type": "FeatureCollection", "features": [{"type": "Feature",'
        '"properties": {}, "geometry": {"type": "Polygon",'
        '"coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}]}'
    )
    with pytest.raises(ValueError):
        load_tracts(str(path))


def test_load_tracts_rejects_non_integer_id(tmp_path):
    path = tmp_path / "stringid.geojson"
    path.write_text(
        '{"type": "FeatureCollection", "features": [{"type": "Feature",'
        '"properties": {"tract_id": "T1"}, "geometry": {"type": "Polygon",'
        '"coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}]}'
    )
    with pytest.raises(ValueError, match="tract_id 'T1' is not an integer"):
        load_tracts(str(path))


def test_load_tracts_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.geojson"
    write_tracts_geojson(path, [
        Tract(4, square(0.0, 0.0, 10.0), 100.0, False),
        Tract(5, square(50.0, 0.0, 10.0), 100.0, False),
        Tract(4, square(5000.0, 0.0, 10.0), 100.0, True),
    ])
    with pytest.raises(ValueError, match=r"duplicate tract_id 4 in feature 3 \(first in feature 1\)"):
        load_tracts(str(path))


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_load_tracts_rejects_non_finite_coordinates(tmp_path, bad):
    path = tmp_path / "nan.geojson"
    write_tracts_geojson(path, [
        Tract(1, square(0.0, 0.0, 10.0), 100.0, False),
        Tract(2, ((0.0, 0.0), (60.0, 0.0), (60.0, 60.0)), 100.0, False),
    ])
    path.write_text(path.read_text().replace("[60.0, 60.0]", f"[60.0, {bad}]"))
    with pytest.raises(ValueError, match="nan.geojson: feature 2 has a non-finite coordinate"):
        load_tracts(str(path))


def two_tract_file(path, second_population=250.0):
    write_tracts_geojson(path, [
        Tract(1, square(0.0, 0.0, 10.0), 100.0, False),
        Tract(2, square(50.0, 0.0, 10.0), second_population, True),
    ])
    return path


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-1.0"])
def test_load_tracts_rejects_bad_population(tmp_path, bad):
    path = two_tract_file(tmp_path / "pop.geojson")
    path.write_text(path.read_text().replace("250.0", bad))
    with pytest.raises(ValueError, match=r"pop.geojson: tract 2 population must be finite "
                                         r"and nonnegative \(feature 2\)"):
        load_tracts(str(path))


@pytest.mark.parametrize("value, want", [("true", True), ("false", False), ("1.0", True)])
def test_load_tracts_reads_is_coc_as_boolean_or_0_1(tmp_path, value, want):
    path = two_tract_file(tmp_path / "coc.geojson")
    path.write_text(path.read_text().replace('"is_coc": 1', f'"is_coc": {value}'))
    assert [t.is_coc for t in load_tracts(str(path))] == [False, want]


@pytest.mark.parametrize("bad", ['"false"', '"true"', "2", "null", "0.5"])
def test_load_tracts_rejects_other_is_coc(tmp_path, bad):
    path = two_tract_file(tmp_path / "coc.geojson")
    path.write_text(path.read_text().replace('"is_coc": 1', f'"is_coc": {bad}'))
    with pytest.raises(ValueError, match=r"coc.geojson: is_coc .* is not a boolean or 0/1 "
                                         r"\(feature 2\)"):
        load_tracts(str(path))
