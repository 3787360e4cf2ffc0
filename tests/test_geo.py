import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowscore import geo
from flowscore.geo import (
    _candidates,
    link_tracts,
    links_within_radii,
    load_tracts,
    validate_tracts,
)
from flowscore.network import Network
from flowscore.typology import LandUse, Parcels, load_parcels

from fixtures import (Link, Parcel, Tract, flat, grid_network, links_of, square, tract_table,
                      tracts_of, vertex_table, write_parcels_geojson, write_tracts_geojson)
import geo_reference
from geo_reference import (
    bboxes_overlap,
    link_midpoint,
    point_along_polyline,
    point_in_polygon,
    point_polyline_distance,
    point_segment_distance,
    polygon_area,
    polygon_polyline_distance,
    polyline_bbox,
    polyline_length,
    polylines_of,
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
    want = [list(polyline_bbox(geometry)) for geometry in polylines_of(net.lines)]
    assert net.lines.boxes().tolist() == want


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
    spacing_m = polyline_length(polylines_of(net.lines)[0])
    # query at a node: every incident link touches it, distance 0
    at_node = net.link_ids[links_within_radii([(0.0, 0.0)], 0.0, net)[0]].tolist()
    assert at_node == sorted(at_node)
    assert len(at_node) == 4  # two outgoing, two incoming
    # exactly at the radius boundary
    mid = (spacing_m / 2.0, spacing_m / 2.0)
    d = spacing_m / 2.0
    hits = links_within_radii([mid], d, net)[0]
    assert len(hits) == net.n_links  # all edges of the unit cell touch
    just_inside = links_within_radii([mid], d * 0.999, net)[0]
    assert just_inside.tolist() == []


def test_links_within_radius_index_agrees_with_scan():
    net = grid_network(4, 5, spacing_miles=0.3)
    rng = np.random.default_rng(22)
    for _ in range(100):
        p = (float(rng.uniform(-500, 2500)), float(rng.uniform(-500, 2000)))
        r = float(rng.uniform(0, 600))
        want = geo_reference.links_within_radius(p, r, net)
        assert net.link_ids[links_within_radii([p], r, net)[0]].tolist() == want


def test_links_within_radius_rejects_negative():
    net = grid_network(2, 2)
    for radius_m in (-1.0, math.nan, math.inf):  # a non-finite radius has no cells to look in
        with pytest.raises(ValueError):
            links_within_radii([(0.0, 0.0)], radius_m, net)


def test_tract_validation():
    with pytest.raises(ValueError):
        tract_table([Tract(1, ((0.0, 0.0), (1.0, 0.0)), 100.0, False)])
    with pytest.raises(ValueError):
        tract_table([Tract(1, UNIT_SQUARE, -5.0, False)])
    # a degenerate ring's edge would otherwise hold the midpoints of
    # grid_network(2, 2)'s links 1 and 2
    for ring in (((0.0, 0.0), (500.0, 0.0), (804.672, 0.0)), ((0.0, 0.0), (1.0, 1.0), (0.0, 0.0))):
        with pytest.raises(ValueError, match="^tract 5 has zero area$"):
            tract_table([Tract(5, ring, 10.0, True)])


@pytest.mark.parametrize("sizes, message", [
    ([4, 3], "shape sizes add up to 7 vertices, not the 8 given"),
    ([4, 5], "shape sizes add up to 9 vertices, not the 8 given"),
    ([9, -1], "shape size -1 is negative"),
])
def test_tables_built_by_hand_reject_sizes_that_do_not_fit_the_vertices(sizes, message):
    xy = np.array(UNIT_SQUARE * 2)
    nodes = {"node_id": [1, 2], "x": [0.0, 1.0], "y": [0.0, 0.0]}
    links = {"link_id": [10, 11], "from": [1, 2], "to": [2, 1], "length_miles": [1.0, 1.0],
             "speed_mph": [30.0, 30.0], "capacity_vph": [900.0, 900.0], "fclass": [4, 4],
             "lanes": [1, 1], "wkt_geometry": (xy, sizes)}
    for build in (lambda: geo.Tracts([1, 2], xy, sizes, [0, 0], [0, 0]),
                  lambda: Parcels([1, 2], xy, sizes, ["R", "R"]),
                  lambda: Network(nodes, links)):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_link_midpoint_multi_segment():
    net = grid_network(1, 2, spacing_miles=1.0)
    link = links_of(net)[0]
    mid = link_midpoint(link.geometry)
    length_m = polyline_length(link.geometry)
    assert mid == pytest.approx((length_m / 2.0, 0.0))


def test_link_tract_first_match_wins_on_overlap():
    net = grid_network(1, 2, spacing_miles=1.0)
    geometries = vertex_table(polylines_of(net.lines)[:1], False)
    big = Tract(10, square(800.0, 0.0, 900.0), 1000.0, False)
    small = Tract(20, square(800.0, 0.0, 900.0), 500.0, True)
    far = Tract(30, square(1e6, 1e6, 10.0), 10.0, False)
    for tracts, want in (([big, small], 10), ([small, big], 20), ([far, small, big], 20)):
        table = tract_table(tracts)
        assert table.ids[link_tracts(geometries, table)].tolist() == [want]
    assert link_tracts(geometries, tract_table([far])).tolist() == [-1]


@pytest.mark.parametrize("side, want", [(1.0, -1), (-1.0, 0)], ids=["outside", "inside"])
def test_link_tracts_edge_band_does_not_grow_with_the_coordinates(side, want):
    # projected coordinates near (5e5, 4e6): a midpoint 7 m off a 1,414 m
    # diagonal tract edge is 7 m outside or inside it, not on it
    x0, y0 = 5e5, 4e6
    tract = Tract(1, ((x0, y0), (x0 + 1000.0, y0), (x0 + 1000.0, y0 + 1000.0)), 10.0, False)
    off = side * 7.0 / math.sqrt(2.0)
    mx, my = x0 + 500.0 - off, y0 + 500.0 + off
    link = Link(1, 1, 2, 20.0 / 1609.344, 25.0, 800.0, 5, 2, ((mx - 10.0, my), (mx + 10.0, my)))
    assert link_midpoint(link.geometry) == pytest.approx((mx, my), abs=1e-6)
    assert (link_tracts(vertex_table([link.geometry], False), tract_table([tract])).tolist()
            == [geo_reference.link_tract(link, [tract])] == [want])


def test_validate_tracts_flags_overlaps_only():
    a = Tract(1, square(0.0, 0.0, 10.0), 100.0, False)
    b = Tract(2, square(5.0, 3.0, 10.0), 100.0, False)  # corner inside a
    c = Tract(3, square(40.0, 0.0, 10.0), 100.0, False)  # disjoint
    d = Tract(4, square(55.0, 0.0, 5.0), 100.0, False)  # edge-tangent to c only
    warnings = validate_tracts(tract_table([a, b, c, d]))
    assert warnings == ["tracts 1 and 2 overlap"]
    # crossing boundaries with no vertex containment still count
    e = Tract(5, ((-20.0, -1.0), (20.0, -1.0), (20.0, 1.0), (-20.0, 1.0)), 50.0, False)
    f = Tract(6, ((-1.0, -20.0), (1.0, -20.0), (1.0, 20.0), (-1.0, 20.0)), 50.0, False)
    assert validate_tracts(tract_table([e, f])) == ["tracts 5 and 6 overlap"]


def test_load_tracts_roundtrip(tmp_path):
    tracts = [
        Tract(7, square(100.0, 100.0, 50.0), 1200.0, True),
        Tract(8, square(300.0, 100.0, 50.0), 800.0, False),
    ]
    path = tmp_path / "tracts.geojson"
    write_tracts_geojson(path, tracts)
    assert tracts_of(load_tracts(str(path))) == tracts


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


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity",
                                 pytest.param("1" + "0" * 400, id="too_large_for_a_float")])
def test_load_tracts_rejects_non_finite_coordinates(tmp_path, bad):
    path = tmp_path / "nan.geojson"
    write_tracts_geojson(path, [
        Tract(1, square(0.0, 0.0, 10.0), 100.0, False),
        Tract(2, ((0.0, 0.0), (60.0, 0.0), (60.0, 60.0)), 100.0, False),
    ])
    path.write_text(path.read_text().replace("[60.0, 60.0]", f"[60.0, {bad}]"))
    with pytest.raises(ValueError, match="nan.geojson: feature 2 has a non-finite coordinate"):
        load_tracts(str(path))


def second_polygon(geometry: str) -> str:
    """A tracts file whose second feature has the given Polygon geometry."""
    good = '[[0, 0], [1, 0], [1, 1], [0, 0]]'
    return ('{"type": "FeatureCollection", "features": ['
            f'{{"type": "Feature", "properties": {{"tract_id": 1}}, '
            f'"geometry": {{"type": "Polygon", "coordinates": [{good}]}}}}, '
            f'{{"type": "Feature", "properties": {{"tract_id": 2}}, '
            f'"geometry": {{"type": "Polygon"{geometry}}}}}]}}')


@pytest.mark.parametrize("text, message", [
    ('{"type": "FeatureCollection", "features": [', "bad JSON: "),
    ("[]", "expected a GeoJSON FeatureCollection"),
    ('{"type": "FeatureCollection", "features": 5}', "features must be a list"),
    (second_polygon(""), "feature 2 coordinates are not a ring of"),
    (second_polygon(', "coordinates": [[[0, 0, 0], [1, 0, 0], [1, 1, 0]]]'),
     "feature 2 coordinates are not a ring of"),
    (second_polygon(', "coordinates": [[[0, 0], [1, "east"], [1, 1]]]'),
     "feature 2 coordinates are not a ring of"),
], ids=["bad_json", "top_level_list", "features_not_a_list", "no_coordinates", "3d_points",
        "non_numeric"])
def test_load_tracts_names_the_file_of_malformed_geojson(tmp_path, text, message):
    path = tmp_path / "tracts.geojson"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
        load_tracts(str(path))
    good = tmp_path / "good.geojson"  # the same file with a well-formed second ring loads
    good.write_text(second_polygon(', "coordinates": [[[0, 0], [1, 0], [1, 1]]]'))
    assert load_tracts(str(good)).ids.tolist() == [1, 2]


@pytest.mark.parametrize("ring", ["[[0, 0], [500, 0], [804.672, 0]]",
                                  "[[0, 0], [1, 1], [0, 0], [0, 0]]"],
                         ids=["collinear", "out_and_back"])
def test_load_tracts_rejects_zero_area(tmp_path, ring):
    path = tmp_path / "tracts.geojson"
    path.write_text(second_polygon(f', "coordinates": [{ring}]'))
    message = f"{path}: tract 2 has zero area (feature 2)"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        load_tracts(str(path))


def two_feature_file(path, id_key):
    """Two tracts or two parcels, with ids 1 and 2."""
    if id_key == "tract_id":
        return two_tract_file(path)
    write_parcels_geojson(path, [Parcel(i, square(50.0 * i, 0.0, 10.0), LandUse.RESIDENTIAL)
                                 for i in (1, 2)])
    return path


LOADERS = pytest.mark.parametrize("id_key, load", [("tract_id", load_tracts),
                                                   ("parcel_id", load_parcels)],
                                  ids=["tracts", "parcels"])


@LOADERS
@pytest.mark.parametrize("bad", ["true", "false"])
def test_load_features_reject_a_boolean_id(tmp_path, id_key, load, bad):
    path = two_feature_file(tmp_path / "ids.geojson", id_key)
    path.write_text(path.read_text().replace(f'"{id_key}": 2', f'"{id_key}": {bad}'))
    with pytest.raises(ValueError, match=rf"ids.geojson: {id_key} (True|False) is not an integer "
                                         r"\(feature 2\)"):
        load(str(path))


@LOADERS
@pytest.mark.parametrize("bad", ["1.5", "1.2", "NaN", "Infinity"])
def test_load_features_reject_a_fractional_id(tmp_path, id_key, load, bad):
    # 1.2 must not read as 1, the first feature's id
    path = two_feature_file(tmp_path / "ids.geojson", id_key)
    path.write_text(path.read_text().replace(f'"{id_key}": 2', f'"{id_key}": {bad}'))
    with pytest.raises(ValueError, match=rf"ids.geojson: {id_key} \S+ is not an integer "
                                         r"\(feature 2\)"):
        load(str(path))


@LOADERS
@pytest.mark.parametrize("bad", [2**63, -2**63 - 1])
def test_load_features_reject_an_id_beyond_int64(tmp_path, id_key, load, bad):
    path = two_feature_file(tmp_path / "ids.geojson", id_key)
    path.write_text(path.read_text().replace(f'"{id_key}": 2', f'"{id_key}": {bad}'))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}: {id_key} {bad} is not an int64 (feature 2)") + "$"):
        load(str(path))


def with_second_feature(path, key, value):
    """Rewrite the GeoJSON file at path with the second feature's `key` set to value."""
    doc = json.loads(path.read_text())
    doc["features"][1][key] = value
    path.write_text(json.dumps(doc))


@LOADERS
def test_load_features_reject_a_vertex_that_is_not_an_array(tmp_path, id_key, load):
    # each 2-character string would unpack to a vertex: a square from (0, 0) to (4, 4)
    path = two_feature_file(tmp_path / "ring.geojson", id_key)
    with_second_feature(path, "geometry",
                        {"type": "Polygon", "coordinates": [["00", "40", "44", "04"]]})
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}: feature 2 coordinates are not a ring of [x, y] numbers") + "$"):
        load(str(path))


@LOADERS
@pytest.mark.parametrize("props", [[], 0, "", False], ids=["list", "zero", "text", "false"])
def test_load_features_reject_properties_that_are_not_an_object(tmp_path, id_key, load, props):
    path = two_feature_file(tmp_path / "props.geojson", id_key)
    with_second_feature(path, "properties", props)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}: feature 2 properties are not an object") + "$"):
        load(str(path))
    with_second_feature(path, "properties", None)  # null is an empty object
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}: {id_key.removesuffix('_id')} feature 2 missing {id_key}") + "$"):
        load(str(path))


@LOADERS
@pytest.mark.parametrize("value, want", [("7", 7), ("2.0", 2), ('"7"', 7)])
def test_load_features_read_whole_ids(tmp_path, id_key, load, value, want):
    path = two_feature_file(tmp_path / "ids.geojson", id_key)
    path.write_text(path.read_text().replace(f'"{id_key}": 2', f'"{id_key}": {value}'))
    assert load(str(path)).ids.tolist() == [1, want]


def two_tract_file(path, second_population=250.0):
    write_tracts_geojson(path, [
        Tract(1, square(0.0, 0.0, 10.0), 100.0, False),
        Tract(2, square(50.0, 0.0, 10.0), second_population, True),
    ])
    return path


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-1.0",
                                 pytest.param("1" + "0" * 400, id="too_large_for_a_float")])
def test_load_tracts_rejects_bad_population(tmp_path, bad):
    path = two_tract_file(tmp_path / "pop.geojson")
    path.write_text(path.read_text().replace("250.0", bad))
    with pytest.raises(ValueError, match=r"pop.geojson: tract 2 population must be finite "
                                         r"and nonnegative \(feature 2\)"):
        load_tracts(str(path))


def test_load_tracts_rejects_a_boolean_population(tmp_path):
    path = two_tract_file(tmp_path / "pop.geojson")
    path.write_text(path.read_text().replace("250.0", "true"))
    with pytest.raises(ValueError, match=r"pop.geojson: population True is not a number "
                                         r"\(feature 2\)"):
        load_tracts(str(path))


@pytest.mark.parametrize("value, want", [("true", True), ("false", False), ("1.0", True)])
def test_load_tracts_reads_is_coc_as_boolean_or_0_1(tmp_path, value, want):
    path = two_tract_file(tmp_path / "coc.geojson")
    path.write_text(path.read_text().replace('"is_coc": 1', f'"is_coc": {value}'))
    assert load_tracts(str(path)).is_coc.tolist() == [False, want]


@pytest.mark.parametrize("bad", ['"false"', '"true"', "2", "null", "0.5"])
def test_load_tracts_rejects_other_is_coc(tmp_path, bad):
    path = two_tract_file(tmp_path / "coc.geojson")
    path.write_text(path.read_text().replace('"is_coc": 1', f'"is_coc": {bad}'))
    with pytest.raises(ValueError, match=r"coc.geojson: is_coc .* is not a boolean or 0/1 "
                                         r"\(feature 2\)"):
        load_tracts(str(path))


@LOADERS
@pytest.mark.parametrize("ring", [
    "[[1e200, 1e200], [2e200, 1e200], [2e200, 2e200], [1e200, 2e200]]",  # inf - inf: NaN
    "[[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]]",  # inf
], ids=["nan", "inf"])
def test_load_features_reject_a_non_finite_area(tmp_path, id_key, load, ring):
    # the coordinates are finite, but the shoelace sum overflows
    path = two_feature_file(tmp_path / "area.geojson", id_key)
    doc = json.loads(path.read_text())
    doc["features"][1]["geometry"]["coordinates"] = [json.loads(ring)]
    path.write_text(json.dumps(doc))
    kind = id_key.removesuffix("_id")
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}: {kind} 2 has a non-finite area (feature 2)") + "$"):
        load(str(path))


# a broken rule planted in a tract feature, and the message that names it
BREAKS = {
    "zero_area": (lambda f: f["geometry"].update(coordinates=[[[0, 0], [1, 0], [2, 0], [0, 0]]]),
                  "tract {id} has zero area"),
    "is_coc": (lambda f: f["properties"].update(is_coc="yes"),
               "is_coc 'yes' is not a boolean or 0/1"),
    "population": (lambda f: f["properties"].update(population=-1.0),
                   "tract {id} population must be finite and nonnegative"),
}


@pytest.mark.parametrize("first, second", [
    ("zero_area", "is_coc"), ("is_coc", "zero_area"), ("population", "zero_area"),
    ("zero_area", "population"), (None, "is_coc"),
])
def test_load_tracts_names_the_first_bad_feature(tmp_path, first, second):
    # whatever the rules broken, the error names the first bad feature in file order
    path = two_tract_file(tmp_path / "tracts.geojson")
    doc = json.loads(path.read_text())
    for feature, broken in zip(doc["features"], (first, second)):
        if broken:
            BREAKS[broken][0](feature)
    path.write_text(json.dumps(doc))
    number, broken = (1, first) if first else (2, second)
    message = f"{path}: {BREAKS[broken][1].format(id=number)} (feature {number})"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        load_tracts(str(path))


# a broken loader rule planted in a tract feature, and the message that names
# it in feature n; each is applied after a table rule's break in the same feature
LOADER_BREAKS = {
    "repeated_id": (lambda f: f["properties"].update(tract_id=1),
                    "duplicate tract_id 1 in feature {n} (first in feature 1)"),
    "fractional_id": (lambda f: f["properties"].update(tract_id=1.5),
                      "tract_id 1.5 is not an integer (feature {n})"),
    "not_polygon": (lambda f: f["geometry"].update(type="Point"),
                    "only Polygon geometries are supported (feature {n})"),
    "non_finite": (lambda f: f["geometry"]["coordinates"][0][1].__setitem__(1, math.nan),
                   "feature {n} has a non-finite coordinate"),
    "string_vertex": (lambda f: f["geometry"]["coordinates"][0].__setitem__(1, ["1", "0"]),
                      "feature {n} coordinates are not a ring of [x, y] numbers"),
}


@pytest.mark.parametrize("loader_break", LOADER_BREAKS)
@pytest.mark.parametrize("table_break", ["zero_area", "is_coc"])
@pytest.mark.parametrize("order", ["loader_rule_first", "table_rule_first", "same_feature"])
def test_load_tracts_names_the_first_bad_feature_by_any_rule(tmp_path, loader_break, table_break,
                                                             order):
    # a loader rule and a table rule broken in features 2 and 3, either way
    # round, or both in feature 2: the error names feature 2, and within a
    # feature the loader's rule comes before the table's
    path = tmp_path / "tracts.geojson"
    write_tracts_geojson(path, [Tract(k, square(50.0 * k, 0.0, 10.0), 100.0, False)
                                for k in (1, 2, 3)])
    doc = json.loads(path.read_text())
    second, third = doc["features"][1:]
    at_table, at_loader = {"loader_rule_first": (third, second), "same_feature": (second, second),
                           "table_rule_first": (second, third)}[order]
    BREAKS[table_break][0](at_table)
    LOADER_BREAKS[loader_break][0](at_loader)
    path.write_text(json.dumps(doc))
    message = (f"{BREAKS[table_break][1].format(id=2)} (feature 2)" if order == "table_rule_first"
               else LOADER_BREAKS[loader_break][1].format(n=2))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        load_tracts(str(path))


def bits(values) -> list[int]:
    return np.array(list(values), dtype=float).view(np.int64).tolist()


# a shape's next point: a new one, or the point before it again (a zero-length segment)
step = st.one_of(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), st.just(None))


def shape_of(steps):
    points = []
    for point in steps:
        points.append(points[-1] if point is None and points else point or (0.0, 0.0))
    return tuple(points)


# shapes of up to 20 points: past 8 terms numpy's own sums add pairwise
shapes = st.lists(st.lists(step, min_size=1, max_size=20).map(shape_of), max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=shapes, rings=shapes, closed=st.lists(st.booleans(), min_size=6, max_size=6),
       few=st.sampled_from((geo._FEW, 0, 2)))
def test_vertex_table_lengths_areas_and_midpoints_are_the_scalar_ones(lines, rings, closed, few):
    # each is added left to right over a shape's segments, as the scalar
    # reference adds it, whichever of the shapes `_sums` adds one by one;
    # rings are given open, or closed by repeating their first point
    rings = [ring + ring[:1] if close else ring for ring, close in zip(rings, closed)]
    xy, sizes = flat(rings)
    with mock.patch.object(geo, "_FEW", few):
        table = vertex_table(lines, False)
        assert (bits(geo.polyline_lengths(table))
                == bits(map(geo_reference.polyline_length, lines)))
        assert (bits(geo._midpoints(table).ravel())
                == bits([c for line in lines for c in geo_reference.link_midpoint(line)]))
        table = geo._Shapes(xy, sizes, True)
        assert geo_reference.polylines_of(table) == [tuple(geo_reference._closed_ring(ring))
                                                     for ring in rings]
        want = [math.nan if len(ring) < 3 else geo_reference.polygon_area(ring) for ring in rings]
        assert bits(geo.ring_rules("ring", sizes, table)[1]) == bits(want)


# GeoJSON values a coordinate, a point or a ring may hold: numbers, and
# what a file can hold in their place
json_number = st.one_of(st.integers(-2**70, 2**70),
                        st.floats(allow_nan=False, allow_infinity=False))
json_odd = st.sampled_from((10**400, -10**400, math.inf, True, False, "1.5", " 2 ", "1_0", "nan",
                            "x", None, [], [1.0], {"a": 1}, "12", "0"))
odd_point = st.one_of(json_odd, st.lists(st.one_of(json_number, json_odd), max_size=3))
good_ring = st.lists(st.lists(json_number, min_size=2, max_size=2), min_size=3, max_size=5)
# a ring with one odd point, or an odd value in place of the ring
odd_ring = st.one_of(st.tuples(good_ring, st.integers(0, 5), odd_point).map(
    lambda r: r[0][:r[1]] + [r[2]] + r[0][r[1]:]), json_odd)


def with_coordinate(ring, k: int, value):
    """The ring with its k-th coordinate, counted round it, set to value."""
    ring = [list(point) for point in ring]
    ring[k // 2 % len(ring)][k % 2] = value
    return ring


# a ring with a coordinate that is not finite, or too large for a float
infinite_ring = st.builds(with_coordinate, good_ring, st.integers(0, 9),
                          st.sampled_from((math.inf, -math.inf, math.nan, 10**400, -10**400)))
# each piece of a feature, well formed (None: as the feature builds it), and what
# a file may hold in its place
PIECES = {
    "ring": (good_ring, st.one_of(odd_ring, infinite_ring)),
    "geometry": (None, st.sampled_from((None, {"type": "Polygon"}, {"type": "Point"},
                                        {"type": "Polygon", "coordinates": []}))),
    "id": (st.integers(1, 8), st.sampled_from((2.0, "3", 1.5, True, 2**63, "x", None))),
    "population": (json_number, json_odd),
    "is_coc": (st.sampled_from((True, False, 0, 1, 1.0)), st.sampled_from((2, "true", None))),
    "land_use": (st.sampled_from("RCIPO"), st.sampled_from(("X", "r", None, ["R"]))),
    "properties": (None, st.sampled_from((None, [], "x"))),
    "feature": (None, st.sampled_from((None, 7, {"type": "Feature"}))),
}
COLUMNS = {"tract_id": ("population", "is_coc"), "parcel_id": ("land_use",)}


@st.composite
def feature_collections(draw, id_key):
    """A FeatureCollection of up to four features, each piece of a feature
    odd one time in sixteen, and each property missing one time in sixteen."""
    def piece(name, well_formed=None):
        good, odd = PIECES[name]
        if draw(st.integers(0, 15)) == 15:
            return draw(odd)
        return well_formed if good is None else draw(good)

    features = []
    for _ in range(draw(st.integers(0, 4))):
        properties = {key: piece(name) for key, name in [(id_key, "id")] + [
            (name, name) for name in COLUMNS[id_key]] if draw(st.integers(0, 15)) < 15}
        features.append(piece("feature", {
            "type": "Feature", "properties": piece("properties", properties),
            "geometry": piece("geometry", {"type": "Polygon", "coordinates": [piece("ring")]})}))
    return {"type": "FeatureCollection", "features": features}


def parcel_with(vertex):
    """A parcels file of one feature whose ring holds vertex third."""
    return "parcel_id", {"type": "FeatureCollection", "features": [{
        "type": "Feature", "properties": {"parcel_id": 1, "land_use": "R"},
        "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [4, 0], vertex, [0, 4]]]}}]}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(("tract_id", "parcel_id")).flatmap(
    lambda key: st.tuples(st.just(key), feature_collections(key))))
# vertices that a float() of each item would read as (1, 2), (0, 0) and (1, 0)
@example(case=parcel_with("12"))
@example(case=parcel_with(["0", "0"]))
@example(case=parcel_with([True, 0]))
def test_loaders_read_every_feature_as_the_reference_does(tmp_path_factory, case):
    # the same ids, rings and columns as the feature-by-feature reading, or
    # its error: the first bad feature in file order, and its first rule
    loader, collection = case
    path = tmp_path_factory.getbasetemp() / "features.geojson"
    path.write_text(json.dumps(collection))
    defaults = ({"population": 0.0, "is_coc": False} if loader == "tract_id"
                else {"land_use": None})
    want = geo_reference.read_polygon_features(str(path), loader, defaults)
    try:
        table = (load_tracts if loader == "tract_id" else load_parcels)(str(path))
    except ValueError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    ids, rings, columns = want
    assert table.ids.tolist() == ids
    assert polylines_of(table.rings) == [tuple(geo_reference._closed_ring(r)) for r in rings]
    if loader == "tract_id":
        assert table.population.tolist() == [float(v) for v in columns[0]]
        assert table.is_coc.tolist() == [bool(v) for v in columns[1]]
    else:
        assert [use.value for use in table.land_use] == columns[0]


@LOADERS
@pytest.mark.parametrize("ring", [[], [[0, 0]], [[0, 0], [0, 0]], [[0, 0], [5, 0], [0, 0]]],
                         ids=["empty", "one_point", "closed_point", "closed_segment"])
def test_load_features_reject_a_ring_of_under_3_points_last(tmp_path, id_key, load, ring):
    # the last feature's ring, a closing point that repeats the first left out
    path = two_feature_file(tmp_path / "short.geojson", id_key)
    doc = json.loads(path.read_text())
    doc["features"][1]["geometry"]["coordinates"] = [ring]
    path.write_text(json.dumps(doc))
    kind = id_key.removesuffix("_id")
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}: {kind} 2 polygon needs >= 3 points (feature 2)") + "$"):
        load(str(path))
