import json
import math

import numpy as np
import pytest

from flowscore.typology import (
    LandUse,
    StreetType,
    TransportContext,
    _dominant_land_uses,
    classify_network,
    classify_street,
    load_parcels,
    read_link_types,
    transport_context,
    write_link_types,
)

import fixtures
import geo_reference
from fixtures import (Link, Node, Parcel, grid_network, links_of, parcel_table, parcels_of, square,
                      vertex_table, write_parcels_geojson)

HALF_MILE_M = 804.672

# Each case: (fclass, speed, parcel specs, hand label). A parcel spec is
# (land_use_code, gap_m, half_size_m); gap is the distance from the street
# centerline to the parcel's near edge. Cases replicate 5x to 100 links.
HAND_CASES = [
    (1, 65.0, [("R", 10.0, 50.0)], StreetType.HIGHWAY),
    (2, 55.0, [("C", 10.0, 50.0)], StreetType.HIGHWAY),
    (3, 55.0, [("R", 10.0, 50.0)], StreetType.HIGHWAY),
    (3, 50.0, [("R", 10.0, 50.0)], StreetType.RESIDENTIAL_THROUGHWAY),
    (3, 50.1, [("R", 10.0, 50.0)], StreetType.HIGHWAY),
    (4, 40.0, [("R", 10.0, 50.0)], StreetType.RESIDENTIAL_THROUGHWAY),
    (4, 40.0, [("C", 10.0, 50.0)], StreetType.COMMERCIAL_THROUGHWAY),
    (4, 40.0, [("I", 10.0, 50.0)], StreetType.INDUSTRIAL),
    (4, 40.0, [("P", 10.0, 50.0)], StreetType.PSP),
    (4, 40.0, [], StreetType.OTHERS),
    (5, 25.0, [("R", 10.0, 50.0)], StreetType.NEIGHBORHOOD_RESIDENTIAL),
    (5, 25.0, [("C", 10.0, 50.0)], StreetType.NEIGHBORHOOD_COMMERCIAL),
    (5, 25.0, [("I", 10.0, 50.0)], StreetType.INDUSTRIAL),
    (5, 25.0, [("P", 10.0, 50.0)], StreetType.PSP),
    (5, 25.0, [], StreetType.OTHERS),
    # larger commercial parcel beats a closer, smaller residential one
    (5, 25.0, [("C", 10.0, 100.0), ("R", 5.0, 30.0)], StreetType.NEIGHBORHOOD_COMMERCIAL),
    # equal areas: the earlier (smaller) parcel id wins
    (5, 25.0, [("R", 10.0, 50.0), ("C", 10.0, 50.0)], StreetType.NEIGHBORHOOD_RESIDENTIAL),
    # exactly on the 20 m buffer counts
    (5, 25.0, [("R", 20.0, 50.0)], StreetType.NEIGHBORHOOD_RESIDENTIAL),
    # just past the buffer does not
    (5, 25.0, [("R", 20.5, 50.0)], StreetType.OTHERS),
    (4, 45.0, [("O", 10.0, 50.0)], StreetType.OTHERS),
]


def hand_labeled_fixture(scale: float = 1.0):
    """100 isolated street segments with parcels placed at exact gaps.

    Returns (network, parcels table, expected label per link row). Labels
    come from the HAND_CASES table, not from the classifier.
    """
    nodes, links, parcels = [], [], []
    expected = []
    parcel_id = 1
    for k in range(100):
        fclass, speed, specs, label = HAND_CASES[k % len(HAND_CASES)]
        x0 = 2000.0 * k * scale
        x1 = x0 + HALF_MILE_M * scale
        a = Node(2 * k + 1, x0, 0.0)
        b = Node(2 * k + 2, x1, 0.0)
        nodes += [a, b]
        link = Link(k + 1, a.id, b.id, 0.5, speed, 800.0, fclass, 2,
                    ((x0, 0.0), (x1, 0.0)))
        links.append(link)
        expected.append(label)
        cx = (x0 + x1) / 2.0
        for code, gap, half in specs:
            g, h = gap * scale, half * scale
            parcels.append(
                Parcel(parcel_id, square(cx, -(g + h), h), LandUse(code))
            )
            parcel_id += 1
    return fixtures.network(nodes, links), parcel_table(parcels), expected


def _street(fclass, speed, link_id=1):
    return Link(link_id, 1, 2, 0.5, speed, 800.0, fclass, 2,
                ((0.0, 0.0), (HALF_MILE_M, 0.0)))


def test_transport_context_rules():
    assert transport_context(1, 65.0) is TransportContext.HIGHWAY
    assert transport_context(2, 40.0) is TransportContext.HIGHWAY
    assert transport_context(3, 50.1) is TransportContext.HIGHWAY
    assert transport_context(3, 50.0) is TransportContext.THROUGHWAY
    assert transport_context(3, 35.0) is TransportContext.THROUGHWAY
    assert transport_context(4, 55.0) is TransportContext.THROUGHWAY
    assert transport_context(5, 25.0) is TransportContext.NEIGHBORHOOD_STREET


def test_classify_street_total_mapping():
    H, T, N = (TransportContext.HIGHWAY, TransportContext.THROUGHWAY,
               TransportContext.NEIGHBORHOOD_STREET)
    for use in LandUse:
        assert classify_street(H, use) is StreetType.HIGHWAY
    assert classify_street(N, LandUse.RESIDENTIAL) is StreetType.NEIGHBORHOOD_RESIDENTIAL
    assert classify_street(T, LandUse.RESIDENTIAL) is StreetType.RESIDENTIAL_THROUGHWAY
    assert classify_street(N, LandUse.COMMERCIAL) is StreetType.NEIGHBORHOOD_COMMERCIAL
    assert classify_street(T, LandUse.COMMERCIAL) is StreetType.COMMERCIAL_THROUGHWAY
    for ctx in (T, N):
        assert classify_street(ctx, LandUse.INDUSTRIAL) is StreetType.INDUSTRIAL
        assert classify_street(ctx, LandUse.PUBLIC) is StreetType.PSP
        assert classify_street(ctx, LandUse.OTHER) is StreetType.OTHERS


def test_hand_labeled_fixture_zero_mismatches():
    network, parcels, expected = hand_labeled_fixture()
    got = classify_network(network, parcels)
    mismatches = {row: (label, want) for row, (label, want) in enumerate(zip(got, expected))
                  if label is not want}
    assert mismatches == {}
    assert len(got) == 100


def test_classification_survives_similarity_scaling():
    # same labels when the whole plane and the buffer scale together
    network, parcels, expected = hand_labeled_fixture(scale=3.7)
    got = classify_network(network, parcels, adjacency_buffer_m=20.0 * 3.7)
    assert [t.value for t in got] == [t.value for t in expected]


def test_dominant_land_use_index_agrees_with_scan():
    network, parcels, _ = hand_labeled_fixture()
    for row, link in enumerate(links_of(network)):
        want = geo_reference.dominant_land_use(link, parcels_of(parcels), 20.0)
        assert _dominant_land_uses(network.lines, [row], parcels, 20.0)[0] is want


def test_dominant_land_use_rejects_a_negative_or_non_finite_buffer():
    network, parcels, _ = hand_labeled_fixture()
    # a negative buffer made every link OTHER, even one a parcel touches;
    # a non-finite one has no cells to look in
    for buffer_m in (-5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _dominant_land_uses(network.lines, [0], parcels, buffer_m)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            classify_network(network, parcels, buffer_m)


def test_dominant_land_use_no_candidates():
    lines = vertex_table([_street(5, 25.0).geometry], False)
    assert _dominant_land_uses(lines, [0], parcel_table([]), 20.0)[0] is LandUse.OTHER


def test_classify_network_without_parcels_gives_others():
    types = classify_network(grid_network(3, 3), parcel_table([]))
    assert set(types.tolist()) == {StreetType.OTHERS}


def test_parcel_area_validation():
    poly = square(0.0, 0.0, 50.0)  # area 10,000
    assert parcel_table([Parcel(1, poly, LandUse.RESIDENTIAL)]).area[0] == pytest.approx(10_000.0)
    with pytest.raises(ValueError, match="zero area"):
        parcel_table([Parcel(2, ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), LandUse.RESIDENTIAL)])
    with pytest.raises(ValueError, match=">= 3 points"):
        parcel_table([Parcel(3, ((0.0, 0.0), (1.0, 0.0)), LandUse.RESIDENTIAL)])


def test_load_parcels_roundtrip_and_validation(tmp_path):
    parcels = [
        Parcel(1, square(0.0, 0.0, 30.0), LandUse.COMMERCIAL),
        Parcel(2, square(100.0, 0.0, 40.0), LandUse.PUBLIC),
    ]
    path = tmp_path / "parcels.geojson"
    write_parcels_geojson(path, parcels)
    assert parcels_of(load_parcels(str(path))) == parcels

    bad = tmp_path / "bad.geojson"
    bad.write_text(
        '{"type": "FeatureCollection", "features": [{"type": "Feature",'
        '"properties": {"parcel_id": 1, "land_use": "X"}, "geometry":'
        '{"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}]}'
    )
    with pytest.raises(ValueError, match="bad land_use"):
        load_parcels(str(bad))

    stringy = tmp_path / "stringy.geojson"
    stringy.write_text(
        '{"type": "FeatureCollection", "features": [{"type": "Feature",'
        '"properties": {"parcel_id": "P1", "land_use": "R"}, "geometry":'
        '{"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}]}'
    )
    with pytest.raises(ValueError, match="parcel_id 'P1' is not an integer"):
        load_parcels(str(stringy))


@pytest.mark.parametrize("land_use, ring, rule", [
    ("X", [[0, 0], [1, 0], [1, 1], [0, 0]], "bad land_use 'X', want one of R,C,I,P,O"),
    (["R"], [[0, 0], [1, 0], [1, 1], [0, 0]], "bad land_use ['R'], want one of R,C,I,P,O"),
    ("R", [[0, 0], [1, 0], [2, 0], [0, 0]], "parcel 2 has zero area"),
    ("R", [[0, 0], [1, 0], [0, 0]], "parcel 2 polygon needs >= 3 points"),
    # finite coordinates whose shoelace sum overflows: inf - inf is NaN, then inf
    ("I", [[1e200, 1e200], [2e200, 1e200], [2e200, 2e200], [1e200, 2e200]],
     "parcel 2 has a non-finite area"),
    ("I", [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]], "parcel 2 has a non-finite area"),
])
def test_load_parcels_errors_name_the_file_and_the_feature(tmp_path, land_use, ring, rule):
    path = tmp_path / "parcels.geojson"
    write_parcels_geojson(path, [Parcel(1, square(0.0, 0.0, 30.0), LandUse.COMMERCIAL)])
    doc = json.loads(path.read_text())
    doc["features"].append({"type": "Feature", "properties": {"parcel_id": 2, "land_use": land_use},
                            "geometry": {"type": "Polygon", "coordinates": [ring]}})
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as caught:
        load_parcels(str(path))
    assert str(caught.value) == f"{path}: {rule} (feature 2)"


def test_link_types_csv_roundtrip(tmp_path):
    network, parcels, _ = hand_labeled_fixture()
    types = classify_network(network, parcels)
    path = tmp_path / "link_types.csv"
    write_link_types(path, types, network)
    assert read_link_types(path, network).tolist() == types.tolist()
    # rows follow network link order
    lines = path.read_text().splitlines()
    assert lines[0] == "link_id,street_type"
    assert lines[1].startswith("1,")
    assert len(lines) == 101
    # a file in another row order reads back in the network's
    path.write_text("\n".join(lines[:1] + lines[:0:-1]))
    assert read_link_types(path, network).tolist() == types.tolist()


def test_load_parcels_rejects_duplicate_ids(tmp_path):
    near = Parcel(7, square(100.0, -30.0, 20.0), LandUse.COMMERCIAL)
    far = Parcel(7, square(5100.0, 5000.0, 20.0), LandUse.RESIDENTIAL)
    path = tmp_path / "dup.geojson"
    write_parcels_geojson(path, [near, far])
    with pytest.raises(ValueError, match=r"duplicate parcel_id 7 in feature 2 \(first in feature 1\)"):
        load_parcels(str(path))


def test_load_parcels_rejects_non_finite_coordinates(tmp_path):
    ok = Parcel(1, square(0.0, 0.0, 30.0), LandUse.COMMERCIAL)
    bad = Parcel(2, ((0.0, 0.0), (60.0, 0.0), (60.0, 60.0), (0.0, 60.0)), LandUse.RESIDENTIAL)
    path = tmp_path / "nan.geojson"
    write_parcels_geojson(path, [ok, bad])
    path.write_text(path.read_text().replace("[60.0, 60.0]", "[60.0, NaN]"))
    with pytest.raises(ValueError, match="nan.geojson: feature 2 has a non-finite coordinate"):
        load_parcels(str(path))


def test_load_parcels_rejects_a_coordinate_too_large_for_a_float(tmp_path):
    ok = Parcel(1, square(0.0, 0.0, 30.0), LandUse.COMMERCIAL)
    bad = Parcel(2, ((0.0, 0.0), (60.0, 0.0), (60.0, 60.0), (0.0, 60.0)), LandUse.RESIDENTIAL)
    path = tmp_path / "huge.geojson"
    write_parcels_geojson(path, [ok, bad])
    path.write_text(path.read_text().replace("[60.0, 60.0]", "[60.0, 1" + "0" * 400 + "]"))
    with pytest.raises(ValueError, match="huge.geojson: feature 2 has a non-finite coordinate"):
        load_parcels(str(path))


@pytest.mark.parametrize("ids, message", [
    ([1, 1, 2, 3], "duplicate link_id 1 in {path}, row 3"),
    ([1, 2, 3, 99], "{path} has no street type for link 4"),
    ([1, 2, 3, 4, 99, 2], "duplicate link_id 2 in {path}, row 7"),
    ([7, 1, 2, 3, 4, 99], "unknown link_id 7 in {path}, row 2"),
], ids=["repeat_before_missing", "missing_before_unknown", "repeat_before_unknown",
        "first_unknown"])
def test_read_link_types_names_the_first_of_several_faults(tmp_path, ids, message):
    network = grid_network(1, 3)  # links 1 to 4
    path = tmp_path / "link_types.csv"
    path.write_text("".join(["link_id,street_type\n", *(f"{i},Highway\n" for i in ids)]))
    with pytest.raises(ValueError) as caught:
        read_link_types(path, network)
    assert str(caught.value) == message.format(path=path)
