import math

import numpy as np
import pytest

from flowscore.network import Link, Network, Node
from flowscore.typology import (
    LandUse,
    Parcel,
    StreetType,
    TransportContext,
    classify_network,
    classify_street,
    dominant_land_use,
    load_parcels,
    read_link_types,
    transport_context,
    write_link_types,
)

import geo_reference
from fixtures import grid_network, square, write_parcels_geojson

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

    Returns (network, parcels, expected labels by link id). Labels come
    from the HAND_CASES table, not from the classifier.
    """
    nodes, links, parcels = [], [], []
    expected = {}
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
        expected[link.id] = label
        cx = (x0 + x1) / 2.0
        for code, gap, half in specs:
            g, h = gap * scale, half * scale
            parcels.append(
                Parcel(parcel_id, square(cx, -(g + h), h), LandUse(code))
            )
            parcel_id += 1
    return Network(nodes, links), parcels, expected


def _street(fclass, speed, link_id=1):
    return Link(link_id, 1, 2, 0.5, speed, 800.0, fclass, 2,
                ((0.0, 0.0), (HALF_MILE_M, 0.0)))


def test_transport_context_rules():
    assert transport_context(_street(1, 65.0)) is TransportContext.HIGHWAY
    assert transport_context(_street(2, 40.0)) is TransportContext.HIGHWAY
    assert transport_context(_street(3, 50.1)) is TransportContext.HIGHWAY
    assert transport_context(_street(3, 50.0)) is TransportContext.THROUGHWAY
    assert transport_context(_street(3, 35.0)) is TransportContext.THROUGHWAY
    assert transport_context(_street(4, 55.0)) is TransportContext.THROUGHWAY
    assert transport_context(_street(5, 25.0)) is TransportContext.NEIGHBORHOOD_STREET


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
    mismatches = {i: (got[i], expected[i]) for i in expected if got[i] is not expected[i]}
    assert mismatches == {}
    assert len(got) == 100


def test_classification_survives_similarity_scaling():
    # same labels when the whole plane and the buffer scale together
    network, parcels, expected = hand_labeled_fixture(scale=3.7)
    got = classify_network(network, parcels, adjacency_buffer_m=20.0 * 3.7)
    assert {i: got[i].value for i in got} == {i: expected[i].value for i in expected}


def test_dominant_land_use_index_agrees_with_scan():
    network, parcels, _ = hand_labeled_fixture()
    for link in network.links:
        assert dominant_land_use(link, parcels, 20.0) is geo_reference.dominant_land_use(link, parcels, 20.0)


def test_dominant_land_use_rejects_a_negative_or_non_finite_buffer():
    network, parcels, _ = hand_labeled_fixture()
    # a negative buffer made every link OTHER, even one a parcel touches;
    # a non-finite one has no cells to look in
    for buffer_m in (-5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dominant_land_use(network.links[0], parcels, buffer_m)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            classify_network(network, parcels, buffer_m)


def test_dominant_land_use_no_candidates():
    link = _street(5, 25.0)
    assert dominant_land_use(link, [], 20.0) is LandUse.OTHER


def test_classify_network_without_parcels_gives_others():
    types = classify_network(grid_network(3, 3), [])
    assert set(types.values()) == {StreetType.OTHERS}


def test_parcel_area_validation():
    poly = square(0.0, 0.0, 50.0)  # area 10,000
    assert Parcel(1, poly, LandUse.RESIDENTIAL).area == pytest.approx(10_000.0)
    assert Parcel(1, poly, LandUse.RESIDENTIAL, area=10_050.0).area == 10_050.0
    with pytest.raises(ValueError, match="more than 1%"):
        Parcel(1, poly, LandUse.RESIDENTIAL, area=12_000.0)
    with pytest.raises(ValueError, match="zero area"):
        Parcel(2, ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), LandUse.RESIDENTIAL)
    with pytest.raises(ValueError, match=">= 3 points"):
        Parcel(3, ((0.0, 0.0), (1.0, 0.0)), LandUse.RESIDENTIAL)


def test_load_parcels_roundtrip_and_validation(tmp_path):
    parcels = [
        Parcel(1, square(0.0, 0.0, 30.0), LandUse.COMMERCIAL),
        Parcel(2, square(100.0, 0.0, 40.0), LandUse.PUBLIC),
    ]
    path = tmp_path / "parcels.geojson"
    write_parcels_geojson(path, parcels)
    loaded = load_parcels(str(path))
    assert [(p.id, p.land_use) for p in loaded] == [(1, LandUse.COMMERCIAL), (2, LandUse.PUBLIC)]
    assert loaded[0].polygon == parcels[0].polygon

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


def test_link_types_csv_roundtrip(tmp_path):
    network, parcels, _ = hand_labeled_fixture()
    types = classify_network(network, parcels)
    path = tmp_path / "link_types.csv"
    write_link_types(path, types, network)
    assert read_link_types(path) == types
    # rows follow network link order
    lines = path.read_text().splitlines()
    assert lines[0] == "link_id,street_type"
    assert lines[1].startswith("1,")
    assert len(lines) == 101


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
