import csv

import pytest

from flowscore.network import (
    METERS_PER_MILE,
    Link,
    Network,
    Node,
    format_wkt_linestring,
    free_flow_time,
    load_network,
    parse_wkt_linestring,
    save_network,
)

from fixtures import grid_network, pigou_network, straight_link


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def wkt(*points):
    return format_wkt_linestring(tuple(points))


def valid_files(tmp_path):
    nodes = tmp_path / "nodes.csv"
    links = tmp_path / "links.csv"
    write_csv(nodes, ["node_id", "x", "y"], [[1, 0.0, 0.0], [2, 1609.344, 0.0]])
    write_csv(
        links,
        ["link_id", "from", "to", "length_miles", "speed_mph", "capacity_vph",
         "fclass", "lanes", "wkt_geometry"],
        [[10, 1, 2, 1.0, 30.0, 600.0, 5, 2, wkt((0.0, 0.0), (1609.344, 0.0))]],
    )
    return str(nodes), str(links)


def test_load_minimal_network(tmp_path):
    net = load_network(*valid_files(tmp_path))
    assert net.n_nodes == 2 and net.n_links == 1
    link = net.link_by_id[10]
    assert link.from_node == 1 and link.to_node == 2
    assert free_flow_time(link) == pytest.approx(1.0 / 30.0)
    assert net.validation.warnings == []
    assert net.validation.primary_component_ok


def test_wkt_roundtrip():
    pts = ((0.0, 0.0), (12.5, -3.75), (100.125, 42.0))
    assert parse_wkt_linestring(format_wkt_linestring(pts)) == pts
    assert parse_wkt_linestring("linestring(0 1, 2 3)") == ((0.0, 1.0), (2.0, 3.0))
    with pytest.raises(ValueError):
        parse_wkt_linestring("POINT (0 0)")
    with pytest.raises(ValueError):
        parse_wkt_linestring("LINESTRING (0 0, 1)")
    with pytest.raises(ValueError):
        parse_wkt_linestring("LINESTRING 0 0, 1 1")


def test_save_load_roundtrip(tmp_path):
    net = pigou_network()
    nodes = str(tmp_path / "n.csv")
    links = str(tmp_path / "l.csv")
    save_network(net, nodes, links)
    loaded = load_network(nodes, links)
    assert [n.id for n in loaded.nodes] == [n.id for n in net.nodes]
    for a, b in zip(net.links, loaded.links):
        assert a == b  # frozen dataclasses compare by value


def test_link_constructor_validation():
    geom = ((0.0, 0.0), (1609.344, 0.0))
    with pytest.raises(ValueError):
        Link(1, 2, 2, 1.0, 30.0, 600.0, 5, 2, geom)
    with pytest.raises(ValueError):
        Link(1, 1, 2, 1.0, 30.0, 600.0, 0, 2, geom)
    with pytest.raises(ValueError):
        Link(1, 1, 2, 1.0, 30.0, 600.0, 5, 2, ((0.0, 0.0),))
    with pytest.raises(ValueError):
        Link(1, 1, 2, float("inf"), 30.0, 600.0, 5, 2, geom)


def test_geometry_length_warning(tmp_path):
    nodes, links = valid_files(tmp_path)
    header = ["link_id", "from", "to", "length_miles", "speed_mph", "capacity_vph",
              "fclass", "lanes", "wkt_geometry"]
    # declares 2 miles but draws 1 mile
    write_csv(links, header,
              [[10, 1, 2, 2.0, 30.0, 600.0, 5, 2, wkt((0.0, 0.0), (1609.344, 0.0))]])
    net = load_network(nodes, links)
    assert len(net.validation.warnings) == 1
    assert "link 10" in net.validation.warnings[0]
    assert "5%" in net.validation.warnings[0]


def test_component_analysis():
    # 3x3 grid plus two stranded nodes tied to each other
    base = grid_network(3, 3, spacing_miles=0.5)
    extra_nodes = list(base.nodes) + [Node(100, 9e4, 9e4), Node(101, 9e4, 9e4 + 804.672)]
    extra_links = list(base.links) + [
        straight_link(900, extra_nodes[-2], extra_nodes[-1], 30.0, 600.0, 5, 2)
    ]
    net = Network(extra_nodes, extra_links)
    assert net.validation.orphans == [100, 101]
    assert net.validation.main_component_share == pytest.approx(9.0 / 11.0)
    assert not net.validation.primary_component_ok
    assert any("largest weakly connected" in w for w in net.validation.warnings)


def test_orphans_listed_when_component_still_ok():
    base = grid_network(5, 5, spacing_miles=0.5)
    nodes = list(base.nodes) + [Node(200, 5e4, 5e4)]
    net = Network(nodes, list(base.links))
    assert net.validation.orphans == [200]
    assert net.validation.primary_component_ok
    assert any("outside the main component" in w for w in net.validation.warnings)


def test_parallel_links_kept_distinct():
    net = pigou_network()
    assert net.n_links == 2
    assert net.link_ids[net.link_from == net.node_index[1]].tolist() == [1, 2]
    assert net.link_by_id[1].capacity_vph != net.link_by_id[2].capacity_vph


def test_network_rejects_duplicate_and_dangling():
    nodes = [Node(1, 0.0, 0.0), Node(2, 100.0, 0.0)]
    link = straight_link(1, nodes[0], nodes[1], 30.0, 600.0, 5, 2)
    with pytest.raises(ValueError, match="duplicate node id"):
        Network(nodes + [Node(1, 5.0, 5.0)], [link])
    with pytest.raises(ValueError, match="duplicate link id"):
        Network(nodes, [link, link])
    dangling = Link(2, 1, 3, 1.0, 30.0, 600.0, 5, 2, ((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match="unknown node 3"):
        Network(nodes, [link, dangling])
