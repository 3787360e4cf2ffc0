import csv
import itertools
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowscore import network
from flowscore.network import (FINITE, INT64, LINK_IDS, METERS_PER_MILE, NUMBER, WKT, LoadError,
                               _BadRow, load_network, read_columns)

import fixtures
import network_reference
from fixtures import (Link, Node, format_wkt_linestring, grid_network, links_of, nodes_of,
                      pigou_network, save_network, straight_link)


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
    link = links_of(net)[net.link_positions(10)]
    assert link.from_node == 1 and link.to_node == 2
    assert net.free_flow_h[net.link_positions(10)] == pytest.approx(1.0 / 30.0)
    assert net.validation.warnings == []
    assert net.validation.primary_component_ok


def test_wkt_roundtrip():
    pts = ((0.0, 0.0), (12.5, -3.75), (100.125, 42.0))
    xy, sizes = WKT.column([format_wkt_linestring(pts), "linestring(0 1, 2 3)"])
    assert xy.tolist() == [[*p] for p in pts + ((0.0, 1.0), (2.0, 3.0))]
    assert sizes.tolist() == [3, 2]
    for text, message in (("POINT (0 0)", "not a WKT LINESTRING"),
                          ("LINESTRING (0 0, 1)", "malformed coordinate"),
                          ("LINESTRING 0 0, 1 1", "not a WKT LINESTRING"),
                          ("LINESTRING (0 0, 1 1) trailing", "not a WKT LINESTRING"),
                          ("LINESTRINGFOO (0 0, 1 1)", "not a WKT LINESTRING")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WKT.column([text])


def test_save_load_roundtrip(tmp_path):
    net = pigou_network()
    nodes = str(tmp_path / "n.csv")
    links = str(tmp_path / "l.csv")
    save_network(net, nodes, links)
    loaded = load_network(nodes, links)
    assert [n.id for n in nodes_of(loaded)] == [n.id for n in nodes_of(net)]
    for a, b in zip(links_of(net), links_of(loaded)):
        assert a == b


def test_link_constructor_validation():
    geom = ((0.0, 0.0), (1609.344, 0.0))
    nodes = [Node(1, 0.0, 0.0), Node(2, 1609.344, 0.0)]
    with pytest.raises(ValueError):
        fixtures.network(nodes, [Link(1, 2, 2, 1.0, 30.0, 600.0, 5, 2, geom)])
    with pytest.raises(ValueError):
        fixtures.network(nodes, [Link(1, 1, 2, 1.0, 30.0, 600.0, 0, 2, geom)])
    with pytest.raises(ValueError):
        fixtures.network(nodes, [Link(1, 1, 2, 1.0, 30.0, 600.0, 5, 2, ((0.0, 0.0),))])
    with pytest.raises(ValueError):
        fixtures.network(nodes, [Link(1, 1, 2, float("inf"), 30.0, 600.0, 5, 2, geom)])


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
    extra_nodes = nodes_of(base) + [Node(100, 9e4, 9e4), Node(101, 9e4, 9e4 + 804.672)]
    extra_links = links_of(base) + [
        straight_link(900, extra_nodes[-2], extra_nodes[-1], 30.0, 600.0, 5, 2)
    ]
    net = fixtures.network(extra_nodes, extra_links)
    assert net.validation.orphans == [100, 101]
    assert net.validation.main_component_share == pytest.approx(9.0 / 11.0)
    assert not net.validation.primary_component_ok
    assert any("largest weakly connected" in w for w in net.validation.warnings)
    # of two components that tie for largest, the main one holds the first node
    a, b, c, d = (Node(i, 1000.0 * i, 0.0) for i in (1, 2, 3, 4))
    tied = fixtures.network([a, b, c, d], [straight_link(1, a, d, 30.0, 600.0, 5, 2),
                                  straight_link(2, b, c, 30.0, 600.0, 5, 2)])
    assert tied.validation.orphans == [2, 3]
    assert tied.validation.main_component_share == 0.5


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 30))
def test_components_match_scipys(data, n):
    """Random multigraphs, with isolated nodes, parallel and opposed links and
    node ids in any order, give scipy's weakly connected components."""
    ids = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
    nodes = [Node(node_id, 500.0 * k, 0.0) for k, node_id in enumerate(ids)]
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pairs = data.draw(st.lists(ends, max_size=2 * n)) if n > 1 else []
    net = fixtures.network(nodes, [straight_link(k, nodes[a], nodes[b], 30.0, 600.0, 5, 2)
                                   for k, (a, b) in enumerate(pairs)])
    assert net.validation == network_reference.validation(net)


def test_orphans_listed_when_component_still_ok():
    base = grid_network(5, 5, spacing_miles=0.5)
    nodes = nodes_of(base) + [Node(200, 5e4, 5e4)]
    net = fixtures.network(nodes, links_of(base))
    assert net.validation.orphans == [200]
    assert net.validation.primary_component_ok
    assert any("outside the main component" in w for w in net.validation.warnings)


def test_parallel_links_kept_distinct():
    net = pigou_network()
    assert net.n_links == 2
    assert net.link_ids[net.link_from == net.node_positions([1])[0]].tolist() == [1, 2]
    assert net.capacity_vph[net.link_positions(1)] != net.capacity_vph[net.link_positions(2)]


def test_network_rejects_duplicate_and_dangling():
    nodes = [Node(1, 0.0, 0.0), Node(2, 100.0, 0.0)]
    link = straight_link(1, nodes[0], nodes[1], 30.0, 600.0, 5, 2)
    with pytest.raises(ValueError, match="duplicate node id"):
        fixtures.network(nodes + [Node(1, 5.0, 5.0)], [link])
    with pytest.raises(ValueError, match="duplicate link id"):
        fixtures.network(nodes, [link, link])
    dangling = Link(2, 1, 3, 1.0, 30.0, 600.0, 5, 2, ((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match="unknown node 3"):
        fixtures.network(nodes, [link, dangling])


def random_tables(rng):
    """Valid node and link rows: unique shuffled ids, links between two
    distinct nodes drawn with two or three points."""
    n_nodes, n_links = int(rng.integers(2, 8)), int(rng.integers(2, 10))
    node_ids = (rng.permutation(10 * n_nodes)[:n_nodes] + 1).tolist()
    xy = rng.uniform(0.0, 5000.0, (n_nodes, 2)).tolist()
    nodes = [Node(i, x, y) for i, (x, y) in zip(node_ids, xy)]
    links = []
    for link_id in (rng.permutation(10 * n_links)[:n_links] + 1).tolist():
        a, b = (nodes[k] for k in rng.choice(n_nodes, 2, replace=False))
        bend = map(tuple, rng.uniform(0.0, 5000.0, (int(rng.integers(0, 2)), 2)).tolist())
        links.append(Link(link_id, a.id, b.id, float(rng.uniform(0.1, 3.0)),
                          float(rng.uniform(15.0, 70.0)), float(rng.uniform(100.0, 2000.0)),
                          int(rng.integers(1, 6)), int(rng.integers(1, 9)),
                          ((a.x, a.y), *bend, (b.x, b.y))))
    return nodes, links


BAD_NUMBERS = (0.0, -1.5, math.nan, math.inf, -math.inf)


def plant(rng, nodes, links) -> None:
    """Break one cell of a random row, by any of the network's rules."""
    k = int(rng.integers(len(links)))
    link = links[k]
    unknown = max(n.id for n in nodes) + 1 + int(rng.integers(3))
    kind = int(rng.integers(11))
    if kind == 0:
        i, j = (int(r) for r in rng.choice(len(nodes), 2, replace=False))
        nodes[i] = nodes[i]._replace(id=nodes[j].id)
    elif kind == 1:
        other = (k + 1 + int(rng.integers(len(links) - 1))) % len(links)
        links[k] = link._replace(id=links[other].id)
    elif kind == 2:
        links[k] = link._replace(to_node=link.from_node)
    elif kind in (3, 4, 5):
        name = ("length_miles", "speed_mph", "capacity_vph")[kind - 3]
        links[k] = link._replace(**{name: BAD_NUMBERS[int(rng.integers(len(BAD_NUMBERS)))]})
    elif kind == 6:
        links[k] = link._replace(fclass=int(rng.choice([-1, 0, 6, 99])))
    elif kind == 7:
        links[k] = link._replace(lanes=int(rng.choice([-2, 0, 9])))
    elif kind == 8:
        links[k] = link._replace(geometry=link.geometry[:1])
    elif kind == 9:
        points = list(link.geometry)
        m = int(rng.integers(len(points)))
        points[m] = (math.nan, points[m][1]) if rng.random() < 0.5 else (points[m][0], -math.inf)
        links[k] = link._replace(geometry=tuple(points))
    else:
        links[k] = link._replace(**{str(rng.choice(["from_node", "to_node"])): unknown})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_bad=st.integers(1, 3))
def test_network_rules_match_the_row_by_row_reference(seed, n_bad):
    rng = np.random.default_rng(seed)
    nodes, links = random_tables(rng)
    assert network_reference.first_error(nodes, links) is None
    for _ in range(n_bad):
        plant(rng, nodes, links)
    want = network_reference.first_error(nodes, links)
    assert want is not None or n_bad > 1  # a later plant can mend an earlier one
    try:
        fixtures.network(nodes, links)
        got = None
    except _BadRow as exc:
        got = (exc.table, exc.position, str(exc))
    assert got == want


# Cell texts that Python's int() and float() read in ways a C parser may
# not, or that some Cells must reject: underscores, surrounding spaces,
# non-ASCII digits, NaN and infinities, overflow, hexadecimal, a fraction
# or an int beyond int64 in an int64 column, and cells that hold a comma
NUMBER_TEXTS = ("0", "7", "-12", "+3", "1_000", "1__0", " 12 ", "\u2003 5\t", "\u0661\u0662",
                "\u0661.\u0665", "nan", "-nan", "NaN", "inf", "-Infinity", "1e400", "-1e400",
                "1e-400", "0x10", "1.0", "2.5", "-0.0", "1e5", "99999999999999999999",
                "9223372036854775807", "-9223372036854775808", "9223372036854775808", "",
                " ", "1,5", "a", "1 2")
READER_CELLS = {"id": INT64, "x": FINITE, "y": NUMBER, "links": LINK_IDS, "geometry": WKT}

trap = st.sampled_from(NUMBER_TEXTS)
rarely = st.integers(0, 5).map(lambda k: k == 3)
int_text = st.one_of(st.integers(-2**63, 2**63 - 1).map(str), trap)
float_text = st.one_of(st.floats().map(repr), st.integers().map(str), trap)  # NaN and inf too
link_ids_text = st.lists(int_text, max_size=3).map("|".join)
wkt_text = st.one_of(
    st.lists(st.tuples(float_text, float_text), min_size=1, max_size=3).map(
        lambda points: "LINESTRING (" + ", ".join(f"{x} {y}" for x, y in points) + ")"),
    st.sampled_from(("LINESTRING (0 0, 1 1)", "linestring(1 2,3 4)", "LINESTRING ()",
                     "LINESTRING (0 0, 1)", "POINT (0 0)", "LINESTRING (0 0, 1 1) x",
                     " LINESTRING ( 1_0 \u0661 , -0.0 inf ) ")))
clean_row = st.tuples(st.integers(-2**63, 2**63 - 1).map(str),
                      *[st.floats(allow_nan=False, allow_infinity=False).map(repr)] * 2,
                      st.lists(st.integers(0, 10**6), max_size=3).map(
                          lambda ids: "|".join(map(str, ids))),
                      st.sampled_from(("LINESTRING (0 0, 1 1)", "LINESTRING (0 0, 1 1, 2 0)")))
# a row with one trap, so that the trap alone decides whether the fast pass holds
trap_row = st.tuples(clean_row, st.sampled_from(range(5)), st.tuples(
    int_text, float_text, float_text, link_ids_text, wkt_text)).map(
    lambda row: row[0][:row[1]] + row[2][row[1]:row[1] + 1] + row[0][row[1] + 1:])
reader_row = st.tuples(st.one_of(clean_row, trap_row),
                       rarely,  # quote every cell of the row
                       st.booleans(),  # a blank line after the row
                       rarely)  # the row loses its last cell


def reader_text(rows, newline: str, names) -> str:
    """A CSV text of a header of these column names and these rows, each
    cut to as many cells, quoting a cell that holds a comma (as a WKT
    cell does) or that its row asks to quote."""
    lines = [",".join(names)]
    for cells, quoted, blank, short in rows:
        cells = [f'"{c}"' if quoted or "," in c else c for c in cells[:len(names)]]
        lines.append(",".join(cells[:-1] if short else cells))
        lines += [""] * blank
    return newline.join(lines) + newline


def comparable(columns: dict) -> dict:
    """read_columns' columns with every float as its bits."""
    counts, ids = columns["links"]
    got = {"id": columns["id"].tolist(), "x": columns["x"].view(np.int64).tolist(),
           "y": columns["y"].view(np.int64).tolist(), "links": (counts.tolist(), ids.tolist())}
    if "geometry" in columns:
        xy, sizes = columns["geometry"]
        got["geometry"] = (xy.view(np.int64).tolist(), sizes.tolist())
    return got


def comparable_by_row(columns: dict) -> dict:
    """The row loop's columns in `comparable`'s form."""
    want = {"id": columns["id"],
            "x": np.array(columns["x"], dtype=float).view(np.int64).tolist(),
            "y": np.array(columns["y"], dtype=float).view(np.int64).tolist(),
            "links": (list(map(len, columns["links"])),
                      [i for ids in columns["links"] for i in ids])}
    if "geometry" in columns:
        lines = columns["geometry"]
        xy = np.array([p for line in lines for p in line], dtype=float).reshape(-1, 2)
        want["geometry"] = (xy.view(np.int64).tolist(), list(map(len, lines)))
    return want


def outcome(read, form):
    try:
        return form(read())
    except LoadError as exc:
        return str(exc)


def one_trap(column: int, text: str):
    """A clean row, then a row whose one cell at `column` is `text`."""
    clean = ("1", "0.5", "2.5", "7|8", "LINESTRING (0 0, 1 1)")
    trapped = clean[:column] + (text,) + clean[column + 1:]
    return [(clean, False, False, False), (trapped, False, False, False)]


def with_each_trap(test):
    """`test` with an explicit example for each trap named above, so that
    each is read whatever hypothesis draws."""
    for column, texts in ((0, ("1_000", " 12 ", "\u0661\u0662", "1.0", "99999999999999999999",
                               "0x10", "nan")),
                          (1, ("nan", "inf", "-inf", "1e400", "1_000", "\u0661.\u0665", "1,5")),
                          (2, ("nan", "1e400", "0x10")),
                          (3, ("1|99999999999999999999", "1||2", " 3 |\u0664")),
                          (4, ("LINESTRING (nan 0, 1 1)", "LINESTRING (0x10 0, 1 1)"))):
        for text, wkt in itertools.product(texts, (column == 4, True)):
            test = example(rows=one_trap(column, text), newline="\r\n",
                           csv_rows=network._CSV_ROWS, wkt=wkt)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(reader_row, max_size=6), newline=st.sampled_from(("\r\n", "\n", "\r")),
       csv_rows=st.sampled_from((network._CSV_ROWS, 1, 2)), wkt=st.booleans())
@with_each_trap
def test_column_reader_matches_the_row_loop(rows, newline, csv_rows, wkt):
    # read_columns parses each column in one pass per chunk of rows; its
    # columns, bit for bit, or its error message must be the row loop's
    cells = dict(list(READER_CELLS.items())[:5 if wkt else 4])
    with (tempfile.TemporaryDirectory() as tmp,
          mock.patch.object(network, "_CSV_ROWS", csv_rows)):
        path = Path(tmp) / "table.csv"
        path.write_text(reader_text(rows, newline, cells), newline="")
        got = outcome(lambda: read_columns(path, "test", cells), comparable)
        want = outcome(lambda: network_reference.read_columns_by_row(path, "test", cells),
                       comparable_by_row)
    assert got == want
