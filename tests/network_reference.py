"""The network's table rules checked one row at a time: the reference that
the `check_rows` masks of flowscore.network.Network must match.

`link_error` is the per-link check that the network's link objects once
made as each was built; `first_error` adds the table-wide rules after it,
in the network's order. `read_columns_by_row` is the CSV column reader's
row loop, which parses each cell by Python's rules, `PARSE`; the
column-at-a-time reader must match it. `validation`
is the network's ValidationReport from scipy's weakly connected
components, which the network's own numpy count must match.
"""
import csv
import math
from array import array

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from flowscore import geo
from flowscore.network import (FINITE, INT64, LINK_IDS, METERS_PER_MILE, NUMBER, WKT, LoadError,
                               ValidationReport, _WKT_LINESTRING)


def link_error(link) -> str | None:
    """The first rule that one Link row breaks, or None."""
    if link.from_node == link.to_node:
        return f"link {link.id} is a self loop"
    for name in ("length_miles", "speed_mph", "capacity_vph"):
        value = getattr(link, name)
        if not math.isfinite(value) or value <= 0:
            return f"nonpositive {name} on link {link.id}"
    if link.fclass not in (1, 2, 3, 4, 5):
        return f"fclass {link.fclass} on link {link.id} not in 1..5"
    if not 1 <= link.lanes <= 8:
        return f"lanes {link.lanes} on link {link.id} not in 1..8"
    if len(link.geometry) < 2:
        return f"link {link.id} geometry needs >= 2 points"
    for x, y in link.geometry:
        if not (math.isfinite(x) and math.isfinite(y)):
            return f"non-finite geometry on link {link.id}"
    return None


def first_error(nodes, links):
    """(table, row, message) of the first broken rule, or None: the link
    rows' own rules first, then repeated node ids, then repeated link ids
    and unknown endpoints, each scan in row order."""
    for row, link in enumerate(links):
        message = link_error(link)
        if message is not None:
            return "links", row, message
    seen = set()
    for row, node in enumerate(nodes):
        if node.id in seen:
            return "nodes", row, f"duplicate node id {node.id}"
        seen.add(node.id)
    node_ids, seen = {node.id for node in nodes}, set()
    for row, link in enumerate(links):
        if link.id in seen:
            return "links", row, f"duplicate link id {link.id}"
        seen.add(link.id)
        for end, node_id in (("from", link.from_node), ("to", link.to_node)):
            if node_id not in node_ids:
                return "links", row, f"unknown node {node_id} ({end}) on link {link.id}"
    return None


def int64(text: str) -> int:
    value = int(text)
    if -(1 << 63) <= value < 1 << 63:
        return value
    raise OverflowError(text)


def finite(text: str) -> float:
    value = float(text)
    if math.isfinite(value):
        return value
    raise ValueError(text)


def wkt_linestring(text: str) -> tuple[tuple[float, float], ...]:
    """The points of a WKT LINESTRING: the word in any case, then one
    parenthesised list of `x y` pairs, and nothing else but whitespace."""
    match = _WKT_LINESTRING.fullmatch(text)
    if match is None:
        raise ValueError(f"not a WKT LINESTRING: {text!r}")
    points = []
    for chunk in match[1].split(","):
        parts = chunk.split()
        if len(parts) != 2:
            raise ValueError(f"malformed coordinate {chunk!r} in {text!r}")
        points.append((float(parts[0]), float(parts[1])))
    return tuple(points)


def link_ids(text: str) -> array:
    """A trip's links as int64s in an array("q"), which rejects an id
    beyond int64 as the column's one pass does."""
    return array("q", map(int, text.split("|")) if text else ())


# each Cell's parser of one cell: it raises ValueError or OverflowError on
# a cell that is not the Cell's `want`
PARSE = {INT64: int64, FINITE: finite, NUMBER: float, WKT: wkt_linestring, LINK_IDS: link_ids}


def read_columns_by_row(path, kind: str, parsers: dict) -> dict:
    """`flowscore.network.read_columns` one cell at a time: the csv module's
    rows, each cell parsed by `PARSE[cell]`, each column the list of
    its parsed cells. A missing column, a row whose cell count differs
    from the header's, or a cell that does not parse raises read_columns'
    LoadError, for the first such row."""
    with open(path, newline="") as fh:
        rows = filter(None, csv.reader(fh))
        header = next(rows, [])
        for name in parsers:
            if name not in header:
                raise LoadError(f"missing {kind} column {name!r} in {path}, row 1")
        columns = {name: [] for name in parsers}
        for row_no, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise LoadError(f"{len(row)} cells under a {len(header)}-column header "
                                f"in {path}, row {row_no}")
            for name, cell in parsers.items():
                text = row[header.index(name)]
                try:
                    columns[name].append(PARSE[cell](text))
                except (ValueError, OverflowError, KeyError):
                    raise LoadError(f"{name} {text!r} is not {cell.want} "
                                    f"in {path}, row {row_no}") from None
    return columns


def validation(net) -> ValidationReport:
    """The network's checks with scipy's `connected_components(connection=
    "weak")`: the length warnings, then the main component, the largest one
    (of tied ones, the one holding the first node), its share of the nodes
    and the nodes outside it."""
    report = ValidationReport()
    measured = geo.polyline_lengths(net.lines) / METERS_PER_MILE
    declared = net.length_miles
    for k in np.flatnonzero(abs(measured - declared) > 0.05 * declared).tolist():
        report.warnings.append(
            f"link {net.link_ids[k]}: geometry length {measured[k]:.4f} mi "
            f"differs from declared {declared[k]:.4f} mi by more than 5%"
        )
    if not net.n_nodes:
        return report
    n = net.n_nodes
    graph = csr_matrix((np.ones(net.n_links), (net.link_from, net.link_to)), shape=(n, n))
    component = connected_components(graph, connection="weak")[1]
    sizes = np.bincount(component)
    main = component[np.flatnonzero(sizes[component] == sizes.max())[0]]
    report.main_component_share = int(sizes[main]) / n
    report.orphans = net.node_ids[component != main].tolist()
    if not report.primary_component_ok:
        report.warnings.append(
            f"largest weakly connected component holds only "
            f"{report.main_component_share:.1%} of nodes"
        )
    elif report.orphans:
        report.warnings.append(
            f"{len(report.orphans)} node(s) outside the main component: {report.orphans}")
    return report
