"""The network's table rules checked one row at a time: the reference that
the `check_rows` masks of flowscore.network.Network must match.

`link_error` is the per-link check that the network's link objects once
made as each was built; `first_error` adds the table-wide rules after it,
in the network's order. `read_columns_by_row` is the CSV column reader's
row loop, which the column-at-a-time reader must match.
"""
import csv
import math

from flowscore.network import LoadError


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


def read_columns_by_row(path, kind: str, parsers: dict) -> dict:
    """`flowscore.network.read_columns` one cell at a time: the csv module's
    rows, each cell parsed by its Cell's `parse`, each column the list of
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
                    columns[name].append(cell.parse(text))
                except (ValueError, OverflowError, KeyError):
                    raise LoadError(f"{name} {text!r} is not {cell.want} "
                                    f"in {path}, row {row_no}") from None
    return columns
