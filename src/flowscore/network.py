"""Road network model: typed nodes and directed links loaded from CSV.

Coordinates are planar meters; link lengths are miles, speeds mph and
capacities veh/h, so derived free-flow times come out in hours.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import geo

METERS_PER_MILE = 1609.344

NODE_COLUMNS = ("node_id", "x", "y")
LINK_COLUMNS = (
    "link_id",
    "from",
    "to",
    "length_miles",
    "speed_mph",
    "capacity_vph",
    "fclass",
    "lanes",
    "wkt_geometry",
)


class LoadError(ValueError):
    """Raised when an input CSV breaks its format or its table's rules; the
    message ends with the file and the row (the header is row 1)."""


class _BadRow(ValueError):
    """A broken table rule at row `position` (0 is the first data row) of
    the table named `table`, where a type holds more than one."""

    def __init__(self, message: str, position: int, table: str = ""):
        super().__init__(message)
        self.position, self.table = position, table


@dataclass
class ValidationReport:
    warnings: list[str] = field(default_factory=list)
    orphans: list[int] = field(default_factory=list)
    main_component_share: float = 1.0

    @property
    def primary_component_ok(self) -> bool:
        return self.main_component_share >= 0.9


class Network:
    """Immutable node/link columns, in input row order, for the solvers.

    `nodes` and `links` map the NODE_COLUMNS and LINK_COLUMNS names to
    their columns, as `read_columns` gives them: `wkt_geometry` is the
    pair of every link's points, as one (N, 2) array, and each link's
    point count. From it the network builds `lines`, the links' vertex
    table (`geo.build_link_index`), the one form of link geometry, which
    every length, midpoint and join reads. Parallel links between the
    same node pair are allowed and keep distinct ids. Node and link ids
    are unique, and every link joins two of the nodes. The main component
    is the largest weakly connected one; of components that tie for
    largest, the one holding the first node.
    """

    def __init__(self, nodes: dict, links: dict):
        self.node_ids = np.array(nodes["node_id"], dtype=np.int64)
        self.node_x, self.node_y = (np.array(nodes[c], dtype=float) for c in ("x", "y"))
        self.link_ids = np.array(links["link_id"], dtype=np.int64)
        from_ids, to_ids = (np.array(links[c], dtype=np.int64) for c in ("from", "to"))
        self.length_miles, self.speed_mph, self.capacity_vph = (
            np.array(links[c], dtype=float) for c in ("length_miles", "speed_mph", "capacity_vph"))
        self.fclass, self.lanes = (np.array(links[c], dtype=np.int64) for c in ("fclass", "lanes"))
        lines = self.lines = geo.build_link_index(*links["wkt_geometry"])
        bad_vertex = ~(np.isfinite(lines.x) & np.isfinite(lines.y))
        nonfinite = geo._any_per(geo._ragged(lines.n_segments + 1)[0], bad_vertex, self.n_links)
        check_rows({"id": self.link_ids, "fclass": self.fclass, "lanes": self.lanes}, {
            "link {id} is a self loop": from_ids == to_ids,
            **{f"nonpositive {name} on link {{id}}": ~(np.isfinite(v) & (v > 0)) for name, v in (
                ("length_miles", self.length_miles), ("speed_mph", self.speed_mph),
                ("capacity_vph", self.capacity_vph))},
            "fclass {fclass} on link {id} not in 1..5": (self.fclass < 1) | (self.fclass > 5),
            "lanes {lanes} on link {id} not in 1..8": (self.lanes < 1) | (self.lanes > 8),
            "link {id} geometry needs >= 2 points": lines.n_segments < 1,
            "non-finite geometry on link {id}": nonfinite,
        }, "links")
        check_rows({"id": self.node_ids}, {"duplicate node id {id}": repeats(self.node_ids)},
                   "nodes")
        self._node_order, self._link_order = np.argsort(self.node_ids), np.argsort(self.link_ids)
        self.link_from, self.link_to = self.node_positions(from_ids), self.node_positions(to_ids)
        check_rows({"id": self.link_ids, "from": from_ids, "to": to_ids}, {
            "duplicate link id {id}": repeats(self.link_ids),
            "unknown node {from} (from) on link {id}": self.link_from < 0,
            "unknown node {to} (to) on link {id}": self.link_to < 0}, "links")
        self.free_flow_h = self.length_miles / self.speed_mph
        self.validation = self._validate()

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_links(self) -> int:
        return len(self.link_ids)

    def node_positions(self, ids) -> np.ndarray:
        """The row of each node id in ids, -1 where no node has it."""
        return _positions(self.node_ids, self._node_order, ids)

    def link_positions(self, ids) -> np.ndarray:
        """The row of each link id in ids, -1 where no link has it."""
        return _positions(self.link_ids, self._link_order, ids)

    def _validate(self) -> ValidationReport:
        report = ValidationReport()
        measured = geo.polyline_lengths(self.lines) / METERS_PER_MILE
        declared = self.length_miles
        for k in np.flatnonzero(abs(measured - declared) > 0.05 * declared).tolist():
            report.warnings.append(
                f"link {self.link_ids[k]}: geometry length {measured[k]:.4f} mi "
                f"differs from declared {declared[k]:.4f} mi by more than 5%"
            )
        if not self.n_nodes:
            return report
        component = _weak_components(self.n_nodes, self.link_from, self.link_to)
        sizes = np.bincount(component)
        main = np.argmax(sizes)  # of tied components, the one labelled by the first node
        report.main_component_share = int(sizes[main]) / self.n_nodes
        report.orphans = self.node_ids[component != main].tolist()
        if not report.primary_component_ok:
            report.warnings.append(
                f"largest weakly connected component holds only "
                f"{report.main_component_share:.1%} of nodes"
            )
        elif report.orphans:
            report.warnings.append(
                f"{len(report.orphans)} node(s) outside the main component: "
                f"{report.orphans}"
            )
        return report


def _weak_components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each node's weakly connected component, labelled by its smallest
    node row, for the links from rows u to rows v. Each round hooks the
    larger root of every link that joins two roots under the smaller one,
    then points every node at its root; a root only ever points lower."""
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        joins = ru != rv
        if not joins.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[joins], np.minimum(ru, rv)[joins])
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def _positions(keys: np.ndarray, order: np.ndarray, ids) -> np.ndarray:
    """The position in keys, sorted by order, of each of ids; -1 where none."""
    ids = np.asarray(ids, dtype=np.int64)
    if not keys.size:
        return np.full(ids.shape, -1, dtype=np.int64)
    at = np.take(order, np.searchsorted(keys, ids, sorter=order), mode="clip")
    return np.where(keys[at] == ids, at, -1)


_WKT_LINESTRING = re.compile(r"\s*LINESTRING\s*\(([^()]*)\)\s*", re.IGNORECASE)


def _linestrings(texts) -> tuple[np.ndarray, np.ndarray]:
    """The points of WKT LINESTRING texts, each the word in any case, then
    one parenthesised list of `x y` pairs, and nothing else but whitespace;
    as one (N, 2) array of every text's points and each text's point
    count: one match per text, then one float conversion of every
    coordinate. Raises ValueError if any text is not a LINESTRING."""
    matches = list(map(_WKT_LINESTRING.fullmatch, texts))
    if None in matches:
        raise ValueError("not a WKT LINESTRING")
    inners = list(map(operator.itemgetter(1), matches))
    # each comma-separated chunk must hold two words: x y, x y, ...
    words = ",".join(inners).replace(",", " , ").split()
    x, y, commas = words[0::3], words[1::3], words[2::3]
    if inners and (len(words) % 3 != 2 or set(commas) - {","} or "," in x or "," in y):
        raise ValueError("malformed coordinate")
    sizes = np.fromiter(map(str.count, inners, itertools.repeat(",")), np.int64, len(inners)) + 1
    return np.column_stack([np.array(x, dtype=float), np.array(y, dtype=float)]), sizes


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class Cell(NamedTuple):
    """How the cells of one CSV column parse: `column(texts)` parses many
    cells in one pass into a list, an array or a tuple of arrays, that
    `read_columns` joins end to end with the next cells'. It raises
    ValueError, OverflowError or KeyError if some cell is not `want`, and
    raises it on that cell alone too.
    """

    column: Callable
    want: str


def per_cell(parse: Callable) -> Callable:
    """The column function that parses each cell by `parse`."""
    return lambda texts: list(map(parse, texts))


def _finite_column(texts) -> np.ndarray:
    values = np.array(texts, dtype=float)
    if np.isfinite(values).all():
        return values
    raise ValueError("non-finite number")


def _link_id_column(texts) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's count of link ids, and every cell's int64 ids end to end."""
    counts = np.fromiter(map(str.count, texts, itertools.repeat("|")), np.int64, len(texts)) + 1
    counts[np.fromiter(map(len, texts), np.int64, len(texts)) == 0] = 0
    joined = "|".join(filter(None, texts))
    return counts, np.array(joined.split("|") if joined else [], dtype=np.int64)


# numpy converts each str with Python's int() or float(); an int beyond
# int64 raises OverflowError
INT64 = Cell(lambda texts: np.array(texts, dtype=np.int64), "an int64")
FINITE = Cell(_finite_column, "a finite number")
NUMBER = Cell(lambda texts: np.array(texts, dtype=float), "a number")
TEXT = Cell(per_cell(str), "text")
WKT = Cell(_linestrings, "a WKT LINESTRING")
LINK_IDS = Cell(_link_id_column, "int64 link ids joined by '|'")


def one_of(choices: dict) -> Cell:
    """A cell that must be one of the keys of `choices`, parsed to its value."""
    return Cell(per_cell(choices.__getitem__), "one of " + ", ".join(choices))


# a trips file's `links` cell joins a whole trip's ids: a trip of 30,000
# links of 5-digit ids outgrows the csv module's default of 128 KiB
csv.field_size_limit(2**31 - 1)


def _csv_rows(path, fh):
    """The non-blank rows of an open CSV file. A row the csv module cannot
    read raises a LoadError that names the file and the row."""
    row_no = 0
    try:
        for row_no, row in enumerate(filter(None, csv.reader(fh)), start=1):
            yield row
    except csv.Error as exc:  # raised while reading the row after row_no
        raise LoadError(f"{exc} in {path}, row {row_no + 1}") from None


def read_columns(path, kind: str, parsers: dict[str, Cell], rest: Cell | None = None) -> dict:
    """The columns named in `parsers` of the CSV file at `path`, in row
    order, each as its Cell's `column` gives it (an array of int64 or of
    float64 for INT64, FINITE and NUMBER); with `rest`, every other column
    of the header too, parsed by `rest`, in header order.

    A missing or repeated column, a row whose cell count differs from the
    header's, or a cell its parser rejects raises a LoadError that names
    the file and the row, and the column and its value. Blank lines are
    skipped. The cells parse _CSV_ROWS rows at a time, a column in one
    pass; when a pass fails, its rows are parsed a cell at a time to name
    the first bad row.
    """
    with open(path, newline="") as fh:
        rows = _csv_rows(path, fh)
        header = next(rows, [])
        for name in parsers:
            if name not in header:
                raise LoadError(f"missing {kind} column {name!r} in {path}, row 1")
        for i, name in enumerate(header):
            if name in header[:i]:
                raise LoadError(f"repeated {kind} column {name!r} in {path}, row 1")
        if rest is not None:
            parsers = {**parsers, **{name: rest for name in header if name not in parsers}}
        parts = {name: [] for name in parsers}
        columns = [(parts[name], header.index(name), cell) for name, cell in parsers.items()]
        row_no = 2  # of the chunk's first row
        while True:  # once at least, so that a header-only file gives typed columns
            chunk = []
            try:
                chunk.extend(itertools.islice(rows, _CSV_ROWS))  # keeps rows read before a raise
                if set(map(len, chunk)) - {len(header)}:
                    raise ValueError("a row's cell count differs from the header's")
                texts = list(zip(*chunk)) or [()] * len(header)
                for part, i, cell in columns:
                    part.append(cell.column(texts[i]))
            except (ValueError, OverflowError, KeyError):  # a LoadError is a ValueError
                # a bad cell before an unreadable row comes first
                _name_bad_row(path, header, parsers, chunk, row_no)
                raise
            if len(chunk) < _CSV_ROWS:
                break
            row_no += len(chunk)
    return {name: _joined(part) for name, part in parts.items()}


_CSV_ROWS = 1 << 9  # rows whose cells parse at a time


def _joined(parts: list):
    """One column from its chunks' parts: arrays and lists end to end, and
    tuples of them part by part."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], tuple):
        return tuple(_joined(list(part)) for part in zip(*parts))
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    return [value for part in parts for value in part]


def _name_bad_row(path, header, parsers: dict[str, Cell], rows: list, row_no: int) -> None:
    """Raise the LoadError of the first of `rows`, rows `row_no` on of the
    CSV file at `path`, whose cell count is not the header's or that has a
    cell its Cell's `column` rejects on its own."""
    cells = [(name, header.index(name), cell) for name, cell in parsers.items()]
    for row_no, row in enumerate(rows, start=row_no):
        if len(row) != len(header):
            raise LoadError(f"{len(row)} cells under a {len(header)}-column header "
                            f"in {path}, row {row_no}")
        for name, i, cell in cells:
            try:
                cell.column([row[i]])
            except (ValueError, OverflowError, KeyError):
                raise LoadError(f"{name} {row[i]!r} is not {cell.want} "
                                f"in {path}, row {row_no}") from None


@contextlib.contextmanager
def naming_rows(path, **paths):
    """Turn a `_BadRow` raised inside into a LoadError naming its file
    (`paths[table]`, else `path`) and its row."""
    try:
        yield
    except _BadRow as exc:
        raise LoadError(f"{exc} in {paths.get(exc.table, path)}, row {exc.position + 2}") from None


def repeats(keys) -> np.ndarray:
    """True at each row whose key an earlier row holds."""
    repeated = np.ones(len(keys), dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    return repeated


def check_rows(columns: dict, rules: dict, table: str = "") -> None:
    """Raise a `_BadRow` of `table` at the first row that breaks a rule.
    `rules` maps each rule's message, formatted with the row's values of
    `columns`, to its mask of breaking rows; a row that breaks several is
    named by the first of them."""
    bad = np.flatnonzero(np.logical_or.reduce(list(rules.values())))
    if bad.size:
        i = int(bad[0])
        rule = next(rule for rule, broken in rules.items() if broken[i])
        raise _BadRow(rule.format(**{name: column[i] for name, column in columns.items()}), i,
                      table)


def load_network(nodes_path: str, links_path: str) -> Network:
    """Read the node and link CSVs; `Network` checks the rows.

    Errors name the file, the offending row (the header is row 1), and
    the column or the broken rule, so bad inputs can be fixed without
    spelunking.
    """
    nodes = read_columns(nodes_path, "nodes", dict(zip(NODE_COLUMNS, (INT64, FINITE, FINITE))))
    links = read_columns(links_path, "links", dict(zip(LINK_COLUMNS, (
        INT64, INT64, INT64, FINITE, FINITE, FINITE, INT64, INT64, WKT))))
    with naming_rows(links_path, nodes=nodes_path):
        return Network(nodes, links)
