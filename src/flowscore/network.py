"""Road network model: typed nodes and directed links loaded from CSV.

Coordinates are planar meters; link lengths are miles, speeds mph and
capacities veh/h, so derived free-flow times come out in hours.
"""
from __future__ import annotations

import contextlib
import csv
import math
from array import array
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


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Link:
    """One directed road segment."""

    id: int
    from_node: int
    to_node: int
    length_miles: float
    speed_mph: float
    capacity_vph: float
    fclass: int
    lanes: int
    geometry: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.from_node == self.to_node:
            raise ValueError(f"link {self.id} is a self loop")
        for name in ("length_miles", "speed_mph", "capacity_vph"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"nonpositive {name} on link {self.id}")
        if self.fclass not in (1, 2, 3, 4, 5):
            raise ValueError(f"fclass {self.fclass} on link {self.id} not in 1..5")
        if not 1 <= self.lanes <= 8:
            raise ValueError(f"lanes {self.lanes} on link {self.id} not in 1..8")
        if len(self.geometry) < 2:
            raise ValueError(f"link {self.id} geometry needs >= 2 points")
        for x, y in self.geometry:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite geometry on link {self.id}")


def free_flow_time(link: Link) -> float:
    """Uncongested traversal time in hours."""
    return link.length_miles / link.speed_mph


@dataclass
class ValidationReport:
    warnings: list[str] = field(default_factory=list)
    orphans: list[int] = field(default_factory=list)
    main_component_share: float = 1.0

    @property
    def primary_component_ok(self) -> bool:
        return self.main_component_share >= 0.9


class Network:
    """Immutable node/link collection with dense arrays for the solvers.

    Links iterate in input row order; parallel links between the same
    node pair are allowed and keep distinct ids.
    """

    def __init__(self, nodes: list[Node], links: list[Link]):
        self.nodes: list[Node] = list(nodes)
        self.links: list[Link] = list(links)
        self.node_by_id: dict[int, Node] = {}
        for i, node in enumerate(self.nodes):
            if node.id in self.node_by_id:
                raise _BadRow(f"duplicate node id {node.id}", i, "nodes")
            self.node_by_id[node.id] = node
        self.link_by_id: dict[int, Link] = {}
        for i, link in enumerate(self.links):
            if link.id in self.link_by_id:
                raise _BadRow(f"duplicate link id {link.id}", i, "links")
            for end, node in (("from", link.from_node), ("to", link.to_node)):
                if node not in self.node_by_id:
                    raise _BadRow(f"unknown node {node} ({end}) on link {link.id}", i, "links")
            self.link_by_id[link.id] = link

        self.node_index: dict[int, int] = {n.id: i for i, n in enumerate(self.nodes)}
        self.link_index: dict[int, int] = {l.id: i for i, l in enumerate(self.links)}
        self.link_ids = np.array([l.id for l in self.links], dtype=np.int64)
        self.link_from = np.array(
            [self.node_index[l.from_node] for l in self.links], dtype=np.int64
        )
        self.link_to = np.array(
            [self.node_index[l.to_node] for l in self.links], dtype=np.int64
        )
        self.length_miles = np.array([l.length_miles for l in self.links], dtype=float)
        self.speed_mph = np.array([l.speed_mph for l in self.links], dtype=float)
        self.capacity_vph = np.array([l.capacity_vph for l in self.links], dtype=float)
        self.free_flow_h = self.length_miles / self.speed_mph
        self.lanes = np.array([l.lanes for l in self.links], dtype=np.int64)
        self.fclass = np.array([l.fclass for l in self.links], dtype=np.int64)
        self._routing_cache = None
        self.validation = self._validate()

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def _validate(self) -> ValidationReport:
        report = ValidationReport()
        for link in self.links:
            measured = geo.polyline_length(link.geometry) / METERS_PER_MILE
            declared = link.length_miles
            if abs(measured - declared) > 0.05 * declared:
                report.warnings.append(
                    f"link {link.id}: geometry length {measured:.4f} mi "
                    f"differs from declared {declared:.4f} mi by more than 5%"
                )
        if not self.nodes:
            return report
        parent = list(range(self.n_nodes))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in zip(self.link_from, self.link_to):
            ru, rv = find(int(u)), find(int(v))
            if ru != rv:
                parent[ru] = rv
        sizes: dict[int, int] = {}
        for i in range(self.n_nodes):
            sizes[find(i)] = sizes.get(find(i), 0) + 1
        main_root = max(sizes, key=lambda r: (sizes[r], -r))
        report.main_component_share = sizes[main_root] / self.n_nodes
        report.orphans = [
            self.nodes[i].id for i in range(self.n_nodes) if find(i) != main_root
        ]
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


def parse_wkt_linestring(text: str) -> tuple[tuple[float, float], ...]:
    body = text.strip()
    upper = body.upper()
    if not upper.startswith("LINESTRING"):
        raise ValueError(f"not a LINESTRING: {text!r}")
    open_idx = body.find("(")
    close_idx = body.rfind(")")
    if open_idx < 0 or close_idx < open_idx:
        raise ValueError(f"malformed LINESTRING: {text!r}")
    points = []
    for chunk in body[open_idx + 1 : close_idx].split(","):
        parts = chunk.split()
        if len(parts) != 2:
            raise ValueError(f"malformed coordinate {chunk!r} in {text!r}")
        points.append((float(parts[0]), float(parts[1])))
    return tuple(points)


def format_wkt_linestring(points: tuple[tuple[float, float], ...]) -> str:
    inner = ", ".join(f"{repr(float(x))} {repr(float(y))}" for x, y in points)
    return f"LINESTRING ({inner})"


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class Cell(NamedTuple):
    """How the cells of one CSV column parse: `parse(text)` raises
    ValueError, OverflowError or KeyError on a cell that is not `want`."""

    parse: Callable[[str], object]
    want: str


def _int64(text: str) -> int:
    value = int(text)
    if -(1 << 63) <= value < 1 << 63:
        return value
    raise OverflowError(text)


def _finite(text: str) -> float:
    value = float(text)
    if math.isfinite(value):
        return value
    raise ValueError(text)


INT64 = Cell(_int64, "an int64")
FINITE = Cell(_finite, "a finite number")
NUMBER = Cell(float, "a number")
TEXT = Cell(str, "text")
WKT = Cell(parse_wkt_linestring, "a WKT LINESTRING")


def _link_ids(text: str) -> array:
    """A trip's links as int64s in an array("q"), which holds them in 8
    bytes each where a list of ints holds a pointer and an int object."""
    return array("q", map(int, text.split("|")) if text else ())


LINK_IDS = Cell(_link_ids, "int64 link ids joined by '|'")


def one_of(choices: dict) -> Cell:
    """A cell that must be one of the keys of `choices`, parsed to its value."""
    return Cell(choices.__getitem__, "one of " + ", ".join(choices))


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
    """The columns named in `parsers` of the CSV file at `path`, each a list
    of its cells parsed in row order; with `rest`, every other column of
    the header too, parsed by `rest`, in header order.

    A missing or repeated column, a row whose cell count differs from the
    header's, or a cell its parser rejects raises a LoadError that names
    the file and the row, and the column and its value. Blank lines are
    skipped.
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
        columns = {name: [] for name in parsers}
        cells = [(name, columns[name], header.index(name), cell.parse)
                 for name, cell in parsers.items()]
        for row_no, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise LoadError(f"{len(row)} cells under a {len(header)}-column header "
                                f"in {path}, row {row_no}")
            try:
                for name, column, i, parse in cells:
                    column.append(parse(row[i]))
            except (ValueError, OverflowError, KeyError):
                raise LoadError(f"{name} {row[i]!r} is not {parsers[name].want} "
                                f"in {path}, row {row_no}") from None
    return columns


@contextlib.contextmanager
def naming_rows(path, **paths):
    """Turn a `_BadRow` raised inside into a LoadError naming its file
    (`paths[table]`, else `path`) and its row."""
    try:
        yield
    except _BadRow as exc:
        raise LoadError(f"{exc} in {paths.get(exc.table, path)}, row {exc.position + 2}") from None


def read_rows(path, kind: str, parsers: dict[str, Cell], make) -> list:
    """make(*row) for each row of `read_columns`, columns in `parsers` order;
    a ValueError that make raises names the file and the row."""
    columns = read_columns(path, kind, parsers)
    made = []
    try:
        for row in zip(*columns.values()):
            made.append(make(*row))
    except ValueError as exc:
        raise LoadError(f"{exc} in {path}, row {len(made) + 2}") from None
    return made


def repeats(keys) -> np.ndarray:
    """True at each row whose key an earlier row holds."""
    repeated = np.ones(len(keys), dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    return repeated


def check_rows(columns: dict, rules: dict) -> None:
    """Raise a `_BadRow` at the first row that breaks a rule. `rules` maps
    each rule's message, formatted with the row's values of `columns`, to
    its mask of breaking rows; a row that breaks several is named by the
    first of them."""
    bad = np.flatnonzero(np.logical_or.reduce(list(rules.values())))
    if bad.size:
        i = int(bad[0])
        rule = next(rule for rule, broken in rules.items() if broken[i])
        raise _BadRow(rule.format(**{name: column[i] for name, column in columns.items()}), i)


def load_network(nodes_path: str, links_path: str) -> Network:
    """Read the node and link CSVs; `Link` and `Network` check the rows.

    Errors name the file, the offending row (the header is row 1), and
    the column or the broken rule, so bad inputs can be fixed without
    spelunking.
    """
    nodes = read_rows(nodes_path, "nodes", dict(zip(NODE_COLUMNS, (INT64, FINITE, FINITE))), Node)
    links = read_rows(links_path, "links", dict(zip(LINK_COLUMNS, (
        INT64, INT64, INT64, FINITE, FINITE, FINITE, INT64, INT64, WKT))), Link)
    with naming_rows(links_path, nodes=nodes_path):
        return Network(nodes, links)


def save_network(network: Network, nodes_path: str, links_path: str) -> None:
    """Write the network back out; load_network(save_network(n)) == n."""
    write_csv(nodes_path, NODE_COLUMNS,
              ([node.id, repr(float(node.x)), repr(float(node.y))] for node in network.nodes))
    write_csv(links_path, LINK_COLUMNS, (
        [
            link.id,
            link.from_node,
            link.to_node,
            repr(float(link.length_miles)),
            repr(float(link.speed_mph)),
            repr(float(link.capacity_vph)),
            link.fclass,
            link.lanes,
            format_wkt_linestring(link.geometry),
        ]
        for link in network.links
    ))
