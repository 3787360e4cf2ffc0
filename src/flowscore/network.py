"""Road network model: typed nodes and directed links loaded from CSV.

Coordinates are planar meters; link lengths are miles, speeds mph and
capacities veh/h, so derived free-flow times come out in hours.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

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
    """Raised when a network input file violates the interchange contract."""


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
        for node in self.nodes:
            if node.id in self.node_by_id:
                raise ValueError(f"duplicate node id {node.id}")
            self.node_by_id[node.id] = node
        self.link_by_id: dict[int, Link] = {}
        for link in self.links:
            if link.id in self.link_by_id:
                raise ValueError(f"duplicate link id {link.id}")
            if link.from_node not in self.node_by_id:
                raise ValueError(f"unknown node {link.from_node} on link {link.id}")
            if link.to_node not in self.node_by_id:
                raise ValueError(f"unknown node {link.to_node} on link {link.id}")
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


def _require_columns(fieldnames, required, path: str, kind: str) -> None:
    present = set(fieldnames or ())
    for col in required:
        if col not in present:
            raise LoadError(f"missing column '{col}' in {kind} file {path}")


def _parse_int(raw: str, col: str, row: int) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise LoadError(f"non-numeric {col}, row {row}") from None


def _parse_float(raw: str, col: str, row: int) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise LoadError(f"non-numeric {col}, row {row}") from None
    if not math.isfinite(value):
        raise LoadError(f"non-numeric {col}, row {row}")
    return value


def load_network(nodes_path: str, links_path: str) -> Network:
    """Read the node and link CSVs, validating every field.

    Errors name the offending row (physical line, header is row 1) and
    column so bad inputs can be fixed without spelunking.
    """
    nodes: list[Node] = []
    with open(nodes_path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader.fieldnames, NODE_COLUMNS, nodes_path, "nodes")
        for row_no, row in enumerate(reader, start=2):
            nodes.append(
                Node(
                    id=_parse_int(row["node_id"], "node_id", row_no),
                    x=_parse_float(row["x"], "x", row_no),
                    y=_parse_float(row["y"], "y", row_no),
                )
            )
    node_ids = {n.id for n in nodes}
    if len(node_ids) != len(nodes):
        raise LoadError(f"duplicate node ids in {nodes_path}")

    links: list[Link] = []
    with open(links_path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader.fieldnames, LINK_COLUMNS, links_path, "links")
        seen: set[int] = set()
        for row_no, row in enumerate(reader, start=2):
            link_id = _parse_int(row["link_id"], "link_id", row_no)
            if link_id in seen:
                raise LoadError(f"duplicate link_id {link_id}, row {row_no}")
            seen.add(link_id)
            from_node = _parse_int(row["from"], "from", row_no)
            to_node = _parse_int(row["to"], "to", row_no)
            for node_ref, col in ((from_node, "from"), (to_node, "to")):
                if node_ref not in node_ids:
                    raise LoadError(f"unknown node {node_ref} in {col}, row {row_no}")
            if from_node == to_node:
                raise LoadError(f"self loop on link {link_id}, row {row_no}")
            values = {}
            for col in ("length_miles", "speed_mph", "capacity_vph"):
                value = _parse_float(row[col], col, row_no)
                if value <= 0:
                    raise LoadError(f"nonpositive {col}, row {row_no}")
                values[col] = value
            fclass = _parse_int(row["fclass"], "fclass", row_no)
            if fclass not in (1, 2, 3, 4, 5):
                raise LoadError(f"fclass out of range 1..5, row {row_no}")
            lanes = _parse_int(row["lanes"], "lanes", row_no)
            if not 1 <= lanes <= 8:
                raise LoadError(f"lanes out of range 1..8, row {row_no}")
            try:
                geometry = parse_wkt_linestring(row["wkt_geometry"])
            except ValueError as exc:
                raise LoadError(f"bad wkt_geometry, row {row_no}: {exc}") from None
            links.append(
                Link(
                    id=link_id,
                    from_node=from_node,
                    to_node=to_node,
                    length_miles=values["length_miles"],
                    speed_mph=values["speed_mph"],
                    capacity_vph=values["capacity_vph"],
                    fclass=fclass,
                    lanes=lanes,
                    geometry=geometry,
                )
            )
    return Network(nodes, links)


def save_network(network: Network, nodes_path: str, links_path: str) -> None:
    """Write the network back out; load_network(save_network(n)) == n."""
    with open(nodes_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(NODE_COLUMNS)
        for node in network.nodes:
            writer.writerow([node.id, repr(float(node.x)), repr(float(node.y))])
    with open(links_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LINK_COLUMNS)
        for link in network.links:
            writer.writerow(
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
            )
