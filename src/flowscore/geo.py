"""Planar geometry helpers and the spatial joins built on them.

Everything works in meters on projected coordinates. Each join takes its
candidate pairs from one box join, `_candidates`, and decides every pair
with the batched exact predicates. Boundary cases are inclusive
throughout: a point on a polygon edge is inside, a geometry at exactly
the query radius is returned.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

Point = tuple[float, float]
BBox = tuple[float, float, float, float]

_EPS = 1e-9


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _crosses_properly(a: Point, b: Point, c: Point, d: Point):
    """Segments ab and cd cross at a point interior to both.

    Works elementwise when the coordinates are numpy columns.
    """
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    return (
        ((o1 > 0) != (o2 > 0)) & ((o3 > 0) != (o4 > 0))
        & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0)
    )


def _closed_ring(polygon) -> list[Point]:
    ring = list(polygon)
    if ring[0] != ring[-1]:
        ring.append(ring[0])
    return ring


def polygon_area(polygon) -> float:
    ring = _closed_ring(polygon)
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:]):
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2.0


def polyline_length(polyline) -> float:
    # added left to right: sum() compensates float rounding on Python >= 3.12,
    # which can move a midpoint by an ulp and so flip a tract on a shared edge
    total = 0.0
    for (x0, y0), (x1, y1) in zip(polyline, polyline[1:]):
        total += math.hypot(x1 - x0, y1 - y0)
    return total


def point_along_polyline(polyline, distance: float) -> Point:
    """Point at the given arc length from the start, clamped to the ends."""
    if distance <= 0:
        return polyline[0]
    walked = 0.0
    for a, b in zip(polyline, polyline[1:]):
        seg = math.hypot(b[0] - a[0], b[1] - a[1])
        if walked + seg >= distance and seg > 0:
            t = (distance - walked) / seg
            return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        walked += seg
    return polyline[-1]


def polyline_bbox(polyline) -> BBox:
    xs = [p[0] for p in polyline]
    ys = [p[1] for p in polyline]
    return (min(xs), min(ys), max(xs), max(ys))


def build_link_index(network) -> np.ndarray:
    """The (n_links, 4) bounding boxes of the links, in network.links order."""
    return np.array([polyline_bbox(link.geometry) for link in network.links], dtype=float).reshape(-1, 4)


def links_within_radius(point: Point, radius_m: float, network) -> list[int]:
    """Ids of links whose geometry comes within radius_m of point (inclusive)."""
    return links_within_radii([point], radius_m, network)[0]


def links_within_radii(points, radius_m: float, network) -> list[list[int]]:
    """Per point, the sorted ids of the links whose geometry comes within
    radius_m of it (inclusive)."""
    if not 0 <= radius_m < math.inf:  # NaN fails too
        raise ValueError("radius must be finite and nonnegative")
    p = np.array(points, dtype=float).reshape(-1, 2)
    boxes = [_padded((x, y, x, y), radius_m) for x, y in p.tolist()]
    point, link = _candidates(boxes, build_link_index(network))
    lines = _Shapes([line.geometry for line in network.links], False)
    within = np.zeros(len(point), dtype=bool)
    for lo, hi in _chunks(lines.n_segments[link].tolist()):
        pair, m = _ragged(lines.n_segments[link[lo:hi]])
        k = point[lo:hi][pair]
        near = _segment_within((p[k, 0], p[k, 1]), *lines.segment(link[lo:hi][pair], m), radius_m)
        within[lo:hi] = _any_per(pair, near, hi - lo)
    ends = np.cumsum(np.bincount(point[within], minlength=len(p)))
    return [sorted(ids.tolist()) for ids in np.split(network.link_ids[link[within]], ends)[:-1]]


@dataclass(frozen=True)
class Tract:
    id: int
    polygon: tuple[Point, ...]
    population: float
    is_coc: bool

    def __post_init__(self) -> None:
        if len(self.polygon) < 3:
            raise ValueError(f"tract {self.id} polygon needs >= 3 points")
        if not (math.isfinite(self.population) and self.population >= 0):
            raise ValueError(f"tract {self.id} population must be finite and nonnegative")


def link_midpoint(link) -> Point:
    return point_along_polyline(link.geometry, polyline_length(link.geometry) / 2.0)


def link_tracts(links, tracts) -> list:
    """Per link, the id of the first tract in input order that holds the link's
    length midpoint, boundary included, or None (validate_tracts reports overlaps)."""
    mids = np.array([link_midpoint(link) for link in links], dtype=float).reshape(-1, 2)
    boxes = [_padded((x, y, x, y), 0.0) for x, y in mids.tolist()]
    link, tract = _candidates(boxes, [polyline_bbox(t.polygon) for t in tracts])
    inside = np.zeros(len(link), dtype=bool)
    for lo, hi in _chunks([len(tracts[j].polygon) + 1 for j in tract.tolist()]):
        rings = _Shapes([tracts[j].polygon for j in tract[lo:hi].tolist()], True)
        k = link[lo:hi]
        on, odd = _points_in_rings((mids[k, 0], mids[k, 1]), np.arange(hi - lo), rings)
        inside[lo:hi] = on | odd
    first: dict[int, int] = {}  # pairs run by link and then by tract position
    for k, j in zip(link[inside].tolist(), tract[inside].tolist()):
        first.setdefault(k, j)
    return [tracts[first[k]].id if k in first else None for k in range(len(mids))]


def validate_tracts(tracts) -> list[str]:
    """Warn on tract pairs whose interiors appear to overlap.

    Only pairs whose bboxes touch are tested; warnings follow input order.
    """
    boxes = [polyline_bbox(t.polygon) for t in tracts]
    i, j = _candidates(boxes, boxes)
    i, j = i[j > i].tolist(), j[j > i].tolist()
    overlap = polygons_overlap([tracts[a].polygon for a in i], [tracts[b].polygon for b in j])
    return [
        f"tracts {tracts[a].id} and {tracts[b].id} overlap"
        for a, b, hit in zip(i, j, overlap.tolist())
        if hit
    ]


# Batched exact predicates. They run over numpy columns with the same
# IEEE operations, in the same order, as the scalar reference in
# tests/geo_reference.py, so each answer is the scalar one bit for bit.
# Work goes in chunks of about _CHUNK items to bound memory.

_CHUNK = 1 << 14


class _Shapes:
    """Vertices of many polylines or rings as flat numpy columns.

    Shape k's vertices start at first[k]; its n_segments[k] segments join
    consecutive vertices. Rings are closed the way _closed_ring closes them.
    """

    def __init__(self, shapes, closed: bool):
        points, sizes = [], []
        for shape in shapes:
            pts = _closed_ring(shape) if closed else shape
            points.extend(pts)
            sizes.append(len(pts))
        xy = np.array(points, dtype=float).reshape(-1, 2)
        self.x, self.y = xy[:, 0], xy[:, 1]
        sizes = np.array(sizes, dtype=np.int64)
        self.first = np.cumsum(sizes) - sizes
        self.n_segments = sizes - 1

    def vertex(self, k, m):
        v = self.first[k] + m
        return self.x[v], self.y[v]

    def segment(self, k, m):
        """Endpoints of segment m of shape k."""
        return self.vertex(k, m), self.vertex(k, m + 1)


def _ragged(counts):
    """Owner k and local index m < counts[k] of every item."""
    owner = np.repeat(np.arange(len(counts)), counts)
    local = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, local


def _pairs_of(n_a, n_b):
    """Owner k and index pair (i, j), i < n_a[k], j < n_b[k], of every item."""
    owner, local = _ragged(n_a * n_b)
    width = n_b[owner]
    return owner, local // width, local % width


def _any_per(owner, mask, n: int) -> np.ndarray:
    return np.bincount(owner[mask], minlength=n) > 0


def _padded(box: BBox, radius_m: float) -> BBox:
    """box grown by radius_m, and by enough more that neither rounding nor
    the _EPS tolerance of the exact tests can leave out what they accept."""
    pad = radius_m + _EPS * (2.0 + max(map(abs, box)) + radius_m)
    return (box[0] - pad, box[1] - pad, box[2] + pad, box[3] + pad)


def _candidates(boxes, items):
    """Box k and item j of every pair whose boxes overlap, edges and corners
    included, ordered by k and then by j.

    The items fill a grid of cells extent / sqrt(len(items)) wide, 1 m
    when they have no extent. A box looks in the cells it covers, clipped
    to those around the items, and boxes go in _chunks of whole boxes.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    items = np.asarray(items, dtype=float).reshape(-1, 4)
    if not len(items):
        return tuple(np.zeros((2, 0), dtype=np.int64))
    lo, hi = items[:, :2].min(axis=0), items[:, 2:].max(axis=0)
    extent = float((hi - lo).max())
    cell = extent / max(1.0, math.sqrt(len(items))) if extent > 0 else 1.0
    lo, hi = np.floor(lo / cell), np.floor(hi / cell)
    shape = (hi - lo + 1).astype(np.int64)
    item, at = _cells(*_cell_ranges(items, cell, lo, hi), shape)
    item = item[np.argsort(at, kind="stable")]
    counts = np.bincount(at, minlength=shape[0] * shape[1])
    start = np.cumsum(counts) - counts
    # a box costs its cells and the pairs it meets there, counted from a summed-area table
    table = np.pad(counts.reshape(shape).cumsum(0).cumsum(1), ((1, 0), (1, 0)))
    first, last = _cell_ranges(boxes, cell, lo, hi)
    (c0, r0), (c1, r1) = first.T, (last + 1).T
    cost = (c1 - c0) * (r1 - r0) + table[c1, r1] - table[c0, r1] - table[c1, r0] + table[c0, r0]
    found = [np.zeros(0, dtype=np.int64)]
    for a, b in _chunks(cost.tolist()):
        owner, at = _cells(first[a:b], last[a:b], shape)
        pair, m = _ragged(counts[at])
        k, j = owner[pair] + a, item[start[at[pair]] + m]
        hit = ((items[j, :2] <= boxes[k, 2:]) & (items[j, 2:] >= boxes[k, :2])).all(axis=1)
        found.append(np.unique(k[hit] * len(items) + j[hit]))
    return np.divmod(np.concatenate(found), len(items))


def _cell_ranges(boxes, cell: float, lo, hi):
    """First and last cell (column, row) of each box, counted from lo and
    clipped to lo..hi; a box beyond them gets an empty range."""
    first = np.clip(np.floor(boxes[:, :2] / cell), lo, hi + 1) - lo
    last = np.clip(np.floor(boxes[:, 2:] / cell), lo - 1, hi) - lo
    return first.astype(np.int64), last.astype(np.int64)


def _cells(first, last, shape):
    """Owner and flat cell number of every cell in each range."""
    size = last - first + 1
    owner, m = _ragged(size[:, 0] * size[:, 1])
    rows = size[owner, 1]
    return owner, (first[owner, 0] + m // rows) * shape[1] + first[owner, 1] + m % rows


def _chunks(costs):
    """Consecutive ranges whose summed cost stays near _CHUNK."""
    start, total = 0, 0
    for k, cost in enumerate(costs):
        total += cost
        if total >= _CHUNK:
            yield start, k + 1
            start, total = k + 1, 0
    if start < len(costs):
        yield start, len(costs)


def _on_segments(p, a, b) -> np.ndarray:
    """_on_segment elementwise."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    scale = np.maximum.reduce([np.ones_like(ax), abs(ax), abs(ay), abs(bx), abs(by)])
    return (
        ~(abs(_orient(a, b, p)) > _EPS * scale * scale)
        & (np.minimum(ax, bx) - _EPS <= px) & (px <= np.maximum(ax, bx) + _EPS)
        & (np.minimum(ay, by) - _EPS <= py) & (py <= np.maximum(ay, by) + _EPS)
    )


def _points_in_rings(p, ring_of_point, rings: _Shapes):
    """Per point: whether it lies on its ring, and whether the even-odd
    crossing count is odd.

    point_in_polygon is `on or odd`; the strict interior is `odd and not on`.
    """
    n = len(ring_of_point)
    point, m = _ragged(rings.n_segments[ring_of_point])
    a, b = rings.segment(ring_of_point[point], m)
    px, py = p[0][point], p[1][point]
    (x0, y0), (x1, y1) = a, b
    on = _any_per(point, _on_segments((px, py), a, b), n)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (py - y1) * (x0 - x1) / (y0 - y1)
    crossing = ((y0 > py) != (y1 > py)) & (px < x_cross)
    return on, np.bincount(point[crossing], minlength=n) % 2 == 1


def _segment_within(p, a, b, radius_m: float) -> np.ndarray:
    """point_segment_distance(p, a, b) <= radius_m elementwise.

    np.hypot can differ from math.hypot in the last bit, so it only
    screens: a distance within 1e-9 of the radius is taken again with
    math.hypot from the same components.
    """
    (px, py), (ax, ay), (bx, by) = p, a, b
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    degenerate = seg_len2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - ax) * dx + (py - ay) * dy) / seg_len2
    t = np.maximum(0.0, np.minimum(1.0, t))
    ex = np.where(degenerate, px - ax, px - (ax + t * dx))
    ey = np.where(degenerate, py - ay, py - (ay + t * dy))
    dist = np.hypot(ex, ey)
    within = dist <= radius_m
    for k in np.flatnonzero(abs(dist - radius_m) <= 1e-9 * (1.0 + abs(radius_m))):
        within[k] = math.hypot(ex[k], ey[k]) <= radius_m
    return within


def polygon_polyline_within(polygons, polylines, radius_m: float) -> np.ndarray:
    """polygon_polyline_distance(polygons[k], polylines[k]) <= radius_m for every k,
    as the scalar reference in tests/geo_reference.py decides it."""
    out = np.zeros(len(polygons), dtype=bool)
    costs = [len(g) * len(line) for g, line in zip(polygons, polylines)]
    for lo, hi in _chunks(costs):
        rings, lines = _Shapes(polygons[lo:hi], True), _Shapes(polylines[lo:hi], False)
        n = hi - lo
        on, odd = _points_in_rings(lines.vertex(np.arange(n), 0), np.arange(n), rings)
        k, i, j = _pairs_of(lines.n_segments, rings.n_segments)
        a, b = lines.segment(k, i)
        c, d = rings.segment(k, j)
        intersect = (
            _crosses_properly(a, b, c, d)
            | _on_segments(c, a, b) | _on_segments(d, a, b)
            | _on_segments(a, c, d) | _on_segments(b, c, d)
        )
        near = (
            _segment_within(a, c, d, radius_m) | _segment_within(b, c, d, radius_m)
            | _segment_within(c, a, b, radius_m) | _segment_within(d, a, b, radius_m)
        )
        # touching means distance 0, which is within any radius >= 0
        touching = on | odd | _any_per(k, intersect, n)
        out[lo:hi] = (touching & (radius_m >= 0.0)) | _any_per(k, near, n)
    return out


def polygons_overlap(polygons_a, polygons_b) -> np.ndarray:
    """Whether the interiors of polygons_a[k] and polygons_b[k] appear to overlap.

    True when a vertex of one lies strictly inside the other, or two edges
    cross at a point interior to both; polygons that only share edges or
    corners do not overlap.
    """
    out = np.zeros(len(polygons_a), dtype=bool)
    costs = [(len(a) + 1) * (len(b) + 1) for a, b in zip(polygons_a, polygons_b)]
    for lo, hi in _chunks(costs):
        ring_a, ring_b = _Shapes(polygons_a[lo:hi], True), _Shapes(polygons_b[lo:hi], True)
        n = hi - lo
        k, i, j = _pairs_of(ring_a.n_segments, ring_b.n_segments)
        hit = _any_per(k, _crosses_properly(*ring_a.segment(k, i), *ring_b.segment(k, j)), n)
        for inner, outer, polygons in ((ring_a, ring_b, polygons_a), (ring_b, ring_a, polygons_b)):
            # each polygon's vertices as stored, like the scalar `for p in polygon`
            k, m = _ragged(np.array([len(g) for g in polygons[lo:hi]], dtype=np.int64))
            on, odd = _points_in_rings(inner.vertex(k, m), k, outer)
            hit |= _any_per(k, odd & ~on, n)
        out[lo:hi] = hit
    return out


def _load_polygon_features(path: str, id_key: str):
    """(id, properties, ring) of each Polygon feature, in file order.

    Ids must be unique integers and coordinates finite; errors name the
    feature, counting from 1.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("type") != "FeatureCollection":
        raise ValueError(f"{path}: expected a GeoJSON FeatureCollection")
    kind = id_key.removesuffix("_id")
    first_use: dict[int, int] = {}
    out = []
    for number, feature in enumerate(doc.get("features", []), start=1):
        geom = feature.get("geometry") or {}
        if geom.get("type") != "Polygon":
            raise ValueError(f"{path}: only Polygon geometries are supported")
        # exterior ring only; holes are out of scope for these inputs
        ring = [(float(x), float(y)) for x, y in geom["coordinates"][0]]
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in ring):
            raise ValueError(f"{path}: feature {number} has a non-finite coordinate")
        if len(ring) > 1 and ring[0] == ring[-1]:
            ring = ring[:-1]
        props = feature.get("properties") or {}
        if id_key not in props:
            raise ValueError(f"{path}: {kind} feature {number} missing {id_key}")
        try:
            feature_id = int(props[id_key])
        except (TypeError, ValueError):
            raise ValueError(
                f"{path}: {id_key} {props[id_key]!r} is not an integer (feature {number})"
            ) from None
        if feature_id in first_use:
            raise ValueError(
                f"{path}: duplicate {id_key} {feature_id} in feature {number}"
                f" (first in feature {first_use[feature_id]})"
            )
        first_use[feature_id] = number
        out.append((feature_id, props, tuple(ring)))
    return out


def load_tracts(path: str) -> list[Tract]:
    """Tracts in file order. `population` must be a finite number >= 0 and
    `is_coc` a JSON boolean or 0/1; errors name the feature."""
    tracts = []
    features = _load_polygon_features(path, "tract_id")
    for number, (tract_id, props, ring) in enumerate(features, start=1):
        is_coc = props.get("is_coc", False)
        if not (isinstance(is_coc, (int, float)) and is_coc in (0, 1)):
            raise ValueError(f"{path}: is_coc {is_coc!r} is not a boolean or 0/1 (feature {number})")
        try:
            tracts.append(Tract(tract_id, ring, float(props.get("population", 0.0)), bool(is_coc)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc} (feature {number})") from None
    return tracts
