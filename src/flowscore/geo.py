"""Planar geometry helpers and the spatial joins built on them.

Everything works in meters on projected coordinates. Each input holds
one vertex table (`_Shapes`), built when the input is loaded: the
network's `lines` and the `rings` of the tracts or the parcels. Each
join takes its candidate pairs from one box join, `_candidates`, over
the tables' boxes, and decides every pair with the batched exact
predicates, which index those tables. Boundary cases are inclusive
throughout: a point on a polygon edge is inside, a geometry at exactly
the query radius is returned.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers

import numpy as np

Point = tuple[float, float]

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


def ring_rules(kind: str, sizes, rings: _Shapes) -> tuple[dict, np.ndarray]:
    """The ring rules (3 points given, a finite positive area) as `check_rows`
    masks, and each ring's area from its closed vertex table `rings`: NaN
    under 3 points, as such a ring is not read. `sizes` holds each ring's
    point count as given, open or closed."""
    short = np.asarray(sizes) < 3
    (x0, y0), (x1, y1) = rings.segment(*_ragged(np.maximum(rings.n_segments, 0)))
    with np.errstate(over="ignore", invalid="ignore"):  # coordinates near 1e200 overflow
        twice = abs(_sums(rings.n_segments, x0 * y1 - x1 * y0)[1])
    area = np.where(short, math.nan, twice / 2.0)
    return {f"{kind} {{id}} polygon needs >= 3 points": short,
            f"{kind} {{id}} has zero area": area == 0.0,
            f"{kind} {{id}} has a non-finite area": ~np.isfinite(area)}, area


_FEW = 8  # groups left when _sums adds each of them in one call


def _sums(counts, values) -> tuple[np.ndarray, np.ndarray]:
    """Per value, the sum of the values before it in its group, and per
    group its total, for groups of counts[k] consecutive values. Each group
    is added left to right from 0.0, as a Python loop adds it: numpy's own
    sums add pairwise, which can move the last bit, and so a midpoint on a
    shared tract edge. Values are added one position of every group at a
    time, and the last few long groups each by one np.cumsum, which also
    adds in order."""
    counts = np.maximum(counts, 0)
    start = np.cumsum(counts) - counts
    before, totals = np.zeros(len(values)), np.zeros(len(counts))
    group, m = np.flatnonzero(counts), 0
    while len(group) > _FEW:
        at = start[group] + m
        before[at] = totals[group]
        totals[group] += values[at]
        m += 1
        group = group[counts[group] > m]
    for k in group.tolist():
        rest = slice(start[k] + m, start[k] + counts[k])
        run = np.cumsum(np.append(totals[k], values[rest]))
        before[rest], totals[k] = run[:-1], run[-1]
    return before, totals


def _segment_lengths(shapes: _Shapes):
    """Every segment's shape, its start and end points and its length by
    math.hypot (np.hypot can differ in the last bit), in vertex order."""
    k, m = _ragged(shapes.n_segments)
    (ax, ay), (bx, by) = shapes.segment(k, m)
    with np.errstate(over="ignore"):
        dx, dy = (bx - ax).tolist(), (by - ay).tolist()
    return k, (ax, ay), (bx, by), np.array(list(map(math.hypot, dx, dy)), dtype=float)


def polyline_lengths(lines: _Shapes) -> np.ndarray:
    """Each line's length, its segments added left to right."""
    return _sums(lines.n_segments, _segment_lengths(lines)[-1])[1]


def build_link_index(xy, sizes) -> _Shapes:
    """The links' vertex table, in row order: link k's sizes[k] vertices
    are the next rows of the (N, 2) array xy. A Network builds it once, as
    `lines`, from its `wkt_geometry` column; its boxes() are the links'
    bounding boxes."""
    return _Shapes(xy, sizes, False)


def links_within_radii(points, radius_m: float, network) -> list[np.ndarray]:
    """Per point, the rows of the links whose geometry comes within
    radius_m of it (inclusive), in link-id order."""
    if not 0 <= radius_m < math.inf:  # NaN fails too
        raise ValueError("radius must be finite and nonnegative")
    p = np.array(points, dtype=float).reshape(-1, 2)
    lines = network.lines
    point, link = _candidates(_padded(np.hstack([p, p]), radius_m), lines.boxes())
    within = np.zeros(len(point), dtype=bool)
    for lo, hi in _chunks(lines.n_segments[link].tolist()):
        pair, m = _ragged(lines.n_segments[link[lo:hi]])
        k = point[lo:hi][pair]
        near = _segment_within((p[k, 0], p[k, 1]), *lines.segment(link[lo:hi][pair], m), radius_m)
        within[lo:hi] = _any_per(pair, near, hi - lo)
    point, link = point[within], link[within]
    ends = np.cumsum(np.bincount(point, minlength=len(p)))
    return np.split(link[np.lexsort((network.link_ids[link], point))], ends)[:-1]


class Tracts:
    """Tracts as columns, in input order: `ids`, `population`, `is_coc` and
    `rings`, the polygons' closed vertex table, built from the (N, 2)
    vertices `xy` of every polygon, `sizes[k]` of them polygon k's. Each
    is_coc is a boolean or 0/1, each population a finite number >= 0 and
    not a boolean, and each ring keeps `ring_rules`; the error names the
    first bad row, from 0."""

    def __init__(self, ids, xy, sizes, population, is_coc):
        from .network import check_rows  # network imports geo

        self.ids = np.array(ids, dtype=np.int64)
        number, self.population = _reals(population)
        self.rings = _Shapes(xy, sizes, True)
        check_rows({"id": self.ids, "population": population, "is_coc": is_coc}, {
            "is_coc {is_coc!r} is not a boolean or 0/1":
                np.array([v not in (0, 1) for v in is_coc], dtype=bool),
            "population {population!r} is not a number": ~number,
            **ring_rules("tract", sizes, self.rings)[0],
            "tract {id} population must be finite and nonnegative":
                ~(np.isfinite(self.population) & (self.population >= 0))})
        self.is_coc = np.array(is_coc, dtype=bool)


def _reals(values: list) -> tuple[np.ndarray, np.ndarray]:
    """Which values are numbers, any `numbers.Real` but a boolean, and each
    as a float: NaN where it is not one, and an infinity of its sign for an
    integer too large for a float."""
    if set(map(type, values)) <= {int, float}:  # JSON's numbers, with no test of each value
        real = np.ones(len(values), dtype=bool)
    else:
        real = np.array([isinstance(v, numbers.Real) and not isinstance(v, bool)
                         for v in values], dtype=bool)
        values = [v if ok else math.nan for v, ok in zip(values, real.tolist())]
    try:
        return real, np.array(values, dtype=float)
    except OverflowError:  # an int too large for a float
        return real, np.array(list(map(_as_float, values)), dtype=float)


def _as_float(number) -> float:
    """float(number), or an infinity of its sign for an integer too large
    for a float."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def _midpoints(lines: _Shapes) -> np.ndarray:
    """Each line's point at half its length along it, as an (n, 2) array:
    its first vertex if the length is not positive, else the point on its
    first nonzero segment that reaches half the length, else its last
    vertex. The operations are `link_midpoint`'s in tests/geo_reference.py."""
    k, (ax, ay), (bx, by), length = _segment_lengths(lines)
    walked, total = _sums(lines.n_segments, length)
    half = total / 2.0
    end = np.where(half <= 0, lines.first, lines.first + lines.n_segments)
    mids = np.column_stack([lines.x[end], lines.y[end]])
    reach = (half[k] > 0) & (walked + length >= half[k]) & (length > 0)
    held, first = np.unique(k[reach], return_index=True)
    s = np.flatnonzero(reach)[first]
    with np.errstate(over="ignore", invalid="ignore"):
        t = (half[held] - walked[s]) / length[s]
        mids[held, 0] = ax[s] + t * (bx[s] - ax[s])
        mids[held, 1] = ay[s] + t * (by[s] - ay[s])
    return mids


def link_tracts(lines: _Shapes, tracts: Tracts) -> np.ndarray:
    """Per line of the vertex table `lines`, the row of the first tract in
    input order that holds its length midpoint, boundary included, or -1
    (validate_tracts reports overlaps)."""
    mids = _midpoints(lines)
    rings = tracts.rings
    link, tract = _candidates(_padded(np.hstack([mids, mids]), 0.0), rings.boxes())
    inside = np.zeros(len(link), dtype=bool)
    for lo, hi in _chunks(rings.n_segments[tract].tolist()):
        k = link[lo:hi]
        on, odd = _points_in_rings((mids[k, 0], mids[k, 1]), tract[lo:hi], rings)
        inside[lo:hi] = on | odd
    # pairs run by link and then by tract row, so a link's first pair is its tract
    held, first = np.unique(link[inside], return_index=True)
    rows = np.full(len(mids), -1, dtype=np.int64)
    rows[held] = tract[inside][first]
    return rows


def validate_tracts(tracts: Tracts) -> list[str]:
    """Warn on tract pairs whose interiors appear to overlap.

    Only pairs whose bboxes touch are tested; warnings follow input order.
    """
    boxes = tracts.rings.boxes()
    i, j = _candidates(boxes, boxes)
    i, j = i[j > i], j[j > i]
    overlap = polygons_overlap(tracts.rings, i, j)
    return [f"tracts {a} and {b} overlap"
            for a, b in zip(tracts.ids[i[overlap]].tolist(), tracts.ids[j[overlap]].tolist())]


# Batched exact predicates. They run over numpy columns with the same
# IEEE operations, in the same order, as the scalar reference in
# tests/geo_reference.py, so each answer is the scalar one bit for bit.
# Work goes in chunks of about _CHUNK items to bound memory.

_CHUNK = 1 << 14


class _Shapes:
    """Vertices of many polylines or rings as flat numpy columns.

    Built from the (N, 2) array xy of every shape's vertices, shape k's
    being the next sizes[k] rows. Shape k's vertices start at first[k];
    its n_segments[k] segments join consecutive vertices. A ring is closed
    by repeating its first vertex after its last where the two differ.
    A negative size, or sizes that do not add up to the rows of xy, raise
    a ValueError.
    """

    def __init__(self, xy, sizes, closed: bool):
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        sizes = np.array(sizes, dtype=np.int64).reshape(-1)
        if (sizes < 0).any():
            raise ValueError(f"shape size {sizes.min()} is negative")
        if sizes.sum() != len(xy):
            raise ValueError(f"shape sizes add up to {sizes.sum()} vertices, "
                             f"not the {len(xy)} given")
        first = np.cumsum(sizes) - sizes
        if closed:
            k = np.flatnonzero(sizes)
            k = k[(xy[first[k]] != xy[first[k] + sizes[k] - 1]).any(axis=1)]
            xy = np.insert(xy, first[k] + sizes[k], xy[first[k]], axis=0)
            sizes[k] += 1
            first = np.cumsum(sizes) - sizes
        self.x, self.y = xy[:, 0], xy[:, 1]
        self.first = first
        self.n_segments = sizes - 1

    def boxes(self) -> np.ndarray:
        """Each shape's (min x, min y, max x, max y), as an (n, 4) array."""
        ends = (np.minimum.reduceat, np.maximum.reduceat)
        return np.column_stack([end(xy, self.first) for end in ends for xy in (self.x, self.y)])

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


def _padded(boxes: np.ndarray, radius_m: float) -> np.ndarray:
    """The (n, 4) boxes grown by radius_m, and by enough more that neither
    rounding nor the _EPS tolerance of the exact tests can leave out what
    they accept."""
    pad = (radius_m + _EPS * (2.0 + abs(boxes).max(axis=1) + radius_m))[:, None]
    return np.hstack([boxes[:, :2] - pad, boxes[:, 2:] + pad])


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
        pairs = np.sort(k[hit] * len(items) + j[hit])  # np.unique would import numpy.ma
        found.append(pairs[np.diff(pairs, prepend=-1) != 0])
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
    dx, dy = bx - ax, by - ay
    return (
        ~(abs(_orient(a, b, p)) > _EPS * np.maximum(1.0, dx * dx + dy * dy))
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


def polygon_polyline_within(rings: _Shapes, ring_of, lines: _Shapes, line_of,
                            radius_m: float) -> np.ndarray:
    """Per pair k, whether polygon_polyline_distance(ring ring_of[k],
    line line_of[k]) <= radius_m, as the scalar reference in
    tests/geo_reference.py decides it."""
    out = np.zeros(len(ring_of), dtype=bool)
    for lo, hi in _chunks((rings.n_segments[ring_of] * (lines.n_segments[line_of] + 1)).tolist()):
        ring, line, n = ring_of[lo:hi], line_of[lo:hi], hi - lo
        on, odd = _points_in_rings(lines.vertex(line, 0), ring, rings)
        k, i, j = _pairs_of(lines.n_segments[line], rings.n_segments[ring])
        a, b = lines.segment(line[k], i)
        c, d = rings.segment(ring[k], j)
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


def polygons_overlap(rings: _Shapes, a, b) -> np.ndarray:
    """Per pair k, whether the interiors of rings a[k] and b[k] appear to overlap.

    True when a vertex of one lies strictly inside the other, or two edges
    cross at a point interior to both; polygons that only share edges or
    corners do not overlap.
    """
    out = np.zeros(len(a), dtype=bool)
    segments = rings.n_segments
    for lo, hi in _chunks(((segments[a] + 1) * (segments[b] + 1)).tolist()):
        ring_a, ring_b, n = a[lo:hi], b[lo:hi], hi - lo
        k, i, j = _pairs_of(segments[ring_a], segments[ring_b])
        hit = _any_per(k, _crosses_properly(*rings.segment(ring_a[k], i),
                                            *rings.segment(ring_b[k], j)), n)
        for inner, outer in ((ring_a, ring_b), (ring_b, ring_a)):
            # a ring's vertices but the closing one, which repeats its first
            k, m = _ragged(segments[inner])
            on, odd = _points_in_rings(rings.vertex(inner[k], m), outer[k], rings)
            hit |= _any_per(k, odd & ~on, n)
        out[lo:hi] = hit
    return out


def _load_polygon_table(path: str, id_key: str, table, defaults: dict):
    """table(ids, xy, sizes, *columns) of the Polygon features, in file
    order: their exterior rings' vertices as one (N, 2) array and each
    ring's vertex count, a closing point that repeats the first left out,
    with one column per property named in `defaults`, which gives its
    value where a feature lacks it.

    Ids must be unique whole numbers, not booleans, and each vertex a
    list of two finite `_reals`. Errors, and the rules that the table
    checks, name the file and the first bad feature, counting from 1; a
    feature that breaks several rules is named by the first of the rules
    below, or else by the table's first.
    """
    from .network import _BadRow, check_rows  # network imports geo

    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: bad JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ValueError(f"{path}: expected a GeoJSON FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise ValueError(f"{path}: features must be a list")
    kind = id_key.removesuffix("_id")
    not_polygon, rings, props, not_object, whole = [], [], [], [], []
    for feature in features:
        feature = feature if isinstance(feature, dict) else {}
        geom = feature.get("geometry")
        polygon = isinstance(geom, dict) and geom.get("type") == "Polygon"
        coords = geom.get("coordinates") if polygon else None
        # exterior ring only; holes are out of scope for these inputs
        ring = coords[0] if isinstance(coords, list) and coords else None
        not_polygon.append(not polygon)
        rings.append(ring if isinstance(ring, list) else [None])  # a vertex that is not [x, y]
        given = feature.get("properties")
        not_object.append(not (given is None or isinstance(given, dict)))
        props.append(given if isinstance(given, dict) else {})
        value = props[-1].get(id_key)
        try:  # int() would truncate 1.5 and take true as 1
            whole.append(None if isinstance(value, bool) or (
                isinstance(value, float) and not value.is_integer()) else int(value))
        except (TypeError, ValueError):
            whole.append(None)
    int64 = [v is not None and -(1 << 63) <= v < 1 << 63 for v in whole]
    ids = np.array([v if ok else 0 for v, ok in zip(whole, int64)], dtype=np.int64)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    number, first = np.arange(1, len(features) + 1), first[inverse] + 1
    xy, sizes, odd, infinite = _ring_vertices(rings)

    def table_of(stop: int):
        """The table of the first `stop` features, naming the first bad one."""
        try:
            return table(ids[:stop], xy[:sizes[:stop].sum()], sizes[:stop], *(
                [p.get(name, default) for p in props[:stop]] for name, default in defaults.items()))
        except _BadRow as exc:
            raise ValueError(f"{path}: {exc} (feature {exc.position + 1})") from None

    try:
        check_rows({"number": number, "value": [p.get(id_key) for p in props], "id": ids,
                    "first": first}, {
            "only Polygon geometries are supported (feature {number})": not_polygon,
            "feature {number} coordinates are not a ring of [x, y] numbers": odd,
            "feature {number} has a non-finite coordinate": infinite,
            "feature {number} properties are not an object": not_object,
            f"{kind} feature {{number}} missing {id_key}": [id_key not in p for p in props],
            f"{id_key} {{value!r}} is not an integer (feature {{number}})":
                [v is None for v in whole],
            f"{id_key} {{value!r}} is not an int64 (feature {{number}})":  # as the tables hold ids
                [not ok for ok in int64],
            f"duplicate {id_key} {{id}} in feature {{number}} (first in feature {{first}})":
                first != number})
    except _BadRow as exc:
        table_of(exc.position)  # the table's rules first on the features before this one
        raise ValueError(f"{path}: {exc}") from None
    return table_of(len(features))


def _ring_vertices(rings: list) -> tuple[np.ndarray, ...]:
    """The vertices of the GeoJSON rings, each a list, as one (N, 2) float
    array and each ring's vertex count, a closing point that repeats the
    first left out; then per ring, whether a vertex of it is not a list of
    two `_reals` (NaN in the array), and whether one is not finite."""
    sizes = np.fromiter(map(len, rings), np.int64, len(rings))
    vertices = [v if isinstance(v, list) and len(v) == 2 else (None, None)
                for v in itertools.chain.from_iterable(rings)]
    real, xy = _reals(list(itertools.chain.from_iterable(vertices)))
    xy, ring = xy.reshape(-1, 2), np.repeat(np.arange(len(rings)), sizes)
    broken = [_any_per(ring, ~ok.all(axis=1), len(rings))
              for ok in (real.reshape(-1, 2), np.isfinite(xy))]
    ends = np.cumsum(sizes)
    k = np.flatnonzero(sizes > 1)
    k = k[(xy[ends[k] - sizes[k]] == xy[ends[k] - 1]).all(axis=1)]  # rings given closed
    sizes[k] -= 1
    return np.delete(xy, ends[k] - 1, axis=0), sizes, *broken


def load_tracts(path: str) -> Tracts:
    """Tracts in file order, as `Tracts` checks them; a missing `population`
    is 0 and a missing `is_coc` false. Errors name the feature."""
    return _load_polygon_table(path, "tract_id", Tracts, {"population": 0.0, "is_coc": False})
