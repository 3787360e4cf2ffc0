"""Scalar geometry predicates and spatial joins, one item at a time: the
reference that the batched kernels and joins in flowscore must match
exactly.

Each predicate does the same IEEE operations, in the same order, as its
batched counterpart (`_segment_within`, `_on_segments`,
`_points_in_rings`, `polygon_polyline_within`), so the tests require
equal answers, with no tolerance; `polyline_bbox` is the same for
`_Shapes.boxes`. `polyline_length`, `polygon_area` and `link_midpoint`
are the same for the lengths, areas and midpoints that flowscore.geo
takes from its vertex tables. The joins at the end scan every candidate
with these predicates. Boundary cases are inclusive, as in flowscore.geo.

`read_polygon_features` reads a tracts or parcels GeoJSON file feature by
feature with `json` and Python's rules, as the reference of the loaders'
one pass.
"""
import json
import math

from flowscore.geo import _EPS, Point, _crosses_properly, _orient
from flowscore.typology import LandUse

BBox = tuple[float, float, float, float]


def polylines_of(shapes) -> list[tuple[Point, ...]]:
    """Each shape of a vertex table (`geo._Shapes`) as a tuple of its points."""
    return [tuple(zip(shapes.x[a:a + n + 1].tolist(), shapes.y[a:a + n + 1].tolist()))
            for a, n in zip(shapes.first.tolist(), shapes.n_segments.tolist())]


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


def link_midpoint(geometry) -> Point:
    return point_along_polyline(geometry, polyline_length(geometry) / 2.0)


def polyline_bbox(polyline) -> BBox:
    xs = [p[0] for p in polyline]
    ys = [p[1] for p in polyline]
    return (min(xs), min(ys), max(xs), max(ys))


def bboxes_overlap(a: BBox, b: BBox) -> bool:
    return a[0] <= b[2] and a[2] >= b[0] and a[1] <= b[3] and a[3] >= b[1]


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len2
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def point_polyline_distance(p: Point, polyline) -> float:
    """Minimum distance from p to any segment of the polyline."""
    best = math.inf
    for a, b in zip(polyline, polyline[1:]):
        d = point_segment_distance(p, a, b)
        if d < best:
            best = d
    if math.isinf(best):
        # single-point "polyline"
        return math.hypot(p[0] - polyline[0][0], p[1] - polyline[0][1])
    return best


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    # |orient| is |ab| times p's distance from the line through a and b, so
    # the band is 1e-9 * |ab| wide, whatever the coordinates' magnitude
    dx, dy = b[0] - a[0], b[1] - a[1]
    if abs(_orient(a, b, p)) > _EPS * max(1.0, dx * dx + dy * dy):
        return False
    return (
        min(a[0], b[0]) - _EPS <= p[0] <= max(a[0], b[0]) + _EPS
        and min(a[1], b[1]) - _EPS <= p[1] <= max(a[1], b[1]) + _EPS
    )


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    if _crosses_properly(a, b, c, d):
        return True
    return (
        _on_segment(c, a, b)
        or _on_segment(d, a, b)
        or _on_segment(a, c, d)
        or _on_segment(b, c, d)
    )


def segment_segment_distance(a: Point, b: Point, c: Point, d: Point) -> float:
    if segments_intersect(a, b, c, d):
        return 0.0
    return min(
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )


def point_in_polygon(p: Point, polygon) -> bool:
    """Even-odd containment; points on the boundary count as inside."""
    ring = _closed_ring(polygon)
    for a, b in zip(ring, ring[1:]):
        if _on_segment(p, a, b):
            return True
    px, py = p
    inside = False
    for (x0, y0), (x1, y1) in zip(ring, ring[1:]):
        if (y0 > py) != (y1 > py):
            x_cross = x1 + (py - y1) * (x0 - x1) / (y0 - y1)
            if px < x_cross:
                inside = not inside
    return inside


def polygon_polyline_distance(polygon, polyline) -> float:
    """Zero when the polyline touches or enters the polygon."""
    if point_in_polygon(polyline[0], polygon):
        return 0.0
    ring = _closed_ring(polygon)
    best = math.inf
    for pa, pb in zip(polyline, polyline[1:]):
        for qa, qb in zip(ring, ring[1:]):
            d = segment_segment_distance(pa, pb, qa, qb)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best


def links_within_radius(point: Point, radius_m: float, network) -> list[int]:
    """Sorted ids of the links within radius_m of point, every link tested."""
    return sorted(link_id for link_id, geometry in zip(network.link_ids.tolist(),
                                                       polylines_of(network.lines))
                  if point_polyline_distance(point, geometry) <= radius_m)


def dominant_land_use(link, parcels, buffer_m: float) -> LandUse:
    """Land use of the largest parcel within buffer_m, every parcel tested;
    ties go to the smaller id, then the earlier parcel."""
    best = None
    for parcel in parcels:
        if polygon_polyline_distance(parcel.polygon, link.geometry) <= buffer_m:
            if best is None or (parcel.area, -parcel.id) > (best.area, -best.id):
                best = parcel
    return LandUse.OTHER if best is None else best.land_use


def link_tract(link, tracts) -> int:
    """Position of the first tract that holds the link's midpoint, or -1."""
    mid = link_midpoint(link.geometry)
    return next((k for k, t in enumerate(tracts) if point_in_polygon(mid, t.polygon)), -1)


def _coordinate(value) -> float | None:
    """A JSON int or float, not a bool, as a float, an int too large for a
    float an infinity of its sign; None for anything else."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _feature_rule(kind: str, feature_id: int, ring: list, values: list) -> str | None:
    """The first rule of the tracts' or the parcels' table that a feature
    breaks, in the table's order, or None."""
    n = len(ring) - 1 if len(ring) > 1 and ring[0] == ring[-1] else len(ring)
    area = polygon_area(ring) if n >= 3 else math.nan
    rules = [(n < 3, f"{kind} {feature_id} polygon needs >= 3 points"),
             (area == 0.0, f"{kind} {feature_id} has zero area"),
             (not math.isfinite(area), f"{kind} {feature_id} has a non-finite area")]
    if kind == "parcel":
        (land_use,) = values
        known = isinstance(land_use, str) and land_use in {u.value for u in LandUse}
        rules.insert(0, (not known, f"bad land_use {land_use!r}, want one of R,C,I,P,O"))
    else:
        population, is_coc = values
        number = isinstance(population, (int, float)) and not isinstance(population, bool)
        finite = number and math.isfinite(_coordinate(population)) and population >= 0
        rules = [(is_coc not in (0, 1), f"is_coc {is_coc!r} is not a boolean or 0/1"),
                 (not number, f"population {population!r} is not a number"), *rules,
                 (not finite, f"tract {feature_id} population must be finite and nonnegative")]
    return next((rule for broken, rule in rules if broken), None)


def read_polygon_features(path, id_key: str, defaults: dict):
    """The tracts (id_key "tract_id", defaults for population and is_coc)
    or the parcels ("parcel_id", land_use) of a GeoJSON file, read one
    feature at a time: (ids, rings, columns), each ring a list of float
    (x, y) tuples, a closing point that repeats the first left out, and a
    column of raw property values per name in `defaults`. Or the text of
    the error that names the first bad feature and its first broken rule."""
    kind = id_key.removesuffix("_id")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            return f"{path}: bad JSON: {exc}"
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        return f"{path}: expected a GeoJSON FeatureCollection"
    features = doc.get("features", [])
    if not isinstance(features, list):
        return f"{path}: features must be a list"
    ids, rings, columns, first_use = [], [], [[] for _ in defaults], {}
    for number, feature in enumerate(features, start=1):
        feature = feature if isinstance(feature, dict) else {}
        geometry = feature.get("geometry")
        if not isinstance(geometry, dict) or geometry.get("type") != "Polygon":
            return f"{path}: only Polygon geometries are supported (feature {number})"
        coordinates = geometry.get("coordinates")
        ring = coordinates[0] if isinstance(coordinates, list) and coordinates else None
        if not isinstance(ring, list) or not all(
                isinstance(point, list) and len(point) == 2
                and all(_coordinate(c) is not None for c in point) for point in ring):
            return f"{path}: feature {number} coordinates are not a ring of [x, y] numbers"
        ring = [(_coordinate(x), _coordinate(y)) for x, y in ring]
        if not all(math.isfinite(c) for point in ring for c in point):
            return f"{path}: feature {number} has a non-finite coordinate"
        if len(ring) > 1 and ring[0] == ring[-1]:
            ring.pop()
        properties = feature.get("properties")
        properties = {} if properties is None else properties
        if not isinstance(properties, dict):
            return f"{path}: feature {number} properties are not an object"
        if id_key not in properties:
            return f"{path}: {kind} feature {number} missing {id_key}"
        value = properties[id_key]
        fraction = isinstance(value, float) and not value.is_integer()
        try:
            feature_id = None if isinstance(value, bool) or fraction else int(value)
        except (TypeError, ValueError):
            feature_id = None
        if feature_id is None:
            return f"{path}: {id_key} {value!r} is not an integer (feature {number})"
        if not -2**63 <= feature_id < 2**63:
            return f"{path}: {id_key} {value!r} is not an int64 (feature {number})"
        if feature_id in first_use:
            return (f"{path}: duplicate {id_key} {feature_id} in feature {number}"
                    f" (first in feature {first_use[feature_id]})")
        first_use[feature_id] = number
        values = [properties.get(name, default) for name, default in defaults.items()]
        rule = _feature_rule(kind, feature_id, ring, values)
        if rule:
            return f"{path}: {rule} (feature {number})"
        ids.append(feature_id)
        rings.append(ring)
        for column, value in zip(columns, values):
            column.append(value)
    return ids, rings, columns
