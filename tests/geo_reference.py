"""Scalar geometry predicates, one item at a time: the reference that
the batched kernels in flowscore.geo must match exactly.

Each function does the same IEEE operations, in the same order, as its
batched counterpart (`_segment_within`, `_on_segments`,
`_points_in_rings`, `polygon_polyline_within`), so the tests require
equal answers, with no tolerance. Boundary cases are inclusive, as in
flowscore.geo.
"""
import math

from flowscore.geo import _EPS, Point, _closed_ring, _crosses_properly, _orient


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
    scale = max(1.0, abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]))
    if abs(_orient(a, b, p)) > _EPS * scale * scale:
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
