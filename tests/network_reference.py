"""The network's table rules checked one row at a time: the reference that
the `check_rows` masks of flowscore.network.Network must match.

`link_error` is the per-link check that the network's link objects once
made as each was built; `first_error` adds the table-wide rules after it,
in the network's order.
"""
import math


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
