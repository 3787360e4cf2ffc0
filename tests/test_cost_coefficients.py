"""Every formula that reads a BPR or fuel coefficient lives in
`flowscore.costs`: no other module in flowscore reads an attribute named
`alpha`, `beta`, `a`, `b` or `c`. So the pricing kernel and the trip
walk's fuel share one spelling of each formula, and the closed forms in
`costs_reference` are its only other copy.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flowscore"
COEFFICIENTS = {"alpha", "beta", "a", "b", "c"}


def coefficient_reads(path: Path) -> list[str]:
    """Each read of a coefficient attribute in path, as 'file:line .name'."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nodes = sorted((node.lineno, node.col_offset, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and node.attr in COEFFICIENTS)
    return [f"{path.name}:{line} .{attr}" for line, _, attr in nodes]


def test_only_costs_reads_a_cost_coefficient():
    assert coefficient_reads(SRC / "costs.py")  # the scan sees the formulas where they live
    reads = [read for path in sorted(SRC.glob("*.py")) if path.name != "costs.py"
             for read in coefficient_reads(path)]
    assert reads == [], f"cost coefficients read outside costs.py: {reads}"
