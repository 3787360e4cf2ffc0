"""Deterministic SVG comparison chart and the comparison table format.

Same inputs produce byte-identical SVG: layout is computed with fixed
formatting and no timestamps, ids or randomness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .network import TEXT, Cell, LoadError, per_cell, read_columns, write_csv

OBJECTIVE_COLORS = {
    "uet": "#1f77b4",  # blue
    "sot": "#ff7f0e",  # orange
    "sof": "#2ca02c",  # green
}
FALLBACK_COLOR = "#7f7f7f"


@dataclass(frozen=True)
class ComparisonRow:
    theme: str
    name: str
    unit: str
    values: tuple[float | None, ...]


@dataclass(frozen=True)
class ComparisonTable:
    objectives: tuple[str, ...]
    rows: tuple[ComparisonRow, ...]


def _escape(text: str) -> str:
    """Text escaped for SVG character data: &, < and >."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt_value(x: float | None) -> str:
    if x is None:
        return "NA"
    return repr(float(x))


def write_comparison(path, table: ComparisonTable) -> None:
    write_csv(path, ["theme", "indicator", "unit", *table.objectives],
              ([row.theme, row.name, row.unit, *map(_fmt_value, row.values)] for row in table.rows))


def _value(text: str) -> float | None:
    """None for NA, else a value `IndicatorReport` keeps: a finite, nonnegative number."""
    if text == "NA":
        return None
    value = float(text)
    if math.isfinite(value) and value >= 0:
        return value
    raise ValueError(text)


def load_comparison(path) -> ComparisonTable:
    """A comparison table as write_comparison writes it: theme, indicator,
    unit, then one column of values (or NA) per objective."""
    columns = read_columns(path, "comparison", dict.fromkeys(("theme", "indicator", "unit"), TEXT),
                           rest=Cell(per_cell(_value), "NA or a finite, nonnegative number"))
    theme, name, unit, *values = columns.values()
    if not values:
        raise LoadError(f"no objective columns in {path}, row 1")
    return ComparisonTable(tuple(columns)[3:], tuple(
        ComparisonRow(*row[:3], row[3:]) for row in zip(theme, name, unit, *values)))


def render_chart_svg(table: ComparisonTable, title: str = "Objective comparison") -> str:
    """Horizontal bar groups, one per indicator, normalized per row.

    Each bar's width is value / max(values in that row); the objective
    colors are fixed (uet blue, sot orange, sof green).
    """
    label_w = 380.0
    bar_max_w = 400.0
    value_w = 110.0
    bar_h = 13.0
    bar_gap = 3.0
    group_gap = 12.0
    top = 56.0
    n_obj = len(table.objectives)
    group_h = n_obj * (bar_h + bar_gap) + group_gap
    width = label_w + bar_max_w + value_w + 24.0
    height = top + len(table.rows) * group_h + 16.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        f'<text x="16" y="24" font-size="16" fill="#1a1a1a">{_escape(title)}</text>',
    ]
    x = 16.0
    for obj in table.objectives:
        color = OBJECTIVE_COLORS.get(obj, FALLBACK_COLOR)
        parts.append(f'<rect x="{x:.2f}" y="34" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{x + 16:.2f}" y="44" font-size="12" fill="#1a1a1a">{_escape(obj.upper())}</text>'
        )
        x += 90.0

    y = top
    for row in table.rows:
        present = [v for v in row.values if v is not None]
        vmax = max(present) if present else 0.0
        label = f"{row.name} ({row.unit})"
        label_y = y + (group_h - group_gap) / 2.0 + 4.0
        parts.append(
            f'<text x="{label_w - 10:.2f}" y="{label_y:.2f}" font-size="11" '
            f'fill="#1a1a1a" text-anchor="end">{_escape(label)}</text>'
        )
        for j, obj in enumerate(table.objectives):
            v = row.values[j]
            frac = (v / vmax) if (v is not None and vmax > 0) else 0.0
            w = bar_max_w * frac
            bar_y = y + j * (bar_h + bar_gap)
            color = OBJECTIVE_COLORS.get(obj, FALLBACK_COLOR)
            parts.append(
                f'<rect class="bar" x="{label_w:.2f}" y="{bar_y:.2f}" '
                f'width="{w:.2f}" height="{bar_h:.2f}" fill="{color}"/>'
            )
            text = "NA" if v is None else f"{v:.6g}"
            parts.append(
                f'<text x="{label_w + w + 6:.2f}" y="{bar_y + bar_h - 3:.2f}" '
                f'font-size="10" fill="#444444">{_escape(text)}</text>'
            )
        y += group_h
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_chart(table: ComparisonTable, output_path, title: str = "Objective comparison") -> None:
    """Render a comparison table to an SVG file."""
    svg = render_chart_svg(table, title)
    with open(output_path, "w", newline="\n") as fh:
        fh.write(svg)
