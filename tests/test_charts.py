import hashlib
import re

import pytest

from flowscore.charts import (
    FALLBACK_COLOR,
    OBJECTIVE_COLORS,
    ComparisonRow,
    ComparisonTable,
    emit_chart,
    load_comparison,
    render_chart_svg,
    write_comparison,
)
from flowscore.indicators import INDICATOR_META


def small_table():
    rows = (
        ComparisonRow("Mobility", "VMT", "miles", (1.0, 2.0, 4.0)),
        ComparisonRow("Mobility", "Average trip delay", "minutes", (None, 0.5, 0.25)),
        ComparisonRow("Environment", "Total fuel consumption", "liters", (0.0, 0.0, 0.0)),
    )
    return ComparisonTable(("uet", "sot", "sof"), rows)


def full_table():
    rows = tuple(
        ComparisonRow(theme, name, unit, (1.0 + i, 2.0 + i, 3.0 + i))
        for i, (theme, name, unit) in enumerate(INDICATOR_META)
    )
    return ComparisonTable(("uet", "sot", "sof"), rows)


def bar_widths(svg):
    return [float(m) for m in re.findall(r'class="bar" x="[\d.]+" y="[\d.]+" width="([\d.]+)"', svg)]


def test_comparison_round_trip(tmp_path):
    table = small_table()
    path = tmp_path / "comparison.csv"
    write_comparison(path, table)
    assert load_comparison(path) == table
    header = path.read_text().splitlines()[0]
    assert header == "theme,indicator,unit,uet,sot,sof"


def test_comparison_round_trip_preserves_floats_exactly(tmp_path):
    value = 0.1 + 0.2  # not representable as a short decimal
    table = ComparisonTable(("sot",), (ComparisonRow("Mobility", "VMT", "miles", (value,)),))
    path = tmp_path / "comparison.csv"
    write_comparison(path, table)
    assert load_comparison(path).rows[0].values[0] == value


def test_load_comparison_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match=f"^missing comparison column 'theme' in {re.escape(str(path))}, row 1$"):
        load_comparison(path)
    path.write_text("theme,indicator,unit\nMobility,VMT,miles\n")
    with pytest.raises(ValueError, match=f"^no objective columns in {re.escape(str(path))}, row 1$"):
        load_comparison(path)
    path.write_text("theme,indicator,unit,uet,uet\nMobility,VMT,miles,1.0,2.0\n")
    with pytest.raises(ValueError, match=f"^repeated comparison column 'uet' in {re.escape(str(path))}, row 1$"):
        load_comparison(path)


def test_render_is_deterministic():
    table = full_table()
    assert render_chart_svg(table) == render_chart_svg(table)


def test_emit_chart_byte_identical(tmp_path):
    table = full_table()
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_chart(table, p1)
    emit_chart(table, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_chart_accepts_csv_path(tmp_path):
    table = small_table()
    csv_path = tmp_path / "comparison.csv"
    write_comparison(csv_path, table)
    from_table = tmp_path / "t.svg"
    from_path = tmp_path / "p.svg"
    emit_chart(table, from_table)
    emit_chart(csv_path, from_path)
    assert from_table.read_bytes() == from_path.read_bytes()


def test_full_report_has_one_bar_per_cell():
    svg = render_chart_svg(full_table())
    assert len(bar_widths(svg)) == 15 * 3


def test_bars_normalized_per_row():
    svg = render_chart_svg(small_table())
    widths = bar_widths(svg)
    # row 1: values 1,2,4 against the row max of 4
    assert widths[0:3] == [100.0, 200.0, 400.0]
    # row 2: the NA cell collapses to zero width; 0.5 is the row max
    assert widths[3:6] == [0.0, 400.0, 200.0]
    # row 3: all-zero row must not divide by zero
    assert widths[6:9] == [0.0, 0.0, 0.0]
    assert "NA" in svg


def test_objective_colors_fixed():
    svg = render_chart_svg(small_table())
    assert OBJECTIVE_COLORS["uet"] == "#1f77b4"
    assert OBJECTIVE_COLORS["sot"] == "#ff7f0e"
    assert OBJECTIVE_COLORS["sof"] == "#2ca02c"
    for color in OBJECTIVE_COLORS.values():
        assert color in svg
    other = ComparisonTable(("baseline",), (ComparisonRow("Mobility", "VMT", "miles", (1.0,)),))
    assert FALLBACK_COLOR in render_chart_svg(other)


def test_labels_are_escaped():
    table = ComparisonTable(
        ("uet",),
        (ComparisonRow("Mobility", "VMT <&> peak", "miles", (1.0,)),),
    )
    svg = render_chart_svg(table, title="A & B <chart>")
    assert "VMT &lt;&amp;&gt; peak" in svg
    assert "A &amp; B &lt;chart&gt;" in svg
    assert "<chart>" not in svg


def test_chart_escapes_markup_in_title_and_labels():
    table = ComparisonTable(("uet", "a&<b>"), (
        ComparisonRow("Mobility", "VMT <&> trips", "miles & <km>", (1.0, 2.5)),
        ComparisonRow("Safety", "A&&B >> C<<", "n", (None, 0.0)),
    ))
    svg = render_chart_svg(table, title='Fuel & <time> > "speed"')
    assert '>Fuel &amp; &lt;time&gt; &gt; "speed"</text>' in svg
    assert ">A&amp;&lt;B&gt;</text>" in svg
    assert ">A&amp;&amp;B &gt;&gt; C&lt;&lt; (n)</text>" in svg
    # the bytes xml.sax.saxutils.escape gave for the same table
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "04d04fdbde3b256d3344c6a5011645421f430457d2bd00e50c85474ff194eed6")
