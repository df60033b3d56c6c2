"""Tests for table rendering helpers."""

import pytest

from repro.utils.tables import Table, format_si


class TestFormatSI:
    @pytest.mark.parametrize(
        "value,unit,expected",
        [
            (0.00012, "s", "120 us"),
            (2.09, "W", "2.09 W"),
            (0, "J", "0 J"),
            (8300.0, "fps", "8.3 kfps"),
            (0.25e-3, "J", "250 uJ"),
        ],
    )
    def test_known_values(self, value, unit, expected):
        assert format_si(value, unit) == expected


class TestTable:
    def test_render_contains_all_cells(self):
        table = Table(["a", "b"], title="T")
        table.add_row(["x", 1.5])
        text = table.render()
        assert "T" in text and "x" in text and "1.5" in text

    def test_row_width_mismatch_rejected(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(["only-one"])

    def test_markdown_shape(self):
        table = Table(["col1", "col2"])
        table.add_row([1, 2])
        lines = table.render_markdown().splitlines()
        assert lines[0].startswith("| col1")
        assert set(lines[1].replace("|", "")) <= {"-"}

    def test_to_dicts(self):
        table = Table(["k", "v"])
        table.add_row(["a", 1])
        assert table.to_dicts() == [{"k": "a", "v": "1"}]

    def test_alignment_consistent(self):
        table = Table(["name", "value"])
        table.add_row(["longer-name", 1])
        table.add_row(["s", 22])
        header, rule, row1, row2 = table.render().splitlines()
        assert len(header) == len(rule) == len(row1) == len(row2)

