"""``scripts/check_tables.py``: regenerated tables against committed ones.

The script byte-compares every ``E*.txt`` of a run directory with the
committed table of the same name, names each one that differs or that
exists on one side only, and exits non-zero if any does.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_tables.py"

TABLES = {
    "E1-table1.txt": "| attack | F1 |\n| dos | 0.998 |\n",
    "E2-table2.txt": "| model | LUT |\n| qmlp | 1234 |\n",
}


def _write(directory, tables):
    directory.mkdir()
    for name, text in tables.items():
        (directory / name).write_text(text)
    return directory


def _check(committed, run):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--committed-dir", str(committed), "--run-dir", str(run)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return out.returncode, out.stdout


def test_equal_tables_pass(tmp_path):
    committed = _write(tmp_path / "committed", TABLES)
    run = _write(tmp_path / "run", TABLES)
    (run / "BENCH_fleet.json").write_text("{}")  # only E*.txt is compared
    code, stdout = _check(committed, run)
    assert code == 0, stdout
    assert "matches" in stdout


def test_changed_and_missing_tables_are_named(tmp_path):
    committed = _write(tmp_path / "committed", TABLES)
    run = _write(
        tmp_path / "run",
        {
            "E1-table1.txt": TABLES["E1-table1.txt"].replace("0.998", "0.997"),
            "EC-campaigns.txt": "| scenario |\n",
        },
    )
    code, stdout = _check(committed, run)
    assert code == 1
    lines = [line.strip() for line in stdout.splitlines()]
    assert "E1-table1.txt: differs from line 2" in lines
    assert f"E2-table2.txt: missing from {run}" in lines
    assert f"EC-campaigns.txt: missing from {committed}" in lines
    assert "3 table(s) differ or are missing" in lines


def test_missing_run_directory_is_reported(tmp_path):
    committed = _write(tmp_path / "committed", TABLES)
    code, stdout = _check(committed, tmp_path / "absent")
    assert code == 2 and "does not exist" in stdout
