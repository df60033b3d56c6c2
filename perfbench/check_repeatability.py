"""The benchmark's own test: counters repeat, every span fires.

Run from the repository root (it is not part of the library suite):

    python3 -m pytest perfbench/check_repeatability.py -q

Each workload is run twice, traced, at one seed.  Every per-layer work
counter and every simulated end-to-end metric must repeat exactly, every
timed span must have fired, and the counters each workload exists to
load must be non-zero.  A copy of the benchmark without the program must
fail without printing a result.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from ledger import RUN_SPANS, SETUP_SPANS, Span, Tracer  # noqa: E402
from run import UNITS  # noqa: E402
from worker import LAYER_COUNTS, LAYER_TIMES  # noqa: E402

SEED = 1

#: Counters that must be non-zero on a workload, beyond the ones every
#: workload drives (schedule, wire, arbitration, encode, engine).
LOADED = {
    "fleet-mix": (),
    "flood-long": ("ecu.fifo_dropped",),
    "noisy-auto": (
        "faults.corrupted_frames",
        "faults.retransmissions",
        "faults.bus_off_frames",
    ),
}
ALWAYS = (
    "fastbus.schedule_rows",
    "fastbus.wire_rows",
    "fastbus.frames_arbitrated",
    "features.rows",
    "compiled.rows",
    "compiled.calls",
)
SIMULATED = ("detection_rate", "drop_rate", "detect_latency_p99_s")


def _traced_run(workload: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "results" / f"{workload}-seed{SEED}-trace1.json").read_text()
    )
    return result, record


@pytest.mark.parametrize("workload", sorted(LOADED))
def test_counters_repeat_and_spans_fire(workload: str) -> None:
    first, first_record = _traced_run(workload)
    second, second_record = _traced_run(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0

    counters = LAYER_COUNTS + ("pool.workers", "pool.shards", "pool.retries")
    for name in counters:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name in SIMULATED:
        assert (
            first_record["end_to_end"][name] == second_record["end_to_end"][name]
        ), name
    assert first_record["aggregate"] == second_record["aggregate"]

    layers = first_record["layers"]
    assert layers["silent_spans"] == []
    for name in LAYER_TIMES + ("training.train_s", "compiled.compile_s"):
        assert first["metrics"][name]["value"] > 0, name
    for name in ALWAYS + LOADED[workload]:
        assert first["metrics"][name]["value"] > 0, name


def _bound(span: Span) -> object:
    owner = importlib.import_module(span.module)
    if "." not in span.attr:
        return getattr(owner, span.attr)
    class_name, name = span.attr.split(".")
    return getattr(owner, class_name).__dict__[name]


def test_tracer_restores_every_callable() -> None:
    spans = SETUP_SPANS + RUN_SPANS
    originals = [_bound(span) for span in spans]
    with Tracer(spans):
        for span, original in zip(spans, originals):
            assert _bound(span) is not original, span.attr
    for span, original in zip(spans, originals):
        assert _bound(span) is original, span.attr


def test_benchmark_json_units_match_the_printed_units() -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNITS[entry["name"]] == entry["unit"], entry["name"]


def test_refuses_to_run_without_the_program() -> None:
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "results")
        )
        proc = subprocess.run(
            [
                sys.executable, "perfbench/run.py",
                "--workload", "fleet-mix", "--seed", "1",
                "--seconds", "1", "--trace", "0",
            ],
            cwd=bare,
            env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
