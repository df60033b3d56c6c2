"""Fleet pipeline benchmark: one workload, one seed, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-mix --seed 1 --seconds 12 --trace 0

Each call starts fresh processes (``worker.py``): ``SETUP_RUNS``
that only set up, then one that sets up and measures, so ``setup_s``
and ``peak_rss_mb`` belong to this workload alone.  ``setup_s`` is the
median, over all of them, of the time from process start until
detectors are trained, engines compiled and one warm-up vehicle has
run.  Times are in reference seconds: each is scaled by how fast the
host ran a fixed probe next to it (``hostspeed.py``), so other tenants
of a shared host do not show as regressions.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced batches and reports the per-layer ledger
(``ledger.py``).  The last stdout line is the JSON result; the lines
before it give every metric with its unit, the output checks and the
environment fingerprint, which ``results/`` also keeps.  The exit code
is non-zero when an output check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only processes per call; with the measuring process, the
#: median of ``SETUP_RUNS + 1`` set-ups is reported.
SETUP_RUNS = 2

#: Every child must finish inside this budget (seconds of wall time
#: beyond ``--seconds``), so one call stays well under three minutes.
BUDGET_S = 140.0

#: Units of every metric the benchmark prints.
UNITS = {
    "setup_s": "s",
    "vehicles_per_s": "1/s",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
    "shard_fail_share": "share",
    "detection_rate": "share",
    "drop_rate": "share",
    "detect_latency_p99_s": "s",
    "training.train_s": "s",
    "compiled.compile_s": "s",
    "campaign.compile_s": "s",
    "gateway.build_s": "s",
    "fastbus.schedule_s": "s",
    "fastbus.schedule_rows": "count",
    "fastbus.wire_bits_s": "s",
    "fastbus.wire_rows": "count",
    "fastbus.arbitration_s": "s",
    "fastbus.frames_arbitrated": "count",
    "fastbus.queued_share": "share",
    "faults.corrupted_frames": "count",
    "faults.retransmissions": "count",
    "faults.bus_off_frames": "count",
    "ecu.admission_s": "s",
    "ecu.fifo_dropped": "count",
    "features.encode_s": "s",
    "features.rows": "count",
    "compiled.predict_s": "s",
    "compiled.rows": "count",
    "compiled.calls": "count",
    "ecu.report_s": "s",
    "gateway.monitor_self_s": "s",
    "aggregate.fold_s": "s",
    "pool.workers": "count",
    "pool.shards": "count",
    "pool.retries": "count",
    "pool.overhead_s": "s",
    "trace.coverage": "share",
    "trace.overhead_s": "s",
}


class ChildError(RuntimeError):
    """A worker process failed, timed out or broke the line protocol."""


def _run_child(args: list[str], deadline: float) -> tuple[float, str | None]:
    """Run ``worker.py``; returns (seconds to READY, RESULT payload)."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines: queue.Queue[str | None] = queue.Queue()

    def pump() -> None:
        assert child.stdout is not None
        for line in child.stdout:
            lines.put(line.rstrip("\n"))
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    ready_s: float | None = None
    payload: str | None = None
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ChildError(f"worker {args} ran past its time budget")
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                break
            if line == "PERFBENCH-READY":
                ready_s = time.perf_counter() - start
            elif line.startswith("PERFBENCH-RESULT "):
                payload = line[len("PERFBENCH-RESULT ") :]
        code = child.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        reader.join(timeout=5.0)
    if code != 0 or ready_s is None:
        raise ChildError(f"worker {args} exited with code {code}")
    return ready_s, payload


def _number(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _fingerprint() -> dict[str, Any]:
    """Where the numbers came from, so they are compared like for like."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    # The program is built from this checkout's source, never from an
    # installed copy.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from hostspeed import REFERENCE_S, probe
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.perf_counter() + BUDGET_S + args.seconds
    # Host-speed probes run between children, never beside one.
    probes = [probe()]
    raw_setups: list[float] = []
    setups: list[float] = []
    try:
        for _ in range(SETUP_RUNS):
            ready_s, _ = _run_child(
                ["--role", "setup", *common, "--trace", str(args.trace)], deadline
            )
            probes.append(probe())
            raw_setups.append(ready_s)
            setups.append(ready_s * REFERENCE_S / ((probes[-2] + probes[-1]) / 2))
        ready_s, payload = _run_child(
            [
                "--role", "measure", *common,
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            deadline,
        )
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if payload is None:
        print("perfbench: measuring worker printed no result", file=sys.stderr)
        return 3
    raw_setups.append(ready_s)
    setups.append(ready_s * REFERENCE_S / probes[-1])
    measured = json.loads(payload)

    end_to_end = dict(measured["end_to_end"])
    end_to_end["setup_s"] = statistics.median(setups)
    failed_checks = [check for check in measured["checks"] if not check["ok"]]
    failed = measured["failed_shards"] + len(failed_checks)
    attempted = measured["attempted"]
    end_to_end["shard_fail_share"] = failed / attempted

    reported = measured["layers"]["metrics"] if args.trace else end_to_end
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [entry["name"] for entry in benchmark["per_layer" if args.trace else "end_to_end"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": {
            **_fingerprint(),
            "backend": measured["backend"],
            "workers": measured["workers"],
        },
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "setup_probes_s": probes,
        "end_to_end": end_to_end,
        **{key: value for key, value in measured.items() if key != "end_to_end"},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    fp = record["fingerprint"]
    print(
        f"# {args.workload} seed={args.seed} backend={fp['backend']}x{fp['workers']} "
        f"shards={measured['shards']} batches={measured['batches']} "
        f"nproc={fp['nproc']} python={fp['python']} numpy={fp['numpy']} "
        f"commit={fp['git_commit'] or 'n/a'} src={fp['source_sha256'][:12]}"
    )
    for name, value in end_to_end.items():
        print(f"end_to_end {name} = {_number(value)} {UNITS[name]}")
    if args.trace:
        shares = measured["layers"]["shares_of_vehicle_time"]
        for name, value in reported.items():
            share = f"  ({100.0 * shares[name]:.1f}% of vehicle time)" if name in shares else ""
            print(f"per_layer {name} = {_number(value)} {UNITS[name]}{share}")
        silent = measured["layers"]["silent_spans"]
        if silent:
            print(f"# spans that never fired: {', '.join(silent)}")
    for check in measured["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"check {check['name']}: {status} {check['detail']}".rstrip())
    print(f"# full record: {out_path.relative_to(ROOT)}")

    correct = not failed_checks and measured["failed_shards"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": reported[name], "unit": UNITS[name]} for name in names
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
