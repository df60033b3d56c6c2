"""One fresh benchmark process: set up, then optionally measure.

Started by ``run.py``, never by hand.  Protocol on stdout: a line
``PERFBENCH-READY`` once detectors are trained, engines compiled and a
warm-up vehicle has run (the parent times process start to this line
as ``setup_s``), then, for ``--role measure``, one line
``PERFBENCH-RESULT <json>`` with the measured batches, the output
checks and, under ``--trace 1``, the per-layer ledger.

A batch is closed-loop: the whole population goes to one
``repro.fleet.run_fleet`` call, and the batch ends when the last vehicle
has been folded.  Batches repeat the same population until
``--seconds`` have passed, so every batch must also return the same
aggregate.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S, probe  # noqa: E402
from ledger import RUN_SPANS, SETUP_SPANS, Ledger, Tracer  # noqa: E402
from workloads import TRAINING, Workload, make_workload  # noqa: E402

from repro.experiments.context import ExperimentContext  # noqa: E402
from repro.finn.compiled import engine_for  # noqa: E402
from repro.fleet import FleetResult, FleetSpec, fleet_detectors, run_fleet  # noqa: E402

#: Fewest untraced batches a run reports a median over.
MIN_BATCHES = 4

#: Per-layer time metrics (self seconds per batch), one per span metric.
LAYER_TIMES = tuple(dict.fromkeys(span.metric for span in RUN_SPANS))

#: Per-layer work counters (per batch); they must repeat exactly.
LAYER_COUNTS = (
    "fastbus.schedule_rows",
    "fastbus.wire_rows",
    "fastbus.frames_arbitrated",
    "faults.corrupted_frames",
    "faults.retransmissions",
    "faults.bus_off_frames",
    "ecu.fifo_dropped",
    "features.rows",
    "compiled.rows",
    "compiled.calls",
)


def set_up(workload: Workload, trace: bool) -> tuple[ExperimentContext, Ledger]:
    """Train and compile the fleet's detectors, then run one vehicle."""
    context = ExperimentContext(TRAINING)
    tracer = Tracer(SETUP_SPANS) if trace else None
    with tracer if tracer is not None else nullcontext():
        for detector in sorted(set(fleet_detectors(workload.spec).values())):
            engine_for(context.ip(detector))
    warm_up = FleetSpec.explicit([workload.spec.vehicle(0)], name="warm-up")
    run_fleet(context, warm_up, workload.options, shard_size=workload.shard_size)
    return context, tracer.collect() if tracer is not None else Ledger()


@dataclasses.dataclass
class Batch:
    """One timed ``run_fleet`` call and the host-speed probes around it."""

    wall_s: float
    result: FleetResult
    ledger: Ledger | None
    probe_before_s: float
    probe_after_s: float

    @property
    def reference_wall_s(self) -> float:
        """The wall time in reference seconds (see ``hostspeed.py``)."""
        probe_s = (self.probe_before_s + self.probe_after_s) / 2
        return self.wall_s * REFERENCE_S / probe_s


def _batch(
    context: ExperimentContext,
    workload: Workload,
    probe_before: float,
    tracer: Tracer | None = None,
) -> Batch:
    gc.collect()
    with tracer if tracer is not None else nullcontext():
        start = time.perf_counter()
        result = run_fleet(
            context, workload.spec, workload.options, shard_size=workload.shard_size
        )
        wall = time.perf_counter() - start
        ledger = tracer.collect() if tracer is not None else None
    # The next batch starts from a quiet process: no pool worker of this
    # one still exiting.  The probe runs in the same quiet.
    _reap_pool_children()
    return Batch(wall, result, ledger, probe_before, probe())


def _reap_pool_children(timeout_s: float = 30.0) -> None:
    """Wait until every pool worker this process started has exited."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _engines_agree(context: ExperimentContext, workload: Workload) -> tuple[bool, str]:
    """A fixed subset of vehicles gives one aggregate on both bus engines."""
    subset = FleetSpec.explicit(
        [workload.spec.vehicle(i) for i in workload.ab_indices], name="ab"
    )
    aggregates = {}
    for engine in ("event", "columnar"):
        options = dataclasses.replace(
            workload.options, backend="thread", max_workers=1, engine=engine
        )
        aggregates[engine] = run_fleet(context, subset, options).aggregate
    ok = aggregates["event"] == aggregates["columnar"]
    return ok, f"vehicles {list(workload.ab_indices)}"


def _layers(setup: Ledger, untraced: list[Batch], traced: list[Batch]) -> dict[str, Any]:
    ledgers = [batch.ledger for batch in traced if batch.ledger is not None]
    first = untraced[0].result

    def median_time(metric: str) -> float:
        return statistics.median(ledger.seconds.get(metric, 0.0) for ledger in ledgers)

    layers: dict[str, float] = {
        "training.train_s": setup.seconds.get("training.train_s", 0.0),
        "compiled.compile_s": setup.seconds.get("compiled.compile_s", 0.0),
    }
    for metric in LAYER_TIMES:
        layers[metric] = median_time(metric)
    counts = ledgers[0].counts
    for metric in LAYER_COUNTS:
        layers[metric] = counts.get(metric, 0)
    records = counts.get("fastbus.records", 0)
    layers["fastbus.queued_share"] = (
        counts.get("fastbus.queued_records", 0) / records if records else 0.0
    )
    untraced_wall = statistics.median(batch.wall_s for batch in untraced)
    traced_wall = statistics.median(batch.wall_s for batch in traced)
    vehicle_wall = statistics.median(ledger.vehicle_wall_s for ledger in ledgers)
    layers["pool.workers"] = first.workers
    layers["pool.shards"] = first.shards
    layers["pool.retries"] = max(batch.result.health.retries for batch in untraced + traced)
    layers["pool.overhead_s"] = untraced_wall - vehicle_wall / max(first.workers, 1)
    layers["trace.coverage"] = statistics.median(
        ledger.covered_s / ledger.vehicle_wall_s if ledger.vehicle_wall_s else 0.0
        for ledger in ledgers
    )
    layers["trace.overhead_s"] = traced_wall - untraced_wall

    fired = {metric for ledger in ledgers for metric, calls in ledger.calls.items() if calls}
    silent = [metric for metric in LAYER_TIMES if metric not in fired]
    shares = {
        metric: (median_time(metric) / vehicle_wall if vehicle_wall else 0.0)
        for metric in LAYER_TIMES
    }
    return {
        "metrics": layers,
        "silent_spans": silent,
        "shares_of_vehicle_time": shares,
        "counters_repeat": all(ledger.counts == counts for ledger in ledgers),
    }


def measure(
    context: ExperimentContext,
    workload: Workload,
    seconds: float,
    trace: bool,
    setup_ledger: Ledger,
) -> dict[str, Any]:
    """Timed batches, then untimed output checks."""
    untraced: list[Batch] = []
    traced: list[Batch] = []
    spool = HERE / ".work" / f"spool-{os.getpid()}"
    if trace:
        spool.mkdir(parents=True, exist_ok=True)
    try:
        deadline = time.perf_counter() + seconds
        last_probe = probe()
        while True:
            untraced.append(_batch(context, workload, last_probe))
            last_probe = untraced[-1].probe_after_s
            if trace:
                traced.append(_batch(context, workload, last_probe, Tracer(RUN_SPANS, spool)))
                last_probe = traced[-1].probe_after_s
            if time.perf_counter() >= deadline and len(untraced) >= MIN_BATCHES:
                break
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    peak_rss_mb = _peak_rss_mb()

    checks: list[dict[str, Any]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    runs = [batch.result for batch in untraced + traced]
    first = runs[0]
    total = first.aggregate.total
    check(
        "health-clean",
        all(
            r.health.ok and not (r.health.retries or r.health.timeouts or r.health.pool_rebuilds)
            for r in runs
        ),
    )
    check("all-vehicles", all(r.vehicles == len(workload.spec) for r in runs))
    check(
        "frames-balance",
        all(
            r.aggregate.total.frames_processed
            + r.aggregate.total.frames_dropped
            + r.aggregate.total.frames_corrupted
            == r.aggregate.total.frames_offered
            for r in runs
        ),
        "processed + dropped + corrupted == offered",
    )
    check(
        "batches-identical",
        all(batch.result.aggregate == first.aggregate for batch in untraced),
        f"{len(untraced)} untraced batch(es)",
    )
    if trace:
        check(
            "traced-equals-untraced",
            all(batch.result.aggregate == first.aggregate for batch in traced),
            f"{len(traced)} traced batch(es)",
        )
    ab_start = time.perf_counter()
    ok, detail = _engines_agree(context, workload)
    check("engines-agree", ok, f"{detail}, {time.perf_counter() - ab_start:.1f} s")

    # Other tenants of a shared host slow whole stretches of a run;
    # reference seconds factor that out (see hostspeed.py).
    reference_wall = statistics.median(batch.reference_wall_s for batch in untraced)
    failed_shards = sum(len(r.health.failures) for r in runs)
    attempted = sum(r.shards for r in runs)
    latency_p99 = total.latency_quantile_s(0.99)
    out: dict[str, Any] = {
        "backend": first.backend,
        "workers": first.workers,
        "shards": first.shards,
        "vehicles": len(workload.spec),
        "batches": len(untraced),
        "traced_batches": len(traced),
        "walls_s": [batch.wall_s for batch in untraced],
        "reference_walls_s": [batch.reference_wall_s for batch in untraced],
        "raw_vehicles_per_s": len(workload.spec)
        / statistics.median(batch.wall_s for batch in untraced),
        "end_to_end": {
            "vehicles_per_s": len(workload.spec) / reference_wall,
            "frames_per_s": total.frames_offered / reference_wall,
            "peak_rss_mb": peak_rss_mb,
            "detection_rate": total.detection_rate,
            "drop_rate": total.drop_rate,
            "detect_latency_p99_s": latency_p99,
        },
        "aggregate": first.as_record(),
        "attempted": attempted,
        "failed_shards": failed_shards,
    }
    if trace:
        layers = _layers(setup_ledger, untraced, traced)
        check("counters-repeat", layers.pop("counters_repeat"), "per traced batch")
        out["layers"] = layers
    out["checks"] = checks
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed)
    context, setup_ledger = set_up(workload, bool(args.trace))
    print("PERFBENCH-READY", flush=True)
    if args.role == "setup":
        return 0
    result = measure(context, workload, args.seconds, bool(args.trace), setup_ledger)
    print("PERFBENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
