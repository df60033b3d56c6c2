"""Micro-benchmark: fleet-scale campaign throughput (vehicles/sec).

Samples a heterogeneous fleet (mixed scenarios, topology profiles and
gateway deployments, staggered attack onsets) and runs the same
population end to end through ``repro.fleet.run_fleet`` on two
configurations, interleaved: single-core (``thread`` x1) and the
library-default ``ExecOptions()`` (``auto``: process fan-out on
multi-core hosts).  Only the fleet calls are timed — detectors train and
compile outside the window.  Archives the trajectory to
``benchmarks/output/BENCH_fleet.json``.

The gate is an in-run A/B, never a constant from another machine: the
default configuration's median rate may trail the single-core median by
at most the single-core runs' own spread (interquartile range over
median), and never by less than ``MIN_TOLERANCE``.  Both configurations
must fold bit-identical aggregates.

Metric classes (see ``scripts/check_bench_regression.py``): the
deterministic ``offered_fps`` (frames per simulated vehicle-second, a
property of the seeded population) gates the regression check; the
``*_wall_vehicles_per_sec`` rates and ``auto_speedup`` are wall-clock
based and informational.  Per-vehicle simulation cost is
duration-proportional, so both lanes use the same per-vehicle scenario
length — the smoke lane only shrinks the *population*.
"""

import json
import statistics
import time

from _bench_lane import OUTPUT_DIR, SMOKE, relative_spread

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.fleet import ExecOptions, FleetSpec, fleet_detectors, run_fleet

#: Per-vehicle campaign length (seconds of simulated bus time) — the
#: same in both lanes so vehicles/sec stays scale-comparable.
DURATION = 0.4

#: Population size: large enough that pool start-up does not decide the
#: A/B, small enough that the full lane stays well under 30 s on 2 cores.
FLEET_SIZE = 48 if SMOKE else 240

#: Vehicles per shard task (the memory bound: peak RSS is O(shard)).
SHARD_SIZE = 8 if SMOKE else 40

#: Interleaved runs per configuration.
RUNS = 3

#: Floor of the A/B tolerance: the default configuration may trail the
#: single-core one by the larger of this and the single-core spread.
MIN_TOLERANCE = 0.10

CONFIGS = {
    "serial": ExecOptions(backend="thread", max_workers=1),
    "auto": ExecOptions(),
}


def test_bench_fleet():
    settings = (
        ExperimentSettings(duration=4.0, epochs=2, seed=2023)
        if SMOKE
        else ExperimentSettings(duration=6.0, epochs=8, seed=2023)
    )
    context = ExperimentContext(settings)
    spec = FleetSpec(
        name="bench-city",
        size=FLEET_SIZE,
        seed=2023,
        scenarios=(
            "baseline-dos",
            "baseline-fuzzy",
            "stealth-low-rate",
            "masquerade-rpm",
        ),
        profiles=("full", "mid", "lite"),
        deployments=("per-ip", "shared-ip"),
        duration=DURATION,
        onset_jitter=0.05,
    )
    # Train/compile every scenario-matched detector outside the timed
    # window: the rates track the fleet itself, not model training.
    for detector in sorted(set(fleet_detectors(spec).values())):
        context.ip(detector)

    rates = {name: [] for name in CONFIGS}
    results = {}
    for run in range(RUNS):
        # Alternate which configuration goes first (serial on run 0), so
        # neither always runs on a host the other has just warmed.
        order = list(CONFIGS) if run % 2 == 0 else list(reversed(CONFIGS))
        for name in order:
            start = time.perf_counter()
            result = run_fleet(context, spec, CONFIGS[name], shard_size=SHARD_SIZE)
            rates[name].append(FLEET_SIZE / (time.perf_counter() - start))
            assert result.health.ok and result.health.retries == 0  # happy path
            results.setdefault(name, result)
            # Backend and worker count never move a result.
            assert result.aggregate == results["serial"].aggregate

    auto = results["auto"]
    total = auto.aggregate.total
    # Structural invariants the fleet must keep as it scales.
    assert auto.vehicles == FLEET_SIZE
    assert total.frames_processed + total.frames_dropped == total.frames_offered
    assert total.phases_injecting >= FLEET_SIZE  # every scenario injects
    assert 0.0 < total.detection_rate <= 1.0
    assert sum(s.vehicles for s in auto.aggregate.by_scenario.values()) == FLEET_SIZE

    serial_vps = statistics.median(rates["serial"])
    auto_vps = statistics.median(rates["auto"])
    tolerance = max(MIN_TOLERANCE, relative_spread(rates["serial"]))
    assert auto_vps >= serial_vps * (1.0 - tolerance), (
        f"ExecOptions() ({auto.backend} x{auto.workers}) ran {auto_vps:.1f} "
        f"vehicles/s, below single-core {serial_vps:.1f} by more than "
        f"{100.0 * tolerance:.0f}%"
    )

    simulated_s = FLEET_SIZE * DURATION
    payload = {
        "vehicles": FLEET_SIZE,
        "vehicle_duration_s": DURATION,
        "runs_per_config": RUNS,
        "shards": auto.shards,
        # Resolved by ExecOptions at run time ("auto" picks process
        # fan-out on multi-core hosts): record what actually ran.
        "workers": auto.workers,
        "backend": auto.backend,
        "engine": auto.engine,
        # Medians over the interleaved runs (informational: wall-clock).
        "serial_wall_vehicles_per_sec": round(serial_vps, 2),
        "auto_wall_vehicles_per_sec": round(auto_vps, 2),
        "auto_speedup": round(auto_vps / serial_vps, 2),
        "tolerance": round(tolerance, 3),
        # Resilience configuration the default run executed under.
        "timeout_s": auto.options.timeout_s,
        "max_retries": auto.options.max_retries,
        "strict": auto.options.strict,
        "checkpointed": auto.checkpointed,
        "health": auto.health.as_record(),
        # Deterministic traffic rate of the seeded population: frames
        # offered per simulated vehicle-second — this anchors the gate.
        "offered_fps": round(total.frames_offered / simulated_s, 1),
        "frames_offered": total.frames_offered,
        "detection_rate": round(total.detection_rate, 4),
        "drop_rate": round(total.drop_rate, 4),
        "latency_p50_upper_s": total.latency_quantile_s(0.5),
        "latency_p99_upper_s": total.latency_quantile_s(0.99),
        "by_scenario": {
            name: {
                "vehicles": piece.vehicles,
                "detection_rate": round(piece.detection_rate, 4),
                "drop_rate": round(piece.drop_rate, 4),
            }
            for name, piece in auto.aggregate.by_scenario.items()
        },
        "by_deployment": {
            name: {
                "vehicles": piece.vehicles,
                "detection_rate": round(piece.detection_rate, 4),
                "drop_rate": round(piece.drop_rate, 4),
            }
            for name, piece in auto.aggregate.by_deployment.items()
        },
    }
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / "BENCH_fleet.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"\nfleet {FLEET_SIZE} vehicles x {DURATION}s, {RUNS} runs each: "
        f"thread x1 {serial_vps:.1f} vehicles/s, ExecOptions() "
        f"({auto.backend} x{auto.workers}) {auto_vps:.1f} vehicles/s "
        f"({payload['auto_speedup']:.2f}x), detection "
        f"{100.0 * total.detection_rate:.1f}%, drop {100.0 * total.drop_rate:.2f}%"
    )
