"""Micro-benchmark: float dataflow graph vs the compiled integer engine.

Times batch classification of a large feature block through both
functional paths of the same verified IP — the node-by-node float64
``DataflowGraph`` reference and the fused engine behind
``MemoryMappedAccelerator.run_batch`` — asserts bit-exactness and the
speedup floor the streaming pipeline budget relies on, then times the
E11 campaign sweep end to end, serial vs thread-pooled.  Archives
everything to ``benchmarks/output/BENCH_inference.json``.

Metric classes (see ``scripts/check_bench_regression.py``): the
``*_wall_fps`` rates and ``speedup`` ratios are wall-clock based and
informational; the deterministic gating leaves are the model's
``core_throughput_fps`` and the ECU pipeline's ``sustained_fps``, which
must not drift as the engine evolves.

A small detector is trained in-file (as in the gateway benchmark), so
the file runs in about a minute; ``REPRO_BENCH_SMOKE=1`` shrinks the
inputs and writes under ``benchmarks/output/smoke/``.
"""

import json
import time

import numpy as np
import pytest
from _bench_lane import OUTPUT_DIR, SMOKE, write_bench

from repro.datasets.features import BitFeatureEncoder
from repro.experiments.campaigns import run_campaign_sweep
from repro.fleet import ExecOptions
from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.finn.compiled import engine_cache_info, engine_for
from repro.soc.accelerator import MemoryMappedAccelerator
from repro.soc.ecu import IDSEnabledECU
from repro.utils.rng import new_rng

#: Feature rows pushed through both batch paths.
NUM_FRAMES = 8_192 if SMOKE else 98_304

#: Regression floor for the compiled engine over the float graph.  The
#: full lane measured 17.5x on the canonical W4A4 topology with the
#: shift threshold kernel (1.20M vs 68.6k rows/s on a 2-core host; the
#: committed BENCH_inference.json carries the figure); this assert also
#: runs in the *blocking* tier-1 CI lane, where loaded shared runners
#: compress BLAS-vs-broadcast wall-clock ratios, so the floor only
#: guards the structural claim — the engine must stay decisively faster
#: than the float graph — not the exact figure.
MIN_SPEEDUP = 1.2 if SMOKE else 2.0

#: Scenario subset for the sweep wall-time comparison (the full
#: catalogue's trajectory lives in BENCH_campaigns.json; this lane
#: isolates the scheduler win on a fixed mixed subset).
SWEEP_SCENARIOS = (
    ["baseline-dos", "multi-segment-storm"]
    if SMOKE
    else [
        "baseline-dos",
        "burst-dos",
        "stealth-low-rate",
        "staggered-cross-segment",
        "overlapping-mixed",
        "multi-segment-storm",
    ]
)
SWEEP_DURATION = 0.6 if SMOKE else 2.0


@pytest.fixture(scope="module")
def bench_context():
    settings = (
        ExperimentSettings(duration=4.0, epochs=2, seed=2023)
        if SMOKE
        else ExperimentSettings(duration=6.0, epochs=8, seed=2023)
    )
    return ExperimentContext(settings)


@pytest.fixture(scope="module")
def bench_ip(bench_context):
    return bench_context.ip("dos")


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_compiled_engine_speedup(bench_ip):
    rng = new_rng(42, "bench-compiled-engine")
    features = rng.random((NUM_FRAMES, bench_ip.export.input_features))
    accel = MemoryMappedAccelerator(bench_ip)
    engine = engine_for(bench_ip)
    repeats = 1 if SMOKE else 3

    graph_s, graph_labels = _best_of(lambda: accel.run_batch(features, compiled=False), repeats)
    compiled_s, compiled_labels = _best_of(lambda: accel.run_batch(features), repeats)
    assert np.array_equal(graph_labels, compiled_labels)
    speedup = graph_s / compiled_s

    ecu = IDSEnabledECU(bench_ip, BitFeatureEncoder(), name="bench-inference-ecu")
    cache = engine_cache_info()
    payload = {
        "frames": NUM_FRAMES,
        "topology": bench_ip.export.topology,
        "batch": {
            "graph_wall_fps": round(NUM_FRAMES / graph_s, 1),
            "compiled_wall_fps": round(NUM_FRAMES / compiled_s, 1),
            "speedup": round(speedup, 2),
            "min_speedup_required": MIN_SPEEDUP,
            "bit_exact": True,
            "engine_chunk": engine.chunk_size,
        },
        # Deterministic pipeline rates: these gate the regression check.
        "core_throughput_fps": round(bench_ip.throughput_fps, 1),
        "ecu_sustained_fps": round(ecu.sustained_fps(), 1),
        "engine_cache": {"hits": cache.hits, "misses": cache.misses, "size": cache.size},
    }
    write_bench("inference", payload)
    print(
        f"\ninference {NUM_FRAMES} frames: graph {graph_s:.3f}s "
        f"({payload['batch']['graph_wall_fps']:,.0f} fps) -> compiled {compiled_s:.3f}s "
        f"({payload['batch']['compiled_wall_fps']:,.0f} fps), {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, payload["batch"]


def test_bench_campaign_sweep_parallel(bench_context, bench_ip):
    workers = ExecOptions().workers_for(len(SWEEP_SCENARIOS))
    start = time.perf_counter()
    serial = run_campaign_sweep(
        bench_context,
        scenarios=SWEEP_SCENARIOS,
        duration=SWEEP_DURATION,
        options=ExecOptions(backend="thread", max_workers=1),
    )
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_campaign_sweep(
        bench_context,
        scenarios=SWEEP_SCENARIOS,
        duration=SWEEP_DURATION,
        options=ExecOptions(backend="thread", max_workers=workers),
    )
    parallel_s = time.perf_counter() - start
    start = time.perf_counter()
    processed = run_campaign_sweep(
        bench_context,
        scenarios=SWEEP_SCENARIOS,
        duration=SWEEP_DURATION,
        options=ExecOptions(backend="process", max_workers=workers),
    )
    process_s = time.perf_counter() - start

    # Same seeds, same verdicts — the pools only change wall time.
    for other in (parallel, processed):
        assert [(r.scenario, r.mode) for r in serial.runs] == [
            (r.scenario, r.mode) for r in other.runs
        ]
        for serial_run, other_run in zip(serial.runs, other.runs):
            assert serial_run.report.total_frames == other_run.report.total_frames
            assert serial_run.report.total_dropped == other_run.report.total_dropped

    sweep = {
        "scenarios": len(SWEEP_SCENARIOS),
        "campaign_duration_s": SWEEP_DURATION,
        "workers": workers,
        "serial_wall_seconds": round(serial_s, 3),
        "parallel_wall_seconds": round(parallel_s, 3),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        # backend="process": forked workers, not fresh interpreters —
        # they inherit the caller's IPs and engine cache, so warm_engines
        # hits that cache instead of recompiling.  The wall still pays
        # pool start-up and task/result pickling, which is why it only
        # wins once per-scenario work dwarfs that fixed cost.
        "process_wall_seconds": round(process_s, 3),
        "process_speedup": round(serial_s / process_s, 2),
    }
    bench_path = OUTPUT_DIR / "BENCH_inference.json"
    payload = json.loads(bench_path.read_text(encoding="utf-8")) if bench_path.exists() else {}
    payload["campaign_sweep"] = sweep
    write_bench("inference", payload)
    print(
        f"\ncampaign sweep x{len(SWEEP_SCENARIOS)}: serial {serial_s:.2f}s -> "
        f"thread {parallel_s:.2f}s ({sweep['parallel_speedup']:.2f}x) / "
        f"process {process_s:.2f}s ({sweep['process_speedup']:.2f}x, {workers} workers)"
    )
