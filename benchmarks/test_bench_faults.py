"""Micro-benchmark: the wire-level fault layer's cost on the bus kernel.

Simulates the same seeded vehicle window through the columnar engine
with no fault model, with a zero-rate model (the fault machinery
engaged but drawing nothing), and across a BER sweep — archiving the
frame rates to ``benchmarks/output/BENCH_faults.json``.  The structural
claim gated *in-bench*: routing every capture through the fault-aware
entry points must not tax the clean path.  It holds by construction —
``resolve_bus_faults`` folds an inert model (zero rate, no targeted
faults) to ``None``, so the zero-rate lane runs the clean path itself —
and the bench asserts exactly that, plus bit-identical captures.  The
two lanes still alternate in ``CLEAN_PAIRS`` pairs and the median
per-pair time ratio is recorded as ``clean_overhead_pct``; with one
code path under both lanes it measures host noise, so it gates nothing.

Metric classes (see ``scripts/check_bench_regression.py``): the
``offered_fps`` leaves are deterministic traffic rates (a property of
the seeded scenario and its BER, identical across machines) and gate
the regression check; ``*_wall_fps`` rates are wall-clock based and
informational; ``clean_overhead_pct`` matches the checker's
``overhead`` skip marker.
"""

import statistics
import time

import numpy as np
from _bench_lane import SMOKE, write_bench

from repro.can.attacks import DoSAttacker
from repro.can.faults import WireFaultModel, resolve_bus_faults
from repro.datasets.carhacking import build_vehicle_bus

#: Simulated seconds per lane.
DURATION = 1.0 if SMOKE else 4.0

#: Interleaved no-model / zero-rate-model capture pairs.
CLEAN_PAIRS = 9 if SMOKE else 15

#: Wire bit-error rates swept by the faulted lanes.
BERS = (1e-5, 1e-4, 1e-3)

_SEED = 2023


def _loaded_bus():
    bus = build_vehicle_bus(vehicle_seed=_SEED)
    bus.attach(
        DoSAttacker([(0.2 * DURATION, 0.8 * DURATION)], interval=0.0005, seed=_SEED)
    )
    return bus


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _clean_path_pairs(pairs, zero_model):
    """Per-lane capture times over alternating pairs, plus each lane's capture."""
    lanes = {
        "clean": lambda: _loaded_bus().capture(DURATION),
        "zero": lambda: _loaded_bus().capture(DURATION, faults=zero_model),
    }
    times = {name: [] for name in lanes}
    captures = {}
    for pair in range(pairs):
        # Alternate which lane goes first, so order effects cancel.
        order = list(lanes) if pair % 2 == 0 else list(reversed(lanes))
        for name in order:
            start = time.perf_counter()
            captures[name] = lanes[name]()
            times[name].append(time.perf_counter() - start)
    return times, captures


def test_bench_fault_layer():
    zero_model = WireFaultModel(seed=_SEED)
    # The clean-path claim itself: an inert model never reaches the
    # bus kernel, so both lanes below run identical code.
    assert resolve_bus_faults(_loaded_bus().sources, zero_model) is None
    times, captures = _clean_path_pairs(CLEAN_PAIRS, zero_model)
    clean, zero = captures["clean"], captures["zero"]
    # The zero-rate model must not perturb the simulation by one bit.
    np.testing.assert_array_equal(
        clean.capture.timestamps, zero.capture.timestamps
    )
    np.testing.assert_array_equal(clean.capture.can_ids, zero.capture.can_ids)
    assert not zero.corrupted_mask.any()

    ratio = statistics.median(
        zero_s / clean_s for clean_s, zero_s in zip(times["clean"], times["zero"])
    )
    overhead_pct = round(100.0 * (ratio - 1.0), 2)
    frames = len(clean.capture)
    payload = {
        "sim_duration_s": DURATION,
        "clean_pairs": CLEAN_PAIRS,
        "clean": {
            "frames": frames,
            "offered_fps": round(frames / DURATION, 1),
            "columnar_wall_fps": round(frames / statistics.median(times["clean"]), 1),
        },
        "zero_rate_model": {
            "columnar_wall_fps": round(frames / statistics.median(times["zero"]), 1),
            "clean_overhead_pct": overhead_pct,
            "bit_exact": True,
        },
        "ber_sweep": {},
    }

    repeats = 1 if SMOKE else 5
    for ber in BERS:
        model = WireFaultModel(seed=_SEED, bit_error_rate=ber)
        faulted_s, result = _best_of(
            lambda: _loaded_bus().capture(DURATION, faults=model), repeats
        )
        rows = len(result.capture)
        payload["ber_sweep"][f"ber_{ber:g}"] = {
            "frames": rows,
            "corrupted": int(result.corrupted_mask.sum()),
            "retransmissions": int(
                result.retry_counts[~result.corrupted_mask].sum()
            ),
            "bus_off_events": int(result.bus_off_mask.sum()),
            "offered_fps": round(rows / DURATION, 1),
            "faulted_wall_fps": round(rows / faulted_s, 1),
        }

    write_bench("faults", payload)
    worst = payload["ber_sweep"][f"ber_{BERS[-1]:g}"]
    print(
        f"\nfault layer ({DURATION:g}s window): clean "
        f"{payload['clean']['columnar_wall_fps']:,.0f} fps, zero-rate model "
        f"{overhead_pct:+.1f}% wall ({CLEAN_PAIRS} pairs, same code path); "
        f"BER {BERS[-1]:g} -> {worst['corrupted']} corrupted, "
        f"{worst['faulted_wall_fps']:,.0f} fps"
    )
