"""Micro-benchmark: the wire-level fault layer's cost on the bus kernel.

Simulates the same seeded vehicle window through the columnar engine
with no fault model, with a zero-rate model (the fault machinery
engaged but drawing nothing), and across a BER sweep — archiving the
frame rates to ``benchmarks/output/BENCH_faults.json``.  The structural
claim gated *in-bench*: routing every capture through the fault-aware
entry points must not tax the clean path, and both produce
bit-identical captures.  The gate is an in-run A/B: no-model and
zero-rate captures alternate in ``CLEAN_PAIRS`` pairs, and the median
of the per-pair time ratios may exceed 1 by at most the no-model lane's
own spread (interquartile range over median), floored at
``MIN_CLEAN_TOLERANCE_PCT``.

Metric classes (see ``scripts/check_bench_regression.py``): the
``offered_fps`` leaves are deterministic traffic rates (a property of
the seeded scenario and its BER, identical across machines) and gate
the regression check; ``*_wall_fps`` rates are wall-clock based and
informational; the ``clean_overhead_*`` leaves match the checker's
``overhead`` skip marker — their hard floor is the assert below, not a
cross-machine comparison.
"""

import json
import statistics
import time

import numpy as np
from _bench_lane import OUTPUT_DIR, SMOKE, relative_spread

from repro.can.attacks import DoSAttacker
from repro.can.faults import WireFaultModel
from repro.datasets.carhacking import build_vehicle_bus

#: Simulated seconds per lane.
DURATION = 1.0 if SMOKE else 4.0

#: Interleaved no-model / zero-rate-model capture pairs.
CLEAN_PAIRS = 9 if SMOKE else 15

#: Floor of the clean-path tolerance (percent); the smoke lane's tiny
#: captures on shared CI runners get slack for scheduler noise.
MIN_CLEAN_TOLERANCE_PCT = 25.0 if SMOKE else 5.0

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


def _clean_path_pairs(pairs):
    """Per-lane capture times over alternating pairs, plus each lane's capture."""
    zero_model = WireFaultModel(seed=_SEED)
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
    times, captures = _clean_path_pairs(CLEAN_PAIRS)
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
    tolerance_pct = round(
        max(MIN_CLEAN_TOLERANCE_PCT, 100.0 * relative_spread(times["clean"])), 2
    )
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
            "clean_overhead_tolerance_pct": tolerance_pct,
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

    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / "BENCH_faults.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    worst = payload["ber_sweep"][f"ber_{BERS[-1]:g}"]
    print(
        f"\nfault layer ({DURATION:g}s window): clean "
        f"{payload['clean']['columnar_wall_fps']:,.0f} fps, zero-rate model "
        f"{overhead_pct:+.1f}% wall (tolerance {tolerance_pct:.1f}%, "
        f"{CLEAN_PAIRS} pairs); BER {BERS[-1]:g} -> {worst['corrupted']} "
        f"corrupted, {worst['faulted_wall_fps']:,.0f} fps"
    )
    assert overhead_pct < tolerance_pct, payload
