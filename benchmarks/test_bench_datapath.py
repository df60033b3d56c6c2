"""Micro-benchmark: the zero-record columnar data path, end to end.

Three lanes, one per layer the CaptureArray interchange refactor
touches, archived to ``benchmarks/output/BENCH_datapath.json``:

* ``capture_to_train`` — synthesis + feature encoding straight off the
  capture columns (``encoder.encode(capture.capture)``), the training
  ingest path that previously round-tripped through record lists;
* ``capture_to_stream`` — ``IDSEnabledECU.process_stream`` consuming
  array slices (FIFO admission, then chunked encode and classify) for a
  DoS window;
* ``flood_arbitration`` — the fastbus arbitration sweep on a
  saturated attacker-only bus (release interval shorter than the frame
  wire time): the backlog only grows, so nearly every frame goes
  through the heap.  No scenario has this shape; the lane bounds the
  heap's worst case.  Bit-exactness against the per-frame event loop is
  asserted in-lane.

Metric classes (see ``scripts/check_bench_regression.py``): the
``offered_fps``/``serviced_fps`` leaves are deterministic properties of
the seeded scenarios and gate the regression check; ``*_wall_fps`` and
``speedup`` figures are wall-clock based and informational.
"""

import time

import numpy as np
import pytest
from _bench_lane import SMOKE, write_bench

from repro.can.attacks import DoSAttacker
from repro.can.bus import BusSimulator
from repro.datasets.carhacking import build_vehicle_bus, generate_capture
from repro.datasets.features import BitFeatureEncoder, WindowFeatureEncoder
from repro.finn.ipgen import compile_model
from repro.models.qmlp import QMLPConfig
from repro.soc.ecu import IDSEnabledECU
from repro.training.pipeline import train_ids_model
from repro.training.trainer import TrainConfig

#: Simulated seconds of bus traffic per lane.
DURATION = 1.0 if SMOKE else 4.0

_SEED = 2023


@pytest.fixture(scope="module")
def datapath_ip():
    result = train_ids_model(
        "dos",
        model_config=QMLPConfig(hidden=(32, 16), weight_bits=4, act_bits=4, seed=7),
        train_config=TrainConfig(epochs=3 if SMOKE else 6, seed=3),
        duration=3.0,
        seed=11,
    )
    return compile_model(result.model, name="bench-datapath-ip", target_fps=1e6)


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _encode_lane(repeats):
    """Capture synthesis -> feature matrix without touching .records."""
    capture = generate_capture(
        "dos", duration=DURATION, seed=_SEED, attack_burst=DURATION / 2
    ).capture
    frames = len(capture)
    bit_s, (X_bit, _) = _best_of(lambda: BitFeatureEncoder().encode(capture), repeats)
    window_s, (X_win, _) = _best_of(
        lambda: WindowFeatureEncoder(window=4).encode(capture), repeats
    )
    assert X_bit.shape == (frames, BitFeatureEncoder().num_features)
    assert X_win.shape[0] == frames
    return {
        "frames": frames,
        "offered_fps": round(frames / DURATION, 1),
        "bit_encode_wall_fps": round(frames / bit_s, 1),
        "window_encode_wall_fps": round(frames / window_s, 1),
    }


def _stream_lane(ip, repeats):
    """Chunked columnar streaming through an IDS-enabled ECU."""
    bus = build_vehicle_bus(vehicle_seed=_SEED)
    bus.attach(
        DoSAttacker([(0.2 * DURATION, 0.8 * DURATION)], interval=0.0003, seed=_SEED)
    )
    capture = bus.capture(DURATION).capture

    def run():
        ecu = IDSEnabledECU(ip, BitFeatureEncoder(), name="bench-datapath-ecu", seed=5)
        return ecu.process_stream(capture, with_metrics=False)

    stream_s, report = _best_of(run, repeats)
    serviced = int(len(report.predictions))
    return {
        "frames": len(capture),
        "serviced_frames": serviced,
        "fifo_dropped": report.fifo_dropped,
        "serviced_fps": round(serviced / DURATION, 1),
        "stream_wall_fps": round(serviced / stream_s, 1),
    }


def _saturated_flood_lane(repeats):
    """Attacker-only bus flooded past line rate: one giant same-id run.

    The release interval (0.1 ms) is well under the 127-bit frame wire
    time (0.254 ms at 500 kbit/s), so the backlog only grows and nearly
    every frame is served through the arbitration heap.
    """

    def build_bus():
        bus = BusSimulator()
        bus.attach(DoSAttacker([(0.0, DURATION)], interval=0.0001, seed=_SEED))
        return bus

    event_s, event = _best_of(lambda: build_bus().run(DURATION), repeats)
    columnar_s, result = _best_of(lambda: build_bus().capture(DURATION), repeats)
    capture = result.capture
    assert len(event) == len(capture)
    np.testing.assert_array_equal(event.capture.timestamps, capture.timestamps)
    frames = len(capture)
    return {
        "frames": frames,
        "offered_fps": round(frames / DURATION, 1),
        "event_wall_fps": round(frames / event_s, 1),
        "columnar_wall_fps": round(frames / columnar_s, 1),
        "speedup": round(event_s / columnar_s, 2),
        "bit_exact": True,
    }


def test_bench_datapath(datapath_ip):
    repeats = 1 if SMOKE else 3
    encode = _encode_lane(repeats)
    stream = _stream_lane(datapath_ip, repeats)
    flood = _saturated_flood_lane(repeats)

    payload = {
        "sim_duration_s": DURATION,
        "capture_to_train": encode,
        "capture_to_stream": stream,
        "flood_arbitration": flood,
    }
    write_bench("datapath", payload)
    print(
        f"\ndatapath ({DURATION:g}s window): "
        f"encode {encode['bit_encode_wall_fps']:,.0f} fps bit / "
        f"{encode['window_encode_wall_fps']:,.0f} fps window; "
        f"stream {stream['stream_wall_fps']:,.0f} fps "
        f"({stream['fifo_dropped']} dropped); "
        f"saturated flood {flood['frames']} frames, "
        f"{flood['speedup']:.1f}x over event loop"
    )
