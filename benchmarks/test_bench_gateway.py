"""Micro-benchmark: the multi-channel gateway and arbitration.

Times one monitoring run of a 3-channel gateway (one
DoS-flooded segment) under both accelerator deployments — one IP per
channel vs one shared IP behind a round-robin arbiter.  Archives
wall-times, aggregate sustained rates, per-channel effective drains and
drops to ``benchmarks/output/BENCH_gateway.json`` so the gateway's
perf trajectory is tracked.

A small detector is trained in-file (a few epochs on a short capture),
so the benchmark runs in tens of seconds and needs none of the
heavyweight benchmark fixtures.
"""

import time

import pytest
from _bench_lane import SMOKE, write_bench

from repro.finn.ipgen import compile_model
from repro.models.qmlp import QMLPConfig
from repro.soc.arbiter import SharedAcceleratorArbiter
from repro.soc.gateway import build_segment_gateway
from repro.training.pipeline import train_ids_model
from repro.training.trainer import TrainConfig

CHANNELS = 3
DURATION = 1.0 if SMOKE else 4.0  #: seconds of bus traffic per channel


@pytest.fixture(scope="module")
def gateway_ip():
    result = train_ids_model(
        "dos",
        model_config=QMLPConfig(hidden=(32, 16), weight_bits=4, act_bits=4, seed=7),
        train_config=TrainConfig(epochs=3 if SMOKE else 6, seed=3),
        duration=3.0,
        seed=11,
    )
    return compile_model(result.model, name="bench-gateway-ip", target_fps=1e6)


def _timed_monitor(ip, **kwargs):
    # Fresh 3-channel gateway, channel 0 DoS-flooded for half the window.
    gateway = build_segment_gateway(
        ip,
        channels=CHANNELS,
        flood_window=(DURATION * 0.125, DURATION / 2),
        vehicle_seed=30,
        ecu_seed=40,
        name="bench-gateway",
    )
    start = time.perf_counter()
    report = gateway.monitor(duration=DURATION, with_metrics=False, **kwargs)
    return time.perf_counter() - start, report


def test_bench_gateway_schedules_and_arbitration(gateway_ip):
    _timed_monitor(gateway_ip)  # warm-up: engine compile and driver trace
    per_ip_s, per_ip = _timed_monitor(gateway_ip)
    shared_s, shared = _timed_monitor(gateway_ip, arbiter=SharedAcceleratorArbiter())

    # Sharing one IP over 3 channels cuts every drain rate and the aggregate.
    assert shared.aggregate_sustained_fps < per_ip.aggregate_sustained_fps
    for channel in shared.channels:
        assert channel.grant is not None and channel.grant.slot_factor == CHANNELS

    payload = {
        "channels": CHANNELS,
        "duration_s": DURATION,
        "offered_frames": per_ip.total_frames,
        "wall_time": {
            "per_channel_ip_seconds": round(per_ip_s, 6),
            "shared_ip_seconds": round(shared_s, 6),
        },
        "sustained_fps": {
            "per_channel_ip_aggregate": round(per_ip.aggregate_sustained_fps, 1),
            "shared_ip_aggregate": round(shared.aggregate_sustained_fps, 1),
            "shared_ip_per_channel": {
                c.name: round(c.effective_drain_fps, 1) for c in shared.channels
            },
        },
        "drops": {
            "per_channel_ip": {c.name: c.dropped for c in per_ip.channels},
            "shared_ip": {c.name: c.dropped for c in shared.channels},
        },
    }
    write_bench("gateway", payload)
    print(
        f"\ngateway {CHANNELS}x{DURATION:g}s: per-IP {per_ip_s:.3f}s, "
        f"shared-IP {shared_s:.3f}s; "
        f"sustained per-IP {per_ip.aggregate_sustained_fps:,.0f} msg/s "
        f"vs shared-IP {shared.aggregate_sustained_fps:,.0f} msg/s"
    )
