#!/usr/bin/env python
"""Fig.-1 scenario: a vehicle network with IDS-enabled ECUs.

Builds the system of the paper's Fig. 1: a CAN bus carrying periodic
powertrain/body traffic plus a malicious node, monitored by IDS-ECUs
that carry *both* detector IPs on one overlay (the paper's multi-model
deployment).  Reports per-burst detection delay, combined resource
cost and power — then scales the deployment up to a multi-channel
gateway where each segment streams live through its own IDS-ECU with
real RX-FIFO backpressure.

Run:  python examples/multi_ids_network.py
"""

import numpy as np

from repro.can.attacks import DoSAttacker, FuzzyAttacker
from repro.can.bus import BusSimulator
from repro.datasets.carhacking import build_vehicle_bus, generate_capture
from repro.datasets.features import BitFeatureEncoder
from repro.finn.ipgen import compile_model
from repro.soc.arbiter import SharedAcceleratorArbiter
from repro.soc.device import ZCU104
from repro.soc.driver import Overlay
from repro.soc.ecu import IDSEnabledECU
from repro.soc.gateway import IDSGateway
from repro.soc.power import PowerModel
from repro.training.metrics import ids_metrics
from repro.training.pipeline import train_ids_model
from repro.training.trainer import TrainConfig


def train_detector(attack: str) -> tuple:
    result = train_ids_model(
        attack, duration=10.0, train_config=TrainConfig(epochs=8, seed=1), seed=100
    )
    print(f"  {result.summary()}")
    ip = compile_model(result.model, name=f"{attack}_ids", target_fps=1e6)
    return result, ip


def main() -> None:
    print("== training both detectors ==")
    _, dos_ip = train_detector("dos")
    _, fuzzy_ip = train_detector("fuzzy")

    print("\n== multi-model overlay (paper: 'multiple models ... simultaneously') ==")
    overlay = Overlay({"dos_ids": dos_ip, "fuzzy_ids": fuzzy_ip})
    combined = dos_ip.resources + fuzzy_ip.resources
    print(f"combined resources: {combined}")
    print(f"ZCU104 max utilisation: {ZCU104.max_utilization(combined):.2f}%")
    power = PowerModel()
    print(
        f"board power: one IP {power.total_w(dos_ip.resources):.3f} W, "
        f"two IPs {power.total_w(dos_ip.resources) + power.pl_dynamic_w(fuzzy_ip.resources):.3f} W"
    )

    print("\n== scanning bus traffic (malicious node active) ==")
    encoder = BitFeatureEncoder()
    # Deploy on the vehicle the detectors were trained for: a fresh
    # session (new seed) of the same car (vehicle_seed matches training).
    from repro.utils.rng import derive_seed

    vehicle_seed = derive_seed(100, "capture")
    for attack, core in (("dos", overlay.dos_ids), ("fuzzy", overlay.fuzzy_ids)):
        capture = generate_capture(
            attack, duration=6.0, seed=777, vehicle_seed=vehicle_seed, initial_gap=1.0
        )
        features, labels = encoder.encode(capture.records)
        predictions = core.classify_batch(features)
        metrics = ids_metrics(labels, predictions)
        timestamps = np.array([record.timestamp for record in capture.records])
        delays = []
        for start, end in capture.attack_windows:
            in_window = (timestamps >= start) & (timestamps <= end)
            alerts = timestamps[in_window & (predictions == 1)]
            if alerts.size:
                delays.append(1e3 * (alerts.min() - start))
        print(
            f"  {attack:>5}-IDS-ECU: {len(capture.records)} frames scanned, "
            f"F1 {metrics['f1']:.2f}, FNR {metrics['fnr']:.2f}, "
            f"first-alert delay {np.mean(delays):.2f} ms over {len(delays)} bursts"
        )

    print("\n== multi-channel gateway (streaming, per-channel IPs) ==")

    # Three concurrent segments of the same vehicle: the powertrain bus
    # is being DoS-flooded while the body bus sees a fuzzing campaign;
    # the telematics segment is parked-car quiet (no traffic at all) and
    # must come back as an idle channel, not an error.  Each channel
    # drains through its own ECU, so the flooded powertrain drops its
    # own frames while the body segment keeps its verdicts.
    def build_gateway() -> IDSGateway:
        gateway = IDSGateway("vehicle-gateway")
        powertrain = build_vehicle_bus(vehicle_seed=vehicle_seed)
        powertrain.attach(DoSAttacker([(1.0, 3.0), (5.0, 7.0)], seed=7))
        gateway.attach_channel(
            "powertrain",
            powertrain,
            IDSEnabledECU(dos_ip, BitFeatureEncoder(), name="powertrain-ids", seed=21),
        )
        body = build_vehicle_bus(vehicle_seed=vehicle_seed)
        body.attach(FuzzyAttacker([(2.0, 4.0), (6.0, 8.0)], seed=8))
        gateway.attach_channel(
            "body",
            body,
            IDSEnabledECU(fuzzy_ip, BitFeatureEncoder(), name="body-ids", seed=22),
        )
        gateway.attach_channel(
            "telematics",
            BusSimulator(),  # no sources attached: a quiet segment
            IDSEnabledECU(fuzzy_ip, BitFeatureEncoder(), name="telematics-ids", seed=23),
        )
        return gateway

    print(build_gateway().monitor(duration=8.0).summary())

    print("\n== same gateway, both detectors sharing one accelerator slot ==")
    # The multi-model overlay carries both IPs, but the AXI port serves
    # one inference at a time: model the channels time-multiplexing the
    # accelerator with fixed-priority arbitration (safety-critical
    # powertrain first).  Every channel's drain rate drops, so the DoS
    # flood now also costs the powertrain segment more of its own frames.
    arbiter = SharedAcceleratorArbiter(
        policy="fixed-priority", priorities={"powertrain": 0, "body": 1}
    )
    print(build_gateway().monitor(duration=8.0, arbiter=arbiter).summary())


if __name__ == "__main__":
    main()
