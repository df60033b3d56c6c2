#!/usr/bin/env python
"""Quickstart: train, compile and deploy a CAN intrusion detector.

Reproduces the paper's core loop in ~30 seconds on a laptop CPU:

1. generate a labelled DoS capture (synthetic Car-Hacking traffic);
2. quantisation-aware train the 4-bit MLP detector;
3. compile it to a bit-exact FPGA accelerator IP (FINN-substitute);
4. deploy it on the modelled Zynq ECU and measure the paper's numbers.

Run:  python examples/quickstart.py
"""

from repro.datasets.features import BitFeatureEncoder
from repro.finn.ipgen import compile_model
from repro.soc.device import ZCU104
from repro.soc.ecu import IDSEnabledECU
from repro.training.pipeline import train_ids_model
from repro.training.trainer import TrainConfig


def main() -> None:
    # 1 + 2: capture and quantisation-aware training (defaults: 4-bit
    # weights/activations, 79-bit whole-frame input, 79-64-64-32-2 MLP).
    print("== training the 4-bit DoS detector ==")
    result = train_ids_model(
        "dos",
        duration=10.0,  # seconds of bus traffic to synthesise
        train_config=TrainConfig(epochs=8, seed=0, verbose=False),
        seed=42,
    )
    print(result.summary())

    # 3: FINN-style compilation -> streamlined integer dataflow IP,
    # verified bit-exact against the trained model.
    print("\n== compiling to an accelerator IP ==")
    ip = compile_model(result.model, name="dos_ids", target_fps=1e6, clock_mhz=100)
    print(ip.summary())
    utilisation = ZCU104.max_utilization(ip.resources)
    print(f"ZCU104 max utilisation: {utilisation:.2f}% (paper claims <4%)")

    # 4: deploy on the modelled ECU and process fresh traffic.
    print("\n== deploying on the Zynq ECU model ==")
    from repro.datasets.carhacking import generate_capture

    fresh = generate_capture("dos", duration=4.0, seed=7)
    ecu = IDSEnabledECU(ip, BitFeatureEncoder(), name="quickstart-ecu", seed=1)
    report = ecu.process_capture(fresh.records)
    print(report.summary())
    print(
        f"\npaper's operating point: 0.12 ms / >8300 msg/s / 2.09 W / 0.25 mJ -- "
        f"measured: {1e3 * report.mean_latency_s:.3f} ms / "
        f"{report.inverse_latency_fps:,.0f} msg/s / {report.mean_power_w:.2f} W / "
        f"{1e3 * report.energy_per_inference_j:.3f} mJ"
    )

    # 5: the same traffic as a live stream: frames arrive at their
    # capture timestamps, the bounded RX FIFO applies real backpressure
    # (drop-oldest under overload), and inference runs chunk by chunk
    # through the vectorised encoder.
    print("\n== streaming the capture through the RX FIFO ==")
    streaming_ecu = IDSEnabledECU(ip, BitFeatureEncoder(), name="streaming-ecu", seed=1)
    stream_report = streaming_ecu.process_stream(fresh.records)
    print(stream_report.summary())


if __name__ == "__main__":
    main()
