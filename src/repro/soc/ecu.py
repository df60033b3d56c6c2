"""The IDS-enabled ECU: the paper's receive-path pipeline, end to end.

"CAN packets received in the interface are handled as usual by the ECU
to perform its task; additionally, the packet is copied into a FIFO
style buffer ... examined by our IDS IP for threat signatures."

:class:`IDSEnabledECU` wires the pieces together: capture records enter
the RX FIFO, are feature-encoded, classified by the memory-mapped
accelerator, and accounted with the latency and power models.  Two
capture-scale entry points share one classify loop, which encodes and
classifies :data:`CHUNK_ROWS` frames per call:

* :meth:`IDSEnabledECU.process_capture` — offline batch, no queueing:
  every frame is serviced as it is copied in.  This is the workhorse
  behind Table II, the throughput claim, the energy claim and the
  Fig.-1 network demonstration.
* :meth:`IDSEnabledECU.process_stream` — online streaming: frames
  arrive at their capture timestamps, the ECU drains at its sustained
  (II-gated) service rate, and the RX FIFO's bounded occupancy is
  simulated faithfully — under a DoS flood the oldest queued frames
  age out exactly as the hardware buffer's drop-oldest policy dictates,
  and dropped frames are excluded from predictions and metrics.

A stream runs in two named steps: :meth:`IDSEnabledECU.open_stream`
resolves FIFO admission into an :class:`ECUStreamSession`, and
:meth:`ECUStreamSession.finish` classifies the admitted frames and
assembles the report.  A stream's ``drain_fps`` may be a channel's
arbitrated share of a *shared* accelerator (:mod:`repro.soc.arbiter`):
the arbitration wait is folded into the effective service interval, so
:func:`simulate_fifo_admission` sees the slower shared service without
modification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.can.log import CANLogRecord, CaptureArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.can.fastbus import ArbitrationResult
from repro.datasets.features import FeatureEncoder
from repro.errors import SoCError
from repro.finn.ipgen import AcceleratorIP
from repro.soc.accelerator import HWInferenceTrace, MemoryMappedAccelerator
from repro.soc.axi import AXILiteBus
from repro.soc.latency import LatencyBreakdown, LatencyModel
from repro.soc.power import PMBusSampler, PowerModel, energy_per_inference
from repro.training.metrics import ids_metrics
from repro.utils.rng import new_rng

__all__ = [
    "ECUReport",
    "ECUStreamSession",
    "IDSEnabledECU",
    "simulate_fifo_admission",
]

#: Frames encoded and classified per call on the receive path: one
#: chunk's feature matrix is alive at a time, however long the capture.
CHUNK_ROWS = 4096


def _check_fifo_capacity(capacity: int) -> None:
    """A FIFO depth is a whole number of frames, at least one."""
    if isinstance(capacity, bool) or not isinstance(capacity, Integral):
        raise SoCError(f"FIFO capacity must be an integer, got {capacity!r}")
    if capacity < 1:
        raise SoCError(f"FIFO capacity must be >= 1, got {capacity}")


def simulate_fifo_admission(
    timestamps: np.ndarray,
    service_seconds: float,
    capacity: int,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Which arrivals survive a bounded drop-oldest FIFO, and at what delay?

    Models the receive buffer as a single-server queue: the IDS drains
    one frame every ``service_seconds`` (work-conserving), frames enter
    at ``timestamps``, and an arrival finding ``capacity`` frames
    waiting evicts the oldest queued frame.  Frames still queued when
    the capture ends are drained (the ECU finishes its backlog).

    Returns ``(kept_mask, max_occupancy, queue_wait_seconds)``: a
    boolean mask of frames actually serviced, the peak FIFO fill level
    observed, and the per-frame time spent queued before service starts
    (0.0 for dropped frames).

    The common drop-free case is fully vectorised (the completion-time
    recurrence ``f[n] = max(t[n], f[n-1]) + s`` is a prefix-maximum);
    the exact per-frame drop-oldest replay only runs when the
    vectorised occupancy check shows the buffer would overflow.  Service
    and eviction both take the head of the queue and arrivals join at
    the tail, so the queue is always the contiguous row range
    ``[head, i]``: the replay walks one ``head`` index over the
    timestamps as plain floats.  Every eviction happens at an arrival
    instant, so overflow onset and recovery are exact, not sampled.
    """
    if not math.isfinite(service_seconds) or service_seconds <= 0:
        raise SoCError(f"service time must be finite and positive, got {service_seconds}")
    _check_fifo_capacity(capacity)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if timestamps.ndim != 1:
        raise SoCError(f"stream timestamps must be 1-D, got shape {timestamps.shape}")
    n = timestamps.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool), 0, np.zeros(0, dtype=np.float64)
    finite = np.isfinite(timestamps)
    if not finite.all():
        row = int(np.argmin(finite))
        raise SoCError(f"stream timestamps must be finite, got {timestamps[row]} at row {row}")
    if np.any(np.diff(timestamps) < 0):
        raise SoCError("stream timestamps must be non-decreasing")

    index = np.arange(n, dtype=np.int64)
    # Service-start times under an unbounded queue: starts[k] = g[k] + s*k
    # with g = running max of (t[k] - s*k)  <=>  f[k] = max(t[k], f[k-1]) + s.
    g = np.maximum.accumulate(timestamps - service_seconds * index)
    starts = g + service_seconds * index
    # Occupancy seen by arrival k: earlier frames whose service has not
    # begun strictly before t[k] are still sitting in the FIFO.
    waiting = index - np.searchsorted(starts, timestamps, side="left")
    peak = int(waiting.max()) + 1  # occupancy just after the push
    if peak <= capacity:
        return np.ones(n, dtype=bool), peak, starts - timestamps

    # Overflow: exact drop-oldest replay (only under floods).  Rows are
    # served or dropped in arrival order, so the service begins line up
    # with the kept rows and the dropped rows come out sorted.
    times = timestamps.tolist()
    begins: list[float] = []
    dropped: list[int] = []
    serve, drop = begins.append, dropped.append
    head = 0
    t_free = -math.inf
    max_occupancy = 0
    for i, t_arrival in enumerate(times):
        while head < i:
            t_head = times[head]
            begin = t_free if t_free > t_head else t_head
            if begin >= t_arrival:
                break
            serve(begin)
            t_free = begin + service_seconds
            head += 1
        if i - head >= capacity:
            drop(head)
            head += 1
        # An eviction leaves the queue at a fill an earlier push reached.
        elif i - head >= max_occupancy:
            max_occupancy = i - head + 1
    for t_head in times[head:]:  # end of capture: the ECU finishes its backlog
        begin = t_free if t_free > t_head else t_head
        serve(begin)
        t_free = begin + service_seconds
    kept = np.ones(n, dtype=bool)
    kept[dropped] = False
    waits = np.zeros(n, dtype=np.float64)
    waits[kept] = np.array(begins, dtype=np.float64) - timestamps[kept]
    return kept, max_occupancy, waits


@dataclass
class ECUReport:
    """Measurements from processing one capture through the ECU."""

    name: str
    num_frames: int  #: frames that arrived at the CAN interface
    predictions: np.ndarray  #: one label per *serviced* frame
    labels: np.ndarray | None
    latency_breakdown: LatencyBreakdown
    latency_samples: np.ndarray
    mean_power_w: float
    fifo_dropped: int  #: frames actually lost to RX-FIFO overflow
    sustained_fps_value: float  #: II-gated pipeline rate (stream: drain rate)
    num_processed: int  #: serviced frames, excluding corruption
    metrics: dict[str, float] | None = None
    alerts: list[int] = field(default_factory=list)  # indices of detected attacks
    max_fifo_occupancy: int | None = None  #: peak RX-FIFO fill (stream path)
    #: wire-corrupted attempts observed but never admitted (CRC fails at
    #: the controller, so they are excluded from predictions and metrics)
    corrupted_frames: int = 0
    #: Capture positions of the serviced frames (stream path with drops);
    #: None means the identity mapping — every frame was serviced.
    kept_indices: np.ndarray | None = None

    @property
    def mean_latency_s(self) -> float:
        return float(self.latency_samples.mean())

    @property
    def p99_latency_s(self) -> float:
        return float(np.percentile(self.latency_samples, 99))

    @property
    def inverse_latency_fps(self) -> float:
        """1 / mean end-to-end latency — the paper's ">8300 msg/s" convention.

        This is a latency figure wearing a rate unit: it assumes no
        overlap between pipeline stages, so it understates what the
        pipelined ECU sustains.  Kept for honest comparison with the
        paper's derivation.
        """
        return 1.0 / self.mean_latency_s

    @property
    def throughput_fps(self) -> float:
        """Messages/second sustained, gated by the slowest pipeline stage.

        Uses the initiation-interval definition (as
        ``SimReport.throughput_fps`` does for the core alone): the CPU
        software path, the driver MMIO occupancy and the core II bound
        the steady-state rate, not the end-to-end latency sum.  On the
        stream path it is the drain rate in force.  See
        :attr:`inverse_latency_fps` for the paper's inverse-latency
        figure.
        """
        return self.sustained_fps_value

    @property
    def energy_per_inference_j(self) -> float:
        """Board power x nominal per-message processing time.

        Uses the nominal pipeline latency rather than the observed mean:
        time a frame spends *queued* in the RX FIFO (stream path under
        load) costs no extra inference energy.
        """
        return energy_per_inference(self.mean_power_w, self.latency_breakdown.total_seconds)

    def summary(self) -> str:
        corrupted = f", {self.corrupted_frames} corrupted" if self.corrupted_frames else ""
        lines = [
            f"ECU {self.name!r}: {self.num_frames} frames "
            f"({self.num_processed} serviced, {self.fifo_dropped} dropped{corrupted})",
            f"  latency: mean {1e3 * self.mean_latency_s:.3f} ms, "
            f"p99 {1e3 * self.p99_latency_s:.3f} ms "
            f"(dominant: {self.latency_breakdown.dominant()})",
            f"  throughput: {self.throughput_fps:,.0f} msg/s sustained "
            f"(1/latency: {self.inverse_latency_fps:,.0f} msg/s)",
            f"  power: {self.mean_power_w:.2f} W, "
            f"energy/inference: {1e3 * self.energy_per_inference_j:.3f} mJ",
        ]
        if self.max_fifo_occupancy is not None:
            lines.append(f"  rx-fifo peak occupancy: {self.max_fifo_occupancy}")
        if self.metrics:
            m = self.metrics
            lines.append(
                f"  detection: P {m['precision']:.2f} R {m['recall']:.2f} "
                f"F1 {m['f1']:.2f} FNR {m['fnr']:.2f}"
            )
        return "\n".join(lines)


class IDSEnabledECU:
    """A Zynq-based ECU with the IDS accelerator on its receive path.

    ``fifo_capacity`` is the depth of the drop-oldest RX FIFO that
    :meth:`process_stream` admits frames through.
    """

    def __init__(
        self,
        ip: AcceleratorIP,
        encoder: FeatureEncoder,
        name: str = "ids-ecu",
        bus: AXILiteBus | None = None,
        fifo_capacity: int = 64,
        latency_model: LatencyModel | None = None,
        power_model: PowerModel | None = None,
        seed: int = 0,
    ):
        _check_fifo_capacity(fifo_capacity)
        self.name = name
        self.encoder = encoder
        self.accelerator = MemoryMappedAccelerator(ip, bus=bus)
        self.fifo_capacity = fifo_capacity
        self.latency_model = latency_model or LatencyModel()
        self.power_model = power_model or PowerModel()
        self.sampler = PMBusSampler(model=self.power_model)
        self._rng = new_rng(seed, f"ecu-{name}")
        self._reference_trace: HWInferenceTrace | None = None

    # -- shared accounting ------------------------------------------------
    def reference_trace(self) -> HWInferenceTrace:
        """The steady-state per-inference AXI trace (measured once).

        Cached per ECU, and the accelerator layer additionally shares
        the measurement across every ECU bound to the same IP at the
        same bus timing (see
        :meth:`MemoryMappedAccelerator.reference_trace`), so a gateway
        or campaign sweep replays the AXI protocol once, not per ECU.
        """
        if self._reference_trace is None:
            self._reference_trace = self.accelerator.reference_trace()
        return self._reference_trace

    def sustained_fps(self) -> float:
        """II-gated sustained rate of the whole receive pipeline."""
        core_ii_s = 1.0 / self.accelerator.ip.throughput_fps
        return self.latency_model.sustained_fps(self.reference_trace(), core_ii_s)

    def _classify(self, frames: CaptureArray) -> np.ndarray:
        """Encode and classify ``frames`` in :data:`CHUNK_ROWS`-frame chunks.

        Window encoders need the preceding ``encoder.lookback`` frames
        to reproduce whole-capture encoding at a chunk boundary: those
        context rows are re-encoded and their outputs discarded, so the
        predictions are bit-identical to one whole-capture call.
        """
        predictions = np.empty(len(frames), dtype=np.int64)
        lookback = self.encoder.lookback
        for start in range(0, len(frames), CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, len(frames))
            context = min(lookback, start)
            features = self.encoder.encode_batch(frames[start - context : stop])
            predictions[start:stop] = self.accelerator.run_batch(features[context:])
            # Free this chunk's matrix before the next one is encoded.
            del features
        return predictions

    def _measure(
        self,
        capture: CaptureArray,
        predictions: np.ndarray,
        num_frames: int,
        fifo_dropped: int,
        with_metrics: bool,
        max_fifo_occupancy: int | None = None,
        queue_waits: np.ndarray | None = None,
        kept_indices: np.ndarray | None = None,
        sustained_fps: float | None = None,
        corrupted_frames: int = 0,
    ) -> ECUReport:
        """Assemble the report for ``capture`` = the serviced frames.

        ``queue_waits`` (stream path) is the per-frame time spent in the
        RX FIFO before service; it is added to the latency samples so
        the reported latency stays end-to-end from interface arrival.
        ``sustained_fps`` overrides the reported sustained rate (stream
        path: the drain rate actually in force, e.g. an arbitrated
        share of a shared accelerator).
        """
        trace = self.reference_trace()
        breakdown = self.latency_model.end_to_end(trace)
        latency_samples = self.latency_model.sample(trace, len(capture), self._rng)
        if queue_waits is not None:
            latency_samples = latency_samples + queue_waits
        measurement = self.sampler.measure(
            duration_s=max(float(latency_samples.sum()), 0.1),
            rng=self._rng,
            resources=self.accelerator.ip.resources,
            clock_hz=self.accelerator.ip.clock_hz,
        )
        labels = capture.labels.astype(np.int64)
        metrics = ids_metrics(labels, predictions) if with_metrics else None
        return ECUReport(
            name=self.name,
            num_frames=num_frames,
            predictions=predictions,
            labels=labels,
            latency_breakdown=breakdown,
            latency_samples=latency_samples,
            mean_power_w=measurement.mean_w,
            fifo_dropped=fifo_dropped,
            metrics=metrics,
            alerts=np.flatnonzero(predictions == 1).tolist(),
            sustained_fps_value=sustained_fps if sustained_fps is not None else self.sustained_fps(),
            num_processed=len(capture),
            max_fifo_occupancy=max_fifo_occupancy,
            kept_indices=kept_indices,
            corrupted_frames=corrupted_frames,
        )

    # -- capture-scale entry points ---------------------------------------
    def process_capture(
        self,
        records: "Sequence[CANLogRecord] | CaptureArray | ArbitrationResult",
        with_metrics: bool = True,
    ) -> ECUReport:
        """Run a whole capture through the IDS path (offline batch).

        ``records`` may be a :class:`CANLogRecord` list, a columnar
        :class:`CaptureArray`, or the columnar bus engine's
        :class:`~repro.can.fastbus.ArbitrationResult` (its capture is
        unwrapped), so ``ecu.process_capture(bus.capture(2.0))`` works
        without a conversion step — the same coercion applies to
        :meth:`open_stream` and :meth:`process_stream`.

        Functional classification is batched through the bit-exact graph
        (the driver protocol is data independent, so one measured AXI
        trace characterises every frame); latency samples add OS jitter
        per frame.  The batch path services each frame as it is copied
        in — the FIFO is drained as it is filled — so no frame is ever
        lost to overflow here and ``fifo_dropped`` is 0; use
        :meth:`process_stream` for arrival-rate-faithful accounting.
        """
        capture = CaptureArray.coerce(records)
        if len(capture) == 0:
            raise SoCError("cannot process an empty capture")
        return self._measure(
            capture,
            self._classify(capture),
            num_frames=len(capture),
            fifo_dropped=0,
            with_metrics=with_metrics,
        )

    def open_stream(
        self,
        records: "Sequence[CANLogRecord] | CaptureArray | ArbitrationResult",
        drain_fps: float | None = None,
        with_metrics: bool = True,
        corrupted: np.ndarray | None = None,
    ) -> "ECUStreamSession":
        """Admit one capture through the RX FIFO: the first step of a stream.

        Resolves which frames survive the drop-oldest FIFO at
        ``drain_fps`` and how long each waits (see
        :func:`simulate_fifo_admission`); the returned session's
        ``fifo_dropped``, ``kept_indices`` and ``max_occupancy`` are
        known at once, and :meth:`ECUStreamSession.finish` classifies
        the admitted frames.  :meth:`process_stream` is both steps in
        one call.

        ``corrupted`` marks capture rows that are wire-corrupted
        attempts (see :mod:`repro.can.faults`): they fail CRC at the
        CAN controller and never reach the RX FIFO, so they are
        excluded from admission, predictions and metrics while still
        counting as observed interface traffic
        (:attr:`ECUReport.corrupted_frames`).
        """
        return ECUStreamSession(
            self,
            CaptureArray.coerce(records),
            drain_fps=drain_fps,
            with_metrics=with_metrics,
            corrupted=corrupted,
        )

    def process_stream(
        self,
        records: "Sequence[CANLogRecord] | CaptureArray | ArbitrationResult",
        drain_fps: float | None = None,
        with_metrics: bool = True,
        corrupted: np.ndarray | None = None,
    ) -> ECUReport:
        """Consume traffic chunk-by-chunk with real FIFO backpressure.

        Frames arrive at their capture timestamps; the ECU drains at
        ``drain_fps`` (default: the pipeline's II-gated sustained rate).
        When arrivals outpace the drain — a DoS flood — the bounded RX
        FIFO overflows and the *oldest queued* frames age out, exactly
        like the hardware buffer.  Dropped frames never reach the
        accelerator: they are excluded from ``predictions``, ``labels``
        and ``metrics``, and counted in ``fifo_dropped``.

        On drop-free traffic the result is prediction-identical to
        :meth:`process_capture` (both classify through the same chunked
        loop).  Reported latency samples include the simulated queueing
        delay, so p99 latency degrades visibly as the FIFO fills;
        ``kept_indices`` maps each serviced frame back to its position
        in the original capture.

        This is :meth:`open_stream` followed by
        :meth:`ECUStreamSession.finish`; ``corrupted`` is as there.
        """
        return self.open_stream(
            records,
            drain_fps=drain_fps,
            with_metrics=with_metrics,
            corrupted=corrupted,
        ).finish()


class ECUStreamSession:
    """One capture admitted through an ECU's RX FIFO, ready to classify.

    FIFO admission is resolved in the constructor: it is a closed-form
    function of arrival timestamps, service interval and capacity (see
    :func:`simulate_fifo_admission`), so ``fifo_dropped``,
    ``kept_indices`` and ``max_occupancy`` are set on construction.
    :meth:`finish` encodes and classifies the admitted frames and
    assembles the :class:`ECUReport`.
    """

    def __init__(
        self,
        ecu: "IDSEnabledECU",
        capture: CaptureArray,
        drain_fps: float | None = None,
        with_metrics: bool = True,
        corrupted: np.ndarray | None = None,
    ):
        if len(capture) == 0:
            raise SoCError("cannot process an empty capture")
        if drain_fps is not None and (not math.isfinite(drain_fps) or drain_fps <= 0):
            raise SoCError(f"drain_fps must be finite and positive, got {drain_fps}")
        self.ecu = ecu
        self.with_metrics = with_metrics
        self.drain_fps = float(drain_fps) if drain_fps is not None else ecu.sustained_fps()
        self.num_frames = len(capture)

        if corrupted is not None:
            corrupted = np.asarray(corrupted, dtype=bool)
            if corrupted.shape != (len(capture),):
                raise SoCError(
                    f"corrupted mask covers {corrupted.shape[0] if corrupted.ndim == 1 else corrupted.shape} "
                    f"rows, capture has {len(capture)}"
                )
        if corrupted is not None and bool(corrupted.any()):
            # Corrupted attempts are destroyed on the wire by the error
            # frame: they never clear the CAN controller's CRC check,
            # so they never occupy an RX-FIFO slot.  Admission runs
            # over the clean rows only; positions are remembered so
            # kept_indices still maps into the *original* capture.
            clean_indices = np.flatnonzero(~corrupted)
            offered = capture[clean_indices]
        else:
            clean_indices = None
            offered = capture
        if len(offered) == 0:
            raise SoCError("every frame in the capture is corrupted; nothing to scan")
        self.corrupted_frames = len(capture) - len(offered)

        kept_mask, self.max_occupancy, queue_waits = simulate_fifo_admission(
            offered.timestamps, 1.0 / self.drain_fps, ecu.fifo_capacity
        )
        if bool(kept_mask.all()):
            # Drop-free (the common case): the admitted stream IS the
            # offered capture — alias it zero-copy instead of
            # mask-copying every column, and chunk slices stay views of
            # the caller's buffers end to end.
            self._kept = offered
            kept_positions = np.arange(len(offered), dtype=np.int64)
            self._queue_waits = queue_waits
        else:
            self._kept = offered[kept_mask]
            kept_positions = np.flatnonzero(kept_mask)
            self._queue_waits = queue_waits[kept_mask]
        self.kept_indices = (
            clean_indices[kept_positions] if clean_indices is not None else kept_positions
        )
        self.fifo_dropped = len(offered) - len(self._kept)
        self._report: ECUReport | None = None

    def finish(self) -> ECUReport:
        """Encode and classify the admitted frames; assemble the report.

        The report is built once: later calls return the same object.
        """
        if self._report is None:
            self._report = self.ecu._measure(
                self._kept,
                self.ecu._classify(self._kept),
                num_frames=self.num_frames,
                fifo_dropped=self.fifo_dropped,
                with_metrics=self.with_metrics,
                max_fifo_occupancy=self.max_occupancy,
                queue_waits=self._queue_waits,
                kept_indices=self.kept_indices,
                sustained_fps=self.drain_fps,
                corrupted_frames=self.corrupted_frames,
            )
        return self._report
