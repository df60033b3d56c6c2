"""The fault plan's row-by-row reference, and hand-built plan inputs.

``reference_plan`` is ``WireFaultModel.plan`` as one Python loop over
the faulty nodes' rows, comparing sender names: the oracle the
library's array walk is held to (``tests/test_faults.py``).
"""

import math

import numpy as np

from repro.can.fastbus import ScheduleArray
from repro.can.faults import (
    BUS_OFF_RECOVERY_BITS,
    ERROR_FRAME_BITS,
    MAX_ATTEMPTS,
    FaultPlan,
    NodeFaultState,
    WireFaultModel,
)
from repro.utils.rng import new_rng


def coded_schedule(releases, can_ids, senders, names=None):
    """A schedule of the given rows and per-row sender names.

    ``names`` is the sender table (it may name senders with no rows);
    by default the senders in order of first appearance.
    """
    releases = np.asarray(releases, dtype=np.float64)
    n = releases.size
    code_of = {name: code for code, name in enumerate(names or ())}
    codes = [code_of.setdefault(str(name), len(code_of)) for name in senders]
    return ScheduleArray(
        release_times=releases,
        can_ids=np.asarray(can_ids, dtype=np.int64).reshape(n),
        dlcs=np.zeros(n, dtype=np.int64),
        payloads=np.zeros((n, 8), dtype=np.uint8),
        labels=np.zeros(n, dtype=np.int64),
        sources=np.array(codes, dtype=np.int64),
        source_names=tuple(code_of),
    )


def reference_plan(
    model: WireFaultModel, schedule: ScheduleArray, wire_bits, bitrate: float
) -> FaultPlan:
    """``model.plan(schedule, wire_bits, bitrate)``, walked row by row."""
    release_times = schedule.release_times
    sources = np.array(schedule.source_names, dtype=str)[schedule.sources]
    n = int(release_times.shape[0])
    error_s = float(ERROR_FRAME_BITS) / float(bitrate)
    attempts = np.zeros(n, dtype=np.int64)
    if n and model.bit_error_rate > 0.0:
        rng = new_rng(model.seed, "wirefault/draws")
        corrupt_p = -np.expm1(
            np.asarray(wire_bits).astype(np.float64) * math.log1p(-model.bit_error_rate)
        )
        clean_p = np.clip(1.0 - corrupt_p, 1e-12, 1.0)
        attempts = rng.geometric(clean_p).astype(np.int64) - 1
    if n:
        for fault in model.targeted:
            mask = (release_times >= fault.start) & (release_times < fault.end)
            if fault.can_id is not None:
                mask &= schedule.can_ids == fault.can_id
            if fault.source is not None:
                mask &= sources == fault.source
            attempts[mask] += int(fault.attempts)
        attempts = np.minimum(attempts, np.int64(MAX_ATTEMPTS))

    transmit = np.ones(n, dtype=bool)
    queued = np.ones(n, dtype=bool)
    tec_after = np.zeros(n, dtype=np.int64)
    bus_off_rows: list[int] = []
    node_states: dict[str, NodeFaultState] = {}
    if n and bool(np.any(attempts > 0)):
        recovery_s = float(BUS_OFF_RECOVERY_BITS) / float(bitrate)
        faulty = np.unique(sources[attempts > 0])
        rows = np.flatnonzero(np.isin(sources, faulty))
        tec: dict[str, int] = {}
        peak: dict[str, int] = {}
        off_until: dict[str, float] = {}  # +inf = permanently off
        off_at: dict[str, float] = {}
        recoveries: dict[str, int] = {}
        for k in rows.tolist():
            source = str(sources[k])
            release = float(release_times[k])
            counter = tec.get(source, 0)
            if source in off_until:
                if model.recovery == "none" or release < off_until[source]:
                    queued[k] = False
                    transmit[k] = False
                    attempts[k] = 0
                    tec_after[k] = counter
                    continue
                del off_until[source]
                recoveries[source] = recoveries.get(source, 0) + 1
                counter = 0
            draws = int(attempts[k])
            if draws and counter + 8 * draws >= model.tec_bus_off:
                fatal = -(-(model.tec_bus_off - counter) // 8)
                attempts[k] = fatal
                transmit[k] = False
                counter = counter + 8 * fatal
                bus_off_rows.append(k)
                off_at.setdefault(source, release)
                off_until[source] = (
                    release + recovery_s if model.recovery == "auto" else math.inf
                )
            else:
                counter = max(counter + 8 * draws - 1, 0)
            tec[source] = counter
            peak[source] = max(peak.get(source, 0), counter)
            tec_after[k] = counter
        for source, counter in tec.items():
            node_states[source] = NodeFaultState(
                source=source,
                tec=counter,
                peak_tec=peak[source],
                error_passive=peak[source] >= model.tec_error_passive,
                bus_off=source in off_until,
                bus_off_at=off_at.get(source),
                recoveries=recoveries.get(source, 0),
            )
    return FaultPlan(
        attempts=attempts,
        transmit=transmit,
        queued=queued,
        tec_after=tec_after,
        bus_off_rows=np.asarray(bus_off_rows, dtype=np.int64),
        error_s=error_s,
        node_states=node_states,
    )
