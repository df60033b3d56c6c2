"""Wire-level fault injection and ISO 11898-1 fault confinement.

The bus engines (:mod:`repro.can.bus`, :mod:`repro.can.fastbus`) model
an electrically perfect medium.  This module adds the layer a real CAN
controller spends silicon on: bit errors on the wire, error frames,
automatic retransmission, and the TEC/REC fault-confinement state
machine (error-active → error-passive at 128 → bus-off at 256, with
optional 128×11-recessive-bit recovery).

**Determinism and engine-agnosticism.**  All randomness and all state
evolution happen *before* arbitration, in :meth:`WireFaultModel.plan`:
a pure function of the release-sorted schedule and the model's seed
(drawn from ``new_rng(seed, "wirefault/...")``).  Both engines consume
the resulting :class:`FaultPlan` and therefore corrupt the same
transmissions, charge the same error-frame overhead and silence the
same bus-off nodes — the bit-exactness contract extends to faulted
runs.

**The walk as array passes.**  The plan compares sender codes, never
names, and walks the transmit error counters of every node that errs
at once: each node's clamped +8/-1 walk is Lindley's recursion, a
prefix sum less its running minimum (:func:`_tec_walk`).  One bounded
loop over bus-off events (a handful per bus) silences a node until its
recovery and restarts its walk from zero.  A row-by-row walk is the
tests' reference (``tests/_fault_reference.py``).

Two documented simplifications keep the plan engine-agnostic:

* Fault confinement is evaluated in *release order* per node (the
  order both engines admit frames), not in wire-service order.  TEC
  trajectories are identical in both orders whenever a node's frames
  do not interleave with its own retransmissions, which holds for
  periodic senders.
* A bus-off node's 128×11-recessive-bit recovery timer starts at the
  release of the frame that exhausted the TEC, not at its (engine-
  dependent) completion on the wire.

Targeted corruption hooks (:class:`TargetedFault`) force extra error
frames onto specific identifiers/sources inside a time window — the
primitive the Cho–Shin-style bus-off attacker
(:class:`repro.can.attacks.BusOffAttacker`) is built on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import derive_seed, new_rng

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.can.fastbus import ScheduleArray

__all__ = [
    "ERROR_FRAME_BITS",
    "MAX_ATTEMPTS",
    "RECOVERY_MODES",
    "BUS_OFF_RECOVERY_BITS",
    "FaultPlan",
    "NodeFaultState",
    "TargetedFault",
    "WireFaultModel",
    "resolve_bus_faults",
]

#: Error flag (6 dominant bits) + error delimiter (8 recessive) + the
#: 3-bit intermission before the retransmission can arbitrate.
ERROR_FRAME_BITS = 17

#: Corrupted attempts charged to one frame at most.
MAX_ATTEMPTS = 32

#: Bus-off recovery: 128 occurrences of 11 consecutive recessive bits.
BUS_OFF_RECOVERY_BITS = 128 * 11

#: Supported bus-off recovery behaviours.
RECOVERY_MODES = ("auto", "none")

#: TEC increment per transmit error / decrement per success (ISO 11898-1).
_TEC_ERROR_STEP = 8
_TEC_SUCCESS_STEP = 1


@dataclass(frozen=True)
class TargetedFault:
    """Force error frames onto matching transmissions in a time window.

    ``can_id``/``source`` of ``None`` are wildcards; a fault with both
    unset jams every transmission released in ``[start, end)``.
    ``attempts`` extra corrupted attempts are charged per matching
    frame, on top of any bit-error-rate draws.
    """

    start: float
    end: float
    attempts: int = 1
    can_id: int | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.start) or not math.isfinite(self.end):
            raise ConfigError(
                f"targeted fault window must be finite, got ({self.start}, {self.end})"
            )
        if self.end < self.start:
            raise ConfigError(
                f"targeted fault window must have end >= start, "
                f"got ({self.start}, {self.end})"
            )
        if self.attempts < 1:
            raise ConfigError(
                f"targeted fault attempts must be >= 1, got {self.attempts}"
            )
        if self.can_id is not None and self.can_id < 0:
            raise ConfigError(f"targeted fault can_id must be >= 0, got {self.can_id}")


@dataclass(frozen=True)
class NodeFaultState:
    """One node's fault-confinement outcome over a planned window."""

    source: str
    tec: int  #: transmit error counter at the end of the window
    peak_tec: int
    error_passive: bool  #: TEC crossed the error-passive threshold at any point
    bus_off: bool  #: node is bus-off at the end of the window
    bus_off_at: float | None  #: release time of the frame that exhausted the TEC
    recoveries: int  #: completed bus-off recoveries within the window


@dataclass(frozen=True)
class FaultPlan:
    """Per-row fault outcomes for one release-sorted schedule.

    ``attempts[k]`` corrupted attempts precede row ``k``'s outcome;
    ``transmit[k]`` says whether the row eventually transmits
    successfully (False: the node went bus-off mid-row); ``queued[k]``
    says whether the row participates in arbitration at all (False:
    its node was already bus-off at release).  ``tec_after[k]`` is the
    emitting node's TEC after the row — the trajectory the bus-off
    scenario tests assert on.
    """

    attempts: np.ndarray  #: (N,) int64 corrupted attempts per row
    transmit: np.ndarray  #: (N,) bool — row eventually transmits
    queued: np.ndarray  #: (N,) bool — row enters arbitration
    tec_after: np.ndarray  #: (N,) int64 emitting node's TEC after the row
    bus_off_rows: np.ndarray  #: (M,) int64 rows whose last attempt hit bus-off
    error_s: float  #: wire time charged per error frame (seconds)
    node_states: Mapping[str, NodeFaultState]

    def __len__(self) -> int:
        return int(self.attempts.shape[0])

    @property
    def total_attempts(self) -> int:
        """Corrupted attempts across the whole schedule."""
        return int(self.attempts.sum())

    @property
    def clean(self) -> bool:
        """True when the plan perturbs nothing (fast-path eligible)."""
        return self.total_attempts == 0 and bool(self.queued.all())


@dataclass(frozen=True)
class WireFaultModel:
    """Deterministic wire-fault configuration for one bus.

    ``bit_error_rate`` is the per-bit corruption probability; each
    transmission of a ``b``-bit frame is corrupted with probability
    ``1 - (1 - ber)**b``, and the number of corrupted attempts before
    the first clean one is drawn geometrically from
    ``new_rng(seed, "wirefault/draws")``.  ``targeted`` faults add
    forced corruption on top (see :class:`TargetedFault`).  A frame
    carries at most :data:`MAX_ATTEMPTS` corrupted attempts, each
    charging an error frame of :data:`ERROR_FRAME_BITS`.
    """

    seed: int = 0
    bit_error_rate: float = 0.0
    tec_error_passive: int = 128
    tec_bus_off: int = 256
    recovery: str = "auto"
    targeted: tuple[TargetedFault, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.bit_error_rate < 1.0:
            raise ConfigError(
                f"bit_error_rate must be in [0, 1), got {self.bit_error_rate}"
            )
        if self.tec_error_passive <= 0:
            raise ConfigError(
                f"tec_error_passive must be positive, got {self.tec_error_passive}"
            )
        if self.tec_bus_off < self.tec_error_passive:
            raise ConfigError(
                f"tec_bus_off must be >= tec_error_passive "
                f"({self.tec_error_passive}), got {self.tec_bus_off}"
            )
        if self.recovery not in RECOVERY_MODES:
            raise ConfigError(
                f"recovery must be one of {RECOVERY_MODES}, got {self.recovery!r}"
            )
        object.__setattr__(self, "targeted", tuple(self.targeted))

    def scoped(self, label: str) -> "WireFaultModel":
        """An independent-stream copy for a named sub-context."""
        return dataclasses.replace(self, seed=derive_seed(self.seed, f"scope/{label}"))

    def for_channel(self, channel: str) -> "WireFaultModel":
        """An independent-stream copy for one bus channel of a gateway."""
        return dataclasses.replace(
            self, seed=derive_seed(self.seed, f"channel/{channel}")
        )

    def with_targets(self, extra: Iterable[TargetedFault]) -> "WireFaultModel":
        """This model plus additional targeted-corruption hooks."""
        return dataclasses.replace(self, targeted=self.targeted + tuple(extra))

    def plan(
        self, schedule: "ScheduleArray", wire_bits: np.ndarray, bitrate: float
    ) -> FaultPlan:
        """Resolve every row's fault outcome ahead of arbitration.

        ``schedule`` must be release-sorted (ties in attach order) — the
        order both engines admit frames, so the plan and therefore the
        simulated wire are engine-independent — and ``wire_bits`` holds
        its rows' wire lengths.  A bitrate that is not positive and
        finite, a ``wire_bits`` column that does not line up with the
        schedule, and releases out of order raise :class:`ConfigError`.
        """
        if not math.isfinite(bitrate) or bitrate <= 0:
            raise ConfigError(f"bitrate must be positive and finite, got {bitrate}")
        releases = schedule.release_times
        n = len(schedule)
        if wire_bits.shape != (n,):
            raise ConfigError(
                f"wire_bits must have shape ({n},) to line up with the schedule, "
                f"got {wire_bits.shape}"
            )
        backwards = ~(releases[1:] >= releases[:-1])
        if backwards.any():
            k = int(np.argmax(backwards))
            raise ConfigError(
                f"the fault plan needs release-sorted rows: row {k + 1} is released "
                f"at {releases[k + 1]}, after row {k} at {releases[k]}"
            )
        error_s = float(ERROR_FRAME_BITS) / float(bitrate)
        attempts = np.zeros(n, dtype=np.int64)
        if n and self.bit_error_rate > 0.0:
            rng = new_rng(self.seed, "wirefault/draws")
            corrupt_p = -np.expm1(
                wire_bits.astype(np.float64) * math.log1p(-self.bit_error_rate)
            )
            clean_p = np.clip(1.0 - corrupt_p, 1e-12, 1.0)
            attempts = rng.geometric(clean_p).astype(np.int64) - 1
        if n:
            names = schedule.source_names
            # reprolint: disable=hot-path-purity -- iterates the model's targeted faults, not frames
            for fault in self.targeted:
                mask = (releases >= fault.start) & (releases < fault.end)
                if fault.can_id is not None:
                    mask &= schedule.can_ids == fault.can_id
                if fault.source is not None:
                    code = names.index(fault.source) if fault.source in names else -1
                    mask &= schedule.sources == code
                attempts[mask] += int(fault.attempts)
            attempts = np.minimum(attempts, np.int64(MAX_ATTEMPTS))

        transmit = np.ones(n, dtype=bool)
        queued = np.ones(n, dtype=bool)
        tec_after = np.zeros(n, dtype=np.int64)
        bus_off_rows = np.zeros(0, dtype=np.int64)
        node_states: dict[str, NodeFaultState] = {}
        if n and bool(np.any(attempts > 0)):
            bus_off_rows, node_states = self._confine(
                schedule, bitrate, attempts, transmit, queued, tec_after
            )
        return FaultPlan(
            attempts=attempts,
            transmit=transmit,
            queued=queued,
            tec_after=tec_after,
            bus_off_rows=bus_off_rows,
            error_s=error_s,
            node_states=node_states,
        )

    def _confine(
        self,
        schedule: "ScheduleArray",
        bitrate: float,
        attempts: np.ndarray,
        transmit: np.ndarray,
        queued: np.ndarray,
        tec_after: np.ndarray,
    ) -> tuple[np.ndarray, dict[str, NodeFaultState]]:
        """Walk the TEC state machine per node, truncating at bus-off.

        Mutates the per-row outcome arrays in place and returns the
        bus-off rows (in row order) and the node states (in order of
        each node's first row).  Only nodes with at least one corrupted
        attempt are walked — a node that never errs keeps TEC 0
        (decrements clamp at zero).

        The faulty nodes' rows are grouped by node, in release order
        within each.  Until its first bus-off, a node's TEC is the
        clamped +8/-1 walk, Lindley's recursion (:func:`_tec_walk`), one
        array pass for every node at once.  A row goes bus-off when it
        errs and its walk reaches ``tec_bus_off - 1`` (its count before
        the final -1 reaches ``tec_bus_off``).  Each bus-off event then
        silences the node's rows released before its recovery instant,
        and a recovered node walks its remaining rows again from TEC 0.
        """
        codes = schedule.sources
        faulty = np.zeros(len(schedule.source_names), dtype=bool)
        faulty[codes[attempts > 0]] = True
        member = np.flatnonzero(faulty[codes])
        rows = member[np.argsort(codes[member], kind="stable")]
        node = codes[rows]
        starts = np.flatnonzero(np.diff(node, prepend=-1))
        ends = np.append(starts[1:], rows.size)
        draws = attempts[rows]
        releases = schedule.release_times[rows]
        fatal_tec = self.tec_bus_off - _TEC_SUCCESS_STEP
        tec = _tec_walk(_TEC_ERROR_STEP * draws - _TEC_SUCCESS_STEP, starts)
        fatal = np.flatnonzero((tec >= fatal_tec) & (draws > 0))
        _, first = np.unique(node[fatal], return_index=True)
        first_fatal = fatal[first]
        fatal_segments = (np.searchsorted(starts, first_fatal, side="right") - 1).tolist()

        recovery_s = float(BUS_OFF_RECOVERY_BITS) / float(bitrate)
        recoveries = [0] * starts.size
        silent_at_end = [False] * starts.size
        silenced = np.zeros(rows.size, dtype=bool)
        fatal_positions: list[int] = []
        # reprolint: disable=hot-path-purity -- one pass per bus-off event (a handful per bus), never per frame
        for segment, p in zip(fatal_segments, first_fatal.tolist()):
            end = int(ends[segment])
            while True:
                before = int(tec[p]) - _TEC_ERROR_STEP * int(draws[p]) + _TEC_SUCCESS_STEP
                charged = -(-(self.tec_bus_off - before) // _TEC_ERROR_STEP)
                draws[p] = charged
                tec[p] = before + _TEC_ERROR_STEP * charged
                fatal_positions.append(p)
                resume = end
                if self.recovery == "auto":
                    recovered_at = releases[p] + recovery_s
                    resume = p + 1 + int(np.searchsorted(releases[p + 1 : end], recovered_at))
                tec[p + 1 : resume] = tec[p]
                draws[p + 1 : resume] = 0
                silenced[p + 1 : resume] = True
                if resume == end:
                    silent_at_end[segment] = True
                    break
                recoveries[segment] += 1
                tec[resume:end] = _tec_walk(
                    _TEC_ERROR_STEP * draws[resume:end] - _TEC_SUCCESS_STEP, _ONE_SEGMENT
                )
                again = np.flatnonzero((tec[resume:end] >= fatal_tec) & (draws[resume:end] > 0))
                if not again.size:
                    break
                p = resume + int(again[0])

        attempts[rows] = draws
        tec_after[rows] = tec
        queued[rows[silenced]] = False
        transmit[rows[silenced]] = False
        bus_off_rows = np.sort(rows[np.array(fatal_positions, dtype=np.int64)])
        transmit[bus_off_rows] = False

        names = schedule.source_names
        node_names = [names[code] for code in node[starts].tolist()]
        final = tec[ends - 1].tolist()
        peak = np.maximum.reduceat(tec, starts).tolist()
        first_off = dict(zip(fatal_segments, releases[first_fatal].tolist()))
        # Each node in order of its first row, as the row-by-row walk meets them.
        node_states = {
            node_names[g]: NodeFaultState(
                source=node_names[g],
                tec=final[g],
                peak_tec=peak[g],
                error_passive=peak[g] >= self.tec_error_passive,
                bus_off=silent_at_end[g],
                bus_off_at=first_off.get(g),
                recoveries=recoveries[g],
            )
            for g in np.argsort(rows[starts], kind="stable").tolist()
        }
        return bus_off_rows, node_states


#: The segment starts of a walk over one node's rows.
_ONE_SEGMENT = np.zeros(1, dtype=np.int64)


def _tec_walk(steps: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The clamped walk ``W_k = max(W_{k-1} + steps_k, 0)`` from 0 per segment.

    ``starts`` are the first positions of consecutive segments (the
    first is 0).  Lindley's recursion has the closed form ``W_k = S_k -
    min(0, min_{j<=k} S_j)`` over the prefix sums ``S`` of each segment.
    The segment-wise running minimum is one ``minimum.accumulate``:
    shifting segment ``g`` down by ``g * span``, where ``span`` exceeds
    the prefix sums' range, puts every later segment's values below all
    earlier ones.  Everything is exact int64 arithmetic.
    """
    segment = np.zeros(steps.size, dtype=np.int64)
    segment[starts[1:]] = 1
    np.cumsum(segment, out=segment)
    total = np.cumsum(steps)
    sums = total - (total[starts] - steps[starts])[segment]
    span = int(sums.max()) - int(sums.min()) + 1
    shift = segment * span
    floor = np.minimum.accumulate(sums - shift) + shift
    return sums - np.minimum(floor, 0)


def resolve_bus_faults(
    sources: Sequence[object], faults: WireFaultModel | None
) -> WireFaultModel | None:
    """Fold attached sources' targeted faults into the bus's model.

    Sources exposing ``targeted_faults()`` (e.g. the bus-off attacker)
    contribute corruption hooks even when no ambient ``faults`` model
    was configured — a zero-BER model is synthesised so the attack
    still lands on an otherwise clean bus.  Returns ``None`` when
    there is genuinely nothing to model, including an inert ambient
    model (zero rate, no hooks) — the engines then keep the clean path
    with no fault-plan work at all.
    """
    emitters = [getattr(source, "targeted_faults", None) for source in sources]
    gathered = [fault for emitter in emitters if emitter is not None for fault in emitter()]
    if gathered:
        base = faults if faults is not None else WireFaultModel()
        return base.with_targets(gathered)
    if faults is not None and faults.bit_error_rate == 0.0 and not faults.targeted:
        return None
    return faults
