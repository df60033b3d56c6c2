"""Attack traffic injectors.

These reproduce the four attack mechanics of the Car-Hacking dataset
(Song, Woo & Kim 2020) plus the masquerade/suspension mechanics the
follow-up IDS literature evaluates against; the paper trains detectors
for the first two:

* **DoS** — inject the dominant identifier ``0x000`` every 0.3 ms.  It
  wins every arbitration round, starving legitimate traffic.
* **Fuzzy** — inject frames with uniformly random identifier and payload
  every 0.5 ms, probing ECU behaviour.
* **Spoofing** (gear/RPM in the original capture) — inject well-formed
  frames of one legitimate identifier with attacker-chosen payloads.
* **Replay** — retransmit previously captured frames.
* **Burst/ramp DoS** — flood profiles beyond the dataset's constant
  cadence: on/off sub-bursts (evading rate-window detectors) and a
  ramp that intensifies across the window.
* **Suspension** — drop or delay a legitimate sender's frames (a
  compromised ECU going silent, or a gateway queuing it maliciously).
* **Masquerade** — suppress the legitimate sender *and* transmit in its
  place at the original cadence, so frame timing stays plausible.

All injectors are :class:`~repro.can.node.TrafficSource` implementations
restricted to configurable active windows, mirroring how the dataset
alternates attack-free and attack intervals.  Each emits its releases
one way, as the columns ``frames_array`` returns.  Injected/tampered
frames carry the ``"T"`` label, so ground truth is attached at the
source.

Two families exist: *windowed injectors* (subclasses of
:class:`_WindowedInjector`) synthesise frames of their own, while
*wrappers* (:class:`SuspensionAttacker`, :class:`MasqueradeAttacker`)
mask, shift and relabel the columns of a victim source they are
constructed around — the campaign compiler (:mod:`repro.can.campaign`)
swaps the victim out of the bus for the wrapper.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.can.frame import CANFrame, MAX_STANDARD_ID
from repro.can.node import TrafficSource
from repro.errors import CANError
from repro.utils.rng import new_rng

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.can.fastbus import ScheduleArray
    from repro.can.faults import TargetedFault

__all__ = [
    "BurstDoSAttacker",
    "BusOffAttacker",
    "DEFAULT_SUSPENSION_DELAY",
    "DoSAttacker",
    "FuzzyAttacker",
    "MasqueradeAttacker",
    "RampDoSAttacker",
    "ReplayAttacker",
    "SpoofingAttacker",
    "SuspensionAttacker",
]

Window = tuple[float, float]

#: Default extra latency a delay-mode suspension adds to victim frames.
#: Shared with the campaign compiler's ground-truth slack computation.
DEFAULT_SUSPENSION_DELAY = 0.020


def _validate_windows(windows: Sequence[Window]) -> list[Window]:
    """Check and sort active windows (shared by injectors and wrappers)."""
    for window in windows:
        try:
            start, end = window
        except (TypeError, ValueError):
            raise CANError(
                f"attack windows must be a sequence of (start, end) pairs, "
                f"got {windows!r}"
            ) from None
        if not math.isfinite(start) or not math.isfinite(end):
            raise CANError(f"attack window ({start}, {end}) must be finite")
        if end <= start:
            raise CANError(f"attack window ({start}, {end}) is empty")
    return sorted(windows)


def _check_id(role: str, can_id: int) -> None:
    if not 0 <= can_id <= MAX_STANDARD_ID:
        raise CANError(f"{role} must be in [0, 0x7FF], got {can_id:#x}")


def _check_payload(role: str, payload: bytes) -> None:
    if len(payload) > 8:
        raise CANError(f"{role} takes at most 8 bytes, got {len(payload)}")


class _WindowedSource:
    """Shared logic: frame emission restricted to active windows.

    Subclasses implement :meth:`_window_schedule` to emit one window's
    releases as columnar arrays; the base class validates/sorts the
    windows and clips every window at the simulation horizon, so all
    attackers share identical window/clipping semantics and a campaign
    can schedule any of them uniformly.
    """

    def __init__(self, windows: Sequence[Window], name: str, seed: int):
        self.windows = _validate_windows(windows)
        self.name = name
        self._rng = new_rng(seed, f"attacker-{name}")

    def _window_schedule(self, start: float, end: float, until: float) -> "ScheduleArray":
        """This window's releases (all ``< min(end, until)``) as columns."""
        raise NotImplementedError

    def frames_array(self, until: float) -> "ScheduleArray":
        """The whole-horizon columnar schedule across active windows."""
        from repro.can.fastbus import ScheduleArray

        parts = [
            self._window_schedule(start, end, until)
            for start, end in self.windows
            if start < until
        ]
        return ScheduleArray.concatenate([part for part in parts if len(part)])


class _WindowedInjector(_WindowedSource):
    """Windowed source with a fixed injection cadence."""

    def __init__(self, interval: float, windows: Sequence[Window], name: str, seed: int):
        if not math.isfinite(interval) or interval <= 0:
            raise CANError(
                f"injection interval must be positive and finite, got {interval}"
            )
        super().__init__(windows, name, seed)
        self.interval = interval

    def _payload_columns(self, releases: np.ndarray) -> tuple:
        """``(can_ids, payloads, dlcs)`` for one window's release grid."""
        raise NotImplementedError

    def _window_schedule(self, start: float, end: float, until: float) -> "ScheduleArray":
        from repro.can import fastbus

        releases = fastbus.release_grid(start, min(end, until), self.interval)
        return self._schedule_for(releases)

    def _schedule_for(self, releases: np.ndarray) -> "ScheduleArray":
        from repro.can import fastbus

        if releases.size == 0:
            return fastbus.ScheduleArray.empty()
        can_ids, payloads, dlcs = self._payload_columns(releases)
        return fastbus.schedule_columns(
            releases, can_ids=can_ids, payloads=payloads, dlcs=dlcs,
            label=1, source=self.name,
        )


class DoSAttacker(_WindowedInjector):
    """Flood the bus with the highest-priority identifier.

    Defaults follow the Car-Hacking dataset: ``0x000`` with an 8-byte
    zero payload every 0.3 ms.
    """

    def __init__(
        self,
        windows: Sequence[Window],
        interval: float = 0.0003,
        can_id: int = 0x000,
        payload: bytes = bytes(8),
        seed: int = 0,
        name: str = "dos-attacker",
    ):
        _check_id("DoS can_id", can_id)
        _check_payload("DoS payload", payload)
        super().__init__(interval, windows, name, seed)
        self.can_id = can_id
        self.payload = payload

    def _payload_columns(self, releases: np.ndarray) -> tuple:
        row = np.frombuffer(self.payload, dtype=np.uint8)
        payloads = np.broadcast_to(row, (releases.size, row.size)).copy()
        return self.can_id, payloads, None


class BurstDoSAttacker(DoSAttacker):
    """DoS flood chopped into on/off sub-bursts inside each window.

    Models an attacker dosing the bus in short pulses — enough to stall
    arbitration while ducking under rate-per-window heuristics.  Each
    active window alternates ``burst_on`` seconds of flooding at
    ``interval`` cadence with ``burst_off`` seconds of silence.
    """

    def __init__(
        self,
        windows: Sequence[Window],
        burst_on: float = 0.050,
        burst_off: float = 0.050,
        interval: float = 0.0003,
        can_id: int = 0x000,
        payload: bytes = bytes(8),
        seed: int = 0,
        name: str = "burst-dos-attacker",
    ):
        if not (0 < burst_on < math.inf and 0 <= burst_off < math.inf):
            raise CANError(
                f"burst_on must be positive and burst_off non-negative, both "
                f"finite, got ({burst_on}, {burst_off})"
            )
        super().__init__(
            windows, interval=interval, can_id=can_id, payload=payload,
            seed=seed, name=name,
        )
        self.burst_on = burst_on
        self.burst_off = burst_off

    def _window_schedule(self, start: float, end: float, until: float) -> "ScheduleArray":
        from repro.can import fastbus

        horizon = min(end, until)
        pulses = []
        cursor = start
        while cursor < horizon:
            burst_end = min(cursor + self.burst_on, horizon)
            pulses.append(fastbus.release_grid(cursor, burst_end, self.interval))
            cursor = cursor + self.burst_on + self.burst_off
        releases = np.concatenate(pulses) if pulses else np.zeros(0, dtype=np.float64)
        return self._schedule_for(releases)


class RampDoSAttacker(DoSAttacker):
    """DoS flood whose cadence ramps across each window.

    The injection interval interpolates linearly from
    ``interval_start`` at the window's opening to ``interval_end`` at
    its close — an attack that starts below detection thresholds and
    intensifies to a full flood (or, reversed, a flood that backs off).
    The ramp is a function of window position, so clipping at the
    simulation horizon never changes the cadence profile.
    """

    def __init__(
        self,
        windows: Sequence[Window],
        interval_start: float = 0.005,
        interval_end: float = 0.0003,
        can_id: int = 0x000,
        payload: bytes = bytes(8),
        seed: int = 0,
        name: str = "ramp-dos-attacker",
    ):
        if not (0 < interval_start < math.inf and 0 < interval_end < math.inf):
            raise CANError(
                f"ramp intervals must be positive and finite, "
                f"got ({interval_start}, {interval_end})"
            )
        super().__init__(
            windows, interval=min(interval_start, interval_end), can_id=can_id,
            payload=payload, seed=seed, name=name,
        )
        self.interval_start = interval_start
        self.interval_end = interval_end

    def _window_schedule(self, start: float, end: float, until: float) -> "ScheduleArray":
        horizon = min(end, until)
        span = end - start
        releases: list[float] = []
        release = start
        # The cadence is a recurrence on the release itself, so the
        # grid is built by the same scalar accumulation the profile
        # defines (counts are small: one entry per injected frame).
        while release < horizon:
            releases.append(release)
            progress = (release - start) / span
            release += self.interval_start + (self.interval_end - self.interval_start) * progress
        return self._schedule_for(np.array(releases, dtype=np.float64))


class FuzzyAttacker(_WindowedInjector):
    """Inject frames with uniformly random identifiers and payloads.

    Defaults follow the Car-Hacking dataset: a random frame every
    0.5 ms.  Identifiers are drawn from the full standard range, so a
    fraction of fuzzed frames collides with legitimate identifiers —
    exactly what makes Fuzzy detection harder than DoS in Table I.
    """

    def __init__(
        self,
        windows: Sequence[Window],
        interval: float = 0.0005,
        id_range: tuple[int, int] = (0x000, MAX_STANDARD_ID),
        dlc: int = 8,
        seed: int = 0,
        name: str = "fuzzy-attacker",
    ):
        super().__init__(interval, windows, name, seed)
        if not 0 <= id_range[0] <= id_range[1] <= MAX_STANDARD_ID:
            raise CANError(f"invalid fuzzing id range {id_range}")
        if not 0 <= dlc <= 8:
            raise CANError(f"fuzzing dlc must be in [0, 8], got {dlc}")
        self.id_range = id_range
        self.dlc = dlc

    def _payload_columns(self, releases: np.ndarray) -> tuple:
        n = releases.size
        can_ids = self._rng.integers(self.id_range[0], self.id_range[1] + 1, size=n)
        payloads = self._rng.integers(0, 256, size=(n, self.dlc)).astype(np.uint8)
        return can_ids.astype(np.int64), payloads, None


class SpoofingAttacker(_WindowedInjector):
    """Inject a legitimate identifier with attacker-controlled payloads.

    The original dataset spoofs gear (0x43F) and RPM (0x316) gauges at a
    1 ms cadence.
    """

    def __init__(
        self,
        windows: Sequence[Window],
        target_id: int = 0x316,
        interval: float = 0.001,
        payload_pool: Sequence[bytes] | None = None,
        seed: int = 0,
        name: str | None = None,
    ):
        _check_id("target_id", target_id)
        self.payload_pool = list(payload_pool) if payload_pool else [bytes([0xFF, 0x00] * 4)]
        for entry in self.payload_pool:
            _check_payload("payload_pool entry", entry)
        super().__init__(interval, windows, name or f"spoof-0x{target_id:03X}", seed)
        self.target_id = target_id
        self._pool_payloads = np.frombuffer(
            b"".join(entry + bytes(8 - len(entry)) for entry in self.payload_pool),
            dtype=np.uint8,
        ).reshape(len(self.payload_pool), 8).copy()
        self._pool_dlcs = np.array([len(entry) for entry in self.payload_pool], dtype=np.int64)

    def _payload_columns(self, releases: np.ndarray) -> tuple:
        choices = self._rng.integers(0, len(self.payload_pool), size=releases.size)
        return self.target_id, self._pool_payloads[choices], self._pool_dlcs[choices]


class ReplayAttacker(_WindowedSource):
    """Replay a previously captured frame sequence inside active windows.

    Unlike the periodic injectors, release times come from the capture
    itself (shifted to each window's start), preserving original pacing;
    frames whose offset overruns a window are clipped at its end.  The
    window/clipping semantics are those of every other windowed injector
    (multiple windows, horizon clipping), so campaigns can schedule a
    replay phase exactly like a flood phase.  The capture must hold
    standard data frames: a captured frame that is extended or RTR
    raises :class:`~repro.errors.CANError`, because a
    :class:`~repro.can.log.CaptureArray` has no column for either flag.
    """

    def __init__(
        self,
        capture: Sequence[CANFrame],
        offsets: Sequence[float],
        windows: Sequence[Window],
        name: str = "replay-attacker",
        seed: int = 0,
    ):
        if len(capture) != len(offsets):
            raise CANError("capture and offsets must have matching lengths")
        for index, frame in enumerate(capture):
            if frame.extended or frame.rtr:
                kind = "an extended" if frame.extended else "an RTR"
                raise CANError(
                    f"replay capture frame {index} ({frame!r}) is {kind} frame; "
                    "captures record standard data frames only"
                )
        super().__init__(windows, name, seed)
        self.capture = list(capture)
        self.offsets = list(offsets)
        # Columnar view of the replayed capture, built once: replays of
        # long captures cost array slices, not per-frame object churn.
        self._offsets = np.array(self.offsets, dtype=np.float64)
        self._ids = np.array([frame.can_id for frame in self.capture], dtype=np.int64)
        self._dlcs = np.array([frame.dlc for frame in self.capture], dtype=np.int64)
        self._payloads = (
            np.frombuffer(
                b"".join(frame.data + bytes(8 - frame.dlc) for frame in self.capture),
                dtype=np.uint8,
            ).reshape(len(self.capture), 8).copy()
            if self.capture
            else np.zeros((0, 8), dtype=np.uint8)
        )

    def _window_schedule(self, start: float, end: float, until: float) -> "ScheduleArray":
        from repro.can.fastbus import ScheduleArray

        horizon = min(end, until)
        releases = start + self._offsets
        # Same clipping as the scalar replay: stop at the *first*
        # overrun, preserving capture order even for unsorted offsets.
        overruns = releases >= horizon
        cut = int(np.argmax(overruns)) if overruns.any() else releases.size
        if cut == 0:
            return ScheduleArray.empty()
        return ScheduleArray(
            release_times=releases[:cut],
            can_ids=self._ids[:cut],
            dlcs=self._dlcs[:cut],
            payloads=self._payloads[:cut],
            labels=np.ones(cut, dtype=np.int64),
            sources=np.zeros(cut, dtype=np.int64),
            source_names=(self.name,),
        )


class BusOffAttacker:
    """Force a victim into bus-off by corrupting its transmissions.

    The Cho–Shin bus-off attack (CCS 2016) synchronises with a victim's
    frame and injects a dominant bit into it, forcing a transmit error:
    the victim's TEC climbs +8 per corrupted attempt and, once every
    transmission errs, marches through error-passive (128) into bus-off
    (256), at which point the ECU falls silent — a suspension attack
    executed purely through the error machinery.

    This source puts **nothing** on the wire itself (the injected
    dominant bit rides inside the victim's own frame); instead it
    exposes :meth:`targeted_faults` — wire-fault hooks the bus engines
    fold into their :class:`~repro.can.faults.WireFaultModel`
    (see :func:`repro.can.faults.resolve_bus_faults`).  With the
    default one corrupted attempt per frame the victim's TEC walks the
    classic +8/−1 sawtooth; larger ``attempts_per_frame`` models an
    attacker re-hitting each retransmission, reaching bus-off within a
    couple of frames.
    """

    def __init__(
        self,
        windows: Sequence[Window],
        target_id: int,
        attempts_per_frame: int = 1,
        seed: int = 0,
        name: str | None = None,
    ):
        if attempts_per_frame < 1:
            raise CANError(
                f"attempts_per_frame must be >= 1, got {attempts_per_frame}"
            )
        self.windows = _validate_windows(windows)
        self.can_id = target_id
        self.attempts_per_frame = attempts_per_frame
        self.seed = seed
        self.name = name or f"bus-off-0x{target_id:03X}"

    def targeted_faults(self) -> "list[TargetedFault]":
        """The corruption hooks this attacker contributes to the bus."""
        from repro.can.faults import TargetedFault

        return [
            TargetedFault(
                start=start,
                end=end,
                attempts=self.attempts_per_frame,
                can_id=self.can_id,
            )
            for start, end in self.windows
        ]

    def frames_array(self, until: float) -> "ScheduleArray":
        from repro.can.fastbus import ScheduleArray

        return ScheduleArray.empty()


class SuspensionAttacker:
    """Suppress or delay a legitimate sender's frames inside windows.

    A suspension attack silences a victim ECU — by bus-off-ing it, by
    holding its transmit mailbox, or by a compromised gateway queueing
    its frames.  This wrapper transforms the ``victim`` source's
    schedule: inside each active window, matching frames are either
    dropped (``mode="drop"``; nothing appears on the wire) or delayed
    by ``delay`` seconds (``mode="delay"``; the late frames are
    tampered traffic and carry the ``"T"`` label).  Frames of other
    identifiers — and the victim's frames outside the windows — pass
    through untouched, in their original order.

    The campaign compiler replaces the victim on the bus with this
    wrapper, so the bus sees exactly one copy of the victim's traffic.
    """

    MODES = ("drop", "delay")

    def __init__(
        self,
        victim: TrafficSource,
        windows: Sequence[Window],
        mode: str = "drop",
        delay: float = DEFAULT_SUSPENSION_DELAY,
        target_id: int | None = None,
        name: str | None = None,
    ):
        if mode not in self.MODES:
            raise CANError(f"unknown suspension mode {mode!r}; choose from {self.MODES}")
        if mode == "delay" and not 0 < delay < math.inf:
            raise CANError(f"suspension delay must be positive and finite, got {delay}")
        self.victim = victim
        self.windows = _validate_windows(windows)
        self.mode = mode
        self.delay = delay
        #: identifier the attack applies to (None = every victim frame);
        #: exposed as ``can_id`` so wrappers stack like plain senders.
        self.can_id = target_id if target_id is not None else getattr(victim, "can_id", None)
        #: the victim's nominal period, for a masquerade stacked on top
        self.period = getattr(victim, "period", None)
        self.name = name or f"suspension-{mode}"

    def frames_array(self, until: float) -> "ScheduleArray":
        """Columnar transform of the victim's schedule (drop or delay).

        The victim's columns come from its own ``frames_array`` and masks
        select the targeted in-window frames.  A delayed frame can land
        between two pass-through releases, so the rows are re-sorted by
        release, stably: ties keep the victim's order.
        """
        from repro.can import fastbus

        schedule = self.victim.frames_array(until)
        releases = schedule.release_times
        hit = np.zeros(len(schedule), dtype=bool)
        for start, end in self.windows:
            hit |= (releases >= start) & (releases < end)
        if self.can_id is not None:
            hit &= schedule.can_ids == self.can_id
        if self.mode == "drop":
            return schedule.take(np.flatnonzero(~hit)).sorted_by_release()
        shifted = releases.copy()
        shifted[hit] = releases[hit] + self.delay
        labels = schedule.labels.copy()
        labels[hit] = 1
        names = schedule.source_names
        if self.name not in names:
            names += (self.name,)
        sources = schedule.sources.copy()
        sources[hit] = names.index(self.name)
        tampered = fastbus.ScheduleArray(
            release_times=shifted,
            can_ids=schedule.can_ids,
            dlcs=schedule.dlcs,
            payloads=schedule.payloads,
            labels=labels,
            sources=sources,
            source_names=names,
        )
        keep = ~(hit & (shifted >= until))
        return tampered.take(np.flatnonzero(keep)).sorted_by_release()


class MasqueradeAttacker:
    """Suppress the legitimate sender and transmit in its place.

    The masquerade attack is spoofing done carefully: the victim ECU is
    silenced (as in a drop-mode suspension) and the attacker transmits
    the victim's identifier *at its original cadence*, so frequency- and
    inter-arrival-based detectors see nothing unusual — only payload
    inspection can tell.  Inside each window, the wrapper filters the
    victim's frames out and injects spoofed frames every ``interval``
    seconds (default: the victim's nominal period) with payloads drawn
    from ``payload_pool``.
    """

    def __init__(
        self,
        victim: TrafficSource,
        windows: Sequence[Window],
        interval: float | None = None,
        payload_pool: Sequence[bytes] | None = None,
        target_id: int | None = None,
        seed: int = 0,
        name: str | None = None,
    ):
        target = target_id if target_id is not None else getattr(victim, "can_id", None)
        if target is None:
            raise CANError("masquerade needs a target_id (victim has no can_id attribute)")
        cadence = interval if interval is not None else getattr(victim, "period", None)
        if cadence is None:
            raise CANError("masquerade needs an interval (victim has no period attribute)")
        self.can_id = target
        self.name = name or f"masquerade-0x{target:03X}"
        self._suppressor = SuspensionAttacker(
            victim, windows, mode="drop", target_id=target, name=self.name
        )
        self._injector = SpoofingAttacker(
            windows,
            target_id=target,
            interval=cadence,
            payload_pool=payload_pool,
            seed=seed,
            name=self.name,
        )
        self.windows = self._suppressor.windows
        self.interval = cadence
        self.period = self._suppressor.period

    def frames_array(self, until: float) -> "ScheduleArray":
        from repro.can.fastbus import ScheduleArray

        merged = ScheduleArray.concatenate(
            [
                part
                for part in (
                    self._suppressor.frames_array(until),
                    self._injector.frames_array(until),
                )
                if len(part)
            ]
        )
        return merged.sorted_by_release()
