"""Frame → feature-vector encoders for the per-message IDS.

The paper's MLP consumes a whole CAN frame per inference ("the packet is
copied into a FIFO style buffer ... examined by our IDS IP").  Three
encoders are provided:

* :class:`BitFeatureEncoder` — the deployed encoding: 11 identifier bits
  + 4 DLC bits + 64 payload bits = **79 binary inputs**.  Binary inputs
  quantise exactly (the input QuantIdentity is lossless on them) and
  make the first hardware layer cheap, as in FINN-style accelerators.
  Both of its paths emit ``bool`` arrays: the compiled engine
  (:mod:`repro.finn.compiled`) takes those bits as they are, with no
  float quantiser pass.  Identifiers outside 0–0x7FF and negative DLCs
  raise :class:`~repro.errors.DatasetError` on both paths.
* :class:`ByteFeatureEncoder` — 10 normalised features (ID, DLC, 8
  payload bytes); a compact ablation encoding.
* :class:`WindowFeatureEncoder` — stacks the features of the last *k*
  frames plus inter-arrival times, for block-based baselines (DCNN,
  GRU, TCAN consume windows; see Table II "Frames" column).

Every encoder has two equivalent paths: the per-frame reference
(``encode_frame``) and a whole-capture vectorised kernel
(``encode_batch``) over the columnar :class:`~repro.can.log.CaptureArray`.
The vectorised path is bit-exact with the reference — pinned by
regression tests — and is what ``encode`` and the ECU pipeline use.
``encode`` is the training-set API and always returns float64 features.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.can.frame import MAX_STANDARD_ID
from repro.can.log import CANLogRecord, CaptureArray
from repro.errors import DatasetError
from repro.utils.bitops import bytes_to_bits, int_to_bits

__all__ = [
    "FeatureEncoder",
    "BitFeatureEncoder",
    "ByteFeatureEncoder",
    "WindowFeatureEncoder",
]


class FeatureEncoder:
    """Base interface: encode captures into ``(X, y)`` numpy arrays."""

    #: Number of features produced per frame/window.
    num_features: int

    #: Frames of leading context a chunked/streaming caller must carry
    #: over so chunk-boundary outputs match whole-capture encoding.
    lookback: int = 0

    def encode_frame(self, record: CANLogRecord) -> np.ndarray:
        """Encode one frame to a 1-D feature vector."""
        raise NotImplementedError

    def _empty_batch(self) -> np.ndarray:
        """Correctly-shaped ``(0, F)`` output for a zero-frame capture."""
        return np.zeros((0, self.num_features), dtype=np.float64)

    def encode_batch(self, capture: CaptureArray) -> np.ndarray:
        """Encode a columnar capture to features ``X`` (N, F).

        The base implementation falls back to the per-frame reference;
        subclasses override with vectorised kernels that must stay
        bit-exact with it.  Empty captures encode to ``(0, F)``.
        """
        if len(capture) == 0:
            return self._empty_batch()
        # reprolint: disable=hot-path-purity -- scalar reference fallback; subclasses provide the vectorised kernels
        return np.stack([self.encode_frame(record) for record in capture.to_records()])

    def encode(
        self, records: Sequence[CANLogRecord] | CaptureArray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode a capture into features ``X`` (N, F) and labels ``y`` (N,).

        Labels are 1 for attack ("T") frames, 0 for regular traffic.
        Empty captures yield ``(0, F)`` features and ``(0,)`` labels.
        """
        capture = CaptureArray.coerce(records)
        features = np.asarray(self.encode_batch(capture), dtype=np.float64)
        return features, capture.labels.astype(np.int64)


def _check_header(can_ids: np.ndarray, dlcs: np.ndarray) -> None:
    """Raise :class:`DatasetError` for ids outside 0–0x7FF or negative DLCs.

    DLCs above 15 are clamped to 15, not refused.
    """
    low, high = int(can_ids.min()), int(can_ids.max())
    if low < 0 or high > MAX_STANDARD_ID:
        bad = low if low < 0 else high
        sign = "-" if bad < 0 else ""
        raise DatasetError(
            f"bit encoder expects standard ids (0 to 0x7FF), got {sign}0x{abs(bad):X}"
        )
    if int(dlcs.min()) < 0:
        raise DatasetError(f"bit encoder expects non-negative DLCs, got {int(dlcs.min())}")


class BitFeatureEncoder(FeatureEncoder):
    """79 binary features: ID(11) + DLC(4) + payload(64, zero padded), as ``bool``."""

    num_features = 11 + 4 + 64

    def encode_frame(self, record: CANLogRecord) -> np.ndarray:
        _check_header(np.array([record.can_id]), np.array([record.dlc]))
        id_bits = int_to_bits(record.can_id, 11)
        dlc_bits = int_to_bits(min(record.dlc, 15), 4)
        payload = record.data + bytes(8 - len(record.data))
        data_bits = bytes_to_bits(payload)
        return np.concatenate([id_bits, dlc_bits, data_bits]).astype(np.bool_)

    def _empty_batch(self) -> np.ndarray:
        return np.zeros((0, self.num_features), dtype=np.bool_)

    def encode_batch(self, capture: CaptureArray) -> np.ndarray:
        """The (N, 79) bits of a capture: a ``bool`` view of one unpacked block.

        Each frame packs into ten bytes: a big-endian 16-bit word holding
        one pad bit, the identifier and the DLC (MSB first, as
        :func:`int_to_bits`), then the eight payload bytes (MSB first per
        byte, as :func:`bytes_to_bits`).  One ``unpackbits`` expands all
        of them, and the pad column is sliced off.
        """
        if len(capture) == 0:
            return self._empty_batch()
        _check_header(capture.can_ids, capture.dlcs)
        header = (capture.can_ids << 4) | np.minimum(capture.dlcs, 15)
        packed = np.empty((len(capture), 10), dtype=np.uint8)
        packed[:, 0] = header >> 8
        packed[:, 1] = header & 0xFF
        packed[:, 2:] = capture.payloads
        return np.unpackbits(packed, axis=1)[:, 1:].view(np.bool_)


class ByteFeatureEncoder(FeatureEncoder):
    """10 features in [0, 1]: ID/0x7FF, DLC/8 and the 8 payload bytes/255."""

    num_features = 10

    def encode_frame(self, record: CANLogRecord) -> np.ndarray:
        payload = record.data + bytes(8 - len(record.data))
        features = np.empty(10, dtype=np.float64)
        features[0] = record.can_id / MAX_STANDARD_ID
        features[1] = record.dlc / 8.0
        features[2:] = np.frombuffer(payload, dtype=np.uint8) / 255.0
        return features

    def encode_batch(self, capture: CaptureArray) -> np.ndarray:
        if len(capture) == 0:
            return self._empty_batch()
        out = np.empty((len(capture), self.num_features), dtype=np.float64)
        out[:, 0] = capture.can_ids / MAX_STANDARD_ID
        out[:, 1] = capture.dlcs / 8.0
        out[:, 2:] = capture.payloads / 255.0
        return out


class WindowFeatureEncoder(FeatureEncoder):
    """Sliding window of per-frame features (+ inter-arrival times).

    The label of a window is the label of its newest frame, matching the
    per-message detection objective; windows shorter than ``window``
    (the first frames of a capture) are left-padded with zeros.
    """

    def __init__(
        self,
        base: FeatureEncoder | None = None,
        window: int = 4,
        include_interarrival: bool = True,
        interarrival_scale: float = 0.01,
    ):
        if window < 1:
            raise DatasetError(f"window must be >= 1, got {window}")
        self.base = base if base is not None else BitFeatureEncoder()
        self.window = window
        self.include_interarrival = include_interarrival
        self.interarrival_scale = interarrival_scale
        per_frame = self.base.num_features + (1 if include_interarrival else 0)
        self.num_features = per_frame * window
        # Inter-arrival gaps reach one frame further back than the
        # window itself (the gap of the oldest in-window frame).
        self.lookback = window if include_interarrival else window - 1

    def encode_frame(self, record: CANLogRecord) -> np.ndarray:
        raise DatasetError("WindowFeatureEncoder encodes captures, not single frames")

    def encode_batch(self, capture: CaptureArray) -> np.ndarray:
        if len(capture) == 0:
            return self._empty_batch()
        base_features = self.base.encode_batch(capture)
        if self.include_interarrival:
            times = capture.timestamps
            gaps = np.diff(times, prepend=times[0])
            gaps = np.clip(gaps / self.interarrival_scale, 0.0, 1.0)
            base_features = np.concatenate([base_features, gaps[:, None]], axis=1)
        count, per_frame = base_features.shape
        window_x = np.zeros((count, self.window * per_frame), dtype=np.float64)
        # reprolint: disable=hot-path-purity -- O(window) offset loop, not O(frames)
        for offset in range(self.window):
            # offset 0 = current frame, 1 = previous, ...
            source = base_features[: count - offset] if offset else base_features
            window_x[offset:, (self.window - 1 - offset) * per_frame : (self.window - offset) * per_frame] = source
        return window_x

    def encode_sequences(
        self, records: Sequence[CANLogRecord] | CaptureArray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode as (N, window, per-frame) sequences for recurrent models."""
        window_x, labels = self.encode(records)
        per_frame = window_x.shape[1] // self.window
        return window_x.reshape(len(labels), self.window, per_frame), labels
