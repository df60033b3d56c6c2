"""Tests for capture records, CSV I/O and the remaining attack types."""

import numpy as np
import pytest

from repro.can.attacks import (
    BurstDoSAttacker,
    DoSAttacker,
    FuzzyAttacker,
    MasqueradeAttacker,
    RampDoSAttacker,
    ReplayAttacker,
    SpoofingAttacker,
)
from repro.can.frame import CANFrame
from repro.can.log import (
    CANLogRecord,
    read_car_hacking_csv,
    write_car_hacking_csv,
)
from repro.can.node import PeriodicSender
from repro.errors import CANError, DatasetError


class TestCANLogRecord:
    def test_label_validated(self):
        with pytest.raises(DatasetError):
            CANLogRecord(0.0, 0x1, 1, b"\x00", "X")

    def test_dlc_consistency(self):
        with pytest.raises(DatasetError):
            CANLogRecord(0.0, 0x1, 2, b"\x00", "R")

    def test_is_attack(self):
        assert CANLogRecord(0.0, 0x1, 0, b"", "T").is_attack
        assert not CANLogRecord(0.0, 0x1, 0, b"", "R").is_attack

    def test_to_frame(self):
        record = CANLogRecord(0.0, 0x316, 8, bytes(range(8)), "R")
        frame = record.to_frame()
        assert frame.can_id == 0x316 and frame.data == bytes(range(8))


class TestCSVIO:
    def _records(self):
        return [
            CANLogRecord(0.000123, 0x316, 8, bytes(range(8)), "R"),
            CANLogRecord(0.000456, 0x000, 8, bytes(8), "T"),
            CANLogRecord(0.000789, 0x43F, 2, b"\x01\x02", "R"),  # short DLC
        ]

    def test_roundtrip_fields(self, tmp_path):
        path = write_car_hacking_csv(self._records(), tmp_path / "cap.csv")
        loaded = read_car_hacking_csv(path)
        assert len(loaded) == 3
        for original, read in zip(self._records(), loaded):
            assert read.can_id == original.can_id
            assert read.data == original.data
            assert read.label == original.label
            assert read.timestamp == pytest.approx(original.timestamp, abs=1e-6)

    def test_variable_dlc_column_count(self, tmp_path):
        path = write_car_hacking_csv(self._records(), tmp_path / "cap.csv")
        rows = path.read_text().strip().splitlines()
        assert len(rows[0].split(",")) == 3 + 8 + 1
        assert len(rows[2].split(",")) == 3 + 2 + 1

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("Timestamp,ID,DLC,DATA0,Flag\n1.5,0316,1,aa,R\n")
        (record,) = read_car_hacking_csv(path)
        assert record.can_id == 0x316 and record.data == b"\xaa"

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0316,2,aa,R\n")  # dlc says 2, only one byte
        with pytest.raises(DatasetError, match="bad.csv:1"):
            read_car_hacking_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            read_car_hacking_csv(tmp_path / "nope.csv")

    def test_limit(self, tmp_path):
        path = write_car_hacking_csv(self._records(), tmp_path / "cap.csv")
        assert len(read_car_hacking_csv(path, limit=2)) == 2


class TestSpoofReplay:
    def test_spoofing_targets_one_id(self):
        attacker = SpoofingAttacker(windows=[(0.0, 0.1)], target_id=0x316, seed=1)
        frames = list(attacker.frames(0.1))
        assert frames and all(s.frame.can_id == 0x316 for s in frames)
        assert all(s.label == "T" for s in frames)

    def test_replay_preserves_pacing(self):
        capture = [CANFrame(0x100, bytes(2)), CANFrame(0x200, bytes(2))]
        attacker = ReplayAttacker(capture, offsets=[0.0, 0.005], windows=[(1.0, 2.0)])
        frames = list(attacker.frames(10.0))
        assert [s.release_time for s in frames] == [1.0, 1.005]

    def test_replay_respects_window_end(self):
        capture = [CANFrame(0x100)] * 3
        attacker = ReplayAttacker(capture, offsets=[0.0, 0.5, 5.0], windows=[(0.0, 1.0)])
        assert len(list(attacker.frames(10.0))) == 2

    def test_replay_length_mismatch(self):
        with pytest.raises(CANError):
            ReplayAttacker([CANFrame(0x1)], offsets=[0.0, 1.0], windows=[(0.0, 1.0)])

    @pytest.mark.parametrize(
        "windows",
        [(1.0, 2.0), [(1.0, 2.0, 3.0)], [1.0]],
        ids=["bare-pair", "triple", "scalar"],
    )
    def test_malformed_windows_rejected(self, windows):
        """Anything but a sequence of (start, end) pairs is a CANError."""
        with pytest.raises(CANError, match=r"\(start, end\) pairs"):
            ReplayAttacker([CANFrame(0x100)], offsets=[0.0], windows=windows)
        with pytest.raises(CANError, match=r"\(start, end\) pairs"):
            SpoofingAttacker(windows=windows, target_id=0x316)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: DoSAttacker([(0.0, 1.0)], can_id=0x800), "0x800"),
            (lambda: DoSAttacker([(0.0, 1.0)], can_id=-1), "-0x1"),
            (lambda: DoSAttacker([(0.0, 1.0)], payload=bytes(9)), "got 9"),
            (lambda: BurstDoSAttacker([(0.0, 1.0)], can_id=0x800), "0x800"),
            (lambda: BurstDoSAttacker([(0.0, 1.0)], payload=bytes(9)), "got 9"),
            (lambda: RampDoSAttacker([(0.0, 1.0)], can_id=-1), "-0x1"),
            (lambda: RampDoSAttacker([(0.0, 1.0)], payload=bytes(12)), "got 12"),
            (lambda: SpoofingAttacker([(0.0, 1.0)], target_id=0x800), "0x800"),
            (lambda: SpoofingAttacker([(0.0, 1.0)], target_id=-1), "-0x1"),
            (lambda: SpoofingAttacker([(0.0, 1.0)], payload_pool=[bytes(2), bytes(9)]), "got 9"),
            (
                lambda: MasqueradeAttacker(
                    PeriodicSender(0x316, 0.01), [(0.0, 1.0)], target_id=0x800
                ),
                "0x800",
            ),
            (
                lambda: MasqueradeAttacker(
                    PeriodicSender(0x316, 0.01), [(0.0, 1.0)], payload_pool=[bytes(10)]
                ),
                "got 10",
            ),
            (lambda: FuzzyAttacker([(0.0, 1.0)], dlc=-1), "got -1"),
            (lambda: FuzzyAttacker([(0.0, 1.0)], dlc=9), "got 9"),
        ],
        ids=[
            "dos-id-high", "dos-id-negative", "dos-payload", "burst-id", "burst-payload",
            "ramp-id", "ramp-payload", "spoof-id-high", "spoof-id-negative", "spoof-pool",
            "masquerade-id", "masquerade-pool", "fuzzy-dlc-negative", "fuzzy-dlc-high",
        ],
    )
    def test_impossible_frames_rejected_at_construction(self, build, match):
        """An id outside 0-0x7FF, a payload over 8 bytes or a DLC outside
        0-8 is a CANError naming the value when the attacker is built,
        not when a bus first sizes or schedules its frames."""
        with pytest.raises(CANError, match=match):
            build()
