"""Tests for the synthetic Car-Hacking dataset, features, splits, stats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.can.bus import BusSimulator
from repro.can.fastbus import build_schedule
from repro.can.log import CANLogRecord, CaptureArray
from repro.can.node import (
    PeriodicSender,
    constant_payload,
    counter_payload,
    sensor_payload,
)
from repro.datasets.carhacking import (
    VEHICLE_PROFILES,
    CarHackingCapture,
    build_vehicle_bus,
    default_vehicle,
    generate_capture,
)
from repro.datasets.features import (
    BitFeatureEncoder,
    ByteFeatureEncoder,
    FeatureEncoder,
    WindowFeatureEncoder,
)
from repro.datasets.splits import train_val_test_split
from repro.datasets.stats import capture_summary, id_inventory
from repro.errors import DatasetError
from repro.utils.bitops import bits_to_int
from repro.utils.rng import SeedSequence


class TestGenerator:
    def test_deterministic(self):
        a = generate_capture("dos", duration=1.5, seed=5)
        b = generate_capture("dos", duration=1.5, seed=5)
        assert len(a) == len(b)
        assert all(x == y for x, y in zip(a.records[:100], b.records[:100]))

    def test_seed_changes_capture(self):
        a = generate_capture("dos", duration=1.5, seed=5)
        b = generate_capture("dos", duration=1.5, seed=6)
        assert any(x != y for x, y in zip(a.records[:100], b.records[:100]))

    def test_dos_uses_id_zero(self, dos_capture):
        attack_ids = {r.can_id for r in dos_capture.records if r.is_attack}
        assert attack_ids == {0x000}

    def test_fuzzy_ids_random(self, fuzzy_capture):
        attack_ids = {r.can_id for r in fuzzy_capture.records if r.is_attack}
        assert len(attack_ids) > 100

    def test_normal_capture_all_regular(self, normal_capture):
        assert normal_capture.num_attack == 0

    def test_attacks_only_in_windows(self, dos_capture):
        for record in dos_capture.records:
            if record.is_attack:
                assert any(
                    start - 0.01 <= record.timestamp <= end + 0.01
                    for start, end in dos_capture.attack_windows
                )

    def test_vehicle_id_population(self, normal_capture):
        observed = {r.can_id for r in normal_capture.records}
        expected = {spec.can_id for spec in default_vehicle()}
        assert observed == expected

    def test_unknown_attack_rejected(self):
        with pytest.raises(DatasetError):
            generate_capture("not-an-attack", duration=1.0)

    def test_spoofing_capture(self):
        capture = generate_capture("rpm", duration=1.5, seed=2, initial_gap=0.2, attack_burst=1.0)
        attack_ids = {r.can_id for r in capture.records if r.is_attack}
        assert attack_ids == {0x316}

    def test_csv_roundtrip(self, dos_capture, tmp_path):
        path = dos_capture.save_csv(tmp_path / "dos.csv")
        loaded = CarHackingCapture.load_csv(path, attack="dos")
        assert len(loaded) == len(dos_capture)
        assert loaded.num_attack == dos_capture.num_attack


def _vehicle_bus_sender_by_sender(vehicle_seed, profile):
    """The vehicle bus with every sender and payload model made from int seeds."""
    seeds = SeedSequence(vehicle_seed, scope="carhacking-vehicle")
    bus = BusSimulator()
    for spec in default_vehicle(profile):
        name = f"payload-{spec.can_id:x}"
        if spec.kind == "counter":
            model = counter_payload(dlc=8, counter_byte=0)
        elif spec.kind == "sensor":
            model = sensor_payload(dlc=8, active_bytes=3, walk_step=4, seed=seeds.seed(name))
        else:
            model = constant_payload(bytes(seeds.rng(name).integers(0, 256, size=8).tolist()))
        bus.attach(
            PeriodicSender(
                spec.can_id,
                spec.period,
                payload_model=model,
                jitter=0.02,
                seed=seeds.seed(f"sender-{spec.can_id:x}"),
            )
        )
    return bus


class TestVehicleBus:
    @pytest.mark.parametrize("profile", VEHICLE_PROFILES)
    @pytest.mark.parametrize("vehicle_seed", [0, 1, 2027, 123456789])
    def test_batched_generators_emit_what_int_seeds_emit(self, profile, vehicle_seed):
        batched = build_vehicle_bus(vehicle_seed=vehicle_seed, profile=profile)
        alone = _vehicle_bus_sender_by_sender(vehicle_seed, profile)
        # A second call on the same senders carries on every stream.
        for until in (0.4, 1.3):
            a = build_schedule(batched.sources, until)
            b = build_schedule(alone.sources, until)
            assert len(a) > 0
            for column in ("release_times", "can_ids", "dlcs", "payloads", "labels", "sources"):
                assert getattr(a, column).tobytes() == getattr(b, column).tobytes(), column
            assert a.source_names == b.source_names


class TestBitFeatureEncoder:
    def test_num_features(self):
        assert BitFeatureEncoder().num_features == 79

    def test_encoding_is_binary_and_invertible(self):
        record = CANLogRecord(0.0, 0x316, 8, bytes(range(8)), "R")
        vec = BitFeatureEncoder().encode_frame(record)
        assert set(np.unique(vec)) <= {0.0, 1.0}
        assert bits_to_int(vec[:11].astype(int)) == 0x316
        assert bits_to_int(vec[11:15].astype(int)) == 8

    def test_short_payload_zero_padded(self):
        record = CANLogRecord(0.0, 0x1, 2, b"\xff\xff", "R")
        vec = BitFeatureEncoder().encode_frame(record)
        assert vec[15:31].sum() == 16  # two 0xff bytes
        assert vec[31:].sum() == 0

    def test_bits_are_bool_and_training_features_float(self, dos_capture):
        """Both paths hand the engine bits; ``encode`` stays float64."""
        encoder = BitFeatureEncoder()
        records = dos_capture.records[:50]
        assert encoder.encode_frame(records[0]).dtype == np.bool_
        assert encoder.encode_batch(CaptureArray.from_records(records)).dtype == np.bool_
        assert encoder.encode_batch(CaptureArray.from_records([])).dtype == np.bool_
        X, _ = encoder.encode(records)
        assert X.dtype == np.float64
        np.testing.assert_array_equal(X, encoder.encode_batch(CaptureArray.from_records(records)))

    @pytest.mark.parametrize(
        "can_id, dlc, match",
        [(-1, 0, "-0x1"), (0x800, 0, "0x800"), (0x100, -3, "-3")],
        ids=["id-minus-1", "id-0x800", "dlc-minus-3"],
    )
    def test_both_paths_reject_the_same_bad_frames(self, can_id, dlc, match):
        """Ids outside 0-0x7FF and negative DLCs raise DatasetError naming
        the value, on the batch kernel and (where a record can carry the
        value) the per-frame reference."""
        encoder = BitFeatureEncoder()
        capture = CaptureArray(
            timestamps=np.zeros(2),
            can_ids=np.array([0x7FF, can_id], dtype=np.int64),
            dlcs=np.array([0, dlc], dtype=np.int64),
            payloads=np.zeros((2, 8), dtype=np.uint8),
            labels=np.zeros(2, dtype=np.int64),
        )
        with pytest.raises(DatasetError, match=match):
            encoder.encode_batch(capture)
        if dlc >= 0:  # a record's DLC is its payload length, never negative
            with pytest.raises(DatasetError, match=match):
                encoder.encode_frame(CANLogRecord(0.0, can_id, dlc, bytes(dlc), "R"))

    def test_labels(self, dos_capture):
        X, y = BitFeatureEncoder().encode(dos_capture.records[:500])
        assert X.shape == (500, 79)
        flags = [1 if r.is_attack else 0 for r in dos_capture.records[:500]]
        np.testing.assert_array_equal(y, flags)

    def test_empty_capture_encodes_to_empty(self):
        # Empty captures (e.g. a fully-dropped flood window) encode to
        # correctly-shaped empty arrays on every encoder path.
        for encoder in (
            BitFeatureEncoder(),
            ByteFeatureEncoder(),
            WindowFeatureEncoder(ByteFeatureEncoder(), window=4),
        ):
            X, y = encoder.encode([])
            assert X.shape == (0, encoder.num_features)
            assert X.dtype == np.float64
            assert y.shape == (0,)
            assert y.dtype == np.int64

    def test_empty_capture_base_fallback_and_sequences(self):
        class ScalarOnly(BitFeatureEncoder):
            def encode_batch(self, capture):
                return FeatureEncoder.encode_batch(self, capture)

        X, _ = ScalarOnly().encode([])
        assert X.shape == (0, 79)
        enc = WindowFeatureEncoder(ByteFeatureEncoder(), window=4)
        seq, labels = enc.encode_sequences([])
        assert seq.shape == (0, 4, 11)
        assert labels.shape == (0,)


class TestByteFeatureEncoder:
    def test_range_and_shape(self, dos_capture):
        X, _ = ByteFeatureEncoder().encode(dos_capture.records[:200])
        assert X.shape == (200, 10)
        assert X.min() >= 0.0 and X.max() <= 1.0

    def test_id_normalisation(self):
        record = CANLogRecord(0.0, 0x7FF, 0, b"", "R")
        vec = ByteFeatureEncoder().encode_frame(record)
        assert vec[0] == 1.0


class TestWindowFeatureEncoder:
    def test_window_shapes(self, dos_capture):
        enc = WindowFeatureEncoder(ByteFeatureEncoder(), window=4)
        X, y = enc.encode(dos_capture.records[:100])
        assert X.shape == (100, 4 * 11)  # 10 features + interarrival

    def test_sequences_shape(self, dos_capture):
        enc = WindowFeatureEncoder(ByteFeatureEncoder(), window=4)
        X, y = enc.encode_sequences(dos_capture.records[:50])
        assert X.shape == (50, 4, 11)

    def test_newest_frame_in_last_slot(self, dos_capture):
        records = dos_capture.records[:20]
        enc = WindowFeatureEncoder(ByteFeatureEncoder(), window=3, include_interarrival=False)
        X, _ = enc.encode(records)
        current = ByteFeatureEncoder().encode_frame(records[10])
        np.testing.assert_allclose(X[10, -10:], current)

    def test_left_padding_zeroes(self, dos_capture):
        enc = WindowFeatureEncoder(ByteFeatureEncoder(), window=4, include_interarrival=False)
        X, _ = enc.encode(dos_capture.records[:10])
        assert X[0, : 3 * 10].sum() == 0  # first frame: no history

    def test_single_frame_encode_rejected(self, dos_capture):
        with pytest.raises(DatasetError):
            WindowFeatureEncoder().encode_frame(dos_capture.records[0])

    def test_bad_window(self):
        with pytest.raises(DatasetError):
            WindowFeatureEncoder(window=0)


class TestSplits:
    def test_partition_complete(self, rng):
        X = rng.normal(size=(100, 3))
        y = (rng.random(100) < 0.3).astype(int)
        splits = train_val_test_split(X, y, seed=1)
        assert sum(splits.sizes) == 100

    def test_stratification_preserves_ratio(self, rng):
        X = rng.normal(size=(1000, 2))
        y = (rng.random(1000) < 0.2).astype(int)
        splits = train_val_test_split(X, y, seed=1)
        overall = y.mean()
        for part in (splits.y_train, splits.y_val, splits.y_test):
            assert abs(part.mean() - overall) < 0.05

    def test_deterministic(self, rng):
        X = rng.normal(size=(50, 2))
        y = (rng.random(50) < 0.5).astype(int)
        a = train_val_test_split(X, y, seed=3)
        b = train_val_test_split(X, y, seed=3)
        np.testing.assert_array_equal(a.x_train, b.x_train)

    def test_no_leakage_between_splits(self, rng):
        X = np.arange(60, dtype=float).reshape(60, 1)
        y = np.tile([0, 1], 30)
        splits = train_val_test_split(X, y, seed=2)
        all_rows = np.concatenate([splits.x_train, splits.x_val, splits.x_test]).reshape(-1)
        assert sorted(all_rows.tolist()) == list(range(60))

    def test_fraction_validation(self, rng):
        with pytest.raises(DatasetError):
            train_val_test_split(np.zeros((10, 1)), np.zeros(10), fractions=(0.5, 0.5, 0.5))

    def test_length_mismatch(self):
        with pytest.raises(DatasetError):
            train_val_test_split(np.zeros((10, 1)), np.zeros(9))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_unstratified_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        X = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, size=n)
        splits = train_val_test_split(X, y, seed=seed, stratify=False)
        assert sum(splits.sizes) == n


class TestStats:
    def test_summary_fields(self, dos_capture):
        summary = capture_summary(dos_capture.records)
        assert summary["total_frames"] == len(dos_capture)
        assert summary["attack_frames"] == dos_capture.num_attack
        assert 0 < summary["attack_fraction"] < 1
        assert summary["mean_rate_fps"] > 500

    def test_inventory_periods(self, normal_capture):
        inventory = id_inventory(normal_capture.records)
        spec_periods = {s.can_id: s.period for s in default_vehicle()}
        for can_id, info in inventory.items():
            if info["count"] > 20:
                assert info["mean_period"] == pytest.approx(spec_periods[can_id], rel=0.2)

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            capture_summary([])
