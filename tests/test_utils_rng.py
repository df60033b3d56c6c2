"""Tests for deterministic seed derivation and batched generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.utils.rng import (
    SeedSequence,
    _SeedWords,
    _seed_words,
    derive_seed,
    new_rng,
    new_rngs,
)

#: Word-count and word-boundary seeds of the [0, 2**64) entropy range.
_EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
_SEEDS = st.integers(0, 2**64 - 1)


def _numpy_words(seed):
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


def _assert_same_generators(batched, alone):
    assert len(batched) == len(alone)
    for a, b in zip(batched, alone):
        assert a.bit_generator.state == b.bit_generator.state
        assert np.array_equal(a.random(3), b.random(3))
        assert np.array_equal(a.integers(0, 2**63, size=3), b.integers(0, 2**63, size=3))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_name_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_non_negative_63_bit(self):
        seed = derive_seed(123456789, "component")
        assert 0 <= seed < 2**63

    def test_rejects_non_int(self):
        with pytest.raises(ConfigError):
            derive_seed("not-an-int", "x")  # type: ignore[arg-type]

    def test_rejects_bool(self):
        # A bool is an int to Python; taken silently it would read as 1.
        with pytest.raises(ConfigError, match="got True"):
            derive_seed(True, "x")


class TestNewRng:
    def test_same_stream_same_seed(self):
        a = new_rng(7, "data").random(5)
        b = new_rng(7, "data").random(5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        a = new_rng(7, "data").random(5)
        b = new_rng(7, "weights").random(5)
        assert not np.array_equal(a, b)

    def test_plain_seed_without_name(self):
        a = new_rng(7).random(3)
        b = np.random.default_rng(7).random(3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, named",
        [(True, "got True"), (-1, "got -1"), (2**64, f"got {2**64}"), (1.5, "got 1.5"), ("7", "got '7'")],
    )
    def test_unnamed_seed_outside_the_entropy_range_is_refused(self, seed, named):
        # numpy would take True as 1 and raise its own ValueError for -1.
        with pytest.raises(ConfigError, match=named):
            new_rng(seed)


class TestSeedSequence:
    def test_scoped_streams_differ_from_root(self):
        seeds = SeedSequence(7)
        child = seeds.child("experiment")
        assert seeds.seed("data") != child.seed("data")

    def test_rng_reproducible(self):
        s1 = SeedSequence(9).rng("a").random(4)
        s2 = SeedSequence(9).rng("a").random(4)
        assert np.array_equal(s1, s2)

    def test_nested_children(self):
        root = SeedSequence(1)
        deep = root.child("x").child("y")
        assert deep.seed("z") == SeedSequence(1).child("x").child("y").seed("z")

    @pytest.mark.parametrize(
        "seed, named", [(1.5, "got 1.5"), (True, "got True"), ("7", "got '7'")]
    )
    def test_rejects_a_master_seed_that_is_not_an_int(self, seed, named):
        # int() would read these as seeds 1, 1 and 7.
        with pytest.raises(ConfigError, match=named):
            SeedSequence(seed)

    def test_takes_numpy_ints(self):
        assert SeedSequence(np.int64(9)).seed("a") == SeedSequence(9).seed("a")

    def test_vehicle_bus_rejects_a_float_seed(self):
        from repro.datasets.carhacking import build_vehicle_bus

        with pytest.raises(ConfigError, match="got 1.9"):
            build_vehicle_bus(vehicle_seed=1.9)


class TestSeedWords:
    def test_edge_seeds_match_numpy(self):
        words = _seed_words(np.array(_EDGE_SEEDS, dtype=np.uint64))
        for row, seed in zip(words, _EDGE_SEEDS):
            assert np.array_equal(row, _numpy_words(seed)), seed

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SEEDS, min_size=1, max_size=16))
    def test_matches_numpy_seed_sequence(self, seeds):
        words = _seed_words(np.array(seeds, dtype=np.uint64))
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        for row, seed in zip(words, seeds):
            assert np.array_equal(row, _numpy_words(seed)), seed

    @pytest.mark.parametrize(
        "n_words, dtype",
        [(4, np.uint32), (8, np.uint64), (2, np.uint64), (4, np.int64), (8, np.uint32)],
    )
    def test_refuses_any_other_request(self, n_words, dtype):
        with pytest.raises(ConfigError, match="generate_state"):
            _SeedWords(np.zeros(4, dtype=np.uint64)).generate_state(n_words, dtype)

    @pytest.mark.parametrize("dtype", [np.uint64, "uint64", np.dtype(np.uint64)])
    def test_serves_the_pcg64_request(self, dtype):
        words = _seed_words(np.array([5], dtype=np.uint64))[0]
        assert _SeedWords(words).generate_state(4, dtype) is words


class TestNewRngs:
    @pytest.mark.parametrize(
        "pairs",
        [
            [],
            [(7, "data")],
            [
                (seed, name)
                for seed in (0, 1, 2**31, 2**40, 2**63 - 1)
                for name in ("a", "sender-790-0.01", "sensor-init", None)
            ]
            + [(seed, None) for seed in _EDGE_SEEDS],
        ],
        ids=["empty", "one", "many"],
    )
    def test_matches_new_rng(self, pairs):
        _assert_same_generators(new_rngs(pairs), [new_rng(s, n) for s, n in pairs])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(_SEEDS, st.one_of(st.none(), st.text(max_size=12))), max_size=12))
    def test_matches_new_rng_on_any_pairs(self, pairs):
        _assert_same_generators(new_rngs(pairs), [new_rng(s, n) for s, n in pairs])

    @pytest.mark.parametrize(
        "pair, named",
        [
            ((-1, None), "got -1"),
            ((2**64, None), f"got {2**64}"),
            ((True, None), "got True"),
            ((True, "x"), "got True"),
            ((1.5, None), "got 1.5"),
        ],
    )
    def test_rejects_seeds_outside_the_port(self, pair, named):
        with pytest.raises(ConfigError, match=named):
            new_rngs([(0, "fine"), pair])
