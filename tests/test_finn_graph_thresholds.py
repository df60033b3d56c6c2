"""Tests for the dataflow IR and the exact threshold conversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CompileError
from repro.finn.graph import (
    ArgMaxNode,
    DataflowGraph,
    IntType,
    MatMulIntNode,
    MultiThresholdNode,
    PadNode,
    QuantActNode,
    ScaleBiasNode,
    TensorInfo,
)
from repro.finn.thresholds import activation_int, compute_thresholds


class TestIntType:
    def test_unsigned_bounds(self):
        t = IntType(4, signed=False)
        assert (t.min, t.max) == (0, 15)

    def test_signed_bounds(self):
        t = IntType(4, signed=True)
        assert (t.min, t.max) == (-8, 7)

    @pytest.mark.parametrize(
        "low,high,bits,signed",
        [(0, 15, 4, False), (0, 16, 5, False), (-3, 7, 4, True), (-8, 7, 4, True), (0, 0, 1, False)],
    )
    def test_for_range(self, low, high, bits, signed):
        t = IntType.for_range(low, high)
        assert (t.bits, t.signed) == (bits, signed)
        assert t.min <= low and t.max >= high

    def test_contains(self):
        assert IntType(4, False).contains(np.array([0, 15]))
        assert not IntType(4, False).contains(np.array([16]))

    def test_empty_range_rejected(self):
        with pytest.raises(CompileError):
            IntType.for_range(5, 4)


class TestMatMulNode:
    def test_accumulator_range_exact(self):
        weights = np.array([[2, -3], [1, 1]])
        node = MatMulIntNode("mm", weights, 1.0, 4)
        acc_min, acc_max = node.accumulator_range(IntType(2, signed=False))  # x in [0, 3]
        np.testing.assert_array_equal(acc_max, [2 * 3, 2 * 3])
        np.testing.assert_array_equal(acc_min, [-3 * 3, 0])

    def test_accumulator_dtype_covers_extremes(self, rng):
        weights = rng.integers(-7, 8, size=(5, 9))
        node = MatMulIntNode("mm", weights, 1.0, 4)
        dtype = node.accumulator_dtype(IntType(8, signed=False))
        x_extreme = np.full((1, 9), 255.0)
        assert dtype.contains(node.execute(x_extreme).astype(np.int64))

    def test_execute(self):
        node = MatMulIntNode("mm", np.array([[1, 2]]), 1.0, 4)
        out = node.execute(np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[11.0]])


class TestMultiThresholdNode:
    def test_staircase_execution(self):
        thresholds = np.array([[1, 5, 9]])
        node = MultiThresholdNode("t", thresholds, bits=2)
        out = node.execute(np.array([[0.0], [1.0], [5.0], [100.0]]))
        np.testing.assert_array_equal(out.reshape(-1), [0, 1, 2, 3])

    def test_monotone_thresholds_required(self):
        with pytest.raises(CompileError):
            MultiThresholdNode("t", np.array([[3, 1, 2]]), bits=2)

    def test_step_count_must_match_bits(self):
        with pytest.raises(CompileError):
            MultiThresholdNode("t", np.array([[1, 2]]), bits=2)


class TestGraphMechanics:
    def test_edge_infos_chain(self):
        graph = DataflowGraph(TensorInfo(4, IntType(8, False)))
        graph.append(MatMulIntNode("mm", np.ones((3, 4), dtype=int), 1.0, 4))
        graph.append(ScaleBiasNode("sb", np.ones(3), np.zeros(3)))
        graph.append(ArgMaxNode())
        infos = graph.edge_infos()
        assert infos[1].features == 3
        assert infos[2].dtype is None  # float logits
        assert infos[3].features == 1

    def test_pad_node(self):
        node = PadNode("pad", 8)
        out = node.execute(np.ones((2, 5)))
        assert out.shape == (2, 8)
        assert out[:, 5:].sum() == 0

    def test_pad_cannot_shrink(self):
        with pytest.raises(CompileError):
            PadNode("pad", 3).output_info(TensorInfo(5, IntType(8, False)))

    def test_execute_validates_width(self):
        graph = DataflowGraph(TensorInfo(4, IntType(8, False)))
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            graph.execute(np.ones((1, 5)))

    def test_summary_mentions_nodes(self):
        graph = DataflowGraph(TensorInfo(2, IntType(8, False)), name="g")
        graph.append(MatMulIntNode("mm", np.ones((2, 2), dtype=int), 1.0, 4))
        assert "MatMulIntNode" in graph.summary()


class TestThresholdConversion:
    def _check_equivalence(self, acc_scale, bias, act_scale, act_bits, acc_lo=-3000, acc_hi=3000):
        """Thresholds must reproduce activation_int on every integer acc."""
        thresholds = compute_thresholds(
            acc_scale=np.array([acc_scale]),
            bias=np.array([bias]),
            act_scale=act_scale,
            act_bits=act_bits,
        )
        accs = np.arange(acc_lo, acc_hi)
        via_thresholds = (accs[:, None] >= thresholds[0][None, :]).sum(axis=1)
        levels = 2**act_bits - 1
        direct = activation_int(accs, acc_scale, bias, act_scale, levels)
        np.testing.assert_array_equal(via_thresholds, direct)

    def test_basic_case(self):
        self._check_equivalence(0.25, 0.1, 0.5, 4)

    def test_negative_bias(self):
        self._check_equivalence(0.125, -3.7, 0.25, 4)

    def test_exact_boundary_half_steps(self):
        # act_scale 1, scale 1, bias 0: thresholds at ceil(t - 0.5) = t.
        thresholds = compute_thresholds(np.array([1.0]), np.array([0.0]), 1.0, 2)
        np.testing.assert_array_equal(thresholds[0], [1, 2, 3])

    def test_per_channel_scales(self):
        thresholds = compute_thresholds(
            acc_scale=np.array([0.5, 0.25]),
            bias=np.array([0.0, 1.0]),
            act_scale=0.5,
            act_bits=2,
        )
        assert thresholds.shape == (2, 3)
        for channel, (s, b) in enumerate([(0.5, 0.0), (0.25, 1.0)]):
            accs = np.arange(-100, 100)
            via = (accs[:, None] >= thresholds[channel][None, :]).sum(axis=1)
            np.testing.assert_array_equal(via, activation_int(accs, s, b, 0.5, 3))

    def test_invalid_scales_rejected(self):
        with pytest.raises(CompileError):
            compute_thresholds(np.array([-1.0]), np.array([0.0]), 1.0, 2)
        with pytest.raises(CompileError):
            compute_thresholds(np.array([1.0]), np.array([0.0]), 0.0, 2)

    @pytest.mark.parametrize(
        "acc_scale, bias, act_scale, act_bits, named",
        [
            pytest.param([np.nan], [0.0], 1.0, 2, r"acc_scale\[0\]=nan", id="nan-acc-scale"),
            pytest.param([1.0], [np.nan], 1.0, 2, r"bias\[0\]=nan", id="nan-bias"),
            pytest.param([1.0], [0.0], np.nan, 2, r"act_scale .*nan", id="nan-act-scale"),
            pytest.param([1.0], [0.0, -np.inf], 1.0, 2, r"bias\[1\]=-inf", id="inf-bias"),
            pytest.param([1.0], [0.0], np.inf, 2, r"act_scale .*inf", id="inf-act-scale"),
            pytest.param([np.inf], [0.0], 1.0, 2, r"acc_scale\[0\]=inf", id="inf-acc-scale"),
            pytest.param(
                [5e-324], [0.0], 1.0, 2, r"candidate inf does not fit int64.*5e-324",
                id="denormal-acc-scale",
            ),
            pytest.param(
                [1.0], [1e300], 1e-300, 2, r"candidate -1e\+300 does not fit int64",
                id="candidate-beyond-int64",
            ),
            pytest.param([1.0], [0.0], 1.0, 0, r"act_bits .*got 0", id="zero-bits"),
            pytest.param([1.0], [0.0], 1.0, -1, r"act_bits .*got -1", id="negative-bits"),
            pytest.param(
                [1.0, 1.0, 1.0], [0.0, 0.0], 1.0, 2, r"3 entries for 2 channels",
                id="scale-length-mismatch",
            ),
        ],
    )
    def test_unconvertible_inputs_raise_compile_error(
        self, acc_scale, bias, act_scale, act_bits, named
    ):
        with pytest.raises(CompileError, match=named):
            compute_thresholds(np.array(acc_scale), np.array(bias), act_scale, act_bits)

    @given(
        scale_exp=st.integers(min_value=-8, max_value=2),
        act_exp=st.integers(min_value=-8, max_value=2),
        bias=st.floats(min_value=-20, max_value=20, allow_nan=False),
        bits=st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_exact_staircase(self, scale_exp, act_exp, bias, bits):
        """For any po2 scales and float bias, thresholds are bit-exact."""
        self._check_equivalence(2.0**scale_exp, bias, 2.0**act_exp, bits, -500, 500)

    @given(
        acc_scale=st.floats(min_value=1e-4, max_value=4.0, allow_nan=False),
        act_scale=st.floats(min_value=1e-4, max_value=4.0, allow_nan=False),
        bias=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_float_scales_also_exact(self, acc_scale, act_scale, bias):
        """The fix-up loop guarantees exactness even for arbitrary scales."""
        self._check_equivalence(acc_scale, bias, act_scale, 3, -400, 400)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_multi_channel_layers_exact(self, data):
        """Every row of a 1-64 channel, 1-8 bit layer is an exact staircase."""
        channels = data.draw(st.integers(min_value=1, max_value=64), label="channels")
        act_bits = data.draw(st.integers(min_value=1, max_value=8), label="act_bits")
        if data.draw(st.booleans(), label="po2"):
            act_scale = 2.0 ** data.draw(st.integers(min_value=-8, max_value=2))
            ratio = st.integers(min_value=-6, max_value=1).map(lambda e: 2.0**e)
        else:
            act_scale = data.draw(st.floats(min_value=1e-3, max_value=4.0))
            ratio = st.floats(min_value=1 / 64, max_value=2.0)
        per_channel = data.draw(st.booleans(), label="per_channel")
        ratios = data.draw(
            st.lists(ratio, min_size=channels, max_size=channels) if per_channel else ratio
        )
        acc_scale = act_scale * np.asarray(ratios, dtype=np.float64)
        # Biases on exact half-steps of act_scale (po2: exact in float64).
        halves = data.draw(
            st.lists(
                st.integers(min_value=-300, max_value=300), min_size=channels, max_size=channels
            )
        )
        bias = act_scale * (np.asarray(halves, dtype=np.float64) / 2)

        thresholds = compute_thresholds(acc_scale, bias, act_scale, act_bits)
        assert thresholds.shape == (channels, 2**act_bits - 1)
        scales = np.broadcast_to(acc_scale, (channels,))
        for channel, row in enumerate(thresholds):
            accs = np.arange(row[0] - 3, row[-1] + 3)
            via = np.searchsorted(row, accs, side="right")
            direct = activation_int(
                accs, scales[channel], bias[channel], act_scale, 2**act_bits - 1
            )
            np.testing.assert_array_equal(via, direct)
