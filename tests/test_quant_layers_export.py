"""Tests for quant layers and the QNN exporter."""

import numpy as np
import pytest

from repro.autograd.layers import Dropout, Sequential
from repro.autograd.tensor import Tensor
from repro.errors import CompileError, ShapeError
from repro.quant import QuantIdentity, QuantLinear, QuantReLU, export_qnn


class TestQuantLinear:
    def test_forward_uses_quantised_weights(self, rng):
        layer = QuantLinear(8, 4, weight_bit_width=4, seed=1)
        x = rng.normal(size=(3, 8))
        out = layer(Tensor(x))
        ints, scale = layer.int_weight()
        np.testing.assert_allclose(out.data, x @ (ints * scale).T + layer.bias.data)

    def test_weights_trainable_through_quantisation(self, rng):
        layer = QuantLinear(4, 2, weight_bit_width=4, seed=1)
        layer(Tensor(rng.normal(size=(5, 4)))).sum().backward()
        assert layer.weight.grad is not None
        assert np.abs(layer.weight.grad).sum() > 0

    def test_int_weight_range(self):
        layer = QuantLinear(16, 8, weight_bit_width=3, seed=2)
        ints, _ = layer.int_weight()
        assert ints.min() >= -3 and ints.max() <= 3

    def test_input_shape_checked(self):
        with pytest.raises(ShapeError):
            QuantLinear(4, 2)(Tensor(np.zeros((1, 5))))


class TestQuantActivations:
    def test_quant_relu_output_grid(self, rng):
        act = QuantReLU(bit_width=4)
        out = act(Tensor(rng.normal(size=200)))
        ints = out.data / act.scale
        np.testing.assert_allclose(ints, np.round(ints), atol=1e-9)
        assert ints.min() >= 0 and ints.max() <= 15

    def test_eval_freezes_observer(self, rng):
        act = QuantReLU(bit_width=4)
        act(Tensor(np.abs(rng.normal(size=50))))
        act.eval()
        scale = act.scale
        act(Tensor(np.abs(rng.normal(size=50)) * 1000))
        assert act.scale == scale

    def test_train_unfreezes(self, rng):
        act = QuantReLU(bit_width=4)
        act(Tensor(np.abs(rng.normal(size=50))))
        act.eval()
        act.train()
        scale = act.scale
        act(Tensor(np.abs(rng.normal(size=50)) * 1000))
        assert act.scale != scale

    def test_extra_state_roundtrip(self, rng):
        act = QuantReLU(bit_width=4)
        act(Tensor(np.abs(rng.normal(size=64))))
        state = act.state_dict()
        fresh = QuantReLU(bit_width=4)
        fresh.load_state_dict(state)
        assert fresh.scale == act.scale


def build_canonical(seed=0):
    return Sequential(
        QuantIdentity(bit_width=8),
        QuantLinear(12, 8, weight_bit_width=4, seed=seed),
        QuantReLU(bit_width=4),
        QuantLinear(8, 2, weight_bit_width=4, seed=seed + 1),
    )


class TestExport:
    def _calibrated(self, rng):
        model = build_canonical()
        model.train()
        model(Tensor(rng.random((64, 12))))
        return model

    def test_topology(self, rng):
        export = export_qnn(self._calibrated(rng))
        assert export.topology == [12, 8, 2]
        assert export.layers[0].activation is not None
        assert export.layers[-1].activation is None

    def test_execute_float_matches_model_eval(self, rng):
        model = self._calibrated(rng)
        export = export_qnn(model)
        x = rng.random((32, 12))
        model.eval()
        np.testing.assert_array_equal(export.execute_float(x), model(Tensor(x)).data)

    def test_dropout_skipped(self, rng):
        model = Sequential(
            QuantIdentity(bit_width=8),
            QuantLinear(6, 4, seed=1),
            QuantReLU(),
            Dropout(0.3),
            QuantLinear(4, 2, seed=2),
        )
        model(Tensor(rng.random((16, 6))))
        export = export_qnn(model)
        assert export.topology == [6, 4, 2]

    def test_missing_input_quant_rejected(self):
        model = Sequential(QuantLinear(4, 2, seed=1))
        with pytest.raises(CompileError):
            export_qnn(model)

    def test_trailing_relu_rejected(self, rng):
        model = Sequential(
            QuantIdentity(bit_width=8),
            QuantLinear(4, 2, seed=1),
            QuantReLU(),
        )
        model(Tensor(rng.random((8, 4))))
        with pytest.raises(CompileError):
            export_qnn(model)

    def test_non_quant_layer_rejected(self, rng):
        from repro.autograd.layers import Linear

        model = Sequential(QuantIdentity(bit_width=8), Linear(4, 2, seed=1))
        with pytest.raises(CompileError):
            export_qnn(model)

    def test_to_dict_serialisable(self, rng):
        import json

        export = export_qnn(self._calibrated(rng))
        assert json.dumps(export.to_dict())
