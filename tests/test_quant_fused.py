"""The fused QMLP nodes against the composed STE chain, byte for byte.

``QuantLinear``, ``QuantReLU``, ``QuantIdentity`` and ``cross_entropy``
each record one autograd node.  The composed chain they replace (the
quantisers' Tensor ``quantize`` methods, ``x @ W.T + b`` and the loss
built on ``log_softmax``) is the reference here: forward data, every
gradient and the observer state must match it to the byte, signed
zeros included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import functional as F
from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor, no_grad
from repro.models.qmlp import QMLPConfig, build_qmlp
from repro.quant import QuantIdentity, QuantLinear, QuantReLU


def composed(layer, x):
    """``layer``'s forward as the composed chain of generic Tensor ops."""
    if isinstance(layer, QuantLinear):
        weight_q, _ = layer.weight_quant.quantize(layer.weight)
        out = x @ weight_q.T
        return out if layer.bias is None else out + layer.bias
    if isinstance(layer, QuantReLU):
        x = x.relu()
    return layer.quantizer.quantize(x, training=layer.training)


def composed_model(model, x):
    for layer in model:
        x = composed(layer, x)
    return x


def composed_cross_entropy(logits, labels, class_weights=None):
    classes = np.asarray(labels).astype(np.int64)
    picked = F.log_softmax(logits, axis=-1)[(np.arange(len(classes)), classes)]
    if class_weights is None:
        return -picked.mean()
    weights = np.asarray(class_weights, dtype=np.float64)[classes]
    return -(picked * Tensor(weights)).sum() * (1.0 / float(weights.sum()))


def fused(layer, x):
    return layer(x)


def assert_same(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


def graph_size(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def make_layer(kind, bits, fan_in, fan_out, bias, seed):
    if kind == "linear":
        return QuantLinear(fan_in, fan_out, weight_bit_width=bits, bias=bias, seed=seed)
    return QuantReLU(bits) if kind == "relu" else QuantIdentity(bits)


def run(layer, forward, x, grad, input_grad):
    """One forward (and backward, when the output needs one) of ``layer``."""
    xt = Tensor(x, requires_grad=input_grad)
    out = forward(layer, xt)
    if out.requires_grad:
        out.backward(grad)
    return out, xt


def layer_state(layer):
    grads = [p.grad for p in layer.parameters()]
    return grads, layer.extra_state()


@given(
    kind=st.sampled_from(["linear", "relu", "identity"]),
    bits=st.integers(1, 8),
    fan_in=st.integers(1, 64),
    fan_out=st.integers(1, 64),
    batch=st.sampled_from([2, 3, 256]),
    bias=st.booleans(),
    input_grad=st.booleans(),
    zeros=st.booleans(),
    # Subnormal upstream gradients lose bits in ``g * s`` for a scale below
    # one, so only the chain's own ``g * s * (1/s)`` reproduces them.
    grad_scale=st.sampled_from([1.0, 1e-310]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_layer_matches_composed_chain(
    kind, bits, fan_in, fan_out, batch, bias, input_grad, zeros, grad_scale, seed
):
    rng = np.random.default_rng(seed)
    pair = [make_layer(kind, bits, fan_in, fan_out, bias, seed) for _ in range(2)]
    out_width = fan_out if kind == "linear" else fan_in
    # Two training batches (the first sets the observer, the second moves
    # its average and accumulates onto the first gradients), then eval.
    for _ in range(2):
        if zeros:
            x = np.zeros((batch, fan_in))
        else:
            x = rng.normal(scale=rng.uniform(0.01, 10.0), size=(batch, fan_in))
        grad = rng.normal(scale=grad_scale, size=(batch, out_width))
        (out, xt), (ref, ref_x) = (
            run(layer, forward, x, grad, input_grad)
            for layer, forward in zip(pair, (fused, composed))
        )
        assert_same(out.data, ref.data)
        if input_grad:
            assert_same(xt.grad, ref_x.grad)
        else:
            assert xt.grad is None and (kind == "linear" or out._parents == ())
        (grads, state), (ref_grads, ref_state) = (layer_state(layer) for layer in pair)
        for got, want in zip(grads, ref_grads, strict=True):
            assert_same(got, want)
        assert state.keys() == ref_state.keys()
        for key in state:
            assert_same(state[key], ref_state[key])
    for layer in pair:
        layer.eval()
    with no_grad():
        out, ref = (forward(layer, Tensor(x)) for layer, forward in zip(pair, (fused, composed)))
    assert not out.requires_grad and out._parents == ()
    assert_same(out.data, ref.data)


@given(
    batch=st.sampled_from([2, 3, 256]),
    classes=st.integers(2, 5),
    magnitude=st.sampled_from([1.0, 30.0, 1e4, 1e150]),
    weighted=st.booleans(),
    seed_grad=st.sampled_from([None, 2.5, -0.75]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_cross_entropy_matches_composed_loss(batch, classes, magnitude, weighted, seed_grad, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=magnitude, size=(batch, classes))
    labels = rng.integers(0, classes, size=batch)
    weights = rng.uniform(0.1, 5.0, size=classes) if weighted else None
    results = []
    for loss_fn in (F.cross_entropy, composed_cross_entropy):
        tensor = Tensor(logits, requires_grad=True)
        loss = loss_fn(tensor, labels, weights)
        loss.backward(None if seed_grad is None else np.array(seed_grad))
        results.append((loss.data, tensor.grad))
    (loss, grad), (ref_loss, ref_grad) = results
    assert_same(loss, ref_loss)
    assert_same(grad, ref_grad)


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_adam_steps_match_composed_model(bits):
    """50 steps of the deployed 79-64-64-32-2 through both paths."""
    config = QMLPConfig(weight_bits=bits, act_bits=bits)
    model, ref = build_qmlp(config), build_qmlp(config)
    optimizer, ref_optimizer = Adam(model.parameters(), lr=1e-2), Adam(ref.parameters(), lr=1e-2)
    class_weights = np.array([0.6, 2.5])
    rng = np.random.default_rng(bits)
    for _ in range(50):
        x = rng.random((256, 79)) < 0.3
        y = (rng.random(256) < 0.25).astype(np.int64)
        optimizer.zero_grad()
        F.cross_entropy(model(Tensor(x)), y, class_weights).backward()
        optimizer.step()
        ref_optimizer.zero_grad()
        composed_cross_entropy(composed_model(ref, Tensor(x)), y, class_weights).backward()
        ref_optimizer.step()
        state, ref_state = model.state_dict(), ref.state_dict()
        assert state.keys() == ref_state.keys()
        for key in state:
            assert_same(state[key], ref_state[key])


def test_qmlp_step_records_one_node_per_layer():
    """8 parameters, the input quantiser, 4 linear and 3 ReLU nodes, the loss."""
    model = build_qmlp()
    x = np.random.default_rng(0).random((8, 79)) < 0.5
    loss = F.cross_entropy(model(Tensor(x)), np.array([0, 1] * 4), np.array([1.0, 3.0]))
    assert graph_size(loss) == 17
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())


def test_uncalibrated_module_in_eval_quantises_with_scale_one():
    # The frozen observer sees nothing, so the range stays 0 and the scale 1.0.
    act = QuantReLU(4).eval()
    out = act(Tensor([0.3, 2.0, 7.5]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0, 8.0])
    assert act.quantizer.observer.num_batches == 0 and act.scale == 1.0
