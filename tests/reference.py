"""A textbook reference for the training math the tests check fedssl's
planned pass against.

A ReLU MLP's forward and backward pass and the softmax cross-entropy, for
one model and one batch, written out as in a textbook: every operation
makes a fresh array, nothing is planned, stacked or reused. On top of it,
plain per-batch SGD over a labeled pool. It shares no code with the pass
under test: it calls no fedssl function that computes a forward pass, a
loss, a gradient or a step, and reads only the parameter layout, from
ModelSpec.layer_dims.

The operation order may differ from the planned pass's, so the tests hold
the two to TOLERANCE, not to bitwise equality.
"""

from __future__ import annotations

import numpy as np

from fedssl.nn import ModelSpec

# per entry, as numpy.testing.assert_allclose takes it: |actual - reference|
# <= atol + rtol * |reference|; a float64 gradient of order 1 that agrees to
# 1e-12 differs by a few thousand ulps at most
TOLERANCE = {"rtol": 1e-12, "atol": 1e-12}


def unflatten(values: np.ndarray, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W [fan_in, fan_out], b [fan_out]) per layer, input to logits, from
    the flat layout: per layer, W in row-major order, then b.
    """
    layers, offset = [], 0
    for fan_in, fan_out in spec.layer_dims:
        w = values[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, values[offset:offset + fan_out]))
        offset += fan_out
    assert offset == values.size, "parameter vector does not match the layout"
    return layers


def forward(values: np.ndarray, spec: ModelSpec, inputs: np.ndarray) -> list[np.ndarray]:
    """Every layer's input, then the logits: [x, relu(z1), ..., z_L]."""
    layers = unflatten(values, spec)
    acts = [inputs]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        acts.append(z if i == len(layers) - 1 else np.maximum(z, 0.0))
    return acts


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grad(values: np.ndarray, spec: ModelSpec, inputs: np.ndarray,
                  targets: np.ndarray, weights: np.ndarray
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """The masked mean cross-entropy (1/B) sum_i w_i * CE_i of one model
    [P] on a batch [B, d], its gradient [P] and the softmax probabilities
    [B, C].
    """
    acts = forward(values, spec, inputs)
    log_probs = log_softmax(acts[-1])
    rows = np.arange(inputs.shape[0])
    loss = np.sum(weights * -log_probs[rows, targets]) / inputs.shape[0]
    probs = np.exp(log_probs)
    one_hot = np.zeros_like(probs)
    one_hot[rows, targets] = 1.0
    # d loss / d logits, then back through each affine layer and ReLU
    upstream = (probs - one_hot) * (weights / inputs.shape[0])[:, None]
    layers = unflatten(values, spec)
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        grads.append(np.concatenate([(acts[i].T @ upstream).ravel(), upstream.sum(axis=0)]))
        if i > 0:
            upstream = (upstream @ layers[i][0].T) * (acts[i] > 0.0)
    return float(loss), np.concatenate(grads[::-1]), probs


def sgd_epochs(values: np.ndarray, spec: ModelSpec, inputs: np.ndarray, labels: np.ndarray,
               epochs: int, batch_size: int, learning_rate: float, seed: int) -> np.ndarray:
    """Plain per-batch SGD on the mean cross-entropy of a labeled pool:
    each epoch visits the pool in the order of one
    default_rng(seed).permutation, in consecutive batches of batch_size.
    """
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(labels.size)
        for start in range(0, labels.size, batch_size):
            idx = order[start:start + batch_size]
            _, grad, _ = loss_and_grad(values, spec, inputs[idx], labels[idx], np.ones(idx.size))
            values = values - learning_rate * grad
    return values
