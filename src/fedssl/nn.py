"""Minimal MLP substrate: flat parameter vectors, forward pass, analytic
cross-entropy gradients, heavy-ball SGD, and a finite-difference oracle.

All math is float64. Parameters live in a single flat vector (the unit of
transport and aggregation); the layout is, per layer, the weight matrix in
row-major order followed by the bias vector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the MLP: input_dim -> hidden_dims -> num_classes logits."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    activation: str = "relu"
    # the parameter layout, derived once here because every forward and
    # gradient reads it: (fan_in, fan_out) per affine layer, input to logits
    layer_dims: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    num_params: int = field(init=False, repr=False, compare=False)
    # per layer: (weight start, bias start, bias end, fan_in, fan_out)
    _layout: tuple[tuple[int, int, int, int, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must all be >= 1, got {self.hidden_dims}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        dims = [self.input_dim, *self.hidden_dims, self.num_classes]
        layer_dims = tuple(zip(dims[:-1], dims[1:]))
        layout = []
        offset = 0
        for d_in, d_out in layer_dims:
            bias = offset + d_in * d_out
            layout.append((offset, bias, bias + d_out, d_in, d_out))
            offset = bias + d_out
        object.__setattr__(self, "layer_dims", layer_dims)
        object.__setattr__(self, "num_params", offset)
        object.__setattr__(self, "_layout", tuple(layout))

    @property
    def spec_hash(self) -> str:
        tag = f"{self.input_dim}|{list(self.hidden_dims)}|{self.num_classes}|{self.activation}"
        return hashlib.sha256(tag.encode()).hexdigest()[:16]


@dataclass
class ParamVector:
    """Flat, ordered float64 vector of all trainable parameters.

    spec_hash binds the vector to the ModelSpec layout it was created for;
    operations that mix vectors check the binding.
    """

    values: np.ndarray
    spec_hash: str

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("ParamVector values must be one-dimensional")

    def __len__(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.spec_hash)

    def check_compatible(self, other: "ParamVector") -> None:
        if len(self) != len(other) or self.spec_hash != other.spec_hash:
            raise ValueError(
                f"incompatible parameter vectors: len {len(self)} vs {len(other)}, "
                f"hash {self.spec_hash} vs {other.spec_hash}"
            )


@dataclass
class Batch:
    """A batch of inputs with optional integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError(f"batch inputs must be [batch_size >= 1, dim], got {self.inputs.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.inputs.shape[0],):
                raise ValueError("labels length must equal batch size")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class OptimState:
    """Heavy-ball SGD state. velocity is updated in place by sgd_step."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")

    @classmethod
    def fresh(cls, spec: ModelSpec, learning_rate: float, momentum: float = 0.0,
              weight_decay: float = 0.0) -> "OptimState":
        return cls(learning_rate, momentum, weight_decay,
                   velocity=np.zeros(spec.num_params, dtype=np.float64))


def _unflatten(values: np.ndarray, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W, b) per layer into the flat vector."""
    if values.shape[0] != spec.num_params:
        raise ValueError(f"parameter vector length {values.shape[0]} != expected {spec.num_params}")
    return [
        (values[w0:b0].reshape(d_in, d_out), values[b0:b1])
        for w0, b0, b1, d_in, d_out in spec._layout
    ]


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """He-style fan-in initialization: W ~ N(0, 2/fan_in), biases zero.

    Deterministic for a given (spec, seed).
    """
    rng = np.random.default_rng(seed)
    values = np.zeros(spec.num_params, dtype=np.float64)
    for w, b in _unflatten(values, spec):
        d_in = w.shape[0]
        w[:] = rng.standard_normal(w.shape) * np.sqrt(2.0 / d_in)
        # b stays zero
    return ParamVector(values, spec.spec_hash)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def _forward(params: ParamVector, spec: ModelSpec, inputs: np.ndarray):
    """Run the net, returning logits plus per-layer (pre-act, post-act) caches."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != spec.input_dim:
        raise ValueError(f"inputs shape {inputs.shape} inconsistent with input_dim {spec.input_dim}")
    layers = _unflatten(params.values, spec)
    a = inputs
    caches = []
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        if i < len(layers) - 1:
            a_next = _activate(z, spec.activation)
            caches.append((a, z, a_next))
            a = a_next
        else:
            caches.append((a, z, z))
    return caches[-1][1], caches


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_probs(params: ParamVector, spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    """Per-row softmax class probabilities; rows sum to 1 within 1e-9."""
    logits, _ = _forward(params, spec, inputs)
    return _softmax(logits)


def loss_and_grad(
    params: ParamVector,
    spec: ModelSpec,
    batch: Batch,
    targets: np.ndarray,
    weights: np.ndarray,
    return_probs: bool = False,
) -> tuple[float, ParamVector] | tuple[float, ParamVector, np.ndarray]:
    """Masked mean cross-entropy with its analytic gradient.

    loss = (1/B) * sum_i weights_i * CE(x_i, targets_i). A fully masked
    batch yields loss 0 and a zero gradient. Raises FloatingPointError on
    non-finite intermediates so callers can attach round/batch context.

    Returns (loss, grad); with return_probs, (loss, grad, probs), where
    probs are the per-row softmax probabilities of this forward pass, so a
    caller that also needs the model's predictions on the batch does not
    run the net a second time.
    """
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    b = batch.size
    if targets.shape != (b,):
        raise ValueError(f"targets length {targets.shape} != batch size {b}")
    if weights.shape != (b,):
        raise ValueError(f"weights length {weights.shape} != batch size {b}")
    if np.any(targets < 0) or np.any(targets >= spec.num_classes):
        raise ValueError("targets out of class range")

    logits, caches = _forward(params, spec, batch.inputs)
    log_probs = _log_softmax(logits)
    ce = -log_probs[np.arange(b), targets]
    loss = float(np.dot(weights, ce) / b)

    probs = np.exp(log_probs)
    dlogits = probs.copy()
    dlogits[np.arange(b), targets] -= 1.0
    dlogits *= (weights / b)[:, None]

    layers = _unflatten(params.values, spec)
    grad_values = np.zeros_like(params.values)
    grad_layers = _unflatten(grad_values, spec)

    upstream = dlogits
    for i in range(len(layers) - 1, -1, -1):
        a_in, z, a_out = caches[i]
        w, _ = layers[i]
        gw, gb = grad_layers[i]
        gw[:] = a_in.T @ upstream
        gb[:] = upstream.sum(axis=0)
        if i > 0:
            da = upstream @ w.T
            _, z_prev, a_prev = caches[i - 1]
            upstream = da * _activate_grad(z_prev, a_prev, spec.activation)

    if not np.isfinite(loss) or not np.all(np.isfinite(grad_values)):
        raise FloatingPointError("non-finite loss or gradient")
    grad = ParamVector(grad_values, params.spec_hash)
    if return_probs:
        return loss, grad, probs
    return loss, grad


def sgd_step(params: ParamVector, grad: ParamVector, opt: OptimState) -> ParamVector:
    """Heavy-ball update: v <- m*v + g + wd*theta; theta <- theta - lr*v.

    Mutates opt.velocity in place and returns the new parameters.
    """
    params.check_compatible(grad)
    if opt.velocity.shape != params.values.shape:
        raise ValueError(
            f"velocity length {opt.velocity.shape[0]} != params length {len(params)}"
        )
    opt.velocity *= opt.momentum
    opt.velocity += grad.values
    if opt.weight_decay != 0.0:
        opt.velocity += opt.weight_decay * params.values
    return ParamVector(params.values - opt.learning_rate * opt.velocity, params.spec_hash)


def central_diff(fn: Callable[[np.ndarray], float], x: np.ndarray, step: float) -> np.ndarray:
    """Central finite difference of a scalar function, per coordinate."""
    if step <= 0:
        raise ValueError("step must be positive")
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        out[i] = (fn(xp) - fn(xm)) / (2.0 * step)
    return out


def finite_diff_grad(
    params: ParamVector,
    spec: ModelSpec,
    batch: Batch,
    targets: np.ndarray,
    weights: np.ndarray,
    step: float = 1e-5,
) -> ParamVector:
    """Gradient oracle: central differences of the masked mean CE loss."""

    def loss_at(values: np.ndarray) -> float:
        loss, _ = loss_and_grad(ParamVector(values, params.spec_hash), spec, batch, targets, weights)
        return loss

    return ParamVector(central_diff(loss_at, params.values, step), params.spec_hash)
