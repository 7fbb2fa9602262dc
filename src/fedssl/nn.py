"""Minimal MLP substrate: flat parameter vectors, forward pass, analytic
cross-entropy gradients, heavy-ball SGD, a single-model kernel for whole
epochs of plain SGD, and a finite-difference oracle.

All math is float64. Parameters live in a single flat vector (the unit of
transport and aggregation); the layout is, per layer, the weight matrix in
row-major order followed by the bias vector.

Clients train in lockstep, so the per-batch functions also take a stack:
parameters [K, P] and inputs [K, B, d], one slice per client. Slice k of a
stacked result is bitwise the result of the unstacked call on slice k:
stacked matmul runs the same gemm per 2-D slice, and every reduction runs
along one slice.

loss_and_grad and the epoch kernel sgd_epochs share one forward pass, one
cross-entropy head and one backward pass, which run on prebuilt (W, b)
views; the kernel builds its views once per call instead of once per batch.

Every array these passes make lives in a Workspace: named flat arenas that
grow to the largest request and are then reused, so a training loop that
passes one workspace to every call allocates its buffers once instead of
once per batch. forward_probs, loss_and_grad and sgd_step take an optional
workspace; given one, their results live in it and are overwritten by the
next call of the same function on it (sgd_step then updates parameters that
already live there in place). Called without one, each builds a throwaway
workspace, so its results own their memory and the same code runs.
"""

from __future__ import annotations

import hashlib
import math
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
    # per layer, the names of its two Workspace buffers: its output, and the
    # derivative of its activation
    _buffers: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_buffers", tuple(
            (f"layer{i}", f"layer{i}.{self.activation}") for i in range(len(layer_dims))))

    @property
    def spec_hash(self) -> str:
        tag = f"{self.input_dim}|{list(self.hidden_dims)}|{self.num_classes}|{self.activation}"
        return hashlib.sha256(tag.encode()).hexdigest()[:16]


class NonFiniteError(FloatingPointError):
    """A loss or gradient went non-finite; index is the first bad slice of a
    stacked batch (0 for an unstacked one), so callers can name the client.
    """

    def __init__(self, message: str, index: int = 0) -> None:
        super().__init__(message)
        self.index = index


@dataclass
class ParamVector:
    """Flat, ordered float64 vector of all trainable parameters, or a [K, P]
    stack of K such vectors (one per client training in lockstep).

    spec_hash binds the vector to the ModelSpec layout it was created for;
    operations that mix vectors check the binding.
    """

    values: np.ndarray
    spec_hash: str

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2):
            raise ValueError("ParamVector values must be [P] or a [K, P] stack")

    def __len__(self) -> int:
        """The parameter count P, also for a stack."""
        return self.values.shape[-1]

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
    """A batch of inputs [B, d] with optional integer class labels [B], or a
    [K, B, d] stack of K equal-sized client batches with labels [K, B].
    """

    inputs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim not in (2, 3) or self.inputs.shape[-2] < 1:
            raise ValueError(
                f"batch inputs must be [batch_size >= 1, dim] or a stack of them, "
                f"got {self.inputs.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != self.inputs.shape[:-1]:
                raise ValueError("labels length must equal batch size")

    @property
    def size(self) -> int:
        """Examples in the batch, summed over the slices of a stack."""
        return math.prod(self.inputs.shape[:-1])


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


class Workspace:
    """Reusable buffers, one flat arena per name.

    take(name, shape) returns a C-contiguous view of the front of the arena
    called name, which whatever next writes to that name overwrites. An
    arena grows, never shrinks, to the largest request, so every shape asked
    for under one name (a ragged last batch, a smaller lockstep group)
    reuses the same memory; views taken before a growth keep the old memory.
    Each name holds one dtype. Nothing is allocated before the first take.
    """

    def __init__(self) -> None:
        self._arenas: dict[str, np.ndarray] = {}
        # (name, shape) -> view of the current arena, so a repeated request
        # costs one dictionary lookup
        self._views: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        view = self._views.get((name, shape))
        if view is None:
            arena = self._arenas.get(name)
            if arena is not None and arena.dtype != dtype:
                raise ValueError(f"workspace buffer {name!r} holds {arena.dtype}, "
                                 f"not {np.dtype(dtype)}")
            size = math.prod(shape)
            if arena is None or arena.size < size:
                arena = self._arenas[name] = np.empty(size, dtype=dtype)
                self._views = {k: v for k, v in self._views.items() if k[0] != name}
            view = self._views[(name, shape)] = arena[:size].reshape(shape)
        return view

    @property
    def nbytes(self) -> int:
        """Bytes held by all arenas."""
        return sum(a.nbytes for a in self._arenas.values())


def _unflatten(values: np.ndarray, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W, b) per layer into the flat vector: W is [fan_in, fan_out]
    and b is [1, fan_out]; for a [K, P] stack, W is [K, fan_in, fan_out] and
    b is [K, 1, fan_out], so that it broadcasts over the rows of its own
    slice.
    """
    if values.shape[-1] != spec.num_params:
        raise ValueError(f"parameter vector length {values.shape[-1]} != expected {spec.num_params}")
    lead = values.shape[:-1]
    return [(values[..., w0:b0].reshape(*lead, d_in, d_out),
             values[..., None, b0:b1])
            for w0, b0, b1, d_in, d_out in spec._layout]


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


def _activation_grad(a: np.ndarray, kind: str, ws: Workspace, name: str) -> np.ndarray:
    """f'(z) from the activation a = f(z), in ws under name. The relu gate
    is a > 0, which is z > 0, kept as bools: they multiply exactly as their
    float64 values.
    """
    if kind == "relu":
        return np.greater(a, 0.0, out=ws.take(name, a.shape, np.bool_))
    gate = np.multiply(a, a, out=ws.take(name, a.shape))
    return np.subtract(1.0, gate, out=gate)


def _forward(params: ParamVector, spec: ModelSpec, inputs: np.ndarray, ws: Workspace):
    """Run the net, returning logits, the input of every layer and the
    (W, b) views it used.

    Inputs [B, d] or a [K, B, d] stack; stacked params [K, P] pair with the
    stack slice by slice, and a single [P] vector serves every slice.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim not in (2, 3) or inputs.shape[-1] != spec.input_dim:
        raise ValueError(f"inputs shape {inputs.shape} inconsistent with input_dim {spec.input_dim}")
    if params.values.ndim == 2 and (inputs.ndim != 3 or inputs.shape[0] != params.values.shape[0]):
        raise ValueError(f"stack of {params.values.shape[0]} parameter vectors does not match "
                         f"inputs shape {inputs.shape}")
    layers = _unflatten(params.values, spec)
    logits, layer_inputs = _forward_layers(layers, inputs, spec, ws)
    return logits, layer_inputs, layers


def _forward_layers(layers: list[tuple[np.ndarray, np.ndarray]], inputs: np.ndarray,
                    spec: ModelSpec, ws: Workspace) -> tuple[np.ndarray, list[np.ndarray]]:
    """The forward pass through prebuilt (W, b) views: the logits and the
    input of every layer (the inputs, then each hidden activation), which
    the backward pass reads. Each layer writes its output to its buffer in
    ws, activated in place.
    """
    layer_inputs = [inputs]
    rows = inputs.shape[:-1]
    last = len(layers) - 1
    relu = spec.activation == "relu"
    for i, (w, b) in enumerate(layers):
        z = np.matmul(layer_inputs[-1], w, out=ws.take(spec._buffers[i][0], (*rows, w.shape[-1])))
        z += b
        if i < last:
            layer_inputs.append(np.maximum(z, 0.0, out=z) if relu else np.tanh(z, out=z))
    return z, layer_inputs


def _cross_entropy(logits: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                   ws: Workspace, probs_out: np.ndarray | None = None):
    """Masked mean cross-entropy per slice and its gradient with respect to
    the logits (in ws under ce.dlogits); with probs_out, also writes the
    softmax probabilities there.
    """
    num_classes = logits.shape[-1]
    b = targets.shape[-1]
    dlogits = ws.take("ce.dlogits", logits.shape)
    log_probs = _log_softmax(logits, ws.take("ce.log_probs", logits.shape), dlogits)
    # flat index of each row's target entry
    at_target = np.arange(0, targets.size * num_classes, num_classes) + targets.reshape(-1)
    ce = -log_probs.reshape(-1)[at_target].reshape(targets.shape)
    # the row-vector product is the dot product of each slice
    loss = (weights[..., None, :] @ ce[..., :, None])[..., 0, 0] / b

    np.exp(log_probs, out=dlogits)
    if probs_out is not None:
        np.copyto(probs_out, dlogits)
    dlogits.reshape(-1)[at_target] -= 1.0
    dlogits *= (weights / b)[..., None]
    return loss, dlogits


def _backward_layers(layers: list[tuple[np.ndarray, np.ndarray]], layer_inputs: list[np.ndarray],
                     dlogits: np.ndarray, grad_layers: list[tuple[np.ndarray, np.ndarray]],
                     spec: ModelSpec, ws: Workspace) -> None:
    """Backpropagate dlogits through the layers, writing every gradient into
    its prebuilt (gW, gb) view. Each hidden activation is overwritten by the
    gradient with respect to it, once nothing else reads it.
    """
    upstream = dlogits
    for i in range(len(layers) - 1, -1, -1):
        a_in = layer_inputs[i]
        gw, gb = grad_layers[i]
        np.matmul(a_in.swapaxes(-1, -2), upstream, out=gw)
        upstream.sum(axis=-2, keepdims=True, out=gb)
        if i > 0:
            gate = _activation_grad(a_in, spec.activation, ws, spec._buffers[i - 1][1])
            upstream = np.matmul(upstream, layers[i][0].swapaxes(-1, -2), out=a_in)
            upstream *= gate


def _softmax(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _log_softmax(logits: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """log softmax of the logits, written to out; scratch is overwritten."""
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    out -= np.log(np.exp(out, out=scratch).sum(axis=-1, keepdims=True))
    return out


def forward_probs(params: ParamVector, spec: ModelSpec, inputs: np.ndarray,
                  workspace: Workspace | None = None) -> np.ndarray:
    """Per-row softmax class probabilities; rows sum to 1 within 1e-9.

    With a workspace, the result lives in it under forward_probs.
    """
    ws = Workspace() if workspace is None else workspace
    logits, _, _ = _forward(params, spec, inputs, ws)
    return _softmax(logits, ws.take("forward_probs", logits.shape))


def loss_and_grad(
    params: ParamVector,
    spec: ModelSpec,
    batch: Batch,
    targets: np.ndarray,
    weights: np.ndarray,
    return_probs: bool = False,
    workspace: Workspace | None = None,
) -> tuple[float, ParamVector] | tuple[float, ParamVector, np.ndarray]:
    """Masked mean cross-entropy with its analytic gradient.

    loss = (1/B) * sum_i weights_i * CE(x_i, targets_i). A fully masked
    batch yields loss 0 and a zero gradient. Raises NonFiniteError (a
    FloatingPointError) on non-finite intermediates so callers can attach
    round/batch context.

    A [K, B, d] batch with [K, P] params, [K, B] targets and weights runs K
    independent objectives at once: the loss is then a [K] array and the
    gradient a [K, P] stack.

    Returns (loss, grad); with return_probs, (loss, grad, probs), where
    probs are the per-row softmax probabilities of this forward pass, so a
    caller that also needs the model's predictions on the batch does not
    run the net a second time. With a workspace, the gradient lives in it
    under loss_and_grad.grad and the probabilities under loss_and_grad.probs;
    a call without return_probs leaves the probabilities of an earlier call
    untouched.
    """
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    rows = batch.inputs.shape[:-1]
    if params.values.shape[:-1] != rows[:-1]:
        raise ValueError(f"params shape {params.values.shape} does not match batch shape "
                         f"{batch.inputs.shape}")
    if targets.shape != rows:
        raise ValueError(f"targets length {targets.shape} != batch size {rows}")
    if weights.shape != rows:
        raise ValueError(f"weights length {weights.shape} != batch size {rows}")
    if np.any(targets < 0) or np.any(targets >= spec.num_classes):
        raise ValueError("targets out of class range")

    ws = Workspace() if workspace is None else workspace
    logits, layer_inputs, layers = _forward(params, spec, batch.inputs, ws)
    probs = ws.take("loss_and_grad.probs", logits.shape) if return_probs else None
    loss, dlogits = _cross_entropy(logits, targets, weights, ws, probs)
    # the backward pass writes every entry of the gradient
    grad_values = ws.take("loss_and_grad.grad", params.values.shape)
    _backward_layers(layers, layer_inputs, dlogits, _unflatten(grad_values, spec), spec, ws)

    if not (np.isfinite(loss).all() and np.isfinite(grad_values).all()):
        finite = np.isfinite(loss) & np.isfinite(grad_values).all(axis=-1)
        raise NonFiniteError("non-finite loss or gradient", int(np.argmin(finite)))
    grad = ParamVector(grad_values, params.spec_hash)
    loss = float(loss) if loss.ndim == 0 else loss
    if return_probs:
        return loss, grad, probs
    return loss, grad


def sgd_step(params: ParamVector, grad: ParamVector, opt: OptimState,
             workspace: Workspace | None = None) -> ParamVector:
    """Heavy-ball update: v <- m*v + g + wd*theta; theta <- theta - lr*v.

    Elementwise, so a [K, P] stack with a [K, P] velocity steps K clients.
    Mutates opt.velocity in place and returns the new parameters. With a
    workspace they live in it under sgd_step, so parameters that already
    live there are updated in place.
    """
    params.check_compatible(grad)
    if opt.velocity.shape != params.values.shape:
        raise ValueError(
            f"velocity shape {opt.velocity.shape} != params shape {params.values.shape}"
        )
    ws = Workspace() if workspace is None else workspace
    shape = params.values.shape
    scratch = ws.take("sgd_step.scratch", shape)
    opt.velocity *= opt.momentum
    opt.velocity += grad.values
    if opt.weight_decay != 0.0:
        opt.velocity += np.multiply(params.values, opt.weight_decay, out=scratch)
    step = np.multiply(opt.velocity, opt.learning_rate, out=scratch)
    return ParamVector(np.subtract(params.values, step, out=ws.take("sgd_step", shape)),
                       params.spec_hash)


def sgd_epochs(
    params: ParamVector,
    spec: ModelSpec,
    inputs: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    rng: np.random.Generator,
) -> ParamVector:
    """Supervised epochs of plain SGD (no momentum, no weight decay) on the
    mean cross-entropy of one model over a labeled pool [N, d].

    Each epoch visits the pool in the order of one rng.permutation(N), in
    consecutive batches of batch_size (the last one may be smaller). The
    result is bitwise that of loss_and_grad with all-ones weights followed
    by sgd_step, batch by batch: the same float operations run, on views
    into one working parameter vector and one gradient buffer built once,
    with the inputs and labels gathered once per epoch and validated once,
    and every per-batch array in one workspace. With momentum and weight
    decay 0, sgd_step's velocity is bitwise the gradient, so the kernel
    steps by lr * gradient directly.
    A non-finite loss or gradient, or non-finite parameters after the last
    step, raise NonFiniteError naming the epoch and the batch.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if params.values.shape != (spec.num_params,):
        raise ValueError(f"parameter vector shape {params.values.shape} != expected "
                         f"({spec.num_params},)")
    if inputs.ndim != 2 or inputs.shape[0] < 1 or inputs.shape[1] != spec.input_dim:
        raise ValueError(f"pool inputs shape {inputs.shape} inconsistent with input_dim "
                         f"{spec.input_dim}")
    if labels.shape != inputs.shape[:1]:
        raise ValueError(f"labels shape {labels.shape} != pool size {inputs.shape[0]}")
    if np.any(labels < 0) or np.any(labels >= spec.num_classes):
        raise ValueError("labels out of class range")
    if epochs < 0 or batch_size < 1 or learning_rate <= 0:
        raise ValueError(f"need epochs >= 0, batch_size >= 1 and learning_rate > 0, got "
                         f"{epochs}, {batch_size}, {learning_rate}")

    values = params.values.copy()
    grad_values = np.zeros_like(values)
    step = np.empty_like(values)
    layers = _unflatten(values, spec)
    grad_layers = _unflatten(grad_values, spec)
    ws = Workspace()
    n = inputs.shape[0]
    weights = np.ones(min(batch_size, n), dtype=np.float64)
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_inputs, epoch_labels = inputs[order], labels[order]
        for b, start in enumerate(range(0, n, batch_size)):
            x = epoch_inputs[start:start + batch_size]
            y = epoch_labels[start:start + batch_size]
            logits, layer_inputs = _forward_layers(layers, x, spec, ws)
            loss, dlogits = _cross_entropy(logits, y, weights[:y.size], ws)
            _backward_layers(layers, layer_inputs, dlogits, grad_layers, spec, ws)
            if not (math.isfinite(loss) and np.isfinite(grad_values).all()):
                raise NonFiniteError(
                    f"non-finite loss or gradient at epoch {epoch} batch {b}")
            values -= np.multiply(grad_values, learning_rate, out=step)
    # an overflowing step shows in the next batch's loss or gradient, but not
    # after the last step or in a unit no later batch activates
    if epochs and not np.isfinite(values).all():
        raise NonFiniteError(f"non-finite parameters after epoch {epochs - 1} batch {b}")
    return ParamVector(values, params.spec_hash)


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
