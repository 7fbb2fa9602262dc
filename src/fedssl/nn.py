"""Minimal ReLU MLP substrate: flat parameter vectors, forward pass,
analytic cross-entropy gradients planned once for a training loop,
heavy-ball SGD, and a finite-difference oracle.

All math is float64. Parameters live in a single flat vector (the unit of
transport and aggregation); the layout is, per layer, the weight matrix in
row-major order followed by the bias vector.

Clients train in lockstep, so the per-batch functions also take a stack:
parameters [K, P] and inputs [K, B, d], one slice per client. Slice k of a
stacked result is bitwise the result of the unstacked call on slice k:
stacked matmul runs the same gemm per 2-D slice, and every reduction runs
along one slice.

Every gradient is made by one pass: a forward pass, a cross-entropy head
and a backward pass, run by a PassPlan on prebuilt pieces: the (W, b)
views and their transposes, a buffer set per batch shape and the flat
target indices. A ParamVector keeps the (W, b) views of its values once it
has built them (ParamVector.layers), so a model trained or EMA-ed in
place, or a gradient buffer written batch after batch, builds them once.
A PassPlan builds the other pieces once for every batch shape of a
training loop, and then runs only the float operations; loss_and_grad is a
PassPlan used once. Both training loops run on one: engine.lockstep_update
over a [K, P] stack of students, testing finiteness after every pass
(PassPlan.run), and engine.server_update over the one server model, whose
passes skip the per-batch loss and test (PassPlan.run_unchecked) and which
tests finiteness once per call. Each loop makes its SGD step itself, by
lr * gradient when momentum and weight decay are 0.

Every array these passes make lives in a Workspace: named flat arenas that
grow to the largest request and are then reused, so a training loop that
passes one workspace to every call allocates its buffers once instead of
once per batch. forward_probs, loss_and_grad and sgd_step take an optional
workspace; given one, their results live in it and are overwritten by the
next call of the same function on it (sgd_step then updates parameters that
already live there in place). Called without one, each builds a throwaway
workspace, so its results own their memory and the same code runs.

Arrays whose lifetimes never overlap within a local batch share one arena.
The head writes the log-probabilities over the logits, the last layer's
output, and takes its caller's argmax labels from the probabilities before
it subtracts the targets, so nothing is copied; forward_probs makes its
softmax in place in the logits too, so its result lives in the last layer's
output buffer, which the next forward pass over the same rows overwrites: a
batch's pseudo-labels are made from it before the objective runs. Every
temporary that dies before its function returns (sgd_step's, ema_update's
pulled student, the lockstep objective's supervised gradient, proximal pull
and step) is taken from the one SCRATCH arena. In data, the two augmented
views share one arena. A group of 50 clients with 64 unlabeled examples
each, the benchmark's crowd shape, thus trains in 3.7 MiB of workspace.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

# the Workspace arena for temporaries that die before the function that
# takes them returns, so any such function may take it
SCRATCH = "scratch"


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the MLP: input_dim -> hidden_dims -> num_classes logits,
    with a ReLU after every hidden layer.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    # the parameter layout, derived once here because every forward and
    # gradient reads it: (fan_in, fan_out) per affine layer, input to logits
    layer_dims: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    num_params: int = field(init=False, repr=False, compare=False)
    # per layer: (weight start, bias start, bias end, fan_in, fan_out)
    _layout: tuple[tuple[int, int, int, int, int], ...] = field(
        init=False, repr=False, compare=False)
    # per layer, the names of its two Workspace buffers: its output, and its
    # ReLU gate
    _buffers: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must all be >= 1, got {self.hidden_dims}")
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
            (f"layer{i}", f"layer{i}.relu") for i in range(len(layer_dims))))

    @property
    def spec_hash(self) -> str:
        tag = f"{self.input_dim}|{list(self.hidden_dims)}|{self.num_classes}|relu"
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
    # (values, spec, views) as of the last layers() call
    _layers: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2):
            raise ValueError("ParamVector values must be [P] or a [K, P] stack")

    def layers(self, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
        """The (W, b) views per layer into values (see _unflatten), built on
        the first call and reused while values is the same array and spec
        the same object, so a model that trains in place, or a gradient
        buffer written batch after batch, builds them once.
        """
        cached = self._layers
        if cached is None or cached[0] is not self.values or cached[1] is not spec:
            cached = self._layers = (self.values, spec, _unflatten(self.values, spec))
        return cached[2]

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
    """Heavy-ball SGD state. velocity, shaped like the parameters it steps,
    is updated in place by sgd_step.
    """

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: np.ndarray = field(kw_only=True)

    def __post_init__(self) -> None:
        for name in ("learning_rate", "momentum", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


class Workspace:
    """Reusable buffers, one flat arena per name.

    take(name, shape) returns a C-contiguous view of the front of the arena
    called name, which whatever next writes to that name overwrites. An
    arena grows, never shrinks, to the largest request, so every shape asked
    for under one name (a ragged last batch, a smaller lockstep group)
    reuses the same memory; views taken before a growth keep the old memory.
    Each name holds one dtype. Nothing is allocated before the first take.
    Functions that share a name must not need its contents at the same
    time: forward_probs' result and every pass over the same rows share the
    layer outputs, the two augmented views share augment (see data), and
    scratch (SCRATCH) is for temporaries that die within one call.
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


class _PassBuffers:
    """Every array one forward and backward pass over a batch of rows
    ([B], or [K, B] for a stack) writes, taken from a Workspace once: per
    layer, its output (activated in place) and a transposed view of it; per
    hidden layer, its ReLU gate; and the cross-entropy head's logit
    gradient, row maxima and sums, and target log-probabilities, with the
    flat views the head indexes. The head writes the log-probabilities over
    the logits, the last layer's output. Outside the workspace: the flat
    offset of each row's logits, and a buffer for each row's flat target
    index, its offset plus its target.
    """

    def __init__(self, spec: ModelSpec, ws: Workspace, rows: tuple[int, ...]) -> None:
        size = math.prod(rows)
        self.offsets = np.arange(0, size * spec.num_classes, spec.num_classes).reshape(rows)
        self.at_target = np.empty(rows, dtype=np.int64)
        self.outputs = _layer_outputs(spec, ws, rows)
        self.outputs_t = [o.swapaxes(-1, -2) for o in self.outputs]
        # the relu gate is a > 0, which is z > 0, kept as bools: they
        # multiply exactly as their float64 values
        self.gates = [ws.take(gate, (*rows, d_out), np.bool_)
                      for (_, gate), (_, d_out) in zip(spec._buffers[:-1], spec.layer_dims)]
        self.dlogits = ws.take("ce.dlogits", (*rows, spec.num_classes))
        self.logits_flat = self.outputs[-1].reshape(-1)
        self.dlogits_flat = self.dlogits.reshape(-1)
        self.row_max = ws.take("ce.row_max", (*rows, 1))
        self.row_sum = ws.take("ce.row_sum", (*rows, 1))
        self.target_log_probs = ws.take("ce.target_log_probs", rows)


def _layer_outputs(spec: ModelSpec, ws: Workspace, rows: tuple[int, ...]) -> list[np.ndarray]:
    """Each layer's output buffer for a batch of rows, in ws."""
    return [ws.take(out, (*rows, d_out))
            for (out, _), (_, d_out) in zip(spec._buffers, spec.layer_dims)]


def _check_inputs(params: ParamVector, spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    """Inputs [B, d] or a [K, B, d] stack, as float64; stacked params [K, P]
    pair with the stack slice by slice, and a single [P] vector serves every
    slice.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim not in (2, 3) or inputs.shape[-1] != spec.input_dim:
        raise ValueError(f"inputs shape {inputs.shape} inconsistent with input_dim {spec.input_dim}")
    if params.values.ndim == 2 and (inputs.ndim != 3 or inputs.shape[0] != params.values.shape[0]):
        raise ValueError(f"stack of {params.values.shape[0]} parameter vectors does not match "
                         f"inputs shape {inputs.shape}")
    return inputs


def _forward_layers(layers: list[tuple[np.ndarray, np.ndarray]], inputs: np.ndarray,
                    outputs: list[np.ndarray]) -> np.ndarray:
    """The forward pass through prebuilt (W, b) views, returning the logits.
    Each layer writes its output to its buffer in outputs, a hidden layer's
    put through the ReLU in place; the backward pass reads them there as the
    later layers' inputs.
    """
    x = inputs
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = np.matmul(x, w, out=outputs[i])
        z += b
        if i < last:
            x = np.maximum(z, 0.0, out=z)
    return z


def _softmax(logits: np.ndarray) -> np.ndarray:
    """The softmax of each row, in place."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def forward_probs(params: ParamVector, spec: ModelSpec, inputs: np.ndarray,
                  workspace: Workspace | None = None) -> np.ndarray:
    """Per-row softmax class probabilities; rows sum to 1 within 1e-9.

    The softmax is made in place in the logits buffer, so with a workspace
    the result lives in it, in the last layer's output, which the next
    forward pass of the same batch shape on it overwrites.
    """
    ws = Workspace() if workspace is None else workspace
    inputs = _check_inputs(params, spec, inputs)
    return _softmax(_forward_layers(params.layers(spec), inputs,
                                    _layer_outputs(spec, ws, inputs.shape[:-1])))


class PassPlan:
    """loss_and_grad over one parameter vector or [K, P] stack, planned
    once for every batch a training loop runs on it. Planned are the (W, b)
    views and the transposed weights of params, and per batch shape (rows,
    [B] or [K, B]) one buffer set, in buffers, taken from the workspace
    largest first so no later shape grows an arena under an earlier one.

    run() then makes only the float operations of loss_and_grad, in its
    order, and tests finiteness where it does; run_unchecked() makes the
    same float operations but the loss, and tests nothing. Neither checks a
    shape, weight or target: a loop that plans checks those once, and each
    target must be a class index in range. The parameters may change
    between runs, in place; the plan reads them where they live.
    """

    def __init__(self, params: ParamVector, spec: ModelSpec, workspace: Workspace,
                 rows: Iterable[tuple[int, ...]]) -> None:
        self.spec = spec
        self.layers = params.layers(spec)
        self.weights_t = [w.swapaxes(-1, -2) for w, _ in self.layers]
        self.buffers = {shape: _PassBuffers(spec, workspace, shape)
                        for shape in sorted(set(rows), key=math.prod, reverse=True)}

    def run(self, inputs: np.ndarray, targets: np.ndarray, weights: np.ndarray,
            grad: ParamVector, probs_out: np.ndarray | None = None,
            labels_out: np.ndarray | None = None) -> np.ndarray:
        """The masked mean cross-entropy of each slice, as loss_and_grad
        makes it from inputs [..., B, d] of a planned shape, targets and
        weights [..., B]; its gradient is written into grad, and with
        probs_out or labels_out, the probabilities or each row's argmax
        class there. Raises NonFiniteError as loss_and_grad does.
        """
        bufs = self.buffers[inputs.shape[:-1]]
        np.add(bufs.offsets, targets, out=bufs.at_target)
        self.run_unchecked(bufs, inputs, bufs.at_target, bufs.target_log_probs, weights, grad,
                           probs_out, labels_out)
        # (1/B) sum_i w_i * CE_i per slice: the row-vector product is the
        # dot product of each slice
        loss = ((weights[..., None, :] @ -bufs.target_log_probs[..., :, None])[..., 0, 0]
                / inputs.shape[-2])
        if not (np.isfinite(loss).all() and np.isfinite(grad.values).all()):
            finite = np.isfinite(loss) & np.isfinite(grad.values).all(axis=-1)
            raise NonFiniteError("non-finite loss or gradient", int(np.argmin(finite)))
        return loss

    def run_unchecked(self, bufs: _PassBuffers, inputs: np.ndarray, at_target: np.ndarray,
                      target_log_probs: np.ndarray, weights: np.ndarray | None,
                      grad: ParamVector, probs_out: np.ndarray | None = None,
                      labels_out: np.ndarray | None = None) -> None:
        """run's float work on the buffer set bufs (one of buffers) without
        the loss or the finiteness test: the forward pass, the cross-entropy
        head and the backward pass, writing the gradient into grad and each
        row's target log-probability into target_log_probs, shaped as the
        rows. at_target holds each row's flat target index, its offset in
        bufs.offsets plus its target; weights are the [..., B] example
        weights, or None when every weight is 1.
        """
        logits = _forward_layers(self.layers, inputs, bufs.outputs)
        # the head: the gradient of the masked mean cross-entropy with
        # respect to the logits, whose log-probabilities overwrite them; the
        # log softmax uses dlogits as scratch
        rows = inputs.shape[-2]
        dlogits, row_max = bufs.dlogits, bufs.row_max
        np.maximum.reduce(logits, axis=-1, keepdims=True, out=row_max)
        log_probs = np.subtract(logits, row_max, out=logits)
        np.add.reduce(np.exp(log_probs, out=dlogits), axis=-1, keepdims=True, out=bufs.row_sum)
        log_probs -= np.log(bufs.row_sum, out=bufs.row_sum)
        # mode="clip" (the indices are in range by construction) lets take
        # write straight into its output
        bufs.logits_flat.take(at_target, out=target_log_probs, mode="clip")
        np.exp(log_probs, out=dlogits)
        if probs_out is not None:
            np.copyto(probs_out, dlogits)
        if labels_out is not None:
            dlogits.argmax(axis=-1, out=labels_out)
        bufs.dlogits_flat[at_target] -= 1.0
        if weights is None:
            dlogits *= 1.0 / rows
        else:
            # the row maxima are dead: they make way for the [..., B, 1]
            # column of weights / B
            dlogits *= np.divide(weights[..., None], rows, out=row_max)

        # the backward pass writes every entry of the gradient; each hidden
        # activation is overwritten by the gradient with respect to it, once
        # nothing else reads it
        upstream = dlogits
        grad_layers = grad.layers(self.spec)
        for i in range(len(grad_layers) - 1, -1, -1):
            gw, gb = grad_layers[i]
            np.matmul(bufs.outputs_t[i - 1] if i else inputs.swapaxes(-1, -2), upstream, out=gw)
            np.add.reduce(upstream, axis=-2, keepdims=True, out=gb)
            if i > 0:
                a_in, gate = bufs.outputs[i - 1], bufs.gates[i - 1]
                # the ReLU's derivative from its output
                np.greater(a_in, 0.0, out=gate)
                upstream = np.matmul(upstream, self.weights_t[i], out=a_in)
                upstream *= gate


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
    under loss_and_grad.grad and the probabilities under loss_and_grad.probs.
    It is the one-shot case of a PassPlan.
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
    inputs = _check_inputs(params, spec, batch.inputs)
    grad = ParamVector(ws.take("loss_and_grad.grad", params.values.shape), params.spec_hash)
    probs = ws.take("loss_and_grad.probs", (*rows, spec.num_classes)) if return_probs else None
    loss = PassPlan(params, spec, ws, [rows]).run(inputs, targets, weights, grad, probs)
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
    live there are updated in place; the step is made in its scratch arena.
    """
    params.check_compatible(grad)
    if opt.velocity.shape != params.values.shape:
        raise ValueError(
            f"velocity shape {opt.velocity.shape} != params shape {params.values.shape}"
        )
    ws = Workspace() if workspace is None else workspace
    shape = params.values.shape
    scratch = ws.take(SCRATCH, shape)
    opt.velocity *= opt.momentum
    opt.velocity += grad.values
    if opt.weight_decay != 0.0:
        opt.velocity += np.multiply(params.values, opt.weight_decay, out=scratch)
    step = np.multiply(opt.velocity, opt.learning_rate, out=scratch)
    return ParamVector(np.subtract(params.values, step, out=ws.take("sgd_step", shape)),
                       params.spec_hash)


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
