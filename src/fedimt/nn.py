"""Dense feedforward classifiers with manual backpropagation.

Minimal MLP stack used by the federated simulator: ReLU hidden layers, a
softmax output head, three loss functions (plain cross-entropy, effective-
number class-balanced cross-entropy, focal), and SGD with optional momentum.
The last linear layer's weights and gradients are exposed explicitly because
the composition-ratio estimator reads them.

Everything operates on float64 numpy arrays and is deterministic given the
seed and inputs. forward, compute_loss, backward and sgd_step also accept a
stacked model whose weights carry a leading client axis, (K, fan_in, fan_out),
with batches shaped (K, B, d): K clients then train in lockstep, one call per
step for all of them, and the plain 2-D model is the same code without that
axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Array = np.ndarray

LOSS_KINDS = ("plain_ce", "class_balanced", "focal")


@dataclass
class MlpModel:
    """Fully connected network; weights[i] has shape (fan_in, fan_out), or
    (K, fan_in, fan_out) with biases (K, fan_out) for K stacked clients."""

    layer_sizes: list[int]
    weights: list[Array]
    biases: list[Array]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_sizes=list(self.layer_sizes),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass
class Activations:
    """Forward-pass record: hidden_outputs feeds the final linear layer.

    probabilities is the softmax of the logits, computed on first use, so a
    caller that needs only the logits (an argmax) never pays for it.
    """

    inputs: Array
    layer_outputs: list[Array]
    hidden_outputs: Array
    logits: Array

    @cached_property
    def probabilities(self) -> Array:
        return softmax(self.logits)


@dataclass
class Gradients:
    """Per-parameter gradients of a scalar loss; shapes mirror the model."""

    weight_grads: list[Array]
    bias_grads: list[Array]


@dataclass
class LossSpec:
    """Which loss to apply and its parameters.

    class_balanced derives per-class weights (1-beta)/(1-beta^n) from
    per_class_n; when class_weights is set those multipliers are used
    directly instead (the round loop passes rescaled weights through here).
    """

    kind: str = "plain_ce"
    beta: float = 0.0
    per_class_n: Array | None = None
    gamma: float = 2.0
    class_weights: Array | None = None

    def validate(self, num_classes: int) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.kind == "focal" and self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.kind == "class_balanced":
            if self.class_weights is not None:
                if len(self.class_weights) != num_classes:
                    raise ValueError("class_weights length must equal number of classes")
                return
            if self.per_class_n is None:
                raise ValueError("class_balanced loss requires per_class_n")
            n = np.asarray(self.per_class_n, dtype=float)
            if len(n) != num_classes:
                raise ValueError("per_class_n length must equal number of classes")
            if np.any(n < 1.0):
                raise ValueError("per_class_n entries must be >= 1")


@dataclass
class OptState:
    """SGD hyperparameters plus momentum buffers mirroring the model."""

    lr: float
    momentum: float = 0.0
    weight_buffers: list[Array] = field(default_factory=list)
    bias_buffers: list[Array] = field(default_factory=list)

    @classmethod
    def for_model(cls, model: MlpModel, lr: float, momentum: float = 0.0) -> "OptState":
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        return cls(
            lr=lr,
            momentum=momentum,
            weight_buffers=[np.zeros_like(w) for w in model.weights],
            bias_buffers=[np.zeros_like(b) for b in model.biases],
        )


def mlp_init(layer_sizes: list[int], seed: int) -> MlpModel:
    """Build a model with Glorot-uniform weights and zero biases.

    Weights for each layer are drawn uniformly from
    +-sqrt(6 / (fan_in + fan_out)); the same seed always yields the same
    model bit for bit.
    """
    if len(layer_sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    if any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer sizes must be >= 1, got {layer_sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_sizes=list(layer_sizes), weights=weights, biases=biases)


def softmax(logits: Array) -> Array:
    exp = logits - logits.max(axis=-1, keepdims=True)
    np.exp(exp, out=exp)
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


def forward(model: MlpModel, batch: Array) -> Activations:
    """Run the network on a (batch, input_dim) matrix, or a stacked model on
    a (K, batch, input_dim) stack."""
    batch = np.asarray(batch, dtype=float)
    w0 = model.weights[0]
    if (
        batch.ndim != w0.ndim
        or batch.shape[:-2] != w0.shape[:-2]
        or batch.shape[-1] != model.layer_sizes[0]
    ):
        raise ValueError(
            f"batch shape {batch.shape} does not match first-layer weights {w0.shape}"
        )
    outputs = []
    h = batch
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b[..., None, :]
        if i < last:
            np.maximum(h, 0.0, out=h)
        outputs.append(h)
    logits = outputs[-1]
    hidden = outputs[-2] if len(outputs) >= 2 else batch
    return Activations(
        inputs=batch,
        layer_outputs=outputs,
        hidden_outputs=hidden,
        logits=logits,
    )


def effective_number_weight(n: Array | float, beta: float) -> Array:
    """Per-class weight (1-beta)/(1-beta^n); equals 1 when beta = 0 or n = 1."""
    n = np.asarray(n, dtype=float)
    if beta == 0.0:
        return np.ones_like(n)
    return (1.0 - beta) / (1.0 - np.power(beta, n))


def _class_weights(spec: LossSpec, num_classes: int) -> Array:
    if spec.class_weights is not None:
        return np.asarray(spec.class_weights, dtype=float)
    return effective_number_weight(spec.per_class_n, spec.beta)


def compute_loss(
    acts: Activations, labels: Array, spec: LossSpec, mask: Array | None = None
) -> tuple[float | Array, Array]:
    """Return (loss, grad_logits) where grad_logits = d loss / d logits.

    The loss is the mean over the batch rows, and grad_logits carries the
    1/rows factor, so backward() applies the plain chain rule. On stacked
    activations labels is (K, B) and the loss is an array of K per-client
    means. mask, shaped like labels, marks the rows that count: the others
    get a zero gradient and stay out of the mean, and a client with no rows
    left reads a loss of 0. The spec and the labels are checked once per
    call, and one call covers every client of a lockstep step.

    The log-probabilities are taken from the forward pass's softmax, floored
    at 1e-300, so a sample's loss term is capped at -log(1e-300) ~ 690.8.
    """
    probs = acts.probabilities
    q = probs.shape[-1]
    labels = np.asarray(labels, dtype=int)
    if labels.shape != probs.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} does not match batch {probs.shape[:-1]}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= q:
        raise ValueError(f"labels must lie in [0, {q})")
    spec.validate(q)
    if mask is None:
        mask = np.ones(labels.shape)
    elif np.shape(mask) != labels.shape:
        raise ValueError(f"mask shape {np.shape(mask)} does not match labels {labels.shape}")
    row_w = mask / np.maximum(np.sum(mask, axis=-1, keepdims=True), 1.0)

    onehot = labels[..., None] == np.arange(q)
    pt = np.maximum(probs[onehot].reshape(labels.shape), 1e-300)
    log_pt = np.log(pt)
    if spec.kind == "focal":
        one_minus = 1.0 - pt
        focus = np.power(one_minus, spec.gamma)
        row_loss = -focus * log_pt
        # d/d pt of -(1-pt)^g log pt, chained through softmax; the log term
        # vanishes as pt -> 1 for g > 0 but needs guarding in float form.
        log_term = np.where(
            one_minus > 1e-12,
            spec.gamma * pt * log_pt * np.power(one_minus, spec.gamma - 1.0),
            0.0,
        )
        grad_scale = (focus - log_term) * row_w
    else:
        sample_w = _class_weights(spec, q)[labels] if spec.kind == "class_balanced" else 1.0
        row_loss = -sample_w * log_pt
        grad_scale = sample_w * row_w
    loss = np.sum(row_loss * row_w, axis=-1)
    grad = grad_scale[..., None] * (probs - onehot)
    return (float(loss) if loss.ndim == 0 else loss), grad


def backward(model: MlpModel, acts: Activations, grad_logits: Array) -> Gradients:
    """Chain-rule gradients of the loss whose logit gradient is grad_logits;
    on a stacked model each gradient carries the leading client axis."""
    if grad_logits.shape != acts.logits.shape:
        raise ValueError(
            f"grad_logits shape {grad_logits.shape} does not match logits {acts.logits.shape}"
        )
    n_layers = len(model.weights)
    weight_grads: list[Array] = [np.empty(0)] * n_layers
    bias_grads: list[Array] = [np.empty(0)] * n_layers
    g = grad_logits
    for i in range(n_layers - 1, -1, -1):
        layer_in = acts.layer_outputs[i - 1] if i > 0 else acts.inputs
        weight_grads[i] = layer_in.swapaxes(-1, -2) @ g
        bias_grads[i] = g.sum(axis=-2)
        if i > 0:
            g = (g @ model.weights[i].swapaxes(-1, -2)) * (acts.layer_outputs[i - 1] > 0.0)
    return Gradients(weight_grads=weight_grads, bias_grads=bias_grads)


def sgd_step(
    model: MlpModel, grads: Gradients, opt: OptState, active: Array | None = None
) -> MlpModel:
    """In-place SGD update; with momentum mu: buf = mu*buf + g, w -= lr*buf.

    On a stacked model, active is a (K,) boolean step mask: a client whose
    entry is False keeps its weights and momentum buffers exactly as they
    were, whatever its gradient holds.
    """
    for params, buffers, param_grads in (
        (model.weights, opt.weight_buffers, grads.weight_grads),
        (model.biases, opt.bias_buffers, grads.bias_grads),
    ):
        for i, g in enumerate(param_grads):
            if g.shape != params[i].shape:
                raise ValueError(f"gradient shape mismatch at layer {i}")
            keep = None if active is None else active.reshape(-1, *(1,) * (g.ndim - 1))
            if opt.momentum != 0.0:
                g = opt.momentum * buffers[i] + g
                if keep is not None:
                    g = np.where(keep, g, buffers[i])
                buffers[i] = g
            step = opt.lr * g
            if keep is not None:
                step = np.where(keep, step, 0.0)
            params[i] -= step
    return model


def grad_check(
    model: MlpModel,
    batch: Array,
    labels: Array,
    spec: LossSpec,
    eps: float = 1e-5,
) -> float:
    """Max normalized error of backward() against central finite differences.

    Error per parameter is |analytic - numeric| / max(1, |analytic|, |numeric|),
    so dead paths (both gradients zero) contribute exactly 0.
    """
    if not 0.0 < eps <= 1e-3:
        raise ValueError(f"eps must be in (0, 1e-3], got {eps}")

    def loss_at() -> float:
        acts = forward(model, batch)
        return compute_loss(acts, labels, spec)[0]

    acts = forward(model, batch)
    _, grad_logits = compute_loss(acts, labels, spec)
    grads = backward(model, acts, grad_logits)

    worst = 0.0
    for params, analytic in (
        (model.weights, grads.weight_grads),
        (model.biases, grads.bias_grads),
    ):
        for layer, grad in zip(params, analytic):
            flat = layer.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss_at()
                flat[idx] = orig - eps
                down = loss_at()
                flat[idx] = orig
                numeric = (up - down) / (2.0 * eps)
                denom = max(1.0, abs(gflat[idx]), abs(numeric))
                worst = max(worst, abs(gflat[idx] - numeric) / denom)
    return worst
