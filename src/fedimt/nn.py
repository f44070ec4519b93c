"""Dense feedforward classifiers with manual backpropagation.

Minimal MLP stack used by the federated simulator: ReLU hidden layers, a
softmax output head, three loss functions (plain cross-entropy, effective-
number class-balanced cross-entropy, focal), and SGD with optional momentum.
The last linear layer's weights and gradients are exposed explicitly because
the composition-ratio estimator reads them.

Everything operates on float64 numpy arrays and is deterministic given the
seed and inputs. A model keeps all its parameters in one flat buffer, and
forward, compute_loss, backward and sgd_step also accept a stacked model whose
buffer carries a leading client axis, (K, P): K clients then train in lockstep,
one call per step for all of them. A stacked batch puts the rows first,
(B, K, d), and so does every activation and gradient of a step, so a bias add
or a bias gradient runs over one contiguous K * n run per row, and the plain
(B, d) model is the same code without the client axis. The matmuls read the
stack client-major through swapaxes views, which BLAS takes by its leading
dimension, so every product sums its terms in the order a client-major
(K, B, d) stack would.

softmax takes each row's max from a class-major copy of the logits, and
compute_loss turns a fresh softmax into the logit gradient in place; neither
moves a bit, since a max is exact in any order and p - 0 == p.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Array = np.ndarray

LOSS_KINDS = ("plain_ce", "class_balanced", "focal")


@lru_cache(maxsize=None)
def _layout(layer_sizes: tuple[int, ...]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(start, end, shape) of every weight matrix, then every bias."""
    shapes = [*zip(layer_sizes[:-1], layer_sizes[1:]), *((fan_out,) for fan_out in layer_sizes[1:])]
    ends = itertools.accumulate(math.prod(shape) for shape in shapes)
    return [(end - math.prod(shape), end, shape) for shape, end in zip(shapes, ends)]


def layer_views(layer_sizes: list[int], flat: Array) -> tuple[list[Array], list[Array]]:
    """Split a flat (..., P) buffer into weights[i], (..., fan_in, fan_out),
    and biases[i], (..., fan_out): views of every weight matrix, row-major,
    then every bias, in layer order."""
    spans = _layout(tuple(layer_sizes))
    if flat.shape[-1:] != (spans[-1][1],):
        raise ValueError(f"flat buffer shape {flat.shape} does not fit layers {layer_sizes}")
    views = [flat[..., start:end].reshape(*flat.shape[:-1], *shape) for start, end, shape in spans]
    return views[: len(layer_sizes) - 1], views[len(layer_sizes) - 1 :]


@dataclass
class MlpModel:
    """Fully connected network whose parameters live in one flat buffer,
    params: (P,), or (K, P) for K stacked clients. weights[i], (fan_in,
    fan_out) or (K, fan_in, fan_out), and biases[i] are views of it (see
    layer_views), so a write through either is a write to the other."""

    layer_sizes: list[int]
    params: Array

    def __post_init__(self) -> None:
        self.weights, self.biases = layer_views(self.layer_sizes, self.params)

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpModel":
        return MlpModel(list(self.layer_sizes), self.params.copy())


@dataclass
class Activations:
    """Forward-pass record: outputs[0] is the input batch and outputs[i + 1]
    is layer i's output, so outputs[i] feeds layer i."""

    outputs: list[Array]

    @property
    def hidden_outputs(self) -> Array:
        """The final linear layer's input."""
        return self.outputs[-2]

    @property
    def logits(self) -> Array:
        return self.outputs[-1]


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
        if self.kind == "focal" and not self.gamma >= 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.kind == "class_balanced":
            if self.class_weights is not None:
                if len(self.class_weights) != num_classes:
                    raise ValueError("class_weights length must equal number of classes")
                weights = np.asarray(self.class_weights, dtype=float)
                if not np.all((weights >= 0.0) & (weights < np.inf)):
                    raise ValueError("class_weights must be finite and >= 0")
                return
            if self.per_class_n is None:
                raise ValueError("class_balanced loss requires per_class_n")
            n = np.asarray(self.per_class_n, dtype=float)
            if len(n) != num_classes:
                raise ValueError("per_class_n length must equal number of classes")
            if not np.all(n >= 1.0):
                raise ValueError("per_class_n entries must be >= 1")


@dataclass
class OptState:
    """SGD hyperparameters plus the momentum buffer, laid out like the
    model's params."""

    lr: float
    momentum: float = 0.0
    velocity: Array | None = None

    @classmethod
    def for_model(cls, model: MlpModel, lr: float, momentum: float = 0.0) -> "OptState":
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        return cls(lr=lr, momentum=momentum, velocity=np.zeros_like(model.params))


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
    model = MlpModel(list(layer_sizes), np.zeros(_layout(tuple(layer_sizes))[-1][1]))
    rng = np.random.default_rng(seed)
    for w in model.weights:
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model


def softmax(logits: Array) -> Array:
    """Softmax over the last axis, shifted by each row's max for stability.

    The max reduces a class-major copy, q long passes over the rows instead of
    one q-element pass per row; a max is exact in any order, so the bits are
    those of logits.max(axis=-1).
    """
    q = logits.shape[-1]
    row_max = np.maximum.reduce(logits.reshape(-1, q).T.copy(), axis=0)
    exp = logits - row_max.reshape(*logits.shape[:-1], 1)
    np.exp(exp, out=exp)
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


def forward(model: MlpModel, batch: Array) -> Activations:
    """Run the network on a (batch, input_dim) matrix, or a stacked model on
    a rows-first (batch, K, input_dim) stack."""
    batch = np.asarray(batch, dtype=float)
    w0 = model.weights[0]
    if batch.ndim != w0.ndim or batch.shape[1:] != (*w0.shape[:-2], model.layer_sizes[0]):
        raise ValueError(
            f"batch shape {batch.shape} does not match first-layer weights {w0.shape}"
        )
    outputs = [batch]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = np.empty((*batch.shape[:-1], w.shape[-1]))
        # swapaxes(0, -2) is (K, B, .) on a stack and the identity on a matrix.
        np.matmul(outputs[-1].swapaxes(0, -2), w, out=h.swapaxes(0, -2))
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        outputs.append(h)
    return Activations(outputs)


def effective_number_weight(n: Array | float, beta: float) -> Array:
    """Per-class weight (1-beta)/(1-beta^n) for counts n >= 1; equals 1 when
    beta = 0 or n = 1."""
    n = np.asarray(n, dtype=float)
    return (1.0 - beta) / (1.0 - np.power(beta, n))


@dataclass
class LossTargets:
    """What compute_loss needs of the labels, the spec and the row mask:
    everything but the logits. One step covers (B,) or rows-first (B, K)
    rows; a round's (T, B, K) targets are built once and targets[t] is step
    t. compute_loss writes each row's loss term into row_loss, and loss()
    sums the rows afterwards, so a round sums its losses once."""

    spec: LossSpec
    pt_index: Array  # (..., B[, K]) flat index of each row's label in one step's probabilities
    row_w: Array  # 1/rows on a counted row, 0 on a masked one
    sample_w: Array  # the row's class weight; a broadcast 1 unless class_balanced
    row_loss: Array  # each row's loss term, written by compute_loss

    def __getitem__(self, t) -> "LossTargets":
        return LossTargets(self.spec, self.pt_index[t], self.row_w[t], self.sample_w[t], self.row_loss[t])

    def loss(self) -> Array:
        """Mean loss over each step's counted rows, 0 where none counts. A
        stacked step's or round's terms are summed through one client-major
        copy, so each client's rows add up as one contiguous run."""
        terms = self.row_loss * self.row_w
        if terms.ndim > 1:
            terms = terms.swapaxes(-1, -2).copy()
        return np.add.reduce(terms, axis=-1)


def loss_targets(
    labels: Array, spec: LossSpec, num_classes: int, mask: Array | None = None
) -> LossTargets:
    """Check the labels, the mask and the spec, and build compute_loss's targets.

    labels is (B,), a stacked step's (B, K), or a round's (T, B, K); the
    last two axes are one step's rows. mask, shaped like labels, marks the
    rows that count.
    """
    labels, q = np.asarray(labels, dtype=int), num_classes
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= q:
        raise ValueError(f"labels must lie in [0, {q})")
    spec.validate(q)
    if mask is None:
        mask = np.ones(labels.shape)
    elif np.shape(mask) != labels.shape:
        raise ValueError(f"mask shape {np.shape(mask)} does not match labels {labels.shape}")
    rows_axis = -min(labels.ndim, 2)
    row_w = mask / np.maximum(np.sum(mask, axis=rows_axis, keepdims=True), 1.0)
    pt_index = np.arange(math.prod(labels.shape[-2:])).reshape(labels.shape[-2:]) * q + labels
    if spec.kind != "class_balanced":
        sample_w = np.broadcast_to(1.0, labels.shape)
    elif spec.class_weights is not None:
        sample_w = np.asarray(spec.class_weights, dtype=float)[labels]
    else:
        sample_w = effective_number_weight(spec.per_class_n, spec.beta)[labels]
    return LossTargets(spec, pt_index, row_w, sample_w, np.empty(labels.shape))


def compute_loss(acts: Activations, targets: LossTargets) -> Array:
    """Return grad_logits = d loss / d logits for one step of targets.

    The loss is the mean over each step's counted rows, and grad_logits
    carries that 1/rows factor, so backward() applies the plain chain rule.
    A masked row gets a zero gradient. Each row's loss term goes into
    targets.row_loss; targets.loss() sums them when the caller wants them.

    The log-probabilities are taken from a softmax of the logits, floored at
    1e-300, so a sample's loss term is capped at -log(1e-300) ~ 690.8. That
    softmax becomes the returned gradient in place.
    """
    probs, spec = softmax(acts.logits), targets.spec
    if targets.row_w.shape != probs.shape[:-1]:
        raise ValueError(f"targets shape {targets.row_w.shape} does not match batch {probs.shape[:-1]}")

    p_label = probs.take(targets.pt_index)
    pt = np.maximum(p_label, 1e-300)
    log_pt = np.log(pt)
    if spec.kind == "focal":
        one_minus = 1.0 - pt
        focus = np.power(one_minus, spec.gamma)
        np.multiply(-focus, log_pt, out=targets.row_loss)
        # d/d pt of -(1-pt)^g log pt, chained through softmax; the log term
        # vanishes as pt -> 1 for g > 0 but needs guarding in float form.
        log_term = np.where(
            one_minus > 1e-12,
            spec.gamma * pt * log_pt * np.power(one_minus, spec.gamma - 1.0),
            0.0,
        )
        grad_w = (focus - log_term) * targets.row_w
    else:
        np.multiply(-targets.sample_w, log_pt, out=targets.row_loss)
        grad_w = targets.sample_w * targets.row_w
    probs.put(targets.pt_index, p_label - 1.0)  # probs - onehot, bit for bit
    probs *= grad_w[..., None]
    return probs


def backward(model: MlpModel, acts: Activations, grad_logits: Array) -> Array:
    """Chain-rule gradients of the loss whose logit gradient is grad_logits,
    in one flat buffer laid out like model.params (split it with
    layer_views); on a stacked model it carries the leading client axis."""
    if grad_logits.shape != acts.logits.shape:
        raise ValueError(
            f"grad_logits shape {grad_logits.shape} does not match logits {acts.logits.shape}"
        )
    grads = np.empty_like(model.params)
    weight_grads, bias_grads = layer_views(model.layer_sizes, grads)
    g = grad_logits
    for i in range(len(model.weights) - 1, -1, -1):
        # (K, n, B) on a rows-first stack, .T on a matrix; np.moveaxis costs
        # ~3 us a call, ten times these two views.
        layer_in = acts.outputs[i].swapaxes(0, -2).swapaxes(-1, -2)
        np.matmul(layer_in, g.swapaxes(0, -2), out=weight_grads[i])
        np.add.reduce(g, axis=0, out=bias_grads[i])
        if i > 0:
            g_in = np.empty_like(acts.outputs[i])
            np.matmul(g.swapaxes(0, -2), model.weights[i].swapaxes(-1, -2), out=g_in.swapaxes(0, -2))
            g_in *= acts.outputs[i] > 0.0
            g = g_in
    return grads


def sgd_step(model: MlpModel, grads: Array, opt: OptState, active: Array | None = None) -> MlpModel:
    """In-place SGD update from a flat gradient buffer shaped like
    model.params; with momentum mu: buf = mu*buf + g, w -= lr*buf.

    At momentum 0 grads is scaled by lr in place, so it holds the step
    afterwards: pass backward's fresh buffer, not one read again.

    On a stacked model, active is a (K,) boolean step mask: a client whose
    entry is False keeps its weights and momentum buffer exactly as they
    were, whatever its gradient holds.
    """
    if grads.shape != model.params.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match parameters {model.params.shape}")
    keep = True if active is None else active[:, None]
    if opt.momentum != 0.0:
        np.copyto(opt.velocity, opt.momentum * opt.velocity + grads, where=keep)
        step = opt.lr * opt.velocity
    else:
        step = np.multiply(grads, opt.lr, out=grads)
    np.subtract(model.params, step, out=model.params, where=keep)
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

    targets = loss_targets(labels, spec, model.num_classes)

    def loss_at() -> float:
        compute_loss(forward(model, batch), targets)
        return float(targets.loss())

    acts = forward(model, batch)
    grads = backward(model, acts, compute_loss(acts, targets))

    worst = 0.0
    flat, gflat = model.params.reshape(-1), grads.reshape(-1)
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
