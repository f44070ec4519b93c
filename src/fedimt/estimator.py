"""Per-round class-composition estimation from last-layer weight updates.

The server probes the previous global model with small per-class auxiliary
sets, producing one expected last-layer update matrix per class. Under the
within-class-similarity assumption, the observed aggregate update of each
output column is a linear blend of the per-class probe updates weighted by
the (unknown) per-class sample counts, which turns every (class, hidden-node)
weight entry into one scalar equation for that class's count. Node estimates
are filtered and combined with confidence weights favoring entries where the
own-class update dominates the other classes' mean update.

All functions are pure; nothing here mutates a model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import AuxiliarySet
from .nn import Array, MlpModel, forward, softmax

logger = logging.getLogger(__name__)

# A probe update or denominator no larger than this in magnitude counts as zero.
DENOM_EPSILON = 1e-12


@dataclass
class AuxGradients:
    """What the count solve reads of the per-class auxiliary probe.

    Class q's probe update is the (s, Q) summed per-sample cross-entropy
    gradient of its probe samples, scaled by -lr*local_epochs/batch_size to
    the units of one round's observed weight delta. own[q] is its column q;
    class_sum adds the Q updates in class order.
    """

    own: Array  # (Q, s)
    class_sum: Array  # (s, Q)
    n_aux: Array


@dataclass
class CountEstimate:
    counts: Array  # (Q,) final estimates, clamped to [0, total]
    node_estimates: Array  # (Q, s), NaN where the node was skipped
    node_confidences: Array  # (Q, s)
    used_node_count: Array  # (Q,)
    fallback: Array  # (Q,) True where all nodes were skipped


def probe_auxiliary(
    prev_model: MlpModel,
    aux: AuxiliarySet,
    lr: float,
    local_epochs: int,
    batch_size: int,
) -> AuxGradients:
    """Expected per-class last-layer updates on the previous global model.

    Each class's probe samples are pushed through the model with plain
    cross-entropy; the per-sample last-layer gradients are summed (not
    averaged) so the class's auxiliary count stays in the update's units.
    """
    q_total = prev_model.num_classes
    if aux.num_classes != q_total:
        raise ValueError(
            f"auxiliary set covers {aux.num_classes} classes, model has {q_total}"
        )
    scale = -(lr * local_epochs / batch_size)
    update = np.empty((prev_model.layer_sizes[-2], q_total))
    own, class_sum = np.empty((q_total, len(update))), np.zeros_like(update)
    for q, feats in enumerate(aux.class_features):
        if len(feats) == 0:
            raise ValueError(f"auxiliary class {q} is empty")
        acts = forward(prev_model, feats)
        grad = softmax(acts.logits)
        grad[:, q] -= 1.0
        np.matmul(acts.hidden_outputs.T, grad, out=update)
        update *= scale
        own[q] = update[:, q]
        class_sum += update
    return AuxGradients(own=own, class_sum=class_sum, n_aux=aux.per_class_count.astype(float))


def estimate_counts(
    aux_grads: AuxGradients,
    w_prev: Array,
    w_new: Array,
    total_samples: float,
    num_selected: int,
) -> CountEstimate:
    """Solve the per-node linear equations and combine with confidence weights.

    For class p and hidden node m, with own = aux_grads.own[p, m] and other =
    (class_sum[m, p] - own) / (Q - 1), the other classes' mean update there:

        own * x + other * (total - x) = n_aux_p * K * (w_new - w_prev)[m, p]

    is solved for x (the class-p sample count this round). Nodes with a tiny
    denominator or non-positive confidence are skipped; confidence is the
    own-vs-other magnitude ratio, positive when the two updates oppose (the
    expected geometry) and negative when the assumption failed at that node.
    Surviving estimates are averaged with normalized confidence weights and
    the result is clamped into [0, total_samples]; a class with no surviving
    node falls back to total/Q.
    """
    if not total_samples > 0:
        raise ValueError("total_samples must be > 0")
    own = aux_grads.own
    q_total, s = own.shape
    other = (aux_grads.class_sum.T - own) / max(q_total - 1, 1)  # +0.0 when Q = 1
    # other == 0 with own != 0 means no competing class touches this
    # weight: the equation collapses to own * x = rhs and the node is
    # maximally confident rather than skippable.
    live = np.abs(other) > DENOM_EPSILON
    conf = np.divide(-own, other, out=np.zeros((q_total, s)), where=live)
    conf[~live & (np.abs(own) > DENOM_EPSILON)] = np.inf

    denom = own - other
    ok = (np.abs(denom) > DENOM_EPSILON) & (conf > 0.0)
    rhs = (aux_grads.n_aux * num_selected)[:, None] * (w_new - w_prev).T
    estimates = np.where(ok, (rhs - other * total_samples) / np.where(ok, denom, 1.0), np.nan)
    used = ok.sum(axis=1)
    fallback = used == 0

    # The weighted sum runs over each class's surviving nodes compacted; a
    # masked sum over all s nodes would round differently.
    counts = np.zeros(q_total)
    for p in range(q_total):
        if fallback[p]:
            logger.warning("class %d: every node skipped, falling back to total/Q", p)
            counts[p] = total_samples / q_total
            continue
        conf_ok = conf[p, ok[p]]
        exact = np.isinf(conf_ok)
        weights = exact / exact.sum() if exact.any() else conf_ok / conf_ok.sum()
        counts[p] = float(np.dot(weights, estimates[p, ok[p]]))

    return CountEstimate(
        counts=np.clip(counts, 0.0, total_samples),
        node_estimates=estimates,
        node_confidences=conf,
        used_node_count=used,
        fallback=fallback,
    )


def counts_to_ratio(counts: Array) -> Array:
    """Normalize non-negative counts to a probability vector (uniform if all zero)."""
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total == 0.0:
        logger.warning("all-zero count estimate, falling back to the uniform ratio")
        return np.full(len(counts), 1.0 / len(counts))
    return counts / total


def oracle_counts(label_arrays: list[Array], num_classes: int) -> Array:
    """Exact per-class counts over the selected clients' in-scope samples.

    Simulation-side ground truth for scoring the estimator; never available
    to the server algorithm.
    """
    counts = np.zeros(num_classes)
    for labels in label_arrays:
        counts += np.bincount(np.asarray(labels, dtype=int), minlength=num_classes)
    return counts
