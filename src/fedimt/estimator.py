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
from .nn import Array, MlpModel, forward

logger = logging.getLogger(__name__)

# A probe update or denominator no larger than this in magnitude counts as zero.
DENOM_EPSILON = 1e-12


@dataclass
class EstimatorParams:
    """The unit-calibration constant.

    scale_cal multiplies the probe updates; 1.0 is exact for single-client,
    single-batch, momentum-0 rounds (the calibration oracle). It sets the
    probe's unit against the observed update: scaling both by one factor
    leaves the ratio unchanged, but scaling the probe alone moves it, so it
    stays frozen at 1.0.
    """

    scale_cal: float = 1.0

    def validate(self) -> None:
        if not self.scale_cal > 0.0:
            raise ValueError("scale_cal must be > 0")


@dataclass
class AuxGradients:
    """Per-class expected last-layer updates from the auxiliary probe.

    per_class is (Q, s, Q), and per_class[q] is (s, Q): the summed
    per-sample cross-entropy gradient of class q's probe samples, scaled by
    -lr*local_epochs/batch_size*scale_cal so its units match one aggregation
    round's observed weight delta.
    """

    per_class: Array
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
    params: EstimatorParams | None = None,
) -> AuxGradients:
    """Expected per-class last-layer updates on the previous global model.

    Each class's probe samples are pushed through the model with plain
    cross-entropy; the per-sample last-layer gradients are summed (not
    averaged) so the class's auxiliary count stays in the update's units.
    """
    params = params or EstimatorParams()
    params.validate()
    q_total = prev_model.num_classes
    if aux.num_classes != q_total:
        raise ValueError(
            f"auxiliary set covers {aux.num_classes} classes, model has {q_total}"
        )
    scale = -(lr * local_epochs / batch_size) * params.scale_cal
    per_class = np.empty((q_total, prev_model.layer_sizes[-2], q_total))
    for q, feats in enumerate(aux.class_features):
        if len(feats) == 0:
            raise ValueError(f"auxiliary class {q} is empty")
        acts = forward(prev_model, feats)
        # acts is local to this iteration, so its softmax can take the
        # one-hot subtraction in place.
        grad = acts.probabilities
        grad[:, q] -= 1.0
        np.matmul(acts.hidden_outputs.T, grad, out=per_class[q])
        per_class[q] *= scale
    return AuxGradients(per_class=per_class, n_aux=aux.per_class_count.astype(float))


def estimate_counts(
    aux_grads: AuxGradients,
    w_prev: Array,
    w_new: Array,
    total_samples: float,
    num_selected: int,
) -> CountEstimate:
    """Solve the per-node linear equations and combine with confidence weights.

    For class p and hidden node m, with own = probe update of class p and
    other = mean probe update of the remaining classes at entry (m, p):

        own * x + other * (total - x) = n_aux_p * K * (w_new - w_prev)[m, p]

    is solved for x (the class-p sample count this round). Nodes with a tiny
    denominator or non-positive confidence are skipped; confidence is the
    own-vs-other magnitude ratio, positive when the two updates oppose (the
    expected geometry) and negative when the assumption failed at that node.
    Surviving estimates are averaged with normalized confidence weights and
    the result is clamped into [0, total_samples]; a class with no surviving
    node falls back to total/Q.
    """
    if total_samples <= 0:
        raise ValueError("total_samples must be > 0")
    per_class = aux_grads.per_class  # (Q, s, Q)
    q_total, s = per_class.shape[:2]
    classes = np.arange(q_total)
    # Row p of own and other: class p's probe update at column p, and the
    # mean of the other classes' updates there.
    own = per_class[classes, :, classes]
    if q_total > 1:
        other = (per_class.sum(axis=0).T - own) / (q_total - 1)
    else:
        other = np.zeros((q_total, s))
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
