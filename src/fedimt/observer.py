"""Autoregressive tracking of the global class ratio.

Blends each round's fresh composition estimate into a running state with a
fixed gain (the client selection rate), decides whether a round's estimate
mismatches history badly enough to drop its aggregation (its cosine to the
tracked ratio below the threshold the caller passes), and converts the
tracked ratio into per-class loss weights via effective numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Array, effective_number_weight

_PROB_TOL = 1e-6


@dataclass
class RatioObserverState:
    ratio: Array  # current tracked class ratio, sums to 1
    round_count: int
    gain: float


@dataclass
class DropDecision:
    dropped: bool
    similarity: float


def cosine_similarity(a: Array, b: Array) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("cosine similarity of a non-finite vector is undefined")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity of a zero vector is undefined")
    return float(np.dot(a, b) / (na * nb))


def observer_init(num_classes: int, gain: float) -> RatioObserverState:
    """Fresh observer starting from the uniform ratio 1/Q."""
    if num_classes < 2:
        raise ValueError("observer needs at least 2 classes")
    if not 0.0 < gain <= 1.0:
        raise ValueError(f"gain must be in (0, 1], got {gain}")
    return RatioObserverState(ratio=np.full(num_classes, 1.0 / num_classes), round_count=0, gain=gain)


def _check_ratio(state: RatioObserverState, r_j: Array) -> Array:
    r_j = np.asarray(r_j, dtype=float)
    if r_j.shape != state.ratio.shape:
        raise ValueError(f"ratio length {r_j.shape} != {state.ratio.shape}")
    if not np.all(np.isfinite(r_j)):
        raise ValueError("observation has a non-finite entry")
    if np.any(r_j < 0.0) or abs(r_j.sum() - 1.0) > _PROB_TOL:
        raise ValueError("observation is not a probability vector")
    return r_j


def observer_update(state: RatioObserverState, r_j: Array) -> RatioObserverState:
    """Fold one round's estimate into the state.

    The first observation is adopted verbatim. Afterwards the raw recursion
    (1-gain)/2 * previous + gain/2 * new is applied and renormalized to sum 1:
    the raw coefficients add to 1/2, so without renormalization the state
    would decay toward zero instead of tracking a ratio.
    """
    r_j = _check_ratio(state, r_j)
    if state.round_count == 0:
        new_ratio = r_j.copy()
    else:
        raw = (1.0 - state.gain) / 2.0 * state.ratio + state.gain / 2.0 * r_j
        new_ratio = raw / raw.sum()
    return RatioObserverState(ratio=new_ratio, round_count=state.round_count + 1, gain=state.gain)


def mismatch_check(state: RatioObserverState, r_j: Array, threshold: float) -> DropDecision:
    """Drop when the fresh estimate's cosine to the tracked ratio falls below
    threshold (the run's drop_threshold). Never called before the first
    observation exists."""
    if state.round_count < 1:
        raise ValueError("mismatch_check requires at least one prior observation")
    r_j = _check_ratio(state, r_j)
    similarity = cosine_similarity(r_j, state.ratio)
    return DropDecision(dropped=similarity < threshold, similarity=similarity)


def balanced_weights(ratio: Array, n_ref: float, beta: float) -> Array:
    """Per-class loss weights from effective numbers of n_q = round(n_ref * r_q).

    Weights are rescaled so their ratio-weighted mean is 1, keeping the loss
    magnitude comparable across rounds; relative weighting is unchanged.
    """
    ratio = np.asarray(ratio, dtype=float)
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    if n_ref < len(ratio):
        raise ValueError(f"n_ref must be >= number of classes, got {n_ref}")
    n_q = np.maximum(1.0, np.rint(n_ref * ratio))
    weights = effective_number_weight(n_q, beta)
    return weights / float(np.dot(ratio, weights))
