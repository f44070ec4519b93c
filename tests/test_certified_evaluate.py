"""evaluate's float32 pass against the blocked float64 evaluate it replaced.

evaluate takes a row's prediction from a float32 pass where an error bound
certifies its argmax. Otherwise it runs a float64 forward of the gathered
rows where that forward's margin proves the blocked argmax, and recomputes
the row's block where it does not. When a float32 value could overflow, the
blocked float64 pass runs throughout. Every prediction must equal
reference_blocked_predictions', bit for bit. The cases build in the exact
ties, near ties and extreme values that send rows down each path, and the
test counts that each path ran.
"""

from collections import Counter
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedimt import metrics
from fedimt.metrics import EvalSet, evaluate
from fedimt.nn import forward, mlp_init
from reference import reference_blocked_evaluate, reference_blocked_predictions

KINDS = ("plain", "tie", "near_tie_f32", "near_tie_f64", "non_finite", "huge_features")
# A near tie's top-two gap relative to its top logit: below float32's error
# bound but far above float64's, or below both.
GAPS = {"near_tie_f32": 1e-7, "near_tie_f64": 1e-15}


@st.composite
def cases(draw):
    depth = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 40)) for _ in range(depth)] + [draw(st.integers(1, 12))]
    rows = draw(st.sampled_from([1, 5, 100, 1024, 1500, 2600]))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 2**32 - 1))
    return sizes, rows, scale, kind, seed


def near_ties(model, features, relative_gap):
    """Move each row so that its top two logits differ by relative_gap of
    the top one: one Newton step along the gradient of their difference,
    exact while the row keeps its ReLU pattern."""
    acts = forward(model, features)
    logits = acts.logits
    rows = np.arange(len(features))
    second, top = np.argsort(logits, axis=1)[:, -2:].T
    grad = (model.weights[-1][:, top] - model.weights[-1][:, second]).T
    for k in reversed(range(len(model.weights) - 1)):
        grad = (grad * (acts.outputs[k + 1] > 0)) @ model.weights[k].T
    diff = logits[rows, top] - logits[rows, second]
    target = relative_gap * np.abs(logits[rows, top])
    norm2 = np.einsum("ij,ij->i", grad, grad)
    step = np.divide(diff - target, norm2, out=np.zeros_like(diff), where=norm2 > 0)
    return features - step[:, None] * grad


def build(sizes, rows, scale, kind, seed):
    """A random model and its features, with the case's ties or extreme values built in."""
    rng = np.random.default_rng(seed)
    model = mlp_init(sizes, seed=seed)
    for b in model.biases:
        b[:] = rng.normal(0.0, 1.0, b.shape)
    features = rng.normal(0.0, scale, (rows, sizes[0]))
    q = sizes[-1]
    if kind == "tie" and q >= 2:
        # Class j duplicates class i's column and bias, and both are lifted
        # over the rest, so most rows' top two tie exactly.
        w, b = model.weights[-1], model.biases[-1]
        i, j = rng.choice(q, 2, replace=False)
        w[:, j] = w[:, i]
        b[i] += 50.0 * (1.0 + scale)
        b[j] = b[i]
    elif kind in GAPS and q >= 2:
        half = rng.random(rows) < 0.5
        features[half] = near_ties(model, features[half], GAPS[kind])
    elif kind == "non_finite":
        model.params[rng.integers(model.params.size)] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == "huge_features":
        features *= 1e30 / scale
    return model, features


@contextmanager
def path_counts(seen: Counter):
    """Count the rows each of evaluate's paths settles, into seen."""
    float32_blocks = metrics._float32_blocks
    gathered_predictions = metrics._gathered_predictions
    float64_predictions = metrics._float64_predictions

    def count_float32(model, test):
        seen["certified"] += len(test.labels)
        return float32_blocks(model, test)

    def count_gathered(model, rows, bound64):
        predicted, settled = gathered_predictions(model, rows, bound64)
        seen["certified"] -= len(rows)
        seen["gathered"] += int(np.count_nonzero(settled))
        seen["recomputed"] += int(np.count_nonzero(~settled))
        return predicted, settled

    def count_float64(model, features):
        seen["float64"] += len(features)
        return float64_predictions(model, features)

    with mock.patch.multiple(
        metrics,
        _float32_blocks=count_float32,
        _gathered_predictions=count_gathered,
        _float64_predictions=count_float64,
    ):
        yield


def test_evaluate_predicts_the_blocked_float64_argmax():
    seen: Counter = Counter()

    # Derandomized, so the path counts asserted below hold on every run.
    # The cases are small, so the float32 pass runs at every size.
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=cases())
    @mock.patch.object(metrics, "_FLOAT32_MIN_WORK", 0)
    def check(case):
        sizes, rows, scale, kind, seed = case
        model, features = build(*case)
        rng = np.random.default_rng(seed + 1)
        q = sizes[-1]
        minority = rng.choice(q, int(rng.integers(0, q + 1)), replace=False)
        # A non-finite weight makes NaN logits, which the float64 argmax
        # takes as the largest; that is the behaviour to reproduce.
        quiet = np.errstate(all="ignore") if kind == "non_finite" else nullcontext()
        with quiet, path_counts(seen):
            predicted = reference_blocked_predictions(model, features)
            exact = evaluate(model, EvalSet(features, predicted, minority))
            labels = np.where(rng.random(rows) < 0.3, rng.integers(0, q, rows), predicted)
            got = evaluate(model, EvalSet(features, labels, minority))
            want = reference_blocked_evaluate(model, features, labels, minority)
        assert exact.accuracy == 1.0
        assert exact.minority_accuracy in (None, 1.0)
        assert got == want

    check()
    assert all(seen[path] > 0 for path in ("certified", "gathered", "recomputed", "float64")), seen


def test_small_passes_run_float64_throughout():
    # 64-128-40 has 13,480 parameters, so 623 rows reach _FLOAT32_MIN_WORK and 622 do not.
    model = mlp_init([64, 128, 40], seed=0)
    features = np.random.default_rng(0).normal(0.0, 1.0, (623, 64))
    labels = reference_blocked_predictions(model, features)
    for rows, path in ((622, "float64"), (623, "certified")):
        seen: Counter = Counter()
        with path_counts(seen):
            result = evaluate(model, EvalSet(features[:rows], labels[:rows]))
        assert result.accuracy == 1.0
        assert seen[path] > 0 and set(seen) <= {path, "gathered", "recomputed"}, seen


@pytest.mark.parametrize(
    "bound_of, settled",
    [
        (lambda gap: gap, False),
        (lambda gap: gap / 3.0, False),
        (lambda gap: gap / 4.0, False),
        (lambda gap: np.nextafter(gap / 4.0, 0.0), True),
        (lambda gap: gap / 64.0, True),
    ],
    ids=["gap=b", "gap=3b", "gap=4b", "gap=4b+ulp", "gap=64b"],
)
def test_gathered_argmax_stands_only_beyond_four_bounds(bound_of, settled):
    # Small-integer weights, biases and features: every product and partial
    # sum is an integer below 2^53, so the logits and their top-two gaps are
    # exact in any summation order, on any GEMM kernel. A gap of at most
    # 4*bound64 leaves the row to its block's recompute.
    rng = np.random.default_rng(0)
    model = mlp_init([5, 7, 6], seed=0)
    model.params[:] = rng.integers(-3, 4, model.params.size)
    features = rng.integers(-4, 5, (400, 5))
    w0, w1 = (w.astype(int) for w in model.weights)
    b0, b1 = (b.astype(int) for b in model.biases)
    logits = np.maximum(features @ w0 + b0, 0) @ w1 + b1
    top_two = np.sort(logits, axis=1)[:, -2:]
    gap = top_two[:, 1] - top_two[:, 0]
    keep = gap > 0
    assert np.count_nonzero(keep) > 100
    bound64 = bound_of(gap[keep].astype(float))
    predicted, got = metrics._gathered_predictions(model, features[keep].astype(float), bound64)
    np.testing.assert_array_equal(predicted, logits[keep].argmax(axis=1))
    assert np.all(got == settled)
