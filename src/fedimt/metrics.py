"""Evaluation, the experiment report and its deterministic outputs.

RoundRecord declares every per-round output once; the CSV columns and the
JSON records derive from its fields, and each value's conversion follows the
value, not its field's type. CSV rows cover one round each (round 0 is the
initial evaluation); a cell is empty for None, an integer for a bool or an
int, and any other number with 9 significant digits, and identical runs
produce byte-equal files. JSON mirrors the full report losslessly, as strict
JSON that json.load reads; an array is a list of its own element type.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

import numpy as np

from .data import write_file
from .nn import Array, MlpModel, forward


@dataclass
class EvalResult:
    accuracy: float
    minority_accuracy: float | None


# Rows per block of the test pass, so a block's hidden activations stay in cache.
_BLOCK = 1024
# The float32 pass runs only while every parameter, and the bound on every
# activation and partial sum, stays below this; float32 overflows at 2^128.
_FLOAT32_LIMIT = 2.0**100
# (unit roundoff, smallest subnormal) of float32 and of float64.
_FLOAT32 = (2.0**-24, 2.0**-149)
_FLOAT64 = (2.0**-53, 2.0**-1074)
# Covers the rounding of the bound's own float64 arithmetic and row norms.
_BOUND_SLACK = 1.0 + 2.0**-20
# Below this many test rows x parameters, about the pass's multiply-adds,
# evaluate runs float64 throughout: the float32 pass's fixed cost (casts,
# bounds, certificate: ~0.1 ms) exceeds its saving of ~0.04 ns a
# multiply-add. Measured on one core: 1,000 rows through 32-32-10 (1.4
# million) took 0.25 ms in float32 against 0.19 ms in float64, and 6,000
# rows through 64-128-40 (81 million) 3.1 ms against 6.2 ms.
_FLOAT32_MIN_WORK = 2**23


class EvalSet:
    """A test split, validated once and laid out for evaluate.

    features (n, d) float64 are the rows the float64 pass reads. The float32
    pass reads features32, their (d, n) float32 copy, a block of columns at
    a time, and norms, each row's Euclidean norm, the error bound's input;
    both are built on the first call that runs the float32 pass. The
    features are not copied again, so they must not change while the
    EvalSet is in use. minority masks the rows whose label is a minority
    class (classes with below-average training prevalence, from the
    simulation-side oracle); it is None when no row is one, and minority
    accuracy is then reported as None.
    """

    def __init__(self, features: Array, labels: Array, minority_classes: Array | None = None):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if len(labels) == 0:
            raise ValueError("test set is empty")
        if features.ndim != 2 or len(features) != len(labels):
            raise ValueError(f"{len(features)} feature rows for {len(labels)} labels")
        if labels.min() < 0:
            raise ValueError("labels must be >= 0")
        self.features = features
        self.labels = labels
        self.max_label = int(labels.max())
        mask = None
        if minority_classes is not None and len(minority_classes) > 0:
            mask = np.isin(labels, minority_classes)
        self.minority = mask if mask is not None and mask.any() else None

    # A feature beyond float32's range casts to inf, but its row's norm, at
    # least as large, then keeps every call on the float64 path.
    @cached_property
    def features32(self) -> Array:
        features = self.features
        copy = np.empty(features.shape[::-1], dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(features), _BLOCK):  # a block's transpose stays in cache
                copy[:, start : start + _BLOCK] = features[start : start + _BLOCK].T
        return copy

    @cached_property
    def norms(self) -> Array:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.sqrt(np.einsum("ij,ij->i", self.features, self.features))


def evaluate(model: MlpModel, test: EvalSet) -> EvalResult:
    """Argmax accuracy and minority-restricted accuracy.

    The prediction is the argmax of the float64 logits, taken in blocks of
    1,024 rows (_float64_predictions). The softmax is monotone, so it is not
    computed; it could only add ties between logits closer than its
    rounding. On a large enough test pass the same predictions come from a
    float32 pass wherever a rigorous error bound proves them, and from
    float64 where it does not (_float32_correct), so every prediction is
    the float64 one.
    """
    q = model.num_classes
    if test.max_label >= q:
        raise ValueError(f"labels must lie in [0, {q})")
    if test.features.shape[1] != model.layer_sizes[0]:
        raise ValueError(
            f"test features of width {test.features.shape[1]} for input layer {model.layer_sizes[0]}"
        )
    correct = None
    if len(test.labels) * model.params.size >= _FLOAT32_MIN_WORK:
        correct = _float32_correct(model, test)
    if correct is None:
        correct = _float64_predictions(model, test.features) == test.labels
    accuracy = float(np.count_nonzero(correct) / len(correct))
    minority_accuracy = None if test.minority is None else float(correct[test.minority].mean())
    return EvalResult(accuracy=accuracy, minority_accuracy=minority_accuracy)


def _float64_predictions(model: MlpModel, features: Array) -> Array:
    """The float64 argmax, block by block: the predictions every other path
    reproduces."""
    blocks = range(-(-len(features) // _BLOCK))
    return np.concatenate([_block_predictions(model, features, block) for block in blocks])


def _block_predictions(model: MlpModel, features: Array, block: int) -> Array:
    """The float64 argmax of rows [block * _BLOCK, (block + 1) * _BLOCK)."""
    start = block * _BLOCK
    return forward(model, features[start : start + _BLOCK]).logits.argmax(axis=1)


def _layer_norms(model: MlpModel) -> list[tuple[int, int, float, float]]:
    """(fan_in, outputs, |W|, |b|) per layer, for _logit_error: a hidden
    layer's Frobenius and bias norms over its fan_out outputs, and the last
    layer's largest column norm and largest |b|, whose bound holds per
    logit (outputs 1)."""
    *hidden, (w_out, b_out) = zip(model.weights, model.biases)
    norms = [(w.shape[0], w.shape[1], float(np.linalg.norm(w)), float(np.linalg.norm(b))) for w, b in hidden]
    column = float(np.sqrt(np.einsum("ij,ij->j", w_out, w_out).max()))
    return norms + [(w_out.shape[0], 1, column, float(np.abs(b_out).max()))]


def _logit_error(norms, unit: float, tiny: float, max_norm: float) -> tuple[float, float, float]:
    """(a, c, peak) for a forward pass in a precision with unit roundoff
    `unit` and smallest subnormal `tiny`, from _layer_norms: each computed
    logit of an input x lies within a*|x| + c of the exact one, and no
    activation or partial sum exceeds peak for |x| <= max_norm. peak sums
    the layers' bounds, so a NaN or inf in any of them reaches it.

    A layer's dot products of length m, with the casts of input, weight and
    bias and the bias add, carry n = m + 3 roundings, so in any summation
    order, FMA or not, each output is off by at most gamma_n = n*u/(1 - n*u)
    times sum |w||h| + |b|, plus 2*tiny per operation for gradual underflow
    (times |w| or |h| for a cast). Over a layer, with h the exact input,
    h' the computed one and |h'| <= |h| + |h' - h|:
        |z' - z| <= |W||h' - h| + gamma_n (|W||h'| + |b|) + eta (|h'| + |W| + 1),
    eta = 2*tiny*n*sqrt(outputs). ReLU is 1-Lipschitz and never grows a
    norm. Each bound is linear in |x|, carried as its (slope, intercept)
    pair.
    """
    size, err, peak = (1.0, 0.0), (0.0, 0.0), max_norm
    for fan_in, outputs, norm, bias in norms:
        n = fan_in + 3
        gamma = n * unit / (1.0 - n * unit)
        eta = 2.0 * tiny * n * math.sqrt(outputs)
        reach = (size[0] + err[0], size[1] + err[1])  # bounds |h'|
        grow = gamma * norm + eta
        err = (
            norm * err[0] + grow * reach[0],
            norm * err[1] + grow * reach[1] + gamma * bias + eta * (norm + 1.0),
        )
        size = (norm * size[0], norm * size[1] + bias)
        peak += norm * (reach[0] * max_norm + reach[1]) + bias
    return err[0] * _BOUND_SLACK, err[1] * _BOUND_SLACK, peak


def _float32_blocks(model: MlpModel, test: EvalSet):
    """Yield (rows, logits) for each block of _BLOCK test rows: a slice and
    its (q, len) logits from a float32 pass, class-major. The weights are
    cast per call as (fan_out, fan_in). Every block is written into the same
    buffers, so a block's logits hold only until the next is yielded."""
    layers = [
        (np.ascontiguousarray(w.T, dtype=np.float32), b.astype(np.float32)[:, None])
        for w, b in zip(model.weights, model.biases)
    ]
    x = test.features32
    n = x.shape[1]
    buffers = [np.empty((w.shape[0], min(n, _BLOCK)), dtype=np.float32) for w, _ in layers]
    last = len(layers) - 1
    for start in range(0, n, _BLOCK):
        rows = slice(start, min(start + _BLOCK, n))
        h = x[:, rows]
        for i, ((w, b), buffer) in enumerate(zip(layers, buffers)):
            h = np.matmul(w, h, out=buffer[:, : rows.stop - start])
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
        yield rows, h


def _float32_correct(model: MlpModel, test: EvalSet) -> Array | None:
    """Which rows the float64 predictions get right, proved from a float32
    pass; None when a float32 value could overflow (a non-finite or huge
    parameter, a huge feature), and the caller runs float64 throughout.

    Row x's float32 and float64 logits each lie within their bound of the
    exact ones, so within E(x) = A|x| + C, the two bounds added, of each
    other. A row whose float32 top logit beats every other by more than 2E
    has the same unique argmax in float64: the row is certified, and it is
    right iff its label's logit is the top. Every other row takes the
    float64 argmax of its gathered row where that is proved, and of its
    recomputed block where it is not.
    """
    if not float(np.abs(model.params).max()) < _FLOAT32_LIMIT:
        return None
    norms, max_norm = _layer_norms(model), float(test.norms.max())
    a32, c32, peak = _logit_error(norms, *_FLOAT32, max_norm)
    if not (peak < _FLOAT32_LIMIT and a32 + c32 < _FLOAT32_LIMIT):
        return None
    a64, c64, _ = _logit_error(norms, *_FLOAT64, max_norm)  # a64 <= a32, c64 <= c32
    bound = (a32 + a64) * test.norms + (c32 + c64)
    certified = np.empty(len(bound), dtype=bool)
    correct = np.empty(len(bound), dtype=bool)
    for rows, logits in _float32_blocks(model, test):
        top = logits.max(axis=0)
        # top - 2E in float64, rounded to float32, then one float32 step
        # down: below top - 2E however the subtraction and the cast rounded.
        floor = np.nextafter((top - 2.0 * bound[rows]).astype(np.float32), np.float32(-np.inf))
        # The top logit always clears its floor, so one class of one is certified.
        certified[rows] = np.count_nonzero(logits >= floor, axis=0) == 1
        correct[rows] = logits[test.labels[rows], np.arange(len(top))] == top
    unsure = np.flatnonzero(~certified)
    if unsure.size:
        bound64 = a64 * test.norms[unsure] + c64
        predicted, settled = _gathered_predictions(model, test.features[unsure], bound64)
        blocks = unsure // _BLOCK
        for block in np.unique(blocks[~settled]):
            redo = ~settled & (blocks == block)
            predicted[redo] = _block_predictions(model, test.features, block)[unsure[redo] % _BLOCK]
        correct[unsure] = predicted == test.labels[unsure]
    return correct


def _gathered_predictions(model: MlpModel, rows: Array, bound64: Array) -> tuple[Array, Array]:
    """The float64 argmax of gathered rows (each with two classes or more),
    and where it is proved equal to the blocked one.

    A float64 forward of gathered rows can differ from the blocked one in
    the last bits, each within bound64 of the exact logits, so within
    2*bound64 of each other. The argmax stands where its top-two margin
    exceeds 4*bound64; the caller recomputes every other row's block.
    """
    logits = forward(model, rows).logits
    top_two = np.partition(logits, logits.shape[1] - 2, axis=1)[:, -2:]
    return logits.argmax(axis=1), top_two[:, 1] - top_two[:, 0] > 4.0 * bound64


def _out(key: str, csv: bool | str = False, **default):
    """A report field: its JSON key and its CSV column, declared once. csv is
    True for one column named key, or a prefix for one column per class."""
    return field(**(default or {"default": None}), metadata={"key": key, "csv": csv})


@dataclass
class RoundRecord:
    """One round of the report; round 0 is the initial evaluation.

    Each field names its JSON key and its CSV column once, here. The CSV
    shows the csv fields in declaration order, and the JSON every field;
    a field that a round leaves unset is None.
    """

    index: int = _out("round", csv=True, default=MISSING)
    dropped: bool | None = _out("dropped", csv=True)
    t_round: float | None = _out("T_j", csv=True)
    t_global: float | None = _out("T_G", csv=True)
    accuracy: float | None = _out("acc", csv=True)
    minority_accuracy: float | None = _out("acc_minority", csv=True)
    train_loss: float | None = _out("loss", csv=True)
    observer_ratio: Array | None = _out("observer_ratio", csv="r_hat")
    selected_clients: list[int] = _out("selected_clients", default_factory=list)
    estimated_counts: Array | None = _out("estimated_counts")
    round_ratio: Array | None = _out("round_ratio")
    drop_similarity: float | None = _out("drop_similarity")


# (attribute, JSON key, CSV flag or prefix) per RoundRecord field.
_FIELDS = [(f.name, f.metadata["key"], f.metadata["csv"]) for f in fields(RoundRecord)]
_CSV_FIELDS = [entry for entry in _FIELDS if entry[2]]


def _json(value):
    """An array as a list of its own element type; any other value as it is."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def _cell(value) -> str:
    """None is an empty cell, a bool or an int an integer, and any other
    number 9 significant digits."""
    if value is None:
        return ""
    if isinstance(value, int):  # bool is an int
        return str(int(value))
    return f"{value:.9g}"


@dataclass
class ExperimentReport:
    seed: int
    num_classes: int
    config: dict
    records: list[RoundRecord]
    summary: dict


# The summary's float entries, in the order the CLI prints them.
SUMMARY_FLOATS = ("final_acc", "final_acc_minority", "mean_T_j", "mean_T_G")


def summarize_records(records: list[RoundRecord]) -> dict:
    def present(name):
        return [v for v in (getattr(r, name) for r in records) if v is not None]

    def last(name):
        values = present(name)
        return float(values[-1]) if values else None

    def mean(name):
        values = present(name)
        return float(np.mean(values)) if values else None

    floats = (last("accuracy"), last("minority_accuracy"), mean("t_round"), mean("t_global"))
    summary = dict(zip(SUMMARY_FLOATS, floats))
    summary["drop_count"] = int(sum(1 for r in records if r.dropped))
    return summary


def report_csv_lines(report) -> list[str]:
    q = report.num_classes
    header = []
    for _, key, csv in _CSV_FIELDS:
        header += [key] if csv is True else [f"{csv}_{i}" for i in range(q)]
    lines = [",".join(header)]
    for rec in report.records:
        row = []
        for name, _, csv in _CSV_FIELDS:
            value = getattr(rec, name)
            if csv is True:
                row.append(_cell(value))
            else:  # one cell per class
                row += [""] * q if value is None else [_cell(v) for v in value.tolist()]
        lines.append(",".join(row))
    return lines


def write_metrics(report, csv_path: str, json_path: str) -> None:
    """Write the per-round CSV and the lossless JSON mirror. Both texts are
    built first, so a report with a non-finite value writes neither file."""
    data = report_to_dict(report)
    try:
        json_text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(f"cannot write JSON to {json_path}: {_non_finite_at(data)} is not finite") from None
    csv_text = "\n".join(report_csv_lines(report)) + "\n"
    for kind, path, text in (("CSV", csv_path, csv_text), ("JSON", json_path, json_text)):
        try:
            write_file(path, text.encode("utf-8"))
        except OSError as exc:
            raise OSError(f"cannot write {kind} to {path}: {exc}") from exc


def _non_finite_at(value, where: str = "") -> str | None:
    """The JSON path of the first non-finite float in value, in key order."""
    if isinstance(value, float):
        return None if math.isfinite(value) else where
    if isinstance(value, dict):
        children = ((f"{where}.{key}" if where else key, value[key]) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        children = ((f"{where}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_at(item, at) for at, item in children)), None)


def report_to_dict(report) -> dict:
    return {
        "seed": int(report.seed),
        "num_classes": int(report.num_classes),
        "config": report.config,
        "summary": report.summary,
        "records": [
            {key: _json(getattr(rec, name)) for name, key, _ in _FIELDS}
            for rec in report.records
        ],
    }
