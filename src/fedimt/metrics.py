"""Evaluation, the experiment report and its deterministic outputs.

RoundRecord declares every per-round output once; the CSV columns, the JSON
records and the JSON reader all derive from its fields. CSV rows cover one
round each (round 0 is the initial evaluation); numbers are printed with 9
significant digits and identical runs produce byte-equal files. JSON mirrors
the full report losslessly and round-trips back into report objects.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .nn import Array, MlpModel, forward


@dataclass
class EvalResult:
    accuracy: float
    minority_accuracy: float | None


def evaluate(
    model: MlpModel,
    features: Array,
    labels: Array,
    minority_classes: Array | None = None,
) -> EvalResult:
    """Argmax accuracy and minority-restricted accuracy.

    The prediction is the argmax of the logits, taken in blocks of 1,024
    rows so the hidden activations stay in cache. The softmax is monotone,
    so it is not computed; it could only add ties between logits closer
    than its rounding. minority_classes comes from the simulation-side
    training oracle (classes with below-average training prevalence); None
    or empty means minority accuracy is undefined and reported as None.
    """
    labels = np.asarray(labels, dtype=int)
    if len(labels) == 0:
        raise ValueError("test set is empty")
    if len(features) != len(labels):
        raise ValueError(f"{len(features)} feature rows for {len(labels)} labels")
    q = model.num_classes
    if labels.min() < 0 or labels.max() >= q:
        raise ValueError(f"labels must lie in [0, {q})")
    blocks = np.split(features, range(1024, len(features), 1024))
    pred = np.concatenate([forward(model, x).logits.argmax(axis=1) for x in blocks])
    accuracy = float(np.count_nonzero(pred == labels) / len(labels))

    minority_accuracy = None
    if minority_classes is not None and len(minority_classes) > 0:
        mask = np.isin(labels, minority_classes)
        if mask.any():
            minority_accuracy = float((pred[mask] == labels[mask]).mean())
    return EvalResult(accuracy=accuracy, minority_accuracy=minority_accuracy)


class _Codec(NamedTuple):
    """How one RoundRecord field is written and read, chosen from its type."""

    to_json: Callable
    from_json: Callable
    to_csv: Callable  # (value, num_classes) -> list of cells


def _unless_none(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


def _same(value):
    return value


def _float_cell(value) -> str:
    return "" if value is None else f"{float(value):.9g}"


def _codec(hint) -> _Codec:
    """An array is a list of floats, a float a float and a list of ints a
    list of ints; an int or a bool passes through. CSV cells carry 9
    significant digits, a bool reads 1 or 0, and None is an empty cell."""
    args = get_args(hint) or (hint,)
    if Array in args:
        return _Codec(
            _unless_none(lambda values: np.asarray(values, dtype=float).tolist()),
            _unless_none(lambda values: np.asarray(values, dtype=float)),
            lambda values, q: [""] * q if values is None else [_float_cell(v) for v in values],
        )
    if float in args:
        return _Codec(_unless_none(float), _same, lambda value, q: [_float_cell(value)])
    if get_origin(hint) is list:
        return _Codec(lambda values: [int(v) for v in values], list, None)
    if bool in args:
        return _Codec(_same, _same, lambda value, q: ["" if value is None else str(int(value))])
    return _Codec(_same, _same, lambda value, q: [str(value)])


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


# (attribute, JSON key, CSV flag or prefix, codec) per RoundRecord field.
_HINTS = get_type_hints(RoundRecord)
_FIELDS = [
    (f.name, f.metadata["key"], f.metadata["csv"], _codec(_HINTS[f.name]))
    for f in fields(RoundRecord)
]
_CSV_FIELDS = [entry for entry in _FIELDS if entry[2]]


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
    for _, key, csv, _ in _CSV_FIELDS:
        header += [key] if csv is True else [f"{csv}_{i}" for i in range(q)]
    lines = [",".join(header)]
    for rec in report.records:
        row = []
        for name, _, _, codec in _CSV_FIELDS:
            row += codec.to_csv(getattr(rec, name), q)
        lines.append(",".join(row))
    return lines


def write_metrics(report, csv_path: str, json_path: str) -> None:
    """Write the per-round CSV and the lossless JSON mirror."""
    try:
        with open(csv_path, "w", encoding="utf-8", newline="") as f:
            f.write("\n".join(report_csv_lines(report)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {csv_path}: {exc}") from exc
    try:
        with open(json_path, "w", encoding="utf-8", newline="") as f:
            json.dump(report_to_dict(report), f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write JSON to {json_path}: {exc}") from exc


def report_to_dict(report) -> dict:
    return {
        "seed": int(report.seed),
        "num_classes": int(report.num_classes),
        "config": report.config,
        "summary": report.summary,
        "records": [
            {key: codec.to_json(getattr(rec, name)) for name, key, _, codec in _FIELDS}
            for rec in report.records
        ],
    }


def report_from_json(json_path: str) -> ExperimentReport:
    with open(json_path, "r", encoding="utf-8") as f:
        data = json.load(f)
    records = [
        RoundRecord(**{name: codec.from_json(r[key]) for name, key, _, codec in _FIELDS})
        for r in data["records"]
    ]
    return ExperimentReport(
        seed=data["seed"],
        num_classes=data["num_classes"],
        config=data["config"],
        records=records,
        summary=data["summary"],
    )
