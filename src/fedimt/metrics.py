"""Evaluation and deterministic experiment outputs.

CSV rows cover one round each (round 0 is the initial evaluation); numbers
are printed with 9 significant digits and identical runs produce byte-equal
files. JSON mirrors the full report losslessly and round-trips back into
report objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .nn import Array, MlpModel, forward


@dataclass
class EvalResult:
    accuracy: float
    per_class_accuracy: Array
    minority_accuracy: float | None
    confusion: Array  # (Q, Q), rows = true class


def evaluate(
    model: MlpModel,
    features: Array,
    labels: Array,
    minority_classes: Array | None = None,
) -> EvalResult:
    """Argmax accuracy, per-class accuracy, minority-restricted accuracy.

    The prediction is the argmax of the logits. The softmax is monotone, so
    it is not computed; it could only add ties between logits closer than
    its rounding. minority_classes comes from the simulation-side training
    oracle (classes with below-average training prevalence); None or empty
    means minority accuracy is undefined and reported as None.
    """
    labels = np.asarray(labels, dtype=int)
    if len(labels) == 0:
        raise ValueError("test set is empty")
    q = model.num_classes
    if labels.min() < 0 or labels.max() >= q:
        raise ValueError(f"labels must lie in [0, {q})")
    pred = forward(model, features).logits.argmax(axis=1)
    confusion = np.bincount(labels * q + pred, minlength=q * q).reshape(q, q)
    row_totals = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(row_totals > 0, np.diag(confusion) / row_totals, np.nan)
    accuracy = float(np.trace(confusion) / len(labels))

    minority_accuracy = None
    if minority_classes is not None and len(minority_classes) > 0:
        mask = np.isin(labels, minority_classes)
        if mask.any():
            minority_accuracy = float((pred[mask] == labels[mask]).mean())
    return EvalResult(
        accuracy=accuracy,
        per_class_accuracy=per_class,
        minority_accuracy=minority_accuracy,
        confusion=confusion,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def report_csv_lines(report) -> list[str]:
    q = report.num_classes
    header = ["round", "dropped", "T_j", "T_G", "acc", "acc_minority", "loss"]
    header += [f"r_hat_{i}" for i in range(q)]
    lines = [",".join(header)]
    for rec in report.records:
        row = [
            str(rec.index),
            _fmt(rec.dropped),
            _fmt(rec.t_round),
            _fmt(rec.t_global),
            _fmt(rec.accuracy),
            _fmt(rec.minority_accuracy),
            _fmt(rec.train_loss),
        ]
        if rec.observer_ratio is None:
            row += [""] * q
        else:
            row += [_fmt(v) for v in rec.observer_ratio]
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


def _arr(values) -> list[float] | None:
    if values is None:
        return None
    return [float(v) for v in values]


def _opt_float(value) -> float | None:
    return None if value is None else float(value)


def report_to_dict(report) -> dict:
    return {
        "seed": int(report.seed),
        "num_classes": int(report.num_classes),
        "config": report.config,
        "summary": report.summary,
        "records": [
            {
                "round": int(rec.index),
                "selected_clients": [int(c) for c in rec.selected_clients],
                "estimated_counts": _arr(rec.estimated_counts),
                "round_ratio": _arr(rec.round_ratio),
                "observer_ratio": _arr(rec.observer_ratio),
                "T_j": _opt_float(rec.t_round),
                "T_G": _opt_float(rec.t_global),
                "dropped": rec.dropped,
                "drop_similarity": _opt_float(rec.drop_similarity),
                "acc": _opt_float(rec.accuracy),
                "acc_minority": _opt_float(rec.minority_accuracy),
                "loss": _opt_float(rec.train_loss),
            }
            for rec in report.records
        ],
    }


def report_from_json(json_path: str):
    from .federation import ExperimentReport, RoundRecord

    with open(json_path, "r", encoding="utf-8") as f:
        data = json.load(f)

    def arr(v):
        return None if v is None else np.asarray(v, dtype=float)

    records = [
        RoundRecord(
            index=r["round"],
            selected_clients=list(r["selected_clients"]),
            estimated_counts=arr(r["estimated_counts"]),
            round_ratio=arr(r["round_ratio"]),
            observer_ratio=arr(r["observer_ratio"]),
            t_round=r["T_j"],
            t_global=r["T_G"],
            dropped=r["dropped"],
            drop_similarity=r["drop_similarity"],
            accuracy=r["acc"],
            minority_accuracy=r["acc_minority"],
            train_loss=r["loss"],
        )
        for r in data["records"]
    ]
    return ExperimentReport(
        seed=data["seed"],
        num_classes=data["num_classes"],
        config=data["config"],
        records=records,
        summary=data["summary"],
    )
