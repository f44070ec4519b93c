import json
from dataclasses import fields

import numpy as np
import pytest

from conftest import synthetic_exp_config
from fedimt.federation import run_experiment, summarize_records
from fedimt.metrics import (
    EvalSet,
    ExperimentReport,
    RoundRecord,
    evaluate,
    report_csv_lines,
    write_metrics,
)
from fedimt.nn import mlp_init


def constant_predictor(num_features, num_classes, winner):
    """Model whose output is always class `winner` regardless of input."""
    model = mlp_init([num_features, num_classes], seed=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.0
    model.biases[0][winner] = 10.0
    return model


def identity_predictor(num_classes):
    """Perfect model for one-hot features: logits = features."""
    model = mlp_init([num_classes, num_classes], seed=0)
    model.weights[0][:] = np.eye(num_classes) * 10.0
    model.biases[0][:] = 0.0
    return model


class TestEvaluate:
    def test_perfect_predictor(self):
        q = 4
        labels = np.array([0, 1, 2, 3, 1, 2, 0, 3])
        feats = np.eye(q)[labels]
        result = evaluate(identity_predictor(q), EvalSet(feats, labels, np.array([1])))
        assert result.accuracy == 1.0
        assert result.minority_accuracy == 1.0

    def test_majority_predictor_on_imbalanced_data(self):
        rng = np.random.default_rng(0)
        n = 1000
        labels = (rng.random(n) < 0.162).astype(int)
        feats = rng.normal(0, 1, (n, 3))
        model = constant_predictor(3, 2, winner=0)
        result = evaluate(model, EvalSet(feats, labels, np.array([1])))
        assert result.accuracy == pytest.approx(1.0 - labels.mean())
        assert result.minority_accuracy == 0.0

    def test_no_minority_classes_gives_none(self):
        labels = np.array([0, 1, 0, 1])
        feats = np.zeros((4, 2))
        model = constant_predictor(2, 2, winner=0)
        assert evaluate(model, EvalSet(feats, labels, np.array([], dtype=int))).minority_accuracy is None

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EvalSet(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_row_count_mismatch_rejected(self):
        # One prediction would otherwise broadcast against all five labels.
        with pytest.raises(ValueError, match="1 feature rows for 5 labels"):
            EvalSet(np.zeros((1, 3)), np.array([0, 1, 0, 0, 1]))


def hand_report(*records, num_classes=2):
    return ExperimentReport(seed=0, num_classes=num_classes, config={}, records=list(records), summary={})


class TestWriteByValue:
    def test_json_arrays_keep_their_element_type(self, tmp_path):
        rec = RoundRecord(
            index=1,
            t_round=1 / 3,
            observer_ratio=np.array([1 / 3, 2 / 3]),
            estimated_counts=np.array([3, 0]),
            round_ratio=np.array([True, False]),
        )
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        write_metrics(hand_report(rec), str(csv_path), str(json_path))
        back = json.loads(json_path.read_text())["records"][0]
        assert back["estimated_counts"] == [3, 0]
        assert [type(v) for v in back["estimated_counts"]] == [int, int]
        assert back["round_ratio"] == [True, False]
        assert [type(v) for v in back["round_ratio"]] == [bool, bool]
        # Floats, alone or in an array, come back bit for bit.
        assert back["T_j"] == 1 / 3 and back["observer_ratio"] == [1 / 3, 2 / 3]

    def test_csv_cells_follow_the_value(self):
        records = [
            RoundRecord(index=0),
            RoundRecord(index=7, dropped=True, t_round=1 / 3, accuracy=1.0, observer_ratio=np.array([0.25, 0.75])),
            RoundRecord(index=8, dropped=False, train_loss=1e-12, observer_ratio=np.array([1, 0])),
        ]
        assert report_csv_lines(hand_report(*records)) == [
            "round,dropped,T_j,T_G,acc,acc_minority,loss,r_hat_0,r_hat_1",
            "0,,,,,,,,",
            "7,1,0.333333333,,1,,,0.25,0.75",
            "8,0,,,,,1e-12,1,0",
        ]


class TestWriteMetrics:
    @pytest.fixture
    def report(self, tiny_config):
        return run_experiment(tiny_config, seed=4)

    def test_row_count_includes_round_zero(self, report, tiny_config):
        lines = report_csv_lines(report)
        assert len(lines) == 1 + tiny_config.fl.rounds + 1  # header + round 0 + rounds

    def test_header_layout(self, report):
        header = report_csv_lines(report)[0].split(",")
        assert header[:7] == ["round", "dropped", "T_j", "T_G", "acc", "acc_minority", "loss"]
        assert header[7:] == [f"r_hat_{i}" for i in range(report.num_classes)]

    def test_round_zero_row_is_evaluation_only(self, report):
        row = report_csv_lines(report)[1].split(",")
        assert row[0] == "0"
        assert row[1] == "" and row[2] == "" and row[3] == ""
        assert row[4] != ""

    def test_byte_identical_rerun(self, report, tiny_config, tmp_path):
        again = run_experiment(tiny_config, seed=4)
        paths = [tmp_path / n for n in ("a.csv", "a.json", "b.csv", "b.json")]
        write_metrics(report, str(paths[0]), str(paths[1]))
        write_metrics(again, str(paths[2]), str(paths[3]))
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert paths[1].read_bytes() == paths[3].read_bytes()

    def test_json_round_trip_lossless(self, tmp_path):
        # A fedimt run with kept and dropped rounds, and a baseline run whose
        # estimator fields are all None.
        tracked = run_experiment(synthetic_exp_config(rounds=12, drop_threshold=0.9), seed=1)
        dropped = [rec.dropped for rec in tracked.records[1:]]
        assert any(dropped) and not all(dropped)
        baseline = run_experiment(synthetic_exp_config(algorithm="baseline"), seed=4)
        assert all(rec.observer_ratio is None for rec in baseline.records)
        for report in (tracked, baseline):
            csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
            write_metrics(report, csv_path, json_path)
            with open(json_path, encoding="utf-8") as f:
                back = json.load(f)
            assert back["seed"] == report.seed
            assert back["num_classes"] == report.num_classes
            assert back["config"] == report.config
            assert back["summary"] == report.summary
            assert len(back["records"]) == len(report.records)
            keys = {f.name: f.metadata["key"] for f in fields(RoundRecord)}
            for a, b in zip(report.records, back["records"]):
                assert set(b) == set(keys.values())
                for name, key in keys.items():
                    mine, theirs = getattr(a, name), b[key]
                    if isinstance(mine, np.ndarray):
                        assert type(theirs) is list and np.array_equal(mine, theirs), name
                    else:
                        assert mine == theirs and type(mine) is type(theirs), name

    def test_summary_matches_recomputation_from_csv(self, report, tmp_path):
        csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
        write_metrics(report, csv_path, json_path)
        rows = [line.split(",") for line in open(csv_path).read().strip().split("\n")[1:]]
        t_j = [float(r[2]) for r in rows if r[2] != ""]
        accs = [float(r[4]) for r in rows if r[4] != ""]
        assert np.mean(t_j) == pytest.approx(report.summary["mean_T_j"], rel=1e-8)
        assert accs[-1] == pytest.approx(report.summary["final_acc"], rel=1e-8)
        drops = sum(1 for r in rows if r[1] == "1")
        assert drops == report.summary["drop_count"]

    def test_nine_significant_digits(self, report, tmp_path):
        csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
        write_metrics(report, csv_path, json_path)
        rows = open(csv_path).read().strip().split("\n")[2:]
        cell = rows[0].split(",")[4]
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_baseline_report_has_blank_estimator_columns(self, tiny_config, tmp_path):
        tiny_config.fl.algorithm = "baseline"
        report = run_experiment(tiny_config, seed=4)
        lines = report_csv_lines(report)
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == "" and cells[3] == ""
            assert all(c == "" for c in cells[7:])

    def test_summary_recomputable_from_records(self, report):
        assert summarize_records(report.records) == report.summary

    def test_write_failure_names_path(self, report):
        with pytest.raises(OSError, match="/nonexistent"):
            write_metrics(report, "/nonexistent/dir/x.csv", "/nonexistent/dir/x.json")

    def test_non_finite_value_writes_neither_file(self, report, tmp_path):
        report.records[3].t_round = float("nan")
        csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
        with pytest.raises(ValueError) as info:
            write_metrics(report, csv_path, json_path)
        assert str(info.value) == f"cannot write JSON to {json_path}: records[3].T_j is not finite"
        assert list(tmp_path.iterdir()) == []

    def test_json_is_valid_and_sorted(self, report, tmp_path):
        csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
        write_metrics(report, csv_path, json_path)
        data = json.loads(open(json_path).read())
        assert set(data) == {"seed", "num_classes", "config", "summary", "records"}
