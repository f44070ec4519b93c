"""Checks of the benchmark itself. Run from the repository root:

    python3 -m pytest fedbench/test_fedbench.py -q

They take about a minute: every workload is run twice traced, as the
benchmark's command line runs it.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

EXACT_COUNTS = (
    "nn.steps",
    "federation.local_update_calls",
    "estimator.probe_samples",
    "estimator.fallback_classes",
    "observer.drops",
    "data.window_latest_calls",
)
SEED = 3


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / BENCH_DIR.name / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def traced_pairs() -> dict[str, list[dict]]:
    pairs = {}
    for name in WORKLOADS:
        pairs[name] = []
        for _ in range(2):
            proc = bench("--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", "1")
            assert proc.returncode == 0, proc.stdout + proc.stderr
            pairs[name].append(last_json(proc))
    return pairs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_are_correct_and_repeat_exact_counts(traced_pairs, name):
    first, second = traced_pairs[name]
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    for count in EXACT_COUNTS:
        assert first["metrics"][count]["value"] == second["metrics"][count]["value"], count
    assert first["metrics"]["nn.steps"]["value"] > 0


def test_layers_that_do_not_run_read_zero(traced_pairs):
    baseline = traced_pairs["ford_focal_prox"][0]["metrics"]
    for count in ("estimator.probe_samples", "observer.drops", "data.window_latest_calls"):
        assert baseline[count]["value"] == 0
    server = traced_pairs["manyclass_server"][0]["metrics"]
    assert server["data.window_latest_calls"]["value"] > 0
    assert server["observer.drops"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    proc = bench("--workload", "ford_focal_prox", "--seed", str(SEED), "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert result["correct"] and result["attempted"] >= 3 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["tenclass_train", "manyclass_server"])
def test_spans_nest_and_round_self_time_matches(tmp_path, name):
    """Self time is a span's duration minus its direct children's, so the
    self times of a round's subtree sum to the round's duration by
    definition. What that rests on is checked here: every span lies inside
    its parent, siblings do not overlap, layers sit under the expected
    parents, and federation.round_self_ms matches the rounds' own spans."""
    fedimt = run.load_fedimt()
    cfg_path = tmp_path / "workload.cfg"
    cfg_path.write_text(config_text(name, SEED), encoding="utf-8")
    rep, _, _ = run.run_once(fedimt, cfg_path, SEED, tmp_path, traced=True)
    spans = {s.span_id: s for s in rep.tracer.spans}
    children: dict[int, list] = {}

    expected_parent = {"nn": "federation.local_update", "federation.local_update": "federation.round"}
    for s in spans.values():
        children.setdefault(s.parent_id, []).append(s)
        if s.parent_id:
            parent = spans[s.parent_id]
            assert parent.start_ns <= s.start_ns <= s.end_ns <= parent.end_ns
        wanted = expected_parent.get(s.name, expected_parent.get(s.name.split(".")[0]))
        if wanted is not None:
            assert s.parent_id and spans[s.parent_id].name == wanted, s
    for siblings in children.values():
        siblings.sort(key=lambda s: s.start_ns)
        assert all(a.end_ns <= b.start_ns for a, b in zip(siblings, siblings[1:]))

    rounds = [s for s in spans.values() if s.name == "federation.round"]
    assert len(rounds) == fedimt.parse_config(str(cfg_path)).fl.rounds
    round_self = [r.duration_ns - sum(c.duration_ns for c in children.get(r.span_id, [])) for r in rounds]
    assert all(0 <= own < r.duration_ns for own, r in zip(round_self, rounds))
    value, unit = layer_metrics([rep.tracer])["federation.round_self_ms"]
    assert unit == "ms" and value == pytest.approx(statistics.median(round_self) / 1e6, abs=1e-6)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "ford_focal_prox", "--seed", "0", "--seconds", "1", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
