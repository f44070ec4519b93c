import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedimt.cli import cli_main
from fedimt.data import load_idx
from fedimt.federation import run_experiment

TINY = """\
data = synthetic
classes = 3
feature_dim = 4
class_counts = 40,24,16
cluster_scale = 0.7
num_clients = 4
rounds = 3
selection_rate = 0.5
local_epochs = 2
batch_size = 8
momentum = 0.0
shards_per_client = 2
aux_per_class = 8
seed = 1
"""


@pytest.fixture
def tiny_cfg_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY + f"csv_path = {tmp_path}/out/tiny.csv\njson_path = {tmp_path}/out/tiny.json\n")
    return str(path)


class TestRun:
    def test_run_writes_configured_paths(self, tiny_cfg_path, tmp_path, capsys):
        assert cli_main(["run", "--config", tiny_cfg_path]) == 0
        assert (tmp_path / "out/tiny.csv").exists()
        assert (tmp_path / "out/tiny.json").exists()
        out = capsys.readouterr().out
        assert "seed=1" in out

    def test_seed_override(self, tiny_cfg_path, tmp_path):
        assert cli_main(["run", "--config", tiny_cfg_path, "--seed", "7"]) == 0
        report = json.loads((tmp_path / "out/tiny.json").read_text())
        assert report["seed"] == 7

    def test_missing_config_flag_exits_2(self):
        assert cli_main(["run"]) == 2

    def test_unknown_subcommand_exits_2(self):
        assert cli_main(["frobnicate"]) == 2

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("data = synthetic\nbogus_key = 1\n")
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_negative_cluster_scale_exits_1(self, tmp_path, capsys):
        path = tmp_path / "neg.cfg"
        path.write_text(TINY.replace("cluster_scale = 0.7", "cluster_scale = -1"))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "cluster_scale" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,message",
        [
            ("cluster_scale = -1", "cluster_scale must be >= 0"),
            ("run_length = 0", "run_length must be >= 1"),
            ("class_counts = 40,-1,16", "class_counts must be >= 0"),
            ("class_counts = 40,16", "class_counts has 2 entries for 3 classes"),
            ("classes = 0", "classes must be >= 1"),
            ("classes = -1", "classes must be >= 1"),
            ("feature_dim = 0", "feature_dim must be >= 1"),
        ],
    )
    def test_generator_key_rejected_with_its_line(self, tmp_path, capsys, line, message):
        key = line.partition(" ")[0]
        path = tmp_path / "gen.cfg"
        lines = [l for l in TINY.splitlines() if not l.startswith(key)] + [line]
        path.write_text("\n".join(lines) + "\n")
        assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:{len(lines)}: {message}" in err

    def test_too_few_samples_for_the_shards_named_with_its_line(self, tmp_path, capsys):
        # 4 clients x 2 shards each need 8 training samples; class_counts hold 5.
        path = tmp_path / "few.cfg"
        lines = [l for l in TINY.splitlines() if not l.startswith("class_counts")] + ["class_counts = 5,0,0"]
        path.write_text("\n".join(lines) + "\n")
        assert cli_main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:{len(lines)}: class_counts hold 5 samples, too few for "
            "num_clients x shards_per_client = 8 shards\n"
        )

    def test_empty_class_fedimt_samples_named_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        lines = [l for l in TINY.splitlines() if not l.startswith("class_counts")] + ["class_counts = 300,0,40"]
        path.write_text("\n".join(lines) + "\n")
        assert cli_main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:{len(lines)}: "
            "class_counts give class 1 no samples to draw fedimt's auxiliary set from\n"
        )

    def test_empty_class_runs_under_the_baseline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "empty.cfg"
        lines = [l for l in TINY.splitlines() if not l.startswith("class_counts")]
        path.write_text("\n".join([*lines, "class_counts = 300,0,40", "algorithm = baseline"]) + "\n")
        assert cli_main(["run", "--config", str(path)]) == 0

    def test_nonexistent_config_exits_1(self, capsys):
        assert cli_main(["run", "--config", "/no/such/file.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_named(self, tiny_cfg_path, capsys):
        assert cli_main(["run", "--config", tiny_cfg_path, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_non_finite_report_exits_1_and_writes_nothing(self, tiny_cfg_path, tmp_path, capsys, monkeypatch):
        def diverged(config, seed):
            report = run_experiment(config, seed=seed)
            report.records[2].t_round = float("nan")
            return report

        monkeypatch.setattr("fedimt.cli.run_experiment", diverged)
        assert cli_main(["run", "--config", tiny_cfg_path]) == 1
        json_path = tmp_path / "out/tiny.json"
        err = capsys.readouterr().err
        assert err == f"error: cannot write JSON to {json_path}: records[2].T_j is not finite\n"
        assert not json_path.exists() and not (tmp_path / "out/tiny.csv").exists()

    def test_memory_error_is_one_line(self, tiny_cfg_path, capsys, monkeypatch):
        def oversized(*args, **kwargs):
            raise MemoryError("Unable to allocate 572. GiB for an array with shape (8, 76800000000)")

        monkeypatch.setattr("fedimt.cli.run_experiment", oversized)
        assert cli_main(["run", "--config", tiny_cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_message_less_error_named_by_type(self, tiny_cfg_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("fedimt.cli.run_experiment", out_of_memory)
        assert cli_main(["run", "--config", tiny_cfg_path]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"


class TestSweep:
    def test_per_seed_files_and_aggregate(self, tiny_cfg_path, tmp_path):
        assert cli_main(["sweep", "--config", tiny_cfg_path, "--seeds", "0,1"]) == 0
        for seed in (0, 1):
            assert (tmp_path / f"out/tiny_s{seed}.csv").exists()
            assert (tmp_path / f"out/tiny_s{seed}.json").exists()
        agg = json.loads((tmp_path / "out/tiny_sweep.json").read_text())
        assert agg["seeds"] == [0, 1]
        assert "final_acc" in agg["mean"]

    def test_seeds_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "sw.cfg"
        path.write_text(TINY + "seeds = 3,4\ncsv_path = sw.csv\njson_path = sw.json\n")
        assert cli_main(["sweep", "--config", str(path)]) == 0
        assert (tmp_path / "sw_s3.csv").exists()
        assert (tmp_path / "sw_s4.csv").exists()

    def test_sweep_outputs_are_byte_deterministic(self, tmp_path, monkeypatch):
        blobs = []
        for run_dir in ("first", "second"):
            d = tmp_path / run_dir
            d.mkdir()
            monkeypatch.chdir(d)
            path = d / "sw.cfg"
            path.write_text(TINY + "csv_path = sw.csv\njson_path = sw.json\n")
            assert cli_main(["sweep", "--config", str(path), "--seeds", "0,1"]) == 0
            blobs.append(
                tuple(
                    (d / name).read_bytes()
                    for name in ("sw_s0.csv", "sw_s0.json", "sw_s1.json", "sw_sweep.json")
                )
            )
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("seeds", ["0,x", ",", "0,,1"])
    def test_non_integer_seed_is_a_usage_error(self, tiny_cfg_path, tmp_path, capsys, seeds):
        assert cli_main(["sweep", "--config", tiny_cfg_path, "--seeds", seeds]) == 2
        assert not (tmp_path / "out").exists()
        assert f"--seeds: expected comma-separated integers, got '{seeds}'" in capsys.readouterr().err

    def test_negative_seed_named_after_earlier_seeds(self, tiny_cfg_path, tmp_path, capsys):
        assert cli_main(["sweep", "--config", tiny_cfg_path, "--seeds", "0,-1"]) == 1
        assert not (tmp_path / "out/tiny_s0.csv").exists()
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True)


def assert_usage_error(done, message):
    """Exit 2 before any output, with message on stderr's last line."""
    assert done.returncode == 2
    assert done.stdout == ""
    assert message in done.stderr.splitlines()[-1] and "Traceback" not in done.stderr


class TestPaperTableScripts:
    @pytest.mark.parametrize("script", ["estimation_benchmark.py", "imbalance_benchmark.py"])
    @pytest.mark.parametrize(
        "seeds, code, message",
        [
            ("0,x", 2, "error: argument --seeds: expected comma-separated integers, got '0,x'"),
            (",", 2, "error: argument --seeds: expected comma-separated integers, got ','"),
            ("0,-1", 1, "error: seed must be >= 0, got -1"),
        ],
        ids=["not_integers", "no_seed", "negative"],
    )
    def test_bad_seeds_rejected_before_the_first_run(self, script, seeds, code, message):
        done = run_script(script, "--seeds", seeds)
        assert done.returncode == code
        assert done.stdout == ""
        assert done.stderr.splitlines()[-1].endswith(message) and "Traceback" not in done.stderr

    @pytest.mark.parametrize("script", ["estimation_benchmark.py", "imbalance_benchmark.py"])
    def test_unreadable_config_is_one_error_line(self, script, tmp_path):
        done = run_script(script, "--config", str(tmp_path / "missing.cfg"))
        assert done.returncode == 1
        assert done.stdout == "" and "Traceback" not in done.stderr
        assert done.stderr.startswith("error: cannot read config ") and len(done.stderr.splitlines()) == 1

    def test_config_without_a_minority_class_rejected_before_the_first_run(self, tmp_path):
        # har_nlatest's 6 classes are balanced, so no class is below the mean count.
        path = tmp_path / "balanced.cfg"
        har = (SCRIPTS.parent / "configs" / "har_nlatest.cfg").read_text()
        path.write_text(har.replace("rounds = 80", "rounds = 2"))
        done = run_script("imbalance_benchmark.py", "--config", str(path), "--seeds", "0")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            f"error: {path}: no class is below the mean count, so there is no minority accuracy\n"
        )

    @pytest.mark.parametrize("settle", ["0", "51", "-5"])
    def test_settle_outside_the_rounds_is_a_usage_error(self, settle):
        done = run_script("estimation_benchmark.py", "--settle", settle)
        assert_usage_error(done, f"argument --settle: must lie in [1, 50] for 50 rounds, got {settle}")

    def test_settle_at_the_last_round_averages_it(self):
        done = run_script("estimation_benchmark.py", "--seeds", "0", "--settle", "50")
        assert done.returncode == 0, done.stderr
        assert "across seeds: mean T_j" in done.stdout

    def test_estimation_runs_fedimt_on_a_baseline_config(self, tmp_path):
        # The script runs the estimate-only protocol, so the file's algorithm changes nothing.
        outputs = []
        for extra in ("", "algorithm = baseline\n"):
            path = tmp_path / "est.cfg"
            path.write_text(TINY + extra)
            done = run_script("estimation_benchmark.py", "--config", str(path), "--seeds", "0", "--settle", "1")
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert "across seeds: mean T_j" in outputs[0] and outputs[1] == outputs[0]

    def test_estimation_rejects_a_one_class_task_before_the_first_run(self, tmp_path):
        # With one class the runner tracks no ratio, so no round has a T_j to average.
        path = tmp_path / "one.cfg"
        path.write_text("data = synthetic\nclasses = 1\nfeature_dim = 4\nclass_counts = 60\n"
                        "num_clients = 4\nrounds = 3\n")
        done = run_script("estimation_benchmark.py", "--config", str(path), "--seeds", "0", "--settle", "1")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"error: {path}: the task has one class, so there is no class ratio to estimate\n"

    def test_imbalance_fedimt_arm_runs_fedimt_on_a_baseline_config(self, tmp_path):
        # Every arm names its algorithm, so the file's algorithm changes nothing.
        ford = (SCRIPTS.parent / "configs" / "ford_imbalance.cfg").read_text().replace("rounds = 40", "rounds = 4")
        outputs = []
        for algorithm in ("fedimt", "baseline"):
            path = tmp_path / "imb.cfg"
            path.write_text(ford.replace("algorithm = fedimt", f"algorithm = {algorithm}"))
            done = run_script("imbalance_benchmark.py", "--config", str(path), "--seeds", "0")
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert "minority-accuracy gain over plain CE" in outputs[0] and outputs[1] == outputs[0]

    def test_strategy_override_checked_before_the_first_run(self, tmp_path):
        path = tmp_path / "prox.cfg"
        path.write_text(TINY + "strategy = fedprox\nprox_mu = 0.01\n")
        done = run_script("imbalance_benchmark.py", "--config", str(path), "--seeds", "0", "--strategy", "fedavg")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"error: {path}:16: prox_mu needs strategy fedprox, got 'fedavg'\n"

    def test_unknown_strategy_is_a_usage_error(self):
        done = run_script("imbalance_benchmark.py", "--strategy", "avg")
        assert_usage_error(done, "argument --strategy: invalid choice: 'avg'")

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ("4-0", "range '4-0' runs backwards"),
            ("0,", "expected comma-separated seeds or ranges a-b, got '0,'"),
            ("0-", "expected comma-separated seeds or ranges a-b, got '0-'"),
        ],
        ids=["reversed_range", "empty_part", "open_range"],
    )
    def test_digest_seeds_that_name_no_run_are_a_usage_error(self, seeds, message):
        assert_usage_error(run_script("output_digest.py", "--seeds", seeds), f"argument --seeds: {message}")


class TestEstimateOnly:
    def test_reproduces_estimation_protocol(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "estimation_10class.cfg")
        assert cli_main(["estimate-only", "--config", config]) == 0
        records = json.loads((tmp_path / "out/estimation_10class.json").read_text())["records"]
        assert len(records) == 51
        for rec in records[1:]:
            assert len(rec["selected_clients"]) == 15
            assert rec["acc"] is None

    def test_skips_evaluation_but_estimates(self, tiny_cfg_path, tmp_path):
        assert cli_main(["estimate-only", "--config", tiny_cfg_path]) == 0
        report = json.loads((tmp_path / "out/tiny.json").read_text())
        assert all(r["acc"] is None for r in report["records"])
        assert report["records"][-1]["T_j"] is not None
        assert report["summary"]["mean_T_j"] is not None

    def test_forces_tracking_algorithm(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "b.cfg"
        path.write_text(TINY + "algorithm = baseline\ncsv_path = b.csv\njson_path = b.json\n")
        assert cli_main(["estimate-only", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "b.json").read_text())
        assert report["records"][-1]["round_ratio"] is not None

    def test_forced_algorithm_rejection_named_with_its_line(self, tmp_path, capsys):
        # Valid for the baseline the file names, but fedimt needs every class.
        path = tmp_path / "zero.cfg"
        lines = [l for l in TINY.splitlines() if not l.startswith("class_counts")] + ["class_counts = 300,0,40"]
        path.write_text("\n".join([*lines, "algorithm = baseline"]) + "\n")
        assert cli_main(["estimate-only", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:{len(lines)}: "
            "class_counts give class 1 no samples to draw fedimt's auxiliary set from\n"
        )


class TestGenData:
    def test_writes_loadable_idx(self, tiny_cfg_path, tmp_path):
        img = str(tmp_path / "gen_img")
        lab = str(tmp_path / "gen_lab")
        assert cli_main(["gen-data", "--config", tiny_cfg_path, "--images", img, "--labels", lab]) == 0
        ds = load_idx(img, lab)
        assert len(ds) == 80
        np.testing.assert_array_equal(np.bincount(ds.labels), [40, 24, 16])
        assert ds.features.min() >= 0.0
        assert ds.features.max() <= 1.0

    def test_matches_the_training_set_run_builds(self, tiny_cfg_path, tmp_path, monkeypatch):
        import fedimt.federation as federation

        built = []
        partition = federation.shard_partition

        def recording_partition(train, *args):
            built.append(train)
            return partition(train, *args)

        monkeypatch.setattr(federation, "shard_partition", recording_partition)
        assert cli_main(["run", "--config", tiny_cfg_path]) == 0
        img, lab = str(tmp_path / "gen_img"), str(tmp_path / "gen_lab")
        assert cli_main(["gen-data", "--config", tiny_cfg_path, "--images", img, "--labels", lab]) == 0
        ds = load_idx(img, lab)
        (train,) = built
        np.testing.assert_array_equal(ds.labels, train.labels)
        span = train.features.max() - train.features.min()
        pixels = np.rint((train.features - train.features.min()) / span * 255.0) / 255.0
        np.testing.assert_array_equal(ds.features, pixels)

    def test_negative_seed_named(self, tmp_path, capsys):
        path = tmp_path / "neg.cfg"
        path.write_text(TINY.replace("seed = 1", "seed = -1"))
        img, lab = str(tmp_path / "gen_img"), str(tmp_path / "gen_lab")
        assert cli_main(["gen-data", "--config", str(path), "--images", img, "--labels", lab]) == 1
        assert capsys.readouterr().err == f"error: {path}:14: seed must be >= 0, got -1\n"
        assert not os.path.exists(img)

    def test_rejects_labels_that_do_not_fit_a_ubyte(self, tmp_path, capsys):
        path = tmp_path / "wide.cfg"
        path.write_text(
            "data = synthetic\nclasses = 300\nfeature_dim = 2\n"
            f"class_counts = {','.join(['2'] * 300)}\nnum_clients = 2\nrounds = 1\n"
        )
        lab = str(tmp_path / "gen_lab")
        code = cli_main(["gen-data", "--config", str(path), "--images", str(tmp_path / "gen_img"), "--labels", lab])
        assert code == 1
        assert lab in capsys.readouterr().err
        assert not os.path.exists(lab)

    def test_rejects_idx_source(self, tmp_path, capsys):
        from fedimt.data import write_idx
        from conftest import make_dataset

        ds = make_dataset(np.random.default_rng(0).random((20, 3)), [0, 1] * 10, num_classes=2)
        for stem in ("t", "e"):
            write_idx(ds, str(tmp_path / f"{stem}i"), str(tmp_path / f"{stem}l"))
        path = tmp_path / "idx.cfg"
        path.write_text(
            "data = idx\n"
            f"idx_images = {tmp_path}/ti\nidx_labels = {tmp_path}/tl\n"
            f"idx_test_images = {tmp_path}/ei\nidx_test_labels = {tmp_path}/el\n"
            "num_clients = 2\nrounds = 1\n"
        )
        code = cli_main(
            ["gen-data", "--config", str(path), "--images", str(tmp_path / "o1"), "--labels", str(tmp_path / "o2")]
        )
        assert code == 1
        assert "synthetic" in capsys.readouterr().err


class TestIdxExperiment:
    def test_run_from_idx_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(0)
        from fedimt.data import write_idx
        from conftest import make_dataset

        train = make_dataset(
            rng.integers(0, 256, (120, 6)).astype(float) / 255.0,
            rng.integers(0, 3, 120),
            num_classes=3,
        )
        test = make_dataset(
            rng.integers(0, 256, (30, 6)).astype(float) / 255.0,
            rng.integers(0, 3, 30),
            num_classes=3,
        )
        write_idx(train, str(tmp_path / "tr_i"), str(tmp_path / "tr_l"))
        write_idx(test, str(tmp_path / "te_i"), str(tmp_path / "te_l"))
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(
            "data = idx\n"
            f"idx_images = {tmp_path}/tr_i\nidx_labels = {tmp_path}/tr_l\n"
            f"idx_test_images = {tmp_path}/te_i\nidx_test_labels = {tmp_path}/te_l\n"
            "num_clients = 4\nrounds = 2\nselection_rate = 0.5\nlocal_epochs = 1\n"
            "batch_size = 16\nmomentum = 0.0\nshards_per_client = 2\naux_per_class = 8\n"
            "hidden_sizes = 8\ncsv_path = idx.csv\njson_path = idx.json\n"
        )
        assert cli_main(["run", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "idx.json").read_text())
        assert report["num_classes"] == 3
        assert len(report["records"]) == 3
        assert report["records"][-1]["acc"] is not None


class TestDefaultPaths:
    def test_paths_derived_from_config_stem(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "noout.cfg"
        path.write_text(TINY)
        assert cli_main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "noout.csv").exists()
        assert (tmp_path / "noout.json").exists()
