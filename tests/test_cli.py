import json
import os

import numpy as np
import pytest

from fedimt.cli import cli_main
from fedimt.data import load_idx
from fedimt.metrics import report_from_json

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
        report = report_from_json(str(tmp_path / "out/tiny.json"))
        assert report.seed == 7

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

    def test_nonexistent_config_exits_1(self, capsys):
        assert cli_main(["run", "--config", "/no/such/file.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_named(self, tiny_cfg_path, capsys):
        assert cli_main(["run", "--config", tiny_cfg_path, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_memory_error_is_one_line(self, tiny_cfg_path, capsys, monkeypatch):
        def oversized(*args, **kwargs):
            raise MemoryError("Unable to allocate 572. GiB for an array with shape (8, 76800000000)")

        monkeypatch.setattr("fedimt.cli.run_experiment", oversized)
        assert cli_main(["run", "--config", tiny_cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


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

    def test_negative_seed_named_after_earlier_seeds(self, tiny_cfg_path, tmp_path, capsys):
        assert cli_main(["sweep", "--config", tiny_cfg_path, "--seeds", "0,-1"]) == 1
        assert (tmp_path / "out/tiny_s0.csv").exists()
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


class TestEstimateOnly:
    def test_reproduces_estimation_protocol(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "estimation_10class.cfg")
        assert cli_main(["estimate-only", "--config", config]) == 0
        report = report_from_json(str(tmp_path / "out/estimation_10class.json"))
        assert len(report.records) == 51
        for rec in report.records[1:]:
            assert len(rec.selected_clients) == 15
            assert rec.accuracy is None

    def test_skips_evaluation_but_estimates(self, tiny_cfg_path, tmp_path):
        assert cli_main(["estimate-only", "--config", tiny_cfg_path]) == 0
        report = report_from_json(str(tmp_path / "out/tiny.json"))
        assert all(r.accuracy is None for r in report.records)
        assert report.records[-1].t_round is not None
        assert report.summary["mean_T_j"] is not None

    def test_forces_tracking_algorithm(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "b.cfg"
        path.write_text(TINY + "algorithm = baseline\ncsv_path = b.csv\njson_path = b.json\n")
        assert cli_main(["estimate-only", "--config", str(path)]) == 0
        report = report_from_json(str(tmp_path / "b.json"))
        assert report.records[-1].round_ratio is not None


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
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
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
        report = report_from_json(str(tmp_path / "idx.json"))
        assert report.num_classes == 3
        assert len(report.records) == 3
        assert report.records[-1].accuracy is not None


class TestDefaultPaths:
    def test_paths_derived_from_config_stem(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "noout.cfg"
        path.write_text(TINY)
        assert cli_main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "noout.csv").exists()
        assert (tmp_path / "noout.json").exists()
