import re
from pathlib import Path

import pytest

from fedimt.config import SCHEMA, ConfigError, parse_config


MINIMAL = """\
data = synthetic
classes = 3
feature_dim = 4
class_counts = 30,20,10
num_clients = 5
rounds = 8
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDefaults:
    def test_documented_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.fl.batch_size == 32
        assert cfg.fl.lr == 0.001
        assert cfg.fl.momentum == 0.9
        assert cfg.fl.selection_rate == 0.3
        assert cfg.fl.local_epochs == 5
        assert cfg.fl.beta == 0.999
        assert cfg.fl.drop_threshold == 0.5
        assert cfg.fl.strategy == "fedavg"
        assert cfg.fl.algorithm == "fedimt"
        assert cfg.shards_per_client == 3
        assert cfg.aux_per_class == 4 * 32
        assert cfg.seed == 0

    def test_values_override_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + "batch_size = 16\nlr = 0.01\n"))
        assert cfg.fl.batch_size == 16
        assert cfg.fl.lr == 0.01
        assert cfg.aux_per_class == 64

    def test_n_latest_bumps_default_lr(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + "n_latest = 16\n"))
        assert cfg.fl.lr == 0.002

    def test_explicit_lr_wins_over_n_latest_bump(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + "n_latest = 16\nlr = 0.005\n"))
        assert cfg.fl.lr == 0.005


class TestSurface:
    def test_skip_eval_is_not_a_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "skip_eval = 1\n")
        with pytest.raises(ConfigError, match=r"7: unknown key 'skip_eval'"):
            parse_config(path)

    def test_whole_config_echo(self, tmp_path):
        # every key the report echoes, with its default
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.to_dict() == {
            "data": "synthetic",
            "classes": 3,
            "feature_dim": 4,
            "class_counts": [30, 20, 10],
            "cluster_scale": 1.0,
            "class_separation": 3.0,
            "run_length": 1,
            "num_clients": 5,
            "rounds": 8,
            "selection_rate": 0.3,
            "local_epochs": 5,
            "batch_size": 32,
            "lr": 0.001,
            "momentum": 0.9,
            "strategy": "fedavg",
            "prox_mu": 0.0,
            "algorithm": "fedimt",
            "n_latest": None,
            "drop_threshold": 0.5,
            "beta": 0.999,
            "baseline_loss": "plain_ce",
            "focal_gamma": 2.0,
            "aux_idx_images": None,
            "aux_idx_labels": None,
            "seed": 0,
            "seeds": None,
            "csv_path": None,
            "json_path": None,
            "shards_per_client": 3,
            "aux_per_class": 128,
            "test_fraction": 0.2,
            "hidden_sizes": [32],
            "skip_eval": False,
        }


FLOAT_KEYS = (
    "cluster_scale",
    "class_separation",
    "selection_rate",
    "lr",
    "momentum",
    "prox_mu",
    "drop_threshold",
    "beta",
    "focal_gamma",
    "test_fraction",
)


def readme_config_section() -> str:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]


class TestReadmeMatchesSchema:
    def test_every_key_is_documented(self):
        named = {
            re.match(r"\w*", span).group()
            for span in re.findall(r"`([^`]+)`", readme_config_section())
        }
        assert set(SCHEMA) - named == set()

    def test_every_documented_default_names_a_key(self):
        pairs = set(re.findall(r"`(\w+) = [^`]*`", readme_config_section()))
        # `key = value` is the format example, not a key.
        assert pairs - {"key"} - set(SCHEMA) == set()


class TestStrictness:
    def test_unknown_key_named_with_line(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "learning_rat = 0.1\n")
        with pytest.raises(ConfigError, match=r"7: unknown key 'learning_rat'"):
            parse_config(path)

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_float_named_with_line(self, tmp_path, key, bad):
        path = write_cfg(tmp_path, MINIMAL + f"{key} = {bad}\n")
        with pytest.raises(ConfigError, match=rf"exp\.cfg:7: bad value for '{key}'.*not a finite"):
            parse_config(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("lr = 0", "lr must be > 0"),
            ("lr = -1", "lr must be > 0"),
        ],
    )
    def test_non_positive_step_scales_rejected(self, tmp_path, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(write_cfg(tmp_path, MINIMAL + line + "\n"))

    @pytest.mark.parametrize("strategy", ["fedavg", "fednova"])
    def test_prox_mu_needs_fedprox(self, tmp_path, strategy):
        # Only fedprox adds the proximal term; elsewhere prox_mu would be echoed but unused.
        path = write_cfg(tmp_path, MINIMAL + f"strategy = {strategy}\nprox_mu = 0.5\n")
        with pytest.raises(ConfigError, match=rf"exp\.cfg: prox_mu needs strategy fedprox, got '{strategy}'"):
            parse_config(path)

    @pytest.mark.parametrize(
        "old, new, bad",
        [
            ("data = synthetic", "data = sintetic", "sintetic"),
            ("rounds = 8", "rounds = 8\nstrategy = avg", "avg"),
            ("rounds = 8", "rounds = 8\nalgorithm = imt", "imt"),
        ],
    )
    def test_unknown_choice_names_file_and_value(self, tmp_path, old, new, bad):
        path = write_cfg(tmp_path, MINIMAL.replace(old, new))
        with pytest.raises(ConfigError, match=rf"exp\.cfg: .*'{bad}'"):
            parse_config(path)

    def test_type_mismatch_named_with_line(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("rounds = 8", "rounds = eight"))
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "rounds = 9\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("num_clients = 5\n", ""))
        with pytest.raises(ConfigError, match="num_clients"):
            parse_config(path)

    def test_missing_data_source(self, tmp_path):
        path = write_cfg(tmp_path, "num_clients = 5\nrounds = 8\n")
        with pytest.raises(ConfigError, match="data"):
            parse_config(path)

    def test_malformed_line(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "justakey\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)

    def test_unreadable_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/path.cfg")

    def test_counts_length_mismatch(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("class_counts = 30,20,10", "class_counts = 30,20"))
        with pytest.raises(ConfigError, match="class_counts"):
            parse_config(path)

    def test_synthetic_conflicts_with_idx_keys(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "idx_images = foo\n")
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config(path)

    def test_invalid_fl_values_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "selection_rate = 0.0\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("value", ["2", "-0.1"])
    def test_drop_threshold_outside_unit_interval(self, tmp_path, value):
        path = write_cfg(tmp_path, MINIMAL + f"drop_threshold = {value}\n")
        with pytest.raises(ConfigError, match=r"drop_threshold must be in \[0, 1\]"):
            parse_config(path)


class TestDataSources:
    def test_idx_requires_existing_files(self, tmp_path):
        text = (
            "data = idx\n"
            "idx_images = missing_img\nidx_labels = missing_lab\n"
            "idx_test_images = missing_ti\nidx_test_labels = missing_tl\n"
            "num_clients = 5\nrounds = 2\n"
        )
        with pytest.raises(ConfigError, match="file not found"):
            parse_config(write_cfg(tmp_path, text))

    def test_idx_with_existing_files(self, tmp_path):
        import numpy as np
        from fedimt.data import write_idx
        from conftest import make_dataset

        ds = make_dataset(np.random.default_rng(0).random((40, 4)), [0, 1] * 20, num_classes=2)
        for stem in ("train", "test"):
            write_idx(ds, str(tmp_path / f"{stem}_img"), str(tmp_path / f"{stem}_lab"))
        text = (
            "data = idx\n"
            f"idx_images = {tmp_path}/train_img\nidx_labels = {tmp_path}/train_lab\n"
            f"idx_test_images = {tmp_path}/test_img\nidx_test_labels = {tmp_path}/test_lab\n"
            "num_clients = 5\nrounds = 2\n"
        )
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.data_source == "idx"

    def test_preset_fills_synthetic_params(self, tmp_path):
        text = "data = synthetic\npreset = ford\nnum_clients = 20\nrounds = 40\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.synthetic["classes"] == 2
        assert cfg.synthetic["class_counts"] == [1676, 324]

    def test_explicit_keys_override_preset(self, tmp_path):
        text = (
            "data = synthetic\npreset = ford\nclass_counts = 100,100\nclasses = 2\n"
            "num_clients = 4\nrounds = 2\n"
        )
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.synthetic["class_counts"] == [100, 100]

    def test_unknown_preset(self, tmp_path):
        text = "data = synthetic\npreset = cifar\nnum_clients = 4\nrounds = 2\n"
        with pytest.raises(ConfigError, match="preset"):
            parse_config(write_cfg(tmp_path, text))

    def test_external_aux_files_must_exist(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "aux_idx_images = nope_i\naux_idx_labels = nope_l\n")
        with pytest.raises(ConfigError, match="file not found"):
            parse_config(path)

    def test_external_aux_files_must_pair(self, tmp_path):
        import numpy as np
        from fedimt.data import write_idx
        from conftest import make_dataset

        ds = make_dataset(np.random.default_rng(0).random((6, 4)), [0, 1, 2] * 2, num_classes=3)
        write_idx(ds, str(tmp_path / "ai"), str(tmp_path / "al"))
        path = write_cfg(tmp_path, MINIMAL + f"aux_idx_images = {tmp_path}/ai\n")
        with pytest.raises(ConfigError, match="together"):
            parse_config(path)


class TestShippedConfigs:
    def test_estimation_protocol(self):
        cfg = parse_config("configs/estimation_10class.cfg")
        assert cfg.fl.num_clients == 50
        assert cfg.fl.rounds == 50
        assert cfg.fl.selection_rate == 0.3
        assert cfg.fl.local_epochs == 5
        assert cfg.fl.momentum == 0.0
        assert cfg.synthetic["classes"] == 10
        assert cfg.seeds == [0, 1, 2]
        assert cfg.aux_per_class == 128

    def test_ford_protocol(self):
        cfg = parse_config("configs/ford_imbalance.cfg")
        assert cfg.fl.num_clients == 20
        assert cfg.fl.rounds == 40
        assert cfg.synthetic["class_counts"] == [1676, 324]
        minority_share = 324 / 2000
        assert minority_share == pytest.approx(0.162)

    def test_har_protocol_gets_nlatest_lr(self):
        cfg = parse_config("configs/har_nlatest.cfg")
        assert cfg.fl.n_latest == 40
        assert cfg.fl.lr == 0.002

    def test_config_echo_round_trips_core_keys(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        echo = cfg.to_dict()
        assert echo["num_clients"] == 5
        assert echo["rounds"] == 8
        assert echo["class_counts"] == [30, 20, 10]
