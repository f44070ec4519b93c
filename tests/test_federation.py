from dataclasses import replace

import numpy as np
import pytest

import fedimt.federation as federation
from fedimt.data import AuxiliarySet, SyntheticSpec, gen_synthetic
from fedimt.estimator import counts_to_ratio, oracle_counts
from fedimt.federation import (
    _STREAM_CLIENT,
    _STREAM_MEANS,
    _STREAM_TEST_DATA,
    FederatedRunner,
    FlConfig,
    _build_datasets,
    aggregate,
    build_runner,
    derive_seed,
    local_update,
    minority_classes_of,
    run_experiment,
    select_clients,
)
from fedimt.metrics import write_metrics
from fedimt.nn import LossSpec, mlp_init
from fedimt.observer import balanced_weights
from conftest import make_client, synthetic_exp_config


def models_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.biases, b.biases)
    )


def loss_check(**spec):
    """validate() of a three-class LossSpec, to be called later."""
    return lambda: LossSpec(**spec).validate(3)


def max_model_diff(a, b):
    diffs = [np.abs(x - y).max() for x, y in zip(a.weights, b.weights)]
    diffs += [np.abs(x - y).max() for x, y in zip(a.biases, b.biases)]
    return max(diffs)


class TestSelectClients:
    def test_thirty_percent_of_fifty_is_fifteen(self):
        assert len(select_clients(50, 0.3, round_index=0, seed=0)) == 15

    def test_full_rate_selects_everyone(self):
        assert select_clients(8, 1.0, 0, seed=1) == list(range(8))

    def test_deterministic_per_seed_round(self):
        assert select_clients(50, 0.3, 4, seed=9) == select_clients(50, 0.3, 4, seed=9)

    def test_rounds_differ(self):
        picks = {tuple(select_clients(50, 0.3, r, seed=9)) for r in range(10)}
        assert len(picks) > 1

    def test_sorted_without_replacement(self):
        sel = select_clients(30, 0.5, 2, seed=3)
        assert sel == sorted(set(sel))


class TestLocalUpdate:
    def setup_method(self):
        self.model = mlp_init([4, 8, 3], seed=0)
        rng = np.random.default_rng(1)
        self.x = rng.normal(0, 1, (25, 4))
        self.y = rng.integers(0, 3, 25)

    def cfg(self, **kw):
        base = dict(
            num_clients=4, rounds=1, selection_rate=1.0, local_epochs=3,
            batch_size=10, lr=0.01, momentum=0.0,
        )
        base.update(kw)
        return FlConfig(**base)

    def test_step_count(self):
        upd = local_update(0, self.x, self.y, self.model, self.cfg(), LossSpec(), seed=0)
        assert upd.local_steps == 3 * int(np.ceil(25 / 10))
        assert upd.sample_count == 25

    def test_zero_lr_returns_global_weights(self):
        upd = local_update(0, self.x, self.y, self.model, self.cfg(lr=0.0), LossSpec(), seed=0)
        assert models_equal(upd.model, self.model)

    def test_prox_zero_identical_to_plain(self):
        plain = local_update(
            0, self.x, self.y, self.model, self.cfg(strategy="fedavg"), LossSpec(), seed=5
        )
        prox = local_update(
            0, self.x, self.y, self.model,
            self.cfg(strategy="fedprox", prox_mu=0.0), LossSpec(), seed=5,
        )
        assert models_equal(plain.model, prox.model)

    def test_prox_pulls_weights_toward_global(self):
        free = local_update(
            0, self.x, self.y, self.model, self.cfg(local_epochs=10), LossSpec(), seed=5
        )
        anchored = local_update(
            0, self.x, self.y, self.model,
            self.cfg(local_epochs=10, strategy="fedprox", prox_mu=50.0), LossSpec(), seed=5,
        )
        # the regularizer anchors the weight matrices (biases are untouched)
        def weight_dist(m):
            return max(np.abs(a - b).max() for a, b in zip(m.weights, self.model.weights))

        assert weight_dist(anchored.model) < weight_dist(free.model)

    def test_empty_slice_skipped(self):
        upd = local_update(
            0, np.zeros((0, 4)), np.zeros(0, dtype=int), self.model, self.cfg(), LossSpec(), seed=0
        )
        assert upd is None

    def test_global_model_untouched(self):
        before = self.model.copy()
        local_update(0, self.x, self.y, self.model, self.cfg(), LossSpec(), seed=7)
        assert models_equal(before, self.model)


class TestAggregate:
    def make_updates(self, counts, steps=None, seed=0):
        model = mlp_init([3, 6, 2], seed=seed)
        rng = np.random.default_rng(seed + 1)
        cfg = FlConfig(num_clients=len(counts), rounds=1, selection_rate=1.0,
                       local_epochs=1, batch_size=8, lr=0.05, momentum=0.0)
        updates = []
        for cid, n in enumerate(counts):
            x = rng.normal(0, 1, (n, 3))
            y = rng.integers(0, 2, n)
            upd = local_update(cid, x, y, model, cfg, LossSpec(), seed=cid)
            if steps is not None:
                upd.local_steps = steps[cid]
            updates.append(upd)
        return model, updates

    def test_single_client_verbatim(self):
        model, updates = self.make_updates([12])
        agg = aggregate(updates[:1], model, "fedavg")
        assert models_equal(agg, updates[0].model)

    def test_equal_counts_arithmetic_mean(self):
        model, updates = self.make_updates([10, 10])
        agg = aggregate(updates, model, "fedavg")
        for i in range(len(model.weights)):
            np.testing.assert_allclose(
                agg.weights[i],
                (updates[0].model.weights[i] + updates[1].model.weights[i]) / 2.0,
            )

    def test_weights_proportional_to_counts(self):
        model, updates = self.make_updates([30, 10])
        agg = aggregate(updates, model, "fedavg")
        expected = 0.75 * updates[0].model.weights[0] + 0.25 * updates[1].model.weights[0]
        np.testing.assert_allclose(agg.weights[0], expected)

    def test_fednova_equals_fedavg_for_equal_steps(self):
        model, updates = self.make_updates([16, 16, 16])
        assert len({u.local_steps for u in updates}) == 1
        avg = aggregate(updates, model, "fedavg")
        nova = aggregate(updates, model, "fednova")
        assert max_model_diff(avg, nova) < 1e-12

    def test_fednova_differs_for_unequal_steps(self):
        model, updates = self.make_updates([16, 16], steps=[2, 8])
        avg = aggregate(updates, model, "fedavg")
        nova = aggregate(updates, model, "fednova")
        assert max_model_diff(avg, nova) > 0

    def test_empty_updates_rejected(self):
        model, _ = self.make_updates([4])
        with pytest.raises(ValueError):
            aggregate([], model, "fedavg")

    def test_unknown_strategy_rejected(self):
        model, updates = self.make_updates([4])
        with pytest.raises(ValueError):
            aggregate(updates, model, "fedsgd")


class TestRunner:
    def test_baseline_skips_estimation(self, tiny_config):
        tiny_config.fl.algorithm = "baseline"
        report = run_experiment(tiny_config, seed=1)
        for rec in report.records[1:]:
            assert rec.estimated_counts is None
            assert rec.round_ratio is None
            assert rec.t_round is None
            assert rec.t_global is None
        assert report.summary["drop_count"] == 0

    def test_fedimt_first_round_uniform_weights(self, tiny_config):
        runner = build_runner(tiny_config, seed=0)
        spec = runner.loss_spec
        assert spec.kind == "class_balanced"
        np.testing.assert_allclose(spec.class_weights, 1.0, rtol=1e-9)

    def test_fedimt_records_estimates(self, tiny_config):
        report = run_experiment(tiny_config, seed=2)
        rec = report.records[1]
        assert rec.estimated_counts is not None
        assert rec.round_ratio.sum() == pytest.approx(1.0)
        assert rec.observer_ratio.sum() == pytest.approx(1.0, abs=1e-9)
        assert -1.0 <= rec.t_round <= 1.0
        assert -1.0 <= rec.t_global <= 1.0

    def test_dropped_round_freezes_weights_but_advances_observer(self, tiny_config):
        runner = build_runner(tiny_config, seed=3)
        runner.run_round()
        before_model = runner.model.copy()
        before_count = runner.observer.round_count
        adversarial = np.zeros(runner.num_classes)
        adversarial[-1] = 1.0

        original = runner._estimate_round_ratio

        def hostile(candidate, total, num_selected):
            counts, _ = original(candidate, total, num_selected)
            return counts, adversarial

        runner._estimate_round_ratio = hostile
        record = runner.run_round()
        assert record.dropped
        assert models_equal(runner.model, before_model)
        assert runner.observer.round_count == before_count + 1

    def test_first_round_never_dropped(self, tiny_config):
        runner = build_runner(tiny_config, seed=4)
        adversarial = np.zeros(runner.num_classes)
        adversarial[0] = 1.0
        runner._estimate_round_ratio = lambda c, t, k: (adversarial * 10, adversarial)
        record = runner.run_round()
        assert record.dropped is False

    def test_single_class_task_reduces_to_fedavg(self):
        cfg_imt = synthetic_exp_config(
            classes=1, class_counts=(60,), num_clients=4, rounds=3,
            shards_per_client=1, algorithm="fedimt",
        )
        cfg_avg = synthetic_exp_config(
            classes=1, class_counts=(60,), num_clients=4, rounds=3,
            shards_per_client=1, algorithm="baseline",
        )
        run_imt = build_runner(cfg_imt, seed=5)
        run_avg = build_runner(cfg_avg, seed=5)
        for _ in range(3):
            run_imt.run_round()
            run_avg.run_round()
        assert max_model_diff(run_imt.model, run_avg.model) == 0.0

    def test_run_experiment_deterministic(self, tiny_config):
        a = run_experiment(tiny_config, seed=11)
        b = run_experiment(tiny_config, seed=11)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.accuracy == rb.accuracy
            assert ra.train_loss == rb.train_loss
            if ra.round_ratio is None:
                assert rb.round_ratio is None
            else:
                np.testing.assert_array_equal(ra.round_ratio, rb.round_ratio)
        assert a.summary == b.summary

    def test_zero_rounds_only_initial_record(self, tiny_config):
        tiny_config.fl.rounds = 0
        report = run_experiment(tiny_config, seed=0)
        assert len(report.records) == 1
        assert report.records[0].index == 0
        assert report.records[0].accuracy is not None

    def test_record_count(self, tiny_config):
        report = run_experiment(tiny_config, seed=0)
        assert len(report.records) == tiny_config.fl.rounds + 1

    def test_skip_eval_leaves_accuracy_unset(self, tiny_config):
        tiny_config.skip_eval = True
        report = run_experiment(tiny_config, seed=0)
        assert all(r.accuracy is None for r in report.records)
        assert report.records[-1].t_round is not None

    def test_n_latest_mode_runs(self, tiny_config):
        tiny_config.fl.n_latest = 20
        report = run_experiment(tiny_config, seed=1)
        assert len(report.records) == tiny_config.fl.rounds + 1
        assert report.records[-1].t_global is not None

    def test_window_total_is_the_disclosed_sample_count(self, monkeypatch):
        # The middle client holds fewer samples than n_latest, so its window
        # is all it has: the solve's total is 30 + 12 + 30, not 3 * 30.
        rng = np.random.default_rng(0)
        clients = [
            make_client(
                rng.normal(0.0, 1.0, (n, 4)), rng.integers(0, 3, n), client_id=cid,
                num_classes=3, time_order=rng.permutation(n),
            )
            for cid, n in enumerate((40, 12, 50))
        ]
        totals = []
        solve = federation.estimate_counts

        def recording_solve(*args, **kwargs):
            totals.append(kwargs["total_samples"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(federation, "estimate_counts", recording_solve)
        runner = FederatedRunner(
            config=FlConfig(num_clients=3, rounds=3, selection_rate=1.0, n_latest=30,
                            batch_size=8, local_epochs=1, momentum=0.0),
            clients=clients,
            model=mlp_init([4, 8, 3], seed=0),
            seed=0,
            aux=AuxiliarySet([rng.normal(0.0, 1.0, (5, 4)) for _ in range(3)]),
        )
        for _ in range(3):
            runner.run_round()
        assert totals == [72.0] * 3

    @pytest.mark.parametrize("n_latest", [None, 20])
    def test_each_client_trains_on_its_own_stream(self, tiny_config, monkeypatch, n_latest):
        # Client cid's round-j update is the single-client update seeded
        # derive_seed(seed, _STREAM_CLIENT, j, cid), whichever clients share the round.
        tiny_config.fl.n_latest = n_latest
        runner = build_runner(tiny_config, seed=7)
        calls = []
        train = federation.local_update

        def recording_update(*args):
            calls.append(train(*args))
            return calls[-1]

        monkeypatch.setattr(federation, "local_update", recording_update)
        for j in range(2):
            model, spec = runner.model.copy(), runner.loss_spec
            calls.clear()
            record = runner.run_round()
            (updates,) = calls
            assert [u.client_id for u in updates] == record.selected_clients
            for u in updates:
                scope = runner._client_scope(runner.clients[u.client_id], j)
                alone = train(
                    u.client_id, scope.features, scope.labels, model, tiny_config.fl, spec,
                    derive_seed(7, _STREAM_CLIENT, j, u.client_id),
                )
                assert max_model_diff(u.model, alone.model) <= 1e-12

    @pytest.mark.parametrize("n_latest", [None, 20])
    def test_round_truth_is_the_selected_clients_counts(self, tiny_config, n_latest):
        # An estimate equal to the selected clients' in-scope counts scores
        # T_j = 1, however far those counts are from the whole population's.
        tiny_config.fl.n_latest = n_latest
        runner = build_runner(tiny_config, seed=8)
        for j in range(3):
            selected = select_clients(
                tiny_config.fl.num_clients, tiny_config.fl.selection_rate, j, seed=8
            )
            counts = oracle_counts(
                [runner._client_scope(runner.clients[cid], j).labels for cid in selected],
                runner.num_classes,
            )
            runner._estimate_round_ratio = lambda c, t, k: (counts, counts_to_ratio(counts))
            assert runner.run_round().t_round == pytest.approx(1.0, abs=1e-12)

    def test_loss_weights_follow_the_round_total(self, tiny_config):
        # The next round's class weights scale the tracked ratio to the
        # round's disclosed sample total, at least one sample per class.
        rng = np.random.default_rng(0)
        tiny_clients = FederatedRunner(
            config=FlConfig(num_clients=3, rounds=4, selection_rate=0.34, batch_size=8,
                            local_epochs=1, momentum=0.0),
            clients=[
                make_client(rng.normal(0.0, 1.0, (n, 4)), np.arange(n) % 4, client_id=cid,
                            num_classes=4)
                for cid, n in enumerate((2, 1, 40))
            ],
            model=mlp_init([4, 8, 4], seed=0),
            seed=0,
            aux=AuxiliarySet([rng.normal(0.0, 1.0, (5, 4)) for _ in range(4)]),
        )
        for runner in (build_runner(tiny_config, seed=9), tiny_clients):
            beta, q = runner.config.beta, runner.num_classes
            for _ in range(runner.config.rounds):
                record = runner.run_round()
                total = sum(runner.clients[cid].total_count for cid in record.selected_clients)
                np.testing.assert_array_equal(
                    runner.loss_spec.class_weights,
                    balanced_weights(runner.observer.ratio, max(q, total), beta),
                )

    def test_momentum_mode_runs(self, tiny_config):
        tiny_config.fl.momentum = 0.9
        report = run_experiment(tiny_config, seed=1)
        assert report.summary["mean_T_j"] is not None

    def test_momentum_biases_estimates_but_tracking_survives(self):
        # velocity integration breaks the per-step delta/gradient relation the
        # count solve assumes; the bias shows up in T_j while the observer and
        # drop mechanism keep the tracked ratio serviceable
        from fedimt.config import parse_config

        scores = {}
        for momentum in (0.0, 0.9):
            cfg = parse_config("configs/estimation_10class.cfg")
            cfg.fl.momentum = momentum
            cfg.fl.rounds = 20
            cfg.skip_eval = True
            report = run_experiment(cfg, seed=0)
            scores[momentum] = report.summary
        assert scores[0.9]["mean_T_j"] < scores[0.0]["mean_T_j"]
        assert scores[0.9]["mean_T_G"] > 0.8

    def test_external_auxiliary_files(self, tiny_config, tmp_path):
        from fedimt.data import write_idx

        classes = tiny_config.synthetic.classes
        spec = SyntheticSpec(classes, tiny_config.synthetic.feature_dim, [6] * classes)
        aux_ds = gen_synthetic(spec, means_seed=99, seed=99)
        aux_ds.features = np.clip(aux_ds.features, 0.0, 1.0)
        img, lab = str(tmp_path / "aux_i"), str(tmp_path / "aux_l")
        write_idx(aux_ds, img, lab)
        tiny_config.aux_idx_images = img
        tiny_config.aux_idx_labels = lab
        runner = build_runner(tiny_config, seed=0)
        assert runner.aux.num_classes == classes
        np.testing.assert_array_equal(runner.aux.per_class_count, [6] * classes)


class TestMinorityClasses:
    @pytest.mark.parametrize(
        "counts, minority",
        [
            ([1676, 324], [1]),
            ([3, 6, 9], [0]),  # the class at the mean is not a minority
            ([5, 5, 5], []),
        ],
    )
    def test_strictly_below_the_mean_count(self, counts, minority):
        np.testing.assert_array_equal(minority_classes_of(counts), minority)

    def test_balanced_preset_reports_no_minority_accuracy(self, tmp_path):
        from fedimt.config import parse_config

        cfg = tmp_path / "har.cfg"
        cfg.write_text("data = synthetic\npreset = har\nnum_clients = 6\nrounds = 2\n")
        report = run_experiment(parse_config(str(cfg)), seed=0)
        assert all(rec.minority_accuracy is None for rec in report.records)
        write_metrics(report, str(tmp_path / "r.csv"), str(tmp_path / "r.json"))
        header, *rows = (tmp_path / "r.csv").read_text().splitlines()
        column = header.split(",").index("acc_minority")
        assert [row.split(",")[column] for row in rows] == [""] * 3


class TestBuildDatasets:
    def test_test_split_ignores_run_length(self):
        """The test split is drawn without a burst order; its features and
        labels are those of the same spec with its own run_length."""
        config = synthetic_exp_config()
        spec = config.synthetic
        assert spec.run_length > 1
        _, test = _build_datasets(config, 3)
        test_counts = np.bincount(test.labels, minlength=spec.classes)
        np.testing.assert_array_equal(test_counts, [25, 15, 10, 20])
        want = gen_synthetic(
            replace(spec, class_counts=test_counts),
            derive_seed(3, _STREAM_MEANS),
            derive_seed(3, _STREAM_TEST_DATA),
        )
        np.testing.assert_array_equal(test.features, want.features)
        np.testing.assert_array_equal(test.labels, want.labels)


class TestConfigValidation:
    def test_zero_selection_rejected(self):
        with pytest.raises(ValueError):
            FlConfig(num_clients=100, rounds=1, selection_rate=0.001).validate()

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            FlConfig(num_clients=4, rounds=1, strategy="avg").validate()

    def test_bad_algorithm(self):
        with pytest.raises(ValueError):
            FlConfig(num_clients=4, rounds=1, algorithm="imt").validate()

    def test_bad_baseline_loss(self):
        with pytest.raises(ValueError):
            FlConfig(num_clients=4, rounds=1, baseline_loss="ghmc").validate()

    # (rounds, the largest n_latest whose last cursor, n_latest + (rounds - 1)
    # * max(1, n_latest // 2), is at most 2**63 - 1); for 4 rounds n + 3 * (n // 2)
    # is 2**63 - 2 at n = 3689348814741910323 and 2**63 + 2 one above.
    @pytest.mark.parametrize("rounds, largest", [(0, 2**63 - 1), (1, 2**63 - 1), (4, 3689348814741910323)])
    def test_n_latest_whose_last_window_cursor_leaves_int64_rejected(self, rounds, largest):
        FlConfig(num_clients=4, rounds=rounds, n_latest=largest).validate()
        positions = federation.window_positions([5, 3], largest, max(rounds - 1, 0))
        assert sorted(positions.tolist()) == list(range(8))
        with pytest.raises(ValueError, match=rf"^n_latest = {largest + 1} "):
            FlConfig(num_clients=4, rounds=rounds, n_latest=largest + 1).validate()

    @pytest.mark.parametrize(
        "validate, name",
        [
            pytest.param(
                FlConfig(num_clients=4, rounds=1, strategy="fedprox", prox_mu=np.nan).validate,
                "prox_mu", id="prox_mu-nan",
            ),
            pytest.param(loss_check(kind="focal", gamma=np.nan), "gamma", id="gamma-nan"),
            *(
                pytest.param(
                    loss_check(kind="class_balanced", class_weights=[1.0, bad, 1.0]),
                    "class_weights", id=f"class_weights-{bad}",
                )
                for bad in (np.nan, np.inf, -0.5)
            ),
            pytest.param(
                loss_check(kind="class_balanced", per_class_n=[5.0, np.nan, 5.0]),
                "per_class_n", id="per_class_n-nan",
            ),
        ],
    )
    def test_nan_and_out_of_range_values_rejected(self, validate, name):
        # Each rule reads "not x >= bound", so a NaN fails it too.
        with pytest.raises(ValueError, match=name):
            validate()


class TestDerivedDefaults:
    """A config built in code gets the defaults a config file gets."""

    def test_aux_per_class_defaults_to_four_batches(self):
        config = synthetic_exp_config(rounds=1, aux_per_class=None)
        report = run_experiment(config, seed=0)
        assert config.aux_per_class == 4 * config.fl.batch_size
        assert len(report.records) == 2

    def test_lr_default_follows_n_latest(self):
        assert FlConfig(num_clients=4, rounds=1).lr == 0.001
        assert FlConfig(num_clients=4, rounds=1, n_latest=16).lr == 0.002
        assert FlConfig(num_clients=4, rounds=1, n_latest=16, lr=0.005).lr == 0.005
