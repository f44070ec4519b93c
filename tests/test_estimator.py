import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedimt.data import AuxiliarySet
from fedimt.estimator import (
    AuxGradients,
    counts_to_ratio,
    estimate_counts,
    oracle_counts,
    probe_auxiliary,
)
from fedimt.federation import FlConfig, local_update
from fedimt.nn import LossSpec, forward, mlp_init
from conftest import degenerate_dataset


def run_degenerate_round(counts, hidden=16, feature_dim=8, offset_scale=1e-3, seed=0, lr=0.01):
    """Single client, one epoch, one batch, momentum 0, per-class-identical data.

    Returns (estimated counts, true counts) computed exactly as the round
    loop would: probe the previous model, train one step, estimate from the
    last-layer delta.
    """
    ds, protos = degenerate_dataset(counts, feature_dim, offset_scale, seed)
    q = len(counts)
    n = len(ds)
    model = mlp_init([feature_dim, hidden, q], seed=seed + 1)
    cfg = FlConfig(
        num_clients=1,
        rounds=1,
        selection_rate=1.0,
        local_epochs=1,
        batch_size=n,
        lr=lr,
        momentum=0.0,
    )
    aux = AuxiliarySet(class_features=[protos[i][None, :].repeat(4, axis=0) for i in range(q)])
    grads = probe_auxiliary(model, aux, lr=lr, local_epochs=1, batch_size=n)
    update = local_update(0, ds.features, ds.labels, model, cfg, LossSpec(), seed=3)
    estimate = estimate_counts(
        grads,
        w_prev=model.weights[-1],
        w_new=update.model.weights[-1],
        total_samples=float(n),
        num_selected=1,
    )
    return estimate, np.asarray(counts, dtype=float)


class TestProbeAuxiliary:
    def make_probe_setup(self, q=3, d=4, s=6, seed=0):
        model = mlp_init([d, s, q], seed=seed)
        rng = np.random.default_rng(seed + 1)
        aux = AuxiliarySet(class_features=[rng.normal(0, 1, (5, d)) for _ in range(q)])
        return model, aux

    def test_zero_model_uniform_softmax_pattern(self):
        q, d = 4, 3
        model = mlp_init([d, q], seed=0)  # no hidden layer: H(x) = x
        model.weights[0][:] = 0.0
        feats = np.abs(np.random.default_rng(2).normal(1.0, 0.2, (6, d)))
        aux = AuxiliarySet(class_features=[feats.copy() for _ in range(q)])
        grads = probe_auxiliary(model, aux, lr=1.0, local_epochs=1, batch_size=1)
        for cls, g in enumerate(grads.per_class):
            # uniform softmax: gradient columns are H^T/Q except the target
            # column, which picks up H^T (1/Q - 1)
            base = feats.sum(axis=0)
            for col in range(q):
                expected = -(base * (1.0 / q - (1.0 if col == cls else 0.0)))
                np.testing.assert_allclose(g[:, col], expected, rtol=1e-12)

    def test_identical_inputs_identical_updates(self):
        model, aux = self.make_probe_setup()
        aux.class_features[1] = aux.class_features[0].copy()
        grads = probe_auxiliary(model, aux, lr=0.01, local_epochs=2, batch_size=8)
        # same inputs and same label column structure only when labels coincide,
        # so compare class 0 probed twice instead
        twice = probe_auxiliary(model, aux, lr=0.01, local_epochs=2, batch_size=8)
        np.testing.assert_array_equal(grads.per_class[0], twice.per_class[0])

    def test_model_not_mutated(self):
        model, aux = self.make_probe_setup()
        before = model.copy()
        probe_auxiliary(model, aux, lr=0.1, local_epochs=3, batch_size=4)
        for a, b in zip(before.weights, model.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(before.biases, model.biases):
            np.testing.assert_array_equal(a, b)

    def test_empty_class_rejected(self):
        model, aux = self.make_probe_setup()
        aux.class_features[2] = np.zeros((0, 4))
        with pytest.raises(ValueError, match="class 2"):
            probe_auxiliary(model, aux, lr=0.1, local_epochs=1, batch_size=4)

    def test_class_count_mismatch_rejected(self):
        model, aux = self.make_probe_setup()
        aux.class_features.append(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="classes"):
            probe_auxiliary(model, aux, lr=0.1, local_epochs=1, batch_size=4)

    def test_scale_follows_lr_epochs_batch(self):
        model, aux = self.make_probe_setup()
        a = probe_auxiliary(model, aux, lr=0.01, local_epochs=1, batch_size=4)
        b = probe_auxiliary(model, aux, lr=0.02, local_epochs=3, batch_size=8)
        for ga, gb in zip(a.per_class, b.per_class):
            np.testing.assert_allclose(gb, ga * (0.02 * 3 / 8) / (0.01 * 1 / 4), rtol=1e-12)


class TestEstimateCounts:
    def test_zero_delta_zero_other_gives_zero_count(self):
        # own-class probe update nonzero, other classes untouched, no observed
        # movement: the per-node equation forces a zero count
        s, q = 3, 2
        own0 = np.array([[0.5, 0.0], [0.3, 0.0], [0.2, 0.0]])
        own1 = np.array([[0.0, 0.4], [0.0, 0.6], [0.0, 0.1]])
        grads = AuxGradients(per_class=np.stack([own0, own1]), n_aux=np.array([4.0, 4.0]))
        w = np.zeros((s, q))
        est = estimate_counts(grads, w, w, total_samples=100.0, num_selected=1)
        np.testing.assert_allclose(est.counts, [0.0, 0.0])
        assert not est.fallback.any()

    def test_weighted_summation_arithmetic(self):
        # two usable nodes with raw estimates 100 and 200 at confidences 3 and 1
        per_class = np.array([
            [[3.0, 0.0], [2.0, 0.0]],
            [[-1.0, 1.0], [-2.0, 1.0]],
        ])
        grads = AuxGradients(per_class=per_class, n_aux=np.array([1.0, 1.0]))
        w_prev = np.zeros((2, 2))
        w_new = np.zeros((2, 2))
        w_new[0, 0] = 100.0  # rhs node 0 = (100 + 300) / 4 = 100
        w_new[1, 0] = 200.0  # rhs node 1 = (200 + 600) / 4 = 200
        est = estimate_counts(grads, w_prev, w_new, total_samples=300.0, num_selected=1)
        np.testing.assert_allclose(est.node_confidences[0], [3.0, 1.0])
        np.testing.assert_allclose(est.node_estimates[0], [100.0, 200.0])
        assert est.counts[0] == pytest.approx(0.75 * 100 + 0.25 * 200)

    def test_exact_in_linear_regime_binary(self):
        # Q=2: the non-own-class mean is a single class, no approximation at all
        for seed in range(3):
            est, truth = run_degenerate_round([300, 100], seed=seed)
            np.testing.assert_allclose(est.counts, truth, rtol=1e-9)

    def test_near_exact_linear_regime_multiclass(self):
        est, truth = run_degenerate_round([160, 80, 40, 120], seed=1)
        assert np.max(np.abs(est.counts - truth) / truth) < 0.01

    def test_counts_clamped_to_range(self):
        rng = np.random.default_rng(0)
        per_class = np.stack([rng.normal(0, 1, (4, 3)) for _ in range(3)])
        grads = AuxGradients(per_class=per_class, n_aux=np.full(3, 2.0))
        est = estimate_counts(
            grads,
            w_prev=np.zeros((4, 3)),
            w_new=rng.normal(0, 50, (4, 3)),
            total_samples=10.0,
            num_selected=2,
        )
        assert np.all(est.counts >= 0.0)
        assert np.all(est.counts <= 10.0)

    def test_all_nodes_skipped_falls_back(self):
        per_class = np.zeros((2, 3, 2))
        grads = AuxGradients(per_class=per_class, n_aux=np.array([1.0, 1.0]))
        est = estimate_counts(grads, np.zeros((3, 2)), np.ones((3, 2)), 80.0, 1)
        assert est.fallback.all()
        np.testing.assert_allclose(est.counts, [40.0, 40.0])

    def test_joint_scaling_invariance(self):
        est, _ = run_degenerate_round([50, 30, 20, 60], seed=2)
        ds_scaled, protos = degenerate_dataset([50, 30, 20, 60], seed=2)
        # scale probe updates and observed delta together: node estimates move by 0
        q = 4
        model = mlp_init([8, 16, q], seed=3)
        aux = AuxiliarySet(class_features=[protos[i][None, :].repeat(4, axis=0) for i in range(q)])
        grads = probe_auxiliary(model, aux, lr=0.01, local_epochs=1, batch_size=160)
        delta = np.random.default_rng(5).normal(0, 1e-3, model.weights[-1].shape)
        base = estimate_counts(grads, model.weights[-1], model.weights[-1] + delta, 160.0, 1)
        lam = 7.3
        scaled = AuxGradients(
            per_class=lam * grads.per_class, n_aux=grads.n_aux
        )
        rescaled = estimate_counts(
            scaled, model.weights[-1], model.weights[-1] + lam * delta, 160.0, 1
        )
        np.testing.assert_allclose(rescaled.counts, base.counts, rtol=1e-9)

    def test_total_samples_precondition(self):
        grads = AuxGradients(per_class=np.ones((2, 2, 2)), n_aux=np.ones(2))
        with pytest.raises(ValueError):
            estimate_counts(grads, np.zeros((2, 2)), np.zeros((2, 2)), 0.0, 1)


class TestCountsToRatio:
    def test_imbalanced_counts_to_ratio(self):
        np.testing.assert_allclose(counts_to_ratio([16.2, 83.8]), [0.162, 0.838])

    def test_uniform(self):
        np.testing.assert_allclose(counts_to_ratio([5.0, 5.0, 5.0, 5.0]), 0.25)

    @given(st.floats(0.001, 1e6))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c):
        base = np.array([3.0, 1.0, 6.0])
        np.testing.assert_allclose(counts_to_ratio(base * c), counts_to_ratio(base))

    def test_all_zero_falls_back_to_uniform(self):
        np.testing.assert_allclose(counts_to_ratio([0.0, 0.0]), [0.5, 0.5])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            counts_to_ratio([1.0, -0.5])

    def test_sums_to_one(self):
        r = counts_to_ratio([12.3, 0.0, 99.0, 4.5])
        assert r.sum() == pytest.approx(1.0)


class TestOracleCounts:
    def test_single_client(self):
        counts = oracle_counts([np.zeros(30, dtype=int)], num_classes=4)
        np.testing.assert_array_equal(counts, [30, 0, 0, 0])

    def test_disjoint_clients_sum(self):
        a = np.array([0, 0, 1])
        b = np.array([2, 1, 1])
        np.testing.assert_array_equal(oracle_counts([a, b], 3), [2, 3, 1])

    def test_empty_list(self):
        np.testing.assert_array_equal(oracle_counts([], 3), [0, 0, 0])


def random_solve_inputs(seed, q, s):
    """Probe updates and a last-layer delta drawn at random; about one
    weight in ten has no competing class (other == 0, infinite confidence)."""
    rng = np.random.default_rng(seed)
    per_class = rng.normal(0.0, 1.0, (q, s, q))
    untouched = rng.random((s, q)) < 0.1
    for p in range(q):
        per_class[np.arange(q) != p, :, p] *= ~untouched[:, p]
    n_aux = rng.integers(1, 200, q).astype(float)
    return AuxGradients(per_class=per_class, n_aux=n_aux), rng.normal(0.0, 1.0, (s, q))


class TestEstimatorProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.integers(2, 8),
        s=st.integers(1, 48),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_relabelling_classes_permutes_counts(self, seed, q, s, data):
        perm = np.array(data.draw(st.permutations(range(q))))
        aux, delta = random_solve_inputs(seed, q, s)
        base = estimate_counts(aux, np.zeros((s, q)), delta, 500.0, 4)
        # Old class c is new class perm[c], as a probe class and as a column.
        per_class = np.empty_like(aux.per_class)
        per_class[np.ix_(perm, np.arange(s), perm)] = aux.per_class
        n_aux = np.empty(q)
        n_aux[perm] = aux.n_aux
        new_delta = np.empty_like(delta)
        new_delta[:, perm] = delta
        relabelled = estimate_counts(
            AuxGradients(per_class=per_class, n_aux=n_aux), np.zeros((s, q)), new_delta, 500.0, 4
        )
        np.testing.assert_allclose(relabelled.counts[perm], base.counts, rtol=1e-9, atol=1e-9)
        np.testing.assert_array_equal(relabelled.used_node_count[perm], base.used_node_count)
        np.testing.assert_array_equal(relabelled.fallback[perm], base.fallback)

    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.integers(2, 6),
        s=st.integers(1, 24),
        f=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_probe_and_delta_together_keeps_the_ratio(self, seed, q, s, f):
        # The probe updates set the unit of the observed update: scaling both
        # by one factor cancels. Scaling the probe alone does move the ratio.
        rng = np.random.default_rng(seed)
        model = mlp_init([5, s, q], seed=seed)
        aux = AuxiliarySet(class_features=[rng.normal(0.0, 1.0, (6, 5)) for _ in range(q)])
        delta = rng.normal(0.0, 1.0, (s, q))
        grads = probe_auxiliary(model, aux, lr=1.0, local_epochs=1, batch_size=1)
        scaled = AuxGradients(per_class=f * grads.per_class, n_aux=grads.n_aux)
        ratios = [
            counts_to_ratio(estimate_counts(g, np.zeros((s, q)), d, 300.0, 3).counts)
            for g, d in ((grads, delta), (scaled, f * delta))
        ]
        np.testing.assert_allclose(ratios[1], ratios[0], rtol=1e-7, atol=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.integers(1, 8),
        s=st.integers(1, 48),
        total=st.floats(1e-3, 1e6),
        spread=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_counts_are_finite(self, seed, q, s, total, spread):
        # The final clip bounds the counts to [0, total] but passes a NaN
        # through, so finiteness is what the solve itself must guarantee.
        aux, delta = random_solve_inputs(seed, q, s)
        estimate = estimate_counts(aux, np.zeros((s, q)), spread * delta, total, 2)
        assert np.all(np.isfinite(estimate.counts))

    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(1, 60), min_size=2, max_size=6),
        feature_dim=st.integers(1, 10),
        hidden=st.lists(st.integers(1, 24), min_size=1, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_client_at_momentum_zero_is_exact(self, seed, counts, feature_dim, hidden):
        # Every sample has the same features, so the other classes' probe
        # updates agree and each node's equation holds exactly; one client
        # taking one full-batch step at momentum 0 moves the last layer by
        # exactly what the probe predicts.
        q, n = len(counts), sum(counts)
        rng = np.random.default_rng(seed)
        model = mlp_init([feature_dim, *hidden, q], seed=seed)
        x = rng.normal(0.0, 1.0, feature_dim)
        if not np.any(forward(model, x[None]).hidden_outputs > 0):
            x = -x
        assume(np.any(forward(model, x[None]).hidden_outputs > 0))
        labels = np.repeat(np.arange(q), counts)
        cfg = FlConfig(
            num_clients=1, rounds=1, selection_rate=1.0, local_epochs=1,
            batch_size=n, lr=0.01, momentum=0.0,
        )
        aux = AuxiliarySet(class_features=[np.repeat(x[None], 4, axis=0)] * q)
        grads = probe_auxiliary(model, aux, lr=cfg.lr, local_epochs=1, batch_size=n)
        update = local_update(0, np.repeat(x[None], n, axis=0), labels, model, cfg, LossSpec(), seed=3)
        estimate = estimate_counts(
            grads, model.weights[-1], update.model.weights[-1], float(n), num_selected=1
        )
        assert not estimate.fallback.any()
        np.testing.assert_allclose(estimate.counts, counts, rtol=1e-7)
