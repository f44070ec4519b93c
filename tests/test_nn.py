import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedimt.nn import (
    LossSpec,
    MlpModel,
    OptState,
    backward,
    compute_loss,
    effective_number_weight,
    forward,
    grad_check,
    layer_views,
    loss_targets,
    mlp_init,
    sgd_step,
    softmax,
)


def seeded_batch(model, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, model.layer_sizes[0]))
    y = rng.integers(0, model.num_classes, n)
    return x, y


def loss_and_grad(acts, labels, spec, mask=None):
    """The loss (a per-client array on a stacked model) and grad_logits."""
    targets = loss_targets(labels, spec, acts.logits.shape[-1], mask)
    grad = compute_loss(acts, targets)
    return targets.loss(), grad


def all_layers(layer_sizes, grads):
    weights, biases = layer_views(layer_sizes, grads)
    return weights + biases


class TestMlpInit:
    def test_shapes(self):
        model = mlp_init([4, 8, 3], seed=7)
        assert [w.shape for w in model.weights] == [(4, 8), (8, 3)]
        assert [b.shape for b in model.biases] == [(8,), (3,)]
        assert model.num_classes == 3

    def test_deterministic(self):
        a = mlp_init([4, 8, 3], seed=7)
        b = mlp_init([4, 8, 3], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_different_seeds_differ(self):
        a = mlp_init([4, 8, 3], seed=7)
        b = mlp_init([4, 8, 3], seed=8)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_single_layer_rejected(self):
        with pytest.raises(ValueError):
            mlp_init([4], seed=0)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            mlp_init([4, 0, 3], seed=0)

    def test_init_bounds(self):
        model = mlp_init([4, 8, 3], seed=1)
        limit = np.sqrt(6.0 / (4 + 8))
        assert np.all(np.abs(model.weights[0]) <= limit)


class TestForward:
    def test_zero_model_uniform_probs(self):
        model = mlp_init([4, 8, 3], seed=0)
        for w in model.weights:
            w[:] = 0.0
        acts = forward(model, np.zeros((2, 4)))
        np.testing.assert_allclose(softmax(acts.logits), 1.0 / 3.0)

    def test_rows_sum_to_one(self):
        model = mlp_init([5, 9, 4], seed=3)
        x, _ = seeded_batch(model, 17, seed=4)
        acts = forward(model, x)
        np.testing.assert_allclose(softmax(acts.logits).sum(axis=1), 1.0, atol=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one_property(self, seed):
        model = mlp_init([3, 6, 4], seed=seed)
        x, _ = seeded_batch(model, 5, seed=seed + 1)
        acts = forward(model, 10.0 * x)
        np.testing.assert_allclose(softmax(acts.logits).sum(axis=1), 1.0, atol=1e-9)

    def test_hidden_shape(self):
        model = mlp_init([4, 8, 3], seed=0)
        acts = forward(model, np.zeros((6, 4)))
        assert acts.hidden_outputs.shape == (6, 8)
        assert acts.logits.shape == (6, 3)

    def test_logits_are_linear_in_hidden(self):
        model = mlp_init([4, 8, 3], seed=2)
        x, _ = seeded_batch(model, 5, seed=6)
        acts = forward(model, x)
        np.testing.assert_allclose(
            acts.logits, acts.hidden_outputs @ model.weights[-1] + model.biases[-1]
        )

    def test_shape_mismatch(self):
        model = mlp_init([4, 8, 3], seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 5)))


class TestSoftmax:
    """softmax's class-major max gives the bits of the row-wise textbook form."""

    @staticmethod
    def textbook(z):
        exp = np.exp(z - z.max(axis=-1, keepdims=True))
        return exp / exp.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("q", [1, 2, 10, 40])
    @pytest.mark.parametrize("shape", [(0,), (7,), (6, 3)], ids=["no_rows", "matrix", "stack"])
    def test_matches_textbook_form(self, q, shape):
        z = np.random.default_rng(q).normal(0.0, 30.0, (*shape, q))
        assert np.array_equal(softmax(z), self.textbook(z))

    @pytest.mark.parametrize("q", [1, 2, 10, 40])
    def test_infinite_logits_match_textbook_form(self, q):
        z = np.random.default_rng(q).normal(0.0, 1.0, (4, q))
        z[0, 0], z[1, -1], z[2, :] = np.inf, -np.inf, -np.inf
        z[3, : q // 2 + 1] = np.inf
        with np.errstate(invalid="ignore"):
            assert np.array_equal(softmax(z), self.textbook(z), equal_nan=True)


class TestComputeLoss:
    def test_uniform_probs_plain_ce_is_log_q(self):
        model = mlp_init([4, 8, 3], seed=0)
        for w in model.weights:
            w[:] = 0.0
        acts = forward(model, np.zeros((5, 4)))
        loss, _ = loss_and_grad(acts, np.array([0, 1, 2, 0, 1]), LossSpec())
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_beta_zero_equals_plain_ce(self):
        model = mlp_init([4, 8, 3], seed=5)
        x, y = seeded_batch(model, 12, seed=9)
        acts = forward(model, x)
        plain, g_plain = loss_and_grad(acts, y, LossSpec())
        spec = LossSpec(kind="class_balanced", beta=0.0, per_class_n=np.array([9.0, 2.0, 1.0]))
        balanced, g_bal = loss_and_grad(acts, y, spec)
        assert balanced == pytest.approx(plain, rel=1e-12)
        np.testing.assert_allclose(g_bal, g_plain)

    def test_effective_number_weight_is_one_at_n_one(self):
        for beta in (0.0, 0.5, 0.9, 0.999):
            assert effective_number_weight(1.0, beta) == pytest.approx(1.0)

    @given(
        st.floats(0.01, 0.999),
        st.integers(1, 10_000),
        st.integers(1, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_effective_number_weight_antitone(self, beta, n_a, n_b):
        lo, hi = sorted((n_a, n_b))
        w_lo = effective_number_weight(float(lo), beta)
        w_hi = effective_number_weight(float(hi), beta)
        assert w_hi <= w_lo + 1e-12

    def test_effective_number_weight_strictly_decreasing(self):
        # strict on a grid where beta**n is far from float saturation
        weights = effective_number_weight(np.arange(1.0, 101.0), 0.9)
        assert np.all(np.diff(weights) < 0)

    def test_class_weight_override(self):
        model = mlp_init([4, 8, 3], seed=5)
        x, y = seeded_batch(model, 8, seed=2)
        acts = forward(model, x)
        spec = LossSpec(kind="class_balanced", beta=0.9, class_weights=np.ones(3))
        balanced, _ = loss_and_grad(acts, y, spec)
        plain, _ = loss_and_grad(acts, y, LossSpec())
        assert balanced == pytest.approx(plain, rel=1e-12)

    def test_focal_gamma_zero_equals_plain_ce(self):
        model = mlp_init([4, 8, 3], seed=5)
        x, y = seeded_batch(model, 10, seed=3)
        acts = forward(model, x)
        focal, g_f = loss_and_grad(acts, y, LossSpec(kind="focal", gamma=0.0))
        plain, g_p = loss_and_grad(acts, y, LossSpec())
        assert focal == pytest.approx(plain, rel=1e-12)
        np.testing.assert_allclose(g_f, g_p, atol=1e-12)

    def test_focal_downweights_easy_samples(self):
        model = mlp_init([4, 8, 3], seed=5)
        x, y = seeded_batch(model, 10, seed=3)
        acts = forward(model, x)
        focal, _ = loss_and_grad(acts, y, LossSpec(kind="focal", gamma=2.0))
        plain, _ = loss_and_grad(acts, y, LossSpec())
        assert focal < plain

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss_targets(np.array([0, 3]), LossSpec(), 3)

    def test_class_balanced_requires_counts(self):
        with pytest.raises(ValueError):
            loss_targets(np.array([0, 1]), LossSpec(kind="class_balanced", beta=0.9), 3)

    def test_targets_must_match_the_batch(self):
        model = mlp_init([4, 8, 3], seed=0)
        acts = forward(model, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            compute_loss(acts, loss_targets(np.array([0, 1, 2]), LossSpec(), 3))
        with pytest.raises(ValueError):
            compute_loss(acts, loss_targets(np.zeros((2, 2), dtype=int), LossSpec(), 3))

    def test_per_class_n_below_one_rejected(self):
        spec = LossSpec(kind="class_balanced", beta=0.9, per_class_n=np.array([1.0, 0.5, 2.0]))
        with pytest.raises(ValueError):
            spec.validate(3)


class TestBackward:
    def test_zero_grad_logits(self):
        model = mlp_init([4, 8, 3], seed=1)
        x, _ = seeded_batch(model, 6, seed=1)
        acts = forward(model, x)
        grads = backward(model, acts, np.zeros_like(acts.logits))
        for g in all_layers(model.layer_sizes, grads):
            assert not np.any(g)

    def test_matches_finite_differences(self):
        model = mlp_init([4, 8, 3], seed=11)
        x, y = seeded_batch(model, 16, seed=12)
        assert grad_check(model, x, y, LossSpec(), eps=1e-5) < 1e-6

    def test_duplicated_batch_same_mean_gradient(self):
        model = mlp_init([4, 8, 3], seed=11)
        x, y = seeded_batch(model, 7, seed=13)
        acts = forward(model, x)
        _, g = loss_and_grad(acts, y, LossSpec())
        grads = backward(model, acts, g)

        x2, y2 = np.concatenate([x, x]), np.concatenate([y, y])
        acts2 = forward(model, x2)
        _, g2 = loss_and_grad(acts2, y2, LossSpec())
        grads2 = backward(model, acts2, g2)
        weights, _ = layer_views(model.layer_sizes, grads)
        weights2, _ = layer_views(model.layer_sizes, grads2)
        for a, b in zip(weights, weights2):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_shape_mismatch(self):
        model = mlp_init([4, 8, 3], seed=1)
        acts = forward(model, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            backward(model, acts, np.zeros((2, 4)))


class TestSgdStep:
    def test_zero_gradient_no_change(self):
        model = mlp_init([4, 8, 3], seed=2)
        before = model.copy()
        x, _ = seeded_batch(model, 3, seed=0)
        acts = forward(model, x)
        grads = backward(model, acts, np.zeros_like(acts.logits))
        opt = OptState.for_model(model, lr=0.1, momentum=0.0)
        sgd_step(model, grads, opt)
        for a, b in zip(before.weights, model.weights):
            np.testing.assert_array_equal(a, b)

    def test_plain_arithmetic(self):
        model = mlp_init([1, 1], seed=0)
        model.weights[0][:] = 1.0
        opt = OptState.for_model(model, lr=0.001, momentum=0.0)
        sgd_step(model, np.array([2.0, 0.0]), opt)
        assert model.weights[0][0, 0] == pytest.approx(0.998, abs=1e-15)

    def test_momentum_matches_hand_unroll(self):
        model = mlp_init([1, 1], seed=0)
        model.weights[0][:] = 1.0
        model.biases[0][:] = 0.0
        lr, mu = 0.1, 0.9
        g1, g2 = 0.5, -0.25
        opt = OptState.for_model(model, lr=lr, momentum=mu)
        sgd_step(model, np.array([g1, 0.0]), opt)
        sgd_step(model, np.array([g2, 0.0]), opt)
        buf1 = g1
        w1 = 1.0 - lr * buf1
        buf2 = mu * buf1 + g2
        w2 = w1 - lr * buf2
        assert model.weights[0][0, 0] == pytest.approx(w2, abs=1e-15)

    def test_momentum_zero_is_exact_subtraction(self):
        model = mlp_init([3, 5, 2], seed=4)
        x, y = seeded_batch(model, 4, seed=4)
        acts = forward(model, x)
        _, g = loss_and_grad(acts, y, LossSpec())
        grads = backward(model, acts, g)
        weight_grads, _ = layer_views(model.layer_sizes, grads)
        expected = [w - 0.05 * gw for w, gw in zip(model.weights, weight_grads)]
        opt = OptState.for_model(model, lr=0.05, momentum=0.0)
        sgd_step(model, grads, opt)
        for w, e in zip(model.weights, expected):
            np.testing.assert_array_equal(w, e)


class TestGradCheck:
    def test_all_loss_kinds_pass(self):
        specs = [
            LossSpec(),
            LossSpec(kind="class_balanced", beta=0.9, per_class_n=np.array([40.0, 4.0, 1.0])),
            LossSpec(kind="focal", gamma=2.0),
        ]
        model = mlp_init([4, 8, 3], seed=21)
        x, y = seeded_batch(model, 12, seed=22)
        for spec in specs:
            assert grad_check(model, x, y, spec, eps=1e-5) < 1e-6

    def test_dead_relu_path_zero_both_ways(self):
        model = mlp_init([2, 4, 2], seed=3)
        model.biases[0][:] = -1.0  # strictly dead hidden units for zero input
        x = np.zeros((3, 2))
        y = np.array([0, 1, 0])
        acts = forward(model, x)
        _, g = loss_and_grad(acts, y, LossSpec())
        weight_grads, _ = layer_views(model.layer_sizes, backward(model, acts, g))
        assert not np.any(weight_grads[0])
        assert not np.any(weight_grads[1])
        assert grad_check(model, x, y, LossSpec(), eps=1e-5) < 1e-6

    def test_eps_precondition(self):
        model = mlp_init([2, 3, 2], seed=0)
        with pytest.raises(ValueError):
            grad_check(model, np.zeros((1, 2)), np.array([0]), LossSpec(), eps=0.1)


def stack(models):
    return MlpModel(list(models[0].layer_sizes), np.stack([m.params for m in models]))


class TestClientAxis:
    """A stacked model with a row mask computes what each client's 2-D model
    computes on its own unmasked rows. Stacked batches put the rows first:
    (B, K, d), with (B, K) labels and masks."""

    SPECS = [
        LossSpec(),
        LossSpec(kind="class_balanced", beta=0.9, per_class_n=np.array([40.0, 4.0, 1.0])),
        LossSpec(kind="focal", gamma=2.0),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["plain_ce", "class_balanced", "focal"])
    def test_masked_stack_matches_per_client(self, spec):
        models = [mlp_init([4, 8, 3], seed=s) for s in range(3)]
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, (6, 3, 4))
        y = rng.integers(0, 3, (6, 3))
        mask = np.arange(6)[:, None] < np.array([6, 4, 0])  # client 2 has no rows
        stacked = stack(models)
        acts = forward(stacked, x)
        losses, g = loss_and_grad(acts, y, spec, mask)
        grads = all_layers(stacked.layer_sizes, backward(stacked, acts, g))
        assert losses.shape == (3,) and losses[2] == 0.0
        for k in range(2):
            rows = mask[:, k]
            a = forward(models[k], x[rows, k])
            loss, gk = loss_and_grad(a, y[rows, k], spec)
            ref = all_layers(models[k].layer_sizes, backward(models[k], a, gk))
            assert losses[k] == pytest.approx(loss, abs=1e-12)
            for got, want in zip(grads, ref):
                np.testing.assert_allclose(got[k], want, atol=1e-12)
        for got in grads:
            assert not np.any(got[2])

    @pytest.mark.parametrize("spec", SPECS, ids=["plain_ce", "class_balanced", "focal"])
    def test_prebuilt_targets_give_the_same_bits(self, spec):
        """Targets built for a (T, B, K) round and sliced at step t give the
        bits of targets built for step t alone."""
        stacked = stack([mlp_init([4, 8, 3], seed=s) for s in range(3)])
        rng = np.random.default_rng(1)
        y = rng.integers(0, 3, (2, 6, 3))
        mask = np.arange(6)[:, None] < rng.integers(0, 7, (2, 1, 3))
        mask[1, :, 2] = False  # a client with no rows at step 1
        x = rng.normal(0.0, 1.0, (2, 6, 3, 4))
        targets = loss_targets(y, spec, 3, mask)
        losses = []
        for step in range(2):
            acts = forward(stacked, x[step])
            alone = loss_targets(y[step], spec, 3, mask[step])
            assert np.array_equal(compute_loss(acts, targets[step]), compute_loss(acts, alone))
            losses.append(alone.loss())
        assert np.array_equal(targets.loss(), np.stack(losses))

    def test_batch_must_carry_the_client_axis(self):
        stacked = stack([mlp_init([4, 8, 3], seed=s) for s in range(2)])
        with pytest.raises(ValueError):
            forward(stacked, np.zeros((5, 4)))
        with pytest.raises(ValueError):
            forward(stacked, np.zeros((3, 5, 4)))

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            loss_targets(np.array([0, 1]), LossSpec(), 3, np.ones(3, dtype=bool))

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_masked_step_leaves_client_exactly_unchanged(self, momentum):
        stacked = stack([mlp_init([4, 8, 3], seed=s) for s in range(2)])
        opt = OptState.for_model(stacked, lr=0.1, momentum=momentum)
        rng = np.random.default_rng(3)
        opt.velocity[:] = rng.normal(0.0, 1.0, opt.velocity.shape)
        grads = rng.normal(0.0, 1.0, stacked.params.shape)
        grads[1] = np.nan  # whatever the frozen client's gradient holds
        before = stacked.copy()
        velocity = opt.velocity.copy()
        sgd_step(stacked, grads, opt, np.array([True, False]))
        for a, b in zip(stacked.weights + stacked.biases, before.weights + before.biases):
            np.testing.assert_array_equal(a[1], b[1])
            assert not np.array_equal(a[0], b[0])
        np.testing.assert_array_equal(opt.velocity[1], velocity[1])
