import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedimt.observer import (
    _PROB_TOL,
    balanced_weights,
    cosine_similarity,
    mismatch_check,
    observer_init,
    observer_update,
)


def ratio_strategy(q=4):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=q, max_size=q)
        .map(lambda xs: np.array(xs) / np.sum(xs))
    )


class TestObserverInit:
    def test_ten_classes_uniform(self):
        state = observer_init(10, gain=0.3)
        np.testing.assert_allclose(state.ratio, [0.1] * 10)
        assert state.round_count == 0

    def test_two_classes(self):
        np.testing.assert_allclose(observer_init(2, gain=0.5).ratio, [0.5, 0.5])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            observer_init(1, gain=0.3)

    def test_gain_range(self):
        with pytest.raises(ValueError):
            observer_init(3, gain=0.0)
        with pytest.raises(ValueError):
            observer_init(3, gain=1.5)


class TestObserverUpdate:
    def test_first_observation_adopted_verbatim(self):
        state = observer_init(2, gain=0.3)
        state = observer_update(state, np.array([0.7, 0.3]))
        np.testing.assert_array_equal(state.ratio, [0.7, 0.3])
        assert state.round_count == 1

    def test_hand_evaluated_blend(self):
        state = observer_init(2, gain=0.3)
        state = observer_update(state, np.array([0.5, 0.5]))
        state = observer_update(state, np.array([0.9, 0.1]))
        # raw blend [0.31, 0.19] renormalizes to [0.62, 0.38]
        np.testing.assert_allclose(state.ratio, [0.62, 0.38], atol=1e-12)

    def test_constant_input_converges(self):
        target = np.array([0.2, 0.5, 0.3])
        state = observer_init(3, gain=0.3)
        state = observer_update(state, np.array([0.8, 0.1, 0.1]))
        for _ in range(50):
            state = observer_update(state, target)
        np.testing.assert_allclose(state.ratio, target, atol=1e-6)

    @given(ratio_strategy(), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_state_stays_probability_vector(self, r, gain):
        state = observer_init(4, gain=gain)
        for _ in range(5):
            state = observer_update(state, r)
            assert np.all(state.ratio >= 0.0)
            assert state.ratio.sum() == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(0.05, 0.95), st.integers(2, 20))
    @settings(max_examples=40, deadline=None)
    def test_beats_running_average_after_stale_history(self, gain, rounds_after):
        # warmed long enough that the running average has gone stale, which is
        # the regime the gain-blended observer is built for
        warmup = 30
        r_a = np.array([0.8, 0.2])
        r_b = np.array([0.2, 0.8])
        obs = observer_init(2, gain=gain)
        avg = None
        count = 0
        for _ in range(warmup):
            obs = observer_update(obs, r_a)
            count += 1
            avg = r_a.copy() if avg is None else ((count - 1) * avg + r_a) / count
        for _ in range(rounds_after):
            obs = observer_update(obs, r_b)
            count += 1
            avg = ((count - 1) * avg + r_b) / count
        assert np.abs(obs.ratio - r_b).max() < np.abs(avg - r_b).max()

    def test_wrong_length_rejected(self):
        state = observer_init(3, gain=0.3)
        with pytest.raises(ValueError):
            observer_update(state, np.array([0.5, 0.5]))

    def test_non_probability_rejected(self):
        state = observer_init(2, gain=0.3)
        with pytest.raises(ValueError):
            observer_update(state, np.array([0.9, 0.3]))
        with pytest.raises(ValueError):
            observer_update(state, np.array([1.2, -0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        state = observer_update(observer_init(3, gain=0.3), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValueError):
            observer_update(state, np.full(3, bad))
        with pytest.raises(ValueError):
            observer_update(state, np.array([bad, 0.5, 0.5]))

    @given(
        st.integers(2, 12).flatmap(
            lambda q: st.lists(
                st.lists(st.floats(0.0, 1.0), min_size=q, max_size=q).filter(lambda xs: sum(xs) > 0),
                min_size=1,
                max_size=6,
            )
        ),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_ratio_stays_on_simplex(self, observations, gain):
        state = observer_init(len(observations[0]), gain=gain)
        for xs in observations:
            state = observer_update(state, np.array(xs) / np.sum(xs))
            assert np.all(state.ratio >= 0.0)
            assert abs(state.ratio.sum() - 1.0) <= _PROB_TOL


class TestMismatchCheck:
    def warmed(self, ratio):
        return observer_update(observer_init(len(ratio), gain=0.3), np.asarray(ratio, dtype=float))

    def test_identical_never_dropped(self):
        state = self.warmed([0.6, 0.4])
        decision = mismatch_check(state, np.array([0.6, 0.4]), 0.5)
        assert decision.similarity == pytest.approx(1.0)
        assert not decision.dropped

    def test_orthogonal_always_dropped(self):
        state = self.warmed([1.0, 0.0])
        decision = mismatch_check(state, np.array([0.0, 1.0]), 0.1)
        assert decision.similarity == pytest.approx(0.0)
        assert decision.dropped

    def test_zero_threshold_disables_dropping(self):
        state = self.warmed([1.0, 0.0])
        decision = mismatch_check(state, np.array([0.0, 1.0]), 0.0)
        assert not decision.dropped

    def test_non_finite_rejected(self):
        state = self.warmed([0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            mismatch_check(state, [np.nan] * 3, 0.5)

    def test_requires_prior_observation(self):
        state = observer_init(2, gain=0.3)
        with pytest.raises(ValueError):
            mismatch_check(state, np.array([0.5, 0.5]), 0.5)


class TestBalancedWeights:
    def test_beta_zero_all_ones(self):
        w = balanced_weights(np.array([0.25, 0.25, 0.25, 0.25]), n_ref=1000, beta=0.0)
        np.testing.assert_allclose(w, 1.0)

    def test_uniform_ratio_equal_weights(self):
        w = balanced_weights(np.full(5, 0.2), n_ref=500, beta=0.999)
        np.testing.assert_allclose(w, w[0])
        np.testing.assert_allclose(w, 1.0, rtol=1e-9)

    def test_minority_gets_larger_weight(self):
        w = balanced_weights(np.array([0.162, 0.838]), n_ref=1000, beta=0.999)
        assert w[0] > w[1]

    def test_ratio_weighted_mean_is_one(self):
        ratio = np.array([0.1, 0.6, 0.3])
        w = balanced_weights(ratio, n_ref=2000, beta=0.99)
        assert float(np.dot(ratio, w)) == pytest.approx(1.0, abs=1e-12)

    @given(ratio_strategy(3), st.floats(0.5, 0.9999))
    @settings(max_examples=40, deadline=None)
    def test_antitone_in_effective_count(self, ratio, beta):
        w = balanced_weights(ratio, n_ref=5000, beta=beta)
        n_q = np.maximum(1.0, np.rint(5000 * ratio))
        order = np.argsort(n_q)
        assert np.all(np.diff(w[order]) <= 1e-9)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            balanced_weights(np.array([0.5, 0.5]), n_ref=100, beta=1.0)

    def test_small_n_ref_rejected(self):
        with pytest.raises(ValueError):
            balanced_weights(np.array([0.5, 0.5]), n_ref=1, beta=0.9)


class TestCosineSimilarity:
    def test_identical(self):
        assert cosine_similarity(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_parallel_after_renormalization(self):
        sim = cosine_similarity(np.array([0.31, 0.19]), np.array([0.62, 0.38]))
        assert sim == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(2), np.array([1.0, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(2), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            cosine_similarity(np.array([bad, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, bad]))
