"""The server side of a round against the simple code it replaced.

Each reference in reference.py is the earlier implementation, kept as it was:
estimate_counts as one loop over classes, evaluation as the softmax's argmax
counted with np.add.at, and the T_G ground truth as each client's latest
window, sliced one client at a time, summed by oracle_counts. The fast paths do the same arithmetic in
array form, so their results must be equal, not merely close.

The runner probes and evaluates each global model once: a dropped round keeps
the model, and with it the model's probe and accuracy.
"""

import numpy as np
import pytest

import fedimt.federation as federation
from fedimt.data import AuxiliarySet, ClientDataset
from fedimt.estimator import estimate_counts, oracle_counts
from fedimt.metrics import EvalSet, evaluate
from fedimt.nn import MlpModel, mlp_init
from conftest import make_dataset, synthetic_exp_config
from reference import (
    lean_probe,
    reference_estimate_counts,
    reference_evaluate,
    reference_window_counts,
)


def random_case(rng, q, s):
    """(Q, s, Q) probe updates, their n_aux, layer weights and a total with
    every row kind the solver distinguishes: all nodes usable, some skipped,
    some infinitely confident (no other class touches the weight), and every
    node skipped."""
    per_class = rng.normal(0.0, 1.0, (q, s, q))
    for p in range(q):
        kind = rng.integers(5)
        own_sign = np.sign(per_class[p, :, p])
        if kind == 0 and q > 1:
            # Other classes oppose the own update at every node.
            for g in range(q):
                if g != p:
                    per_class[g, :, p] = -own_sign * np.abs(per_class[g, :, p])
        elif kind == 1 and q > 1:
            # Other classes pull the same way: every node is skipped.
            for g in range(q):
                if g != p:
                    per_class[g, :, p] = own_sign * np.abs(per_class[g, :, p])
        elif kind == 2:
            # No other class touches some weights: other == 0 there.
            zero = rng.random(s) < 0.3
            for g in range(q):
                if g != p:
                    per_class[g, zero, p] = 0.0
        elif kind == 3:
            # No own update anywhere: every node is skipped.
            per_class[p, :, p] = 0.0
    w_prev = rng.normal(0.0, 1.0, (s, q))
    w_new = w_prev + rng.normal(0.0, 0.5, (s, q))
    n_aux = rng.integers(1, 200, q).astype(float)
    total = float(rng.integers(1, 5000))
    return per_class, n_aux, w_prev, w_new, total


def assert_estimates_equal(got, want):
    np.testing.assert_array_equal(got.counts, want.counts)
    np.testing.assert_array_equal(got.node_estimates, want.node_estimates)
    np.testing.assert_array_equal(got.node_confidences, want.node_confidences)
    np.testing.assert_array_equal(got.used_node_count, want.used_node_count)
    np.testing.assert_array_equal(got.fallback, want.fallback)


@pytest.mark.parametrize("q", [1, 2, 3, 7, 40])
def test_estimate_counts_matches_per_class_loop(q):
    rng = np.random.default_rng(q)
    seen = {"full": 0, "skipped": 0, "infinite": 0, "fallback": 0}
    for _ in range(60):
        s = int(rng.integers(1, 65))
        per_class, n_aux, w_prev, w_new, total = random_case(rng, q, s)
        num_selected = int(rng.integers(1, 20))
        got = estimate_counts(lean_probe(per_class, n_aux), w_prev, w_new, total, num_selected)
        want = reference_estimate_counts(per_class, n_aux, w_prev, w_new, total, num_selected)
        assert_estimates_equal(got, want)
        infinite = np.isinf(got.node_confidences).any(axis=1)
        seen["full"] += int(np.sum((got.used_node_count == s) & ~infinite))
        seen["skipped"] += int(np.sum((got.used_node_count < s) & ~got.fallback))
        seen["infinite"] += int(np.sum(infinite))
        seen["fallback"] += int(np.sum(got.fallback))
    kinds = ("infinite", "fallback") if q == 1 else tuple(seen)
    assert all(seen[k] > 0 for k in kinds), seen


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_matches_softmax_argmax(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 12))
    model = mlp_init([6, 16, q], seed=seed)
    features = rng.normal(0.0, 2.0, (500, 6))
    # Class q - 1 never appears, though it is a minority class.
    labels = rng.integers(0, q - 1, 500)
    minority = np.array([0, q - 1])
    got = evaluate(model, EvalSet(features, labels, minority))
    want = reference_evaluate(model, features, labels, minority)
    assert got.accuracy == want.accuracy
    assert got.minority_accuracy == want.minority_accuracy


def test_evaluate_ties_pick_the_first_class():
    # Zero weights: every logit equals its bias, and classes 1 and 3 tie.
    # Class 1 wins, so rows 1 and 4 are right; class 3 winning would read 0.2.
    model = mlp_init([3, 4], seed=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = [0.0, 2.0, 1.0, 2.0]
    labels = np.array([0, 1, 2, 3, 1])
    features = np.zeros((5, 3))
    got = evaluate(model, EvalSet(features, labels))
    want = reference_evaluate(model, features, labels)
    assert got.accuracy == want.accuracy == 0.4


def test_evaluate_rejects_out_of_range_labels():
    model = mlp_init([3, 4], seed=0)
    with pytest.raises(ValueError, match="labels"):
        evaluate(model, EvalSet(np.zeros((2, 3)), np.array([0, 4])))


def uneven_clients(num_classes=5, seed=0):
    rng = np.random.default_rng(seed)
    clients = []
    for cid, n in enumerate((1, 7, 16, 33, 0, 64, 5)):
        ds = make_dataset(
            rng.normal(0.0, 1.0, (n, 2)),
            rng.integers(0, num_classes, n),
            num_classes=num_classes,
            time_order=rng.permutation(n),
        )
        clients.append(ClientDataset(client_id=cid, dataset=ds))
    return clients


@pytest.mark.parametrize("n_latest", [1, 4, 16, 64, 100])
def test_window_counts_match_per_client_windows(n_latest):
    clients = uneven_clients()
    runner = federation.FederatedRunner(
        config=federation.FlConfig(num_clients=len(clients), rounds=9, n_latest=n_latest),
        clients=clients,
        model=mlp_init([2, 5], seed=0),
        seed=0,
        aux=AuxiliarySet([np.zeros((1, 2))] * 5),
    )
    for r in range(9):
        got = runner._global_truth(r)
        want = reference_window_counts(clients, n_latest, r, 5)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype


@pytest.mark.parametrize("n_latest", [None, 3, 40])
def test_runner_global_truth_matches_per_client_windows(n_latest):
    config = synthetic_exp_config(rounds=3, n_latest=n_latest)
    runner = federation.build_runner(config, seed=0)
    for r in range(5):
        if n_latest is None:
            want = oracle_counts([c.dataset.labels for c in runner.clients], runner.num_classes)
        else:
            want = reference_window_counts(runner.clients, n_latest, r, runner.num_classes)
        np.testing.assert_array_equal(runner._global_truth(r), want)


@pytest.mark.parametrize("n_latest", [None, 12])
def test_each_global_model_is_probed_and_evaluated_once(monkeypatch, n_latest):
    probed: list[MlpModel] = []
    evaluated: list[MlpModel] = []
    probe, evaluate_ = federation.probe_auxiliary, federation.evaluate

    def counting_probe(model, *args, **kwargs):
        probed.append(model)
        return probe(model, *args, **kwargs)

    def counting_evaluate(model, *args, **kwargs):
        evaluated.append(model)
        return evaluate_(model, *args, **kwargs)

    monkeypatch.setattr(federation, "probe_auxiliary", counting_probe)
    monkeypatch.setattr(federation, "evaluate", counting_evaluate)
    config = synthetic_exp_config(rounds=12, drop_threshold=0.9, n_latest=n_latest)
    report = federation.run_experiment(config, seed=1)

    kept = [not rec.dropped for rec in report.records[1:]]
    assert 0 < sum(kept) < len(kept)
    # The initial model, then one per kept round; the model a round adopts
    # is probed only if another round follows.
    assert len(evaluated) == 1 + sum(kept)
    assert len(probed) == 1 + sum(kept[:-1])
    assert len({id(m) for m in evaluated}) == len(evaluated)
    assert len({id(m) for m in probed}) == len(probed)
    for previous, rec in zip(report.records, report.records[1:]):
        if rec.dropped:
            assert rec.accuracy == previous.accuracy
            assert rec.minority_accuracy == previous.minority_accuracy
