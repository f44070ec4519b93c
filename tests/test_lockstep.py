"""The lockstep local_update against the per-client training loop it replaced.

reference_local_update is that loop, kept as the reference: one client at a
time, 2-D model, one permutation per epoch from the client's own seed, the
final partial batch kept. The lockstep engine stacks clients, pads batches
with a row mask and freezes finished clients with a step mask, so it sums in
another order; results must agree to 1e-12.
"""

import itertools

import numpy as np
import pytest

from fedimt.federation import ClientUpdate, FlConfig, local_update
from fedimt.nn import LossSpec, OptState, backward, compute_loss, forward, mlp_init, sgd_step

TOL = 1e-12

# Client 2 takes four batches per epoch, the rest one or two; client 3 is
# empty and yields no update.
CLIENT_SIZES = (13, 8, 30, 0, 5, 11)
CLIENT_IDS = (4, 7, 9, 12, 20, 31)

LOSS_SPECS = {
    "plain_ce": LossSpec(),
    "class_balanced": LossSpec(
        kind="class_balanced", beta=0.99, per_class_n=np.array([40.0, 6.0, 1.0])
    ),
    "focal": LossSpec(kind="focal", gamma=2.0),
}
STRATEGIES = {"fedavg": 0.0, "fedprox": 0.5, "fednova": 0.0}


def reference_local_update(client_id, features, labels, global_model, config, loss_spec, seed):
    n = len(labels)
    if n == 0:
        return None
    model = global_model.copy()
    opt = OptState.for_model(model, lr=config.lr, momentum=config.momentum)
    rng = np.random.default_rng(seed)
    prox = config.strategy == "fedprox" and config.prox_mu > 0.0
    steps = 0
    loss_total = 0.0
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            acts = forward(model, features[batch])
            loss, grad_logits = compute_loss(acts, labels[batch], loss_spec)
            grads = backward(model, acts, grad_logits)
            if prox:
                for i in range(len(model.weights)):
                    grads.weight_grads[i] += config.prox_mu * (
                        model.weights[i] - global_model.weights[i]
                    )
            sgd_step(model, grads, opt)
            steps += 1
            loss_total += loss
    return ClientUpdate(
        client_id=client_id,
        model=model,
        sample_count=n,
        local_steps=steps,
        train_loss=loss_total / steps,
    )


def client_data(seed=0):
    rng = np.random.default_rng(seed)
    features = [rng.normal(0.0, 1.0, (n, 4)) for n in CLIENT_SIZES]
    labels = [rng.integers(0, 3, n) for n in CLIENT_SIZES]
    return features, labels


def config_for(strategy, momentum):
    return FlConfig(
        num_clients=len(CLIENT_SIZES), rounds=1, selection_rate=1.0, local_epochs=3,
        batch_size=8, lr=0.05, momentum=momentum, strategy=strategy,
        prox_mu=STRATEGIES[strategy],
    )


def assert_matches(update, expected):
    assert update.client_id == expected.client_id
    assert update.sample_count == expected.sample_count
    assert update.local_steps == expected.local_steps
    assert abs(update.train_loss - expected.train_loss) <= TOL
    for got, want in zip(
        update.model.weights + update.model.biases,
        expected.model.weights + expected.model.biases,
    ):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= TOL


@pytest.mark.parametrize(
    "strategy,loss,momentum",
    list(itertools.product(STRATEGIES, LOSS_SPECS, (0.0, 0.9))),
)
def test_lockstep_matches_per_client_loop(strategy, loss, momentum):
    model = mlp_init([4, 8, 3], seed=1)
    before = model.copy()
    features, labels = client_data()
    cfg = config_for(strategy, momentum)
    seeds = [(5, 18, 0, cid) for cid in CLIENT_IDS]
    spec = LOSS_SPECS[loss]

    updates = local_update(list(CLIENT_IDS), features, labels, model, cfg, spec, seeds)
    expected = [
        reference_local_update(cid, x, y, model, cfg, spec, s)
        for cid, x, y, s in zip(CLIENT_IDS, features, labels, seeds)
    ]
    expected = [e for e in expected if e is not None]
    assert len(updates) == len(expected) == len(CLIENT_SIZES) - 1
    assert len({u.local_steps for u in updates}) > 1
    for update, want in zip(updates, expected):
        assert_matches(update, want)

    k = CLIENT_IDS.index(9)
    single = local_update(9, features[k], labels[k], model, cfg, spec, seeds[k])
    assert_matches(single, reference_local_update(9, features[k], labels[k], model, cfg, spec, seeds[k]))
    for a, b in zip(model.weights + model.biases, before.weights + before.biases):
        np.testing.assert_array_equal(a, b)


def test_only_empty_clients_yield_no_updates():
    model = mlp_init([4, 8, 3], seed=1)
    empty = [np.zeros((0, 4))] * 2
    labels = [np.zeros(0, dtype=int)] * 2
    cfg = config_for("fedavg", 0.0)
    assert local_update([0, 1], empty, labels, model, cfg, LossSpec(), [0, 1]) == []


def test_parallel_sequences_must_match():
    model = mlp_init([4, 8, 3], seed=1)
    features, labels = client_data()
    cfg = config_for("fedavg", 0.0)
    with pytest.raises(ValueError):
        local_update([0, 1], features[:1], labels[:2], model, cfg, LossSpec(), [0, 1])
