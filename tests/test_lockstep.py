"""The lockstep local_update against the two trainers it replaced.

The references live in reference.py. reference_local_update is the per-client loop: one client at a time, 2-D
model, one permutation per epoch from the client's own seed, the final
partial batch kept. The lockstep engine stacks clients, pads batches with a
row mask and freezes finished clients with a step mask, so it sums in
another order; results must agree to 1e-12.

reference_lockstep_update is the first stacked engine: per-layer weight and
bias arrays with a leading client axis, the loss's label half rebuilt every
step, a per-layer SGD step and a per-step loss sum. The flat-buffer engine
does the same arithmetic in the same order, so it must agree bit for bit.
reference_aggregate is the per-layer Python sum over clients that the
one-reduction aggregate replaced, also required bit for bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedimt.federation import ClientUpdate, FlConfig, aggregate, local_update
from fedimt.nn import LossSpec, MlpModel, layer_views, mlp_init
from reference import reference_aggregate, reference_local_update, reference_lockstep_update

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
    "class_weights": LossSpec(
        kind="class_balanced", beta=0.99, class_weights=np.array([0.5, 2.0, 1.3])
    ),
    "focal": LossSpec(kind="focal", gamma=2.0),
}
STRATEGIES = {"fedavg": 0.0, "fedprox": 0.5, "fednova": 0.0}


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


@pytest.mark.parametrize(
    "strategy,loss,momentum",
    list(itertools.product(STRATEGIES, LOSS_SPECS, (0.0, 0.9))),
)
def test_flat_engine_matches_layered_engine_bit_for_bit(strategy, loss, momentum):
    model = mlp_init([4, 8, 3], seed=1)
    features, labels = client_data()
    cfg = config_for(strategy, momentum)
    seeds = [(5, 18, 0, cid) for cid in CLIENT_IDS]
    spec = LOSS_SPECS[loss]

    updates = local_update(list(CLIENT_IDS), features, labels, model, cfg, spec, seeds)
    expected = reference_lockstep_update(CLIENT_IDS, features, labels, model, cfg, spec, seeds)
    assert len(updates) == len(expected) == len(CLIENT_SIZES) - 1
    # K = 1 as well: client 9 alone takes 12 steps, where a (T, 1) sum over
    # steps could switch to pairwise order.
    k = CLIENT_IDS.index(9)
    single = local_update(9, features[k], labels[k], model, cfg, spec, seeds[k])
    assert single.local_steps == 12
    updates.append(single)
    expected += reference_lockstep_update([9], [features[k]], [labels[k]], model, cfg, spec, [seeds[k]])
    for update, (cid, weights, biases, train_loss) in zip(updates, expected, strict=True):
        assert update.client_id == cid
        assert update.train_loss == train_loss
        for got, want in zip(update.model.weights + update.model.biases, weights + biases):
            assert np.array_equal(got, want)


@given(
    st.sampled_from(sorted(STRATEGIES)),
    st.lists(st.tuples(st.integers(1, 500), st.integers(1, 40)), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_aggregate_matches_per_layer_sum_bit_for_bit(strategy, clients, seed):
    rng = np.random.default_rng(seed)
    sizes = [5, 7, 3]
    global_model = MlpModel(sizes, rng.normal(0.0, 1.0, 5 * 7 + 7 * 3 + 7 + 3))
    updates = [
        ClientUpdate(
            client_id=int(cid),
            model=MlpModel(sizes, global_model.params + rng.normal(0.0, 0.1, global_model.params.shape)),
            sample_count=count,
            local_steps=local_steps,
            train_loss=0.0,
        )
        for cid, (count, local_steps) in zip(rng.permutation(len(clients)), clients)
    ]
    result = aggregate(updates, global_model, strategy)
    weights, biases = reference_aggregate(updates, global_model, strategy)
    for got, want in zip(result.weights + result.biases, weights + biases):
        assert np.array_equal(got, want)


def test_weights_and_biases_are_views_of_the_flat_buffer():
    single = mlp_init([4, 8, 3], seed=1)
    stacked = MlpModel(single.layer_sizes, np.stack([single.params] * 3))
    grads = np.zeros_like(stacked.params)
    grad_weights, grad_biases = layer_views(single.layer_sizes, grads)
    for flat, views in (
        (single.params, single.weights + single.biases),
        (stacked.params, stacked.weights + stacked.biases),
        (grads, grad_weights + grad_biases),
    ):
        assert sum(v.size for v in views) == flat.size
        for view in views:
            assert np.shares_memory(view, flat)
            view[...] = 7.0
        assert np.all(flat == 7.0)
    with pytest.raises(ValueError):
        MlpModel([4, 8, 3], np.zeros(single.params.size + 1))


def test_copy_is_independent():
    model = mlp_init([4, 8, 3], seed=1)
    before = model.params.copy()
    clone = model.copy()
    clone.weights[0][...] = 1.0
    clone.biases[1][...] = 2.0
    assert np.array_equal(model.params, before)
    assert not np.shares_memory(clone.params, model.params)
    assert np.shares_memory(clone.weights[0], clone.params)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_aggregate_never_writes_into_its_inputs(strategy):
    model = mlp_init([4, 8, 3], seed=1)
    features, labels = client_data()
    cfg = config_for(strategy, 0.0)
    seeds = [(5, 18, 0, cid) for cid in CLIENT_IDS]
    updates = local_update(list(CLIENT_IDS), features, labels, model, cfg, LossSpec(), seeds)
    before = [u.model.params.copy() for u in updates] + [model.params.copy()]
    result = aggregate(updates, model, strategy)
    for params, want in zip([u.model.params for u in updates] + [model.params], before):
        assert np.array_equal(params, want)
        assert not np.shares_memory(result.params, params)
