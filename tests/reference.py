"""Simple implementations that the fast paths replaced, kept as test references.

Each function below is the earlier code, kept as it was. Tests compare a fast
path against its reference and require equal results, bit for bit, except
reference_local_update, whose per-client loop sums in another order than the
lockstep engine (tests/test_lockstep.py holds its tolerance). Only its calls
into fedimt.nn follow that module's current API: it builds each batch's loss
targets with loss_targets, and its FedProx loop adds to the weight views that
layer_views cuts from the flat gradient buffer.

reference_probe_auxiliary returns every class's full (s, Q) probe update as
one (Q, s, Q) array, and reference_estimate_counts reads that array;
lean_probe reduces it to the AuxGradients that estimate_counts reads.
"""

import numpy as np

from fedimt.data import ClientDataset, Dataset
from fedimt.estimator import AuxGradients, CountEstimate, oracle_counts
from fedimt.federation import ClientUpdate
from fedimt.metrics import EvalResult
from fedimt.nn import (
    OptState,
    backward,
    compute_loss,
    effective_number_weight,
    forward,
    layer_views,
    loss_targets,
    sgd_step,
    softmax,
)


def reference_bursty_order(labels, run_length, rng):
    """Arrival order where same-class samples come in geometric-length runs."""
    n = len(labels)
    if run_length == 1:
        return rng.permutation(n)
    pools = [np.flatnonzero(labels == q) for q in range(int(labels.max()) + 1)]
    for pool in pools:
        rng.shuffle(pool)
    taken = [0] * len(pools)
    remaining = np.array([len(p) for p in pools], dtype=float)
    order = np.empty(n, dtype=int)
    pos = 0
    while pos < n:
        q = int(rng.choice(len(pools), p=remaining / remaining.sum()))
        run = min(int(rng.geometric(1.0 / run_length)), int(remaining[q]))
        order[pos : pos + run] = pools[q][taken[q] : taken[q] + run]
        taken[q] += run
        remaining[q] -= run
        pos += run
    return order


def reference_gen_synthetic(spec, means_seed, seed):
    """Draw spec.class_counts[q] points from N(mean_q, cluster_scale^2 I) per
    class, the means of norm ~ class_separation drawn from means_seed."""
    spec.validate()
    d = spec.feature_dim
    means = np.random.default_rng(means_seed).normal(0.0, 1.0, (spec.classes, d))
    means = means * (spec.class_separation / np.sqrt(d))
    rng = np.random.default_rng(seed)
    feats, labs = [], []
    for q in range(spec.classes):
        c = int(spec.class_counts[q])
        feats.append(means[q] + rng.normal(0.0, spec.cluster_scale, (c, d)))
        labs.append(np.full(c, q, dtype=int))
    features = np.concatenate(feats)
    labels = np.concatenate(labs)
    order = reference_bursty_order(labels, spec.run_length, rng)
    return Dataset(
        features=features,
        labels=labels,
        num_classes=spec.classes,
        time_order=order,
    )


def reference_shard_partition(dataset, num_clients, shards_per_client, seed):
    """Label-sort, cut into equal shards, deal shards_per_client to each client.

    A partition: clients are disjoint and their union is the dataset. Each
    client keeps the global arrival order restricted to its own samples.
    """
    n = len(dataset)
    n_shards = num_clients * shards_per_client
    if n < n_shards:
        raise ValueError(f"{n} samples cannot form {n_shards} shards")
    by_label = np.argsort(dataset.labels, kind="stable")
    shards = np.array_split(by_label, n_shards)
    perm = np.random.default_rng(seed).permutation(n_shards)

    arrival_rank = np.empty(n, dtype=int)
    arrival_rank[dataset.time_order] = np.arange(n)

    clients = []
    for cid in range(num_clients):
        mine = np.concatenate(
            [shards[perm[cid * shards_per_client + j]] for j in range(shards_per_client)]
        )
        mine = np.sort(mine)
        local_order = np.argsort(arrival_rank[mine], kind="stable")
        clients.append(
            ClientDataset(
                client_id=cid,
                dataset=Dataset(
                    features=dataset.features[mine].copy(),
                    labels=dataset.labels[mine].copy(),
                    num_classes=dataset.num_classes,
                    time_order=local_order,
                ),
            )
        )
    return clients


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
            targets = loss_targets(labels[batch], loss_spec, model.num_classes)
            grads = backward(model, acts, compute_loss(acts, targets))
            if prox:
                weight_grads, _ = layer_views(model.layer_sizes, grads)
                for i in range(len(model.weights)):
                    weight_grads[i] += config.prox_mu * (
                        model.weights[i] - global_model.weights[i]
                    )
            sgd_step(model, grads, opt)
            steps += 1
            loss_total += float(targets.loss())
    return ClientUpdate(
        client_id=client_id,
        model=model,
        sample_count=n,
        local_steps=steps,
        train_loss=loss_total / steps,
    )


def reference_lockstep_update(client_ids, features, labels, global_model, config, spec, seeds):
    clients = [(c, x, y, s) for c, x, y, s in zip(client_ids, features, labels, seeds) if len(y)]
    ids, client_features, client_labels, client_seeds = zip(*clients)
    k_total, batch = len(clients), config.batch_size
    sizes = np.array([len(y) for y in client_labels])
    per_epoch = -(-sizes // batch)
    steps = config.local_epochs * per_epoch
    order = np.full((k_total, steps.max() * batch), -1)
    for k, client_seed in enumerate(client_seeds):
        rng = np.random.default_rng(client_seed)
        slots = per_epoch[k] * batch
        for e in range(config.local_epochs):
            order[k, e * slots : e * slots + sizes[k]] = rng.permutation(sizes[k])
    order = order.reshape(k_total, -1, batch)
    row_mask = order >= 0
    order = np.where(row_mask, order, np.maximum(order[:, :, :1], 0))
    rows = order + (np.cumsum(sizes) - sizes)[:, None, None]
    all_features = np.concatenate(client_features)
    all_labels = np.concatenate(client_labels)

    weights = [np.repeat(w[None], k_total, axis=0) for w in global_model.weights]
    biases = [np.repeat(b[None], k_total, axis=0) for b in global_model.biases]
    buffers = [np.zeros_like(a) for a in weights + biases]
    q = global_model.num_classes
    loss_total = np.zeros(k_total)
    for t in range(steps.max()):
        outputs, h = [], all_features[rows[:, t]]
        for i, (w, b) in enumerate(zip(weights, biases)):
            h = h @ w
            h += b[..., None, :]
            if i < len(weights) - 1:
                np.maximum(h, 0.0, out=h)
            outputs.append(h)
        probs = outputs[-1] - outputs[-1].max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)

        y, mask = all_labels[rows[:, t]], row_mask[:, t]
        row_w = mask / np.maximum(np.sum(mask, axis=-1, keepdims=True), 1.0)
        onehot = y[..., None] == np.arange(q)
        pt = np.maximum(probs[onehot].reshape(y.shape), 1e-300)
        log_pt = np.log(pt)
        if spec.kind == "focal":
            one_minus = 1.0 - pt
            focus = np.power(one_minus, spec.gamma)
            row_loss = -focus * log_pt
            log_term = np.where(
                one_minus > 1e-12,
                spec.gamma * pt * log_pt * np.power(one_minus, spec.gamma - 1.0),
                0.0,
            )
            grad_scale = (focus - log_term) * row_w
        else:
            sample_w = 1.0
            if spec.kind == "class_balanced" and spec.class_weights is not None:
                sample_w = np.asarray(spec.class_weights, dtype=float)[y]
            elif spec.kind == "class_balanced":
                sample_w = effective_number_weight(spec.per_class_n, spec.beta)[y]
            row_loss = -sample_w * log_pt
            grad_scale = sample_w * row_w
        loss_total += np.sum(row_loss * row_w, axis=-1)
        g = grad_scale[..., None] * (probs - onehot)

        grads = [None] * (2 * len(weights))
        for i in range(len(weights) - 1, -1, -1):
            layer_in = outputs[i - 1] if i > 0 else all_features[rows[:, t]]
            grads[i] = layer_in.swapaxes(-1, -2) @ g
            grads[len(weights) + i] = g.sum(axis=-2)
            if i > 0:
                g = (g @ weights[i].swapaxes(-1, -2)) * (outputs[i - 1] > 0.0)
        if config.strategy == "fedprox" and config.prox_mu > 0.0:
            for i, w in enumerate(weights):
                grads[i] += config.prox_mu * (w - global_model.weights[i])
        active = steps > t
        for i, (param, grad) in enumerate(zip(weights + biases, grads)):
            keep = active.reshape(-1, *(1,) * (grad.ndim - 1))
            if config.momentum != 0.0:
                grad = np.where(keep, config.momentum * buffers[i] + grad, buffers[i])
                buffers[i] = grad
            param -= np.where(keep, config.lr * grad, 0.0)
    return [
        (cid, [w[k] for w in weights], [b[k] for b in biases], loss_total[k] / steps[k])
        for k, cid in enumerate(ids)
    ]


def reference_aggregate(updates, global_model, strategy):
    updates = sorted(updates, key=lambda u: u.client_id)
    total = float(sum(u.sample_count for u in updates))
    p = [u.sample_count / total for u in updates]
    if strategy in ("fedavg", "fedprox"):
        weights = [
            sum(pk * u.model.weights[i] for pk, u in zip(p, updates))
            for i in range(len(global_model.weights))
        ]
        biases = [
            sum(pk * u.model.biases[i] for pk, u in zip(p, updates))
            for i in range(len(global_model.biases))
        ]
        return weights, biases
    tau_eff = sum(pk * u.local_steps for pk, u in zip(p, updates))
    weights = [
        w + tau_eff * sum(
            pk * (u.model.weights[i] - w) / u.local_steps for pk, u in zip(p, updates)
        )
        for i, w in enumerate(global_model.weights)
    ]
    biases = [
        b + tau_eff * sum(
            pk * (u.model.biases[i] - b) / u.local_steps for pk, u in zip(p, updates)
        )
        for i, b in enumerate(global_model.biases)
    ]
    return weights, biases


def reference_probe_auxiliary(prev_model, aux, lr, local_epochs, batch_size):
    q_total = prev_model.num_classes
    scale = -(lr * local_epochs / batch_size)
    per_class = np.empty((q_total, prev_model.layer_sizes[-2], q_total))
    for q, feats in enumerate(aux.class_features):
        acts = forward(prev_model, feats)
        grad = softmax(acts.logits)
        grad[:, q] -= 1.0
        np.matmul(acts.hidden_outputs.T, grad, out=per_class[q])
        per_class[q] *= scale
    return per_class


def lean_probe(per_class, n_aux):
    """The AuxGradients of a (Q, s, Q) probe: each class's update at its
    own column, and the sum over classes."""
    classes = np.arange(len(per_class))
    return AuxGradients(
        own=per_class[classes, :, classes], class_sum=per_class.sum(axis=0), n_aux=n_aux
    )


def reference_estimate_counts(per_class, n_aux, w_prev, w_new, total_samples, num_selected):
    q_total = len(per_class)
    s = w_prev.shape[0]
    delta = w_new - w_prev

    sum_aux = np.zeros_like(per_class[0])
    for g in per_class:
        sum_aux += g

    counts = np.zeros(q_total)
    node_estimates = np.full((q_total, s), np.nan)
    node_confidences = np.zeros((q_total, s))
    used = np.zeros(q_total, dtype=int)
    fallback = np.zeros(q_total, dtype=bool)

    for p in range(q_total):
        own = per_class[p][:, p]
        if q_total > 1:
            other = (sum_aux[:, p] - own) / (q_total - 1)
        else:
            other = np.zeros(s)
        live = np.abs(other) > 1e-12
        conf = np.divide(-own, other, out=np.zeros(s), where=live)
        conf[~live & (np.abs(own) > 1e-12)] = np.inf
        node_confidences[p] = conf

        denom = own - other
        ok = (np.abs(denom) > 1e-12) & (conf > 0.0)
        rhs = n_aux[p] * num_selected * delta[:, p]
        estimates = np.where(ok, (rhs - other * total_samples) / np.where(ok, denom, 1.0), np.nan)
        node_estimates[p] = estimates

        used[p] = int(ok.sum())
        if used[p] == 0:
            counts[p] = total_samples / q_total
            fallback[p] = True
        else:
            conf_ok = conf[ok]
            if np.any(np.isinf(conf_ok)):
                exact = np.isinf(conf_ok)
                weights = exact / exact.sum()
            else:
                weights = conf_ok / conf_ok.sum()
            counts[p] = float(np.dot(weights, estimates[ok]))

    return CountEstimate(
        counts=np.clip(counts, 0.0, total_samples),
        node_estimates=node_estimates,
        node_confidences=node_confidences,
        used_node_count=used,
        fallback=fallback,
    )


def reference_evaluate(model, features, labels, minority_classes=None):
    labels = np.asarray(labels, dtype=int)
    pred = softmax(forward(model, features).logits).argmax(axis=1)
    minority_accuracy = None
    if minority_classes is not None and len(minority_classes) > 0:
        mask = np.isin(labels, minority_classes)
        if mask.any():
            minority_accuracy = float((pred[mask] == labels[mask]).mean())
    return EvalResult(
        accuracy=float(np.mean(pred == labels)),
        minority_accuracy=minority_accuracy,
    )


def reference_blocked_predictions(model, features):
    """evaluate's predictions before its float32 pass: the float64 argmax in
    blocks of 1,024 rows."""
    blocks = np.split(features, range(1024, len(features), 1024))
    return np.concatenate([forward(model, x).logits.argmax(axis=1) for x in blocks])


def reference_blocked_evaluate(model, features, labels, minority_classes=None):
    """evaluate before its float32 pass, as it was."""
    labels = np.asarray(labels, dtype=int)
    pred = reference_blocked_predictions(model, features)
    accuracy = float(np.count_nonzero(pred == labels) / len(labels))
    minority_accuracy = None
    if minority_classes is not None and len(minority_classes) > 0:
        mask = np.isin(labels, minority_classes)
        if mask.any():
            minority_accuracy = float((pred[mask] == labels[mask]).mean())
    return EvalResult(accuracy=accuracy, minority_accuracy=minority_accuracy)


def reference_window_latest(client, n_latest, round_index):
    """The client's most recent n_latest samples as of a round, in arrival order.

    Arrivals replay the client's trace as a circular stream: by round r the
    cursor sits at n_latest + r*step with step = max(1, n_latest // 2), and
    the window covers the n_latest positions behind it. n_latest >= total
    degenerates to the whole dataset.
    """
    if n_latest < 1:
        raise ValueError("n_latest must be >= 1")
    ds = client.dataset
    n = len(ds)
    width = np.minimum(n_latest, n)
    cursor = n_latest + round_index * max(1, n_latest // 2)
    start = cursor - width
    idx = ds.time_order[np.arange(start, start + width) % n]
    return Dataset(ds.features[idx], ds.labels[idx], ds.num_classes, np.arange(width))


def reference_window_counts(clients, n_latest, round_index, num_classes):
    return oracle_counts(
        [reference_window_latest(c, n_latest, round_index).labels for c in clients], num_classes
    )
