"""Federated round engine.

Simulated in-process clients: per-round client selection, local SGD updates
(plain or proximal-regularized), aggregation (sample-weighted averaging or
normalized averaging), and the imbalance-tracking round workflow that wires
the composition estimator and ratio observer into the loop:

    select -> broadcast model + balanced loss -> collect updates
    -> candidate aggregate -> probe previous model -> estimate counts
    -> mismatch check (maybe drop the aggregate) -> observer update
    -> rebuild loss weights for the next round -> record metrics

A round's selected clients train in lockstep as one stacked tensor program,
each on its own rng stream, and every random stream is derived from the
master seed, so runs are fully deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .data import (
    AuxiliarySet,
    ClientDataset,
    Dataset,
    LabelStreams,
    auxiliary_from_dataset,
    gen_synthetic,
    load_idx,
    make_synthetic_spec,
    sample_auxiliary,
    shard_partition,
    window_latest,
)
from .estimator import (
    AuxGradients,
    counts_to_ratio,
    estimate_counts,
    oracle_counts,
    probe_auxiliary,
)
from .metrics import ExperimentReport, RoundRecord, evaluate, summarize_records
from .nn import (
    Array, LossSpec, MlpModel, OptState, backward, compute_loss, forward, loss_targets, mlp_init, sgd_step
)
from .observer import balanced_weights, cosine_similarity, mismatch_check, observer_init, observer_update

if TYPE_CHECKING:
    from .config import ExperimentConfig

STRATEGIES = ("fedavg", "fedprox", "fednova")
ALGORITHMS = ("baseline", "fedimt")

# Stream tags keeping independent rng lineages under one master seed.
_STREAM_MODEL = 11
_STREAM_TRAIN_DATA = 12
_STREAM_TEST_DATA = 13
_STREAM_MEANS = 14
_STREAM_PARTITION = 15
_STREAM_AUX = 16
_STREAM_SELECT = 17
_STREAM_CLIENT = 18


def derive_seed(seed: int, *tags: int) -> tuple[int, ...]:
    """Flat integer tuple usable as a numpy SeedSequence entropy."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return (int(seed), *tags)


@dataclass
class FlConfig:
    num_clients: int
    rounds: int
    selection_rate: float = 0.3
    local_epochs: int = 5
    batch_size: int = 32
    lr: float | None = None  # None: 0.001, or 0.002 when n_latest is set
    momentum: float = 0.9
    strategy: str = "fedavg"
    prox_mu: float = 0.0
    algorithm: str = "fedimt"
    n_latest: int | None = None
    drop_threshold: float = 0.5
    beta: float = 0.999
    baseline_loss: str = "plain_ce"  # loss for algorithm=baseline: plain_ce | focal
    focal_gamma: float = 2.0

    def __post_init__(self) -> None:
        if self.lr is None:  # the latest-window scheme trains on fresher data, so it steps further
            self.lr = 0.001 if self.n_latest is None else 0.002

    def validate(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if not 0.0 < self.selection_rate <= 1.0:
            raise ValueError("selection_rate must be in (0, 1]")
        if int(round(self.selection_rate * self.num_clients)) < 1:
            raise ValueError("selection_rate * num_clients rounds to zero clients")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.lr > 0.0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.prox_mu < 0.0:
            raise ValueError("prox_mu must be >= 0")
        if self.prox_mu > 0.0 and self.strategy != "fedprox":
            raise ValueError(f"prox_mu needs strategy fedprox, got {self.strategy!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.n_latest is not None and self.n_latest < 1:
            raise ValueError("n_latest must be >= 1 when set")
        if not 0.0 <= self.drop_threshold <= 1.0:
            raise ValueError("drop_threshold must be in [0, 1]")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if self.baseline_loss not in ("plain_ce", "focal"):
            raise ValueError(f"baseline_loss must be plain_ce or focal, got {self.baseline_loss!r}")
        if self.focal_gamma < 0.0:
            raise ValueError("focal_gamma must be >= 0")


@dataclass
class ClientUpdate:
    """What a client sends back: weights, its disclosed sample count, and the
    number of local steps taken. train_loss is simulation-side telemetry; the
    aggregation and estimation APIs never read it."""

    client_id: int
    model: MlpModel
    sample_count: int
    local_steps: int
    train_loss: float


def select_clients(num_clients: int, rate: float, round_index: int, seed: int) -> list[int]:
    """Uniform without-replacement sample of round(rate * num_clients) ids,
    deterministic per (seed, round), returned in ascending order."""
    k = int(round(rate * num_clients))
    if k < 1:
        raise ValueError("selection would pick zero clients")
    rng = np.random.default_rng(derive_seed(seed, _STREAM_SELECT, round_index))
    return sorted(int(c) for c in rng.choice(num_clients, size=k, replace=False))


def local_update(
    client_id: int | Sequence[int],
    features: Array | Sequence[Array],
    labels: Array | Sequence[Array],
    global_model: MlpModel,
    config: FlConfig,
    loss_spec: LossSpec,
    seed,
) -> ClientUpdate | None | list[ClientUpdate]:
    """E epochs of mini-batch SGD from the broadcast weights.

    Called with one client (an int id, its feature matrix, labels and seed)
    it returns that client's ClientUpdate, or None for an empty slice (the
    caller reports and skips the client). Called with parallel sequences of
    ids, feature matrices, label vectors and seeds it returns one update per
    non-empty client, in the given order. Either way the clients train in
    lockstep on one stacked model, a (K, P) parameter buffer, one
    forward/loss/backward/step call per step for all of them; the single
    client is the case K = 1.

    Each client draws a fresh permutation per epoch from its own seed and
    keeps its final partial batch. A row mask pads the short batches to
    batch_size, and a step mask freezes a client once it has taken its
    local_epochs * ceil(n / batch_size) steps. The loss targets are
    built once for the whole round. fedprox adds prox_mu * (w - w_global)
    to each weight gradient.
    """
    if np.ndim(client_id) == 0:
        updates = local_update(
            [client_id], [features], [labels], global_model, config, loss_spec, [seed]
        )
        return updates[0] if updates else None

    clients = [
        (cid, np.asarray(x, dtype=float), np.asarray(y, dtype=int), s)
        for cid, x, y, s in zip(client_id, features, labels, seed, strict=True)
        if len(y) > 0
    ]
    if not clients:
        return []
    ids, client_features, client_labels, seeds = zip(*clients)
    k_total = len(clients)
    batch = config.batch_size
    sizes = np.array([len(y) for y in client_labels])
    per_epoch = -(-sizes // batch)
    steps = config.local_epochs * per_epoch
    n_steps = steps.max()
    order = np.full((k_total, n_steps * batch), -1)
    for k, client_seed in enumerate(seeds):
        rng = np.random.default_rng(client_seed)
        slots = per_epoch[k] * batch
        for e in range(config.local_epochs):
            order[k, e * slots : e * slots + sizes[k]] = rng.permutation(sizes[k])
    # rows[t, k] lists client k's rows for step t; -1 marks padding.
    rows = np.ascontiguousarray(order.reshape(k_total, n_steps, batch).transpose(1, 0, 2))
    row_mask = rows >= 0
    # A padded slot repeats its batch's first row, which the row mask drops.
    rows = np.where(row_mask, rows, np.maximum(rows[..., :1], 0))
    rows += (np.cumsum(sizes) - sizes)[:, None]
    all_features = np.concatenate(client_features)
    targets = loss_targets(
        np.concatenate(client_labels)[rows], loss_spec, global_model.num_classes, row_mask
    )
    active = steps > np.arange(n_steps)[:, None]
    all_active = active.all(axis=1)

    model = MlpModel(list(global_model.layer_sizes), np.repeat(global_model.params[None], k_total, axis=0))
    opt = OptState.for_model(model, lr=config.lr, momentum=config.momentum)
    prox = config.strategy == "fedprox" and config.prox_mu > 0.0
    n_weights = sum(w.size for w in global_model.weights)  # the buffer's weight prefix
    for t in range(n_steps):
        acts = forward(model, all_features.take(rows[t], axis=0))
        grads = backward(model, acts, compute_loss(acts, targets[t]))
        if prox:
            grads[:, :n_weights] += config.prox_mu * (
                model.params[:, :n_weights] - global_model.params[:n_weights]
            )
        sgd_step(model, grads, opt, None if all_active[t] else active[t])
    loss_total = np.zeros(k_total)
    for step_loss in targets.loss():
        loss_total += step_loss  # a client with no rows left this step adds 0
    return [
        ClientUpdate(
            client_id=cid,
            model=MlpModel(layer_sizes=list(model.layer_sizes), params=model.params[k]),
            sample_count=int(sizes[k]),
            local_steps=int(steps[k]),
            train_loss=float(loss_total[k] / steps[k]),
        )
        for k, cid in enumerate(ids)
    ]


def aggregate(updates: list[ClientUpdate], global_model: MlpModel, strategy: str) -> MlpModel:
    """Combine client updates into the next global model.

    fedavg/fedprox: weighted mean of client weights with p_k = n_k / sum(n).
    fednova: step-normalized deltas, w_g + tau_eff * sum(p_k * delta_k / steps_k)
    with tau_eff = sum(p_k * steps_k); identical to fedavg when all clients
    take the same number of local steps.
    """
    if not updates:
        raise ValueError("aggregate needs at least one update")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    updates = sorted(updates, key=lambda u: u.client_id)
    counts = np.array([u.sample_count for u in updates])
    p = counts / float(counts.sum())
    # One row per client; each reduction adds the rows left to right from 0,
    # as a Python sum over the clients would.
    client_params = np.stack([u.model.params for u in updates])
    sizes = list(global_model.layer_sizes)
    if strategy in ("fedavg", "fedprox"):
        return MlpModel(sizes, np.add.reduce(p[:, None] * client_params, axis=0, initial=0.0))
    tau_eff = sum(pk * u.local_steps for pk, u in zip(p, updates))
    steps = np.array([u.local_steps for u in updates])[:, None]
    delta = (p[:, None] * (client_params - global_model.params)) / steps
    return MlpModel(sizes, global_model.params + tau_eff * np.add.reduce(delta, axis=0, initial=0.0))


@dataclass
class FederatedRunner:
    """Owns the mutable experiment state and advances it one round at a time."""

    config: FlConfig
    clients: list[ClientDataset]
    model: MlpModel
    seed: int
    aux: AuxiliarySet | None = None
    test_features: Array | None = None
    test_labels: Array | None = None
    minority_classes: Array | None = None
    round_index: int = 0

    def __post_init__(self) -> None:
        self.config.validate()
        self.num_classes = self.model.num_classes
        self._tracking = self.config.algorithm == "fedimt" and self.num_classes >= 2
        if self._tracking:
            if self.aux is None:
                raise ValueError("fedimt needs an auxiliary set")
            self.observer = observer_init(
                self.num_classes,
                gain=self.config.selection_rate,
                drop_threshold=self.config.drop_threshold,
            )
            self._n_ref = float(max(self.num_classes, sum(c.total_count for c in self.clients)))
            # The ground truth behind T_G: without a window every sample is
            # in scope every round, so it is counted once.
            if self.config.n_latest is None:
                self._all_counts = oracle_counts(
                    [np.concatenate([c.dataset.labels for c in self.clients])], self.num_classes
                )
            else:
                self._streams = LabelStreams.of(self.clients)
        else:
            self.observer = None
        self.loss_spec = self._build_loss_spec()
        self._adopt(self.model)

    def _adopt(self, model: MlpModel) -> None:
        """Make model the global model. The model changes only here, so its
        probe and its evaluation, each computed on first use, are reset here
        and reused for as long as the model stays (a dropped round keeps it)."""
        self.model = model
        self._probe: AuxGradients | None = None
        self._evaluation: tuple[float, float | None] | None = None

    def _build_loss_spec(self) -> LossSpec:
        if not self._tracking:
            return LossSpec(kind=self.config.baseline_loss, gamma=self.config.focal_gamma)
        return LossSpec(
            kind="class_balanced",
            class_weights=balanced_weights(self.observer.ratio, self._n_ref, self.config.beta),
        )

    def _client_scope(self, client: ClientDataset, round_index: int) -> Dataset:
        if self.config.n_latest is not None:
            return window_latest(client, self.config.n_latest, round_index)
        return client.dataset

    def _global_truth(self, round_index: int) -> Array:
        """Class counts over every client's in-scope samples at a round."""
        if self.config.n_latest is None:
            return self._all_counts
        return self._streams.window_counts(self.config.n_latest, round_index, self.num_classes)

    def _estimate_round_ratio(self, candidate: MlpModel, total: float, num_selected: int):
        """Probe the previous global model and solve for this round's counts."""
        if self._probe is None:
            self._probe = probe_auxiliary(
                self.model,
                self.aux,
                lr=self.config.lr,
                local_epochs=self.config.local_epochs,
                batch_size=self.config.batch_size,
            )
        estimate = estimate_counts(
            self._probe,
            w_prev=self.model.weights[-1],
            w_new=candidate.weights[-1],
            total_samples=total,
            num_selected=num_selected,
        )
        return estimate.counts, counts_to_ratio(estimate.counts)

    def _evaluate(self) -> tuple[float | None, float | None]:
        if self.test_features is None:
            return None, None
        if self._evaluation is None:
            result = evaluate(
                self.model, self.test_features, self.test_labels, self.minority_classes
            )
            self._evaluation = (result.accuracy, result.minority_accuracy)
        return self._evaluation

    def initial_record(self) -> RoundRecord:
        """Round-0 row: evaluation of the untrained model, nothing else."""
        acc, acc_m = self._evaluate()
        return RoundRecord(index=0, accuracy=acc, minority_accuracy=acc_m)

    def run_round(self) -> RoundRecord:
        j = self.round_index
        selected = select_clients(
            self.config.num_clients, self.config.selection_rate, j, self.seed
        )
        scopes = [self._client_scope(self.clients[cid], j) for cid in selected]
        round_labels = [scope.labels for scope in scopes]
        updates = local_update(
            selected,
            [scope.features for scope in scopes],
            round_labels,
            self.model,
            self.config,
            self.loss_spec,
            [derive_seed(self.seed, _STREAM_CLIENT, j, cid) for cid in selected],
        )

        rec = RoundRecord(index=j + 1, selected_clients=selected, dropped=False)
        if updates:
            candidate = aggregate(updates, self.model, self.config.strategy)
            rec.train_loss = float(np.mean([u.train_loss for u in updates]))
            if self._tracking:
                if self.config.n_latest is not None:
                    total = float(self.config.n_latest * len(updates))
                else:
                    total = float(sum(u.sample_count for u in updates))
                rec.estimated_counts, rec.round_ratio = self._estimate_round_ratio(
                    candidate, total, len(updates)
                )
                if self.observer.round_count >= 1:
                    decision = mismatch_check(self.observer, rec.round_ratio)
                    rec.dropped, rec.drop_similarity = decision.dropped, decision.similarity
                self.observer = observer_update(self.observer, rec.round_ratio)
                if not rec.dropped:
                    self._adopt(candidate)
                self._n_ref = max(float(self.num_classes), total)
                self.loss_spec = self._build_loss_spec()
            else:
                self._adopt(candidate)

        if self._tracking:
            rec.observer_ratio = self.observer.ratio.copy()
            if rec.round_ratio is not None:
                truth = oracle_counts(round_labels, self.num_classes)
                if truth.sum() > 0:
                    rec.t_round = cosine_similarity(rec.round_ratio, counts_to_ratio(truth))
            global_truth = self._global_truth(j)
            if global_truth.sum() > 0:
                rec.t_global = cosine_similarity(rec.observer_ratio, counts_to_ratio(global_truth))

        rec.accuracy, rec.minority_accuracy = self._evaluate()
        self.round_index += 1
        return rec


def minority_classes_of(train_counts: Array) -> Array:
    """Classes whose training prevalence is strictly below the mean count."""
    counts = np.asarray(train_counts, dtype=float)
    return np.flatnonzero(counts < counts.mean())


def _build_datasets(config: "ExperimentConfig", seed: int) -> tuple[Dataset, Dataset]:
    if config.data_source == "idx":
        train = load_idx(config.idx_images, config.idx_labels)
        test = load_idx(config.idx_test_images, config.idx_test_labels)
        if test.num_classes < train.num_classes:
            test.num_classes = train.num_classes
        return train, test
    spec = make_synthetic_spec(**config.synthetic, seed=derive_seed(seed, _STREAM_MEANS))
    train = gen_synthetic(spec, derive_seed(seed, _STREAM_TRAIN_DATA))
    # Each class's test_fraction share, rounded half to even; a non-empty class keeps one.
    test_counts = np.where(
        spec.counts > 0, np.maximum(np.rint(spec.counts * config.test_fraction), 1), 0
    ).astype(int)
    # Nothing reads the test split's time_order, and gen_synthetic draws the
    # order after the features from the same stream, so run_length = 1 skips
    # the burst loop and leaves the features and labels as they are.
    test_spec = replace(spec, counts=test_counts, run_length=1)
    test = gen_synthetic(test_spec, derive_seed(seed, _STREAM_TEST_DATA))
    return train, test


def build_runner(config: "ExperimentConfig", seed: int) -> FederatedRunner:
    train, test = _build_datasets(config, seed)
    clients = shard_partition(
        train,
        config.fl.num_clients,
        config.shards_per_client,
        derive_seed(seed, _STREAM_PARTITION),
    )
    aux = None
    if config.fl.algorithm == "fedimt":
        if config.aux_idx_images is not None:
            aux = auxiliary_from_dataset(load_idx(config.aux_idx_images, config.aux_idx_labels))
        else:
            aux = sample_auxiliary(train, config.aux_per_class, derive_seed(seed, _STREAM_AUX))
    model = mlp_init(
        [train.features.shape[1], *config.hidden_sizes, train.num_classes],
        derive_seed(seed, _STREAM_MODEL),
    )
    return FederatedRunner(
        config=config.fl,
        clients=clients,
        model=model,
        seed=seed,
        aux=aux,
        test_features=None if config.skip_eval else test.features,
        test_labels=None if config.skip_eval else test.labels,
        minority_classes=minority_classes_of(train.class_counts()),
    )


def run_experiment(config: "ExperimentConfig", seed: int | None = None) -> ExperimentReport:
    """Run the configured number of rounds and return the full report.

    Fully deterministic per (config, seed); the report's round 0 is the
    initial evaluation before any training.
    """
    config.validate()
    master = config.seed if seed is None else seed
    runner = build_runner(config, master)
    records = [runner.initial_record()]
    for _ in range(config.fl.rounds):
        records.append(runner.run_round())
    return ExperimentReport(
        seed=int(master),
        num_classes=runner.num_classes,
        config=config.to_dict(),
        records=records,
        summary=summarize_records(records),
    )
