"""Datasets for the federated lab.

Synthetic Gaussian-cluster classes with bursty arrival order, IDX-format
image files (MNIST layout), label-shard non-IID partitioning across clients,
sliding latest-sample windows, and server-side auxiliary probe sets.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

Array = np.ndarray

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    features: Array  # (n, d) float64
    labels: Array  # (n,) int64
    num_classes: int
    time_order: Array  # permutation of range(n); time_order[t] arrives at step t

    def __len__(self) -> int:
        return len(self.labels)

    def class_counts(self) -> Array:
        return np.bincount(self.labels, minlength=self.num_classes)

    def validate(self) -> None:
        n = len(self.labels)
        if self.features.shape[0] != n:
            raise ValueError("features/labels row mismatch")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        if sorted(self.time_order.tolist()) != list(range(n)):
            raise ValueError("time_order is not a permutation")


@dataclass
class ClientDataset:
    client_id: int
    dataset: Dataset

    @property
    def total_count(self) -> int:
        """The one statistic a client discloses to the server."""
        return len(self.dataset)


@dataclass
class TrainingSlice:
    """View over the most recently arrived samples of one client."""

    features: Array
    labels: Array


@dataclass
class AuxiliarySet:
    """Per-class probe samples held by the server; never used for training."""

    class_features: list[Array]

    @property
    def num_classes(self) -> int:
        return len(self.class_features)

    @property
    def per_class_count(self) -> Array:
        return np.array([len(f) for f in self.class_features])


@dataclass
class SyntheticSpec:
    num_classes: int
    feature_dim: int
    means: Array  # (Q, d)
    cluster_scale: float  # isotropic std shared by every class
    counts: Array  # (Q,) samples per class
    run_length: int = 1  # mean same-class arrival burst, >= 1

    def validate(self) -> None:  # each message starts with the config key it concerns
        q, d = self.num_classes, self.feature_dim
        if q < 1:
            raise ValueError("classes must be >= 1")
        if d < 1:
            raise ValueError("feature_dim must be >= 1")
        if len(self.counts) != q:
            raise ValueError(f"class_counts has {len(self.counts)} entries for {q} classes")
        if self.means.shape != (q, d):
            raise ValueError(f"means shape {self.means.shape} != ({q}, {d})")
        if not self.cluster_scale >= 0.0:
            raise ValueError(f"cluster_scale must be >= 0, got {self.cluster_scale}")
        if np.any(self.counts < 0):
            raise ValueError("class_counts must be >= 0")
        if int(self.counts.sum()) == 0:
            raise ValueError("class_counts must contain at least one sample")
        if self.run_length < 1:
            raise ValueError("run_length must be >= 1")


def make_synthetic_spec(
    classes: int,
    feature_dim: int,
    class_counts: list[int],
    cluster_scale: float = 1.0,
    class_separation: float = 3.0,
    run_length: int = 1,
    seed=0,
) -> SyntheticSpec:
    """Spec with seeded class means of norm ~ class_separation. The
    parameters before seed are the config's generator keys, by name, type
    and default."""
    rng = np.random.default_rng(seed)
    # A size below 1 draws no means, so that validate names its key.
    means = rng.normal(0.0, 1.0, (max(classes, 0), max(feature_dim, 0)))
    means *= class_separation / np.sqrt(max(feature_dim, 1))
    return SyntheticSpec(
        num_classes=classes,
        feature_dim=feature_dim,
        means=means,
        cluster_scale=float(cluster_scale),
        counts=np.asarray(class_counts, dtype=int),
        run_length=int(run_length),
    )


def _bursty_order(labels: Array, run_length: int, rng: np.random.Generator) -> Array:
    """Arrival order where same-class samples come in geometric-length runs.
    Each run's class is the draw rng.choice makes with p = the remaining
    counts' share: one rng.random(), bisected right into the cumulative share
    divided by its last entry."""
    n = len(labels)
    if run_length == 1:
        return rng.permutation(n)
    pools = [np.flatnonzero(labels == q) for q in range(int(labels.max()) + 1)]
    for pool in pools:
        rng.shuffle(pool)
    taken = [0] * len(pools)
    remaining = [len(p) for p in pools]
    order = np.empty(n, dtype=int)
    pos = 0
    while pos < n:
        total = n - pos  # == sum(remaining), exactly
        cdf = list(accumulate(r / total for r in remaining))
        q = bisect_right(cdf, rng.random(), key=lambda c: c / cdf[-1])
        run = min(int(rng.geometric(1.0 / run_length)), remaining[q])
        order[pos : pos + run] = pools[q][taken[q] : taken[q] + run]
        taken[q] += run
        remaining[q] -= run
        pos += run
    return order


def gen_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Draw spec.counts[q] points from N(mean_q, cluster_scale^2 I) per class."""
    spec.validate()
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(spec.num_classes), spec.counts)
    features = rng.normal(0.0, spec.cluster_scale, (len(labels), spec.feature_dim))
    features += spec.means[labels]
    order = _bursty_order(labels, spec.run_length, rng)
    return Dataset(
        features=features,
        labels=labels,
        num_classes=spec.num_classes,
        time_order=order,
    )


def _read_idx_header(raw: bytes, path: str, magic: int, n_dims: int) -> tuple[int, ...]:
    if len(raw) < 4 + 4 * n_dims:
        raise ValueError(f"{path}: truncated IDX header")
    got = struct.unpack(">i", raw[:4])[0]
    if got != magic:
        raise ValueError(f"{path}: bad IDX magic 0x{got:08x}, expected 0x{magic:08x}")
    return struct.unpack(f">{n_dims}i", raw[4 : 4 + 4 * n_dims])


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Read ubyte IDX image/label files; pixels scaled to [0, 1], rows flattened."""
    with open(images_path, "rb") as f:
        raw_img = f.read()
    with open(labels_path, "rb") as f:
        raw_lab = f.read()
    n, rows, cols = _read_idx_header(raw_img, images_path, IDX_IMAGE_MAGIC, 3)
    (n_lab,) = _read_idx_header(raw_lab, labels_path, IDX_LABEL_MAGIC, 1)
    if n != n_lab:
        raise ValueError(f"image count {n} != label count {n_lab}")
    if len(raw_img) != 16 + n * rows * cols:
        raise ValueError(f"{images_path}: truncated image payload")
    if len(raw_lab) != 8 + n:
        raise ValueError(f"{labels_path}: truncated label payload")
    pixels = np.frombuffer(raw_img, dtype=np.uint8, offset=16).astype(float) / 255.0
    labels = np.frombuffer(raw_lab, dtype=np.uint8, offset=8).astype(int)
    return Dataset(
        features=pixels.reshape(n, rows * cols),
        labels=labels,
        num_classes=int(labels.max()) + 1 if n else 0,
        time_order=np.arange(n),
    )


def write_idx(dataset: Dataset, images_path: str, labels_path: str) -> None:
    """Write features (clipped to [0, 1], quantized to ubyte) as n x 1 x d images."""
    n, d = dataset.features.shape
    pixels = np.clip(np.rint(dataset.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, 1, d))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def shard_partition(
    dataset: Dataset,
    num_clients: int,
    shards_per_client: int,
    seed: int,
) -> list[ClientDataset]:
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


def _window_span(sizes, n_latest: int, round_index: int):
    """Start and width of each client's latest-n window as of a round, in
    positions along the client's arrival stream (sizes: samples per client).

    Arrivals replay the client's trace as a circular stream: by round r the
    cursor sits at n_latest + r*step with step = max(1, n_latest // 2), and
    the window covers the n_latest positions behind it. n_latest >= total
    degenerates to the whole dataset.
    """
    if n_latest < 1:
        raise ValueError("n_latest must be >= 1")
    width = np.minimum(n_latest, sizes)
    cursor = n_latest + round_index * max(1, n_latest // 2)
    return cursor - width, width


def window_latest(client: ClientDataset, n_latest: int, round_index: int) -> TrainingSlice:
    """The client's most recent n_latest samples as of a round (the
    positions follow _window_span)."""
    ds = client.dataset
    n = len(ds)
    start, width = _window_span(n, n_latest, round_index)
    idx = ds.time_order[np.arange(start, start + width) % n]
    return TrainingSlice(features=ds.features[idx], labels=ds.labels[idx])


@dataclass
class LabelStreams:
    """Every client's labels in arrival order, laid end to end, so that the
    latest-n windows of all clients are counted in one pass."""

    labels: Array  # client 0's stream, then client 1's, ...
    sizes: Array  # (num_clients,) samples per client

    @classmethod
    def of(cls, clients: list[ClientDataset]) -> "LabelStreams":
        return cls(
            labels=np.concatenate([c.dataset.labels[c.dataset.time_order] for c in clients]),
            sizes=np.array([len(c.dataset) for c in clients]),
        )

    def window_counts(self, n_latest: int, round_index: int, num_classes: int) -> Array:
        """Per-class counts over every client's window_latest slice."""
        start, width = _window_span(self.sizes, n_latest, round_index)
        client = np.repeat(np.arange(len(self.sizes)), width)
        offset = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        stream_start = np.cumsum(self.sizes) - self.sizes
        pos = stream_start[client] + (start[client] + offset) % self.sizes[client]
        return np.bincount(self.labels[pos], minlength=num_classes).astype(float)


def sample_auxiliary(dataset: Dataset, per_class_count: int, seed: int) -> AuxiliarySet:
    """Draw per_class_count samples of every class, with replacement."""
    if per_class_count < 1:
        raise ValueError("per_class_count must be >= 1")
    rng = np.random.default_rng(seed)
    groups = []
    for q in range(dataset.num_classes):
        pool = np.flatnonzero(dataset.labels == q)
        if len(pool) == 0:
            raise ValueError(f"class {q} has no source samples for the auxiliary set")
        pick = rng.choice(pool, size=per_class_count, replace=True)
        groups.append(dataset.features[pick].copy())
    return AuxiliarySet(class_features=groups)


def auxiliary_from_dataset(dataset: Dataset) -> AuxiliarySet:
    """Build the probe set from externally supplied labeled data (e.g. public
    or synthesized samples loaded from IDX files) instead of resampling the
    training set."""
    groups = []
    for q in range(dataset.num_classes):
        feats = dataset.features[dataset.labels == q]
        if len(feats) == 0:
            raise ValueError(f"external auxiliary data has no samples for class {q}")
        groups.append(feats.copy())
    return AuxiliarySet(class_features=groups)


# Desk-scale stand-ins for the benchmark tasks; counts keep the original
# imbalance ratios (the binary task is 16.2% positive). Values are raw
# generator parameters so each run can seed its own class means.
PRESETS: dict[str, dict] = {
    "tenclass": dict(
        classes=10, feature_dim=32, class_counts=[500] * 10,
        cluster_scale=0.6, class_separation=3.0, run_length=8,
    ),
    "ford": dict(
        classes=2, feature_dim=16, class_counts=[1676, 324],
        cluster_scale=1.0, class_separation=2.2, run_length=1,
    ),
    "har": dict(
        classes=6, feature_dim=24, class_counts=[400] * 6,
        cluster_scale=0.8, class_separation=2.8, run_length=16,
    ),
}
