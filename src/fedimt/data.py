"""Datasets for the federated lab.

Synthetic Gaussian-cluster classes with bursty arrival order, IDX-format
image files (MNIST layout), label-shard non-IID partitioning across clients,
sliding latest-sample windows, and server-side auxiliary probe sets.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import truediv

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


@dataclass
class ClientDataset:
    client_id: int
    dataset: Dataset

    @property
    def total_count(self) -> int:
        """The one statistic a client discloses to the server."""
        return len(self.dataset)


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
    """A synthetic task. The fields are the config's generator keys, by
    name, type and default; a config's `preset` fills in the ones it leaves
    out."""

    classes: int
    feature_dim: int
    class_counts: list[int]  # samples per class
    cluster_scale: float = 1.0  # isotropic std shared by every class
    class_separation: float = 3.0  # the class means' norm, roughly
    run_length: int = 1  # mean same-class arrival burst, >= 1

    def validate(self) -> None:  # each message starts with the config key it concerns
        q, counts = self.classes, self.class_counts
        if q < 1:
            raise ValueError("classes must be >= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if len(counts) != q:
            raise ValueError(f"class_counts has {len(counts)} entries for {q} classes")
        if not self.cluster_scale >= 0.0:
            raise ValueError(f"cluster_scale must be >= 0, got {self.cluster_scale}")
        if min(counts) < 0:
            raise ValueError("class_counts must be >= 0")
        if sum(counts) == 0:
            raise ValueError("class_counts must contain at least one sample")
        if self.run_length < 1:
            raise ValueError("run_length must be >= 1")


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
    stop_p = 1.0 / run_length
    order = np.empty(n, dtype=int)
    pos = 0
    while pos < n:
        total = n - pos  # == sum(remaining), exactly
        cdf = list(accumulate(map(truediv, remaining, repeat(total))))
        q = bisect_right(cdf, rng.random(), key=cdf[-1].__rtruediv__)  # c / cdf[-1]
        run = min(int(rng.geometric(stop_p)), remaining[q])
        order[pos : pos + run] = pools[q][taken[q] : taken[q] + run]
        taken[q] += run
        remaining[q] -= run
        pos += run
    return order


def gen_synthetic(spec: SyntheticSpec, means_seed, seed) -> Dataset:
    """Draw spec.class_counts[q] points from N(mean_q, cluster_scale^2 I)
    per class. The class means, of norm ~ class_separation, come from
    means_seed, so splits drawn with one means_seed share them."""
    spec.validate()
    d = spec.feature_dim
    means = np.random.default_rng(means_seed).normal(0.0, 1.0, (spec.classes, d))
    means *= spec.class_separation / np.sqrt(d)
    rng = np.random.default_rng(seed)
    counts = np.asarray(spec.class_counts, dtype=int)
    labels = np.repeat(np.arange(spec.classes), counts)
    features = rng.normal(0.0, spec.cluster_scale, (len(labels), d))
    # labels holds each class in one block, so each mean is added in place to
    # its own rows; means[labels] would gather a features-sized temporary.
    ends = np.cumsum(counts)
    for mean, start, end in zip(means, ends - counts, ends):
        features[start:end] += mean
    order = _bursty_order(labels, spec.run_length, rng)
    return Dataset(
        features=features,
        labels=labels,
        num_classes=spec.classes,
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
    for path, kind, payload, expected in (
        (images_path, "image", len(raw_img) - 16, n * rows * cols),
        (labels_path, "label", len(raw_lab) - 8, n),
    ):
        if payload != expected:
            raise ValueError(f"{path}: {kind} payload has {payload} bytes, expected {expected}")
    pixels = np.frombuffer(raw_img, dtype=np.uint8, offset=16).astype(float) / 255.0
    labels = np.frombuffer(raw_lab, dtype=np.uint8, offset=8).astype(int)
    return Dataset(
        features=pixels.reshape(n, rows * cols),
        labels=labels,
        num_classes=int(labels.max()) + 1 if n else 0,
        time_order=np.arange(n),
    )


def write_idx(dataset: Dataset, images_path: str, labels_path: str) -> None:
    """Write features (clipped to [0, 1], quantized to ubyte) as n x 1 x d images.

    IDX stores each label as one ubyte, so a label outside [0, 255] is
    rejected rather than wrapped.
    """
    n, d = dataset.features.shape
    if dataset.labels.min(initial=0) < 0 or dataset.labels.max(initial=0) > 255:
        raise ValueError(f"{labels_path}: IDX labels are ubytes, so they must lie in [0, 255]")
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
    client keeps the global arrival order restricted to its own samples, and
    its arrays are slices (views) of one client-ordered copy of the dataset.
    """
    n = len(dataset)
    n_shards = num_clients * shards_per_client
    if n < n_shards:
        raise ValueError(f"{n} samples cannot form {n_shards} shards")
    # np.array_split's shard sizes: the first n % n_shards hold one more.
    base, extra = divmod(n, n_shards)
    shard_sizes = np.full(n_shards, base)
    shard_sizes[:extra] += 1
    perm = np.random.default_rng(seed).permutation(n_shards)
    # Shard perm[k] goes to client k // shards_per_client. Client ids take
    # the smallest unsigned type that holds them, so that numpy's stable
    # sorts below are radix sorts.
    shard_owner = np.empty(n_shards, dtype=np.min_scalar_type(num_clients - 1))
    shard_owner[perm] = np.arange(n_shards) // shards_per_client
    owner = np.empty(n, dtype=shard_owner.dtype)
    owner[np.argsort(dataset.labels, kind="stable")] = np.repeat(shard_owner, shard_sizes)

    # Stable, so each client's samples keep their index order.
    by_owner = np.argsort(owner, kind="stable")
    owner = owner[by_owner]
    features = dataset.features[by_owner]
    labels = dataset.labels[by_owner]
    sizes = np.bincount(owner, minlength=num_clients)
    starts = np.cumsum(sizes) - sizes
    # Client-ordered positions in arrival order, then grouped by client
    # (stable, so each client's stay in arrival order) and made local.
    position = np.empty(n, dtype=int)
    position[by_owner] = np.arange(n)
    by_arrival = position[dataset.time_order]
    time_order = by_arrival[np.argsort(owner[by_arrival], kind="stable")] - starts[owner]

    return [
        ClientDataset(
            client_id=cid,
            dataset=Dataset(
                features=features[a:b],
                labels=labels[a:b],
                num_classes=dataset.num_classes,
                time_order=time_order[a:b],
            ),
        )
        for cid, (a, b) in enumerate(zip(starts, starts + sizes))
    ]


def window_positions(sizes, n_latest: int, round_index: int) -> Array:
    """Where every client's latest-n window sits as of a round, in positions
    along the clients' arrival streams laid end to end (sizes: samples per
    client; client 0's stream first), each window oldest first.

    Arrivals replay the client's trace as a circular stream: by round r the
    cursor sits at n_latest + r*step with step = max(1, n_latest // 2), and
    the window covers the n_latest positions behind it. n_latest >= size
    degenerates to the client's whole dataset.
    """
    if n_latest < 1:
        raise ValueError("n_latest must be >= 1")
    sizes = np.asarray(sizes)
    width = np.minimum(n_latest, sizes)
    cursor = n_latest + round_index * max(1, n_latest // 2)
    client = np.repeat(np.arange(len(sizes)), width)
    offset = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
    stream_start = np.cumsum(sizes) - sizes
    return stream_start[client] + (cursor - width[client] + offset) % sizes[client]


def window_latest(client: ClientDataset, n_latest: int, round_index: int) -> Dataset:
    """The client's most recent n_latest samples as of a round (the
    positions follow window_positions), in arrival order."""
    ds = client.dataset
    idx = ds.time_order[window_positions([len(ds)], n_latest, round_index)]
    return Dataset(ds.features[idx], ds.labels[idx], ds.num_classes, np.arange(len(idx)))


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
        groups.append(dataset.features[pick])
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
        groups.append(feats)
    return AuxiliarySet(class_features=groups)


# Desk-scale stand-ins for the benchmark tasks; counts keep the original
# imbalance ratios (the binary task is 16.2% positive). Each is a set of
# generator keys, SyntheticSpec's fields; gen_synthetic seeds the class means
# per run.
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
