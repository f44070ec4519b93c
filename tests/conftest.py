import numpy as np
import pytest

from fedimt.config import ExperimentConfig
from fedimt.data import ClientDataset, Dataset, SyntheticSpec
from fedimt.federation import FlConfig


def make_dataset(features, labels, num_classes=None, time_order=None):
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    if time_order is None:
        time_order = np.arange(len(labels))
    ds = Dataset(
        features=features,
        labels=labels,
        num_classes=num_classes,
        time_order=np.asarray(time_order, dtype=int),
    )
    check_dataset(ds)
    return ds


def check_dataset(ds):
    """Assert a Dataset's invariants: one feature row per label, every label
    in [0, num_classes), and time_order a permutation of its rows."""
    n = len(ds.labels)
    assert ds.features.shape[0] == n, "features/labels row mismatch"
    assert not n or 0 <= ds.labels.min() <= ds.labels.max() < ds.num_classes, "labels out of range"
    assert sorted(ds.time_order.tolist()) == list(range(n)), "time_order is not a permutation"


def make_client(features, labels, client_id=0, **kwargs):
    return ClientDataset(client_id=client_id, dataset=make_dataset(features, labels, **kwargs))


def degenerate_dataset(counts, feature_dim=8, offset_scale=1e-3, seed=0):
    """Per-class-identical samples: shared base vector plus a tiny class offset.

    The cross-class hidden outputs are then nearly identical, which keeps the
    non-own-class mean approximation error far below the count magnitudes.
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, feature_dim)
    protos = base + offset_scale * rng.normal(0.0, 1.0, (len(counts), feature_dim))
    features = np.concatenate(
        [np.repeat(protos[q][None, :], c, axis=0) for q, c in enumerate(counts)]
    )
    labels = np.concatenate([np.full(c, q) for q, c in enumerate(counts)])
    return make_dataset(features, labels, num_classes=len(counts)), protos


def synthetic_exp_config(
    classes=4,
    feature_dim=8,
    class_counts=(100, 60, 40, 80),
    num_clients=10,
    rounds=5,
    **overrides,
):
    fl_fields = {f for f in FlConfig.__dataclass_fields__}
    fl_kwargs = {k: overrides.pop(k) for k in list(overrides) if k in fl_fields}
    fl = FlConfig(
        num_clients=num_clients,
        rounds=rounds,
        selection_rate=fl_kwargs.pop("selection_rate", 0.5),
        local_epochs=fl_kwargs.pop("local_epochs", 2),
        batch_size=fl_kwargs.pop("batch_size", 16),
        lr=fl_kwargs.pop("lr", 0.002),
        momentum=fl_kwargs.pop("momentum", 0.0),
        **fl_kwargs,
    )
    defaults = dict(
        data_source="synthetic",
        synthetic=SyntheticSpec(
            classes=classes,
            feature_dim=feature_dim,
            class_counts=list(class_counts),
            cluster_scale=0.7,
            class_separation=2.5,
            run_length=4,
        ),
        idx_images=None,
        idx_labels=None,
        idx_test_images=None,
        idx_test_labels=None,
        seed=0,
        seeds=None,
        csv_path=None,
        json_path=None,
        shards_per_client=2,
        aux_per_class=32,
        test_fraction=0.25,
        hidden_sizes=(16,),
    )
    defaults.update(overrides)
    return ExperimentConfig(fl=fl, **defaults)


@pytest.fixture
def tiny_config():
    return synthetic_exp_config()
