import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedimt.data import (
    PRESETS,
    Dataset,
    SyntheticSpec,
    _bursty_order,
    gen_synthetic,
    load_idx,
    sample_auxiliary,
    shard_partition,
    window_latest,
    window_positions,
    write_idx,
)
from conftest import check_dataset, make_client, make_dataset
from reference import (
    reference_bursty_order,
    reference_gen_synthetic,
    reference_shard_partition,
    reference_window_latest,
)

# The generator parameters of fedbench's manyclass_server workload.
MANYCLASS = dict(
    classes=40, feature_dim=64, class_counts=[300] * 40,
    cluster_scale=0.6, class_separation=3.0, run_length=8,
)


class TestGenSynthetic:
    def test_exact_class_counts(self):
        ds = gen_synthetic(SyntheticSpec(3, 4, [50, 20, 30]), means_seed=1, seed=2)
        np.testing.assert_array_equal(ds.class_counts(), [50, 20, 30])
        check_dataset(ds)

    def test_ford_style_imbalance(self):
        ds = gen_synthetic(SyntheticSpec(2, 4, [84, 16]), means_seed=1, seed=2)
        assert ds.class_counts()[1] / len(ds) == pytest.approx(0.16)

    def test_run_length_one_is_uniform_shuffle(self):
        ds = gen_synthetic(SyntheticSpec(2, 3, [40, 40], run_length=1), means_seed=0, seed=5)
        assert sorted(ds.time_order.tolist()) == list(range(80))
        # a shuffle should interleave the two classes heavily
        arrival_labels = ds.labels[ds.time_order]
        switches = int(np.sum(arrival_labels[1:] != arrival_labels[:-1]))
        assert switches > 20

    def test_bursty_arrivals_cluster(self):
        base = SyntheticSpec(2, 3, [200, 200], run_length=1)
        bursty = SyntheticSpec(2, 3, [200, 200], run_length=16)
        switches = {}
        for name, spec in (("shuffle", base), ("bursty", bursty)):
            ds = gen_synthetic(spec, means_seed=0, seed=7)
            arrival = ds.labels[ds.time_order]
            switches[name] = int(np.sum(arrival[1:] != arrival[:-1]))
        assert switches["bursty"] < switches["shuffle"] / 2

    def test_deterministic(self):
        spec = SyntheticSpec(3, 4, [10, 10, 10], run_length=4)
        a = gen_synthetic(spec, means_seed=3, seed=9)
        b = gen_synthetic(spec, means_seed=3, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.time_order, b.time_order)

    def test_zero_total_rejected(self):
        spec = SyntheticSpec(2, 3, [0, 0])
        with pytest.raises(ValueError):
            gen_synthetic(spec, means_seed=0, seed=0)

    def test_negative_cluster_scale_rejected(self):
        spec = SyntheticSpec(2, 3, [5, 5], cluster_scale=-1.0)
        with pytest.raises(ValueError, match="cluster_scale"):
            gen_synthetic(spec, means_seed=0, seed=0)

    def test_class_counts_length_must_match_classes(self):
        spec = SyntheticSpec(3, 4, [1, 2])
        with pytest.raises(ValueError, match="class_counts has 2 entries for 3 classes"):
            gen_synthetic(spec, 0, 0)

    def test_adds_means_without_a_features_sized_temporary(self):
        spec = SyntheticSpec(40, 64, [300] * 40)
        tracemalloc.start()
        try:
            ds = gen_synthetic(spec, means_seed=0, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * ds.features.nbytes

    def test_presets_have_generator_params(self):
        for params in PRESETS.values():
            SyntheticSpec(**params).validate()


@st.composite
def class_counts(draw):
    """1-64 classes of 0-300 samples; one class is non-empty and, when there
    are two or more, another is empty."""
    q = draw(st.integers(1, 64))
    counts = draw(st.lists(st.integers(0, 300), min_size=q, max_size=q))
    full = draw(st.integers(0, q - 1))
    counts[full] = draw(st.integers(1, 300))
    if q > 1:
        counts[(full + draw(st.integers(1, q - 1))) % q] = 0
    return counts


class TestGeneratorMatchesReference:
    """The generator against the rng.choice loop and per-class normal draws
    it replaced: the same bytes, and the stream left where they left it."""

    # Run lengths 2 and 3 take Generator.geometric's search branch (p >= 1/3),
    # the longer ones its inversion branch.
    @given(class_counts(), st.sampled_from([2, 3, 4, 8, 16, 50]), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bursty_order_matches_choice_loop(self, counts, run_length, seed):
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(counts)), counts))
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _bursty_order(labels, run_length, fast)
        want = reference_bursty_order(labels, run_length, slow)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype
        assert fast.random() == slow.random()

    @pytest.mark.parametrize("params", [*PRESETS.values(), MANYCLASS], ids=[*PRESETS, "manyclass"])
    @pytest.mark.parametrize("seed", [0, 1007])
    def test_gen_synthetic_matches_per_class_draws(self, params, seed):
        spec = SyntheticSpec(**params)
        got, want = gen_synthetic(spec, seed, seed + 1), reference_gen_synthetic(spec, seed, seed + 1)
        for name in ("features", "labels", "time_order"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b) and a.dtype == b.dtype, name


class TestIdx:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.integers(0, 256, (12, 9)).astype(float) / 255.0
        ds = make_dataset(features, rng.integers(0, 4, 12), num_classes=4)
        img, lab = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
        write_idx(ds, img, lab)
        back = load_idx(img, lab)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        ds = make_dataset(np.ones((3, 2)), [0, 1, 1], num_classes=2)
        img, lab = str(tmp_path / "i"), str(tmp_path / "l")
        write_idx(ds, img, lab)
        back = load_idx(img, lab)
        assert back.features.max() == 1.0

    def test_bad_image_magic_names_file(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        ds = make_dataset(np.zeros((2, 2)), [0, 1], num_classes=2)
        write_idx(ds, str(img), str(lab))
        raw = bytearray(img.read_bytes())
        raw[3] = 0x99
        img.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="img.idx"):
            load_idx(str(img), str(lab))

    def test_count_mismatch(self, tmp_path):
        ds_a = make_dataset(np.zeros((3, 2)), [0, 1, 0], num_classes=2)
        ds_b = make_dataset(np.zeros((2, 2)), [0, 1], num_classes=2)
        write_idx(ds_a, str(tmp_path / "a_img"), str(tmp_path / "a_lab"))
        write_idx(ds_b, str(tmp_path / "b_img"), str(tmp_path / "b_lab"))
        with pytest.raises(ValueError, match="count"):
            load_idx(str(tmp_path / "a_img"), str(tmp_path / "b_lab"))

    def test_truncated_payload(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        ds = make_dataset(np.zeros((4, 3)), [0, 1, 0, 1], num_classes=2)
        write_idx(ds, str(img), str(lab))
        img.write_bytes(img.read_bytes()[:-2])
        with pytest.raises(ValueError, match="image payload has 10 bytes, expected 12"):
            load_idx(str(img), str(lab))

    @pytest.mark.parametrize(
        "which, extra, message",
        [
            ("img", 7, "image payload has 19 bytes, expected 12"),
            ("lab", -1, "label payload has 3 bytes, expected 4"),
            ("lab", 1, "label payload has 5 bytes, expected 4"),
        ],
    )
    def test_payload_size_mismatch_reports_both_sizes(self, tmp_path, which, extra, message):
        # A file too long is as wrong as one too short (test_truncated_payload
        # covers a short image file), and neither is "truncated".
        files = {"img": tmp_path / "img.idx", "lab": tmp_path / "lab.idx"}
        ds = make_dataset(np.zeros((4, 3)), [0, 1, 0, 1], num_classes=2)
        write_idx(ds, str(files["img"]), str(files["lab"]))
        raw = files[which].read_bytes()
        files[which].write_bytes(raw[:extra] if extra < 0 else raw + bytes(extra))
        with pytest.raises(ValueError, match=f"{which}.idx: {message}$"):
            load_idx(str(files["img"]), str(files["lab"]))


class TestShardPartition:
    def make_ds(self, per_class=60, classes=5):
        return gen_synthetic(SyntheticSpec(classes, 3, [per_class] * classes), means_seed=0, seed=1)

    def test_disjoint_and_exhaustive(self):
        ds = self.make_ds()
        clients = shard_partition(ds, num_clients=10, shards_per_client=2, seed=3)
        seen = np.zeros(len(ds), dtype=int)
        for c in clients:
            # recover global indices by matching features row-wise
            for row in c.dataset.features:
                matches = np.flatnonzero((ds.features == row).all(axis=1))
                seen[matches[0]] += 1
        assert np.all(seen >= 1)
        assert sum(c.total_count for c in clients) == len(ds)

    def test_label_sharding_limits_client_support(self):
        ds = self.make_ds(per_class=100, classes=10)
        clients = shard_partition(ds, num_clients=25, shards_per_client=2, seed=0)
        supports = [len(np.unique(c.dataset.labels)) for c in clients]
        assert max(supports) <= 3
        assert np.mean(supports) < 3

    def test_single_client_gets_everything(self):
        ds = self.make_ds()
        clients = shard_partition(ds, num_clients=1, shards_per_client=1, seed=0)
        assert clients[0].total_count == len(ds)

    def test_too_few_samples(self):
        ds = make_dataset(np.zeros((4, 2)), [0, 0, 1, 1], num_classes=2)
        with pytest.raises(ValueError):
            shard_partition(ds, num_clients=3, shards_per_client=2, seed=0)

    def test_client_time_order_is_valid_permutation(self):
        ds = self.make_ds()
        for c in shard_partition(ds, 6, 2, seed=5):
            check_dataset(c.dataset)

    # Sizes that array_split cuts unevenly, one or many samples per shard,
    # and a single client; arrivals in a random order so that index order
    # and arrival order differ.
    @given(
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 200),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_client_loop(self, num_clients, shards_per_client, classes, extra, seed):
        n = num_clients * shards_per_client + extra
        rng = np.random.default_rng(seed)
        ds = Dataset(
            features=rng.normal(size=(n, 2)),
            labels=rng.integers(0, classes, n),
            num_classes=classes,
            time_order=rng.permutation(n),
        )
        got = shard_partition(ds, num_clients, shards_per_client, seed)
        want = reference_shard_partition(ds, num_clients, shards_per_client, seed)
        assert len(got) == len(want) == num_clients
        for g, w in zip(got, want):
            assert g.client_id == w.client_id
            assert g.dataset.num_classes == w.dataset.num_classes
            for name in ("features", "labels", "time_order"):
                a, b = getattr(g.dataset, name), getattr(w.dataset, name)
                assert np.array_equal(a, b) and a.dtype == b.dtype, (g.client_id, name)


class TestWindowLatest:
    def test_whole_dataset_when_window_covers_all(self):
        client = make_client(np.arange(12.0).reshape(6, 2), [0, 1, 0, 1, 0, 1])
        for r in range(4):
            sl = window_latest(client, n_latest=100, round_index=r)
            assert len(sl.labels) == 6

    def test_length_never_exceeds_n_latest(self):
        client = make_client(np.arange(40.0).reshape(20, 2), [0, 1] * 10)
        for r in range(8):
            assert len(window_latest(client, 7, r).labels) == 7

    def test_half_data_window(self):
        n = 16
        client = make_client(np.arange(2.0 * n).reshape(n, 2), [0, 1] * (n // 2))
        sl = window_latest(client, n_latest=n // 2, round_index=0)
        assert len(sl.labels) == n // 2

    def test_first_round_sees_earliest_arrivals(self):
        order = np.array([3, 1, 0, 2])
        client = make_client(np.arange(8.0).reshape(4, 2), [0, 0, 1, 1], time_order=order)
        sl = window_latest(client, n_latest=2, round_index=0)
        np.testing.assert_array_equal(sl.features, [[6.0, 7.0], [2.0, 3.0]])
        np.testing.assert_array_equal(sl.labels, [1, 0])

    def test_burst_ratio_rises_then_falls(self):
        # arrival: 8 of class 0, then a 12-long burst of class 1, then 8 of class 0;
        # the window of 8 advances by 4 positions per round
        labels = [0] * 8 + [1] * 12 + [0] * 8
        feats = np.zeros((len(labels), 2))
        client = make_client(feats, labels)
        ratios = []
        for r in range(0, 20):
            sl = window_latest(client, n_latest=8, round_index=r)
            ratios.append(float(np.mean(sl.labels == 1)))
        peak = int(np.argmax(ratios))
        assert ratios[peak] == 1.0
        assert ratios[0] == 0.0
        assert 0.0 < ratios[1] < 1.0
        assert min(ratios[peak:]) < 1.0

    def test_slices_are_contiguous_stream_suffixes(self):
        # a window of 4 advances by 2 positions per round
        client = make_client(np.arange(20.0).reshape(10, 2), [0, 1, 1, 0, 2] * 2)
        a = window_latest(client, 4, round_index=0)
        b = window_latest(client, 4, round_index=1)
        np.testing.assert_array_equal(a.features[2:], b.features[:-2])
        np.testing.assert_array_equal(a.labels[2:], b.labels[:-2])
        np.testing.assert_array_equal(b.features[-2:], client.dataset.features[4:6])

    def test_n_latest_precondition(self):
        client = make_client(np.zeros((4, 2)), [0, 1, 0, 1])
        with pytest.raises(ValueError):
            window_latest(client, 0, 0)

    # Empty clients, one-sample clients and clients smaller than the window,
    # each with its own arrival order.
    @given(
        st.lists(st.integers(0, 120), min_size=1, max_size=6),
        st.integers(1, 100),
        st.integers(0, 20),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, sizes, n_latest, round_index, seed):
        rng = np.random.default_rng(seed)
        own_positions = []
        for size, stream_start in zip(sizes, np.cumsum(sizes) - sizes):
            client = make_client(
                rng.normal(size=(size, 2)),
                rng.integers(0, 3, size),
                num_classes=3,
                time_order=rng.permutation(size),
            )
            got = window_latest(client, n_latest, round_index)
            want = reference_window_latest(client, n_latest, round_index)
            for name in ("features", "labels", "time_order"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.array_equal(a, b) and a.dtype == b.dtype, name
            own_positions.append(stream_start + window_positions([size], n_latest, round_index))
        np.testing.assert_array_equal(
            window_positions(sizes, n_latest, round_index), np.concatenate(own_positions)
        )


class TestSampleAuxiliary:
    def test_counts_and_determinism(self):
        ds = gen_synthetic(SyntheticSpec(10, 4, [30] * 10), means_seed=0, seed=1)
        aux = sample_auxiliary(ds, per_class_count=128, seed=9)
        assert aux.num_classes == 10
        np.testing.assert_array_equal(aux.per_class_count, [128] * 10)
        assert sum(aux.per_class_count) == 1280
        again = sample_auxiliary(ds, per_class_count=128, seed=9)
        for a, b in zip(aux.class_features, again.class_features):
            np.testing.assert_array_equal(a, b)

    def test_minimal_probe_set(self):
        ds = make_dataset(np.arange(8.0).reshape(4, 2), [0, 0, 1, 1], num_classes=2)
        aux = sample_auxiliary(ds, per_class_count=1, seed=0)
        assert [len(f) for f in aux.class_features] == [1, 1]

    def test_missing_class_rejected(self):
        ds = make_dataset(np.zeros((3, 2)), [0, 0, 0], num_classes=2)
        with pytest.raises(ValueError, match="class 1"):
            sample_auxiliary(ds, per_class_count=4, seed=0)

    def test_samples_come_from_right_class(self):
        ds = gen_synthetic(SyntheticSpec(3, 4, [20, 20, 20], class_separation=50.0), means_seed=2, seed=3)
        aux = sample_auxiliary(ds, per_class_count=6, seed=4)
        for q, feats in enumerate(aux.class_features):
            pool = ds.features[ds.labels == q]
            for row in feats:
                assert np.any((pool == row).all(axis=1))
