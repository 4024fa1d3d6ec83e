import os

import numpy as np
import pytest
from scipy import ndimage

from hyperajscc.data import RECORD_BYTES, Dataset, _spline_zoom_matrix, batches, load_cifar10, synthetic_dataset
from hyperajscc.errors import ConfigError, CorruptArtifactError


def write_fake_cifar(dir_path, n_per_file=4, seed=0):
    """Write six tiny files in the standard binary batch layout."""
    rng = np.random.default_rng(seed)
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    for name in names:
        recs = np.empty((n_per_file, RECORD_BYTES), dtype=np.uint8)
        recs[:, 0] = rng.integers(0, 10, n_per_file)
        recs[:, 1:] = rng.integers(0, 256, (n_per_file, RECORD_BYTES - 1))
        recs.tofile(os.path.join(dir_path, name))


class TestLoadCifar10:
    def test_shapes_and_split_sizes(self, tmp_path):
        write_fake_cifar(tmp_path, n_per_file=4)
        train, test = load_cifar10(str(tmp_path))
        assert train.samples.shape == (20, 3, 32, 32)
        assert test.samples.shape == (4, 3, 32, 32)
        assert len(train.labels) == 20 and len(test.labels) == 4

    def test_endpoint_mapping(self, tmp_path):
        rec = np.zeros((1, RECORD_BYTES), dtype=np.uint8)
        rec[0, 1] = 0
        rec[0, 2] = 255
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            rec.tofile(os.path.join(tmp_path, name))
        train, _ = load_cifar10(str(tmp_path))
        flat = train.samples[0].reshape(-1)
        assert flat[0] == -1.0 and flat[1] == 1.0

    def test_truncated_file_rejected(self, tmp_path):
        write_fake_cifar(tmp_path)
        path = os.path.join(tmp_path, "data_batch_3.bin")
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-7])
        with pytest.raises(CorruptArtifactError, match="data_batch_3"):
            load_cifar10(str(tmp_path))

    def test_bad_label_rejected(self, tmp_path):
        write_fake_cifar(tmp_path)
        path = os.path.join(tmp_path, "test_batch.bin")
        rec = np.fromfile(path, dtype=np.uint8).reshape(-1, RECORD_BYTES)
        rec[0, 0] = 77
        rec.tofile(path)
        with pytest.raises(CorruptArtifactError, match="label"):
            load_cifar10(str(tmp_path))

    def test_empty_file_rejected(self, tmp_path):
        # 0 bytes is a whole number of records, but a split needs at least one
        write_fake_cifar(tmp_path)
        open(os.path.join(tmp_path, "test_batch.bin"), "wb").close()
        with pytest.raises(CorruptArtifactError, match="test_batch.bin: holds no records"):
            load_cifar10(str(tmp_path))


class TestSyntheticDataset:
    def test_reconstruction_kind(self):
        ds = synthetic_dataset("gaussian-blobs-images", 12, (3, 8, 8), seed=0)
        assert ds.samples.shape == (12, 3, 8, 8)
        assert ds.labels is None
        assert ds.samples.min() >= -1.0 and ds.samples.max() <= 1.0

    def test_classification_kind(self):
        ds = synthetic_dataset("pattern-classes", 20, (1, 8, 8), num_classes=3, seed=0)
        assert ds.samples.shape == (20, 1, 8, 8)
        assert sorted(set(ds.labels)) == [0, 1, 2]

    def test_determinism(self):
        a = synthetic_dataset("gaussian-blobs-images", 6, (1, 8, 8), seed=5)
        b = synthetic_dataset("gaussian-blobs-images", 6, (1, 8, 8), seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_data(self):
        a = synthetic_dataset("gaussian-blobs-images", 6, (1, 8, 8), seed=5)
        b = synthetic_dataset("gaussian-blobs-images", 6, (1, 8, 8), seed=6)
        assert not np.array_equal(a.samples, b.samples)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            synthetic_dataset("mandelbrot", 4)

    def test_classes_are_separable_by_nearest_prototype(self):
        # sanity: class structure strong enough that a trivial classifier
        # beats 90% -- otherwise accuracy-based acceptance runs are hopeless
        ds = synthetic_dataset("pattern-classes", 200, (1, 8, 8), num_classes=2, seed=1)
        x = ds.samples.reshape(200, -1)
        y = np.asarray(ds.labels)
        protos = np.stack([x[y == k].mean(axis=0) for k in (0, 1)])
        pred = np.argmin(((x[:, None, :] - protos[None]) ** 2).sum(axis=2), axis=1)
        assert (pred == y).mean() > 0.9


def ndimage_dataset(kind, n_items, shape, num_classes, seed):
    """synthetic_dataset's samples and labels built one image and one channel at a time with ndimage.zoom."""

    def smooth(rng):
        c, h, w = shape
        coarse = rng.standard_normal((c, max(h // 4, 2), max(w // 4, 2)))
        img = np.stack([ndimage.zoom(ch, (h / ch.shape[0], w / ch.shape[1]), order=3) for ch in coarse])
        peak = np.abs(img).max()
        return 0.9 * img / peak if peak > 0 else img

    rng = np.random.default_rng(seed)
    if kind == "gaussian-blobs-images":
        return np.stack([smooth(rng) for _ in range(n_items)]), None
    protos = [smooth(np.random.default_rng(np.random.SeedSequence((0xC1A55, k)))) for k in range(num_classes)]
    labels = rng.integers(0, num_classes, size=n_items).tolist()
    samples = np.stack([np.clip(protos[lab] + 0.15 * rng.standard_normal(shape), -1.0, 1.0) for lab in labels])
    return samples, labels


class TestSplineZoom:
    def test_matrix_matches_ndimage_zoom(self):
        # column j is the zoom of the j-th unit impulse
        for n in range(2, 11):
            eye = np.eye(n)
            for m in range(1, 41):
                want = np.stack([ndimage.zoom(eye[j], m / n, order=3) for j in range(n)], axis=1)
                np.testing.assert_allclose(_spline_zoom_matrix(n, m), want, rtol=0, atol=1e-13, err_msg=f"n={n} m={m}")

    @pytest.mark.parametrize("shape", [(1, 8, 8), (3, 8, 8), (3, 32, 32)])
    @pytest.mark.parametrize("kind", ["gaussian-blobs-images", "pattern-classes"])
    def test_dataset_matches_ndimage_zoom(self, kind, shape):
        ds = synthetic_dataset(kind, 24, shape, num_classes=3, seed=11)
        samples, labels = ndimage_dataset(kind, 24, shape, num_classes=3, seed=11)
        np.testing.assert_allclose(ds.samples, samples, rtol=0, atol=1e-14)
        assert ds.labels == labels


class TestBatches:
    def make(self, n=10):
        rng = np.random.default_rng(0)
        return Dataset(rng.standard_normal((n, 1, 2, 2)), list(range(n)), "toy", "train")

    def test_partition_covers_everything_once(self):
        ds = self.make(10)
        seen = []
        for idx in batches(ds, 4, shuffle_seed=0, epoch=1):
            seen += list(idx)
        assert sorted(seen) == list(range(10))

    def test_batch_sizes_with_partial_tail(self):
        ds = self.make(10)
        sizes = [len(idx) for idx in batches(ds, 4, shuffle_seed=0, epoch=1)]
        assert sizes == [4, 4, 2]

    def test_epoch_changes_order_deterministically(self):
        ds = self.make(10)
        e1 = [list(i) for i in batches(ds, 5, shuffle_seed=3, epoch=1)]
        e1b = [list(i) for i in batches(ds, 5, shuffle_seed=3, epoch=1)]
        e2 = [list(i) for i in batches(ds, 5, shuffle_seed=3, epoch=2)]
        assert e1 == e1b
        assert e1 != e2

    def test_oversized_batch_rejected(self):
        with pytest.raises(ConfigError):
            list(batches(self.make(4), 8, shuffle_seed=0, epoch=1))
