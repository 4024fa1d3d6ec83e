"""Datasets: CIFAR-10 binary batches, synthetic generators, deterministic batching.

All samples are float64 in [-1, 1] (matching the tanh decoder head).
Synthetic data keeps the test suite hermetic; CIFAR-10 is used only when
the binary batches are already on disk.  The smooth synthetic images are
coarse noise zoomed by a cubic spline, computed as two matrix products
with numpy alone; they match scipy.ndimage.zoom(order=3) to rounding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CorruptArtifactError, are_counts, check_seed

RECORD_BYTES = 3073  # 1 label byte + 3*32*32 pixel bytes


@dataclass
class Dataset:
    samples: np.ndarray  # [N, C, H, W] in [-1, 1]
    labels: list[int] | None
    name: str
    split: str

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != self.samples.shape[0]:
            raise ConfigError(
                f"{len(self.labels)} labels for {self.samples.shape[0]} samples"
            )


def _load_cifar_file(path: str) -> tuple[np.ndarray, list[int]]:
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % RECORD_BYTES:
        raise CorruptArtifactError(
            f"{path}: size {raw.size} is not a multiple of the {RECORD_BYTES}-byte record"
        )
    if raw.size == 0:
        raise CorruptArtifactError(f"{path}: holds no records")
    records = raw.reshape(-1, RECORD_BYTES)
    labels = records[:, 0]
    if labels.max() > 9:
        raise CorruptArtifactError(f"{path}: corrupt label byte {labels.max()} > 9")
    pixels = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64)
    return 2.0 * (pixels / 255.0) - 1.0, labels.tolist()


def load_cifar10(dir_path: str) -> tuple[Dataset, Dataset]:
    """Parse the standard CIFAR-10 binary batches from a directory."""
    train_x, train_y = [], []
    for i in range(1, 6):
        x, y = _load_cifar_file(os.path.join(dir_path, f"data_batch_{i}.bin"))
        train_x.append(x)
        train_y += y
    test_x, test_y = _load_cifar_file(os.path.join(dir_path, "test_batch.bin"))
    train = Dataset(np.concatenate(train_x), train_y, "cifar10", "train")
    test = Dataset(test_x, test_y, "cifar10", "test")
    return train, test


def _spline_zoom_matrix(n: int, m: int) -> np.ndarray:
    """[m, n] matrix of scipy.ndimage.zoom(order=3, mode="constant", grid_mode=False) along one axis.

    Output k samples the cubic B-spline through the n input points at
    x_k = k*(n-1)/(m-1).  The spline's coefficients solve the prefilter
    system (4/6 on the diagonal, 1/6 on each side) and both the system and
    the weights fold out-of-range neighbours back in by whole-sample mirror
    symmetry (d c b | a b c d | c b a).  Needs n >= 2.
    """

    def fold(j):
        j = np.abs(j) % (2 * n - 2)
        return np.where(j < n, j, 2 * n - 2 - j)

    def bspline3(t):
        t = np.abs(t)
        return np.where(t < 1, 2 / 3 - t**2 + t**3 / 2, np.where(t < 2, (2 - t) ** 3 / 6, 0.0))

    i = np.arange(n)
    prefilter = np.zeros((n, n))
    for offset, weight in ((-1, 1 / 6), (0, 4 / 6), (1, 1 / 6)):
        np.add.at(prefilter, (i, fold(i + offset)), weight)
    x = np.arange(m) * ((n - 1) / (m - 1) if m > 1 else 0.0)
    weights = np.zeros((m, n))
    for offset in range(-1, 3):  # the four knots whose splines cover x
        knot = np.floor(x).astype(int) + offset
        np.add.at(weights, (np.arange(m), fold(knot)), bspline3(x - knot))
    weights[x > n - 1] = 0.0  # "constant" mode: a sample that rounding puts past the last point reads 0
    return np.linalg.solve(prefilter.T, weights.T).T


def _smooth_images(n: int, shape: tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    """n random low-frequency images [n, C, H, W] in [-1, 1]: coarse noise upsampled by a cubic spline.

    Each image is scaled so that its peak magnitude is 0.9.
    """
    c, h, w = shape
    coarse = rng.standard_normal((n, c, max(h // 4, 2), max(w // 4, 2)))
    imgs = _spline_zoom_matrix(coarse.shape[2], h) @ coarse @ _spline_zoom_matrix(coarse.shape[3], w).T
    peak = np.abs(imgs).max(axis=(1, 2, 3), keepdims=True)
    return 0.9 * imgs / np.where(peak > 0, peak, 1.0)


def synthetic_dataset(
    kind: str,
    n_items: int,
    shape: tuple[int, int, int] = (3, 8, 8),
    num_classes: int = 2,
    seed: int = 0,
) -> Dataset:
    """kind: 'gaussian-blobs-images' (reconstruction) or 'pattern-classes'."""
    if not are_counts([n_items, num_classes]):
        raise ConfigError(f"n_items {n_items!r} and num_classes {num_classes!r} must be positive integers")
    if not (are_counts(shape) and len(shape) == 3):
        raise ConfigError(f"image shape {shape!r} must be three sizes >= 1")
    rng = np.random.default_rng(check_seed(seed))
    if kind == "gaussian-blobs-images":
        samples = _smooth_images(n_items, shape, rng)
        return Dataset(samples, None, kind, "any")
    if kind == "pattern-classes":
        # One fixed smooth prototype per class, plus small per-item noise.
        # Prototypes depend only on (class, shape), never on `seed`, so
        # train/validation splits drawn with different seeds share the same
        # class definitions and generalization is measurable.
        protos = [
            _smooth_images(1, shape, np.random.default_rng(np.random.SeedSequence((0xC1A55, k))))[0]
            for k in range(num_classes)
        ]
        labels = rng.integers(0, num_classes, size=n_items).tolist()
        samples = np.empty((n_items,) + tuple(shape))
        for i, lab in enumerate(labels):
            noisy = protos[lab] + 0.15 * rng.standard_normal(shape)
            samples[i] = np.clip(noisy, -1.0, 1.0)
        return Dataset(samples, labels, kind, "any")
    raise ConfigError(f"unknown synthetic dataset kind: {kind!r}")


def batches(dataset: Dataset, batch_size: int, shuffle_seed: int, epoch: int):
    """Deterministic epoch-dependent permutation; final partial batch kept."""
    n = dataset.samples.shape[0]
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    if batch_size > n:
        raise ConfigError(f"batch_size {batch_size} exceeds dataset size {n}")
    rng = np.random.default_rng(np.random.SeedSequence((shuffle_seed, epoch)))
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]
