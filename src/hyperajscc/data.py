"""Datasets: CIFAR-10 binary batches, synthetic generators, deterministic batching.

All samples are float64 in [-1, 1] (matching the tanh decoder head).
Synthetic data keeps the test suite hermetic; CIFAR-10 is used only when
the binary batches are already on disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, CorruptArtifactError

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


def _smooth_image(shape: tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    """Random low-frequency image in [-1, 1]: coarse noise upsampled smoothly."""
    c, h, w = shape
    coarse = rng.standard_normal((c, max(h // 4, 2), max(w // 4, 2)))
    img = np.stack(
        [ndimage.zoom(coarse[ch], (h / coarse.shape[1], w / coarse.shape[2]), order=3) for ch in range(c)]
    )
    peak = np.abs(img).max()
    return 0.9 * img / peak if peak > 0 else img


def synthetic_dataset(
    kind: str,
    n_items: int,
    shape: tuple[int, int, int] = (3, 8, 8),
    num_classes: int = 2,
    seed: int = 0,
) -> Dataset:
    """kind: 'gaussian-blobs-images' (reconstruction) or 'pattern-classes'."""
    if n_items < 1:
        raise ConfigError("n_items must be positive")
    rng = np.random.default_rng(seed)
    if kind == "gaussian-blobs-images":
        samples = np.stack([_smooth_image(shape, rng) for _ in range(n_items)])
        return Dataset(samples, None, kind, "any")
    if kind == "pattern-classes":
        # One fixed smooth prototype per class, plus small per-item noise.
        # Prototypes depend only on (class, shape), never on `seed`, so
        # train/validation splits drawn with different seeds share the same
        # class definitions and generalization is measurable.
        protos = [
            _smooth_image(shape, np.random.default_rng(np.random.SeedSequence((0xC1A55, k))))
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
