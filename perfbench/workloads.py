"""The benchmark's workloads: inputs made from the seed, set-up, one batch.

Every input comes from the workload seed: the synthetic images, the weight
init, the per-sample SNR draws, the batch order and the channel noise.  The
program gets only the resulting arrays, seeds and config text.

Program functions are always looked up on their module at call time
(``training.train_step``, not a bound name), so a traced run sees the
tracer's wrappers and an untraced run the originals.
"""

from __future__ import annotations

import os
import time

import numpy as np

from hyperajscc import checkpoint, config, data, metrics, models, training
from hyperajscc.data import Dataset
from hyperajscc.layers import HyperLayer
from hyperajscc.tensor import Tensor

_clock = time.perf_counter

# Copies of configs/default_recon.cfg and configs/tiny_recon.cfg, kept here
# so that an edit to the repo's configs does not silently change a workload.
DEFAULT_RECON = """\
[model]
task = reconstruction
input_shape = 3x8x8
bandwidth = 8
encoder = conv o16 k4 s2 p1 relu hyper | conv o32 k4 s2 p1 relu hyper | conv o4 k3 s1 p1 linear hyper
decoder = reshape 4x2x2 | conv o32 k3 s1 p1 relu hyper | deconv o16 u2 k3 p1 relu hyper | deconv o3 u2 k3 p1 tanh hyper

[data]
kind = synthetic-recon
n_train = 256
n_val = 128
seed = 0

[train]
epochs = 250
batch_size = 32
lr = 0.001
prior = uniform 0 20
seed = 0

[eval]
snr_grid = 0:20:2
seeds = 0,1
"""

TINY_RECON = """\
[model]
task = reconstruction
input_shape = 1x8x8
bandwidth = 4
encoder = flatten | dense o32 relu hyper | dense o8 linear hyper
decoder = dense o32 relu hyper | dense o64 tanh hyper

[data]
kind = synthetic-recon
n_train = 128
n_val = 64
seed = 0

[train]
epochs = 40
batch_size = 16
lr = 0.002
prior = uniform 0 20
seed = 0

[eval]
snr_grid = 0:20:2
seeds = 0,1
"""

SNR_LO_DB, SNR_HI_DB = 0.0, 20.0
# Train steps run before timing starts; the loss after the last of them is
# compared with the recorded reference.
CHECK_STEPS = 16
# Relative tolerance on that loss.  Reordering the conv sums (an im2col
# forward) moved it by < 1e-15; a 1e-6 relative error in one op's gradient
# moved it by 2e-9, a 0.1% error in the nu gradients by 8e-9.
LOSS_RTOL = 1e-10
# Absolute tolerance on the reference sweep PSNRs, in dB.  The im2col
# forward moved them by < 4e-15 dB.
PSNR_ATOL = 1e-9
SWEEP_IMAGES = 128
SWEEP_CHUNK = 64
SWEEP_GRID = tuple(float(s) for s in range(0, 21, 2))
SWEEP_NOISE_SEEDS = 2


def derived_seeds(seed: int, n: int) -> list[int]:
    """n independent 32-bit seeds from one workload seed."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(n)]


class TrainRun:
    """One `train_step` per batch on a freshly initialised model."""

    def __init__(self, config_text: str, batch_size: int, seed: int):
        data_seed, init_seed, snr_seed, noise_seed, self.shuffle_seed = derived_seeds(seed, 5)
        self.batch_size = batch_size
        t = {}
        t0 = _clock()
        cfg = config.parse_run_config(config_text)
        t1 = _clock()
        self.dataset = data.synthetic_dataset(
            "gaussian-blobs-images", cfg.n_train, cfg.model.input_shape, seed=data_seed
        )
        t2 = _clock()
        self.model = models.build_model(cfg.model, seed=init_seed)
        self.opt = training.Adam(self.model.parameters(), cfg.train.lr)
        t3 = _clock()
        t["config.parse_ms"] = (t1 - t0) * 1e3
        t["data.synthetic_s"] = t2 - t1
        t["models.build_ms"] = (t3 - t2) * 1e3
        t["setup_s"] = t3 - t0
        self.timings = t
        self.snr_rng = np.random.default_rng(snr_seed)
        self.noise_rng = np.random.default_rng(noise_seed)
        self._order = self._batch_indices()
        self.check_batches = CHECK_STEPS
        self.last_batch = None

    def _batch_indices(self):
        epoch = 1
        while True:
            yield from data.batches(self.dataset, self.batch_size, self.shuffle_seed, epoch)
            epoch += 1

    def step(self) -> tuple[float, float, float]:
        """(loss, train_step seconds, batch fetch seconds)."""
        t0 = _clock()
        idx = next(self._order)
        xb = self.dataset.samples[idx]
        omegas = self.snr_rng.uniform(SNR_LO_DB, SNR_HI_DB, size=len(idx))
        t1 = _clock()
        loss = training.train_step(self.model, xb, None, omegas, "mse", self.opt, self.noise_rng)
        t2 = _clock()
        self.last_batch = (xb, omegas)
        return loss, t2 - t1, t1 - t0

    def batch_ok(self, index: int, value: float) -> bool:
        return bool(np.isfinite(value))

    @staticmethod
    def reference_of(values: list[float]) -> float:
        return values[CHECK_STEPS - 1]

    @staticmethod
    def matches(got, ref) -> bool:
        return abs(got - ref) <= LOSS_RTOL * abs(ref)

    def power_batch(self):
        return self.last_batch


class SweepRun:
    """`metrics.snr_sweep` of a reloaded checkpoint, one 64-image chunk per call.

    One round is the 11-SNR x 2-noise-seed sweep over 128 images: 44 calls,
    each with one grid point, one noise seed and one chunk, so that the
    latency of every chunk is visible without hooking the program.
    """

    def __init__(self, config_text: str, seed: int, workdir: str):
        data_seed, init_seed, scale_seed, noise_seed = derived_seeds(seed, 4)
        t = {}
        t0 = _clock()
        cfg = config.parse_run_config(config_text)
        t1 = _clock()
        images = data.synthetic_dataset(
            "gaussian-blobs-images", SWEEP_IMAGES, cfg.model.input_shape, seed=data_seed
        )
        t2 = _clock()
        trained = models.build_model(cfg.model, seed=init_seed)
        set_scales(trained, np.random.default_rng(scale_seed))
        t3 = _clock()
        path = os.path.join(workdir, "sweep.haj")
        checkpoint.save_checkpoint(path, trained, config_text)
        t4 = _clock()
        self.model, _ = checkpoint.load_model(path, expected_config_text=config_text)
        t5 = _clock()
        t["config.parse_ms"] = (t1 - t0) * 1e3
        t["data.synthetic_s"] = t2 - t1
        t["models.build_ms"] = (t3 - t2) * 1e3
        t["checkpoint.save_ms"] = (t4 - t3) * 1e3
        t["checkpoint.load_ms"] = (t5 - t4) * 1e3
        t["checkpoint.bytes"] = os.path.getsize(path)
        t["setup_s"] = t5 - t0
        self.timings = t
        os.remove(path)
        self.chunks = [
            Dataset(images.samples[i : i + SWEEP_CHUNK], None, images.name, "bench")
            for i in range(0, SWEEP_IMAGES, SWEEP_CHUNK)
        ]
        self.plan = [
            (gi, j, c)
            for gi in range(len(SWEEP_GRID))
            for j in range(SWEEP_NOISE_SEEDS)
            for c in range(len(self.chunks))
        ]
        seeds = np.random.default_rng(noise_seed).integers(0, 2**31, size=len(self.plan))
        self.call_seeds = [int(s) for s in seeds]
        self.batch_size = SWEEP_CHUNK
        self.check_batches = len(self.plan)
        self.first_round: list[float] = []
        self._i = 0

    def step(self) -> tuple[float, float, float]:
        """(PSNR of one chunk, snr_sweep seconds, 0)."""
        k = self._i % len(self.plan)
        gi, _, c = self.plan[k]
        self._i += 1
        t0 = _clock()
        report = metrics.snr_sweep(self.model, self.chunks[c], (SWEEP_GRID[gi],), seeds=(self.call_seeds[k],))
        t1 = _clock()
        return report.rows[0][1], t1 - t0, 0.0

    def batch_ok(self, index: int, value: float) -> bool:
        """Finite, and bit-equal to the same call in the first round."""
        k = index % len(self.plan)
        if index < len(self.plan):
            self.first_round.append(value)
            return bool(np.isfinite(value))
        return value == self.first_round[k]

    def reference_of(self, values: list[float]) -> list[float]:
        """Mean PSNR per grid SNR over the first round."""
        rows = np.zeros(len(SWEEP_GRID))
        for (gi, _, _), v in zip(self.plan, values):
            rows[gi] += v
        return (rows / (len(self.plan) // len(SWEEP_GRID))).tolist()

    @staticmethod
    def matches(got, ref) -> bool:
        return len(got) == len(ref) and all(abs(a - b) <= PSNR_ATOL for a, b in zip(got, ref))

    def power_batch(self):
        return self.chunks[0].samples, SWEEP_GRID[0]


def set_scales(model, rng: np.random.Generator) -> None:
    """Move every layer's (nu, c) away from the identity init."""
    for layer in list(model.encoder) + list(model.decoder):
        if isinstance(layer, HyperLayer) and layer.scale is not None:
            n = layer.scale.nu.shape[0]
            layer.scale.nu.data = rng.normal(0.0, 0.2, n)
            layer.scale.c.data = 1.0 + rng.normal(0.0, 0.1, n)


def unit_power(run) -> bool:
    """The encoder's power_normalize output has unit mean complex power per row."""
    xb, omegas = run.power_batch()
    symbols = models.encode(run.model, Tensor(xb), omegas)
    z = symbols.values.data
    power = (z * z).sum(axis=1) / symbols.d
    return bool(np.all(np.abs(power - 1.0) <= 1e-12))


WORKLOADS = {
    "conv_train": lambda seed, workdir: TrainRun(DEFAULT_RECON, 32, seed),
    "dense_train": lambda seed, workdir: TrainRun(TINY_RECON, 16, seed),
    "sweep_eval": lambda seed, workdir: SweepRun(DEFAULT_RECON, seed, workdir),
}
