"""Print sha256 digests of the numbers a rewrite of the ops must leave bit-identical.

    PYTHONPATH=src python scripts/numerics_digest.py [SEED ...]    # default: seeds 7 and 11

There are three parts, each digested over every seed:
- `default_recon train`, `tiny_recon train`: the loss of each of 60
  `train_step` calls, and the final parameters, of configs/default_recon.cfg
  (B=32) and configs/tiny_recon.cfg (B=16), each trained from a fresh
  model on synthetic images;
- `sweep`: the mean and spread of the PSNR at each point of an 11-SNR x
  2-noise-seed `snr_sweep` of a fresh default_recon model whose nu and c
  are moved off the identity, so the per-channel gain is not a no-op.

One line per part, `<sha256>  <part>`, then `<sha256>  all`: one digest
over the same numbers, seed by seed, each seed's parts in the order above.
A speed-up that keeps every float operation and its order prints the same
lines before and after; run it on both trees and compare.  A change that
reorders the conv sums moves the two parts that run a conv and leaves
`tiny_recon train`, which runs none.  Every input comes from the seed; the
script reads only the package and configs/.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

from hyperajscc import config, data, metrics, models, training
from hyperajscc.layers import HyperLayer

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")
SEEDS = (7, 11)
STEPS = 60
TRAIN_RUNS = (("default_recon", 32), ("tiny_recon", 16))
SWEEP_IMAGES = 128
SWEEP_GRID = tuple(float(s) for s in range(0, 21, 2))
SWEEP_NOISE_SEEDS = (0, 1)


def run_config(name: str):
    with open(os.path.join(CONFIGS, name + ".cfg")) as fh:
        return config.parse_run_config(fh.read())


def train_numbers(name: str, batch_size: int, seed: int, steps: int) -> np.ndarray:
    """The losses of `steps` train steps of configs/<name>.cfg, then its final parameters."""
    cfg = run_config(name)
    data_seed, init_seed, snr_seed, noise_seed, shuffle_seed = np.random.SeedSequence(seed).generate_state(5)
    ds = data.synthetic_dataset("gaussian-blobs-images", cfg.n_train, cfg.model.input_shape, seed=int(data_seed))
    model = models.build_model(cfg.model, seed=int(init_seed))
    opt = training.Adam(model.parameters(), cfg.train.lr)
    snr_rng, noise_rng = np.random.default_rng(snr_seed), np.random.default_rng(noise_seed)
    lo, hi = cfg.train.prior
    losses, epoch = [], 0
    while len(losses) < steps:
        epoch += 1
        for idx in data.batches(ds, batch_size, int(shuffle_seed), epoch):
            if len(losses) == steps:
                break
            omegas = snr_rng.uniform(lo, hi, size=len(idx))
            losses.append(training.train_step(model, ds.samples[idx], None, omegas, "mse", opt, noise_rng))
    return np.concatenate([losses, opt.flat])


def sweep_numbers(seed: int) -> np.ndarray:
    """(snr, mean, std) of each row of an off-identity default_recon model's sweep."""
    cfg = run_config("default_recon")
    data_seed, init_seed, scale_seed = np.random.SeedSequence((seed, 1)).generate_state(3)
    images = data.synthetic_dataset("gaussian-blobs-images", SWEEP_IMAGES, cfg.model.input_shape, seed=int(data_seed))
    model = models.build_model(cfg.model, seed=int(init_seed))
    rng = np.random.default_rng(scale_seed)
    for layer in list(model.encoder) + list(model.decoder):
        if isinstance(layer, HyperLayer) and layer.scale is not None:
            n = layer.scale.nu.shape[0]
            layer.scale.nu.data = rng.normal(0.0, 0.2, n)
            layer.scale.c.data = 1.0 + rng.normal(0.0, 0.1, n)
    report = metrics.snr_sweep(model, images, SWEEP_GRID, seeds=SWEEP_NOISE_SEEDS)
    return np.array([row[:3] for row in report.rows])


def digests(seeds=SEEDS, steps: int = STEPS) -> dict[str, str]:
    """{part: sha256} for each part over every seed, then "all", over every part."""
    parts = {f"{name} train": hashlib.sha256() for name, _ in TRAIN_RUNS} | {"sweep": hashlib.sha256()}
    combined = hashlib.sha256()
    for seed in seeds:
        numbers = [(f"{name} train", train_numbers(name, batch_size, seed, steps)) for name, batch_size in TRAIN_RUNS]
        for part, values in numbers + [("sweep", sweep_numbers(seed))]:
            data_bytes = np.ascontiguousarray(values, dtype="<f8").tobytes()
            parts[part].update(data_bytes)
            combined.update(data_bytes)
    return {part: h.hexdigest() for part, h in parts.items()} | {"all": combined.hexdigest()}


def main(argv=None, steps: int = STEPS) -> int:
    args = sys.argv[1:] if argv is None else argv
    seeds = tuple(int(a) for a in args) or SEEDS
    for part, hexdigest in digests(seeds, steps).items():
        print(f"{hexdigest}  {part}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
