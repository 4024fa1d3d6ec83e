"""The P6/P7 and P8 acceptance experiments, and a harder P8, run at any training seed.

    PYTHONPATH=src python scripts/seed_audit.py [SEED ...]    # default: seeds 0-7

`recon_row` and `class_row` are the experiments themselves: the acceptance
gate (tests/test_acceptance.py) calls `recon_row(0)` for P6/P7 and
`class_row(s)` for s in 0, 1, 2 for P8, and bounds what they return.  Only
the training seed varies, the model's init seed and `TrainConfig.seed`; the
data, steps, SNR grid and noise seeds are fixed here, so seed 0 reproduces
the gate's printed P6 gaps and P7 dip by construction.

Run as a script, it prints one Markdown table per experiment:
- P6/P7: the gap fixed - adaptive at each matched SNR (bound: every |gap|
  <= 1.0 dB), and the adaptive model's worst adjacent PSNR dip over
  0-20 dB (bound: <= 0.2 dB);
- P8: each seed's accuracies and its two margins, adaptive - fixed-1dB at
  19 dB and adaptive - fixed-19dB at 1 dB.  The gate bounds the mean of
  each margin over seeds 0, 1, 2 (>= 0); the line under the table gives
  that mean over the seeds run;
- the harder classification (`harder_class_row`), in P8's columns: P8's
  experiment with an 8-class head (`dense o8 softmax`), one complex
  symbol (the encoder's last layer `dense o2 linear hyper`) and 1024 test
  images, where P8's task sits at the accuracy ceiling.  No gate reads it.

This is an audit, not a test: it passes or fails nothing, and one seed's
P6/P7 run trains five models for 2000 steps each (about 20 s on a 2-vCPU
Xeon).
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import numpy as np

from hyperajscc.config import parse_run_config
from hyperajscc.data import synthetic_dataset
from hyperajscc.metrics import compare_adaptive_vs_fixed, snr_sweep
from hyperajscc.models import build_model
from hyperajscc.training import TrainConfig, train

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")

RECON_EPOCHS = 250  # 8 steps/epoch x 250 = 2000 steps per model
CLASS_EPOCHS = 60
MATCHED_SNRS = [1.0, 7.0, 13.0, 19.0]
FULL_GRID = [float(s) for s in range(0, 21, 2)]


def shipped_model_config(name: str, hyper: bool = True):
    """[model] of configs/<name>.cfg; hyper=False drops every ` hyper` token (the fixed-SNR baseline)."""
    with open(os.path.join(CONFIGS, name + ".cfg")) as fh:
        text = fh.read()
    return parse_run_config(text if hyper else text.replace(" hyper", "")).model


def recon_row(seed: int) -> tuple[list, list[float]]:
    """(P6 gaps [(snr, fixed - adaptive)], the adaptive model's mean PSNR at each FULL_GRID SNR) at training seed `seed`."""
    train_ds = synthetic_dataset("gaussian-blobs-images", 256, (3, 8, 8), seed=0)
    test_ds = synthetic_dataset("gaussian-blobs-images", 128, (3, 8, 8), seed=1)
    grid = sorted(set(MATCHED_SNRS + FULL_GRID))
    model = build_model(shipped_model_config("default_recon"), seed)
    train(model, train_ds, TrainConfig(epochs=RECON_EPOCHS, batch_size=32, prior=(0.0, 20.0), seed=seed, val_every=0))
    adaptive = snr_sweep(model, test_ds, grid, seeds=(0, 1))
    fixed = {}
    for snr in MATCHED_SNRS:
        mf = build_model(shipped_model_config("default_recon", hyper=False), seed)
        train(mf, train_ds, TrainConfig(epochs=RECON_EPOCHS, batch_size=32, prior=(snr, snr), seed=seed, val_every=0))
        fixed[snr] = snr_sweep(mf, test_ds, grid, seeds=(0, 1))
    return compare_adaptive_vs_fixed(adaptive, fixed), [adaptive.mean_at(s) for s in FULL_GRID]


def worst_dip(means: list[float]) -> float:
    """P7's measure: the largest drop in PSNR from one grid SNR to the next higher one."""
    return max(a - b for a, b in zip(means, means[1:]))


def class_row(seed: int, classes: int = 2, bandwidth: int = 4, n_test: int = 128) -> dict[str, tuple[float, float]]:
    """Top-1 accuracy at (1 dB, 19 dB) of the adaptive, fixed-1dB and fixed-19dB classifiers.

    The defaults are P8's experiment, default_class as shipped.  Otherwise
    its head has `classes` outputs, its encoder's last layer 2 * bandwidth,
    and the test set `n_test` images.
    """
    train_ds = synthetic_dataset("pattern-classes", 256, (3, 8, 8), num_classes=classes, seed=0)
    test_ds = synthetic_dataset("pattern-classes", n_test, (3, 8, 8), num_classes=classes, seed=1)
    accs = {}
    for name, hyper, prior in [
        ("adaptive", True, (0.0, 20.0)),
        ("fixed1", False, (1.0, 1.0)),
        ("fixed19", False, (19.0, 19.0)),
    ]:
        cfg = shipped_model_config("default_class", hyper)
        encoder = [*cfg.encoder[:-1], replace(cfg.encoder[-1], out=2 * bandwidth)]
        decoder = [*cfg.decoder[:-1], replace(cfg.decoder[-1], out=classes)]
        m = build_model(replace(cfg, bandwidth=bandwidth, encoder=encoder, decoder=decoder), seed)
        train(m, train_ds, TrainConfig(epochs=CLASS_EPOCHS, batch_size=32, prior=prior, seed=seed, val_every=0))
        rep = snr_sweep(m, test_ds, [1.0, 19.0], seeds=(0,))
        accs[name] = (rep.mean_at(1.0), rep.mean_at(19.0))
    return accs


def harder_class_row(seed: int) -> dict[str, tuple[float, float]]:
    """class_row off P8's accuracy ceiling: 8 classes over one complex symbol, read on 1024 test images."""
    return class_row(seed, classes=8, bandwidth=1, n_test=1024)


def margins(accs: dict[str, tuple[float, float]]) -> tuple[float, float]:
    """P8's two margins of one `class_row`: adaptive - fixed-1dB at 19 dB, and adaptive - fixed-19dB at 1 dB."""
    return accs["adaptive"][1] - accs["fixed1"][1], accs["adaptive"][0] - accs["fixed19"][0]


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or list(range(8))
    print("P6/P7: gap = fixed - adaptive PSNR (dB) at each matched SNR; P6 needs every |gap| <= 1.0, "
          "P7 a dip <= 0.2")
    print()
    header = ["training seed", *(f"{s:g} dB gap" for s in MATCHED_SNRS), "max abs gap", "P6", "P7 worst dip", "P7"]
    print("| " + " | ".join(header) + " |")
    print("|---" * len(header) + "|")
    for seed in seeds:
        gaps, means = recon_row(seed)
        dip = worst_dip(means)
        worst = max(abs(g) for _, g in gaps)
        cells = " | ".join(f"{g:+.3f}" for _, g in gaps)
        print(
            f"| {seed} | {cells} | {worst:.3f} | {'pass' if worst <= 1.0 else 'FAIL'} "
            f"| {max(dip, 0):.3f} | {'pass' if dip <= 0.2 else 'FAIL'} |",
            flush=True,
        )
    harder = "Harder classification (8 classes, 1 symbol, 1024 test images)"
    for title, row in [("P8", class_row), (harder, harder_class_row)]:
        print()
        print(f"{title}: top-1 accuracy at 1 / 19 dB; margins adaptive - fixed-1dB @19 dB and adaptive - fixed-19dB"
              " @1 dB")
        print()
        print("| training seed | adaptive | fixed-1dB | fixed-19dB | margin @19 dB | margin @1 dB |")
        print("|---" * 6 + "|")
        rows = []
        for seed in seeds:
            accs = row(seed)
            m19, m1 = margins(accs)
            rows.append((m19, m1))
            cells = " | ".join(f"{a[0]:.4f} / {a[1]:.4f}" for a in accs.values())
            print(f"| {seed} | {cells} | {m19:+.4f} | {m1:+.4f} |", flush=True)
        m19, m1 = np.mean(rows, axis=0)
        print()
        print(f"mean over seeds {','.join(map(str, seeds))}: margin @19 dB {m19:+.4f}, margin @1 dB {m1:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
