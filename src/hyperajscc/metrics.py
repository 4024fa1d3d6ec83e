"""Evaluation metrics and the test-SNR sweep harness.

Reconstruction quality is reported as PSNR over [0, 1] pixel values:
model outputs in [-1, 1] are un-mapped via x01 = (x + 1) / 2 before the
MSE, so MAX = 1.  A chunk's squared error over [0, 1] pixels is computed
as sum((x - out)**2) / 4, the same quantity.  Zero MSE is capped at
100 dB to keep CSVs finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .channel import check_snr
from .data import Dataset
from .errors import ConfigError, check_seed
from .models import HyperAJSCCModel, forward_pipeline
from .tensor import Tensor

PSNR_CAP_DB = 100.0
EVAL_CHUNK = 64  # images per forward pass in a sweep


def psnr_from_mse(mse: float) -> float:
    """10*log10(1 / MSE) for an MSE over [0, 1] pixels, capped at 100 dB."""
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


@dataclass
class SweepReport:
    """(test SNR -> metric) table; one row per grid point."""

    metric: str  # psnr_db | top1_accuracy
    rows: list = field(default_factory=list)  # (snr_db, mean, std, n_samples)

    def mean_at(self, snr_db: float) -> float:
        for s, mean, _, _ in self.rows:
            if s == snr_db:
                return mean
        raise ConfigError(f"no sweep row for SNR {snr_db} dB")

    def to_csv(self) -> str:
        lines = ["snr_db,metric,mean,std,n"]
        for s, mean, std, n in self.rows:
            lines.append(f"{snr_label(s)},{self.metric},{mean!r},{std!r},{n}")
        return "\n".join(lines) + "\n"


def snr_label(snr_db: float) -> str:
    """0, -4, 0.5, 1.0000001: repr without a trailing '.0', so distinct SNRs get distinct labels."""
    text = repr(float(snr_db))
    return text[:-2] if text.endswith(".0") else text


def check_snr_grid(snr_grid) -> list[float]:
    """The grid as floats; a ConfigError unless it is a non-empty, strictly increasing list of SNRs that pass check_snr.

    A NaN would pass the order check and sweep to a row of NaNs.
    """
    grid = check_snr(snr_grid)
    if grid.ndim != 1 or not grid.size:
        raise ConfigError(f"empty SNR grid, or not a flat list: {snr_grid!r}")
    grid = grid.tolist()
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("SNRs must be strictly increasing")
    return grid


def _eval_once(model: HyperAJSCCModel, dataset: Dataset, omega_db: float, rng) -> float:
    """The sweep metric of one noisy pass over the dataset, in chunks of EVAL_CHUNK.

    The forward passes record no tape: nothing reads their gradients.
    """
    recon = model.config.task == "reconstruction"
    total = 0.0  # summed squared error over [0, 1] pixels, or correct count
    for start in range(0, dataset.samples.shape[0], EVAL_CHUNK):
        xb = dataset.samples[start : start + EVAL_CHUNK]
        with T.no_tape():
            out = forward_pipeline(model, Tensor(xb), omega_db, rng).data
        if recon:
            d = xb - out  # (xb + 1) / 2 - (out + 1) / 2, times 2
            d *= d
            total += float(np.add.reduce(d, axis=None) / 4.0)
        else:
            total += int((out.argmax(axis=1) == np.asarray(dataset.labels[start : start + EVAL_CHUNK])).sum())
    return psnr_from_mse(total / dataset.samples.size) if recon else total / dataset.samples.shape[0]


def snr_sweep(model: HyperAJSCCModel, dataset: Dataset, snr_grid, seeds=(0,)) -> SweepReport:
    """Full-dataset metric at each grid SNR, aggregated over noise seeds.

    A ConfigError if the grid fails `check_snr_grid`, seeds is not a sequence,
    there is no noise seed or one fails `check_seed`, the dataset has no
    samples, or a classification model's has no labels: no such sweep has a
    metric.
    """
    grid = check_snr_grid(snr_grid)
    try:
        seeds = tuple(map(check_seed, seeds))
    except TypeError:
        raise ConfigError(f"snr_sweep: noise seeds {seeds!r} are not a sequence") from None
    if not seeds:
        raise ConfigError("snr_sweep: no noise seeds")
    if dataset.samples.shape[0] == 0:
        raise ConfigError("snr_sweep: dataset is empty")
    if model.config.task == "classification" and dataset.labels is None:
        raise ConfigError("snr_sweep: a classification model needs a labeled dataset")
    metric = "psnr_db" if model.config.task == "reconstruction" else "top1_accuracy"
    report = SweepReport(metric=metric)
    for gi, snr in enumerate(grid):
        vals = []
        for seed in seeds:
            rng = np.random.default_rng(np.random.SeedSequence((seed, gi)))
            vals.append(_eval_once(model, dataset, snr, rng))
        vals = np.asarray(vals)
        report.rows.append((snr, float(vals.mean()), float(vals.std()), dataset.samples.shape[0]))
    return report


def compare_adaptive_vs_fixed(adaptive: SweepReport, fixed: dict[float, SweepReport]) -> list:
    """Per matched point: metric(fixed model at its own train SNR) - metric(adaptive).

    This is the upper-envelope comparison: each fixed model is read out only
    at the SNR it was trained for.
    """
    gaps = []
    for train_snr in sorted(fixed):
        try:
            f_val = fixed[train_snr].mean_at(train_snr)
            a_val = adaptive.mean_at(train_snr)
        except ConfigError as e:
            raise ConfigError(f"grid mismatch at {train_snr} dB: {e}") from None
        gaps.append((train_snr, f_val - a_val))
    return gaps


# ---------------------------------------------------------------------------
# dependency-free SVG line chart


def sweep_chart_svg(series: dict[str, SweepReport], ylabel: str) -> str:
    """One polyline per report, x axis in dB, on a 640 x 420 canvas."""
    width, height, pad = 640, 420, 60
    xs = sorted({s for rep in series.values() for s, *_ in rep.rows})
    ys = [mean for rep in series.values() for _, mean, _, _ in rep.rows]
    if not xs or not ys:
        raise ConfigError("sweep_chart_svg: nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi += 1.0
    if y_hi == y_lo:
        y_hi += 1.0

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width//2}" y="{height-15}" text-anchor="middle" font-size="13">test SNR (dB)</text>',
        f'<text x="18" y="{height//2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {height//2})">{ylabel}</text>',
    ]
    for i, x in enumerate(np.linspace(x_lo, x_hi, 5)):
        out.append(f'<text x="{px(x):.1f}" y="{height-pad+18}" text-anchor="middle" font-size="11">{x:.0f}</text>')
    for y in np.linspace(y_lo, y_hi, 5):
        out.append(f'<text x="{pad-8:.1f}" y="{py(y)+4:.1f}" text-anchor="end" font-size="11">{y:.2f}</text>')
    for i, (name, rep) in enumerate(series.items()):
        color = colors[i % len(colors)]
        pts = " ".join(f"{px(s):.2f},{py(mean):.2f}" for s, mean, _, _ in rep.rows)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{width-pad+5}" y="{pad + 16*i}" font-size="11" fill="{color}">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
