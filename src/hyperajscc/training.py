"""Losses, Adam, and the single-round condition-adaptive training loop.

Each mini-batch draws one channel condition per sample, uniformly from the
prior range [lo, hi] dB (a fixed-SNR run is the range [v, v]), so one
gradient step optimizes the Monte-Carlo average of the per-condition
losses over the whole trainable set (base weights plus scale vectors).
The loss follows the model's task: MSE for reconstruction, cross-entropy
for classification.  A NaN loss aborts immediately with the offending
epoch/step.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .channel import SNR_FLOOR_DB
from .data import Dataset, batches
from .errors import ConfigError, NumericAbortError, are_counts, check_seed
from .metrics import check_snr_grid, snr_label, snr_sweep
from .models import HyperAJSCCModel, forward_pipeline
from .tensor import Tensor


def mse_loss(x: Tensor, x_hat: Tensor) -> Tensor:
    if x.data.shape != x_hat.data.shape:
        raise ConfigError(f"mse_loss: shapes differ: {x.data.shape} vs {x_hat.data.shape}")
    diff = x_hat.data - x.data
    n = diff.size

    def backward(g):
        # the float operations of tmean(mul(d, d)) for d = sub(x_hat, x), so the gradients are bit-equal
        t = (g / n) * diff
        gd = t + t
        return [(x_hat, gd), (x, -gd)] if x._track else [(x_hat, gd)]

    # the float operations of ndarray.mean, without its Python-level dispatch
    return T._make(np.asarray(np.add.reduce(diff * diff, axis=None) / n), (x_hat, x), backward)


PROB_FLOOR = 1e-12


def cross_entropy_loss(probs: Tensor, labels) -> Tensor:
    """Mean of -log probs[i, label_i], with a 1e-12 probability floor; labels are integers, one per row."""
    labels = np.asarray(labels)
    sp = probs.data.shape
    if len(sp) != 2 or labels.shape != sp[:1] or labels.dtype.kind not in "iu":
        raise ConfigError(f"cross_entropy_loss: probs {sp}, labels {labels.shape} of {labels.dtype}")
    n, k = sp
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ConfigError(f"label out of range [0, {k})")
    picked = probs.data[np.arange(n), labels]
    floored = np.maximum(picked, PROB_FLOOR)
    loss = -np.log(floored).mean()

    def backward(g):
        dp = np.zeros_like(probs.data)
        live = picked >= PROB_FLOOR
        dp[np.arange(n)[live], labels[live]] = -float(g) / (n * floored[live])
        return [(probs, dp)]

    return T._make(np.asarray(loss), (probs,), backward)


class Adam:
    """Adam with bias correction; update is -lr * m_hat / sqrt(v_hat + eps).

    eps sits inside the square root, unlike Kingma & Ba's sqrt(v_hat) + eps;
    beta1 = 0.9, beta2 = 0.999 and eps = 1e-8 are fixed; only lr is a setting.

    The optimizer owns the parameter storage: every parameter's values are
    copied into one float64 vector `flat`, and each `p.data` becomes a view
    of its slice, so a step is a few whole-vector ops.  Rebinding a
    parameter's `.data` after the optimizer is built is a ConfigError at
    the next step, since the update would no longer reach it.

    It owns the gradient too: `grad` is a flat vector beside `flat`.
    `zero_grad` zeroes it and makes each `p.grad` a view of that
    parameter's slice, into which `Tensor.backward` adds the leaf's
    gradient in place, and `step` reads the vector as it is.  A `p.grad`
    that the caller rebound is copied into its slice at `step`, and a None
    one reads as zero.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ConfigError("Adam: a parameter is listed twice")
        self.lr = lr
        self.t = 0
        self.flat = np.concatenate([p.data for p in self.params], axis=None) if self.params else np.zeros(0)
        self.grad = np.zeros_like(self.flat)
        self._views, self._grads = [], []
        offset = 0
        for p in self.params:
            p.data = self.flat[offset : offset + p.size].reshape(p.shape)
            self._views.append(p.data)
            self._grads.append(self.grad[offset : offset + p.size].reshape(p.shape))
            offset += p.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._step = np.empty_like(self.flat)
        self._denom = np.empty_like(self.flat)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for p, gview in zip(self.params, self._grads):
            p.grad = gview

    def step(self) -> None:
        self.t += 1
        for i, (p, view, gview) in enumerate(zip(self.params, self._views, self._grads)):
            if p.data is not view:
                raise ConfigError(f"Adam: parameter {i} {p.shape} was rebound after the optimizer was built")
            if p.grad is not gview:
                gview[...] = 0.0 if p.grad is None else p.grad
        if not self.params:
            return
        g = self.grad
        # Same float operations, in the same order, as the per-tensor form
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; p -= lr*m_hat / sqrt(v_hat + eps).
        m, v, step, denom = self.m, self.v, self._step, self._denom
        np.multiply(g, 1 - self.beta1, out=step)
        m *= self.beta1
        m += step
        np.multiply(g, 1 - self.beta2, out=step)
        step *= g
        v *= self.beta2
        v += step
        np.divide(m, 1 - self.beta1**self.t, out=step)
        step *= self.lr
        np.divide(v, 1 - self.beta2**self.t, out=denom)
        denom += self.eps
        np.sqrt(denom, out=denom)
        step /= denom
        self.flat -= step


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    prior: tuple = (0.0, 20.0)  # (lo_db, hi_db) of the uniform training SNR draw
    seed: int = 0
    val_grid: tuple = (1.0, 4.0, 7.0, 10.0, 13.0, 16.0, 19.0)
    val_every: int = 0  # validate every N epochs; 0 disables validation

    def validate(self) -> None:
        if not are_counts([self.epochs, self.batch_size]):
            raise ConfigError(f"epochs {self.epochs!r} and batch_size {self.batch_size!r} must be positive integers")
        if not (isinstance(self.lr, numbers.Real) and 0 < self.lr < np.inf):
            raise ConfigError(f"learning rate {self.lr!r} must be positive and finite")
        if not are_counts([self.val_every], least=0):
            raise ConfigError(f"val_every {self.val_every!r} must be an integer >= 0")
        if self.val_every:
            check_snr_grid(self.val_grid)
        check_seed(self.seed)
        try:
            lo, hi = self.prior
        except (TypeError, ValueError):
            raise ConfigError(f"SNR prior {self.prior!r} must be a pair (lo_db, hi_db)") from None
        if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real) and SNR_FLOOR_DB <= lo <= hi < np.inf):
            raise ConfigError(f"SNR prior [{lo}, {hi}] dB must be finite, lo <= hi, and none below {SNR_FLOOR_DB:g} dB")


def train_step(model: HyperAJSCCModel, xb, labels, omegas, loss_kind: str, optimizer: Adam, rng) -> float:
    if loss_kind not in ("mse", "cross_entropy"):
        raise ConfigError(f"train_step: loss_kind {loss_kind!r} is neither 'mse' nor 'cross_entropy'")
    if np.shape(omegas) != xb.shape[:1]:
        raise ConfigError(f"train_step: SNRs of shape {np.shape(omegas)}, not one per sample of {xb.shape[0]}")
    optimizer.zero_grad()
    x = Tensor(xb)
    out = forward_pipeline(model, x, omegas, rng)
    loss = mse_loss(x, out) if loss_kind == "mse" else cross_entropy_loss(out, labels)
    loss.backward()
    optimizer.step()
    return float(loss.data)


def train(
    model: HyperAJSCCModel,
    dataset: Dataset,
    config: TrainConfig,
    val_dataset: Dataset | None = None,
) -> list[dict]:
    """Epochs of shuffled mini-batches with per-sample condition draws; trains `model` in place.

    Returns one record per epoch: `epoch`, mean batch `loss`, `grad_norm` (the
    mean over the epoch's steps of the L2 norm of the optimizer's flat
    gradient), `wall_s`, and on every `val_every`-th epoch `val_<snr>dB` per
    `val_grid` SNR, the metric `snr_sweep` reports on `val_dataset` with the
    run's seed as noise seed.
    """
    config.validate()
    if dataset.samples.shape[0] == 0:
        raise ConfigError("dataset is empty")
    if config.val_every and (val_dataset is None or val_dataset.samples.shape[0] == 0):
        raise ConfigError(f"val_every = {config.val_every} needs a validation dataset with samples")
    unlabeled = dataset.labels is None or (config.val_every and val_dataset.labels is None)
    if model.config.task == "classification" and unlabeled:
        raise ConfigError("a classification model trains and validates on labeled datasets only")
    ss = np.random.SeedSequence(config.seed)
    s_prior, s_noise = ss.spawn(2)
    rng_prior = np.random.default_rng(s_prior)
    rng_noise = np.random.default_rng(s_noise)
    lo, hi = config.prior

    opt = Adam(model.parameters(), config.lr)
    loss_kind = "mse" if model.config.task == "reconstruction" else "cross_entropy"
    records = []
    step = 0
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        epoch_losses, grad_norms = [], []
        for idx in batches(dataset, config.batch_size, config.seed, epoch):
            xb = dataset.samples[idx]
            labels = [dataset.labels[i] for i in idx] if dataset.labels is not None else None
            omegas = rng_prior.uniform(lo, hi, size=len(idx))
            loss = train_step(model, xb, labels, omegas, loss_kind, opt, rng_noise)
            step += 1
            if not np.isfinite(loss):
                raise NumericAbortError(f"non-finite loss at epoch {epoch}, step {step}")
            epoch_losses.append(loss)
            grad_norms.append(np.linalg.norm(opt.grad))
        record = {"epoch": epoch, "loss": float(np.mean(epoch_losses)), "grad_norm": float(np.mean(grad_norms))}
        if config.val_every and epoch % config.val_every == 0:
            report = snr_sweep(model, val_dataset, config.val_grid, seeds=(config.seed,))
            record.update((f"val_{snr_label(snr)}dB", mean) for snr, mean, _, _ in report.rows)
        record["wall_s"] = time.perf_counter() - t0
        records.append(record)
    return records
