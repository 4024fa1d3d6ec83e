"""Complex AWGN channel: power normalization and noisy transmission.

Symbols live as interleaved real pairs: a [B, 2d] row holds d complex
symbols (re0, im0, re1, im1, ...).  After normalization each row has unit
average complex-symbol power, so SNR omega (dB) maps to a per-complex-symbol
noise variance sigma^2 = 10^(-omega/10), i.e. sigma^2/2 per real component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericAbortError
from .tensor import Tensor, _make

# Above this SNR the channel is treated as exactly noiseless.
SNR_CAP_DB = 40.0
# The lowest SNR a run or sweep accepts: noise power 10^10 times the signal's.
# Far below it (about -3080 dB) sigma^2 overflows to inf.
SNR_FLOOR_DB = -100.0


def check_snr(omega_db) -> np.ndarray:
    """omega_db, one SNR in dB or an array of them, as float64; a ConfigError unless each is a number >= SNR_FLOOR_DB.

    A NaN codes to NaN symbols, and an SNR far below the floor overflows
    the noise variance.  encode, decode and metrics.check_snr_grid apply it.
    """
    try:  # same_kind refuses None, strings and other objects, which float64 would turn into NaN or parse
        snr = np.asarray(omega_db).astype(np.float64, copy=False, casting="same_kind")
    except (TypeError, ValueError):  # a ValueError: a ragged list
        raise ConfigError("SNRs must be numbers") from None
    if not ((SNR_FLOOR_DB <= snr) & (snr < np.inf)).all():  # a NaN fails both
        raise ConfigError(f"SNRs must be finite numbers, none below {SNR_FLOOR_DB:g} dB")
    return snr


@dataclass
class ChannelSymbols:
    """Power-normalized channel input: d complex symbols per row."""

    values: Tensor  # [B, 2d]
    d: int


def snr_to_sigma2(omega_db):
    """Noise variance per complex symbol under unit signal power."""
    om = np.asarray(omega_db, dtype=np.float64)
    sigma2 = np.where(om >= SNR_CAP_DB, 0.0, 10.0 ** (-om / 10.0))
    return float(sigma2) if sigma2.ndim == 0 else sigma2


def power_normalize(z_raw: Tensor) -> ChannelSymbols:
    """Scale each row by sqrt(d)/||z|| so average complex power is exactly 1.

    Differentiable: the gradient flows through the norm.
    """
    zd = z_raw.data
    if zd.ndim != 2 or zd.shape[1] % 2:
        raise ConfigError(f"power_normalize expects [batch, 2d] input, got {zd.shape}")
    d = zd.shape[1] // 2
    norms = np.sqrt(np.add.reduce(zd * zd, axis=1))  # np.linalg.norm(zd, axis=1), without its dispatch
    if not norms.all():  # a NaN row is nonzero and passes through
        raise NumericAbortError("all-zero symbol row cannot be power-normalized")
    factor = math.sqrt(d) / norms
    out = zd * factor[:, None]

    def backward(g):
        # dz = sqrt(d)/||z|| * (g - (g.z) z / ||z||^2), per row
        inner = (g * zd).sum(axis=1)
        dz = factor[:, None] * (g - (inner / norms**2)[:, None] * zd)
        return [(z_raw, dz)]

    return ChannelSymbols(_make(out, (z_raw,), backward), d)


def awgn_transmit(symbols: ChannelSymbols, omega_db, rng: np.random.Generator) -> Tensor:
    """z_hat = z + eps with per-real-component variance sigma^2/2.

    omega_db is a scalar or one value per row.  The noise is a constant in
    backward (reparameterization): gradients pass through z unchanged.
    """
    z = symbols.values
    sigma2 = np.atleast_1d(np.asarray(snr_to_sigma2(omega_db), dtype=np.float64))
    shape = z.data.shape
    if sigma2.size not in (1, shape[0]):
        raise ConfigError(f"awgn_transmit: {sigma2.size} conditions for batch of {shape[0]}")
    noise = rng.standard_normal(shape) * np.sqrt(sigma2 / 2.0)[:, None]
    return _make(z.data + noise, (z,), lambda g: [(z, g)])

