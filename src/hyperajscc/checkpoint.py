"""Binary checkpoint: magic 'HAJ1', embedded config text, float32 tensors, file digest.

Layout, format version 2 (little-endian):
    magic  4s      b"HAJ1"
    u16            format version (2)
    u32            config text length, then UTF-8 bytes
    f64, f64       omega map (gain, offset); load_model checks it against models._OMEGA_GAIN, _OMEGA_OFFSET
    u32            tensor count
    per tensor:    u16 name length, name bytes, u8 rank, u32 dims..., f32 values
    32s            sha256 of every byte before it

read_checkpoint reads the magic and the version, then checks the digest
before it parses anything else, so a flipped bit anywhere is refused.  It
also refuses a file whose tensors hold a NaN or an infinity.  Version 1,
which digested only the config text, is refused as unsupported.

Parameters are stored as float32 (4 bytes each) even though compute is
float64; load_model widens them back.  So a reloaded model is the trained
model with every parameter rounded to float32: its outputs (and a sweep of
it) equal those of the trained model after that rounding, bit for bit, not
those of the float64 original.  save -> load -> save is byte-identical.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .config import parse_run_config
from .errors import ConfigError, CorruptArtifactError
from .models import _OMEGA_GAIN, _OMEGA_OFFSET, HyperAJSCCModel, build_model

MAGIC = b"HAJ1"
VERSION = 2


def save_checkpoint(path: str, model: HyperAJSCCModel, config_text: str) -> None:
    cfg_bytes = config_text.encode()
    named = model.named_parameters()
    parts = [
        MAGIC,
        struct.pack("<HI", VERSION, len(cfg_bytes)),
        cfg_bytes,
        struct.pack("<ddI", _OMEGA_GAIN, _OMEGA_OFFSET, len(named)),
    ]
    for name, t in named:
        nb = name.encode()
        shape = struct.pack(f"<B{t.data.ndim}I", t.data.ndim, *t.data.shape)
        parts += [struct.pack("<H", len(nb)), nb, shape, t.data.astype("<f4").tobytes()]
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())


class _Cursor:
    """Reads consecutive little-endian fields; a read past the end raises struct.error or ValueError."""

    def __init__(self, blob, off: int):
        self.blob, self.off = blob, off

    def take(self, fmt: str) -> tuple:
        values = struct.unpack_from("<" + fmt, self.blob, self.off)
        self.off += struct.calcsize("<" + fmt)
        return values

    def floats(self, count: int) -> np.ndarray:
        values = np.frombuffer(self.blob, dtype="<f4", count=count, offset=self.off)
        self.off += 4 * count
        return values


def read_checkpoint(path: str) -> tuple[str, tuple[float, float], dict[str, np.ndarray]]:
    """Returns (config_text, (omega gain, omega offset), name -> float64 array)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if blob[:4] != MAGIC:
            raise CorruptArtifactError(f"{path}: bad magic {blob[:4]!r}")
        (version,) = struct.unpack_from("<H", blob, 4)
        if version != VERSION:
            raise CorruptArtifactError(f"{path}: unsupported version {version}")
        body, digest = memoryview(blob)[:-32], blob[-32:]
        if hashlib.sha256(body).digest() != digest:
            raise CorruptArtifactError(f"{path}: file digest mismatch")
        cur = _Cursor(body, 6)
        (cfg_len,) = cur.take("I")
        config_text = cur.take(f"{cfg_len}s")[0].decode()
        gain, offset, n_tensors = cur.take("ddI")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = cur.take("H")
            name = cur.take(f"{name_len}s")[0].decode()
            (rank,) = cur.take("B")
            dims = cur.take(f"{rank}I")
            values = cur.floats(int(np.prod(dims)))
            if not np.isfinite(values).all():
                raise CorruptArtifactError(f"{path}: tensor {name} holds a non-finite value")
            tensors[name] = values.astype(np.float64).reshape(dims)
        if cur.off != len(body):
            raise CorruptArtifactError(f"{path}: {len(body) - cur.off} trailing bytes")
    except (struct.error, ValueError, IndexError) as exc:
        raise CorruptArtifactError(f"{path}: truncated or corrupt ({exc})") from None
    return config_text, (gain, offset), tensors


def load_model(path: str, expected_config_text: str | None = None):
    """Rebuild a model from a checkpoint; returns (model, run_config)."""
    config_text, omega_map, tensors = read_checkpoint(path)
    if expected_config_text is not None and expected_config_text != config_text:
        raise CorruptArtifactError(f"{path}: embedded config differs from the provided config")
    try:
        run_cfg = parse_run_config(config_text)
    except ConfigError as exc:
        raise CorruptArtifactError(f"{path}: embedded config does not parse ({exc})") from None
    if omega_map != (_OMEGA_GAIN, _OMEGA_OFFSET):
        raise CorruptArtifactError(
            f"{path}: stored omega map {omega_map} differs from the model's {(_OMEGA_GAIN, _OMEGA_OFFSET)}"
        )
    model = build_model(run_cfg.model, seed=run_cfg.train.seed)
    named = dict(model.named_parameters())
    if set(named) != set(tensors):
        raise CorruptArtifactError(f"{path}: tensor table does not match the architecture")
    for name, values in tensors.items():
        if named[name].shape != values.shape:
            raise CorruptArtifactError(f"{path}: tensor {name} has shape {values.shape}, expected {named[name].shape}")
        named[name].data = values
    return model, run_cfg
