"""Binary checkpoint: magic 'HAJ1', embedded config text, float32 tensors.

Layout (little-endian):
    magic  4s      b"HAJ1"
    u16            format version (1)
    u32            config text length, then UTF-8 bytes
    32s            sha256 digest of the config text
    f64, f64       omega map (gain, offset); load_model checks it against the config
    u32            tensor count
    per tensor:    u16 name length, name bytes, u8 rank, u32 dims..., f32 values

read_checkpoint refuses a file whose tensors hold a NaN or an infinity.

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
from .models import HyperAJSCCModel, build_model

MAGIC = b"HAJ1"
VERSION = 1


def save_checkpoint(path: str, model: HyperAJSCCModel, config_text: str) -> None:
    cfg_bytes = config_text.encode()
    parts = [
        MAGIC,
        struct.pack("<H", VERSION),
        struct.pack("<I", len(cfg_bytes)),
        cfg_bytes,
        hashlib.sha256(cfg_bytes).digest(),
        struct.pack("<dd", model.config.omega_gain, model.config.omega_offset),
    ]
    named = model.named_parameters()
    parts.append(struct.pack("<I", len(named)))
    for name, t in named:
        nb = name.encode()
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", t.data.ndim))
        parts.append(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
        parts.append(t.data.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_checkpoint(path: str) -> tuple[str, tuple[float, float], dict[str, np.ndarray]]:
    """Returns (config_text, (omega_gain, omega_offset), name -> float64 array)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if blob[:4] != MAGIC:
            raise CorruptArtifactError(f"{path}: bad magic {blob[:4]!r}")
        off = 4
        (version,) = struct.unpack_from("<H", blob, off)
        off += 2
        if version != VERSION:
            raise CorruptArtifactError(f"{path}: unsupported version {version}")
        (cfg_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        cfg_bytes = blob[off : off + cfg_len]
        off += cfg_len
        digest = blob[off : off + 32]
        off += 32
        if hashlib.sha256(cfg_bytes).digest() != digest:
            raise CorruptArtifactError(f"{path}: embedded config digest mismatch")
        config_text = cfg_bytes.decode()
        gain, offset = struct.unpack_from("<dd", blob, off)
        off += 16
        (n_tensors,) = struct.unpack_from("<I", blob, off)
        off += 4
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off : off + name_len].decode()
            off += name_len
            (rank,) = struct.unpack_from("<B", blob, off)
            off += 1
            dims = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            count = int(np.prod(dims)) if rank else 1
            values = np.frombuffer(blob, dtype="<f4", count=count, offset=off)
            off += 4 * count
            if not np.isfinite(values).all():
                raise CorruptArtifactError(f"{path}: tensor {name} holds a non-finite value")
            tensors[name] = values.astype(np.float64).reshape(dims)
        if off != len(blob):
            raise CorruptArtifactError(f"{path}: {len(blob) - off} trailing bytes")
    except (struct.error, ValueError, IndexError) as exc:
        raise CorruptArtifactError(f"{path}: truncated or corrupt ({exc})") from None
    return config_text, (gain, offset), tensors


def load_model(path: str, expected_config_text: str | None = None):
    """Rebuild a model from a checkpoint; returns (model, run_config)."""
    config_text, omega_map, tensors = read_checkpoint(path)
    if expected_config_text is not None and expected_config_text != config_text:
        raise CorruptArtifactError(f"{path}: config digest differs from the provided config")
    try:
        run_cfg = parse_run_config(config_text)
    except ConfigError as exc:
        raise CorruptArtifactError(f"{path}: embedded config does not parse ({exc})") from None
    expected_map = (run_cfg.model.omega_gain, run_cfg.model.omega_offset)
    if omega_map != expected_map:
        raise CorruptArtifactError(
            f"{path}: stored omega map {omega_map} differs from the config's {expected_map}"
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
