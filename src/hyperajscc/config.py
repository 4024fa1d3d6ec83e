"""Strict key-value run configuration.

Plain sectioned text: `[section]` headers, `key = value` lines, `#`
comments.  Unknown sections or keys are rejected with the line number, so
typos fail loudly instead of silently using a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import SnrPrior
from .models import LayerSpec, ModelConfig
from .tensor import ACTIVATIONS
from .training import TrainConfig


class ConfigError(ValueError):
    """Config text failed to parse or validate."""


_KNOWN = {
    "model": {
        "task", "input_shape", "bandwidth", "num_classes",
        "omega_lo_db", "omega_hi_db", "encoder", "decoder",
    },
    "data": {"kind", "n_train", "n_val", "seed", "cifar_dir"},
    "train": {
        "epochs", "batch_size", "lr", "beta1", "beta2", "eps",
        "loss", "prior", "seed", "val_grid", "val_every",
    },
    "eval": {"snr_grid", "seeds"},
}


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    data_kind: str = "synthetic-recon"
    n_train: int = 256
    n_val: int = 64
    data_seed: int = 0
    cifar_dir: str = ""
    snr_grid: tuple = tuple(float(s) for s in range(0, 21, 2))
    eval_seeds: tuple = (0,)
    text: str = ""


def _raw_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KNOWN:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return sections


def _parse_shape(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in value.lower().split("x"))
    except ValueError:
        raise ConfigError(f"bad shape {value!r}, expected like 3x8x8") from None


def _parse_layer(item: str) -> LayerSpec:
    tokens = item.split()
    if not tokens:
        raise ConfigError("empty layer descriptor")
    kind = tokens[0]
    if kind == "flatten":
        return LayerSpec("flatten")
    if kind == "reshape":
        if len(tokens) != 2:
            raise ConfigError(f"reshape needs a shape, got {item!r}")
        return LayerSpec("reshape", shape=_parse_shape(tokens[1]))
    if kind not in ("dense", "conv", "deconv", "resblock"):
        raise ConfigError(f"unknown layer kind {kind!r}")
    spec = LayerSpec(kind)
    for tok in tokens[1:]:
        if tok == "hyper":
            spec.hyper = True
        elif tok in ACTIVATIONS:
            spec.act = tok
        elif tok[0] in "oksup" and tok[1:].isdigit():
            val = int(tok[1:])
            attr = {"o": "out", "k": "kernel", "s": "stride", "p": "padding", "u": "upsample"}[tok[0]]
            setattr(spec, attr, val)
        else:
            raise ConfigError(f"bad layer token {tok!r} in {item!r}")
    if spec.out < 1:
        raise ConfigError(f"layer {item!r} needs an output width (oN)")
    return spec


def _parse_layers(value: str) -> list[LayerSpec]:
    return [_parse_layer(item.strip()) for item in value.split("|") if item.strip()]


def _parse_prior(value: str) -> SnrPrior:
    parts = value.split()
    try:
        if parts[0] == "uniform" and len(parts) == 3:
            return SnrPrior("uniform", lo_db=float(parts[1]), hi_db=float(parts[2]))
        if parts[0] == "fixed" and len(parts) == 2:
            return SnrPrior("fixed", value_db=float(parts[1]))
        if parts[0] == "discrete" and len(parts) > 1:
            pairs = [p.split(":") for p in parts[1:]]
            return SnrPrior(
                "discrete",
                values=tuple(float(v) for v, _ in pairs),
                weights=tuple(float(w) for _, w in pairs),
            )
    except (ValueError, IndexError):
        pass
    raise ConfigError(f"bad prior {value!r}; expected 'uniform LO HI', 'fixed V' or 'discrete v:w ...'")


def parse_snr_grid(value: str) -> tuple[float, ...]:
    """'0:20:2' (inclusive range) or a strictly increasing comma list '1,4,7'."""
    value = value.strip()
    is_range = ":" in value
    try:
        nums = [float(p) for p in value.split(":" if is_range else ",")]
    except ValueError:
        raise ConfigError(f"bad snr grid {value!r}, expected LO:HI:STEP or a comma list of dB values") from None
    if not all(map(math.isfinite, nums)):
        raise ConfigError(f"bad snr grid {value!r}: SNRs must be finite")
    if is_range:
        if len(nums) != 3:
            raise ConfigError(f"bad snr grid {value!r}, expected LO:HI:STEP")
        lo, hi, step = nums
        if step <= 0 or hi < lo:
            raise ConfigError(f"bad snr grid {value!r}")
        n = int(round((hi - lo) / step))
        return tuple(lo + i * step for i in range(n + 1))
    if any(b <= a for a, b in zip(nums, nums[1:])):
        raise ConfigError(f"bad snr grid {value!r}: SNRs must be strictly increasing")
    return tuple(nums)


def parse_seeds(value: str) -> tuple[int, ...]:
    """Comma list of non-negative integer noise seeds, e.g. '0,1'."""
    try:
        seeds = tuple(int(p) for p in value.split(","))
    except ValueError:
        raise ConfigError(f"bad seeds {value!r}, expected a comma list of integers") from None
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"bad seeds {value!r}: seeds must be non-negative")
    return seeds


def _get(sec: dict, key: str, cast, default):
    if key not in sec:
        return default
    try:
        return cast(sec[key])
    except ConfigError as exc:
        raise ConfigError(f"{key!r}: {exc}") from None  # keep the parser's own reason
    except (ValueError, TypeError):
        raise ConfigError(f"bad value for {key!r}: {sec[key]!r}") from None


def parse_run_config(text: str) -> RunConfig:
    sections = _raw_sections(text)
    m = sections.get("model", {})
    if "encoder" not in m or "decoder" not in m:
        raise ConfigError("section [model] must define encoder and decoder")
    model = ModelConfig(
        task=_get(m, "task", str, "reconstruction"),
        input_shape=_get(m, "input_shape", _parse_shape, (3, 8, 8)),
        bandwidth=_get(m, "bandwidth", int, 8),
        encoder=_parse_layers(m["encoder"]),
        decoder=_parse_layers(m["decoder"]),
        num_classes=_get(m, "num_classes", int, 0),
        omega_lo_db=_get(m, "omega_lo_db", float, 0.0),
        omega_hi_db=_get(m, "omega_hi_db", float, 20.0),
    )
    t = sections.get("train", {})
    dt = TrainConfig()
    train = TrainConfig(
        epochs=_get(t, "epochs", int, dt.epochs),
        batch_size=_get(t, "batch_size", int, dt.batch_size),
        lr=_get(t, "lr", float, dt.lr),
        beta1=_get(t, "beta1", float, dt.beta1),
        beta2=_get(t, "beta2", float, dt.beta2),
        eps=_get(t, "eps", float, dt.eps),
        loss=_get(t, "loss", str, "mse" if model.task == "reconstruction" else "cross_entropy"),
        prior=_get(t, "prior", _parse_prior, dt.prior),
        seed=_get(t, "seed", int, dt.seed),
        val_grid=_get(t, "val_grid", parse_snr_grid, dt.val_grid),
        val_every=_get(t, "val_every", int, dt.val_every),
    )
    d = sections.get("data", {})
    e = sections.get("eval", {})
    cfg = RunConfig(
        model=model,
        train=train,
        data_kind=_get(d, "kind", str, "synthetic-recon" if model.task == "reconstruction" else "synthetic-class"),
        n_train=_get(d, "n_train", int, 256),
        n_val=_get(d, "n_val", int, 64),
        data_seed=_get(d, "seed", int, 0),
        cifar_dir=_get(d, "cifar_dir", str, ""),
        snr_grid=_get(e, "snr_grid", parse_snr_grid, tuple(float(s) for s in range(0, 21, 2))),
        eval_seeds=_get(e, "seeds", parse_seeds, (0,)),
        text=text,
    )
    if cfg.data_kind not in ("synthetic-recon", "synthetic-class", "cifar10"):
        raise ConfigError(f"unknown data kind {cfg.data_kind!r}")
    try:
        model.validate()
        train.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_datasets(cfg: RunConfig):
    """(train, val) datasets for a run config."""
    from .data import load_cifar10, synthetic_dataset

    if cfg.data_kind == "cifar10":
        return load_cifar10(cfg.cifar_dir)
    kind = "gaussian-blobs-images" if cfg.data_kind == "synthetic-recon" else "pattern-classes"
    k = max(cfg.model.num_classes, 2)
    train = synthetic_dataset(kind, cfg.n_train, cfg.model.input_shape, k, cfg.data_seed)
    val = synthetic_dataset(kind, cfg.n_val, cfg.model.input_shape, k, cfg.data_seed + 1)
    return train, val
