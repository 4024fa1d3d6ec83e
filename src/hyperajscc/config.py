"""Strict key-value run configuration.

Plain sectioned text: `[section]` headers, `key = value` lines, `#`
comments.  Unknown sections or keys are rejected with the line number, so
typos fail loudly instead of silently using a default.  A key that is left
out keeps the default of the dataclass field it sets; [model] task,
input_shape, bandwidth, encoder and decoder have none and are required.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .channel import SNR_FLOOR_DB
from .data import load_cifar10, synthetic_dataset
from .errors import ConfigError
from .metrics import check_snr_grid
from .models import LayerSpec, ModelConfig
from .tensor import ACTIVATIONS
from .training import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    data_kind: str  # synthetic-recon | synthetic-class | cifar10
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
            if current not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return sections


def _parse_shape(value: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(p) for p in value.lower().split("x"))
    except ValueError:
        raise ConfigError(f"bad shape {value!r}, expected like 3x8x8") from None
    if any(dim < 1 for dim in shape):
        raise ConfigError(f"bad shape {value!r}: sizes must be positive")
    return shape


# the numeric tokens each layer kind reads; every other one is an error
_LAYER_NUMBERS = {"dense": "o", "conv": "oksp", "deconv": "okup", "resblock": "ok"}
_NUMBER_FIELDS = {"o": "out", "k": "kernel", "s": "stride", "p": "padding", "u": "upsample"}


def _parse_layer(item: str) -> LayerSpec:
    kind, *tokens = item.split()
    if kind == "flatten":
        if tokens:
            raise ConfigError(f"flatten takes no tokens, got {item!r}")
        return LayerSpec("flatten")
    if kind == "reshape":
        if len(tokens) != 1:
            raise ConfigError(f"reshape needs a shape, got {item!r}")
        return LayerSpec("reshape", shape=_parse_shape(tokens[0]))
    if kind not in _LAYER_NUMBERS:
        raise ConfigError(f"unknown layer kind {kind!r}")
    spec, seen = LayerSpec(kind), set()
    for tok in tokens:
        if tok == "hyper":
            field, value = "hyper", True
        elif tok in ACTIVATIONS:
            field, value = "act", tok
        elif tok[0] in _LAYER_NUMBERS[kind] and tok[1:].isdecimal():
            field, value = _NUMBER_FIELDS[tok[0]], int(tok[1:])
        else:
            raise ConfigError(f"bad layer token {tok!r} in {item!r}")
        if field in seen:
            raise ConfigError(f"layer {item!r} sets {field} twice ({tok!r})")
        seen.add(field)
        setattr(spec, field, value)
    if spec.out < 1:
        raise ConfigError(f"layer {item!r} needs an output width (oN)")
    if min(spec.kernel, spec.stride, spec.upsample) < 1:
        raise ConfigError(f"layer {item!r}: k, s and u must be positive")
    return spec


def _parse_layers(value: str) -> list[LayerSpec]:
    return [_parse_layer(item.strip()) for item in value.split("|") if item.strip()]


def _parse_prior(value: str) -> tuple[float, float]:
    """'uniform LO HI' -> (LO, HI); 'fixed V' -> (V, V), a range of width zero."""
    parts = value.split()
    try:
        if parts[0] == "uniform" and len(parts) == 3:
            prior = float(parts[1]), float(parts[2])
        elif parts[0] == "fixed" and len(parts) == 2:
            prior = float(parts[1]), float(parts[1])
        else:
            raise ValueError
    except (ValueError, IndexError):
        raise ConfigError(f"bad prior {value!r}; expected 'uniform LO HI' or 'fixed V'") from None
    if min(prior) < SNR_FLOOR_DB:
        raise ConfigError(f"bad prior {value!r}: SNRs below {SNR_FLOOR_DB:g} dB are not supported")
    return prior


# the largest grid a sweep or validation accepts; the grids in use have 11 points
MAX_SNR_POINTS = 1000


def parse_snr_grid(value: str) -> tuple[float, ...]:
    """'0:20:2' (inclusive range) or a strictly increasing comma list '1,4,7'."""
    value = value.strip()
    is_range = ":" in value
    try:
        nums = [float(p) for p in value.split(":" if is_range else ",")]
    except ValueError:
        raise ConfigError(f"bad snr grid {value!r}, expected LO:HI:STEP or a comma list of dB values") from None
    if is_range:
        if len(nums) != 3:
            raise ConfigError(f"bad snr grid {value!r}, expected LO:HI:STEP")
        lo, hi, step = nums
        if not all(map(math.isfinite, nums)) or step <= 0 or hi < lo:
            raise ConfigError(f"bad snr grid {value!r}")
        steps = (hi - lo) / step  # may be inf, so checked before the grid is built
        if steps >= MAX_SNR_POINTS:
            raise ConfigError(f"bad snr grid {value!r}: more than {MAX_SNR_POINTS} points")
        # the last point is at or below hi; the tolerance keeps 0:0.3:0.1's 0.3
        nums = [lo + i * step for i in range(math.floor(steps * (1 + 1e-9)) + 1)]
    if len(nums) > MAX_SNR_POINTS:
        raise ConfigError(f"bad snr grid {value!r}: more than {MAX_SNR_POINTS} points")
    try:
        # a range too fine for its magnitude rounds to repeated values
        return tuple(check_snr_grid(nums))
    except ConfigError as exc:
        raise ConfigError(f"bad snr grid {value!r}: {exc}") from None


def parse_seed(value: str) -> int:
    """One non-negative integer seed, e.g. '7'."""
    try:
        seed = int(value)
    except ValueError:
        raise ConfigError(f"bad seed {value!r}, expected a non-negative integer") from None
    if seed < 0:
        raise ConfigError(f"bad seed {value!r}: seeds must be non-negative")
    return seed


def parse_seeds(value: str) -> tuple[int, ...]:
    """Comma list of non-negative integer noise seeds, e.g. '0,1'."""
    return tuple(parse_seed(p) for p in value.split(","))


# [section] -> key -> (field it sets, value parser).  A key left out keeps
# its field's dataclass default: ModelConfig for [model], TrainConfig for
# [train], RunConfig for [data] and [eval].
_KEYS = {
    "model": {
        "task": ("task", str), "input_shape": ("input_shape", _parse_shape), "bandwidth": ("bandwidth", int),
        "num_classes": ("num_classes", int), "omega_lo_db": ("omega_lo_db", float),
        "omega_hi_db": ("omega_hi_db", float), "encoder": ("encoder", _parse_layers),
        "decoder": ("decoder", _parse_layers),
    },
    "data": {
        "kind": ("data_kind", str), "n_train": ("n_train", int), "n_val": ("n_val", int),
        "seed": ("data_seed", parse_seed), "cifar_dir": ("cifar_dir", str),
    },
    "train": {
        "epochs": ("epochs", int), "batch_size": ("batch_size", int), "lr": ("lr", float),
        "prior": ("prior", _parse_prior), "seed": ("seed", parse_seed), "val_grid": ("val_grid", parse_snr_grid),
        "val_every": ("val_every", int),
    },
    "eval": {"snr_grid": ("snr_grid", parse_snr_grid), "seeds": ("eval_seeds", parse_seeds)},
}

_SYNTHETIC_KIND = {"reconstruction": "synthetic-recon", "classification": "synthetic-class"}


def _section(sections: dict, name: str) -> dict:
    """Field name -> parsed value for the keys one section sets."""
    out = {}
    for key, value in sections.get(name, {}).items():
        field_name, parse = _KEYS[name][key]
        try:
            out[field_name] = parse(value)
        except ConfigError as exc:
            raise ConfigError(f"{key!r}: {exc}") from None  # keep the parser's own reason
        except (ValueError, TypeError):
            raise ConfigError(f"bad value for {key!r}: {value!r}") from None
    return out


def parse_run_config(text: str) -> RunConfig:
    sections = _raw_sections(text)
    m = _section(sections, "model")
    # [model] keys are named after their fields
    missing = [
        f.name for f in fields(ModelConfig)
        if f.default is MISSING and f.default_factory is MISSING and f.name not in m
    ]
    if missing:
        raise ConfigError(f"section [model] must define {', '.join(missing)}")
    model = ModelConfig(**m)
    train = TrainConfig(**_section(sections, "train"))
    model.validate()
    train.validate()
    run = {"data_kind": _SYNTHETIC_KIND[model.task], **_section(sections, "data"), **_section(sections, "eval")}
    cfg = RunConfig(model=model, train=train, text=text, **run)
    if cfg.data_kind not in ("cifar10", _SYNTHETIC_KIND[model.task]):
        raise ConfigError(
            f"data kind {cfg.data_kind!r}: expected cifar10 or {_SYNTHETIC_KIND[model.task]} for task {model.task!r}"
        )
    return cfg


def load_datasets(cfg: RunConfig):
    """(train, val) datasets for a run config."""
    if cfg.data_kind == "cifar10":
        return load_cifar10(cfg.cifar_dir)
    kind = "gaussian-blobs-images" if cfg.data_kind == "synthetic-recon" else "pattern-classes"
    k = max(cfg.model.num_classes, 2)
    train = synthetic_dataset(kind, cfg.n_train, cfg.model.input_shape, k, cfg.data_seed)
    val = synthetic_dataset(kind, cfg.n_val, cfg.model.input_shape, k, cfg.data_seed + 1)
    return train, val
