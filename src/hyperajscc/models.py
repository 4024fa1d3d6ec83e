"""Model assembly: encoder -> power normalization -> AWGN -> decoder.

A ModelConfig describes both halves as ordered layer descriptors; widths
are inferred by shape propagation at build time.  With every hyper flag
off, the built model is a plain fixed-condition codec whose outputs do not
depend on omega at all.

The channel SNR in dB is mapped to the layer condition
omega_t = min(gain * snr + offset, 1) once per pass: once per encode or
decode call, and once for both halves of forward_pipeline.  gain =
2 / (hi - lo) and offset = -(hi + lo) / (hi - lo) map the fixed range
OMEGA_LO_DB..OMEGA_HI_DB = 0..20 dB to [-1, 1]; above it, a better channel
is coded as the best one trained for.  Every layer receives omega_t.

ModelConfig.validate, with the _propagate it calls, is the one check of a
model: the parser checks only the text, and the layers check nothing.  A
classification model's class count is the width of its softmax head.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelSymbols, awgn_transmit, check_snr, power_normalize
from .errors import ConfigError, are_counts, check_seed
from .layers import Conv2dLayer, DenseLayer, HyperLayer, HyperScale, Reshape, ResNetBlock
from .tensor import ACTIVATIONS, Tensor
from . import tensor as T

# the SNR range in dB that omega_t maps to [-1, 1]; a checkpoint stores the gain and offset
OMEGA_LO_DB, OMEGA_HI_DB = 0.0, 20.0
_OMEGA_GAIN = 2.0 / (OMEGA_HI_DB - OMEGA_LO_DB)
_OMEGA_OFFSET = -(OMEGA_HI_DB + OMEGA_LO_DB) / (OMEGA_HI_DB - OMEGA_LO_DB)


@dataclass
class LayerSpec:
    """One encoder/decoder layer descriptor; each kind reads only some fields.

    dense: out (width), act, hyper
    conv: out (channels), kernel, stride, padding, act, hyper
    deconv: out, kernel, padding, upsample, act, hyper (a deconv takes no stride)
    resblock: out, kernel (odd; its convs pad by kernel // 2), act, hyper
    flatten: none
    reshape: shape, the target (C, H, W)
    """

    kind: str
    out: int = 0
    kernel: int = 3
    stride: int = 1
    padding: int = 0
    upsample: int = 1
    act: str = "linear"
    hyper: bool = False
    shape: tuple = ()  # reshape target (C, H, W)


@dataclass
class ModelConfig:
    task: str  # reconstruction | classification
    input_shape: tuple[int, int, int]  # (C, H, W)
    bandwidth: int  # d complex symbols
    encoder: list[LayerSpec]
    decoder: list[LayerSpec]

    @property
    def n(self) -> int:
        return int(np.prod(self.input_shape))

    def validate(self) -> None:
        if self.task not in ("reconstruction", "classification"):
            raise ConfigError(f"unknown task: {self.task!r}")
        if not (are_counts(self.input_shape) and len(self.input_shape) == 3):
            raise ConfigError(f"input shape must be CxHxW with positive sizes, got {self.input_shape!r}")
        if not are_counts([self.bandwidth]):
            raise ConfigError(f"bandwidth must be a positive integer, got {self.bandwidth!r}")
        enc_out = _propagate(self.input_shape, self.encoder, "encoder")
        acting = [(i, s) for i, s in enumerate(self.encoder) if s.kind not in ("flatten", "reshape")]
        if acting:
            i, s = acting[-1]
            if s.act == "relu":
                # a relu can zero a whole symbol row, which power normalization cannot scale
                raise ConfigError(f"encoder[{i}] ({s.kind}): the last encoder activation cannot be relu")
            if s.hyper and s.kind in ("conv", "deconv") and s.out == 1 and s.act == "linear":
                # its s is one scalar per sample, which power normalization divides out: nu and c never learn
                raise ConfigError(
                    f"encoder[{i}] ({s.kind}): a hyper last layer with one channel and a linear activation"
                    " has a scale that power normalization cancels"
                )
        if int(np.prod(enc_out)) != 2 * self.bandwidth:
            raise ConfigError(
                f"encoder output width {int(np.prod(enc_out))} != 2*d = {2 * self.bandwidth}"
            )
        dec_out = _propagate((2 * self.bandwidth,), self.decoder, "decoder")
        if self.task == "reconstruction":
            # a flat decoder output of width n is reshaped to the image in decode()
            if tuple(dec_out) != tuple(self.input_shape) and dec_out != (self.n,):
                raise ConfigError(
                    f"decoder output shape {dec_out} != input shape {self.input_shape}"
                )
        elif not self.decoder or self.decoder[-1].act != "softmax" or dec_out[0] < 2:
            # cross-entropy reads the output as probabilities over its width, the class count;
            # softmax is a dense layer's activation only, so that width is decoder[-1].out
            raise ConfigError(
                f"a classification decoder must end in a softmax layer with at least 2 outputs, got {dec_out}"
            )


def _propagate(shape, specs: list[LayerSpec], half: str):
    """Infer the output shape of a layer stack, checking every layer's fields; errors name the layer."""
    cur = tuple(shape)
    for i, s in enumerate(specs):
        where = f"{half}[{i}] ({s.kind})"
        if s.act == "softmax" and s.kind != "dense":  # it would normalize each image row over W
            raise ConfigError(f"{where}: softmax is a dense layer's activation only")
        if s.kind in ("dense", "conv", "deconv", "resblock"):
            if not (are_counts([s.out, s.kernel, s.stride, s.upsample]) and are_counts([s.padding], least=0)):
                raise ConfigError(
                    f"{where}: o, k, s and u must be positive and p >= 0, all integers,"
                    f" got o{s.out!r} k{s.kernel!r} s{s.stride!r} p{s.padding!r} u{s.upsample!r}"
                )
            if s.act not in ACTIVATIONS:
                raise ConfigError(f"{where}: unknown activation {s.act!r}")
            if not isinstance(s.hyper, bool):  # any truthy value would build a scale
                raise ConfigError(f"{where}: hyper must be True or False, got {s.hyper!r}")
            if (s.kind == "deconv" and s.stride != 1) or (s.kind == "conv" and s.upsample != 1):
                # a deconv is computed over its input's real pixels (tensor.upconv2d), with no stride of its own
                raise ConfigError(
                    f"{where}: a conv takes no upsample and a deconv no stride, got s{s.stride} u{s.upsample}"
                )
        if s.kind == "dense":
            if len(cur) != 1:
                raise ConfigError(f"{where}: dense needs a flat input, got {cur}")
            cur = (s.out,)
        elif s.kind in ("conv", "deconv"):
            if len(cur) != 3:
                raise ConfigError(f"{where}: conv needs [C,H,W] input, got {cur}")
            h, w = cur[1] * s.upsample, cur[2] * s.upsample  # 1 unless deconv
            cur = (s.out, *T.conv_output_size(where, h, w, s.kernel, s.kernel, s.stride, s.padding))
        elif s.kind == "resblock":
            if len(cur) != 3:
                raise ConfigError(f"{where}: resblock needs [C,H,W] input, got {cur}")
            if s.kernel % 2 == 0:  # its convs pad by k//2, which keeps H and W only for an odd k
                raise ConfigError(f"{where}: resblock needs an odd kernel, got k{s.kernel}")
            cur = (s.out, cur[1], cur[2])
        elif s.kind == "flatten":
            cur = (int(np.prod(cur)),)
        elif s.kind == "reshape":
            if not are_counts(s.shape):
                raise ConfigError(f"{where}: a reshape target needs integer positive sizes, got {s.shape!r}")
            if int(np.prod(s.shape)) != int(np.prod(cur)):
                raise ConfigError(f"{where}: cannot reshape {cur} into {s.shape}")
            cur = tuple(s.shape)
        else:
            raise ConfigError(f"{where}: unknown layer kind")
    return cur


def build_layer(spec: LayerSpec, c_in: int, rng: np.random.Generator) -> HyperLayer | ResNetBlock:
    """A dense, conv, deconv or resblock layer over c_in input channels (a dense layer's input width).

    Weights are He-uniform over the fan-in, biases 0, and a hyper layer's scale
    starts at nu=0, c=1.  A resblock draws conv1, conv2, then the 1x1 skip
    projection, which it has only when c_in != spec.out.
    """
    if spec.kind == "resblock":
        conv = replace(spec, kind="conv", stride=1, padding=spec.kernel // 2, upsample=1)
        conv1 = build_layer(conv, c_in, rng)
        conv2 = build_layer(replace(conv, act="linear"), spec.out, rng)
        skip = None
        if c_in != spec.out:
            skip = build_layer(replace(conv, kernel=1, padding=0, act="linear"), c_in, rng)
        return ResNetBlock(conv1, conv2, skip, spec.act)
    shape = (spec.out, c_in) if spec.kind == "dense" else (spec.out, c_in, spec.kernel, spec.kernel)
    bound = np.sqrt(6.0 / int(np.prod(shape[1:])))
    w0 = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
    b0 = Tensor(np.zeros(spec.out), requires_grad=True)
    if spec.kind == "dense":
        base = DenseLayer(w0, b0, spec.act)
    else:
        base = Conv2dLayer(w0, b0, spec.stride, spec.padding, spec.upsample, spec.act)
    return HyperLayer(base, HyperScale.identity(spec.out) if spec.hyper else None)


class HyperAJSCCModel:
    """Built encoder/decoder pair with shared condition conditioning."""

    def __init__(self, encoder, decoder, config: ModelConfig):
        self.encoder = encoder
        self.decoder = decoder
        self.config = config

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for half, layers_ in (("enc", self.encoder), ("dec", self.decoder)):
            for i, layer in enumerate(layers_):
                for name, t in layer.named_params():
                    out.append((f"{half}.{i}.{name}", t))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def _build_stack(shape, specs: list[LayerSpec], rng, half: str):
    built = []
    cur = tuple(shape)
    for s in specs:
        nxt = _propagate(cur, [s], half)
        built.append(Reshape(nxt) if s.kind in ("flatten", "reshape") else build_layer(s, cur[0], rng))
        cur = nxt
    return built


def build_model(config: ModelConfig, seed: int = 0) -> HyperAJSCCModel:
    """Initialize a model: He-uniform weights, zero biases, nu=0, c=1."""
    config.validate()
    rng = np.random.default_rng(check_seed(seed))
    encoder = _build_stack(config.input_shape, config.encoder, rng, "encoder")
    decoder = _build_stack((2 * config.bandwidth,), config.decoder, rng, "decoder")
    return HyperAJSCCModel(encoder, decoder, config)


def _omega_t(omega_db) -> np.ndarray:
    """SNR in dB -> mapped condition omega_t, at most 1: 0-d for one SNR, [B] for one per sample.

    A 0-d omega_t is one condition for the whole batch.  Inside no_tape()
    each scaled layer folds it into its weights (tensor._fold); on the
    tape it runs as omega_t repeated to [B] (tensor._head).
    """
    return np.minimum(_OMEGA_GAIN * np.asarray(omega_db, dtype=np.float64) + _OMEGA_OFFSET, 1.0)


def encode(model: HyperAJSCCModel, x: Tensor, omega_db) -> ChannelSymbols:
    """Run the encoder stack and power-normalize into d complex symbols; omega_db must pass check_snr."""
    return _encode(model, x, check_snr(omega_db))[0]


def _encode(model: HyperAJSCCModel, x: Tensor, omega_db) -> tuple[ChannelSymbols, np.ndarray]:
    """encode, and the omega_t it mapped omega_db to, which the same pass's decoder reuses."""
    cfg = model.config
    shape = x.data.shape
    expected = shape[:1] + tuple(cfg.input_shape)
    if shape != expected:
        raise ConfigError(f"encode: input {shape}, expected {expected}")
    omega_t = _omega_t(omega_db)
    f = x
    for layer in model.encoder:
        f = layer.forward(f, omega_t)
    if f.data.ndim > 2:
        f = T.reshape(f, (shape[0], f.data.size // shape[0]))
    if f.data.shape[1] != 2 * cfg.bandwidth:
        raise ConfigError(f"encoder produced width {f.data.shape[1]}, expected {2 * cfg.bandwidth}")
    return power_normalize(f), omega_t


def decode(model: HyperAJSCCModel, z_hat: Tensor, omega_db) -> Tensor:
    """Run the decoder stack on z_hat [B, 2d]; omega_db must pass check_snr."""
    cfg = model.config
    shape = z_hat.data.shape
    if len(shape) != 2 or shape[1] != 2 * cfg.bandwidth:
        raise ConfigError(f"decode: input {shape}, expected [batch, {2 * cfg.bandwidth}]")
    return _decode(model, z_hat, _omega_t(check_snr(omega_db)))


def _decode(model: HyperAJSCCModel, z_hat: Tensor, omega_t: np.ndarray) -> Tensor:
    """decode at an already mapped omega_t (0-d or [B]), of a z_hat [B, 2d]."""
    f = z_hat
    for layer in model.decoder:
        f = layer.forward(f, omega_t)
    if model.config.task == "reconstruction" and f.data.ndim == 2:
        f = T.reshape(f, f.data.shape[:1] + tuple(model.config.input_shape))
    return f


def forward_pipeline(model: HyperAJSCCModel, x: Tensor, omega_db, rng: np.random.Generator) -> Tensor:
    """encode -> AWGN at omega -> decode, on one tape, mapping the SNR once. Returns the decoder output.

    It does not check omega_db: it is the inner loop of training and of a
    sweep, whose callers have checked it (train's prior, check_snr_grid).
    """
    symbols, omega_t = _encode(model, x, omega_db)
    return _decode(model, awgn_transmit(symbols, omega_db, rng), omega_t)


def count_params(model: HyperAJSCCModel) -> dict:
    """Parameter accounting: base vs introduced counts and 32-bit storage.

    The scale vectors (parameters named nu and c) are the introduced ones.
    Each row is one config layer, (enc.i or dec.i, its kind, base, introduced),
    summed over the parameters whose names start with its prefix.
    """
    sizes: dict[str, list[int]] = {}
    for name, t in model.named_parameters():
        half, i, *_, leaf = name.split(".")
        row = sizes.setdefault(f"{half}.{i}", [0, 0])  # [base, introduced]
        row[leaf in ("nu", "c")] += t.size
    per_layer = [
        (f"{half}.{i}", spec.kind, *sizes.get(f"{half}.{i}", (0, 0)))
        for half, specs in (("enc", model.config.encoder), ("dec", model.config.decoder))
        for i, spec in enumerate(specs)
    ]
    total_base = sum(row[2] for row in per_layer)
    total_intro = sum(row[3] for row in per_layer)
    return {
        "per_layer": per_layer,
        "total_base": total_base,
        "total_introduced": total_intro,
        "bytes_at_32bit": 4 * (total_base + total_intro),
        "introduced_bytes_at_32bit": 4 * total_intro,
    }


def compression_ratio(config: ModelConfig) -> float:
    """R = d/n: channel bandwidth over source dimension."""
    if config.n <= 0:
        raise ConfigError("source dimension must be positive")
    return config.bandwidth / config.n
