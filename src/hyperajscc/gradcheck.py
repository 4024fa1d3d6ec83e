"""Finite-difference verification suite: tape gradients against central differences.

Each check builds a small random problem, reduces it to a scalar, and
compares tape gradients against central differences.  The checks are a
fixed list, not a registry of ops:
- ops: matmul, linear, mul, add and sub, scale_rowwise, mul_rowvec,
  scale_channels (2-d and 4-d), affine_outer, relu, tanh, sigmoid, softmax
  under cross_entropy_loss, conv2d (stride 1, stride 2, a 3x2 kernel at
  stride 2 and on a 2x2 map), upconv2d (a 3x3 and a 2x3 kernel),
  power_normalize, mse_loss and tmean;
- layers: a resblock, and a dense layer, a conv layer on a 3x3 and on a
  4x4 map and a deconv layer, its bias off zero, for every activation in
  CONV_ACTIVATIONS twice: with a scale whose nu and c are off the
  identity, at one condition per sample (omega_t [B]), and without a
  scale; and a dense softmax with a scale under cross_entropy_loss.
  conv2d runs a map no larger than its kernel window as one dense GEMM
  and a larger one on its taps: conv2d_s2, conv2d_2x2_k3x2 and the conv
  layer on a 3x3 map take the dense path; the other conv2d cases, the
  4x4 conv layer and the resblock take the taps.  A 0-d condition on the
  tape runs the same per-sample path, and an op folds one into its
  weights only inside no_tape(), where no gradient exists to check;
- the end-to-end training objective of a tiny model with frozen noise.
tsum (as most cases' reduction) and reshape (in the model's flatten) are
checked only inside other cases; scale and upsample_zero have no case.  Inputs
for relu checks are nudged away from the kink at 0, and a relu layer's
draw is repeated until its pre-activations are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .channel import power_normalize
from .models import LayerSpec, ModelConfig, build_layer, build_model, forward_pipeline
from .tensor import Tensor, finite_diff_check
from .training import cross_entropy_loss, mse_loss

DEFAULT_TOL = 1e-5


@dataclass
class CheckResult:
    op: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < DEFAULT_TOL


def _param(rng, *shape, away_from_zero=False):
    data = rng.uniform(-1.0, 1.0, size=shape)
    if away_from_zero:
        data = np.where(np.abs(data) < 0.2, np.sign(data) * 0.2 + data, data)
    return Tensor(data, requires_grad=True)


def _checks(rng: np.random.Generator, cases: int):
    """Yields (name, loss_builder, params) problems."""
    for i in range(cases):
        a = _param(rng, 2, 3)
        b = _param(rng, 3, 2)
        yield "matmul", (lambda a=a, b=b: T.tsum(T.matmul(a, b))), [a, b]

        x = _param(rng, 3, 4)
        w = _param(rng, 2, 4)
        bias = _param(rng, 2)
        yield "linear", (lambda x=x, w=w, bias=bias: T.tsum(T.tanh(T.linear(x, w, bias)))), [x, w, bias]

        p = _param(rng, 2, 3)
        q = _param(rng, 2, 3)
        yield "mul", (lambda p=p, q=q: T.tsum(T.mul(p, q))), [p, q]
        yield "add_sub", (lambda p=p, q=q: T.tsum(T.mul(T.add(p, q), T.sub(p, q)))), [p, q]

        v = _param(rng, 2)
        yield "scale_rowwise", (lambda p=p, v=v: T.tsum(T.tanh(T.scale_rowwise(p, v)))), [p, v]

        rv = _param(rng, 3)
        yield "mul_rowvec", (lambda p=p, rv=rv: T.tsum(T.tanh(T.mul_rowvec(p, rv)))), [p, rv]

        xc = _param(rng, 2, 3, 4, 4)
        sb = _param(rng, 2, 3)
        yield "scale_channels_2d", (lambda p=p, sb=sb: T.tsum(T.tanh(T.scale_channels(p, sb)))), [p, sb]
        yield "scale_channels_4d", (lambda xc=xc, sb=sb: T.tsum(T.tanh(T.scale_channels(xc, sb)))), [xc, sb]

        om = rng.uniform(-1, 1, size=4)
        nu = _param(rng, 3)
        cc = _param(rng, 3)
        yield "affine_outer", (lambda om=om, nu=nu, cc=cc: T.tsum(T.tanh(T.affine_outer(om, nu, cc)))), [nu, cc]

        xa = _param(rng, 2, 5, away_from_zero=True)
        yield "relu", (lambda xa=xa: T.tsum(T.mul(T.relu(xa), T.relu(xa)))), [xa]
        yield "tanh", (lambda xa=xa: T.tsum(T.tanh(xa))), [xa]
        yield "sigmoid", (lambda xa=xa: T.tsum(T.sigmoid(xa))), [xa]
        lab = rng.integers(0, 5, size=2)
        yield "softmax_ce", (lambda xa=xa, lab=lab: cross_entropy_loss(T.softmax(xa), lab)), [xa]

        xi = _param(rng, 2, 2, 4, 4)
        k = _param(rng, 3, 2, 3, 3)
        kb = _param(rng, 3)
        yield "conv2d", (lambda xi=xi, k=k, kb=kb: T.tsum(T.tanh(T.conv2d(xi, k, kb, 1, 1)))), [xi, k, kb]
        k4 = _param(rng, 3, 2, 4, 4)
        yield "conv2d_s2", (lambda xi=xi, k4=k4, kb=kb: T.tsum(T.tanh(T.conv2d(xi, k4, kb, 2, 1)))), [xi, k4, kb]
        yield "upsample_conv", (
            lambda xi=xi, k=k, kb=kb: T.tsum(T.tanh(T.upconv2d(xi, k, kb, 2, 1)))
        ), [xi, k, kb]
        # non-square kernels, so a KH/KW mix-up in the bands or taps cannot cancel
        xn = _param(rng, 2, 2, 5, 4)
        k32 = _param(rng, 3, 2, 3, 2)
        yield "conv2d_s2_k3x2", (
            lambda xn=xn, k32=k32, kb=kb: T.tsum(T.tanh(T.conv2d(xn, k32, kb, 2, 1)))
        ), [xn, k32, kb]
        x22 = _param(rng, 2, 2, 2, 2)  # a map smaller than the kernel window
        yield "conv2d_2x2_k3x2", (
            lambda x22=x22, k32=k32, kb=kb: T.tsum(T.tanh(T.conv2d(x22, k32, kb, 1, 1)))
        ), [x22, k32, kb]
        k23 = _param(rng, 3, 2, 2, 3)
        yield "upsample_conv_k2x3", (
            lambda xi=xi, k23=k23, kb=kb: T.tsum(T.tanh(T.upconv2d(xi, k23, kb, 2, 1)))
        ), [xi, k23, kb]

        zr = _param(rng, 2, 6, away_from_zero=True)
        yield "power_normalize", (lambda zr=zr: T.tsum(T.tanh(power_normalize(zr).values))), [zr]

        xm = _param(rng, 2, 3)
        ym = _param(rng, 2, 3)
        yield "mse_loss", (lambda xm=xm, ym=ym: mse_loss(xm, ym)), [xm, ym]
        # mse_loss is one node of its own, so tmean needs a case; it reuses xm to keep the draws
        yield "tmean", (lambda xm=xm: T.tmean(T.tanh(xm))), [xm]


def _layer_checks(rng: np.random.Generator, cases: int):
    for i in range(cases):
        # a 0..20 dB SNR mapped to [-1, 1], one per sample
        om = np.full(2, 0.1 * float(rng.uniform(0, 20)) - 1.0)
        xc = Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)))
        block = build_layer(LayerSpec("resblock", out=3, act="tanh", hyper=True), 2, rng)
        params = [t for _, t in block.named_params()]
        yield "resnet_block", (lambda block=block, xc=xc, om=om: T.tsum(block.forward(xc, om))), params

        # the head each base op applies: scaled per sample, and plain
        heads = (("scaled_", True), ("", False))
        for name, act, (tag, hyper) in itertools.product(HEAD_INPUTS, T.CONV_ACTIVATIONS, heads):
            layer, xs = _head_layer(rng, name, act, hyper, om)
            params = [xs] + [t for _, t in layer.named_params()]
            yield f"{name}_{tag}{act}", (
                lambda layer=layer, xs=xs, om=om: T.tsum(T.tanh(layer.forward(xs, om)))
            ), params
        layer, xs = _head_layer(rng, "dense", "softmax", True, om)
        params = [xs] + [t for _, t in layer.named_params()]
        lab = rng.integers(0, 3, size=2)
        yield "dense_scaled_softmax_ce", (
            lambda layer=layer, xs=xs, om=om, lab=lab: cross_entropy_loss(layer.forward(xs, om), lab)
        ), params


RELU_MARGIN = 1e-3  # a relu input this close to 0 may cross the kink under a finite-difference step
# the layer-head checks: layer kind (the name up to "_") -> the shape of one input sample; the
# 3x3 kernel takes conv2d's dense path on a 3x3 map and its taps on a 4x4 one
HEAD_INPUTS = {"dense": (4,), "conv": (2, 3, 3), "conv_4x4": (2, 4, 4), "deconv": (2, 3, 3)}


def _head_layer(rng, name: str, act: str, hyper: bool, om):
    """A layer, with its bias off zero and nu and c off the identity if it has a scale, and an input for it.

    The scale multiplies the bias too, so a zero bias would hide an op
    that scaled x @ W alone.

    For relu the draw is repeated until no pre-activation (the layer's
    output with a linear activation) is within RELU_MARGIN of the kink.
    """
    kind, shape = name.split("_")[0], HEAD_INPUTS[name]
    spec = LayerSpec(kind, out=3, padding=1, upsample=2 if kind == "deconv" else 1, hyper=hyper)
    while True:
        layer, xs = build_layer(spec, shape[0], rng), _param(rng, 2, *shape)
        layer.base.b0.data = rng.uniform(-0.3, 0.3, 3)
        if hyper:
            layer.scale.nu.data = rng.uniform(-0.3, 0.3, 3)
            layer.scale.c.data = rng.uniform(0.5, 1.5, 3)
        if act != "relu" or np.abs(layer.forward(xs, om).data).min() >= RELU_MARGIN:
            layer.base.act = act
            return layer, xs


def tiny_model_config():
    """A <200 parameter model: small enough for exhaustive finite differences."""
    return ModelConfig(
        task="reconstruction",
        input_shape=(1, 2, 2),
        bandwidth=2,
        encoder=[
            LayerSpec("flatten"),
            LayerSpec("dense", out=4, act="tanh", hyper=True),
            LayerSpec("dense", out=4, act="linear", hyper=True),
        ],
        decoder=[
            LayerSpec("dense", out=4, act="tanh", hyper=True),
            LayerSpec("dense", out=4, act="tanh", hyper=True),
        ],
    )


def objective_check(rng: np.random.Generator) -> CheckResult:
    """End-to-end gradient of the Monte-Carlo objective with frozen noise."""
    cfg = tiny_model_config()
    model = build_model(cfg, seed=int(rng.integers(1 << 31)))
    for _, t in model.named_parameters():
        if t.data.ndim == 1 and np.all(t.data == 0):  # excite nu and biases
            t.data = rng.uniform(-0.1, 0.1, t.data.shape)
    x = rng.uniform(-0.9, 0.9, (2, 1, 2, 2))
    omegas = rng.uniform(0, 20, size=2)
    noise_seed = int(rng.integers(1 << 31))

    def loss():
        xt = Tensor(x)
        return mse_loss(xt, forward_pipeline(model, xt, omegas, np.random.default_rng(noise_seed)))

    params = model.parameters()
    err = finite_diff_check(loss, params)
    return CheckResult("end_to_end_objective", err)


def run_suite(size: str = "tiny", seed: int = 0) -> list[CheckResult]:
    """Run every check; 'small' uses enough repeats for 100+ cases in total."""
    cases = 2 if size == "tiny" else 8
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}
    # chain() starts the layer checks' draws only after the op checks are exhausted, as two loops did
    for name, f, params in itertools.chain(_checks(rng, cases), _layer_checks(rng, cases)):
        worst[name] = max(worst.get(name, 0.0), finite_diff_check(f, params))
    results = [CheckResult(name, err) for name, err in worst.items()]
    results.append(objective_check(rng))
    return results
